// Shared machinery of the perfbench workloads: options, timing helpers,
// the in-memory span tracer, exact op-count deltas, the primitive probe and
// the result record main() prints.
#pragma once

#include <algorithm>
#include <array>
#include <chrono>
#include <cstdint>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <utility>
#include <vector>

#include "fhe/evaluator.h"

namespace sp::smartpaf {
class FheRuntime;
}

namespace perfbench {

using Clock = std::chrono::steady_clock;

/// Command-line options shared by every workload.
struct Options {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10.0;  ///< measured time of the timed loop
  bool trace = false;     ///< traced run: per-layer metrics instead of end-to-end
  std::string spans_path; ///< where a traced run writes its spans (empty: nowhere)
  /// serve_dense self-test seam: the eval hook throws for this group
  /// (1-based, counted from the first timed group; 0 = never).
  int fail_group = 0;
};

double ms_between(Clock::time_point a, Clock::time_point b);
double seconds_since(Clock::time_point t);
/// Time main() was entered (captured at static initialization).
Clock::time_point process_start();
/// Linear-interpolated percentile (p in [0, 100]); 0 for an empty sample.
double percentile(std::vector<double> v, double p);
double median(std::vector<double> v);
/// VmHWM of this process in MB.
double peak_rss_mb();
/// FNV-1a digest of a string as 16 hex digits (plan fingerprints).
std::string fnv_hex(const std::string& s);
/// Units per second as the median over windows of `window` consecutive
/// completions (the first window starts at `start`; fewer completions than
/// one window make one window): robust to a short stall on a shared
/// machine, unlike one total over the whole loop.
double median_rate(std::vector<Clock::time_point> done, Clock::time_point start,
                   std::size_t window);
/// Max |got[i] - want[i]|, where want is 0 past its end (foreign slots must
/// decrypt to ~0). Infinite when got is shorter than want or a difference
/// is not finite, so a garbled output can never pass a budget.
double max_abs_err(const std::vector<double>& got, const std::vector<double>& want);

/// Worst error over every decrypted unit, inside its budget or not.
struct ErrorTally {
  double worst = 0.0;
  std::size_t checked = 0;
  void add(double err) {
    worst = std::max(worst, err);
    ++checked;
  }
  /// precision_bits: -log2 of the worst error; 0 when no unit was decrypted,
  /// -64 when an error was not finite, 64 when every output was exact.
  double bits() const;
};

/// Per-unit deterministic stream: same (seed, tag, index) gives the same
/// numbers, independent of how many units a run happens to reach.
std::uint64_t derive_seed(std::uint64_t seed, std::uint64_t tag, std::uint64_t index = 0);

/// One named metric as printed in the result line.
struct Metric {
  std::string name;
  double value = 0.0;
  std::string unit;
};

/// What a workload hands back to main().
struct Result {
  bool correct = true;          ///< no checked unit left its error budget
  std::uint64_t attempted = 0;  ///< timed units attempted
  std::uint64_t failed = 0;     ///< rejected, failed, unanswered or out of budget
  std::vector<Metric> end_to_end;
  std::vector<Metric> per_layer;
  std::vector<std::pair<std::string, std::string>> info;  ///< fingerprint extras

  void e2e(const std::string& name, double value, const std::string& unit) {
    end_to_end.push_back({name, value, unit});
  }
  void layer(const std::string& name, double value, const std::string& unit) {
    per_layer.push_back({name, value, unit});
  }
  void note(const std::string& key, const std::string& value) { info.emplace_back(key, value); }
};

/// In-memory span recorder. A span carries a name, start, end, parent span
/// and unit id; spans are kept in memory and written out when the run ends.
/// Disabled tracers record nothing. Thread-safe (the serve workload records
/// from the load generator and from the executor worker).
class Tracer {
 public:
  using Id = std::int64_t;  ///< -1 = no span
  explicit Tracer(bool enabled) : enabled_(enabled) {}
  bool enabled() const { return enabled_; }

  Id begin(const char* name, std::uint64_t unit, Id parent = -1,
           Clock::time_point start = Clock::now());
  void end(Id id, Clock::time_point end = Clock::now());
  /// A closed span with explicit times.
  Id record(const char* name, std::uint64_t unit, Id parent, Clock::time_point start,
            Clock::time_point end);

  /// Durations (ms) of every closed span called `name`.
  std::vector<double> durations_ms(const std::string& name) const;
  /// Writes every span plus a per-name summary (count, p50 duration, p50
  /// self time) as JSON; self time is a span's duration minus the part of
  /// it its child spans cover.
  void write_json(const std::string& path) const;

 private:
  struct Span {
    const char* name;
    std::uint64_t unit;
    Id parent;
    Clock::time_point start, end;
    bool closed;
  };
  std::vector<double> self_times_locked() const;

  bool enabled_;
  mutable std::mutex mu_;
  std::vector<Span> spans_;
  Clock::time_point origin_ = Clock::now();
};

/// RAII span over one call into a layer; a no-op when `on` is false.
class Scope {
 public:
  Scope(Tracer& t, bool on, const char* name, std::uint64_t unit, Tracer::Id parent = -1)
      : t_(on ? &t : nullptr), id_(on ? t.begin(name, unit, parent) : -1) {}
  ~Scope() {
    if (t_ != nullptr) t_->end(id_);
  }
  Scope(const Scope&) = delete;
  Scope& operator=(const Scope&) = delete;
  Tracer::Id id() const { return id_; }

 private:
  Tracer* t_;
  Tracer::Id id_;
};

/// The exact evaluator op counts the benchmark reports, in fixed order.
constexpr std::array<const char*, 8> kCountNames = {
    "fhe.rotations", "fhe.hoisted_rotations", "fhe.ct_mults",   "fhe.relins",
    "fhe.rescales",  "fhe.plain_mults",       "fhe.ntts_forward", "fhe.ntts_inverse"};

struct Counts {
  std::array<std::uint64_t, 8> v{};
  /// after - before of the evaluator's counters.
  static Counts delta(const sp::fhe::OpCounters& after, const sp::fhe::OpCounters& before);
  bool operator==(const Counts& o) const { return v == o.v; }
  bool operator!=(const Counts& o) const { return v != o.v; }
  std::string str() const;
};

/// Top-level timings of single evaluator primitives at a workload's ring.
struct Probe {
  double mult_ms = 0, relin_ms = 0, rescale_ms = 0;  ///< parts of mult_relin_rescale
  double plain_mult_ms = 0;                          ///< part of plain_mult_rescale
  double rotate_ms = 0, hoisted_rotate_ms = 0;
  double ntt_fwd_us = 0;  ///< one forward NTT of one RNS row
};

/// Times each primitive (median of `repeats`) on `rt` at its top level.
/// Runs real homomorphic operations: call it after the timed loop so its
/// counter increments stay out of the per-unit deltas.
Probe probe_primitives(sp::smartpaf::FheRuntime& rt, int repeats = 7);

/// Adds the fhe.* per-layer metrics: per-unit counts (`per_unit` holds
/// count / unit), the probe, and attributed_frac = sum(count x probe time)
/// over `unit_ms`. Counts of ct-mults, relins and rescales are priced with
/// the matching part of the mult/relin/rescale probe, plaintext mults with
/// the plain-mult part, rotations naive or hoisted; forward NTTs are inside
/// those ops and are not priced again.
void add_fhe_metrics(Result& r, const std::array<double, 8>& per_unit, const Probe& probe,
                     double unit_ms);

/// smartpaf.keygen_s, rotation_keygen_s and lower_plan_ms: medians over
/// the run's set-ups of the SetupLog parts of those names.
void add_setup_metrics(Result& r, std::map<std::string, std::vector<double>>& parts);

/// Times the phases of one set-up: each phase adds its seconds to a named
/// part (summed when a phase repeats, e.g. once per tenant) and, in traced
/// runs, records a span of that name under the set-up's root span.
class SetupLog {
 public:
  SetupLog(Tracer& tr, std::uint64_t setup, Tracer::Id root)
      : tr_(tr), setup_(setup), root_(root) {}
  template <typename Fn>
  void time(const char* part, Fn&& fn) {
    const Clock::time_point t0 = Clock::now();
    {
      Scope s(tr_, tr_.enabled(), part, setup_, root_);
      fn();
    }
    parts[part] += seconds_since(t0);
  }
  std::map<std::string, double> parts;

 private:
  Tracer& tr_;
  std::uint64_t setup_;
  Tracer::Id root_;
};

/// Complete set-ups per run; setup_s is their median.
constexpr int kSetups = 3;

/// Builds a workload state kSetups times (each a complete set-up: keys,
/// planning, warm-up units), keeping only the last; the first is timed from
/// process start. `parts` collects each phase's seconds across set-ups.
template <typename State, typename Build>
std::unique_ptr<State> repeat_setup(Tracer& tr, Build build, double* median_s,
                                    std::map<std::string, std::vector<double>>* parts) {
  std::vector<double> secs;
  std::unique_ptr<State> state;
  for (int i = 0; i < kSetups; ++i) {
    state.reset();  // release the previous copy first: peak memory stays one state
    const Clock::time_point t0 = i == 0 ? process_start() : Clock::now();
    const Tracer::Id root = tr.begin("setup", static_cast<std::uint64_t>(i), -1, t0);
    SetupLog log(tr, static_cast<std::uint64_t>(i), root);
    state = build(log);
    tr.end(root);
    secs.push_back(seconds_since(t0));
    for (const auto& kv : log.parts) (*parts)[kv.first].push_back(kv.second);
  }
  *median_s = median(secs);
  return state;
}

/// True while a timed loop should run another unit: until `seconds` have
/// passed and at least `floor` units ran (but for no more than 1.25 x
/// `seconds`), within a hard wall-clock cap that keeps the whole process
/// under the run time limit.
bool keep_going(const Options& o, Clock::time_point loop_start, std::size_t units,
                std::size_t floor);

// The workloads (one translation unit each).
Result run_serve_dense(const Options& o);
Result run_cnn_lenet(const Options& o);
Result run_train_logreg(const Options& o);

}  // namespace perfbench
