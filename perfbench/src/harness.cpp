#include "harness.h"

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <fstream>
#include <limits>
#include <sstream>

#include "common/hash.h"
#include "common/rng.h"
#include "smartpaf/fhe_deploy.h"

namespace perfbench {

namespace {
const Clock::time_point g_process_start = Clock::now();

/// Hard cap on the timed loop, measured from process start: the run must
/// end (verification and teardown included) well inside 180 s.
constexpr double kLoopCapSeconds = 120.0;
}  // namespace

double ms_between(Clock::time_point a, Clock::time_point b) {
  return std::chrono::duration<double, std::milli>(b - a).count();
}

double seconds_since(Clock::time_point t) {
  return std::chrono::duration<double>(Clock::now() - t).count();
}

Clock::time_point process_start() { return g_process_start; }

double percentile(std::vector<double> v, double p) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const double pos = p / 100.0 * static_cast<double>(v.size() - 1);
  const auto lo = static_cast<std::size_t>(std::floor(pos));
  const std::size_t hi = std::min(lo + 1, v.size() - 1);
  return v[lo] + (v[hi] - v[lo]) * (pos - static_cast<double>(lo));
}

double median(std::vector<double> v) { return percentile(std::move(v), 50.0); }

double peak_rss_mb() {
  std::ifstream f("/proc/self/status");
  std::string line;
  while (std::getline(f, line))
    if (line.rfind("VmHWM:", 0) == 0) return std::stod(line.substr(6)) / 1024.0;
  return 0.0;
}

std::string fnv_hex(const std::string& s) {
  std::uint64_t h = sp::kFnvOffset;
  for (const unsigned char c : s) h = sp::fnv_mix(h, c);
  char buf[17];
  std::snprintf(buf, sizeof(buf), "%016llx", static_cast<unsigned long long>(h));
  return buf;
}

double median_rate(std::vector<Clock::time_point> done, Clock::time_point start,
                   std::size_t window) {
  std::sort(done.begin(), done.end());
  window = std::min(window, done.size());  // a short run is one window
  if (window == 0) return 0.0;
  std::vector<double> rates;
  for (std::size_t end = window; end <= done.size(); end += window) {
    const Clock::time_point from = end == window ? start : done[end - window - 1];
    const double s = std::chrono::duration<double>(done[end - 1] - from).count();
    if (s > 0.0) rates.push_back(static_cast<double>(window) / s);
  }
  return median(rates);
}

double max_abs_err(const std::vector<double>& got, const std::vector<double>& want) {
  if (got.size() < want.size()) return std::numeric_limits<double>::infinity();
  double err = 0.0;
  for (std::size_t i = 0; i < got.size(); ++i) {
    const double d = std::abs(got[i] - (i < want.size() ? want[i] : 0.0));
    if (!std::isfinite(d)) return std::numeric_limits<double>::infinity();
    err = std::max(err, d);
  }
  return err;
}

double ErrorTally::bits() const {
  if (checked == 0) return 0.0;
  if (!std::isfinite(worst)) return -64.0;
  return worst > 0.0 ? -std::log2(worst) : 64.0;
}

std::uint64_t derive_seed(std::uint64_t seed, std::uint64_t tag, std::uint64_t index) {
  std::uint64_t h = sp::fnv_mix(sp::kFnvOffset, seed);
  h = sp::fnv_mix(h, tag);
  return sp::fnv_mix(h, index);
}

bool keep_going(const Options& o, Clock::time_point loop_start, std::size_t units,
                std::size_t floor) {
  if (seconds_since(process_start()) > kLoopCapSeconds) return false;
  const double elapsed = seconds_since(loop_start);
  // The floor may stretch a slow run by a quarter of --seconds, no further:
  // on a contended host the run then ends with fewer units instead of
  // overrunning the time budget of repeated runs.
  return elapsed < o.seconds || (units < floor && elapsed < 1.25 * o.seconds);
}

// ------------------------------------------------------------------ tracer --

Tracer::Id Tracer::begin(const char* name, std::uint64_t unit, Id parent,
                         Clock::time_point start) {
  if (!enabled_) return -1;
  std::lock_guard<std::mutex> lock(mu_);
  spans_.push_back({name, unit, parent, start, start, false});
  return static_cast<Id>(spans_.size() - 1);
}

void Tracer::end(Id id, Clock::time_point end) {
  if (!enabled_ || id < 0) return;
  std::lock_guard<std::mutex> lock(mu_);
  Span& s = spans_[static_cast<std::size_t>(id)];
  s.end = end;
  s.closed = true;
}

Tracer::Id Tracer::record(const char* name, std::uint64_t unit, Id parent,
                          Clock::time_point start, Clock::time_point end) {
  if (!enabled_) return -1;
  std::lock_guard<std::mutex> lock(mu_);
  spans_.push_back({name, unit, parent, start, end, true});
  return static_cast<Id>(spans_.size() - 1);
}

std::vector<double> Tracer::durations_ms(const std::string& name) const {
  std::lock_guard<std::mutex> lock(mu_);
  std::vector<double> out;
  for (const Span& s : spans_)
    if (s.closed && name == s.name) out.push_back(ms_between(s.start, s.end));
  return out;
}

std::vector<double> Tracer::self_times_locked() const {
  std::vector<std::vector<std::size_t>> children(spans_.size());
  for (std::size_t i = 0; i < spans_.size(); ++i)
    if (spans_[i].parent >= 0) children[static_cast<std::size_t>(spans_[i].parent)].push_back(i);
  std::vector<double> self(spans_.size(), 0.0);
  for (std::size_t i = 0; i < spans_.size(); ++i) {
    const Span& s = spans_[i];
    if (!s.closed) continue;
    // Union of the children's intervals, clipped to the parent.
    std::vector<std::pair<Clock::time_point, Clock::time_point>> iv;
    for (const std::size_t c : children[i]) {
      if (!spans_[c].closed) continue;
      const auto a = std::max(spans_[c].start, s.start);
      const auto b = std::min(spans_[c].end, s.end);
      if (a < b) iv.emplace_back(a, b);
    }
    std::sort(iv.begin(), iv.end());
    double covered = 0.0;
    Clock::time_point cur_a{}, cur_b{};
    bool open = false;
    for (const auto& x : iv) {
      if (open && x.first <= cur_b) {
        cur_b = std::max(cur_b, x.second);
        continue;
      }
      if (open) covered += ms_between(cur_a, cur_b);
      cur_a = x.first;
      cur_b = x.second;
      open = true;
    }
    if (open) covered += ms_between(cur_a, cur_b);
    self[i] = ms_between(s.start, s.end) - covered;
  }
  return self;
}

void Tracer::write_json(const std::string& path) const {
  if (path.empty()) return;
  std::lock_guard<std::mutex> lock(mu_);
  const std::vector<double> self = self_times_locked();
  std::ofstream f(path);
  if (!f) {
    std::fprintf(stderr, "perfbench: cannot write spans to %s\n", path.c_str());
    return;
  }
  f << "{\"spans\": [\n";
  std::map<std::string, std::pair<std::vector<double>, std::vector<double>>> by_name;
  bool first = true;
  for (std::size_t i = 0; i < spans_.size(); ++i) {
    const Span& s = spans_[i];
    if (!s.closed) continue;
    char buf[256];
    std::snprintf(buf, sizeof(buf),
                  "%s{\"id\": %zu, \"name\": \"%s\", \"unit\": %llu, \"parent\": %lld, "
                  "\"start_ms\": %.4f, \"end_ms\": %.4f, \"self_ms\": %.4f}",
                  first ? "" : ",\n", i, s.name, static_cast<unsigned long long>(s.unit),
                  static_cast<long long>(s.parent), ms_between(origin_, s.start),
                  ms_between(origin_, s.end), self[i]);
    f << buf;
    first = false;
    by_name[s.name].first.push_back(ms_between(s.start, s.end));
    by_name[s.name].second.push_back(self[i]);
  }
  f << "\n], \"summary\": {";
  first = true;
  for (const auto& kv : by_name) {
    char buf[256];
    std::snprintf(buf, sizeof(buf),
                  "%s\n  \"%s\": {\"count\": %zu, \"p50_ms\": %.4f, \"self_p50_ms\": %.4f}",
                  first ? "" : ",", kv.first.c_str(), kv.second.first.size(),
                  median(kv.second.first), median(kv.second.second));
    f << buf;
    first = false;
  }
  f << "\n}}\n";
}

// ------------------------------------------------------------------ counts --

Counts Counts::delta(const sp::fhe::OpCounters& after, const sp::fhe::OpCounters& before) {
  const sp::fhe::OpCounters d = after.delta_since(before);
  Counts c;
  c.v = {d.rotations.load(), d.hoisted_rotations.load(), d.ct_mults.load(),
         d.relins.load(),    d.rescales.load(),          d.plain_mults.load(),
         d.ntts_forward.load(), d.ntts_inverse.load()};
  return c;
}

std::string Counts::str() const {
  std::ostringstream os;
  for (std::size_t i = 0; i < v.size(); ++i) os << (i ? "/" : "") << v[i];
  return os.str();
}

// ------------------------------------------------------------------- probe --

namespace {

/// Median ms of `repeats` runs of op(fresh()), preparing the operand off the clock.
template <typename Fresh, typename Op>
double time_median(int repeats, Fresh fresh, Op op) {
  std::vector<double> ms;
  for (int i = 0; i < repeats; ++i) {
    auto x = fresh();
    const auto t0 = Clock::now();
    op(x);
    ms.push_back(ms_between(t0, Clock::now()));
  }
  return median(ms);
}

}  // namespace

Probe probe_primitives(sp::smartpaf::FheRuntime& rt, int repeats) {
  namespace fhe = sp::fhe;
  fhe::Evaluator& ev = rt.evaluator();
  const std::size_t slots = rt.ctx().slot_count();
  sp::Rng rng(99);
  std::vector<double> va(slots), vb(slots);
  for (double& v : va) v = rng.uniform(-1.0, 1.0);
  for (double& v : vb) v = rng.uniform(-1.0, 1.0);
  const fhe::Ciphertext a = rt.encrypt(va);
  const fhe::Ciphertext b = rt.encrypt(vb);
  const auto gk = rt.rotation_keys({1});
  const fhe::Plaintext pt = rt.encoder().encode(vb, rt.ctx().scale(), a.q_count());

  Probe p;
  const fhe::Ciphertext prod = ev.multiply_no_relin(a, b);
  fhe::Ciphertext relin = prod;
  ev.relinearize_inplace(relin, rt.relin_key());
  p.mult_ms = time_median(repeats, [] { return 0; },
                          [&](int) { (void)ev.multiply_no_relin(a, b); });
  p.relin_ms = time_median(repeats, [&] { return prod; },
                           [&](fhe::Ciphertext& c) { ev.relinearize_inplace(c, rt.relin_key()); });
  p.rescale_ms = time_median(repeats, [&] { return relin; },
                             [&](fhe::Ciphertext& c) { ev.rescale_inplace(c); });
  p.plain_mult_ms = time_median(repeats, [&] { return a; },
                                [&](fhe::Ciphertext& c) { ev.multiply_plain_inplace(c, pt); });
  p.rotate_ms = time_median(repeats, [] { return 0; },
                            [&](int) { (void)ev.rotate(a, 1, *gk); });
  const fhe::HoistedDecomposition h = ev.hoist(a);
  p.hoisted_rotate_ms = time_median(repeats, [] { return 0; },
                                    [&](int) { (void)ev.rotate_hoisted(h, 1, *gk); });
  fhe::RnsPoly coeff = a.parts[0];
  if (coeff.is_ntt()) coeff.from_ntt();
  p.ntt_fwd_us = 1e3 *
                 time_median(repeats, [&] { return coeff; },
                             [](fhe::RnsPoly& poly) { poly.to_ntt(); }) /
                 static_cast<double>(coeff.q_count());
  return p;
}

void add_fhe_metrics(Result& r, const std::array<double, 8>& per_unit, const Probe& probe,
                     double unit_ms) {
  for (std::size_t i = 0; i < kCountNames.size(); ++i)
    r.layer(kCountNames[i], per_unit[i], "count");
  r.layer("fhe.mult_relin_rescale_ms", probe.mult_ms + probe.relin_ms + probe.rescale_ms, "ms");
  r.layer("fhe.rotate_ms", probe.rotate_ms, "ms");
  r.layer("fhe.hoisted_rotate_ms", probe.hoisted_rotate_ms, "ms");
  r.layer("fhe.plain_mult_rescale_ms", probe.plain_mult_ms + probe.rescale_ms, "ms");
  r.layer("fhe.ntt_fwd_us", probe.ntt_fwd_us, "us");
  const double rotations = per_unit[0], hoisted = per_unit[1];
  const double attributed = (rotations - hoisted) * probe.rotate_ms +
                            hoisted * probe.hoisted_rotate_ms + per_unit[2] * probe.mult_ms +
                            per_unit[3] * probe.relin_ms + per_unit[4] * probe.rescale_ms +
                            per_unit[5] * probe.plain_mult_ms;
  r.layer("fhe.attributed_frac", unit_ms > 0.0 ? attributed / unit_ms : 0.0, "frac");
}

void add_setup_metrics(Result& r, std::map<std::string, std::vector<double>>& parts) {
  r.layer("smartpaf.keygen_s", median(parts["smartpaf.keygen"]), "s");
  r.layer("smartpaf.rotation_keygen_s", median(parts["smartpaf.rotation_keygen"]), "s");
  r.layer("smartpaf.lower_plan_ms", 1e3 * median(parts["smartpaf.lower_plan"]), "ms");
}

}  // namespace perfbench
