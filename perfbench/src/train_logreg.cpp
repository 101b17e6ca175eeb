// train_logreg: closed loop of encrypted training rounds, the Adam
// deg3+inv5 logistic-regression variant at N=2048 on a 20-level chain. One
// round packs its two mini-batches client-side (EncryptedBatch::pack),
// constructs EncryptedLogReg, runs the planned two step()s and serializes
// the checkpoint. ct x ct matvecs plus an inverse-sqrt PAF; io on its write
// side.
#include <cmath>
#include <cstdio>
#include <string>
#include <vector>

#include "data/synthetic.h"
#include "harness.h"
#include "smartpaf/fhe_deploy.h"
#include "train/checkpoint.h"
#include "train/reference.h"

namespace perfbench {

namespace {

using namespace sp;

constexpr std::size_t kRing = 2048;
constexpr int kChainLevels = 20;
constexpr double kBudget = 1e-3;  // the training bench's mirror-parity bar
/// Unit floor for a slow host; --seconds 25 runs ~30 units at
/// ~0.85 s per round on the one pool lane.
constexpr std::size_t kMinUnits = 25;
constexpr std::size_t kRateWindow = 5;  ///< units per throughput window

enum : std::uint64_t { kKeyTag = 11, kDataTag = 12 };

train::TrainConfig adam_config() {
  train::TrainConfig cfg;
  cfg.batch = 16;
  cfg.iterations = 2;
  cfg.optimizer = train::Optimizer::Adam;
  cfg.lr = 0.25;
  return cfg;
}

struct State {
  std::unique_ptr<smartpaf::FheRuntime> rt;
  train::TrainPlan plan;
  /// Round r trains on pairs[r % size]: the two mini-batches its two steps use.
  std::vector<std::vector<train::MiniBatch>> pairs;
  std::vector<std::vector<double>> want;  ///< mirror weights after each pair
};

struct Timings {
  double total_ms = 0;  ///< the round's latency
  std::size_t ckpt_bytes = 0;
};

/// One training round; returns the decrypted weights (checked off the clock).
std::vector<double> round_trip(State& st, std::size_t pair, Tracer& tr, bool traced,
                               std::uint64_t unit, Timings* t, Counts* counts) {
  const fhe::OpCounters before = st.rt->evaluator().counters;
  const auto t0 = Clock::now();
  Scope root(tr, traced, "train.round", unit);
  std::vector<train::EncryptedBatch> enc;
  {
    Scope s(tr, traced, "train.pack", unit, root.id());
    for (const train::MiniBatch& mb : st.pairs[pair])
      enc.push_back(train::EncryptedBatch::pack(mb, st.plan, *st.rt));
  }
  std::unique_ptr<train::EncryptedLogReg> model;
  {
    Scope s(tr, traced, "train.init", unit, root.id());
    model = std::make_unique<train::EncryptedLogReg>(st.plan, *st.rt);
  }
  {
    Scope s(tr, traced, "train.steps", unit, root.id());
    for (const train::EncryptedBatch& b : enc) model->step(b);
  }
  std::size_t bytes = 0;
  {
    Scope s(tr, traced, "io.checkpoint", unit, root.id());
    bytes = train::serialize_training_state(model->state()).size();
  }
  const auto t1 = Clock::now();
  if (counts != nullptr) *counts = Counts::delta(st.rt->evaluator().counters, before);
  if (t != nullptr) *t = {ms_between(t0, t1), bytes};
  return model->weights();
}

std::unique_ptr<State> build(const Options& o, SetupLog& log) {
  auto st = std::make_unique<State>();
  log.time("smartpaf.keygen", [&] {
    st->rt = std::make_unique<smartpaf::FheRuntime>(
        fhe::CkksParams::for_depth(kRing, kChainLevels, 40), derive_seed(o.seed, kKeyTag));
  });
  log.time("smartpaf.lower_plan",
           [&] { st->plan = train::TrainPlan::plan(adam_config(), st->rt->ctx()); });
  log.time("smartpaf.rotation_keygen", [&] { st->rt->rotation_keys(st->plan.rotation_steps()); });

  // Seeded data: a two-Gaussian training split cut into mini-batches, taken
  // two per round (eight distinct pairs); the PAF mirror gives each pair's
  // expected weights and the range pre-flight guards the sigmoid's fitted
  // interval.
  data::TwoGaussianSpec spec;
  spec.seed = derive_seed(o.seed, kDataTag);
  spec.train_count = 256;
  const data::TwoGaussianData ds = data::make_two_gaussian(spec);
  const auto batches = train::make_batches(data::design_matrix(ds.train), adam_config().batch);
  for (std::size_t i = 0; i + 1 < batches.size(); i += 2) {
    std::vector<train::MiniBatch> pair = {batches[i], batches[i + 1]};
    train::check_sigmoid_range(st->plan, pair);
    st->want.push_back(train::reference_paf_run(st->plan, pair).weights_per_iter.back());
    st->pairs.push_back(std::move(pair));
  }

  log.time("setup.warmup", [&] {
    Tracer off(false);
    round_trip(*st, 0, off, false, 0, nullptr, nullptr);
  });
  return st;
}

}  // namespace

Result run_train_logreg(const Options& o) {
  Result r;
  double setup_s = 0.0;
  std::map<std::string, std::vector<double>> parts;
  Tracer tr(o.trace);
  auto st = repeat_setup<State>(
      tr, [&](SetupLog& log) { return build(o, log); }, &setup_s, &parts);
  std::vector<double> lat, lat_traced, lat_plain, ckpt_kb;
  Counts first;
  bool counts_repeat = true;
  ErrorTally errors;
  std::size_t ok = 0;

  const auto loop_start = Clock::now();
  std::size_t units = 0;
  struct Done {
    std::size_t pair;
    std::vector<double> w;
    Clock::time_point at;  ///< when the round finished
  };
  std::vector<Done> done;
  while (keep_going(o, loop_start, units, kMinUnits)) {
    const std::uint64_t u = units++;
    const bool traced = o.trace && u % 2 == 1;
    const std::size_t pair = u % st->pairs.size();
    try {
      Timings t;
      Counts c;
      std::vector<double> w = round_trip(*st, pair, tr, traced, u, &t, &c);
      if (done.empty()) first = c;
      else if (c != first) counts_repeat = false;
      lat.push_back(t.total_ms);
      (traced ? lat_traced : lat_plain).push_back(t.total_ms);
      ckpt_kb.push_back(static_cast<double>(t.ckpt_bytes) / 1024.0);
      done.push_back({pair, std::move(w), Clock::now()});
    } catch (const std::exception& e) {
      std::fprintf(stderr, "train_logreg: round %llu failed: %s\n",
                   static_cast<unsigned long long>(u), e.what());
    }
  }

  std::vector<Clock::time_point> finished;  // rounds that passed the check
  for (const Done& d : done) {
    const double err = max_abs_err(d.w, st->want[d.pair]);
    errors.add(err);
    if (!(err < kBudget)) {
      r.correct = false;
      std::fprintf(stderr, "train_logreg: weights off the mirror by %.3e (budget %.1e)\n", err,
                   kBudget);
      continue;
    }
    ++ok;
    finished.push_back(d.at);
  }
  if (!counts_repeat) {
    r.correct = false;
    std::fprintf(stderr, "train_logreg: op counts differ between rounds\n");
  }
  r.attempted = units;
  r.failed = units - ok;
  r.note("plan_fnv", fnv_hex(st->plan.describe()));
  r.note("counts", first.str());
  r.note("samples", std::to_string(lat.size()));

  if (!o.trace) {
    r.e2e("setup_s", setup_s, "s");
    r.e2e("latency_p50_ms", percentile(lat, 50), "ms");
    r.e2e("latency_p90_ms", percentile(lat, 90), "ms");
    r.e2e("throughput_per_s", median_rate(finished, loop_start, kRateWindow), "1/s");
    r.e2e("precision_bits", errors.bits(), "bits");
    r.e2e("completed_frac", units ? static_cast<double>(ok) / units : 0.0, "frac");
    r.e2e("peak_rss_mb", peak_rss_mb(), "MB");
    return r;
  }

  add_setup_metrics(r, parts);
  r.layer("train.pack_ms_p50", median(tr.durations_ms("train.pack")), "ms");
  r.layer("train.init_ms_p50", median(tr.durations_ms("train.init")), "ms");
  r.layer("train.steps_ms_p50", median(tr.durations_ms("train.steps")), "ms");
  r.layer("io.checkpoint_ms_p50", median(tr.durations_ms("io.checkpoint")), "ms");
  r.layer("io.checkpoint_kb", median(ckpt_kb), "KB");

  std::array<double, 8> per_unit{};
  for (std::size_t i = 0; i < per_unit.size(); ++i) per_unit[i] = static_cast<double>(first.v[i]);
  add_fhe_metrics(r, per_unit, probe_primitives(*st->rt), percentile(lat, 50));
  r.layer("trace.overhead_ms", percentile(lat_traced, 50) - percentile(lat_plain, 50), "ms");
  tr.write_json(o.spans_path);
  return r;
}

}  // namespace perfbench
