// cnn_lenet: closed loop, one client, no serving or io layer. Each unit is
// one models::lenet_small inference (default config, degree-3 PAF ReLUs at
// static scale 2.0) at N=8192 on a 12-level chain: pack_layout ->
// FheRuntime::encrypt -> FhePipeline::run_blocks -> decrypt. Rotation-heavy
// and PAF-light, with Galois keys far larger than the last-level cache.
#include <cmath>
#include <cstdio>
#include <string>
#include <vector>

#include "approx/composite.h"
#include "common/rng.h"
#include "harness.h"
#include "models/zoo.h"
#include "smartpaf/fhe_deploy.h"
#include "smartpaf/pipeline.h"
#include "smartpaf/pipeline_planner.h"
#include "smartpaf/replace.h"

namespace perfbench {

namespace {

using namespace sp;

constexpr std::size_t kRing = 8192;
constexpr int kChainLevels = 12;
const double kBudget = std::ldexp(1.0, -20);  // the pipeline parity budget
/// Unit floor for a slow host; --seconds 25 runs ~30 units at
/// ~0.8 s per unit on the one pool lane.
constexpr std::size_t kMinUnits = 25;
constexpr std::size_t kRateWindow = 5;  ///< units per throughput window

enum : std::uint64_t { kKeyTag = 1, kImageTag = 2, kWarmTag = 3 };

/// Degree-3 odd PAF with seeded coefficients, as the conv test suite uses.
approx::CompositePaf deg3_paf(std::uint64_t seed) {
  sp::Rng rng(seed);
  std::vector<double> c(4, 0.0);
  for (int k = 1; k <= 3; k += 2) c[static_cast<std::size_t>(k)] = rng.uniform(-1.0, 1.0) / 6.0;
  return approx::CompositePaf("deg3", {approx::Polynomial(c)});
}

smartpaf::FhePipeline lower_lenet() {
  models::LenetConfig cfg;
  cfg.seed = 6;
  nn::Model model = models::lenet_small(cfg);
  for (const auto& site : smartpaf::find_nonpoly_sites(model))
    smartpaf::replace_site(model, site, deg3_paf(43 + site.index),
                           smartpaf::ScaleMode::Dynamic);
  for (smartpaf::PafLayerBase* p : smartpaf::find_paf_layers(model))
    p->set_static_scale(2.0f);
  return smartpaf::FhePipeline::lower(
      model, smartpaf::GridShape{cfg.in_channels, cfg.image, cfg.image});
}

std::vector<double> image(std::uint64_t seed) {
  sp::Rng rng(seed);
  std::vector<double> v(144);  // 1 x 12 x 12
  for (double& x : v) x = rng.uniform(-1.0, 1.0);
  return v;
}

struct State {
  std::unique_ptr<smartpaf::FheRuntime> rt;
  smartpaf::FhePipeline pipe;
  smartpaf::Plan plan;
  smartpaf::StageLayout in_layout, out_layout;
};

/// Plaintext mirror on the logical vector: reference() at an extent where
/// every layout is one block, gathered back to logical order.
std::vector<double> mirror(const smartpaf::FhePipeline& pipe, const std::vector<double>& x) {
  const std::size_t extent = 8192;
  const auto layouts = pipe.stage_layouts(extent);
  const auto packed = smartpaf::pack_layout(x, layouts.front().first, extent);
  const auto ref = pipe.reference(packed.at(0));
  const auto& out = layouts.back().second;
  std::vector<double> g(out.width);
  for (std::size_t i = 0; i < out.width; ++i) g[i] = ref[smartpaf::layout_slot(out, i).second];
  return g;
}

struct Timings {
  double run_ms = 0;    ///< run_blocks alone
  double total_ms = 0;  ///< pack + encrypt + run + decrypt: the unit's latency
};

/// One inference; spans only when `traced`.
std::vector<double> infer(State& st, const smartpaf::Plan& plan, const std::vector<double>& x,
                          Tracer& tr, bool traced, std::uint64_t unit, Timings* t,
                          Counts* counts) {
  const auto t0 = Clock::now();
  Scope root(tr, traced, "cnn.inference", unit);
  const std::size_t slots = st.rt->ctx().slot_count();
  std::vector<fhe::Ciphertext> in;
  {
    Scope s(tr, traced, "smartpaf.encrypt", unit, root.id());
    for (const auto& block : smartpaf::pack_layout(x, st.in_layout, slots))
      in.push_back(st.rt->encrypt(block));
  }
  const auto t1 = Clock::now();
  const fhe::OpCounters before = st.rt->evaluator().counters;
  std::vector<fhe::Ciphertext> out;
  {
    Scope s(tr, traced, "smartpaf.run", unit, root.id());
    out = st.pipe.run_blocks(*st.rt, plan, in);
  }
  const auto t2 = Clock::now();
  if (counts != nullptr) *counts = Counts::delta(st.rt->evaluator().counters, before);
  std::vector<std::vector<double>> dec;
  {
    Scope s(tr, traced, "smartpaf.decrypt", unit, root.id());
    for (const auto& ct : out) dec.push_back(st.rt->decrypt(ct));
  }
  std::vector<double> got = smartpaf::unpack_layout(dec, st.out_layout);
  const auto t3 = Clock::now();
  if (t != nullptr) *t = {ms_between(t1, t2), ms_between(t0, t3)};
  return got;
}

std::unique_ptr<State> build(const Options& o, SetupLog& log) {
  auto st = std::make_unique<State>();
  log.time("smartpaf.keygen", [&] {
    st->rt = std::make_unique<smartpaf::FheRuntime>(
        fhe::CkksParams::for_depth(kRing, kChainLevels, 40), derive_seed(o.seed, kKeyTag));
  });
  log.time("smartpaf.lower_plan", [&] {
    st->pipe = lower_lenet();
    st->plan =
        smartpaf::Planner::plan(st->pipe, st->rt->ctx(), smartpaf::CostModel::heuristic());
    const auto layouts = st->pipe.stage_layouts(st->rt->ctx().slot_count());
    st->in_layout = layouts.front().first;
    st->out_layout = layouts.back().second;
  });
  log.time("smartpaf.rotation_keygen", [&] { st->rt->rotation_keys(st->plan.rotation_steps()); });
  // Warm-up unit: fills the encoder's plaintext cache (conv masks, matmul
  // diagonals) so timed units see the steady state.
  log.time("setup.warmup", [&] {
    Tracer off(false);
    infer(*st, st->plan, image(derive_seed(o.seed, kWarmTag)), off, false, 0, nullptr, nullptr);
  });
  return st;
}

}  // namespace

Result run_cnn_lenet(const Options& o) {
  Result r;
  double setup_s = 0.0;
  std::map<std::string, std::vector<double>> parts;
  Tracer tr(o.trace);
  auto st = repeat_setup<State>(
      tr, [&](SetupLog& log) { return build(o, log); }, &setup_s, &parts);
  struct Done {
    std::uint64_t unit;
    std::vector<double> got;
    Clock::time_point at;  ///< when the unit finished
  };
  std::vector<Done> done;
  std::vector<double> lat, lat_traced, lat_plain;
  Counts first;
  bool counts_repeat = true;

  const auto loop_start = Clock::now();
  std::size_t units = 0;
  while (keep_going(o, loop_start, units, kMinUnits)) {
    const std::uint64_t u = units++;
    // Traced runs trace every other unit, so traced and untraced units
    // share machine conditions and their difference is the overhead.
    const bool traced = o.trace && u % 2 == 1;
    try {
      Timings t;
      Counts c;
      std::vector<double> got =
          infer(*st, st->plan, image(derive_seed(o.seed, kImageTag, u)), tr, traced, u, &t, &c);
      if (done.empty()) first = c;
      else if (c != first) counts_repeat = false;
      lat.push_back(t.total_ms);
      (traced ? lat_traced : lat_plain).push_back(t.total_ms);
      done.push_back({u, std::move(got), Clock::now()});
    } catch (const std::exception& e) {
      std::fprintf(stderr, "cnn_lenet: unit %llu failed: %s\n",
                   static_cast<unsigned long long>(u), e.what());
    }
  }

  // Correctness, off the clock: every unit against the plaintext mirror.
  ErrorTally errors;
  std::size_t ok = 0;
  std::vector<Clock::time_point> finished;  // units that passed the check
  for (const Done& d : done) {
    const std::vector<double> want = mirror(st->pipe, image(derive_seed(o.seed, kImageTag, d.unit)));
    const double err = max_abs_err(d.got, want);
    errors.add(err);
    if (!(err < kBudget)) {
      r.correct = false;
      std::fprintf(stderr, "cnn_lenet: unit %llu off by %.3e (budget %.3e)\n",
                   static_cast<unsigned long long>(d.unit), err, kBudget);
      continue;
    }
    ++ok;
    finished.push_back(d.at);
  }
  if (!counts_repeat) {
    r.correct = false;
    std::fprintf(stderr, "cnn_lenet: op counts differ between units\n");
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
  r.layer("smartpaf.encrypt_ms_p50", median(tr.durations_ms("smartpaf.encrypt")), "ms");
  r.layer("smartpaf.decrypt_ms_p50", median(tr.durations_ms("smartpaf.decrypt")), "ms");
  r.layer("smartpaf.run_ms_p50", percentile(tr.durations_ms("smartpaf.run"), 50), "ms");
  r.layer("smartpaf.run_ms_p90", percentile(tr.durations_ms("smartpaf.run"), 90), "ms");

  // Planner accuracy: a plan from a calibrated cost table, predicted ms over
  // measured ms of its run_blocks.
  {
    const smartpaf::CostModel cal = smartpaf::CostModel::calibrate(*st->rt, 3);
    const smartpaf::Plan plan = smartpaf::Planner::plan(st->pipe, st->rt->ctx(), cal);
    st->rt->rotation_keys(plan.rotation_steps());
    Tracer off(false);
    std::vector<double> ms;
    for (int i = 0; i < 4; ++i) {
      Timings t;
      infer(*st, plan, image(derive_seed(o.seed, kWarmTag, i)), off, false, 0, &t, nullptr);
      if (i > 0) ms.push_back(t.run_ms);  // the first run fills the new plan's caches
    }
    r.layer("smartpaf.predicted_over_measured", plan.predicted_cost / median(ms), "ratio");
    r.note("calibrated_plan_fnv", fnv_hex(plan.describe()));
  }

  std::array<double, 8> per_unit{};
  for (std::size_t i = 0; i < per_unit.size(); ++i) per_unit[i] = static_cast<double>(first.v[i]);
  add_fhe_metrics(r, per_unit, probe_primitives(*st->rt), percentile(lat, 50));
  r.layer("trace.overhead_ms", percentile(lat_traced, 50) - percentile(lat_plain, 50), "ms");
  tr.write_json(o.spans_path);
  return r;
}

}  // namespace perfbench
