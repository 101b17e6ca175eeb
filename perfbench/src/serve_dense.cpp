// serve_dense: two tenants, each a keygen-less serve::Session adopted from
// sp::io blobs, sharing one AsyncExecutor that runs the dense 16->16->16
// model with two ALPHA7 PAF-ReLUs at N=2048 (19 levels plus one for the
// response mask).
//
// Phase A is an open loop: Poisson arrivals at a fixed rate drawn from the
// seed, spread over both tenants; latency runs from each request's due
// time (recorded before decode and submit) to its outcome. Phase B is a
// closed loop: each tenant keeps group_capacity requests outstanding, so
// every group flushes full; it gives throughput and the per-request op
// counts. Every accepted ticket must get exactly one outcome.
#include <algorithm>
#include <cmath>
#include <condition_variable>
#include <cstdio>
#include <deque>
#include <stdexcept>
#include <string>
#include <thread>
#include <unordered_map>
#include <vector>

#include "approx/presets.h"
#include "common/rng.h"
#include "harness.h"
#include "io/serialize.h"
#include "serve/async_executor.h"
#include "serve/session_registry.h"
#include "smartpaf/fhe_deploy.h"
#include "smartpaf/pipeline.h"
#include "smartpaf/pipeline_planner.h"

namespace perfbench {

namespace {

using namespace sp;

constexpr std::size_t kRing = 2048;
constexpr int kChainLevels = 20;
constexpr int kInputSize = 16;
constexpr int kTenants = 2;
constexpr int kPool = 8;           ///< distinct encrypted requests per tenant
constexpr int kGroup = 16;         ///< executor group_capacity
// Phase A load. On the one pool lane a group costs ~400 ms of fixed
// PAF-chain work plus ~15 ms per request, so full groups serve ~25 req/s.
// At 8 req/s (about 0.3x that) with bench_serve's 60 ms deadline, each
// tenant's group flushes as soon as the worker is free, with about four
// requests: latency is the previous group's compute plus the request's own
// (about 400 + 480 ms at p50), so it scales with group compute.
constexpr int kDeadlineMs = 60;  ///< executor batching deadline
constexpr double kRate = 8.0;    ///< phase A offered load, requests/s (both tenants)
constexpr std::size_t kMinArrivals = 101;  ///< phase A floor: ten samples beyond p90
constexpr double kPhaseAShare = 0.75; ///< share of --seconds spent in phase A
constexpr double kBudget = 1e-3;   ///< packed-response and foreign-slot budget
constexpr double kAnswerTimeoutS = 20.0;

enum : std::uint64_t { kKeyTag = 21, kInputTag = 22, kArrivalTag = 23, kPhaseBTag = 24 };

/// The served model: dense 16 -> 16 -> 16 with ALPHA7 PAF-ReLUs.
smartpaf::FhePipeline build_model() {
  sp::Rng rng(41);
  auto weights = [&rng] {
    std::vector<double> w(kInputSize * kInputSize);
    for (double& v : w) v = rng.uniform(-1.0, 1.0) / kInputSize;
    return w;
  };
  return smartpaf::FhePipeline::builder()
      .input_width(kInputSize)
      .matmul(kInputSize, kInputSize, weights())
      .paf_relu(approx::make_paf(approx::PafForm::ALPHA7), 2.0)
      .matmul(kInputSize, kInputSize, weights(), std::vector<double>(kInputSize, 0.01))
      .paf_relu(approx::make_paf(approx::PafForm::ALPHA7), 2.0)
      .linear(1.1, -0.02)
      .build();
}

/// What the executor's worker thread reports back, keyed by ticket id.
struct Sink {
  struct Got {
    bool ok = false;
    Clock::time_point entry, encoded;  ///< callback entry / response encoded
    std::vector<std::uint8_t> blob;    ///< serialized response
    std::string error;
  };
  std::mutex mu;
  std::condition_variable cv;
  std::unordered_map<std::uint64_t, Got> got;
  std::unordered_map<std::uint64_t, Clock::time_point> hooked;
  std::deque<std::uint64_t> finished_clients;  ///< phase B refill queue
  std::size_t outcomes = 0;
  std::size_t duplicates = 0;
  int groups = 0;      ///< groups hooked since arm()
  int fail_group = 0;  ///< 1-based group to fail (0 = none)
  bool armed = false;

  void on_outcome(serve::Outcome o) {
    Got g;
    g.entry = Clock::now();
    g.ok = o.kind == serve::Outcome::Kind::Completed;
    g.error = o.error;
    if (g.ok) g.blob = io::serialize(o.result);  // the server's response encode
    g.encoded = Clock::now();
    {
      std::lock_guard<std::mutex> lock(mu);
      if (!got.emplace(o.id, std::move(g)).second) ++duplicates;
      ++outcomes;
      finished_clients.push_back(o.client_id);
    }
    cv.notify_all();
  }

  void on_eval(const std::vector<std::uint64_t>& ids) {
    const auto now = Clock::now();
    std::lock_guard<std::mutex> lock(mu);
    for (const std::uint64_t id : ids) hooked[id] = now;
    if (armed && ++groups == fail_group) throw std::runtime_error("injected group failure");
  }

  bool wait_outcomes(std::size_t n, double timeout_s) {
    std::unique_lock<std::mutex> lock(mu);
    return cv.wait_for(lock, std::chrono::duration<double>(timeout_s),
                       [&] { return outcomes >= n; });
  }
};

struct Tenant {
  std::uint64_t id = 0;
  std::unique_ptr<smartpaf::FheRuntime> client;
  std::shared_ptr<serve::Session> session;
  std::vector<std::vector<std::uint8_t>> blobs;  ///< encrypted request pool
  std::vector<std::vector<double>> want;         ///< mirror output per pool entry
};

struct State {
  serve::SessionRegistry registry{4};
  Sink sink;  // declared before exec: the worker calls into it until exec stops
  std::vector<Tenant> tenants;
  std::unique_ptr<serve::AsyncExecutor> exec;
  double key_mb = 0.0;  ///< serialized key material per tenant
};

serve::ExecutorConfig executor_config() {
  serve::ExecutorConfig cfg;
  cfg.input_size = kInputSize;
  cfg.group_capacity = kGroup;
  cfg.deadline = std::chrono::milliseconds(kDeadlineMs);
  cfg.max_queue = 256;
  return cfg;
}

std::unique_ptr<State> build(const Options& o, SetupLog& log) {
  auto st = std::make_unique<State>();
  const fhe::CkksParams params = fhe::CkksParams::for_depth(kRing, kChainLevels, 40);
  st->exec = std::make_unique<serve::AsyncExecutor>(
      build_model(), executor_config(),
      [sink = &st->sink](serve::Outcome out) { sink->on_outcome(std::move(out)); });
  st->exec->set_eval_hook(
      [sink = &st->sink](const std::vector<std::uint64_t>& ids) { sink->on_eval(ids); });
  const smartpaf::FhePipeline model = build_model();

  double key_bytes = 0;
  for (int t = 0; t < kTenants; ++t) {
    Tenant tn;
    tn.id = static_cast<std::uint64_t>(t + 1);
    log.time("smartpaf.keygen", [&] {
      tn.client = std::make_unique<smartpaf::FheRuntime>(
          params, derive_seed(o.seed, kKeyTag, tn.id));
    });

    // Session opening: the tenant's params, public and relin keys cross as blobs.
    const auto params_blob = io::serialize(params);
    const auto pk_blob = io::serialize(tn.client->public_key());
    const auto relin_blob = io::serialize(tn.client->relin_key());
    log.time("io.session_adopt", [&] {
      auto ctx = std::make_unique<fhe::CkksContext>(io::deserialize_params(params_blob));
      fhe::PublicKey pk = io::deserialize_public_key(pk_blob, *ctx);
      fhe::KSwitchKey relin = io::deserialize_kswitch_key(relin_blob, *ctx);
      tn.session = st->registry.open(tn.id, std::move(ctx), std::move(pk), std::move(relin),
                                     fhe::GaloisKeys{});
    });
    std::vector<int> steps;
    log.time("smartpaf.lower_plan",
             [&] { steps = st->exec->required_rotation_steps(*tn.session); });
    std::vector<std::uint8_t> galois_blob;
    log.time("smartpaf.rotation_keygen",
             [&] { galois_blob = io::serialize(*tn.client->rotation_keys(steps)); });
    log.time("io.session_adopt", [&] {
      tn.session->adopt_rotation_keys(
          io::deserialize_galois_keys(galois_blob, tn.session->runtime().ctx()));
    });
    key_bytes += static_cast<double>(pk_blob.size() + relin_blob.size() + galois_blob.size());

    // The tenant's request pool, encrypted client-side, and its mirror.
    sp::Rng rng(derive_seed(o.seed, kInputTag, tn.id));
    for (int i = 0; i < kPool; ++i) {
      std::vector<double> slots(tn.client->ctx().slot_count(), 0.0);
      for (int j = 0; j < kInputSize; ++j)
        slots[static_cast<std::size_t>(j)] = rng.uniform(-1.0, 1.0);
      tn.blobs.push_back(io::serialize(tn.client->encrypt(slots)));
      std::vector<double> ref = model.reference(slots, kInputSize);
      ref.resize(kInputSize);
      tn.want.push_back(std::move(ref));
    }
    st->tenants.push_back(std::move(tn));
  }
  st->key_mb = key_bytes / kTenants / 1e6;

  // Warm-up: one full group per tenant fills plan, mask and diagonal caches.
  log.time("setup.warmup", [&] {
    std::size_t submitted = 0;
    for (Tenant& tn : st->tenants)
      for (int i = 0; i < kGroup; ++i) {
        const auto adm = st->exec->submit(
            tn.session, io::deserialize_ciphertext(tn.blobs[static_cast<std::size_t>(i % kPool)],
                                                   tn.session->runtime().ctx()));
        if (!adm.accepted) throw std::runtime_error("warm-up request rejected: " + adm.reason);
        ++submitted;
      }
    if (!st->sink.wait_outcomes(submitted, kAnswerTimeoutS))
      throw std::runtime_error("warm-up requests were not answered");
  });
  return st;
}

/// One submitted request as the load generator saw it.
struct Ticket {
  Clock::time_point due;
  int tenant = 0;
  int input = 0;
  bool accepted = false;
  bool traced = false;
  bool phase_b = false;
  std::uint64_t id = 0;
  Tracer::Id root = -1;
  double late_ms = 0.0;
};

/// Decode + submit one request (the connection handler's work).
Ticket submit(State& st, Tracer& tr, int tenant, int input, Clock::time_point due,
              bool traced, std::uint64_t unit) {
  Ticket tk;
  tk.due = due;
  tk.tenant = tenant;
  tk.input = input;
  tk.traced = traced;
  tk.late_ms = ms_between(due, Clock::now());
  Tenant& tn = st.tenants[static_cast<std::size_t>(tenant)];
  tk.root = traced ? tr.begin("serve.request", unit, -1, due) : -1;
  fhe::Ciphertext ct;
  {
    Scope s(tr, traced, "io.request_decode", unit, tk.root);
    ct = io::deserialize_ciphertext(tn.blobs[static_cast<std::size_t>(input)],
                                    tn.session->runtime().ctx());
  }
  serve::Admission adm;
  {
    Scope s(tr, traced, "serve.admit", unit, tk.root);
    adm = st.exec->submit(tn.session, std::move(ct));
  }
  tk.accepted = adm.accepted;
  tk.id = adm.id;
  if (!adm.accepted)
    std::fprintf(stderr, "serve_dense: request rejected: %s\n", adm.reason.c_str());
  return tk;
}

fhe::OpCounters sum_counters(State& st) {
  fhe::OpCounters total;
  for (Tenant& tn : st.tenants) {
    const fhe::OpCounters& c = tn.session->runtime().evaluator().counters;
    fhe::OpCounters::zip_fields(total, c, [](std::atomic<std::size_t>& d,
                                             const std::atomic<std::size_t>& s) {
      d += s.load();
    });
  }
  return total;
}

double flushes(const serve::ExecutorStats& s) {
  return static_cast<double>(s.flush_full + s.flush_deadline + s.flush_drain);
}

}  // namespace

Result run_serve_dense(const Options& o) {
  Result r;
  double setup_s = 0.0;
  std::map<std::string, std::vector<double>> parts;
  Tracer tr(o.trace);
  auto st = repeat_setup<State>(
      tr, [&](SetupLog& log) { return build(o, log); }, &setup_s, &parts);
  Sink& sink = st->sink;
  std::vector<Ticket> tickets;
  std::size_t accepted = 0;
  {
    std::lock_guard<std::mutex> lock(sink.mu);
    sink.armed = true;
    sink.fail_group = o.fail_group;
    sink.outcomes = 0;
    sink.got.clear();
    sink.hooked.clear();
    sink.finished_clients.clear();
  }
  const serve::ExecutorStats s0 = st->exec->stats();

  // ---- Phase A: open loop at a fixed Poisson rate. The schedule comes from
  // the seed alone; it runs until its share of --seconds has passed and at
  // least kMinArrivals requests were due.
  const double phase_a_s = kPhaseAShare * o.seconds;
  std::vector<double> due_s;
  std::vector<std::pair<int, int>> who;  // (tenant, input)
  {
    sp::Rng rng(derive_seed(o.seed, kArrivalTag));
    double t = 0.0;
    while (t < phase_a_s || due_s.size() < kMinArrivals) {
      t += -std::log(1.0 - rng.uniform()) / kRate;
      due_s.push_back(t);
      who.emplace_back(static_cast<int>(rng.randint(0, kTenants - 1)),
                       static_cast<int>(rng.randint(0, kPool - 1)));
    }
  }
  const auto a_start = Clock::now() + std::chrono::milliseconds(20);
  for (std::size_t i = 0; i < due_s.size(); ++i) {
    const auto due = a_start + std::chrono::duration_cast<Clock::duration>(
                                   std::chrono::duration<double>(due_s[i]));
    std::this_thread::sleep_until(due);
    const bool traced = o.trace && i % 2 == 1;
    tickets.push_back(submit(*st, tr, who[i].first, who[i].second, due, traced, i));
    accepted += tickets.back().accepted ? 1 : 0;
  }
  sink.wait_outcomes(accepted, kAnswerTimeoutS);
  const serve::ExecutorStats s1 = st->exec->stats();

  // ---- Phase B: closed loop, group_capacity outstanding per tenant.
  const fhe::OpCounters c_before = sum_counters(*st);
  std::size_t b_outcomes_target = 0;
  const auto b_start = Clock::now();
  {
    std::lock_guard<std::mutex> lock(sink.mu);
    sink.finished_clients.clear();
    b_outcomes_target = sink.outcomes;
  }
  sp::Rng brng(derive_seed(o.seed, kPhaseBTag));
  auto submit_b = [&](int tenant) {
    Ticket tk = submit(*st, tr, tenant, static_cast<int>(brng.randint(0, kPool - 1)),
                       Clock::now(), false, tickets.size());
    tk.phase_b = true;
    accepted += tk.accepted ? 1 : 0;
    b_outcomes_target += tk.accepted ? 1 : 0;
    tickets.push_back(tk);
  };
  for (int t = 0; t < kTenants; ++t)
    for (int i = 0; i < kGroup; ++i) submit_b(t);
  // A tenant is refilled once its whole group has answered, so the loop
  // stops on group boundaries and never leaves a short group behind.
  const double phase_b_s = std::max(0.0, o.seconds - phase_a_s);
  std::vector<int> answered(kTenants, 0);
  while (seconds_since(b_start) < phase_b_s) {
    std::vector<std::uint64_t> finished;
    {
      std::unique_lock<std::mutex> lock(sink.mu);
      if (!sink.cv.wait_for(lock, std::chrono::duration<double>(kAnswerTimeoutS),
                            [&] { return !sink.finished_clients.empty(); }))
        break;
      finished.assign(sink.finished_clients.begin(), sink.finished_clients.end());
      sink.finished_clients.clear();
    }
    for (const std::uint64_t client : finished) {
      const int t = static_cast<int>(client - 1);
      if (++answered[static_cast<std::size_t>(t)] < kGroup) continue;
      answered[static_cast<std::size_t>(t)] = 0;
      if (seconds_since(b_start) < phase_b_s)
        for (int i = 0; i < kGroup; ++i) submit_b(t);
    }
  }
  sink.wait_outcomes(b_outcomes_target, kAnswerTimeoutS);
  const fhe::OpCounters c_after = sum_counters(*st);
  const serve::ExecutorStats s2 = st->exec->stats();
  st->exec->stop();

  // ---- Match tickets to outcomes, then check every response off the clock.
  std::vector<double> lat, lat_traced, lat_plain, late, queue_wait, group_ms, encode_us;
  std::vector<Clock::time_point> b_done_at;  // phase B responses that passed
  std::size_t ok = 0, a_sent = 0, a_ok = 0;
  ErrorTally errors;
  std::lock_guard<std::mutex> lock(sink.mu);
  std::size_t matched = 0;
  for (std::size_t i = 0; i < tickets.size(); ++i) {
    const Ticket& tk = tickets[i];
    if (!tk.phase_b) {
      ++a_sent;
      late.push_back(tk.late_ms);
    }
    if (!tk.accepted) continue;
    const auto it = sink.got.find(tk.id);
    if (it == sink.got.end()) {
      std::fprintf(stderr, "serve_dense: ticket %llu never answered\n",
                   static_cast<unsigned long long>(tk.id));
      continue;
    }
    ++matched;
    const Sink::Got& g = it->second;
    if (!g.ok) {
      std::fprintf(stderr, "serve_dense: ticket %llu failed: %s\n",
                   static_cast<unsigned long long>(tk.id), g.error.c_str());
      continue;
    }
    Tenant& tn = st->tenants[static_cast<std::size_t>(tk.tenant)];
    const std::vector<double> out =
        tn.client->decrypt(io::deserialize_ciphertext(g.blob, tn.client->ctx()));
    const double err = max_abs_err(out, tn.want[static_cast<std::size_t>(tk.input)]);
    errors.add(err);
    if (!(err < kBudget)) {
      r.correct = false;
      std::fprintf(stderr, "serve_dense: response off by %.3e (budget %.1e)\n", err, kBudget);
      continue;
    }
    ++ok;
    if (tk.phase_b) {
      b_done_at.push_back(g.encoded);
      continue;
    }
    ++a_ok;
    const double l = ms_between(tk.due, g.encoded);
    lat.push_back(l);
    (tk.traced ? lat_traced : lat_plain).push_back(l);
    if (!tk.traced) continue;
    const auto h = sink.hooked.find(tk.id);
    if (h != sink.hooked.end()) {
      queue_wait.push_back(ms_between(tk.due, h->second));
      group_ms.push_back(ms_between(h->second, g.entry));
      tr.record("serve.queue_wait", i, tk.root, tk.due, h->second);
      tr.record("serve.group", i, tk.root, h->second, g.entry);
    }
    tr.record("io.response_encode", i, tk.root, g.entry, g.encoded);
    encode_us.push_back(1e3 * ms_between(g.entry, g.encoded));
    tr.end(tk.root, g.encoded);
  }
  if (sink.duplicates != 0 || sink.got.size() != matched) {
    r.correct = false;
    std::fprintf(stderr, "serve_dense: %zu duplicate and %zu unmatched outcomes\n",
                 sink.duplicates, sink.got.size() - matched);
  }
  r.attempted = tickets.size();
  r.failed = tickets.size() - ok;

  // Per-request op counts in phase B, where every group is full.
  const Counts b_counts = Counts::delta(c_after, c_before);
  const bool b_full = static_cast<double>(s2.flush_full - s1.flush_full) == flushes(s2) - flushes(s1);
  std::array<double, 8> per_req{};
  const std::size_t b_done = (s2.completed + s2.failed) - (s1.completed + s1.failed);
  for (std::size_t i = 0; i < per_req.size(); ++i)
    per_req[i] = b_done ? static_cast<double>(b_counts.v[i]) / static_cast<double>(b_done) : 0.0;
  // Phase B responses arrive in bursts of one full group, so a window of
  // kGroup completions is one group's service time.
  const double throughput = median_rate(b_done_at, b_start, kGroup);

  // The executor plans each session with the heuristic cost table at the
  // packing stride; the same call here fingerprints that plan.
  smartpaf::PlanOptions popts;
  popts.pack_stride = kInputSize;
  r.note("plan_fnv", fnv_hex(smartpaf::Planner::plan(build_model(),
                                                     st->tenants[0].session->runtime().ctx(),
                                                     smartpaf::CostModel::heuristic(), popts)
                                 .describe()));
  r.note("phase_b_groups_full", b_full ? "yes" : "no");
  r.note("counts_per_request", b_counts.str() + " over " + std::to_string(b_done));
  r.note("phase_a_sent_ok_failed", std::to_string(a_sent) + "/" + std::to_string(a_ok) + "/" +
                                       std::to_string(a_sent - a_ok));
  r.note("phase_b_sent_ok_failed", std::to_string(tickets.size() - a_sent) + "/" +
                                       std::to_string(ok - a_ok) + "/" +
                                       std::to_string(tickets.size() - a_sent - (ok - a_ok)));
  r.note("samples", std::to_string(lat.size()));
  r.note("offered_per_s", std::to_string(kRate));
  r.note("generator_late_ms_p90", std::to_string(percentile(late, 90)));

  if (!o.trace) {
    r.e2e("setup_s", setup_s, "s");
    r.e2e("latency_p50_ms", percentile(lat, 50), "ms");
    r.e2e("latency_p90_ms", percentile(lat, 90), "ms");
    r.e2e("throughput_per_s", throughput, "1/s");
    r.e2e("precision_bits", errors.bits(), "bits");
    r.e2e("completed_frac", r.attempted ? static_cast<double>(ok) / r.attempted : 0.0, "frac");
    r.e2e("peak_rss_mb", peak_rss_mb(), "MB");
    return r;
  }

  add_setup_metrics(r, parts);
  r.layer("serve.admit_us_p50", 1e3 * median(tr.durations_ms("serve.admit")), "us");
  r.layer("serve.queue_wait_ms_p50", percentile(queue_wait, 50), "ms");
  r.layer("serve.queue_wait_ms_p90", percentile(queue_wait, 90), "ms");
  r.layer("serve.group_ms_p50", median(group_ms), "ms");
  const double a_flushes = flushes(s1) - flushes(s0);
  r.layer("serve.batch_size_mean",
          a_flushes > 0 ? static_cast<double>((s1.completed + s1.failed) -
                                              (s0.completed + s0.failed)) / a_flushes
                        : 0.0,
          "count");
  r.layer("serve.flush_deadline_frac",
          a_flushes > 0 ? static_cast<double>(s1.flush_deadline - s0.flush_deadline) / a_flushes
                        : 0.0,
          "frac");
  r.layer("serve.rejected", static_cast<double>(s2.rejected - s0.rejected), "count");
  r.layer("serve.generator_late_ms_p90", percentile(late, 90), "ms");
  r.layer("io.request_decode_us_p50", 1e3 * median(tr.durations_ms("io.request_decode")), "us");
  r.layer("io.response_encode_us_p50", median(encode_us), "us");
  r.layer("io.session_adopt_s", median(parts["io.session_adopt"]), "s");
  r.layer("io.key_mb", st->key_mb, "MB");
  add_fhe_metrics(r, per_req, probe_primitives(*st->tenants[0].client),
                  throughput > 0.0 ? 1e3 / throughput : 0.0);
  r.layer("trace.overhead_ms", percentile(lat_traced, 50) - percentile(lat_plain, 50), "ms");
  tr.write_json(o.spans_path);
  return r;
}

}  // namespace perfbench
