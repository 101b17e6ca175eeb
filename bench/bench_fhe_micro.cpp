// CKKS substrate microbenchmarks:
//   1) per-kernel dispatch-tier sweep at N = 8192 (fwd/inv NTT ns/butterfly,
//      elementwise GB/s for scalar vs AVX2 vs AVX-512),
//   2) batched-NTT thread scaling at chain lengths {3, 8, 13} (the sub-row
//      split keeps short chains from capping usable threads at row count),
//   3) the runtime-level scaling table (1/2/4/8 threads x ring sizes) with
//      the hoisted-vs-naive rotation column,
//   4) the key-switch row per tier: relinearize + one rotation at N = 8192,
//      top of a 13-prime chain, one thread, with its NTT tallies.
// Writes bench_out/fhe_micro.json. If bench/baselines/fhe_micro.json exists
// (the CI smoke ships it), the run FAILS when a vector tier's forward-NTT
// speedup over scalar, or the best tier's key-switch speedup over scalar,
// drops below the recorded minimum.
//
// Usage: bench_fhe_micro [quick]   ("quick" restricts ring sizes / grid)
#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstring>
#include <fstream>
#include <iostream>
#include <sstream>
#include <string>
#include <vector>

#include "bench_common.h"
#include "common/rng.h"
#include "common/table.h"
#include "common/thread_pool.h"
#include "common/timer.h"
#include "fhe/ntt.h"
#include "fhe/primes.h"
#include "fhe/simd/simd.h"
#include "smartpaf/fhe_deploy.h"

namespace {

using namespace sp;
using namespace sp::fhe;

double median_ms(std::vector<double>& v) {
  std::sort(v.begin(), v.end());
  return v[v.size() / 2];
}

template <typename Fn>
double time_op(int reps, const Fn& fn) {
  std::vector<double> times;
  times.reserve(static_cast<std::size_t>(reps));
  for (int r = 0; r < reps; ++r) {
    Timer t;
    fn();
    times.push_back(t.ms());
  }
  return median_ms(times);
}

/// Pulls `"key": <number>` out of a flat JSON object; NaN when absent.
double json_number(const std::string& text, const std::string& key) {
  const auto pos = text.find("\"" + key + "\"");
  if (pos == std::string::npos) return std::nan("");
  const auto colon = text.find(':', pos);
  if (colon == std::string::npos) return std::nan("");
  return std::strtod(text.c_str() + colon + 1, nullptr);
}

struct TierRow {
  simd::Tier tier = simd::Tier::kScalar;
  double fwd_ntt_ms = 0.0;      // one forward transform, N = 8192
  double inv_ntt_ms = 0.0;      // one inverse transform
  double fwd_ns_per_bfly = 0.0; // fwd_ntt over (N/2)*log2(N) butterflies
  double mul_mod_gbs = 0.0;     // elementwise Barrett multiply
  double add_mod_gbs = 0.0;
  double mul_shoup_gbs = 0.0;
  double fwd_speedup = 1.0;     // vs the scalar row
};

struct ChainRow {
  int chain = 0;
  int threads = 0;
  double roundtrip_ms = 0.0;  // batched from_ntt + to_ntt of a chain-row poly
};

struct ScalingRow {
  std::size_t n = 0;
  int threads = 0;
  double ntt_roundtrip_ms = 0.0;  // full-chain RnsPoly inverse + forward NTT
  double mult_ms = 0.0;        // ct-ct multiply + relin + rescale
  double rot_naive_ms = 0.0;   // per rotation, 8-step fan, fresh decompositions
  double rot_hoisted_ms = 0.0; // per rotation, 8-step fan, shared decomposition
  std::size_t ntts_naive = 0;  // forward NTTs for the naive fan
  std::size_t ntts_hoisted = 0;
};

struct KswitchRow {
  simd::Tier tier = simd::Tier::kScalar;
  double ms = 0.0;             // relinearize + one rotation
  std::size_t ntts_fwd = 0;    // forward NTTs of that pair
  std::size_t ntts_inv = 0;
  double speedup = 1.0;        // vs the scalar row
};

std::vector<KswitchRow> run_kswitch_sweep() {
  // One thread so the column compares kernels, not the pool.
  ThreadPool::set_global_threads(1);
  smartpaf::FheRuntime rt(CkksParams::for_depth(8192, 12, 40), /*seed=*/2025);
  const auto gk = rt.rotation_keys({1});
  sp::Rng rng(5);
  std::vector<double> v(rt.ctx().slot_count());
  for (auto& x : v) x = rng.uniform(-1.0, 1.0);
  const Ciphertext ct = rt.encrypt(v);
  Evaluator& ev = rt.evaluator();
  const Ciphertext prod = ev.multiply(ct, ct);
  const auto pair = [&] {
    Ciphertext c = prod;
    ev.relinearize_inplace(c, rt.relin_key());
    ev.rotate(c, 1, *gk);
  };

  const simd::Tier saved = simd::active_tier();
  std::vector<KswitchRow> rows;
  for (simd::Tier t : {simd::Tier::kScalar, simd::Tier::kAvx2, simd::Tier::kAvx512,
                       simd::Tier::kAvx512Ifma}) {
    if (!simd::tier_supported(t)) continue;
    simd::set_tier(t);
    KswitchRow row;
    row.tier = t;
    ev.counters.reset();
    pair();
    row.ntts_fwd = ev.counters.ntts_forward;
    row.ntts_inv = ev.counters.ntts_inverse;
    row.ms = time_op(7, pair);
    rows.push_back(row);
  }
  simd::set_tier(saved);
  ThreadPool::set_global_threads(ThreadPool::env_threads());
  for (KswitchRow& r : rows) r.speedup = rows.front().ms / std::max(r.ms, 1e-9);
  return rows;
}

std::vector<TierRow> run_tier_sweep() {
  constexpr std::size_t kN = 8192;
  const int log_n = 13;
  const u64 q = generate_ntt_primes(60, 1, kN)[0];
  const Modulus mod(q);
  const NttTables tables(kN, mod);
  sp::Rng rng(11);
  std::vector<u64> base(kN), other(kN);
  for (auto& x : base) x = rng.next_u64() % q;
  for (auto& x : other) x = rng.next_u64() % q;
  const u64 w = rng.next_u64() % q;
  const u64 ws = shoup_precompute(w, q);
  const int iters = 8;  // per timed sample, so samples are well above 0.1 ms
  const int reps = 5;

  const simd::Tier saved = simd::active_tier();
  std::vector<TierRow> rows;
  for (simd::Tier t : {simd::Tier::kScalar, simd::Tier::kAvx2, simd::Tier::kAvx512,
                       simd::Tier::kAvx512Ifma}) {
    if (!simd::tier_supported(t)) continue;
    simd::set_tier(t);
    const simd::Kernels& k = simd::kernels();
    TierRow row;
    row.tier = t;
    std::vector<u64> a = base;
    // Output of a forward/inverse transform is a valid (< q) input, so the
    // transforms iterate in place without per-sample re-initialisation.
    row.fwd_ntt_ms = time_op(reps, [&] {
                       for (int i = 0; i < iters; ++i) tables.forward(a.data());
                     }) /
                     iters;
    row.inv_ntt_ms = time_op(reps, [&] {
                       for (int i = 0; i < iters; ++i) tables.inverse(a.data());
                     }) /
                     iters;
    row.fwd_ns_per_bfly =
        row.fwd_ntt_ms * 1e6 / (static_cast<double>(kN / 2) * log_n);
    // Elementwise throughput: two-operand kernels stream 3 words/element
    // (two loads + one store), one-operand kernels 2.
    const double two_op_gb = static_cast<double>(kN) * 3 * 8 / 1e9;
    const double one_op_gb = static_cast<double>(kN) * 2 * 8 / 1e9;
    a = base;
    row.mul_mod_gbs =
        two_op_gb /
        (time_op(reps,
                 [&] {
                   for (int i = 0; i < iters; ++i)
                     k.mul_mod(a.data(), other.data(), kN, q, mod.ratio_hi(),
                               mod.ratio_lo());
                 }) /
         iters / 1e3);
    a = base;
    row.add_mod_gbs = two_op_gb /
                      (time_op(reps,
                               [&] {
                                 for (int i = 0; i < iters; ++i)
                                   k.add_mod(a.data(), other.data(), kN, q);
                               }) /
                       iters / 1e3);
    a = base;
    row.mul_shoup_gbs = one_op_gb /
                        (time_op(reps,
                                 [&] {
                                   for (int i = 0; i < iters; ++i)
                                     k.mul_shoup(a.data(), kN, w, ws, q);
                                 }) /
                         iters / 1e3);
    rows.push_back(row);
  }
  simd::set_tier(saved);
  for (TierRow& r : rows)
    r.fwd_speedup = rows.front().fwd_ntt_ms / std::max(r.fwd_ntt_ms, 1e-9);
  return rows;
}

std::vector<ChainRow> run_chain_scaling(bool quick) {
  // Chain-length thread scaling of the batched NTT: at a 3-prime chain the
  // old per-row dispatch capped useful threads at 3; the sub-row split keeps
  // feeding the pool.
  const std::size_t n = quick ? 4096 : 8192;
  const CkksContext ctx(CkksParams::for_depth(n, 12, 40));  // 13 chain primes
  const std::vector<int> chains = quick ? std::vector<int>{3, 8} : std::vector<int>{3, 8, 13};
  const std::vector<int> threads = quick ? std::vector<int>{1, 2, 4} : std::vector<int>{1, 2, 4, 8};
  const int reps = 3;

  std::vector<ChainRow> rows;
  sp::Rng rng(23);
  for (int chain : chains) {
    RnsPoly poly(&ctx, chain, /*with_special=*/false, /*ntt_form=*/false);
    for (int i = 0; i < poly.row_count(); ++i) {
      const u64 qi = poly.row_mod(i).value();
      u64* r = poly.row(i);
      for (std::size_t j = 0; j < poly.n(); ++j) r[j] = rng.next_u64() % qi;
    }
    poly.to_ntt();
    for (int t : threads) {
      ThreadPool::set_global_threads(t);
      ChainRow row;
      row.chain = chain;
      row.threads = t;
      row.roundtrip_ms = time_op(reps, [&] {
        poly.from_ntt();
        poly.to_ntt();  // restores NTT form, reusable across reps
      });
      rows.push_back(row);
    }
  }
  ThreadPool::set_global_threads(ThreadPool::env_threads());
  return rows;
}

}  // namespace

int main(int argc, char** argv) {
  const bool quick = argc > 1 && std::strcmp(argv[1], "quick") == 0;
  const std::vector<std::size_t> ns =
      quick ? std::vector<std::size_t>{4096} : std::vector<std::size_t>{4096, 8192, 16384};
  const std::vector<int> thread_counts = {1, 2, 4, 8};
  const std::vector<int> fan = {1, 2, 4, 8, -1, -2, -4, -8};
  const int reps = 3;
  bool ok = true;

  // --- Section 1: dispatch-tier kernel sweep (always N = 8192) ---
  const std::vector<TierRow> tier_rows = run_tier_sweep();
  Table tier_table({"tier", "fwd_ntt_ms", "inv_ntt_ms", "fwd_ns_per_bfly",
                    "fwd_speedup", "mul_mod_GB_s", "add_mod_GB_s",
                    "mul_shoup_GB_s"});
  for (const TierRow& r : tier_rows)
    tier_table.add_row({simd::tier_name(r.tier), Table::num(r.fwd_ntt_ms, 4),
                        Table::num(r.inv_ntt_ms, 4), Table::num(r.fwd_ns_per_bfly, 2),
                        Table::num(r.fwd_speedup, 2), Table::num(r.mul_mod_gbs, 2),
                        Table::num(r.add_mod_gbs, 2), Table::num(r.mul_shoup_gbs, 2)});
  std::printf("[bench] kernel tiers at N=8192 (active default: %s)\n",
              simd::tier_name(simd::active_tier()));
  tier_table.print(std::cout);

  // --- Section 2: batched-NTT thread scaling at short chains ---
  const std::vector<ChainRow> chain_rows = run_chain_scaling(quick);
  Table chain_table({"chain", "threads", "ntt_roundtrip_ms", "scale_vs_t1"});
  {
    double t1 = 0.0;
    for (const ChainRow& r : chain_rows) {
      if (r.threads == 1) t1 = r.roundtrip_ms;
      chain_table.add_row({std::to_string(r.chain), std::to_string(r.threads),
                           Table::num(r.roundtrip_ms, 3),
                           Table::num(t1 / std::max(r.roundtrip_ms, 1e-9), 2)});
    }
  }
  std::printf("[bench] batched NTT chain-length scaling\n");
  chain_table.print(std::cout);

  // --- Section 3: runtime-level scaling rows ---
  std::vector<ScalingRow> rows;
  for (std::size_t n : ns) {
    // One runtime (keygen) per ring size, shared across thread settings; the
    // pool size only affects how the same work is dispatched.
    smartpaf::FheRuntime rt(CkksParams::for_depth(n, 6, 40), /*seed=*/2024);
    const auto gk_snapshot = rt.rotation_keys(fan);
    const GaloisKeys& gk = *gk_snapshot;
    sp::Rng rng(3);
    std::vector<double> v(rt.ctx().slot_count());
    for (auto& x : v) x = rng.uniform(-1.0, 1.0);
    const Ciphertext ct = rt.encrypt(v);
    Evaluator& ev = rt.evaluator();

    for (int threads : thread_counts) {
      ThreadPool::set_global_threads(threads);
      ScalingRow row;
      row.n = n;
      row.threads = threads;

      RnsPoly ntt_poly = ct.parts[0];  // copy outside the timed region
      row.ntt_roundtrip_ms = time_op(reps, [&] {
        ntt_poly.from_ntt();
        ntt_poly.to_ntt();  // restores NTT form, reusable across reps
      });
      row.mult_ms = time_op(reps, [&] {
        Ciphertext c = ev.multiply(ct, ct);
        ev.relinearize_inplace(c, rt.relin_key());
        ev.rescale_inplace(c);
      });

      ev.counters.reset();
      row.rot_naive_ms = time_op(reps, [&] {
                           for (int s : fan) ev.rotate(ct, s, gk);
                         }) /
                         static_cast<double>(fan.size());
      row.ntts_naive = ev.counters.ntts_forward / static_cast<std::size_t>(reps);

      ev.counters.reset();
      row.rot_hoisted_ms = time_op(reps, [&] { ev.rotate_hoisted(ct, fan, gk); }) /
                           static_cast<double>(fan.size());
      row.ntts_hoisted = ev.counters.ntts_forward / static_cast<std::size_t>(reps);

      rows.push_back(row);
      std::printf("[bench] N=%zu threads=%d done\n", n, threads);
    }
  }
  ThreadPool::set_global_threads(ThreadPool::env_threads());

  Table table({"N", "threads", "ntt_roundtrip_ms", "mult_relin_rescale_ms", "rotate_naive_ms",
               "rotate_hoisted_ms", "hoist_speedup", "fwd_ntts_naive",
               "fwd_ntts_hoisted"});
  for (const ScalingRow& r : rows)
    table.add_row({std::to_string(r.n), std::to_string(r.threads), Table::num(r.ntt_roundtrip_ms, 3),
                   Table::num(r.mult_ms, 2), Table::num(r.rot_naive_ms, 2),
                   Table::num(r.rot_hoisted_ms, 2),
                   Table::num(r.rot_naive_ms / std::max(r.rot_hoisted_ms, 1e-9), 2),
                   std::to_string(r.ntts_naive), std::to_string(r.ntts_hoisted)});
  table.print(std::cout);

  // --- Section 4: key switch per tier (relinearize + one rotation) ---
  const std::vector<KswitchRow> ks_rows = run_kswitch_sweep();
  Table ks_table({"tier", "relin_plus_rotate_ms", "speedup", "fwd_ntts", "inv_ntts"});
  for (const KswitchRow& r : ks_rows)
    ks_table.add_row({simd::tier_name(r.tier), Table::num(r.ms, 3), Table::num(r.speedup, 2),
                      std::to_string(r.ntts_fwd), std::to_string(r.ntts_inv)});
  std::printf("[bench] key switch at N=8192, 13 primes, top level, 1 thread\n");
  ks_table.print(std::cout);

  // JSON trajectory for plotting across PRs.
  const std::string json_path = bench::out_dir() + "/fhe_micro.json";
  if (std::FILE* f = std::fopen(json_path.c_str(), "w")) {
    std::fprintf(f, "{\n  \"tiers\": [\n");
    for (std::size_t i = 0; i < tier_rows.size(); ++i) {
      const TierRow& r = tier_rows[i];
      std::fprintf(f,
                   "    {\"tier\": \"%s\", \"fwd_ntt_ms\": %.5f, \"inv_ntt_ms\": "
                   "%.5f, \"fwd_ns_per_butterfly\": %.3f, \"fwd_speedup\": %.3f, "
                   "\"mul_mod_gbs\": %.3f, \"add_mod_gbs\": %.3f, "
                   "\"mul_shoup_gbs\": %.3f}%s\n",
                   simd::tier_name(r.tier), r.fwd_ntt_ms, r.inv_ntt_ms,
                   r.fwd_ns_per_bfly, r.fwd_speedup, r.mul_mod_gbs, r.add_mod_gbs,
                   r.mul_shoup_gbs, i + 1 < tier_rows.size() ? "," : "");
    }
    std::fprintf(f, "  ],\n  \"chain_scaling\": [\n");
    for (std::size_t i = 0; i < chain_rows.size(); ++i) {
      const ChainRow& r = chain_rows[i];
      std::fprintf(f,
                   "    {\"chain\": %d, \"threads\": %d, \"ntt_roundtrip_ms\": "
                   "%.4f}%s\n",
                   r.chain, r.threads, r.roundtrip_ms,
                   i + 1 < chain_rows.size() ? "," : "");
    }
    std::fprintf(f, "  ],\n  \"scaling\": [\n");
    for (std::size_t i = 0; i < rows.size(); ++i) {
      const ScalingRow& r = rows[i];
      std::fprintf(f,
                   "    {\"n\": %zu, \"threads\": %d, \"ntt_roundtrip_ms\": %.4f, "
                   "\"mult_relin_rescale_ms\": %.4f, \"rotate_naive_ms\": %.4f, "
                   "\"rotate_hoisted_ms\": %.4f, \"fwd_ntts_naive\": %zu, "
                   "\"fwd_ntts_hoisted\": %zu}%s\n",
                   r.n, r.threads, r.ntt_roundtrip_ms, r.mult_ms, r.rot_naive_ms, r.rot_hoisted_ms,
                   r.ntts_naive, r.ntts_hoisted, i + 1 < rows.size() ? "," : "");
    }
    std::fprintf(f, "  ],\n  \"kswitch\": [\n");
    for (std::size_t i = 0; i < ks_rows.size(); ++i) {
      const KswitchRow& r = ks_rows[i];
      std::fprintf(f,
                   "    {\"tier\": \"%s\", \"relin_plus_rotate_ms\": %.4f, "
                   "\"speedup\": %.3f, \"fwd_ntts\": %zu, \"inv_ntts\": %zu}%s\n",
                   simd::tier_name(r.tier), r.ms, r.speedup, r.ntts_fwd, r.ntts_inv,
                   i + 1 < ks_rows.size() ? "," : "");
    }
    std::fprintf(f, "  ]\n}\n");
    std::fclose(f);
    std::printf("[bench] wrote %s\n", json_path.c_str());
  }

  // Sanity: hoisting must never lose to the naive fan on forward NTTs.
  for (const ScalingRow& r : rows)
    if (r.ntts_hoisted >= r.ntts_naive) {
      std::printf("[bench] FAIL: hoisting did not reduce forward NTTs at N=%zu\n", r.n);
      ok = false;
    }

  // Regression gate against the recorded baseline, when present: each vector
  // tier the binary+CPU support must keep its forward-NTT speedup over the
  // scalar tier above the recorded floor.
  for (const char* path :
       {"bench/baselines/fhe_micro.json", "../bench/baselines/fhe_micro.json"}) {
    std::ifstream in(path);
    if (!in) continue;
    std::stringstream ss;
    ss << in.rdbuf();
    for (const TierRow& r : tier_rows) {
      if (r.tier == simd::Tier::kScalar) continue;
      const std::string key =
          std::string("min_fwd_ntt_speedup_") + simd::tier_name(r.tier);
      const double floor = json_number(ss.str(), key);
      if (std::isnan(floor)) continue;
      if (r.fwd_speedup < floor) {
        std::printf("[bench] FAIL: %s fwd-NTT speedup %.2fx below baseline %.2fx (%s)\n",
                    simd::tier_name(r.tier), r.fwd_speedup, floor, path);
        ok = false;
      } else {
        std::printf("[bench] %s fwd-NTT speedup %.2fx within baseline >= %.2fx (%s)\n",
                    simd::tier_name(r.tier), r.fwd_speedup, floor, path);
      }
    }
    // Key switch: the best supported tier against scalar. Gated only when
    // that tier is avx512 or better: the avx2 table runs the lift and inner
    // product in scalar, so its row measures within noise of scalar.
    const double ks_floor = json_number(ss.str(), "min_kswitch_speedup_best_tier");
    if (!std::isnan(ks_floor) && ks_rows.back().tier >= simd::Tier::kAvx512) {
      const KswitchRow& best = ks_rows.back();
      const bool pass = best.speedup >= ks_floor;
      std::printf("[bench] %s%s key-switch speedup %.2fx %s baseline %.2fx (%s)\n",
                  pass ? "" : "FAIL: ", simd::tier_name(best.tier), best.speedup,
                  pass ? "within" : "below", ks_floor, path);
      ok = ok && pass;
    }
    break;
  }

  std::printf("[bench] %s\n", ok ? "OK" : "FAILED");
  return ok ? 0 : 1;
}
