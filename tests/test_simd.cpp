// SIMD kernel-layer contract: every compiled tier (scalar / AVX2 / AVX-512 /
// AVX-512 IFMA) must be bit-identical on every kernel — the dispatch decision
// can change throughput only, never an FHE result. Covers the raw kernels across sizes
// incl. non-lane-multiple tails and lazy [0, 4q) inputs, the NTT on all
// tiers, the batched (sub-row split) NTT entry points across thread counts,
// the flat RnsPoly row-drop layout, and an end-to-end FhePipeline::run
// identity sweep over (tier x thread count).
#include <gtest/gtest.h>

#include <cstring>
#include <vector>

#include "common/rng.h"
#include "common/thread_pool.h"
#include "fhe/context.h"
#include "fhe/ntt.h"
#include "fhe/primes.h"
#include "fhe/rns_poly.h"
#include "fhe/simd/simd.h"
#include "smartpaf/fhe_deploy.h"
#include "smartpaf/pipeline.h"
#include "smartpaf/pipeline_planner.h"

namespace {

using namespace sp;
using namespace sp::fhe;

const std::vector<std::size_t> kSizes = {1, 2, 3, 7, 8, 31, 1023, 1024, 4096, 8192};

std::vector<simd::Tier> supported_tiers() {
  std::vector<simd::Tier> out;
  for (simd::Tier t : {simd::Tier::kScalar, simd::Tier::kAvx2, simd::Tier::kAvx512,
                       simd::Tier::kAvx512Ifma})
    if (simd::tier_supported(t)) out.push_back(t);
  return out;
}

const simd::Kernels* table_for(simd::Tier t) {
  switch (t) {
    case simd::Tier::kScalar:
      return simd::detail::scalar_kernels();
    case simd::Tier::kAvx2:
      return simd::detail::avx2_kernels();
    case simd::Tier::kAvx512:
      return simd::detail::avx512_kernels();
    case simd::Tier::kAvx512Ifma:
      return simd::detail::avx512ifma_kernels();
  }
  return nullptr;
}

/// RAII guard: pins a tier (and thread count) for one scope, restores after.
struct TierGuard {
  simd::Tier saved;
  explicit TierGuard(simd::Tier t) : saved(simd::active_tier()) {
    EXPECT_TRUE(simd::set_tier(t));
  }
  ~TierGuard() { simd::set_tier(saved); }
};

u64 test_prime() {
  static const u64 q = generate_ntt_primes(60, 1, 8192)[0];  // 1 mod 2*8192
  return q;
}

u64 small_prime() {
  static const u64 q = generate_ntt_primes(40, 1, 8192)[0];
  return q;
}

std::vector<u64> random_below(sp::Rng& rng, std::size_t n, u64 bound) {
  std::vector<u64> v(n);
  for (auto& x : v) x = rng.next_u64() % bound;
  return v;
}

TEST(SimdKernels, ElementwiseTiersMatchScalar) {
  const simd::Kernels* ref = simd::detail::scalar_kernels();
  ASSERT_NE(ref, nullptr);
  for (u64 q : {test_prime(), small_prime()}) {
    for (std::size_t n : kSizes) {
      sp::Rng rng(n * 31 + (q & 0xffff));
      const std::vector<u64> a0 = random_below(rng, n, q);
      const std::vector<u64> b = random_below(rng, n, q);
      const u64 w = rng.next_u64() % q;
      const u64 ws = shoup_precompute(w, q);
      // Lazy inputs for mul_shoup: the contract allows ANY 64-bit value.
      std::vector<u64> lazy(n);
      for (auto& x : lazy) x = rng.next_u64();
      const Modulus m(q);

      std::vector<u64> r_add(a0), r_sub(a0), r_neg(a0), r_mul(a0), r_shoup(lazy);
      ref->add_mod(r_add.data(), b.data(), n, q);
      ref->sub_mod(r_sub.data(), b.data(), n, q);
      ref->neg_mod(r_neg.data(), n, q);
      ref->mul_mod(r_mul.data(), b.data(), n, q, m.ratio_hi(), m.ratio_lo());
      ref->mul_shoup(r_shoup.data(), n, w, ws, q);

      for (simd::Tier t : supported_tiers()) {
        const simd::Kernels* k = table_for(t);
        ASSERT_NE(k, nullptr);
        std::vector<u64> v_add(a0), v_sub(a0), v_neg(a0), v_mul(a0), v_shoup(lazy);
        k->add_mod(v_add.data(), b.data(), n, q);
        k->sub_mod(v_sub.data(), b.data(), n, q);
        k->neg_mod(v_neg.data(), n, q);
        k->mul_mod(v_mul.data(), b.data(), n, q, m.ratio_hi(), m.ratio_lo());
        k->mul_shoup(v_shoup.data(), n, w, ws, q);
        EXPECT_EQ(v_add, r_add) << simd::tier_name(t) << " add n=" << n;
        EXPECT_EQ(v_sub, r_sub) << simd::tier_name(t) << " sub n=" << n;
        EXPECT_EQ(v_neg, r_neg) << simd::tier_name(t) << " neg n=" << n;
        EXPECT_EQ(v_mul, r_mul) << simd::tier_name(t) << " mul n=" << n;
        EXPECT_EQ(v_shoup, r_shoup) << simd::tier_name(t) << " shoup n=" << n;
      }
    }
  }
}

TEST(SimdKernels, ButterflyAndStageTiersMatchScalar) {
  const simd::Kernels* ref = simd::detail::scalar_kernels();
  const u64 q = test_prime();
  for (std::size_t n : kSizes) {
    sp::Rng rng(n * 131 + 5);
    // Butterflies: forward takes lazy < 4q in, inverse < 2q in.
    const std::vector<u64> fx = random_below(rng, n, 4 * q);
    const std::vector<u64> fy = random_below(rng, n, 4 * q);
    const std::vector<u64> ix = random_below(rng, n, 2 * q);
    const std::vector<u64> iy = random_below(rng, n, 2 * q);
    const u64 w = rng.next_u64() % q;
    const u64 ws = shoup_precompute(w, q);
    // Stage layout: `blocks` blocks of 2t, per-block twiddles.
    const std::size_t t_len = n;
    const std::size_t blocks = 3;
    std::vector<u64> stage_in = random_below(rng, 2 * t_len * blocks, 4 * q);
    std::vector<u64> stage_in2q = random_below(rng, 2 * t_len * blocks, 2 * q);
    std::vector<u64> tw(blocks), tws(blocks);
    for (std::size_t b = 0; b < blocks; ++b) {
      tw[b] = rng.next_u64() % q;
      tws[b] = shoup_precompute(tw[b], q);
    }
    const std::vector<u64> r4 = random_below(rng, n, 4 * q);

    std::vector<u64> rfx(fx), rfy(fy), rix(ix), riy(iy), rst(stage_in),
        rsti(stage_in2q), rr4(r4);
    ref->fwd_butterfly(rfx.data(), rfy.data(), n, w, ws, q);
    ref->inv_butterfly(rix.data(), riy.data(), n, w, ws, q);
    ref->fwd_stage(rst.data(), t_len, blocks, tw.data(), tws.data(), q);
    ref->inv_stage(rsti.data(), t_len, blocks, tw.data(), tws.data(), q);
    ref->reduce_4q(rr4.data(), n, q);

    for (simd::Tier t : supported_tiers()) {
      const simd::Kernels* k = table_for(t);
      std::vector<u64> vfx(fx), vfy(fy), vix(ix), viy(iy), vst(stage_in),
          vsti(stage_in2q), vr4(r4);
      k->fwd_butterfly(vfx.data(), vfy.data(), n, w, ws, q);
      k->inv_butterfly(vix.data(), viy.data(), n, w, ws, q);
      k->fwd_stage(vst.data(), t_len, blocks, tw.data(), tws.data(), q);
      k->inv_stage(vsti.data(), t_len, blocks, tw.data(), tws.data(), q);
      k->reduce_4q(vr4.data(), n, q);
      EXPECT_EQ(vfx, rfx) << simd::tier_name(t) << " fwd x n=" << n;
      EXPECT_EQ(vfy, rfy) << simd::tier_name(t) << " fwd y n=" << n;
      EXPECT_EQ(vix, rix) << simd::tier_name(t) << " inv x n=" << n;
      EXPECT_EQ(viy, riy) << simd::tier_name(t) << " inv y n=" << n;
      EXPECT_EQ(vst, rst) << simd::tier_name(t) << " fwd_stage n=" << n;
      EXPECT_EQ(vsti, rsti) << simd::tier_name(t) << " inv_stage n=" << n;
      EXPECT_EQ(vr4, rr4) << simd::tier_name(t) << " reduce_4q n=" << n;
    }
  }
}

TEST(SimdNtt, ForwardInverseTiersMatchScalarAndRoundTrip) {
  const u64 q = test_prime();  // 1 mod 2*8192 => valid for every n below
  for (std::size_t n : {std::size_t(1), std::size_t(2), std::size_t(1024),
                        std::size_t(4096), std::size_t(8192)}) {
    const NttTables tables(n, Modulus(q));
    sp::Rng rng(n + 17);
    const std::vector<u64> in = random_below(rng, n, q);

    std::vector<u64> ref_fwd(in), ref_inv(in);
    {
      TierGuard g(simd::Tier::kScalar);
      tables.forward(ref_fwd.data());
      ref_inv = ref_fwd;
      tables.inverse(ref_inv.data());
    }
    EXPECT_EQ(ref_inv, in) << "scalar round-trip n=" << n;

    for (simd::Tier t : supported_tiers()) {
      TierGuard g(t);
      std::vector<u64> fwd(in);
      tables.forward(fwd.data());
      EXPECT_EQ(fwd, ref_fwd) << simd::tier_name(t) << " forward n=" << n;
      tables.inverse(fwd.data());
      EXPECT_EQ(fwd, in) << simd::tier_name(t) << " round-trip n=" << n;
    }
  }
}

TEST(SimdNtt, BatchedSubRowSplitMatchesPerRow) {
  // The batch entry points pick a sub-row split from rows vs threads; every
  // (tier, thread count, row count) combination must reproduce the plain
  // per-row transforms bit for bit.
  const u64 q = test_prime();
  const std::size_t n = 4096;
  const NttTables tables(n, Modulus(q));
  for (int rows : {1, 3, 5}) {
    sp::Rng rng(static_cast<std::uint64_t>(rows) * 97);
    std::vector<std::vector<u64>> base(static_cast<std::size_t>(rows));
    for (auto& r : base) r = random_below(rng, n, q);

    std::vector<std::vector<u64>> ref_fwd = base;
    {
      TierGuard g(simd::Tier::kScalar);
      for (auto& r : ref_fwd) tables.forward(r.data());
    }

    for (simd::Tier t : supported_tiers()) {
      TierGuard g(t);
      for (int threads : {1, 2, 7}) {
        ThreadPool::set_global_threads(threads);
        std::vector<std::vector<u64>> got = base;
        std::vector<NttJob> jobs;
        for (auto& r : got) jobs.push_back({r.data(), &tables});
        ntt_forward_batch(jobs);
        EXPECT_EQ(got, ref_fwd) << simd::tier_name(t) << " fwd rows=" << rows
                                << " threads=" << threads;
        ntt_inverse_batch(jobs);
        EXPECT_EQ(got, base) << simd::tier_name(t) << " inv rows=" << rows
                             << " threads=" << threads;
      }
    }
  }
  ThreadPool::set_global_threads(ThreadPool::env_threads());
}

TEST(SimdDispatch, TierGrammarAndOverride) {
  bool ok = false;
  EXPECT_EQ(simd::parse_tier("scalar", &ok), simd::Tier::kScalar);
  EXPECT_TRUE(ok);
  EXPECT_EQ(simd::parse_tier("avx2", &ok), simd::Tier::kAvx2);
  EXPECT_TRUE(ok);
  EXPECT_EQ(simd::parse_tier("avx512", &ok), simd::Tier::kAvx512);
  EXPECT_TRUE(ok);
  EXPECT_EQ(simd::parse_tier("avx512ifma", &ok), simd::Tier::kAvx512Ifma);
  EXPECT_TRUE(ok);
  simd::parse_tier("AVX2", &ok);  // grammar is exact-match lowercase
  EXPECT_FALSE(ok);
  simd::parse_tier(nullptr, &ok);
  EXPECT_FALSE(ok);

  EXPECT_TRUE(simd::tier_supported(simd::Tier::kScalar));
  const simd::Tier before = simd::active_tier();
  for (simd::Tier t : supported_tiers()) {
    EXPECT_TRUE(simd::set_tier(t));
    EXPECT_EQ(simd::active_tier(), t);
    EXPECT_EQ(std::strcmp(simd::tier_name(simd::active_tier()), simd::tier_name(t)), 0);
  }
  simd::set_tier(before);
}

TEST(RnsPolyFlat, DropRowsPreservesSurvivingRows) {
  // Flat-buffer regression: drop_last_q removes a middle row (the special row
  // trails it), so surviving rows must slide without corruption.
  const CkksContext ctx(CkksParams::test_small());
  RnsPoly p(&ctx, ctx.q_count(), /*with_special=*/true, /*ntt_form=*/false);
  sp::Rng rng(3);
  std::vector<std::vector<u64>> rows(static_cast<std::size_t>(p.row_count()));
  for (int i = 0; i < p.row_count(); ++i) {
    rows[static_cast<std::size_t>(i)] =
        random_below(rng, p.n(), p.row_mod(i).value());
    std::memcpy(p.row(i), rows[static_cast<std::size_t>(i)].data(),
                p.n() * sizeof(u64));
  }
  const int q0 = p.q_count();
  p.drop_last_q();
  ASSERT_EQ(p.q_count(), q0 - 1);
  ASSERT_TRUE(p.has_special());
  for (int i = 0; i < p.q_count(); ++i)
    EXPECT_EQ(std::memcmp(p.row(i), rows[static_cast<std::size_t>(i)].data(),
                          p.n() * sizeof(u64)),
              0)
        << "chain row " << i;
  // The special row (was index q0) now lives at index q0-1.
  EXPECT_EQ(std::memcmp(p.row(p.q_count()), rows[static_cast<std::size_t>(q0)].data(),
                        p.n() * sizeof(u64)),
            0);
  p.drop_special();
  ASSERT_FALSE(p.has_special());
  for (int i = 0; i < p.row_count(); ++i)
    EXPECT_EQ(std::memcmp(p.row(i), rows[static_cast<std::size_t>(i)].data(),
                          p.n() * sizeof(u64)),
              0);
}

/// Degree-7 odd PAF, same shape as the pipeline acceptance tests.
approx::CompositePaf e2e_paf(std::uint64_t seed) {
  sp::Rng rng(seed);
  std::vector<double> c(8, 0.0);
  for (int k = 1; k <= 7; k += 2)
    c[static_cast<std::size_t>(k)] = rng.uniform(-1.0, 1.0) / 8.0;
  return approx::CompositePaf("deg7", {approx::Polynomial(c)});
}

std::vector<u64> run_pipeline_e2e(simd::Tier tier, int threads) {
  TierGuard g(tier);
  ThreadPool::set_global_threads(threads);
  smartpaf::FheRuntime rt(CkksParams::for_depth(2048, 12, 40), /*seed=*/77);
  const auto pipe = smartpaf::FhePipeline::builder()
                        .window({0.5, 0.3, 0.2})
                        .paf_relu(e2e_paf(41), 2.0)
                        .linear(0.7)
                        .paf_maxpool(e2e_paf(43), 2.0, /*pool_window=*/2)
                        .build();
  const auto plan =
      smartpaf::Planner::plan(pipe, rt.ctx(), smartpaf::CostModel::heuristic());
  sp::Rng rng(9);
  std::vector<double> slots(rt.ctx().slot_count());
  for (auto& x : slots) x = rng.uniform(-0.8, 0.8);
  const Ciphertext out = pipe.run(rt, plan, rt.encrypt(slots));
  std::vector<u64> flat;
  for (const auto& part : out.parts)
    for (int r = 0; r < part.row_count(); ++r)
      flat.insert(flat.end(), part.row(r), part.row(r) + part.n());
  return flat;
}

TEST(SimdEndToEnd, PipelineRunBitIdenticalAcrossTiersAndThreads) {
  // keygen, encrypt, the full lowered pipeline (rotations, PAF evals,
  // rescales), all bit-identical for every (tier, thread count).
  const std::vector<u64> ref = run_pipeline_e2e(simd::Tier::kScalar, 1);
  ASSERT_FALSE(ref.empty());
  for (simd::Tier t : supported_tiers()) {
    for (int threads : {1, 3}) {
      if (t == simd::Tier::kScalar && threads == 1) continue;
      const std::vector<u64> got = run_pipeline_e2e(t, threads);
      ASSERT_EQ(got.size(), ref.size());
      std::size_t mismatches = 0;
      for (std::size_t i = 0; i < ref.size(); ++i)
        if (got[i] != ref[i]) ++mismatches;
      EXPECT_EQ(mismatches, 0u)
          << simd::tier_name(t) << " threads=" << threads;
    }
  }
  ThreadPool::set_global_threads(ThreadPool::env_threads());
}

}  // namespace
