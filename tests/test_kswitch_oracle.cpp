// Key-switch oracle: the evaluator's key switch and rescale must return the
// same bits as the straightforward scalar algorithms they replace, on every
// SIMD tier and thread count.
//
// The `ref` namespace keeps those algorithms as they were: division-based
// centered lifts of every digit row followed by l(l+1) forward NTTs, an
// n-long u128 inner-product accumulator per row, and a mod-down / rescale
// that inverse-NTTs every row and divides in the coefficient domain. The
// fast path (NTT-domain row drop, own-row reuse, division-free lift, tiled
// and IFMA inner products) is exact modular arithmetic that ends fully
// reduced, so any difference is a bug. The kernel cases pin the lift and dot
// kernels at their boundary values on every tier.
#include <gtest/gtest.h>

#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "common/rng.h"
#include "common/thread_pool.h"
#include "fhe/primes.h"
#include "fhe/simd/simd.h"
#include "smartpaf/fhe_deploy.h"

namespace {

using namespace sp;
using namespace sp::fhe;

namespace ref {

void div_exact_rows(RnsPoly& poly, const u64* divisor_row, const Modulus& divisor_mod,
                    const std::vector<u64>& inv_mod_rows) {
  const std::size_t n = poly.n();
  const u64 d = divisor_mod.value();
  for (int j = 0; j < poly.row_count(); ++j) {
    const Modulus& m = poly.row_mod(j);
    const u64 inv = inv_mod_rows[static_cast<std::size_t>(j)];
    const u64 inv_shoup = shoup_precompute(inv, m.value());
    u64* r = poly.row(j);
    for (std::size_t i = 0; i < n; ++i) {
      const u64 x = divisor_row[i];
      const std::int64_t centered =
          x > d / 2 ? static_cast<std::int64_t>(x) - static_cast<std::int64_t>(d)
                    : static_cast<std::int64_t>(x);
      const u64 lift = m.from_signed(centered);
      r[i] = mul_shoup(m.sub(r[i], lift), inv, inv_shoup, m.value());
    }
  }
}

std::vector<RnsPoly> decompose_digits(const CkksContext& ctx, const RnsPoly& d_coeff) {
  const int l = d_coeff.q_count();
  const int rows = l + 1;
  const std::size_t n = ctx.n();
  std::vector<RnsPoly> digits(static_cast<std::size_t>(l));
  for (auto& digit : digits) digit = RnsPoly(&ctx, l, /*with_special=*/true, /*ntt_form=*/false);
  for (int i = 0; i < l; ++i) {
    const u64 qi = ctx.q(i).value();
    for (int t = 0; t < rows; ++t) {
      RnsPoly& digit = digits[static_cast<std::size_t>(i)];
      const u64* src = d_coeff.row(i);
      const Modulus& m = digit.row_mod(t);
      u64* dst = digit.row(t);
      for (std::size_t j = 0; j < n; ++j) {
        const u64 x = src[j];
        const std::int64_t centered =
            x > qi / 2 ? static_cast<std::int64_t>(x) - static_cast<std::int64_t>(qi)
                       : static_cast<std::int64_t>(x);
        dst[j] = m.from_signed(centered);
      }
    }
  }
  for (auto& digit : digits) digit.to_ntt();
  return digits;
}

void mod_down(const CkksContext& ctx, RnsPoly& r) {
  const int l = r.q_count();
  const std::size_t n = ctx.n();
  r.from_ntt();
  std::vector<u64> p_inv(static_cast<std::size_t>(l));
  for (int j = 0; j < l; ++j) p_inv[static_cast<std::size_t>(j)] = ctx.p_inv_mod(j);
  std::vector<u64> special_row(r.row(l), r.row(l) + n);
  r.drop_special();
  div_exact_rows(r, special_row.data(), ctx.special(), p_inv);
  r.to_ntt();
}

std::pair<RnsPoly, RnsPoly> apply_kswitch(const CkksContext& ctx,
                                          const std::vector<RnsPoly>& digits,
                                          const KSwitchKey& key, const std::uint32_t* ntt_perm) {
  const int l = static_cast<int>(digits.size());
  const int rows = l + 1;
  const int key_q = ctx.q_count();
  const std::size_t n = ctx.n();
  RnsPoly r0(&ctx, l, true, true), r1(&ctx, l, true, true);
  for (int t = 0; t < rows; ++t) {
    const int key_row = (t == l) ? key_q : t;
    std::vector<u128> acc0(n, 0), acc1(n, 0);
    for (int i = 0; i < l; ++i) {
      const u64* dg = digits[static_cast<std::size_t>(i)].row(t);
      const auto& kd = key.digits[static_cast<std::size_t>(i)];
      const u64* k0 = kd[0].row(key_row);
      const u64* k1 = kd[1].row(key_row);
      for (std::size_t j = 0; j < n; ++j) {
        const u64 dgj = ntt_perm ? dg[ntt_perm[j]] : dg[j];
        acc0[j] += static_cast<u128>(dgj) * k0[j];
        acc1[j] += static_cast<u128>(dgj) * k1[j];
      }
    }
    const Modulus& m = r0.row_mod(t);
    for (std::size_t j = 0; j < n; ++j) {
      r0.row(t)[j] = m.reduce128(acc0[j]);
      r1.row(t)[j] = m.reduce128(acc1[j]);
    }
  }
  mod_down(ctx, r0);
  mod_down(ctx, r1);
  return {std::move(r0), std::move(r1)};
}

Ciphertext relinearize(const CkksContext& ctx, Ciphertext ct, const KSwitchKey& rk) {
  RnsPoly d = ct.parts[2];
  d.from_ntt();
  auto [r0, r1] = apply_kswitch(ctx, decompose_digits(ctx, d), rk, nullptr);
  ct.parts.pop_back();
  ct.parts[0].add_inplace(r0);
  ct.parts[1].add_inplace(r1);
  return ct;
}

/// The coefficient-domain rotation: c0 and c1 leave the NTT domain, both
/// take the automorphism there, and c1 is decomposed after it.
Ciphertext rotate(const CkksContext& ctx, const Ciphertext& ct, u64 g, const KSwitchKey& key) {
  RnsPoly c0 = ct.parts[0];
  RnsPoly c1 = ct.parts[1];
  c0.from_ntt();
  c1.from_ntt();
  RnsPoly c0g = apply_galois(c0, g);
  RnsPoly c1g = apply_galois(c1, g);
  auto [r0, r1] = apply_kswitch(ctx, decompose_digits(ctx, c1g), key, nullptr);
  c0g.to_ntt();
  r0.add_inplace(c0g);
  Ciphertext out;
  out.parts.push_back(std::move(r0));
  out.parts.push_back(std::move(r1));
  out.scale = ct.scale;
  return out;
}

/// The hoisted rotation: decomposition of the unrotated c1, permuted on the
/// fly in the inner product; c0 permuted in the NTT domain.
Ciphertext rotate_hoisted(const CkksContext& ctx, const Ciphertext& ct, u64 g,
                          const KSwitchKey& key) {
  RnsPoly c1 = ct.parts[1];
  c1.from_ntt();
  const std::vector<RnsPoly> digits = decompose_digits(ctx, c1);
  const std::vector<std::uint32_t>& table = galois_ntt_table(ctx.n(), g);
  auto [r0, r1] = apply_kswitch(ctx, digits, key, table.data());
  const RnsPoly& c0 = ct.parts[0];
  for (int t = 0; t < r0.row_count(); ++t) {
    const Modulus& m = r0.row_mod(t);
    for (std::size_t j = 0; j < ctx.n(); ++j)
      r0.row(t)[j] = m.add(r0.row(t)[j], c0.row(t)[table[j]]);
  }
  Ciphertext out;
  out.parts.push_back(std::move(r0));
  out.parts.push_back(std::move(r1));
  out.scale = ct.scale;
  return out;
}

Ciphertext rescale(const CkksContext& ctx, Ciphertext ct) {
  const int last = ct.q_count() - 1;
  const Modulus& q_last = ctx.q(last);
  std::vector<u64> inv(static_cast<std::size_t>(last));
  for (int j = 0; j < last; ++j) inv[static_cast<std::size_t>(j)] = ctx.q_inv_mod(last, j);
  for (auto& part : ct.parts) {
    part.from_ntt();
    std::vector<u64> last_row(part.row(last), part.row(last) + part.n());
    part.drop_last_q();
    div_exact_rows(part, last_row.data(), q_last, inv);
    part.to_ntt();
  }
  ct.scale /= static_cast<double>(q_last.value());
  return ct;
}

}  // namespace ref

std::vector<simd::Tier> supported_tiers() {
  std::vector<simd::Tier> out;
  for (simd::Tier t : {simd::Tier::kScalar, simd::Tier::kAvx2, simd::Tier::kAvx512,
                       simd::Tier::kAvx512Ifma})
    if (simd::tier_supported(t)) out.push_back(t);
  return out;
}

/// Pins a tier and a pool size for one scope; restores both after.
struct Pin {
  simd::Tier saved = simd::active_tier();
  Pin(simd::Tier t, int threads) {
    EXPECT_TRUE(simd::set_tier(t));
    ThreadPool::set_global_threads(threads);
  }
  ~Pin() {
    simd::set_tier(saved);
    ThreadPool::set_global_threads(ThreadPool::env_threads());
  }
};

/// Empty when `a` and `b` carry the same bits; otherwise the first
/// difference.
std::string diff_bits(const Ciphertext& a, const Ciphertext& b) {
  if (a.size() != b.size() || a.q_count() != b.q_count()) return "shape differs";
  if (a.scale != b.scale) return "scale differs";
  for (int p = 0; p < a.size(); ++p) {
    const RnsPoly& pa = a.parts[static_cast<std::size_t>(p)];
    const RnsPoly& pb = b.parts[static_cast<std::size_t>(p)];
    if (pa.is_ntt() != pb.is_ntt()) return "form differs";
    for (int r = 0; r < pa.row_count(); ++r)
      for (std::size_t j = 0; j < pa.n(); ++j)
        if (pa.row(r)[j] != pb.row(r)[j])
          return "part " + std::to_string(p) + " row " + std::to_string(r) + " slot " +
                 std::to_string(j) + ": " + std::to_string(pa.row(r)[j]) + " vs " +
                 std::to_string(pb.row(r)[j]);
  }
  return "";
}

struct Chain {
  std::size_t n;
  int depth;
};

class KswitchOracle : public ::testing::TestWithParam<Chain> {};

TEST_P(KswitchOracle, EvaluatorMatchesReferenceOnEveryTierAndThreadCount) {
  const Chain chain = GetParam();
  smartpaf::FheRuntime rt(CkksParams::for_depth(chain.n, chain.depth, 40), /*seed=*/31);
  const CkksContext& ctx = rt.ctx();
  const int step = 3;
  const auto gk = rt.rotation_keys({step});
  Evaluator& ev = rt.evaluator();
  const u64 g = ev.galois_element(step);
  const KSwitchKey& rot_key = gk->keys.at(g);

  sp::Rng rng(chain.n + static_cast<std::size_t>(chain.depth));
  std::vector<double> va(ctx.slot_count()), vb(ctx.slot_count());
  for (auto& x : va) x = rng.uniform(-1.0, 1.0);
  for (auto& x : vb) x = rng.uniform(-1.0, 1.0);
  const Ciphertext ca = rt.encrypt(va), cb = rt.encrypt(vb);

  const int top = ctx.q_count() - 1;
  for (int level : {top, top / 2, 1}) {
    Ciphertext a = ca, b = cb;
    ev.drop_to_level(a, level);
    ev.drop_to_level(b, level);
    const Ciphertext prod = ev.multiply(a, b);

    Ciphertext want_relin, want_rot, want_hoisted, want_rescale2, want_rescale3;
    {
      Pin pin(simd::Tier::kScalar, 1);
      want_relin = ref::relinearize(ctx, prod, rt.relin_key());
      want_rot = ref::rotate(ctx, a, g, rot_key);
      want_hoisted = ref::rotate_hoisted(ctx, a, g, rot_key);
      want_rescale2 = ref::rescale(ctx, a);
      want_rescale3 = ref::rescale(ctx, prod);
    }
    // Hoisting is exact: the two reference rotations agree.
    ASSERT_EQ(diff_bits(want_rot, want_hoisted), "") << "level " << level;

    for (simd::Tier tier : supported_tiers()) {
      for (int threads : {1, 4}) {
        Pin pin(tier, threads);
        const std::string where = "N=" + std::to_string(chain.n) +
                                  " level=" + std::to_string(level) +
                                  " tier=" + simd::tier_name(tier) +
                                  " threads=" + std::to_string(threads) + ": ";
        Ciphertext relin = prod;
        ev.relinearize_inplace(relin, rt.relin_key());
        EXPECT_EQ(diff_bits(relin, want_relin), "") << where << "relinearize";
        EXPECT_EQ(diff_bits(ev.rotate(a, step, *gk), want_rot), "") << where << "rotate";
        EXPECT_EQ(diff_bits(ev.rotate_hoisted(ev.hoist(a), step, *gk), want_rot), "")
            << where << "rotate_hoisted";
        Ciphertext r2 = a, r3 = prod;
        ev.rescale_inplace(r2);
        ev.rescale_inplace(r3);
        EXPECT_EQ(diff_bits(r2, want_rescale2), "") << where << "2-part rescale";
        EXPECT_EQ(diff_bits(r3, want_rescale3), "") << where << "3-part rescale";
      }
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Chains, KswitchOracle,
                         ::testing::Values(Chain{2048, 20}, Chain{8192, 12}),
                         [](const ::testing::TestParamInfo<Chain>& info) {
                           return "N" + std::to_string(info.param.n) + "_" +
                                  std::to_string(info.param.depth + 1) + "primes";
                         });

// --- Kernel boundary cases ---

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

u64 prime(int bits, int index = 0) {
  return generate_ntt_primes(bits, index + 1, 8192)[static_cast<std::size_t>(index)];
}

/// Residues mod d covering the centering boundary, then a random run so the
/// vector bodies and the scalar tails both see every case.
std::vector<u64> boundary_values(u64 d, std::size_t random_tail) {
  std::vector<u64> v = {0, 1, d / 2, d / 2 + 1, d - 1};
  sp::Rng rng(d & 0xffff);
  for (std::size_t i = 0; i < random_tail; ++i) v.push_back(rng.next_u64() % d);
  // Again at lane-aligned offsets.
  for (u64 x : {u64{0}, u64{1}, d / 2, d / 2 + 1, d - 1}) v.push_back(x);
  return v;
}

TEST(KswitchKernels, LiftCenteredMatchesFromSignedOnEveryTier) {
  const u64 q60 = prime(60), p60 = prime(60, 1), q40 = prime(40), q40b = prime(40, 1);
  const u64 q30 = prime(30);
  // (source modulus, target modulus): the 60-bit base digit into narrow rows
  // (the division path), narrow digits into wide rows and into their peers.
  const std::vector<std::pair<u64, u64>> pairs = {
      {q60, q40}, {p60, q40}, {q60, q30}, {q40, q60}, {q40, p60},
      {q40, q40b}, {q40b, q40}, {q60, p60}, {q30, q40}, {q40, q30}};
  for (const auto& [d, q] : pairs) {
    const std::vector<u64> src = boundary_values(d, 1019);
    const Modulus m(q);
    std::vector<u64> want(src.size());
    for (std::size_t j = 0; j < src.size(); ++j) want[j] = m.from_signed(Modulus(d).to_signed(src[j]));
    for (simd::Tier t : supported_tiers()) {
      std::vector<u64> got(src.size());
      table_for(t)->lift_centered(got.data(), src.data(), src.size(), d, q);
      EXPECT_EQ(got, want) << simd::tier_name(t) << " d=" << d << " q=" << q;
    }
  }
}

/// u128 reference inner product, reduced once.
void dot_reference(std::vector<u64>& out0, std::vector<u64>& out1,
                   const std::vector<std::vector<u64>>& dg,
                   const std::vector<std::vector<u64>>& k0,
                   const std::vector<std::vector<u64>>& k1, const std::uint32_t* perm,
                   const Modulus& m) {
  const std::size_t len = out0.size();
  for (std::size_t j = 0; j < len; ++j) {
    u128 a0 = 0, a1 = 0;
    for (std::size_t i = 0; i < dg.size(); ++i) {
      const u64 x = dg[i][perm ? perm[j] : j];
      a0 += static_cast<u128>(x) * k0[i][j];
      a1 += static_cast<u128>(x) * k1[i][j];
    }
    out0[j] = m.reduce128(a0);
    out1[j] = m.reduce128(a1);
  }
}

void check_dot(simd::Tier tier, u64 q, std::size_t count, std::size_t len, bool permuted,
               bool all_max) {
  const Modulus m(q);
  sp::Rng rng(q ^ (count * 977 + len));
  const auto fill = [&](std::vector<u64>& v) {
    v.resize(len);
    for (auto& x : v) x = all_max ? q - 1 : rng.next_u64() % q;
    // Boundary residues at the front of every row.
    const u64 edge[] = {0, 1, q / 2, q / 2 + 1, q - 1};
    for (std::size_t e = 0; e < 5 && e < len; ++e) v[e] = edge[e];
  };
  std::vector<std::vector<u64>> dg(count), k0(count), k1(count);
  for (std::size_t i = 0; i < count; ++i) {
    fill(dg[i]);
    fill(k0[i]);
    fill(k1[i]);
  }
  std::vector<std::uint32_t> perm;
  if (permuted) perm = galois_ntt_table(len, 5);
  std::vector<u64> want0(len), want1(len);
  dot_reference(want0, want1, dg, k0, k1, permuted ? perm.data() : nullptr, m);

  std::vector<const u64*> ptrs;
  for (const auto* rows : {&dg, &k0, &k1})
    for (const auto& r : *rows) ptrs.push_back(r.data());
  std::vector<u64> got0(len), got1(len);
  table_for(tier)->key_dot(got0.data(), got1.data(), ptrs.data(), ptrs.data() + count,
                           ptrs.data() + 2 * count, count, permuted ? perm.data() : nullptr,
                           len, q, m.ratio_hi(), m.ratio_lo());
  EXPECT_EQ(got0, want0) << simd::tier_name(tier) << " q=" << q << " count=" << count
                         << " len=" << len << " perm=" << permuted << " max=" << all_max;
  EXPECT_EQ(got1, want1) << simd::tier_name(tier) << " q=" << q << " count=" << count
                         << " len=" << len << " perm=" << permuted << " max=" << all_max;
}

TEST(KswitchKernels, KeyDotMatchesU128ReferenceOnEveryTier) {
  // 60-bit rows (the base prime q_0 and the special prime) take the scalar
  // formula on every tier; 40-bit and 30-bit rows take the IFMA path where
  // it exists. All-(q-1) inputs drive every accumulator to its maximum.
  for (u64 q : {prime(60), prime(60, 1), prime(40), prime(30)}) {
    for (simd::Tier t : supported_tiers()) {
      for (std::size_t count : {std::size_t{1}, std::size_t{13}, std::size_t{21}}) {
        check_dot(t, q, count, 1027, /*permuted=*/false, /*all_max=*/false);
        check_dot(t, q, count, 2048, /*permuted=*/true, /*all_max=*/false);
        check_dot(t, q, count, 1024, /*permuted=*/false, /*all_max=*/true);
      }
    }
  }
}

TEST(KswitchKernels, IfmaKeyDotAtItsExactnessLimits) {
  if (!simd::tier_supported(simd::Tier::kAvx512Ifma))
    GTEST_SKIP() << "avx512ifma tier not supported by this CPU or build";
  // Just below the 2^50 gate the 52-bit products are at their widest;
  // at or above it the kernel must fall back to the scalar formula.
  for (u64 q : {prime(49), prime(50), prime(51)}) {
    check_dot(simd::Tier::kAvx512Ifma, q, 64, 512, /*permuted=*/false, /*all_max=*/true);
    check_dot(simd::Tier::kAvx512Ifma, q, 21, 4096, /*permuted=*/true, /*all_max=*/false);
    check_dot(simd::Tier::kAvx512Ifma, q, 5, 13, /*permuted=*/false, /*all_max=*/false);
  }
}

}  // namespace
