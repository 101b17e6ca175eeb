#include <gtest/gtest.h>

#include <cmath>
#include <limits>

#include "common/rng.h"
#include "fhe/modarith.h"
#include "fhe/ntt.h"
#include "fhe/primes.h"
#include "fhe/rns_poly.h"

namespace {

using namespace sp::fhe;

TEST(Modulus, AddSubNegBasics) {
  const Modulus m(97);
  EXPECT_EQ(m.add(90, 10), 3u);
  EXPECT_EQ(m.sub(3, 10), 90u);
  EXPECT_EQ(m.neg(1), 96u);
  EXPECT_EQ(m.neg(0), 0u);
}

TEST(Modulus, MulMatchesNaive) {
  const Modulus m((1ULL << 61) - 1);  // Mersenne-like large odd modulus
  sp::Rng rng(7);
  for (int i = 0; i < 2000; ++i) {
    const u64 a = rng.next_u64() % m.value();
    const u64 b = rng.next_u64() % m.value();
    EXPECT_EQ(m.mul(a, b), static_cast<u64>(static_cast<u128>(a) * b % m.value()));
  }
}

TEST(Modulus, Reduce128MatchesNaive) {
  const Modulus m(1152921504606845473ULL);  // arbitrary large prime-ish odd
  sp::Rng rng(11);
  for (int i = 0; i < 2000; ++i) {
    const u128 x = (static_cast<u128>(rng.next_u64()) << 64) | rng.next_u64();
    EXPECT_EQ(m.reduce128(x), static_cast<u64>(x % m.value()));
  }
}

TEST(Modulus, PowAndInv) {
  const Modulus m(65537);
  EXPECT_EQ(m.pow(3, 0), 1u);
  EXPECT_EQ(m.pow(3, 4), 81u);
  for (u64 a : {2ULL, 3ULL, 12345ULL}) {
    EXPECT_EQ(m.mul(a, m.inv(a)), 1u);
  }
}

TEST(Modulus, SignedConversions) {
  const Modulus m(101);
  EXPECT_EQ(m.from_signed(-1), 100u);
  EXPECT_EQ(m.from_signed(-102), 100u);
  EXPECT_EQ(m.to_signed(100), -1);
  EXPECT_EQ(m.to_signed(50), 50);
}

TEST(Shoup, LazyProductWithinTwoQ) {
  const u64 q = (1ULL << 59) + 21;  // not prime; Shoup bound is arithmetic-only
  sp::Rng rng(3);
  for (int i = 0; i < 2000; ++i) {
    const u64 w = rng.next_u64() % q;
    const u64 ws = shoup_precompute(w, q);
    const u64 x = rng.next_u64();
    const u64 r = mul_shoup_lazy(x, w, ws, q);
    EXPECT_LT(r, 2 * q);
    EXPECT_EQ(r % q, static_cast<u64>(static_cast<u128>(x) * w % q));
  }
}

TEST(Primes, MillerRabinKnownValues) {
  EXPECT_TRUE(is_prime(2));
  EXPECT_TRUE(is_prime(3));
  EXPECT_FALSE(is_prime(1));
  EXPECT_FALSE(is_prime(561));          // Carmichael
  EXPECT_TRUE(is_prime(1000000007ULL));
  EXPECT_FALSE(is_prime(1000000007ULL * 3));
  EXPECT_TRUE(is_prime((1ULL << 61) - 1));  // Mersenne prime
}

TEST(Primes, GeneratedPrimesAreNttFriendly) {
  const std::size_t n = 1024;
  const auto primes = generate_ntt_primes(40, 5, n);
  ASSERT_EQ(primes.size(), 5u);
  for (u64 q : primes) {
    EXPECT_TRUE(is_prime(q));
    EXPECT_EQ((q - 1) % (2 * n), 0u);
    EXPECT_GE(q, 1ULL << 39);
    EXPECT_LT(q, 1ULL << 40);
  }
  // Distinct.
  for (std::size_t i = 0; i < primes.size(); ++i)
    for (std::size_t j = i + 1; j < primes.size(); ++j) EXPECT_NE(primes[i], primes[j]);
}

TEST(Primes, ExclusionRespected) {
  const std::size_t n = 512;
  const auto first = generate_ntt_primes(30, 1, n);
  const auto second = generate_ntt_primes(30, 1, n, first);
  EXPECT_NE(first[0], second[0]);
}

TEST(Primes, PrimitiveRootHasExactOrder) {
  const std::size_t n = 256;
  const u64 q = generate_ntt_primes(30, 1, n)[0];
  const u64 psi = find_primitive_root(q, 2 * n);
  const Modulus m(q);
  EXPECT_EQ(m.pow(psi, static_cast<u64>(n)), q - 1);       // psi^n = -1
  EXPECT_EQ(m.pow(psi, static_cast<u64>(2 * n)), 1u);      // psi^2n = 1
}

class NttSize : public ::testing::TestWithParam<std::size_t> {};

TEST_P(NttSize, ForwardInverseRoundTrip) {
  const std::size_t n = GetParam();
  const u64 q = generate_ntt_primes(45, 1, n)[0];
  NttTables ntt(n, Modulus(q));
  sp::Rng rng(n);
  std::vector<u64> a(n), orig;
  for (auto& v : a) v = rng.next_u64() % q;
  orig = a;
  ntt.forward(a.data());
  ntt.inverse(a.data());
  EXPECT_EQ(a, orig);
}

INSTANTIATE_TEST_SUITE_P(Sizes, NttSize, ::testing::Values(8, 64, 1024, 4096));

TEST(Ntt, NegacyclicConvolutionMatchesSchoolbook) {
  const std::size_t n = 16;
  const u64 q = generate_ntt_primes(30, 1, n)[0];
  const Modulus m(q);
  NttTables ntt(n, m);
  sp::Rng rng(99);
  std::vector<u64> a(n), b(n);
  for (auto& v : a) v = rng.next_u64() % q;
  for (auto& v : b) v = rng.next_u64() % q;

  // Schoolbook negacyclic product: X^n = -1.
  std::vector<u64> expect(n, 0);
  for (std::size_t i = 0; i < n; ++i) {
    for (std::size_t j = 0; j < n; ++j) {
      const u64 prod = m.mul(a[i], b[j]);
      const std::size_t k = i + j;
      if (k < n)
        expect[k] = m.add(expect[k], prod);
      else
        expect[k - n] = m.sub(expect[k - n], prod);
    }
  }
  ntt.forward(a.data());
  ntt.forward(b.data());
  for (std::size_t i = 0; i < n; ++i) a[i] = m.mul(a[i], b[i]);
  ntt.inverse(a.data());
  EXPECT_EQ(a, expect);
}

TEST(RnsPoly, AddSubNegateRoundTrip) {
  CkksContext ctx(CkksParams::test_small());
  sp::Rng rng(5);
  RnsPoly a(&ctx, 3, false, false), b(&ctx, 3, false, false);
  a.sample_gaussian(rng, 3.2);
  b.sample_gaussian(rng, 3.2);
  RnsPoly c = a;
  c.add_inplace(b);
  c.sub_inplace(b);
  for (int r = 0; r < c.row_count(); ++r)
    for (std::size_t i = 0; i < c.n(); ++i) EXPECT_EQ(c.row(r)[i], a.row(r)[i]);
  RnsPoly d = a;
  d.negate_inplace();
  d.add_inplace(a);
  for (int r = 0; r < d.row_count(); ++r)
    for (std::size_t i = 0; i < d.n(); ++i) EXPECT_EQ(d.row(r)[i], 0u);
}

TEST(RnsPoly, NttMulMatchesScalarConvolutionViaConstant) {
  CkksContext ctx(CkksParams::test_small());
  // Multiply by the constant polynomial 3: every residue triples.
  RnsPoly a(&ctx, 2, false, false);
  std::vector<std::int64_t> coeffs(ctx.n(), 0);
  coeffs[0] = 7;
  coeffs[5] = -2;
  a.set_from_signed(coeffs);
  RnsPoly three(&ctx, 2, false, false);
  std::vector<std::int64_t> c3(ctx.n(), 0);
  c3[0] = 3;
  three.set_from_signed(c3);
  a.to_ntt();
  three.to_ntt();
  a.mul_inplace(three);
  a.from_ntt();
  EXPECT_EQ(a.row_mod(0).to_signed(a.row(0)[0]), 21);
  EXPECT_EQ(a.row_mod(0).to_signed(a.row(0)[5]), -6);
}

TEST(RnsPoly, SetFromSignedMatchesFromSignedAtEveryBoundary) {
  // The conditional-add path (|v| < q) and the division path (|v| >= q) must
  // both land on Modulus::from_signed, on chain rows and the special row.
  CkksContext ctx(CkksParams::test_small());
  RnsPoly a(&ctx, ctx.q_count(), /*with_special=*/true, /*ntt_form=*/false);
  std::vector<std::int64_t> coeffs(ctx.n(), 0);
  std::size_t k = 0;
  for (int r = 0; r < a.row_count(); ++r) {
    const auto q = static_cast<std::int64_t>(a.row_mod(r).value());
    for (std::int64_t v : {std::int64_t{1}, q / 2, q - 1, q, q + 1})
      for (std::int64_t s : {v, -v}) coeffs[k++] = s;
  }
  coeffs[k++] = std::numeric_limits<std::int64_t>::min();
  coeffs[k++] = std::numeric_limits<std::int64_t>::max();
  ASSERT_LE(k, ctx.n());
  a.set_from_signed(coeffs);
  for (int r = 0; r < a.row_count(); ++r)
    for (std::size_t i = 0; i < ctx.n(); ++i)
      ASSERT_EQ(a.row(r)[i], a.row_mod(r).from_signed(coeffs[i])) << "row " << r << " i " << i;
}

TEST(RnsPoly, DropLastPreservesRemainingRows) {
  CkksContext ctx(CkksParams::test_small());
  sp::Rng rng(8);
  RnsPoly a(&ctx, 3, false, false);
  a.sample_gaussian(rng, 3.2);
  const u64 first = a.row(0)[17];
  a.drop_last_q();
  EXPECT_EQ(a.q_count(), 2);
  EXPECT_EQ(a.row(0)[17], first);
}

TEST(RnsPoly, TernarySecretsAreTernary) {
  CkksContext ctx(CkksParams::test_small());
  sp::Rng rng(4);
  RnsPoly s(&ctx, 2, true, false);
  s.sample_ternary(rng);
  for (std::size_t i = 0; i < s.n(); ++i) {
    const auto v = s.row_mod(0).to_signed(s.row(0)[i]);
    EXPECT_TRUE(v == -1 || v == 0 || v == 1);
    // Same underlying integer in every row.
    EXPECT_EQ(s.row_mod(1).to_signed(s.row(1)[i]), v);
  }
}

}  // namespace
