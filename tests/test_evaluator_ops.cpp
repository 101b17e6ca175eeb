// Evaluator-level correctness net for the parallel backend work: plaintext
// parity for the elementwise ops and rotations, bit-exact equivalence of
// hoisted vs naive rotation, the pinned key-switch / rescale NTT tallies,
// and lazy-relinearization BSGS parity + savings vs the eager schedule.
#include <gtest/gtest.h>

#include <cmath>
#include <memory>
#include <vector>

#include "common/rng.h"
#include "smartpaf/fhe_deploy.h"

namespace {

using namespace sp;
using namespace sp::fhe;

/// 2^-20: parity budget vs the plaintext reference, as max-abs error
/// relative to max(1, ||reference||_inf).
const double kParityTol = std::ldexp(1.0, -20);

class EvaluatorOpsTest : public ::testing::Test {
 protected:
  static void SetUpTestSuite() {
    rt_ = std::make_unique<smartpaf::FheRuntime>(CkksParams::for_depth(4096, 6, 40),
                                                 /*seed=*/2026);
    gk_ = std::make_unique<GaloisKeys>();
    // Snapshot of the runtime's deduplicated rotation-key store (the
    // galois_keys() shim was removed; rotation_keys is the one key surface).
    *gk_ = *rt_->rotation_keys({1, -1, 2, -2, 8});
  }
  static void TearDownTestSuite() {
    gk_.reset();
    rt_.reset();
  }

  static std::vector<double> random_vec(std::uint64_t seed, double lo = -1.0,
                                        double hi = 1.0) {
    sp::Rng rng(seed);
    std::vector<double> v(rt_->ctx().slot_count());
    for (auto& x : v) x = rng.uniform(lo, hi);
    return v;
  }

  static double rel_error(const std::vector<double>& got,
                          const std::vector<double>& ref) {
    double worst = 0.0, norm = 1.0;
    for (std::size_t i = 0; i < ref.size(); ++i) {
      norm = std::max(norm, std::abs(ref[i]));
      worst = std::max(worst, std::abs(got[i] - ref[i]));
    }
    return worst / norm;
  }

  /// Bit-exact ciphertext comparison: same structure and identical residues.
  static bool bit_identical(const Ciphertext& a, const Ciphertext& b) {
    if (a.size() != b.size() || a.q_count() != b.q_count()) return false;
    if (a.scale != b.scale) return false;
    for (int p = 0; p < a.size(); ++p) {
      const RnsPoly& pa = a.parts[static_cast<std::size_t>(p)];
      const RnsPoly& pb = b.parts[static_cast<std::size_t>(p)];
      if (pa.row_count() != pb.row_count() || pa.is_ntt() != pb.is_ntt()) return false;
      for (int r = 0; r < pa.row_count(); ++r)
        for (std::size_t j = 0; j < pa.n(); ++j)
          if (pa.row(r)[j] != pb.row(r)[j]) return false;
    }
    return true;
  }

  static approx::Polynomial dense_poly(int degree, std::uint64_t seed) {
    sp::Rng rng(seed);
    std::vector<double> c(static_cast<std::size_t>(degree) + 1);
    for (auto& v : c) v = rng.uniform(-1.0, 1.0) / (degree + 1);
    if (std::abs(c.back()) < 1e-3) c.back() = 0.25 / (degree + 1);
    return approx::Polynomial(c);
  }

  static std::unique_ptr<smartpaf::FheRuntime> rt_;
  static std::unique_ptr<GaloisKeys> gk_;
};

std::unique_ptr<smartpaf::FheRuntime> EvaluatorOpsTest::rt_;
std::unique_ptr<GaloisKeys> EvaluatorOpsTest::gk_;

TEST_F(EvaluatorOpsTest, AddSubNegateParity) {
  const auto va = random_vec(11), vb = random_vec(12);
  const Ciphertext ca = rt_->encrypt(va), cb = rt_->encrypt(vb);
  Evaluator& ev = rt_->evaluator();

  std::vector<double> sum(va.size()), diff(va.size()), neg(va.size());
  for (std::size_t i = 0; i < va.size(); ++i) {
    sum[i] = va[i] + vb[i];
    diff[i] = va[i] - vb[i];
    neg[i] = -va[i];
  }
  EXPECT_LT(rel_error(rt_->decrypt(ev.add(ca, cb)), sum), kParityTol);
  EXPECT_LT(rel_error(rt_->decrypt(ev.sub(ca, cb)), diff), kParityTol);
  Ciphertext cn = ca;
  ev.negate_inplace(cn);
  EXPECT_LT(rel_error(rt_->decrypt(cn), neg), kParityTol);
}

TEST_F(EvaluatorOpsTest, MultiplyPlainParity) {
  const auto v = random_vec(13);
  Ciphertext ct = rt_->encrypt(v);
  Evaluator& ev = rt_->evaluator();
  ev.multiply_plain_inplace(
      ct, rt_->encoder().encode_scalar(1.75, rt_->ctx().scale(), ct.q_count()));
  ev.rescale_inplace(ct);
  std::vector<double> ref(v.size());
  for (std::size_t i = 0; i < v.size(); ++i) ref[i] = 1.75 * v[i];
  EXPECT_LT(rel_error(rt_->decrypt(ct), ref), kParityTol);
}

TEST_F(EvaluatorOpsTest, RotationParity) {
  const auto v = random_vec(14);
  const Ciphertext ct = rt_->encrypt(v);
  const std::size_t slots = v.size();
  for (int steps : {1, -1, 2, -2, 8}) {
    const Ciphertext r = rt_->evaluator().rotate(ct, steps, *gk_);
    std::vector<double> ref(slots);
    for (std::size_t i = 0; i < slots; ++i)
      ref[i] = v[(i + static_cast<std::size_t>(
                          ((steps % static_cast<int>(slots)) + static_cast<int>(slots)))) %
                 slots];
    EXPECT_LT(rel_error(rt_->decrypt(r), ref), kParityTol) << "steps " << steps;
  }
}

TEST_F(EvaluatorOpsTest, HoistedRotationBitIdenticalToNaive) {
  const auto v = random_vec(15);
  const Ciphertext ct = rt_->encrypt(v);
  Evaluator& ev = rt_->evaluator();
  const std::vector<int> fan = {1, -1, 2, -2, 8};

  ev.counters.reset();
  std::vector<Ciphertext> naive;
  for (int s : fan) naive.push_back(ev.rotate(ct, s, *gk_));
  const std::size_t naive_fwd = ev.counters.ntts_forward;

  ev.counters.reset();
  const std::vector<Ciphertext> hoisted = ev.rotate_hoisted(ct, fan, *gk_);
  const std::size_t hoisted_fwd = ev.counters.ntts_forward;
  EXPECT_EQ(ev.counters.hoisted_rotations.load(), fan.size());

  ASSERT_EQ(naive.size(), hoisted.size());
  for (std::size_t i = 0; i < fan.size(); ++i)
    EXPECT_TRUE(bit_identical(naive[i], hoisted[i])) << "steps " << fan[i];

  // The whole point of hoisting: strictly fewer forward NTTs for the fan.
  EXPECT_LT(hoisted_fwd, naive_fwd);
}

TEST_F(EvaluatorOpsTest, RotateIsHoistPlusRotateHoisted) {
  // rotate() runs the hoisted path internally: same bits and same NTT
  // tallies as hoist() + rotate_hoisted(), without counting as hoisted.
  const auto v = random_vec(16);
  const Ciphertext ct = rt_->encrypt(v);
  Evaluator& ev = rt_->evaluator();

  ev.counters.reset();
  const Ciphertext direct = ev.rotate(ct, 2, *gk_);
  const OpCounters direct_ops = ev.counters;

  ev.counters.reset();
  const HoistedDecomposition h = ev.hoist(ct);
  const Ciphertext hoisted = ev.rotate_hoisted(h, 2, *gk_);
  const OpCounters hoisted_ops = ev.counters;

  EXPECT_TRUE(bit_identical(direct, hoisted));
  EXPECT_EQ(direct_ops.ntts_forward.load(), hoisted_ops.ntts_forward.load());
  EXPECT_EQ(direct_ops.ntts_inverse.load(), hoisted_ops.ntts_inverse.load());
  EXPECT_EQ(direct_ops.rotations.load(), 1u);
  EXPECT_EQ(direct_ops.hoisted_rotations.load(), 0u);
  EXPECT_EQ(hoisted_ops.hoisted_rotations.load(), 1u);
}

TEST_F(EvaluatorOpsTest, KeySwitchAndRescaleNttTallies) {
  // Pins the per-op NTT counts at the top level (l = q_count chain rows):
  //   decomposition: l inverse (c1 or c2 to coefficients), l^2 forward
  //     (each of the l digits NTTs its l+1 rows except its own, which is
  //     the input's NTT-form row);
  //   mod-down of the two key-switch outputs: 2 inverse (the special rows
  //     only), 2l forward (the special rows' lifts);
  //   rescale of a k-part ciphertext: k inverse, k(l-1) forward.
  // A lost saving (inverse-NTTing every row, re-NTTing the own row) fails.
  const auto v = random_vec(25);
  const Ciphertext ct = rt_->encrypt(v);
  Evaluator& ev = rt_->evaluator();
  const std::size_t l = static_cast<std::size_t>(ct.q_count());
  ASSERT_EQ(l, 7u);
  const auto expect_tally = [&](std::size_t fwd, std::size_t inv, const char* what) {
    EXPECT_EQ(ev.counters.ntts_forward.load(), fwd) << what;
    EXPECT_EQ(ev.counters.ntts_inverse.load(), inv) << what;
    ev.counters.reset();
  };

  Ciphertext prod = ev.multiply(ct, ct);
  ev.counters.reset();
  Ciphertext relin = prod;
  ev.relinearize_inplace(relin, rt_->relin_key());
  expect_tally(l * l + 2 * l, l + 2, "relinearize");  // 63 / 9

  ev.rotate(ct, 2, *gk_);
  expect_tally(l * l + 2 * l, l + 2, "rotate");

  const HoistedDecomposition h = ev.hoist(ct);
  expect_tally(l * l, l, "hoist");  // 49 / 7
  ev.rotate_hoisted(h, 2, *gk_);
  expect_tally(2 * l, 2, "rotate_hoisted");  // 14 / 2

  Ciphertext two = ct;
  ev.rescale_inplace(two);
  expect_tally(2 * (l - 1), 2, "2-part rescale");  // 12 / 2
  ev.rescale_inplace(prod);
  expect_tally(3 * (l - 1), 3, "3-part rescale");  // 18 / 3
}

TEST_F(EvaluatorOpsTest, GaloisNttPermutationMatchesCoefficientAutomorphism) {
  // The identity hoisting rests on: applying X -> X^g in the NTT domain is
  // the pure slot permutation of galois_ntt_table, bit for bit.
  const auto v = random_vec(24);
  const Ciphertext ct = rt_->encrypt(v);
  for (int steps : {1, -2, 8}) {
    const u64 g = rt_->evaluator().galois_element(steps);
    RnsPoly coeff = ct.parts[1];
    coeff.from_ntt();
    RnsPoly via_coeff = apply_galois(coeff, g);
    via_coeff.to_ntt();
    const RnsPoly via_ntt = apply_galois_ntt(ct.parts[1], g);
    for (int r = 0; r < via_ntt.row_count(); ++r)
      for (std::size_t j = 0; j < via_ntt.n(); ++j)
        ASSERT_EQ(via_ntt.row(r)[j], via_coeff.row(r)[j])
            << "steps " << steps << " row " << r << " slot " << j;
  }
}

TEST_F(EvaluatorOpsTest, HoistedRotationByZeroReturnsInput) {
  const auto v = random_vec(17);
  const Ciphertext ct = rt_->encrypt(v);
  const HoistedDecomposition h = rt_->evaluator().hoist(ct);
  const Ciphertext r = rt_->evaluator().rotate_hoisted(h, 0, *gk_);
  EXPECT_TRUE(bit_identical(ct, r));
}

TEST_F(EvaluatorOpsTest, ThreePartAwareAddInplace) {
  const auto va = random_vec(18), vb = random_vec(19), vc = random_vec(20);
  Evaluator& ev = rt_->evaluator();
  const Ciphertext ca = rt_->encrypt(va), cb = rt_->encrypt(vb);
  Ciphertext cc = rt_->encrypt(vc);

  // 3-part product + 2-part addend accumulate without relinearizing...
  Ciphertext acc = ev.multiply_no_relin(ca, cb);
  ev.rescale_inplace(acc);
  Ciphertext addend = cc;
  ev.drop_to_level(addend, acc.level());
  addend.scale = acc.scale;  // both ~Delta; adjust exact tracking
  ev.add_inplace(acc, addend);
  EXPECT_EQ(acc.size(), 3);

  // ...and one relinearization at the join lands on the right plaintext.
  ev.relinearize_inplace(acc, rt_->relin_key());
  std::vector<double> ref(va.size());
  for (std::size_t i = 0; i < va.size(); ++i) ref[i] = va[i] * vb[i] + vc[i];
  // The scale fudge above costs a little precision; 1e-4 is plenty to show
  // the 3-part accumulation is algebraically right.
  EXPECT_LT(rel_error(rt_->decrypt(acc), ref), 1e-4);
}

/// Lazy-relin BSGS vs the eager (PR 1) path: identical plaintext parity,
/// strictly fewer relinearizations for dense degrees >= 8.
class LazyRelinDegree : public EvaluatorOpsTest,
                        public ::testing::WithParamInterface<int> {};

TEST_P(LazyRelinDegree, MatchesEagerWithFewerRelins) {
  const int degree = GetParam();
  const approx::Polynomial p = dense_poly(degree, 300 + static_cast<std::uint64_t>(degree));
  const auto inputs = random_vec(21);
  const Ciphertext ct = rt_->encrypt(inputs);
  PafEvaluator pe(rt_->ctx(), rt_->encoder(), rt_->relin_key(),
                  PafEvaluator::Strategy::BSGS);

  pe.set_lazy_relin(false);
  EvalStats eager;
  const Ciphertext out_eager = pe.eval_poly(rt_->evaluator(), ct, p, &eager);

  pe.set_lazy_relin(true);
  EvalStats lazy;
  const Ciphertext out_lazy = pe.eval_poly(rt_->evaluator(), ct, p, &lazy);

  std::vector<double> ref(inputs.size());
  for (std::size_t i = 0; i < inputs.size(); ++i) ref[i] = p(inputs[i]);
  EXPECT_LT(rel_error(rt_->decrypt(out_eager), ref), kParityTol) << "degree " << degree;
  EXPECT_LT(rel_error(rt_->decrypt(out_lazy), ref), kParityTol) << "degree " << degree;

  // Same schedule (mults and levels), never more relinearizations — and
  // strictly fewer from degree 9 up. Dense degree 8 is the merge wall: its
  // minimal-mult BSGS plan has exactly one interior product (x^4 * block),
  // so there is no second deferred product to share a join with, and lazy
  // provably equals eager there (mirroring the degree-7 depth wall of PR 1).
  EXPECT_EQ(lazy.ct_mults, eager.ct_mults);
  EXPECT_EQ(out_lazy.level(), out_eager.level());
  EXPECT_EQ(eager.relins, eager.ct_mults);
  EXPECT_EQ(eager.relins_deferred, 0);
  EXPECT_GT(lazy.relins_deferred, 0) << "degree " << degree;
  EXPECT_LE(lazy.relins, eager.relins) << "degree " << degree;
  if (degree >= 9) {
    EXPECT_LT(lazy.relins, eager.relins) << "degree " << degree;
  }
  // Every deferred relin resolves at some join (or was merged away).
  EXPECT_GE(lazy.relins + lazy.relins_deferred, lazy.ct_mults);
}

INSTANTIATE_TEST_SUITE_P(DenseDegrees, LazyRelinDegree,
                         ::testing::Values(8, 9, 12, 13, 16, 21, 27, 31));

TEST_F(EvaluatorOpsTest, LazyRelinReluParity) {
  // End-to-end PAF-ReLU with the default (lazy) evaluator stays within the
  // deployment error envelope of the eager path.
  // Single odd degree-15 stage: depth 4 + the relu envelope's 2 levels fits
  // the depth-6 chain, and its BSGS plan has joins for lazy relin to merge.
  sp::Rng rng(23);
  std::vector<double> c(16, 0.0);
  for (int k = 1; k <= 15; k += 2) c[static_cast<std::size_t>(k)] = rng.uniform(-1.0, 1.0) / 16.0;
  const approx::CompositePaf paf("deg15", {approx::Polynomial(c)});
  const auto v = random_vec(22, -2.0, 2.0);
  const Ciphertext ct = rt_->encrypt(v);
  PafEvaluator pe(rt_->ctx(), rt_->encoder(), rt_->relin_key());

  pe.set_lazy_relin(false);
  const auto eager = rt_->decrypt(pe.relu(rt_->evaluator(), ct, paf, 2.0));
  pe.set_lazy_relin(true);
  const auto lazy = rt_->decrypt(pe.relu(rt_->evaluator(), ct, paf, 2.0));

  double worst = 0.0;
  for (std::size_t i = 0; i < v.size(); ++i)
    worst = std::max(worst, std::abs(lazy[i] - eager[i]));
  EXPECT_LT(worst, kParityTol);
}

}  // namespace
