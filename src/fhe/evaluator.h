#pragma once

#include <atomic>
#include <cstddef>
#include <cstdint>
#include <utility>
#include <vector>

#include "fhe/encryptor.h"
#include "fhe/keys.h"

namespace sp::fhe {

/// Running tally of homomorphic operations (latency accounting for the
/// paper's cost model: ct-ct multiplications + relinearizations dominate).
///
/// Fields are relaxed atomics: evaluator internals fan work out across the
/// SMARTPAF_THREADS pool (key-switch digits tally their NTTs from inside the
/// parallel region), so plain increments would race and drop counts. Atomic
/// tallies keep every total exactly thread-count-invariant. Copying takes a
/// snapshot.
struct OpCounters {
  std::atomic<std::size_t> adds{0};
  std::atomic<std::size_t> plain_mults{0};
  std::atomic<std::size_t> ct_mults{0};
  std::atomic<std::size_t> relins{0};
  std::atomic<std::size_t> rescales{0};
  std::atomic<std::size_t> rotations{0};
  /// Rotations served from a HoistedDecomposition (also counted in
  /// `rotations`): these skip the per-rotation digit decomposition.
  std::atomic<std::size_t> hoisted_rotations{0};
  /// Per-row forward/inverse NTTs issued by evaluator operations — the
  /// hoisting win shows up here: a hoisted rotation fan performs strictly
  /// fewer forward NTTs than the same fan of naive rotations.
  std::atomic<std::size_t> ntts_forward{0};
  std::atomic<std::size_t> ntts_inverse{0};

  /// The one authoritative field list: every helper that walks the tallies
  /// (assignment, delta, per-input division) goes through here, so a new
  /// counter added to the struct and to this list is picked up everywhere.
  /// `fn` receives (destination atomic of `dst`, same field of `src`).
  template <typename Fn>
  static void zip_fields(OpCounters& dst, const OpCounters& src, const Fn& fn) {
    fn(dst.adds, src.adds);
    fn(dst.plain_mults, src.plain_mults);
    fn(dst.ct_mults, src.ct_mults);
    fn(dst.relins, src.relins);
    fn(dst.rescales, src.rescales);
    fn(dst.rotations, src.rotations);
    fn(dst.hoisted_rotations, src.hoisted_rotations);
    fn(dst.ntts_forward, src.ntts_forward);
    fn(dst.ntts_inverse, src.ntts_inverse);
  }

  OpCounters() = default;
  OpCounters(const OpCounters& o) { *this = o; }
  OpCounters& operator=(const OpCounters& o) {
    zip_fields(*this, o, [](std::atomic<std::size_t>& d, const std::atomic<std::size_t>& s) {
      d = s.load();
    });
    return *this;
  }

  /// @brief Resets every tally to zero.
  void reset() { *this = OpCounters(); }

  /// @brief Counter increments since a `baseline` snapshot (this - baseline).
  ///
  /// The usual pattern for scoping counters to one pipeline: copy the
  /// counters before, run, then diff. Every field of `baseline` must be
  /// <= the corresponding field here (counters only grow).
  /// @param baseline  snapshot taken before the measured region
  /// @return per-field differences as a fresh OpCounters snapshot
  OpCounters delta_since(const OpCounters& baseline) const {
    OpCounters d = *this;
    zip_fields(d, baseline, [](std::atomic<std::size_t>& v, const std::atomic<std::size_t>& b) {
      v = v.load() - b.load();
    });
    return d;
  }
};

/// Amortized per-input view of an OpCounters span: when one packed
/// ciphertext serves `batch_size` requests (BatchRunner slot packing), the
/// whole-ciphertext op counts divide across the batch. These are the
/// figures that make latency-vs-throughput tables honest: a rotation fan or
/// relinearization paid once per ciphertext costs 1/B of itself per request.
struct OpCountersPerInput {
  double adds = 0.0;
  double plain_mults = 0.0;
  double ct_mults = 0.0;
  double relins = 0.0;
  double rescales = 0.0;
  double rotations = 0.0;
  double hoisted_rotations = 0.0;
  double ntts_forward = 0.0;
  double ntts_inverse = 0.0;
};

/// @brief Divides an OpCounters span by `batch_size` packed inputs.
/// @param c  counter deltas covering one packed-ciphertext pipeline
/// @param batch_size  number of requests the ciphertext carried (>= 1)
/// @return each tally as a per-input double
inline OpCountersPerInput per_input(const OpCounters& c, int batch_size) {
  const double b = batch_size < 1 ? 1.0 : static_cast<double>(batch_size);
  OpCountersPerInput out;
  out.adds = static_cast<double>(c.adds.load()) / b;
  out.plain_mults = static_cast<double>(c.plain_mults.load()) / b;
  out.ct_mults = static_cast<double>(c.ct_mults.load()) / b;
  out.relins = static_cast<double>(c.relins.load()) / b;
  out.rescales = static_cast<double>(c.rescales.load()) / b;
  out.rotations = static_cast<double>(c.rotations.load()) / b;
  out.hoisted_rotations = static_cast<double>(c.hoisted_rotations.load()) / b;
  out.ntts_forward = static_cast<double>(c.ntts_forward.load()) / b;
  out.ntts_inverse = static_cast<double>(c.ntts_inverse.load()) / b;
  return out;
}

/// One-time key-switch decomposition of a ciphertext, reusable across many
/// rotations of the same input ("hoisting"). The decomposition digits are
/// lifted to the extended basis and NTT'd once; each rotation then only
/// permutes the cached digits in the NTT domain (a slot shuffle) before the
/// key inner product — the classic 2-3x saving for rotation fans (BSGS baby
/// steps, conv im2col, pooling).
struct HoistedDecomposition {
  Ciphertext src;               ///< decomposed ciphertext (returned for step 0)
  std::vector<RnsPoly> digits;  ///< NTT form over chain + special rows
};

/// Leveled CKKS evaluator: arithmetic, rescaling, relinearization via hybrid
/// key-switching with one special prime, and slot rotations.
///
/// Conventions: ciphertext parts are kept in NTT form; `level` = q_count-1
/// counts remaining rescales; scales are tracked as exact doubles and
/// addition requires operands within 1e-6 relative scale mismatch.
///
/// Hot loops (NTT batches, key-switch digit decomposition, per-row inner
/// products) run on the SMARTPAF_THREADS pool; results are bit-identical for
/// every thread count.
class Evaluator {
 public:
  /// @brief Binds the evaluator to a context; no key material is held (keys
  /// are passed per operation).
  /// @param ctx  precomputed CKKS context (must outlive the evaluator)
  explicit Evaluator(const CkksContext& ctx) : ctx_(&ctx) {}

  /// @brief The context this evaluator operates under.
  const CkksContext& context() const { return *ctx_; }

  /// @brief Drops chain primes (without scaling) until the ciphertext sits
  /// at `level`; no-op if already there. Used to align operands.
  /// @param ct     ciphertext to truncate in place
  /// @param level  target level, must be <= ct.level()
  void drop_to_level(Ciphertext& ct, int level) const;

  /// @brief Drops the higher-level operand so both sit at the same level.
  /// @param a  first operand (may be truncated in place)
  /// @param b  second operand (may be truncated in place)
  void match_levels(Ciphertext& a, Ciphertext& b) const;

  /// @brief Slot-wise a + b. Operands must share level and (within 1e-6
  /// relative) scale.
  /// @return 2-part sum at the common level/scale
  Ciphertext add(const Ciphertext& a, const Ciphertext& b) const;

  /// @brief Slot-wise a - b under the same preconditions as add().
  Ciphertext sub(const Ciphertext& a, const Ciphertext& b) const;

  /// @brief Negates every slot in place (any part count, any level).
  void negate_inplace(Ciphertext& ct) const;

  /// @brief a += b with part-count mismatch support: a 2-part and a 3-part
  /// (pre-relinearization) operand add by zero-padding the shorter one, so
  /// the sum keeps the larger part count. This is what lets lazy
  /// relinearization accumulate BSGS block sums in 3-part form and pay a
  /// single relinearization per join.
  /// @param a  accumulator; grows to 3 parts if either operand has 3
  /// @param b  addend at the same level/scale as `a`
  void add_inplace(Ciphertext& a, const Ciphertext& b) const;

  /// @brief ct += pt (plaintext at the same level/scale).
  void add_plain_inplace(Ciphertext& ct, const Plaintext& pt) const;

  /// @brief ct *= pt slot-wise; scale multiplies (rescale afterwards to
  /// return to ~Delta). Works for 2- and 3-part ciphertexts.
  void multiply_plain_inplace(Ciphertext& ct, const Plaintext& pt) const;

  /// @brief Tensor product of two 2-part ciphertexts.
  /// @param a  left factor
  /// @param b  right factor at the same level (use match_levels)
  /// @return 3-part product with scale = a.scale * b.scale; relinearize (or
  ///         accumulate via add_inplace) before any further multiplication
  Ciphertext multiply(const Ciphertext& a, const Ciphertext& b) const;

  /// @brief Explicit lazy-relinearization spelling of multiply(): the 3-part
  /// result is meant to be accumulated with add_inplace() and relinearized
  /// once at the join instead of once per product.
  Ciphertext multiply_no_relin(const Ciphertext& a, const Ciphertext& b) const {
    return multiply(a, b);
  }

  /// @brief Switches the quadratic part back to the canonical basis
  /// (3 parts -> 2). No-op input is an error: `ct` must have 3 parts.
  /// @param ct  3-part ciphertext, relinearized in place
  /// @param rk  relinearization key (key-switching key for s^2)
  void relinearize_inplace(Ciphertext& ct, const KSwitchKey& rk) const;

  /// @brief Divides by the last chain prime: level decreases by 1 and
  /// scale /= q_last. Works for 2- and 3-part ciphertexts.
  void rescale_inplace(Ciphertext& ct) const;

  /// @brief Rotates slots left by `steps` (Galois automorphism + key
  /// switch). Runs the same path as hoist() + rotate_hoisted(), so the
  /// result and the NTT tallies match it; only `hoisted_rotations` differs.
  /// @param ct     2-part source ciphertext
  /// @param steps  slot offset (negative = right rotation); a key for
  ///               galois_element(steps) must exist in `gk`
  /// @param gk     rotation keys
  /// @return rotated ciphertext at the same level/scale
  Ciphertext rotate(const Ciphertext& ct, int steps, const GaloisKeys& gk) const;

  /// @brief Computes the key-switch digit decomposition of `ct` once, for
  /// reuse across a fan of rotations of the same input.
  /// @param ct  2-part ciphertext to decompose
  /// @return decomposition handle to pass to rotate_hoisted()
  HoistedDecomposition hoist(const Ciphertext& ct) const;

  /// @brief Rotation from a hoisted decomposition: bit-identical to
  /// `rotate(h.src, steps, gk)` while skipping the per-rotation digit
  /// decomposition.
  /// @param h      decomposition from hoist()
  /// @param steps  slot offset (step 0 returns h.src unchanged)
  /// @param gk     rotation keys covering galois_element(steps)
  Ciphertext rotate_hoisted(const HoistedDecomposition& h, int steps,
                            const GaloisKeys& gk) const;

  /// @brief Hoisted rotation fan: decomposes once, applies every step's
  /// Galois key to the shared digits.
  /// @param ct     2-part source ciphertext
  /// @param steps  fan of slot offsets
  /// @param gk     rotation keys covering every step
  /// @return one rotated ciphertext per step, in `steps` order
  std::vector<Ciphertext> rotate_hoisted(const Ciphertext& ct,
                                         const std::vector<int>& steps,
                                         const GaloisKeys& gk) const;

  /// @brief Galois element implementing a left rotation by `steps` slots.
  u64 galois_element(int steps) const;

  mutable OpCounters counters;

 private:
  /// Decomposes an NTT-form chain polynomial into its key-switch digits:
  /// digit i is the centered lift of residue row i into the extended basis
  /// Q ∪ {P}, in NTT form. Row i of digit i is row i of `d_ntt` itself, so
  /// only l^2 of the l(l+1) rows need a forward NTT.
  std::vector<RnsPoly> decompose_digits(const RnsPoly& d_ntt) const;

  /// Inner product of the digits with a key-switching key, followed by the
  /// P mod-down; `ntt_perm`, when non-null, applies a Galois slot permutation
  /// to every digit on the fly (rotations).
  std::pair<RnsPoly, RnsPoly> apply_kswitch(const std::vector<RnsPoly>& digits,
                                            const KSwitchKey& key,
                                            const std::uint32_t* ntt_perm) const;

  /// Rotation by Galois element `g` from the digits of `src.parts[1]`; the
  /// shared tail of rotate() and rotate_hoisted().
  Ciphertext rotate_digits(const Ciphertext& src, const std::vector<RnsPoly>& digits,
                           u64 g, const KSwitchKey& key) const;

  /// Drops the last row of every poly (the special row, or the last chain
  /// row) by exact division with centered rounding, in the NTT domain:
  /// only the dropped row is inverse-NTT'd; its lift into each remaining
  /// row t is forward-NTT'd and r_t = (r_t - lift_t) * d^-1 mod q_t. Shared
  /// by the key-switch mod-down and rescale. Polys must share one shape.
  void drop_last_row(const std::vector<RnsPoly*>& polys) const;

  const CkksContext* ctx_;
};

}  // namespace sp::fhe
