#pragma once

#include <vector>

#include "common/aligned.h"
#include "common/rng.h"
#include "fhe/context.h"

namespace sp::fhe {

/// Ring element of Z_Q[X]/(X^N + 1) in residue-number-system form: one row
/// of N 64-bit residues per prime. The row set is the first `q_count` chain
/// primes, optionally followed by the special key-switching prime.
///
/// Storage is a single contiguous 64-byte-aligned buffer (row i at offset
/// i*N), so the SIMD kernels always see aligned row starts and whole-element
/// batches stream without per-row pointer chasing.
///
/// A flag tracks whether rows are in coefficient or NTT (evaluation) form;
/// arithmetic helpers check form compatibility.
class RnsPoly {
 public:
  RnsPoly() = default;
  RnsPoly(const CkksContext* ctx, int q_count, bool with_special, bool ntt_form);

  /// Tag for the constructor that leaves the residues uninitialized: for
  /// buffers every row of which is written before it is read.
  struct Uninit {};
  RnsPoly(const CkksContext* ctx, int q_count, bool with_special, bool ntt_form, Uninit);

  const CkksContext* context() const { return ctx_; }
  int q_count() const { return q_count_; }
  bool has_special() const { return with_special_; }
  int row_count() const { return q_count_ + (with_special_ ? 1 : 0); }
  bool is_ntt() const { return ntt_; }
  std::size_t n() const { return ctx_->n(); }

  u64* row(int i) { return data_.data() + static_cast<std::size_t>(i) * n(); }
  const u64* row(int i) const {
    return data_.data() + static_cast<std::size_t>(i) * n();
  }

  /// Modulus / NTT tables owning row i (special prime for the final row).
  const Modulus& row_mod(int i) const;
  const NttTables& row_ntt(int i) const;

  /// Converts all rows between coefficient and evaluation form.
  void to_ntt();
  void from_ntt();

  /// Converts many polynomials in one batched NTT dispatch: all rows of all
  /// polys feed a single (row x sub-transform) parallel region, so short
  /// chains still saturate the pool. Bit-identical to calling
  /// to_ntt()/from_ntt() per poly. Skips null entries.
  static void to_ntt_batch(const std::vector<RnsPoly*>& polys);
  static void from_ntt_batch(const std::vector<RnsPoly*>& polys);

  // Pointwise arithmetic; operands must have identical row structure & form.
  void add_inplace(const RnsPoly& o);
  void sub_inplace(const RnsPoly& o);
  void negate_inplace();
  void mul_inplace(const RnsPoly& o);  // requires NTT form

  /// Multiplies every row by `v` reduced per prime (v given as an integer).
  /// Per-(v, prime) Shoup constants are memoized process-wide, so repeated
  /// scaling by the same constant skips the 128-bit precompute division.
  void mul_scalar_inplace(u64 v);

  /// Removes the last chain prime row (rescale/mod-drop bookkeeping is done
  /// by the evaluator).
  void drop_last_q();
  /// Removes the special prime row.
  void drop_special();

  /// Fills with the same small signed integer polynomial across all rows.
  void set_from_signed(const std::vector<std::int64_t>& coeffs);

  // Samplers (coefficient form expected; same underlying integer polynomial
  // is embedded into every row).
  void sample_ternary(sp::Rng& rng);
  void sample_gaussian(sp::Rng& rng, double stddev);
  /// Uniform element of R_Q (independent uniform residues per row).
  void sample_uniform(sp::Rng& rng);

  RnsPoly clone() const { return *this; }

 private:
  const CkksContext* ctx_ = nullptr;
  int q_count_ = 0;
  bool with_special_ = false;
  bool ntt_ = false;
  sp::AlignedVec<u64> data_;  // row_count() * n() residues, 64-byte aligned
};

}  // namespace sp::fhe
