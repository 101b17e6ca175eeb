#pragma once

#include <cstddef>
#include <cstdint>

#include "fhe/modarith.h"

namespace sp::fhe::simd {

/// Vectorized kernel tiers for the RNS hot loops. The active tier is probed
/// once at startup (CPUID + the flags the build actually compiled), can be
/// pinned down with `SMARTPAF_SIMD=scalar|avx2|avx512|avx512ifma`, and
/// switched at runtime by tests/benches with `set_tier`.
///
/// Hard contract: every tier computes bit-identical results to the scalar
/// tier for every kernel. Lazy kernels (NTT butterflies) implement exactly
/// the scalar lazy Harvey/Shoup/Barrett formulas, so their intermediate
/// [0, 4q) values agree too. Kernels whose outputs are fully reduced
/// (`key_dot`, `lift_centered`) may use any exact algorithm: the canonical
/// residue is unique, so the IFMA tier's 52-bit accumulation lands on the
/// same bits as the scalar 128-bit one.
enum class Tier : int { kScalar = 0, kAvx2 = 1, kAvx512 = 2, kAvx512Ifma = 3 };

/// Kernel table for one tier. All pointers are non-null in every published
/// table. Ranges are contiguous; `n`/`len` may be any value (kernels handle
/// non-multiple-of-lane tails with the scalar formula).
struct Kernels {
  // --- Elementwise over n residues (inputs fully reduced unless noted) ---
  /// a[i] = a[i] + b[i] mod q.
  void (*add_mod)(u64* a, const u64* b, std::size_t n, u64 q);
  /// a[i] = a[i] - b[i] mod q.
  void (*sub_mod)(u64* a, const u64* b, std::size_t n, u64 q);
  /// a[i] = -a[i] mod q.
  void (*neg_mod)(u64* a, std::size_t n, u64 q);
  /// a[i] = a[i] * b[i] mod q, Barrett reduction of the 128-bit product with
  /// the modulus' precomputed floor(2^128/q) = (ratio_hi, ratio_lo).
  void (*mul_mod)(u64* a, const u64* b, std::size_t n, u64 q, u64 ratio_hi,
                  u64 ratio_lo);
  /// a[i] = a[i] * w mod q (fully reduced), Shoup constant-operand multiply.
  /// a[i] may be any 64-bit value (lazy input allowed).
  void (*mul_shoup)(u64* a, std::size_t n, u64 w, u64 w_shoup, u64 q);

  // --- NTT butterflies (lazy Harvey / Gentleman-Sande) ---
  /// Forward (Cooley-Tukey) butterflies over one twiddle: for i in [0, len):
  ///   x' = reduce_2q(x) + w*y mod- q (lazy),  y' = reduce_2q(x) + 2q - w*y.
  /// Inputs < 4q, outputs < 4q.
  void (*fwd_butterfly)(u64* x, u64* y, std::size_t len, u64 w, u64 w_shoup,
                        u64 q);
  /// Inverse (Gentleman-Sande) butterflies: x' = reduce_2q(x+y),
  /// y' = w*(x + 2q - y) lazy. Inputs < 2q, outputs < 2q.
  void (*inv_butterfly)(u64* x, u64* y, std::size_t len, u64 w, u64 w_shoup,
                        u64 q);
  /// One forward NTT stage over `blocks` consecutive blocks of 2t elements
  /// starting at `a`; block b uses twiddle (w[b], w_shoup[b]).
  void (*fwd_stage)(u64* a, std::size_t t, std::size_t blocks, const u64* w,
                    const u64* w_shoup, u64 q);
  /// One inverse NTT stage, same layout.
  void (*inv_stage)(u64* a, std::size_t t, std::size_t blocks, const u64* w,
                    const u64* w_shoup, u64 q);

  // --- Final reductions ---
  /// Folds lazy values < 4q into [0, q) (forward-NTT epilogue).
  void (*reduce_4q)(u64* a, std::size_t n, u64 q);

  // --- Key switching (outputs fully reduced) ---
  /// Centered lift between moduli: src[i] is a residue mod d read as its
  /// representative in (-d/2, d/2] (src[i] > d/2 stands for src[i] - d);
  /// dst[i] = that integer mod q. Inputs < d.
  void (*lift_centered)(u64* dst, const u64* src, std::size_t n, u64 d, u64 q);
  /// Key-switch inner product over `count` digits: for j in [0, len),
  ///   out0[j] = sum_i dg[i][p(j)] * k0[i][j] mod q, out1 likewise with k1,
  /// where p(j) = perm[j] when `perm` is non-null (a Galois slot
  /// permutation) and j otherwise. Inputs < q; (ratio_hi, ratio_lo) is the
  /// modulus' Barrett constant.
  void (*key_dot)(u64* out0, u64* out1, const u64* const* dg, const u64* const* k0,
                  const u64* const* k1, std::size_t count, const std::uint32_t* perm,
                  std::size_t len, u64 q, u64 ratio_hi, u64 ratio_lo);
};

/// Currently active tier (after the one-time probe / env override).
Tier active_tier();

/// Kernel table of the active tier.
const Kernels& kernels();

/// True when the tier is both compiled into this binary and supported by the
/// running CPU (kScalar is always supported).
bool tier_supported(Tier t);

/// Switches the active tier; returns false (and leaves the tier unchanged)
/// when unsupported. Not safe to call concurrently with in-flight FHE ops —
/// intended for tests and per-tier bench sweeps.
bool set_tier(Tier t);

/// "scalar" / "avx2" / "avx512" / "avx512ifma".
const char* tier_name(Tier t);

/// Parses a SMARTPAF_SIMD value; `*ok` reports whether the string was one of
/// the tier names. Exposed so tests can pin the env grammar.
Tier parse_tier(const char* s, bool* ok);

namespace detail {
// Per-TU kernel tables; null when the translation unit was built without the
// matching instruction set (e.g. a compiler lacking -mavx512f).
const Kernels* scalar_kernels();
const Kernels* avx2_kernels();
const Kernels* avx512_kernels();
/// The avx512 table with the IFMA (vpmadd52) key_dot kernel.
const Kernels* avx512ifma_kernels();

/// Scalar key-switch kernels, shared by the tiers without a vector version
/// (and by the IFMA key_dot for rows whose prime is >= 2^50).
void lift_centered_scalar(u64* dst, const u64* src, std::size_t n, u64 d, u64 q);
void key_dot_scalar(u64* out0, u64* out1, const u64* const* dg, const u64* const* k0,
                    const u64* const* k1, std::size_t count, const std::uint32_t* perm,
                    std::size_t len, u64 q, u64 ratio_hi, u64 ratio_lo);
}  // namespace detail

}  // namespace sp::fhe::simd
