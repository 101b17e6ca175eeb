// AVX-512 IFMA kernel tier: the avx512 table with the key-switch inner
// product (`key_dot`) accumulated by vpmadd52luq/vpmadd52huq.
//
// For a row whose prime is below 2^50 every digit and key residue fits the
// 52-bit multiplier inputs, so each product (< 2^100) splits exactly into a
// low 52-bit half and a high half < 2^48. The two halves accumulate in
// separate 64-bit lanes (exact for fewer than 4096 digits) and the sum
// lo + hi * 2^52 is reduced once, by two Shoup multiplies. The result is the
// canonical residue, the same bits as the scalar 128-bit accumulate. Rows
// with a wider prime (the 60-bit base and special primes) keep the scalar
// formula.
//
// Compiled with -mavx512f -mavx512dq -mavx512ifma (per-file); degrades to a
// null table when the compiler cannot target IFMA.
#include "fhe/simd/simd.h"

#if defined(__AVX512F__) && defined(__AVX512DQ__) && defined(__AVX512IFMA__)

#include <algorithm>
#include <vector>

#include "fhe/simd/avx512_common.h"

namespace sp::fhe::simd {
namespace {

using namespace avx512;

/// Elements per accumulator tile: 4 x 256 words = 8 KB stays in L1 while
/// each digit's rows stream through it.
constexpr std::size_t kTile = 256;
/// Digits the 64-bit low-half sums can take without overflow (each adds
/// < 2^52).
constexpr std::size_t kMaxDigits = 4096;

void key_dot_ifma(u64* out0, u64* out1, const u64* const* dg, const u64* const* k0,
                  const u64* const* k1, std::size_t count, const std::uint32_t* perm,
                  std::size_t len, u64 q, u64 ratio_hi, u64 ratio_lo) {
  const std::size_t vlen = len - len % kLanes;
  if (q >= (u64{1} << 50) || count >= kMaxDigits || vlen == 0) {
    detail::key_dot_scalar(out0, out1, dg, k0, k1, count, perm, len, q, ratio_hi, ratio_lo);
    return;
  }
  alignas(64) u64 lo0[kTile], hi0[kTile], lo1[kTile], hi1[kTile];
  const u64 c52 = (u64{1} << 52) % q;
  const __m512i qv = set1(q);
  const __m512i one_shoup = set1(shoup_precompute(1, q));
  const __m512i c52v = set1(c52);
  const __m512i c52_shoup = set1(shoup_precompute(c52, q));
  const __m512i zero = _mm512_setzero_si512();
  // lo + hi * 2^52 mod q, fully reduced.
  const auto finish = [&](__m512i lo, __m512i hi) {
    const __m512i r_lo = reduce_any(lo, one_shoup, qv);
    const __m512i r_hi = csub(shoup_lazy(hi, c52v, c52_shoup, qv), qv);
    return csub(_mm512_add_epi64(r_lo, r_hi), qv);
  };

  for (std::size_t base = 0; base < vlen; base += kTile) {
    const std::size_t m = std::min(kTile, vlen - base);
    for (std::size_t j = 0; j < m; j += kLanes) {
      store(lo0 + j, zero);
      store(hi0 + j, zero);
      store(lo1 + j, zero);
      store(hi1 + j, zero);
    }
    for (std::size_t i = 0; i < count; ++i) {
      const u64* a = k0[i] + base;
      const u64* b = k1[i] + base;
      const u64* x_row = dg[i];
      const std::uint32_t* pm = perm ? perm + base : nullptr;
      for (std::size_t j = 0; j < m; j += kLanes) {
        const __m512i x =
            pm ? _mm512_i32gather_epi64(
                     _mm256_loadu_si256(reinterpret_cast<const __m256i*>(pm + j)), x_row, 8)
               : load(x_row + base + j);
        const __m512i av = load(a + j);
        const __m512i bv = load(b + j);
        store(lo0 + j, _mm512_madd52lo_epu64(load(lo0 + j), x, av));
        store(hi0 + j, _mm512_madd52hi_epu64(load(hi0 + j), x, av));
        store(lo1 + j, _mm512_madd52lo_epu64(load(lo1 + j), x, bv));
        store(hi1 + j, _mm512_madd52hi_epu64(load(hi1 + j), x, bv));
      }
    }
    for (std::size_t j = 0; j < m; j += kLanes) {
      store(out0 + base + j, finish(load(lo0 + j), load(hi0 + j)));
      store(out1 + base + j, finish(load(lo1 + j), load(hi1 + j)));
    }
  }
  if (vlen < len) {
    // Sub-vector tail: shift every row pointer past the vector part.
    std::vector<const u64*> tail(3 * count);
    for (std::size_t i = 0; i < count; ++i) {
      tail[i] = perm ? dg[i] : dg[i] + vlen;
      tail[count + i] = k0[i] + vlen;
      tail[2 * count + i] = k1[i] + vlen;
    }
    detail::key_dot_scalar(out0 + vlen, out1 + vlen, tail.data(), tail.data() + count,
                           tail.data() + 2 * count, count, perm ? perm + vlen : nullptr,
                           len - vlen, q, ratio_hi, ratio_lo);
  }
}

}  // namespace

namespace detail {
const Kernels* avx512ifma_kernels() {
  static const Kernels* const table = []() -> const Kernels* {
    const Kernels* base = avx512_kernels();
    if (base == nullptr) return nullptr;
    static Kernels k = *base;
    k.key_dot = key_dot_ifma;
    return &k;
  }();
  return table;
}
}  // namespace detail

}  // namespace sp::fhe::simd

#else  // no IFMA

namespace sp::fhe::simd::detail {
const Kernels* avx512ifma_kernels() { return nullptr; }
}  // namespace sp::fhe::simd::detail

#endif
