// Shared AVX-512 helpers for the avx512 and avx512ifma kernel files. Include
// only from translation units compiled with -mavx512f -mavx512dq.
#pragma once

#include <immintrin.h>

#include "fhe/simd/simd.h"

namespace sp::fhe::simd::avx512 {

constexpr std::size_t kLanes = 8;

inline __m512i load(const u64* p) { return _mm512_loadu_si512(p); }
inline void store(u64* p, __m512i v) { _mm512_storeu_si512(p, v); }

inline __m512i hi32(__m512i v) { return _mm512_srli_epi64(v, 32); }

inline __m512i mul64_lo(__m512i x, __m512i y) { return _mm512_mullo_epi64(x, y); }

/// High 64 bits of the lanewise 64x64 product (vpmuludq decomposition),
/// both operands pre-split.
inline __m512i mul64_hi_pre(__m512i x, __m512i xh, __m512i y, __m512i yh) {
  const __m512i m32 = _mm512_set1_epi64(0xffffffffLL);
  const __m512i ll = _mm512_mul_epu32(x, y);
  const __m512i lh = _mm512_mul_epu32(x, yh);
  const __m512i hl = _mm512_mul_epu32(xh, y);
  const __m512i hh = _mm512_mul_epu32(xh, yh);
  const __m512i cross = _mm512_add_epi64(
      hi32(ll),
      _mm512_add_epi64(_mm512_and_si512(lh, m32), _mm512_and_si512(hl, m32)));
  return _mm512_add_epi64(
      hh, _mm512_add_epi64(hi32(lh), _mm512_add_epi64(hi32(hl), hi32(cross))));
}

inline __m512i mul64_hi(__m512i x, __m512i y) {
  return mul64_hi_pre(x, hi32(x), y, hi32(y));
}

/// r >= c ? r - c : r. The subtract wraps when r < c, so the unsigned min
/// picks the in-range representative.
inline __m512i csub(__m512i r, __m512i c) {
  return _mm512_min_epu64(r, _mm512_sub_epi64(r, c));
}

/// Twiddle operand with the Shoup companion's high half pre-split (the
/// native vpmullq low-half products need no splits).
struct TwV {
  __m512i w, ws, ws_hi;
};
inline TwV make_tw(__m512i wv, __m512i wsv) { return {wv, wsv, hi32(wsv)}; }

inline __m512i shoup_lazy(__m512i x, const TwV& tw, __m512i q) {
  const __m512i q_hat = mul64_hi_pre(x, hi32(x), tw.ws, tw.ws_hi);
  return _mm512_sub_epi64(mul64_lo(x, tw.w), mul64_lo(q_hat, q));
}

inline __m512i shoup_lazy(__m512i x, __m512i w, __m512i ws, __m512i q) {
  return shoup_lazy(x, make_tw(w, ws), q);
}

inline __m512i set1(u64 v) { return _mm512_set1_epi64(static_cast<long long>(v)); }

/// x mod q, fully reduced, for any 64-bit x: the Shoup multiply by one
/// (one_shoup = floor(2^64 / q)), i.e. the scalar mul_shoup(x, 1, ...).
inline __m512i reduce_any(__m512i x, __m512i one_shoup, __m512i q) {
  return csub(_mm512_sub_epi64(x, mul64_lo(mul64_hi(x, one_shoup), q)), q);
}

}  // namespace sp::fhe::simd::avx512
