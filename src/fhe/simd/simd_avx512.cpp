// AVX-512 kernel tier: 8 x u64 lanes. Uses the native vpmullq (AVX-512DQ)
// for low-half 64x64 products, vpmuludq decomposition for the high half,
// native unsigned compares/mask ops, and min_epu64 for conditional
// subtraction. Arithmetic is exactly the scalar formulas — bit-identical
// results are the contract, locked by tests/test_simd.cpp.
//
// Compiled with -mavx512f -mavx512dq (per-file, no global -march); degrades
// to a null table when the compiler cannot target AVX-512.
#include "fhe/simd/simd.h"

#if defined(__AVX512F__) && defined(__AVX512DQ__)

#include "fhe/simd/avx512_common.h"

namespace sp::fhe::simd {
namespace {

using namespace avx512;

/// One vector of forward butterflies: x/y in < 4q, out < 4q. The twiddle may
/// be per-lane (small-t layouts) or a broadcast.
inline void fwd_bfly(__m512i& x, __m512i& y, const TwV& tw, __m512i q,
                     __m512i two_q) {
  const __m512i xx = csub(x, two_q);
  const __m512i v = shoup_lazy(y, tw, q);
  x = _mm512_add_epi64(xx, v);
  y = _mm512_sub_epi64(_mm512_add_epi64(xx, two_q), v);
}

/// One vector of inverse butterflies: x/y in < 2q, out < 2q.
inline void inv_bfly(__m512i& x, __m512i& y, const TwV& tw, __m512i q,
                     __m512i two_q) {
  const __m512i xx = x;
  const __m512i yy = y;
  x = csub(_mm512_add_epi64(xx, yy), two_q);
  const __m512i diff = _mm512_sub_epi64(_mm512_add_epi64(xx, two_q), yy);
  y = shoup_lazy(diff, tw, q);
}

void add_mod_avx512(u64* a, const u64* b, std::size_t n, u64 q) {
  const __m512i qv = _mm512_set1_epi64(static_cast<long long>(q));
  std::size_t j = 0;
  for (; j + kLanes <= n; j += kLanes)
    store(a + j, csub(_mm512_add_epi64(load(a + j), load(b + j)), qv));
  for (; j < n; ++j) {
    const u64 r = a[j] + b[j];
    a[j] = r >= q ? r - q : r;
  }
}

void sub_mod_avx512(u64* a, const u64* b, std::size_t n, u64 q) {
  const __m512i qv = _mm512_set1_epi64(static_cast<long long>(q));
  std::size_t j = 0;
  for (; j + kLanes <= n; j += kLanes) {
    const __m512i av = load(a + j);
    const __m512i bv = load(b + j);
    const __mmask8 borrow = _mm512_cmplt_epu64_mask(av, bv);
    __m512i r = _mm512_sub_epi64(av, bv);
    r = _mm512_mask_add_epi64(r, borrow, r, qv);
    store(a + j, r);
  }
  for (; j < n; ++j) a[j] = a[j] >= b[j] ? a[j] - b[j] : a[j] + q - b[j];
}

void neg_mod_avx512(u64* a, std::size_t n, u64 q) {
  const __m512i qv = _mm512_set1_epi64(static_cast<long long>(q));
  const __m512i zero = _mm512_setzero_si512();
  std::size_t j = 0;
  for (; j + kLanes <= n; j += kLanes) {
    const __m512i av = load(a + j);
    const __mmask8 nonzero = _mm512_cmpneq_epi64_mask(av, zero);
    store(a + j, _mm512_maskz_sub_epi64(nonzero, qv, av));
  }
  for (; j < n; ++j) a[j] = a[j] == 0 ? 0 : q - a[j];
}

void mul_mod_avx512(u64* a, const u64* b, std::size_t n, u64 q, u64 ratio_hi,
                    u64 ratio_lo) {
  const __m512i qv = _mm512_set1_epi64(static_cast<long long>(q));
  const __m512i rhi = _mm512_set1_epi64(static_cast<long long>(ratio_hi));
  const __m512i rlo = _mm512_set1_epi64(static_cast<long long>(ratio_lo));
  const __m512i one = _mm512_set1_epi64(1);
  std::size_t j = 0;
  for (; j + kLanes <= n; j += kLanes) {
    const __m512i av = load(a + j);
    const __m512i bv = load(b + j);
    const __m512i x_lo = mul64_lo(av, bv);
    const __m512i x_hi = mul64_hi(av, bv);
    const __m512i t1_lo = mul64_lo(x_lo, rhi);
    const __m512i t1_hi = mul64_hi(x_lo, rhi);
    const __m512i t2_lo = mul64_lo(x_hi, rlo);
    const __m512i t2_hi = mul64_hi(x_hi, rlo);
    const __m512i carry = mul64_hi(x_lo, rlo);
    const __m512i s1 = _mm512_add_epi64(t1_lo, t2_lo);
    const __mmask8 c1 = _mm512_cmplt_epu64_mask(s1, t1_lo);
    const __m512i s2 = _mm512_add_epi64(s1, carry);
    const __mmask8 c2 = _mm512_cmplt_epu64_mask(s2, s1);
    __m512i mid_hi = _mm512_add_epi64(t1_hi, t2_hi);
    mid_hi = _mm512_mask_add_epi64(mid_hi, c1, mid_hi, one);
    mid_hi = _mm512_mask_add_epi64(mid_hi, c2, mid_hi, one);
    const __m512i est = _mm512_add_epi64(mul64_lo(x_hi, rhi), mid_hi);
    __m512i r = _mm512_sub_epi64(x_lo, mul64_lo(est, qv));
    r = csub(csub(r, qv), qv);  // remainder < 3q
    store(a + j, r);
  }
  for (; j < n; ++j) {
    const u128 x = static_cast<u128>(a[j]) * b[j];
    const u64 x_lo = static_cast<u64>(x);
    const u64 x_hi = static_cast<u64>(x >> 64);
    const u128 t1 = static_cast<u128>(x_lo) * ratio_hi;
    const u128 t2 = static_cast<u128>(x_hi) * ratio_lo;
    const u64 carry = static_cast<u64>((static_cast<u128>(x_lo) * ratio_lo) >> 64);
    const u128 mid = t1 + t2 + carry;
    const u64 est = x_hi * ratio_hi + static_cast<u64>(mid >> 64);
    u64 r = x_lo - est * q;
    while (r >= q) r -= q;
    a[j] = r;
  }
}

void mul_shoup_avx512(u64* a, std::size_t n, u64 w, u64 w_shoup, u64 q) {
  const __m512i qv = _mm512_set1_epi64(static_cast<long long>(q));
  const __m512i wv = _mm512_set1_epi64(static_cast<long long>(w));
  const __m512i wsv = _mm512_set1_epi64(static_cast<long long>(w_shoup));
  std::size_t j = 0;
  for (; j + kLanes <= n; j += kLanes)
    store(a + j, csub(shoup_lazy(load(a + j), wv, wsv, qv), qv));
  for (; j < n; ++j) a[j] = mul_shoup(a[j], w, w_shoup, q);
}

void fwd_butterfly_avx512(u64* x, u64* y, std::size_t len, u64 w, u64 w_shoup,
                          u64 q) {
  const u64 two_q = 2 * q;
  const __m512i qv = _mm512_set1_epi64(static_cast<long long>(q));
  const __m512i two_qv = _mm512_set1_epi64(static_cast<long long>(two_q));
  const __m512i wv = _mm512_set1_epi64(static_cast<long long>(w));
  const __m512i wsv = _mm512_set1_epi64(static_cast<long long>(w_shoup));
  const TwV tw = make_tw(wv, wsv);
  std::size_t j = 0;
  for (; j + 2 * kLanes <= len; j += 2 * kLanes) {
    __m512i x0 = load(x + j), x1 = load(x + j + kLanes);
    __m512i y0 = load(y + j), y1 = load(y + j + kLanes);
    fwd_bfly(x0, y0, tw, qv, two_qv);
    fwd_bfly(x1, y1, tw, qv, two_qv);
    store(x + j, x0);
    store(x + j + kLanes, x1);
    store(y + j, y0);
    store(y + j + kLanes, y1);
  }
  for (; j + kLanes <= len; j += kLanes) {
    __m512i xx = load(x + j);
    __m512i yy = load(y + j);
    fwd_bfly(xx, yy, tw, qv, two_qv);
    store(x + j, xx);
    store(y + j, yy);
  }
  for (; j < len; ++j) {
    u64 xx = x[j];
    if (xx >= two_q) xx -= two_q;
    const u64 v = mul_shoup_lazy(y[j], w, w_shoup, q);
    x[j] = xx + v;
    y[j] = xx + two_q - v;
  }
}

void inv_butterfly_avx512(u64* x, u64* y, std::size_t len, u64 w, u64 w_shoup,
                          u64 q) {
  const u64 two_q = 2 * q;
  const __m512i qv = _mm512_set1_epi64(static_cast<long long>(q));
  const __m512i two_qv = _mm512_set1_epi64(static_cast<long long>(two_q));
  const __m512i wv = _mm512_set1_epi64(static_cast<long long>(w));
  const __m512i wsv = _mm512_set1_epi64(static_cast<long long>(w_shoup));
  const TwV tw = make_tw(wv, wsv);
  std::size_t j = 0;
  for (; j + 2 * kLanes <= len; j += 2 * kLanes) {
    __m512i x0 = load(x + j), x1 = load(x + j + kLanes);
    __m512i y0 = load(y + j), y1 = load(y + j + kLanes);
    inv_bfly(x0, y0, tw, qv, two_qv);
    inv_bfly(x1, y1, tw, qv, two_qv);
    store(x + j, x0);
    store(x + j + kLanes, x1);
    store(y + j, y0);
    store(y + j + kLanes, y1);
  }
  for (; j + kLanes <= len; j += kLanes) {
    __m512i xx = load(x + j);
    __m512i yy = load(y + j);
    inv_bfly(xx, yy, tw, qv, two_qv);
    store(x + j, xx);
    store(y + j, yy);
  }
  for (; j < len; ++j) {
    const u64 xx = x[j];
    const u64 yy = y[j];
    u64 u = xx + yy;
    if (u >= two_q) u -= two_q;
    x[j] = u;
    y[j] = mul_shoup_lazy(xx + two_q - yy, w, w_shoup, q);
  }
}

/// Stage worker shared by the forward/inverse stage kernels. Wide stages
/// (t >= 8) broadcast one twiddle per block; t = 4 / 2 / 1 regroup 2 / 4 / 8
/// consecutive blocks into full vectors with 128-bit shuffles or cross-lane
/// permutes and use per-lane twiddles, so every stage stays vectorized. The
/// permutes only reorder independent butterflies — arithmetic is unchanged.
template <bool Fwd>
inline void stage_avx512(u64* a, std::size_t t, std::size_t blocks,
                         const u64* w, const u64* w_shoup, u64 q) {
  const u64 two_q = 2 * q;
  const __m512i qv = _mm512_set1_epi64(static_cast<long long>(q));
  const __m512i two_qv = _mm512_set1_epi64(static_cast<long long>(two_q));

  if (t >= kLanes) {
    for (std::size_t b = 0; b < blocks; ++b) {
      u64* x = a + b * 2 * t;
      u64* y = x + t;
      const TwV tw =
          make_tw(_mm512_set1_epi64(static_cast<long long>(w[b])),
                  _mm512_set1_epi64(static_cast<long long>(w_shoup[b])));
      std::size_t j = 0;
      for (; j + 2 * kLanes <= t; j += 2 * kLanes) {
        __m512i x0 = load(x + j), x1 = load(x + j + kLanes);
        __m512i y0 = load(y + j), y1 = load(y + j + kLanes);
        if (Fwd) {
          fwd_bfly(x0, y0, tw, qv, two_qv);
          fwd_bfly(x1, y1, tw, qv, two_qv);
        } else {
          inv_bfly(x0, y0, tw, qv, two_qv);
          inv_bfly(x1, y1, tw, qv, two_qv);
        }
        store(x + j, x0);
        store(x + j + kLanes, x1);
        store(y + j, y0);
        store(y + j + kLanes, y1);
      }
      for (; j + kLanes <= t; j += kLanes) {
        __m512i xx = load(x + j);
        __m512i yy = load(y + j);
        if (Fwd)
          fwd_bfly(xx, yy, tw, qv, two_qv);
        else
          inv_bfly(xx, yy, tw, qv, two_qv);
        store(x + j, xx);
        store(y + j, yy);
      }
      for (; j < t; ++j) {
        if (Fwd) {
          u64 xx = x[j];
          if (xx >= two_q) xx -= two_q;
          const u64 v = mul_shoup_lazy(y[j], w[b], w_shoup[b], q);
          x[j] = xx + v;
          y[j] = xx + two_q - v;
        } else {
          const u64 xx = x[j];
          const u64 yy = y[j];
          u64 u = xx + yy;
          if (u >= two_q) u -= two_q;
          x[j] = u;
          y[j] = mul_shoup_lazy(xx + two_q - yy, w[b], w_shoup[b], q);
        }
      }
    }
    return;
  }

  std::size_t b = 0;
  if (t == 4) {
    // Two blocks per vector pair: each block is one full vector
    // (x0..x3 y0..y3); 128-bit quarter shuffles regroup two blocks into an
    // all-x and an all-y vector, twiddles expand as (w0 x4, w1 x4).
    const __m512i widx = _mm512_setr_epi64(0, 0, 0, 0, 1, 1, 1, 1);
    for (; b + 2 <= blocks; b += 2) {
      u64* p = a + b * 8;
      const __m512i va = load(p);
      const __m512i vb = load(p + 8);
      __m512i xx = _mm512_shuffle_i64x2(va, vb, 0x44);
      __m512i yy = _mm512_shuffle_i64x2(va, vb, 0xee);
      const __m512i wv = _mm512_permutexvar_epi64(
          widx, _mm512_castsi128_si512(_mm_loadu_si128(
                    reinterpret_cast<const __m128i*>(w + b))));
      const __m512i wsv = _mm512_permutexvar_epi64(
          widx, _mm512_castsi128_si512(_mm_loadu_si128(
                    reinterpret_cast<const __m128i*>(w_shoup + b))));
      const TwV tw = make_tw(wv, wsv);
      if (Fwd)
        fwd_bfly(xx, yy, tw, qv, two_qv);
      else
        inv_bfly(xx, yy, tw, qv, two_qv);
      store(p, _mm512_shuffle_i64x2(xx, yy, 0x44));
      store(p + 8, _mm512_shuffle_i64x2(xx, yy, 0xee));
    }
  } else if (t == 2) {
    // Four blocks per vector pair: blocks are (x0 x1 y0 y1) quadruples;
    // cross-lane permutes gather the x and y pairs, twiddles expand as
    // (w0 w0 w1 w1 w2 w2 w3 w3).
    const __m512i xidx = _mm512_setr_epi64(0, 1, 4, 5, 8, 9, 12, 13);
    const __m512i yidx = _mm512_setr_epi64(2, 3, 6, 7, 10, 11, 14, 15);
    const __m512i aidx = _mm512_setr_epi64(0, 1, 8, 9, 2, 3, 10, 11);
    const __m512i bidx = _mm512_setr_epi64(4, 5, 12, 13, 6, 7, 14, 15);
    const __m512i widx = _mm512_setr_epi64(0, 0, 1, 1, 2, 2, 3, 3);
    for (; b + 4 <= blocks; b += 4) {
      u64* p = a + b * 4;
      const __m512i va = load(p);
      const __m512i vb = load(p + 8);
      __m512i xx = _mm512_permutex2var_epi64(va, xidx, vb);
      __m512i yy = _mm512_permutex2var_epi64(va, yidx, vb);
      const __m512i wv = _mm512_permutexvar_epi64(
          widx, _mm512_castsi256_si512(_mm256_loadu_si256(
                    reinterpret_cast<const __m256i*>(w + b))));
      const __m512i wsv = _mm512_permutexvar_epi64(
          widx, _mm512_castsi256_si512(_mm256_loadu_si256(
                    reinterpret_cast<const __m256i*>(w_shoup + b))));
      const TwV tw = make_tw(wv, wsv);
      if (Fwd)
        fwd_bfly(xx, yy, tw, qv, two_qv);
      else
        inv_bfly(xx, yy, tw, qv, two_qv);
      store(p, _mm512_permutex2var_epi64(xx, aidx, yy));
      store(p + 8, _mm512_permutex2var_epi64(xx, bidx, yy));
    }
  } else if (t == 1) {
    // Eight blocks per vector pair: blocks are (x y) pairs, so the x lanes
    // sit at even offsets; twiddles are already one-per-block and load
    // contiguously in natural order.
    const __m512i xidx = _mm512_setr_epi64(0, 2, 4, 6, 8, 10, 12, 14);
    const __m512i yidx = _mm512_setr_epi64(1, 3, 5, 7, 9, 11, 13, 15);
    const __m512i aidx = _mm512_setr_epi64(0, 8, 1, 9, 2, 10, 3, 11);
    const __m512i bidx = _mm512_setr_epi64(4, 12, 5, 13, 6, 14, 7, 15);
    for (; b + 8 <= blocks; b += 8) {
      u64* p = a + b * 2;
      const __m512i va = load(p);
      const __m512i vb = load(p + 8);
      __m512i xx = _mm512_permutex2var_epi64(va, xidx, vb);
      __m512i yy = _mm512_permutex2var_epi64(va, yidx, vb);
      const __m512i wv = load(w + b);
      const __m512i wsv = load(w_shoup + b);
      const TwV tw = make_tw(wv, wsv);
      if (Fwd)
        fwd_bfly(xx, yy, tw, qv, two_qv);
      else
        inv_bfly(xx, yy, tw, qv, two_qv);
      store(p, _mm512_permutex2var_epi64(xx, aidx, yy));
      store(p + 8, _mm512_permutex2var_epi64(xx, bidx, yy));
    }
  }
  // Leftover blocks (tiny rings only): scalar formulas.
  for (; b < blocks; ++b) {
    u64* x = a + b * 2 * t;
    u64* y = x + t;
    const u64 wb = w[b];
    const u64 wsb = w_shoup[b];
    for (std::size_t j = 0; j < t; ++j) {
      if (Fwd) {
        u64 xx = x[j];
        if (xx >= two_q) xx -= two_q;
        const u64 v = mul_shoup_lazy(y[j], wb, wsb, q);
        x[j] = xx + v;
        y[j] = xx + two_q - v;
      } else {
        const u64 xx = x[j];
        const u64 yy = y[j];
        u64 u = xx + yy;
        if (u >= two_q) u -= two_q;
        x[j] = u;
        y[j] = mul_shoup_lazy(xx + two_q - yy, wb, wsb, q);
      }
    }
  }
}

void fwd_stage_avx512(u64* a, std::size_t t, std::size_t blocks, const u64* w,
                      const u64* w_shoup, u64 q) {
  stage_avx512<true>(a, t, blocks, w, w_shoup, q);
}

void inv_stage_avx512(u64* a, std::size_t t, std::size_t blocks, const u64* w,
                      const u64* w_shoup, u64 q) {
  stage_avx512<false>(a, t, blocks, w, w_shoup, q);
}

void reduce_4q_avx512(u64* a, std::size_t n, u64 q) {
  const __m512i qv = _mm512_set1_epi64(static_cast<long long>(q));
  const __m512i two_qv = _mm512_set1_epi64(static_cast<long long>(2 * q));
  std::size_t j = 0;
  for (; j + kLanes <= n; j += kLanes)
    store(a + j, csub(csub(load(a + j), two_qv), qv));
  const u64 two_q = 2 * q;
  for (; j < n; ++j) {
    u64 x = a[j];
    if (x >= two_q) x -= two_q;
    if (x >= q) x -= q;
    a[j] = x;
  }
}

void lift_centered_avx512(u64* dst, const u64* src, std::size_t n, u64 d, u64 q) {
  const u64 half = d / 2;
  const __m512i halfv = set1(half);
  std::size_t j = 0;
  if (q > half) {
    const __m512i shift = set1(q - d);
    for (; j + kLanes <= n; j += kLanes) {
      const __m512i x = load(src + j);
      const __mmask8 neg = _mm512_cmpgt_epu64_mask(x, halfv);
      store(dst + j, _mm512_mask_add_epi64(x, neg, x, shift));
    }
  } else {
    const __m512i qv = set1(q);
    const __m512i one_shoup = set1(shoup_precompute(1, q));
    const __m512i d_mod_q = set1(d % q);
    for (; j + kLanes <= n; j += kLanes) {
      const __m512i x = load(src + j);
      const __m512i r = reduce_any(x, one_shoup, qv);
      const __m512i diff = _mm512_sub_epi64(r, d_mod_q);
      const __m512i wrapped =
          _mm512_mask_add_epi64(diff, _mm512_cmplt_epu64_mask(r, d_mod_q), diff, qv);
      store(dst + j, _mm512_mask_mov_epi64(r, _mm512_cmpgt_epu64_mask(x, halfv), wrapped));
    }
  }
  if (j < n) detail::lift_centered_scalar(dst + j, src + j, n - j, d, q);
}

const Kernels kAvx512Kernels = {
    add_mod_avx512,   sub_mod_avx512,       neg_mod_avx512,       mul_mod_avx512,
    mul_shoup_avx512, fwd_butterfly_avx512, inv_butterfly_avx512, fwd_stage_avx512,
    inv_stage_avx512, reduce_4q_avx512,     lift_centered_avx512, detail::key_dot_scalar,
};

}  // namespace

namespace detail {
const Kernels* avx512_kernels() { return &kAvx512Kernels; }
}  // namespace detail

}  // namespace sp::fhe::simd

#else  // !(__AVX512F__ && __AVX512DQ__)

namespace sp::fhe::simd::detail {
const Kernels* avx512_kernels() { return nullptr; }
}  // namespace sp::fhe::simd::detail

#endif
