// Scalar kernel tier: the reference implementations every vector tier must
// match bit for bit. These are the exact loop bodies the pre-SIMD backend
// ran (Harvey lazy butterflies, Shoup constant multiplies, the Modulus
// Barrett reduction), factored into the kernel table shape.
#include "fhe/simd/simd.h"

#include <algorithm>

namespace sp::fhe::simd {
namespace {

void add_mod_scalar(u64* a, const u64* b, std::size_t n, u64 q) {
  for (std::size_t j = 0; j < n; ++j) {
    const u64 r = a[j] + b[j];
    a[j] = r >= q ? r - q : r;
  }
}

void sub_mod_scalar(u64* a, const u64* b, std::size_t n, u64 q) {
  for (std::size_t j = 0; j < n; ++j) a[j] = a[j] >= b[j] ? a[j] - b[j] : a[j] + q - b[j];
}

void neg_mod_scalar(u64* a, std::size_t n, u64 q) {
  for (std::size_t j = 0; j < n; ++j) a[j] = a[j] == 0 ? 0 : q - a[j];
}

/// Barrett reduction of a 128-bit product, identical to Modulus::reduce128.
inline u64 barrett128(u64 x_lo, u64 x_hi, u64 q, u64 ratio_hi, u64 ratio_lo) {
  const u128 t1 = static_cast<u128>(x_lo) * ratio_hi;
  const u128 t2 = static_cast<u128>(x_hi) * ratio_lo;
  const u64 carry = static_cast<u64>((static_cast<u128>(x_lo) * ratio_lo) >> 64);
  const u128 mid = t1 + t2 + carry;
  const u64 est = x_hi * ratio_hi + static_cast<u64>(mid >> 64);
  u64 r = x_lo - est * q;  // wraparound ok; remainder < 3q
  while (r >= q) r -= q;
  return r;
}

void mul_mod_scalar(u64* a, const u64* b, std::size_t n, u64 q, u64 ratio_hi,
                    u64 ratio_lo) {
  for (std::size_t j = 0; j < n; ++j) {
    const u128 x = static_cast<u128>(a[j]) * b[j];
    a[j] = barrett128(static_cast<u64>(x), static_cast<u64>(x >> 64), q, ratio_hi,
                      ratio_lo);
  }
}

void mul_shoup_scalar(u64* a, std::size_t n, u64 w, u64 w_shoup, u64 q) {
  for (std::size_t j = 0; j < n; ++j) a[j] = mul_shoup(a[j], w, w_shoup, q);
}

void fwd_butterfly_scalar(u64* x, u64* y, std::size_t len, u64 w, u64 w_shoup,
                          u64 q) {
  const u64 two_q = 2 * q;
  for (std::size_t j = 0; j < len; ++j) {
    u64 xx = x[j];
    if (xx >= two_q) xx -= two_q;
    const u64 v = mul_shoup_lazy(y[j], w, w_shoup, q);  // < 2q
    x[j] = xx + v;
    y[j] = xx + two_q - v;
  }
}

void inv_butterfly_scalar(u64* x, u64* y, std::size_t len, u64 w, u64 w_shoup,
                          u64 q) {
  const u64 two_q = 2 * q;
  for (std::size_t j = 0; j < len; ++j) {
    const u64 xx = x[j];
    const u64 yy = y[j];
    u64 u = xx + yy;
    if (u >= two_q) u -= two_q;
    x[j] = u;
    y[j] = mul_shoup_lazy(xx + two_q - yy, w, w_shoup, q);  // < 2q
  }
}

void fwd_stage_scalar(u64* a, std::size_t t, std::size_t blocks, const u64* w,
                      const u64* w_shoup, u64 q) {
  for (std::size_t b = 0; b < blocks; ++b)
    fwd_butterfly_scalar(a + b * 2 * t, a + b * 2 * t + t, t, w[b], w_shoup[b], q);
}

void inv_stage_scalar(u64* a, std::size_t t, std::size_t blocks, const u64* w,
                      const u64* w_shoup, u64 q) {
  for (std::size_t b = 0; b < blocks; ++b)
    inv_butterfly_scalar(a + b * 2 * t, a + b * 2 * t + t, t, w[b], w_shoup[b], q);
}

void reduce_4q_scalar(u64* a, std::size_t n, u64 q) {
  const u64 two_q = 2 * q;
  for (std::size_t j = 0; j < n; ++j) {
    u64 x = a[j];
    if (x >= two_q) x -= two_q;
    if (x >= q) x -= q;
    a[j] = x;
  }
}

/// Elements per key_dot accumulator tile: 2 x 256 u128 = 8 KB stays in L1
/// while each digit's rows stream through it.
constexpr std::size_t kDotTile = 256;

const Kernels kScalarKernels = {
    add_mod_scalar,   sub_mod_scalar,       neg_mod_scalar,       mul_mod_scalar,
    mul_shoup_scalar, fwd_butterfly_scalar, inv_butterfly_scalar, fwd_stage_scalar,
    inv_stage_scalar, reduce_4q_scalar,     detail::lift_centered_scalar,
    detail::key_dot_scalar,
};

}  // namespace

namespace detail {
const Kernels* scalar_kernels() { return &kScalarKernels; }

void lift_centered_scalar(u64* dst, const u64* src, std::size_t n, u64 d, u64 q) {
  const u64 half = d / 2;
  if (q > half) {
    // |centered| < q: the lift is x itself or x - d + q, no division.
    const u64 shift = q - d;  // wraps when q < d; the sum below is still exact
    for (std::size_t j = 0; j < n; ++j) dst[j] = src[j] > half ? src[j] + shift : src[j];
    return;
  }
  // q <= d/2 (a wide prime lifted into a narrow row): reduce x by a Shoup
  // multiply by one, then take away d mod q for the negative half.
  const u64 one_shoup = shoup_precompute(1, q);
  const u64 d_mod_q = d % q;
  for (std::size_t j = 0; j < n; ++j) {
    const u64 r = mul_shoup(src[j], 1, one_shoup, q);
    dst[j] = src[j] > half ? (r >= d_mod_q ? r - d_mod_q : r + q - d_mod_q) : r;
  }
}

void key_dot_scalar(u64* out0, u64* out1, const u64* const* dg, const u64* const* k0,
                    const u64* const* k1, std::size_t count, const std::uint32_t* perm,
                    std::size_t len, u64 q, u64 ratio_hi, u64 ratio_lo) {
  // One 128-bit sum per element, reduced once: exact while count * q^2 <
  // 2^128 (count < 256 for 60-bit primes).
  u128 acc0[kDotTile], acc1[kDotTile];
  for (std::size_t base = 0; base < len; base += kDotTile) {
    const std::size_t m = std::min(kDotTile, len - base);
    std::fill(acc0, acc0 + m, 0);
    std::fill(acc1, acc1 + m, 0);
    for (std::size_t i = 0; i < count; ++i) {
      const u64* a = k0[i] + base;
      const u64* b = k1[i] + base;
      if (perm) {
        const std::uint32_t* pm = perm + base;
        for (std::size_t j = 0; j < m; ++j) {
          const u64 x = dg[i][pm[j]];
          acc0[j] += static_cast<u128>(x) * a[j];
          acc1[j] += static_cast<u128>(x) * b[j];
        }
      } else {
        const u64* x = dg[i] + base;
        for (std::size_t j = 0; j < m; ++j) {
          acc0[j] += static_cast<u128>(x[j]) * a[j];
          acc1[j] += static_cast<u128>(x[j]) * b[j];
        }
      }
    }
    for (std::size_t j = 0; j < m; ++j) {
      out0[base + j] = barrett128(static_cast<u64>(acc0[j]), static_cast<u64>(acc0[j] >> 64),
                                  q, ratio_hi, ratio_lo);
      out1[base + j] = barrett128(static_cast<u64>(acc1[j]), static_cast<u64>(acc1[j] >> 64),
                                  q, ratio_hi, ratio_lo);
    }
  }
}
}  // namespace detail

}  // namespace sp::fhe::simd
