#include "fhe/rns_poly.h"

#include <algorithm>
#include <cmath>
#include <cstdlib>
#include <cstring>
#include <map>
#include <mutex>
#include <utility>

#include "common/check.h"
#include "common/thread_pool.h"
#include "fhe/ntt.h"
#include "fhe/simd/simd.h"

namespace sp::fhe {
namespace {

/// Elements per elementwise-kernel task. Rows are independent and an
/// elementwise op has no cross-lane dependencies, so (row x tile) dispatch
/// over the global pool is bit-identical to the serial loop for any
/// SMARTPAF_THREADS value — tiling just keeps short chains from capping the
/// usable thread count at row_count().
constexpr std::size_t kElemTile = 4096;

template <typename Body>
void for_each_row_tile(int rows, std::size_t n, const Body& body) {
  const std::size_t tiles = n >= kElemTile ? n / kElemTile : 1;
  const std::size_t len = n / tiles;  // n, kElemTile powers of two => exact
  sp::parallel_for(0, static_cast<std::size_t>(rows) * tiles, [&](std::size_t u) {
    body(static_cast<int>(u / tiles), (u % tiles) * len, len);
  });
}

/// Process-wide (value, prime) -> (reduced value, Shoup companion) memo.
/// Scalar scaling constants recur heavily (encoder scale, rescale deltas),
/// and shoup_precompute costs a 128-bit division per row per call otherwise.
std::pair<u64, u64> scalar_shoup_cached(u64 v, u64 q) {
  static std::mutex mu;
  static std::map<std::pair<u64, u64>, std::pair<u64, u64>> cache;
  std::lock_guard<std::mutex> lock(mu);
  const auto key = std::make_pair(v, q);
  auto it = cache.find(key);
  if (it != cache.end()) return it->second;
  if (cache.size() >= 4096) cache.clear();  // unbounded growth guard
  const u64 vi = v % q;
  const std::pair<u64, u64> entry{vi, shoup_precompute(vi, q)};
  cache.emplace(key, entry);
  return entry;
}

}  // namespace

RnsPoly::RnsPoly(const CkksContext* ctx, int q_count, bool with_special, bool ntt_form)
    : RnsPoly(ctx, q_count, with_special, ntt_form, Uninit{}) {
  std::fill(data_.begin(), data_.end(), 0);
}

RnsPoly::RnsPoly(const CkksContext* ctx, int q_count, bool with_special, bool ntt_form,
                 Uninit)
    : ctx_(ctx), q_count_(q_count), with_special_(with_special), ntt_(ntt_form) {
  sp::check(ctx != nullptr, "RnsPoly: null context");
  sp::check(q_count >= 1 && q_count <= ctx->q_count(), "RnsPoly: bad q_count");
  data_.resize(static_cast<std::size_t>(row_count()) * ctx->n());
}

const Modulus& RnsPoly::row_mod(int i) const {
  if (with_special_ && i == q_count_) return ctx_->special();
  return ctx_->q(i);
}

const NttTables& RnsPoly::row_ntt(int i) const {
  if (with_special_ && i == q_count_) return ctx_->special_ntt();
  return ctx_->ntt(i);
}

void RnsPoly::to_ntt() {
  sp::check(!ntt_, "RnsPoly::to_ntt: already in NTT form");
  std::vector<NttJob> jobs(static_cast<std::size_t>(row_count()));
  for (int i = 0; i < row_count(); ++i) jobs[static_cast<std::size_t>(i)] = {row(i), &row_ntt(i)};
  ntt_forward_batch(jobs);
  ntt_ = true;
}

void RnsPoly::from_ntt() {
  sp::check(ntt_, "RnsPoly::from_ntt: not in NTT form");
  std::vector<NttJob> jobs(static_cast<std::size_t>(row_count()));
  for (int i = 0; i < row_count(); ++i) jobs[static_cast<std::size_t>(i)] = {row(i), &row_ntt(i)};
  ntt_inverse_batch(jobs);
  ntt_ = false;
}

void RnsPoly::to_ntt_batch(const std::vector<RnsPoly*>& polys) {
  std::vector<NttJob> jobs;
  for (RnsPoly* p : polys) {
    if (p == nullptr) continue;
    sp::check(!p->ntt_, "RnsPoly::to_ntt_batch: already in NTT form");
    for (int i = 0; i < p->row_count(); ++i) jobs.push_back({p->row(i), &p->row_ntt(i)});
  }
  ntt_forward_batch(jobs);
  for (RnsPoly* p : polys)
    if (p != nullptr) p->ntt_ = true;
}

void RnsPoly::from_ntt_batch(const std::vector<RnsPoly*>& polys) {
  std::vector<NttJob> jobs;
  for (RnsPoly* p : polys) {
    if (p == nullptr) continue;
    sp::check(p->ntt_, "RnsPoly::from_ntt_batch: not in NTT form");
    for (int i = 0; i < p->row_count(); ++i) jobs.push_back({p->row(i), &p->row_ntt(i)});
  }
  ntt_inverse_batch(jobs);
  for (RnsPoly* p : polys)
    if (p != nullptr) p->ntt_ = false;
}

namespace {
void check_compatible(const RnsPoly& a, const RnsPoly& b) {
  sp::check(a.context() == b.context() && a.q_count() == b.q_count() &&
                a.has_special() == b.has_special() && a.is_ntt() == b.is_ntt(),
            "RnsPoly: incompatible operands");
}
}  // namespace

void RnsPoly::add_inplace(const RnsPoly& o) {
  check_compatible(*this, o);
  const simd::Kernels& k = simd::kernels();
  for_each_row_tile(row_count(), n(), [&](int i, std::size_t off, std::size_t len) {
    k.add_mod(row(i) + off, o.row(i) + off, len, row_mod(i).value());
  });
}

void RnsPoly::sub_inplace(const RnsPoly& o) {
  check_compatible(*this, o);
  const simd::Kernels& k = simd::kernels();
  for_each_row_tile(row_count(), n(), [&](int i, std::size_t off, std::size_t len) {
    k.sub_mod(row(i) + off, o.row(i) + off, len, row_mod(i).value());
  });
}

void RnsPoly::negate_inplace() {
  const simd::Kernels& k = simd::kernels();
  for_each_row_tile(row_count(), n(), [&](int i, std::size_t off, std::size_t len) {
    k.neg_mod(row(i) + off, len, row_mod(i).value());
  });
}

void RnsPoly::mul_inplace(const RnsPoly& o) {
  check_compatible(*this, o);
  sp::check(ntt_, "RnsPoly::mul_inplace: requires NTT form");
  const simd::Kernels& k = simd::kernels();
  for_each_row_tile(row_count(), n(), [&](int i, std::size_t off, std::size_t len) {
    const Modulus& m = row_mod(i);
    k.mul_mod(row(i) + off, o.row(i) + off, len, m.value(), m.ratio_hi(), m.ratio_lo());
  });
}

void RnsPoly::mul_scalar_inplace(u64 v) {
  // Resolve the per-prime constants serially (memoized), then apply in one
  // tiled kernel pass.
  std::vector<std::pair<u64, u64>> consts(static_cast<std::size_t>(row_count()));
  for (int i = 0; i < row_count(); ++i)
    consts[static_cast<std::size_t>(i)] = scalar_shoup_cached(v, row_mod(i).value());
  const simd::Kernels& k = simd::kernels();
  for_each_row_tile(row_count(), n(), [&](int i, std::size_t off, std::size_t len) {
    const auto& c = consts[static_cast<std::size_t>(i)];
    k.mul_shoup(row(i) + off, len, c.first, c.second, row_mod(i).value());
  });
}

void RnsPoly::drop_last_q() {
  sp::check(q_count_ >= 2, "RnsPoly::drop_last_q: cannot drop base prime");
  // Flat layout: removing chain row (q_count_-1) slides the special row (the
  // only row after it, when present) down one slot before shrinking.
  if (with_special_) {
    std::memmove(row(q_count_ - 1), row(q_count_), n() * sizeof(u64));
  }
  --q_count_;
  data_.resize(static_cast<std::size_t>(row_count()) * n());
}

void RnsPoly::drop_special() {
  sp::check(with_special_, "RnsPoly::drop_special: no special row");
  with_special_ = false;
  data_.resize(static_cast<std::size_t>(row_count()) * n());
}

void RnsPoly::set_from_signed(const std::vector<std::int64_t>& coeffs) {
  sp::check(coeffs.size() == n(), "RnsPoly::set_from_signed: size mismatch");
  sp::check(!ntt_, "RnsPoly::set_from_signed: expects coefficient form");
  for (int i = 0; i < row_count(); ++i) {
    const Modulus& m = row_mod(i);
    const u64 q = m.value();
    u64* a = row(i);
    for (std::size_t j = 0; j < n(); ++j) {
      // Small coefficients (errors, ternary secrets, most encodings) take a
      // conditional add; only |v| >= q needs the division.
      const std::int64_t v = coeffs[j];
      const u64 mag = v < 0 ? 0 - static_cast<u64>(v) : static_cast<u64>(v);
      a[j] = mag >= q ? m.from_signed(v) : v < 0 ? q - mag : mag;
    }
  }
}

void RnsPoly::sample_ternary(sp::Rng& rng) {
  std::vector<std::int64_t> c(n());
  for (auto& v : c) v = rng.ternary();
  set_from_signed(c);
}

void RnsPoly::sample_gaussian(sp::Rng& rng, double stddev) {
  std::vector<std::int64_t> c(n());
  for (auto& v : c) v = static_cast<std::int64_t>(std::llround(rng.normal(0.0, stddev)));
  set_from_signed(c);
}

void RnsPoly::sample_uniform(sp::Rng& rng) {
  for (int i = 0; i < row_count(); ++i) {
    const Modulus& m = row_mod(i);
    u64* a = row(i);
    for (std::size_t j = 0; j < n(); ++j) {
      // Rejection-free 128-bit reduction keeps bias below 2^-64.
      a[j] = m.reduce128((static_cast<u128>(rng.next_u64()) << 64) | rng.next_u64());
    }
  }
}

}  // namespace sp::fhe
