#include "fhe/evaluator.h"

#include <algorithm>
#include <cmath>

#include "common/aligned.h"
#include "common/check.h"
#include "common/thread_pool.h"
#include "fhe/ntt.h"
#include "fhe/simd/simd.h"

namespace sp::fhe {
namespace {

void check_scale_close(double a, double b) {
  sp::check(std::abs(a - b) <= 1e-6 * std::max(a, b),
            "Evaluator: scale mismatch between operands");
}

/// Elements per task when row work is tiled for the pool.
constexpr std::size_t kRowTile = 4096;

std::size_t row_tiles(std::size_t n) { return n >= kRowTile ? n / kRowTile : 1; }

}  // namespace

void Evaluator::drop_to_level(Ciphertext& ct, int level) const {
  sp::check(level >= 0 && level <= ct.level(), "drop_to_level: bad target level");
  while (ct.level() > level)
    for (auto& part : ct.parts) part.drop_last_q();
}

void Evaluator::match_levels(Ciphertext& a, Ciphertext& b) const {
  if (a.level() > b.level())
    drop_to_level(a, b.level());
  else if (b.level() > a.level())
    drop_to_level(b, a.level());
}

Ciphertext Evaluator::add(const Ciphertext& a, const Ciphertext& b) const {
  sp::check(a.q_count() == b.q_count(), "add: level mismatch");
  sp::check(a.size() == b.size(), "add: size mismatch");
  check_scale_close(a.scale, b.scale);
  Ciphertext out = a;
  for (int i = 0; i < out.size(); ++i) out.parts[static_cast<std::size_t>(i)].add_inplace(b.parts[static_cast<std::size_t>(i)]);
  ++counters.adds;
  return out;
}

Ciphertext Evaluator::sub(const Ciphertext& a, const Ciphertext& b) const {
  sp::check(a.q_count() == b.q_count(), "sub: level mismatch");
  sp::check(a.size() == b.size(), "sub: size mismatch");
  check_scale_close(a.scale, b.scale);
  Ciphertext out = a;
  for (int i = 0; i < out.size(); ++i) out.parts[static_cast<std::size_t>(i)].sub_inplace(b.parts[static_cast<std::size_t>(i)]);
  ++counters.adds;
  return out;
}

void Evaluator::negate_inplace(Ciphertext& ct) const {
  for (auto& p : ct.parts) p.negate_inplace();
}

void Evaluator::add_inplace(Ciphertext& a, const Ciphertext& b) const {
  sp::check(a.q_count() == b.q_count(), "add_inplace: level mismatch");
  check_scale_close(a.scale, b.scale);
  const int common = std::min(a.size(), b.size());
  for (int i = 0; i < common; ++i)
    a.parts[static_cast<std::size_t>(i)].add_inplace(b.parts[static_cast<std::size_t>(i)]);
  // The shorter operand is implicitly zero in its missing (quadratic) part.
  for (int i = common; i < b.size(); ++i)
    a.parts.push_back(b.parts[static_cast<std::size_t>(i)]);
  ++counters.adds;
}

void Evaluator::add_plain_inplace(Ciphertext& ct, const Plaintext& pt) const {
  sp::check(ct.q_count() == pt.q_count(), "add_plain: level mismatch");
  check_scale_close(ct.scale, pt.scale);
  ct.parts[0].add_inplace(pt.poly);
  ++counters.adds;
}

void Evaluator::multiply_plain_inplace(Ciphertext& ct, const Plaintext& pt) const {
  sp::check(ct.q_count() == pt.q_count(), "multiply_plain: level mismatch");
  for (auto& part : ct.parts) part.mul_inplace(pt.poly);
  ct.scale *= pt.scale;
  ++counters.plain_mults;
}

Ciphertext Evaluator::multiply(const Ciphertext& a, const Ciphertext& b) const {
  sp::check(a.size() == 2 && b.size() == 2, "multiply: operands must have 2 parts");
  sp::check(a.q_count() == b.q_count(), "multiply: level mismatch");

  sp::check(a.parts[0].is_ntt() && b.parts[0].is_ntt(), "multiply: requires NTT form");

  Ciphertext out;
  out.scale = a.scale * b.scale;
  RnsPoly p0 = a.parts[0];
  RnsPoly cross = a.parts[0];
  RnsPoly cross2 = a.parts[1];
  RnsPoly p2 = a.parts[1];
  // The four cross-term products are independent; dispatching their
  // (product x row x tile) units in one parallel region keeps the pool fed
  // even at short chain lengths, where per-row parallelism alone stalls.
  struct Prod {
    RnsPoly* dst;
    const RnsPoly* src;
  };
  const Prod prods[4] = {{&p0, &b.parts[0]},
                         {&cross, &b.parts[1]},
                         {&cross2, &b.parts[0]},
                         {&p2, &b.parts[1]}};
  const std::size_t rows = static_cast<std::size_t>(p0.row_count());
  const std::size_t n = p0.n();
  const std::size_t tiles = row_tiles(n);
  const std::size_t len = n / tiles;
  const simd::Kernels& k = simd::kernels();
  sp::parallel_for(0, 4 * rows * tiles, [&](std::size_t u) {
    const Prod& p = prods[u / (rows * tiles)];
    const std::size_t rem = u % (rows * tiles);
    const int r = static_cast<int>(rem / tiles);
    const std::size_t off = (rem % tiles) * len;
    const Modulus& m = p.dst->row_mod(r);
    k.mul_mod(p.dst->row(r) + off, p.src->row(r) + off, len, m.value(), m.ratio_hi(),
              m.ratio_lo());
  });
  cross.add_inplace(cross2);
  out.parts.push_back(std::move(p0));
  out.parts.push_back(std::move(cross));
  out.parts.push_back(std::move(p2));
  ++counters.ct_mults;
  return out;
}

std::vector<RnsPoly> Evaluator::decompose_digits(const RnsPoly& d_ntt) const {
  sp::check(d_ntt.is_ntt() && !d_ntt.has_special(),
            "decompose_digits: expects NTT form over chain rows");
  const int l = d_ntt.q_count();
  const int rows = l + 1;  // + special
  const std::size_t n = ctx_->n();
  RnsPoly d = d_ntt;
  d.from_ntt();
  counters.ntts_inverse += static_cast<std::size_t>(l);

  std::vector<RnsPoly> digits;
  digits.reserve(static_cast<std::size_t>(l));
  for (int i = 0; i < l; ++i)
    digits.emplace_back(ctx_, l, /*with_special=*/true, /*ntt_form=*/true, RnsPoly::Uninit{});
  // Centered lift of digit i's residue row into every other row of the
  // extended basis; every (digit, target row) pair is independent. The lift
  // of row i into q_i is row i itself, so its NTT form is copied as is.
  const simd::Kernels& k = simd::kernels();
  sp::parallel_for(0, static_cast<std::size_t>(l * rows), [&](std::size_t u) {
    const int i = static_cast<int>(u / static_cast<std::size_t>(rows));
    const int t = static_cast<int>(u % static_cast<std::size_t>(rows));
    RnsPoly& digit = digits[static_cast<std::size_t>(i)];
    if (t == i)
      std::copy(d_ntt.row(i), d_ntt.row(i) + n, digit.row(t));
    else
      k.lift_centered(digit.row(t), d.row(i), n, ctx_->q(i).value(), digit.row_mod(t).value());
  });
  // The l^2 lifted rows go out as one batch, so sub-row splitting sees the
  // full row set at once.
  std::vector<NttJob> jobs;
  jobs.reserve(static_cast<std::size_t>(l * l));
  for (int i = 0; i < l; ++i)
    for (int t = 0; t < rows; ++t)
      if (t != i) {
        RnsPoly& digit = digits[static_cast<std::size_t>(i)];
        jobs.push_back({digit.row(t), &digit.row_ntt(t)});
      }
  ntt_forward_batch(jobs);
  counters.ntts_forward += jobs.size();
  return digits;
}

std::pair<RnsPoly, RnsPoly> Evaluator::apply_kswitch(const std::vector<RnsPoly>& digits,
                                                     const KSwitchKey& key,
                                                     const std::uint32_t* ntt_perm) const {
  const int l = static_cast<int>(digits.size());
  const std::size_t rows = static_cast<std::size_t>(l + 1);
  const int key_q = ctx_->q_count();  // key basis chain size
  const std::size_t n = ctx_->n();
  const std::size_t tiles = row_tiles(n);
  const std::size_t len = n / tiles;

  RnsPoly r0(ctx_, l, true, true, RnsPoly::Uninit{});
  RnsPoly r1(ctx_, l, true, true, RnsPoly::Uninit{});
  // Every (row, tile) accumulates its digit inner product independently in
  // a fixed digit order and ends fully reduced, so the result is the same
  // for any thread count and any tier.
  const simd::Kernels& k = simd::kernels();
  sp::parallel_for(0, rows * tiles, [&](std::size_t u) {
    const int t = static_cast<int>(u / tiles);
    const std::size_t off = (u % tiles) * len;
    // Ciphertext chain row t maps to key row t; the special row maps to the
    // key's special row (index key_q).
    const int key_row = (t == l) ? key_q : t;
    std::vector<const u64*> ptrs(3 * static_cast<std::size_t>(l));
    const u64** dg = ptrs.data();
    const u64** k0 = dg + l;
    const u64** k1 = k0 + l;
    for (int i = 0; i < l; ++i) {
      const auto& kd = key.digits[static_cast<std::size_t>(i)];
      // A permuted gather indexes the whole row; a plain one starts at off.
      dg[i] = digits[static_cast<std::size_t>(i)].row(t) + (ntt_perm ? 0 : off);
      k0[i] = kd[0].row(key_row) + off;
      k1[i] = kd[1].row(key_row) + off;
    }
    const Modulus& m = r0.row_mod(t);
    k.key_dot(r0.row(t) + off, r1.row(t) + off, dg, k0, k1, static_cast<std::size_t>(l),
              ntt_perm ? ntt_perm + off : nullptr, len, m.value(), m.ratio_hi(),
              m.ratio_lo());
  });

  drop_last_row({&r0, &r1});
  return {std::move(r0), std::move(r1)};
}

void Evaluator::drop_last_row(const std::vector<RnsPoly*>& polys) const {
  const RnsPoly& first = *polys.front();
  const int keep = first.row_count() - 1;
  sp::check(first.is_ntt() && keep >= 1, "drop_last_row: expects NTT form and >= 2 rows");
  for (const RnsPoly* p : polys)
    sp::check(p->q_count() == first.q_count() && p->has_special() == first.has_special() &&
                  p->is_ntt(),
              "drop_last_row: polys differ in shape");
  const bool special = first.has_special();
  const u64 d = first.row_mod(keep).value();
  const std::size_t n = ctx_->n();
  const std::size_t np = polys.size();
  const std::size_t nk = static_cast<std::size_t>(keep);

  // The dropped row is discarded afterwards, so it goes back to coefficient
  // form in place.
  std::vector<NttJob> inv_jobs;
  for (RnsPoly* p : polys) inv_jobs.push_back({p->row(keep), &p->row_ntt(keep)});
  ntt_inverse_batch(inv_jobs);

  // Its centered lift into every remaining row, then to NTT form.
  sp::AlignedVec<u64> lift;
  lift.resize(np * nk * n);
  const simd::Kernels& k = simd::kernels();
  sp::parallel_for(0, np * nk, [&](std::size_t u) {
    const RnsPoly& p = *polys[u / nk];
    const int t = static_cast<int>(u % nk);
    k.lift_centered(lift.data() + u * n, p.row(keep), n, d, p.row_mod(t).value());
  });
  std::vector<NttJob> fwd_jobs;
  fwd_jobs.reserve(np * nk);
  for (std::size_t u = 0; u < np * nk; ++u)
    fwd_jobs.push_back({lift.data() + u * n, &first.row_ntt(static_cast<int>(u % nk))});
  ntt_forward_batch(fwd_jobs);

  // r_t = (r_t - lift_t) * d^-1 mod q_t.
  std::vector<std::pair<u64, u64>> inv(nk);
  for (int t = 0; t < keep; ++t) {
    const u64 v = special ? ctx_->p_inv_mod(t) : ctx_->q_inv_mod(keep, t);
    inv[static_cast<std::size_t>(t)] = {v, shoup_precompute(v, first.row_mod(t).value())};
  }
  const std::size_t tiles = row_tiles(n);
  const std::size_t len = n / tiles;
  sp::parallel_for(0, np * nk * tiles, [&](std::size_t u) {
    const std::size_t row = u / tiles;
    const std::size_t off = (u % tiles) * len;
    RnsPoly& p = *polys[row / nk];
    const int t = static_cast<int>(row % nk);
    const u64 q = p.row_mod(t).value();
    u64* r = p.row(t) + off;
    k.sub_mod(r, lift.data() + row * n + off, len, q);
    k.mul_shoup(r, len, inv[row % nk].first, inv[row % nk].second, q);
  });

  for (RnsPoly* p : polys) {
    if (special)
      p->drop_special();
    else
      p->drop_last_q();
  }
  counters.ntts_inverse += np;
  counters.ntts_forward += np * nk;
}

void Evaluator::relinearize_inplace(Ciphertext& ct, const KSwitchKey& rk) const {
  sp::check(ct.size() == 3, "relinearize: ciphertext must have 3 parts");
  auto [r0, r1] = apply_kswitch(decompose_digits(ct.parts[2]), rk, /*ntt_perm=*/nullptr);
  ct.parts.pop_back();
  ct.parts[0].add_inplace(r0);
  ct.parts[1].add_inplace(r1);
  ++counters.relins;
}

void Evaluator::rescale_inplace(Ciphertext& ct) const {
  sp::check(ct.level() >= 1, "rescale: no levels remaining");
  const Modulus& q_last = ctx_->q(ct.q_count() - 1);
  std::vector<RnsPoly*> parts;
  parts.reserve(ct.parts.size());
  for (auto& part : ct.parts) parts.push_back(&part);
  drop_last_row(parts);
  ct.scale /= static_cast<double>(q_last.value());
  ++counters.rescales;
}

u64 Evaluator::galois_element(int steps) const {
  const std::size_t two_n = 2 * ctx_->n();
  const std::size_t half = ctx_->n() / 2;
  const std::size_t r =
      ((static_cast<std::size_t>(steps % static_cast<int>(half)) + half) % half);
  u64 g = 1;
  for (std::size_t k = 0; k < r; ++k) g = (g * 5) % two_n;
  return g;
}

namespace {

const KSwitchKey& galois_key(const GaloisKeys& gk, u64 g, const char* what) {
  const auto it = gk.keys.find(g);
  sp::check(it != gk.keys.end(), what);
  return it->second;
}

}  // namespace

Ciphertext Evaluator::rotate(const Ciphertext& ct, int steps, const GaloisKeys& gk) const {
  sp::check(ct.size() == 2, "rotate: relinearize first");
  const u64 g = galois_element(steps);
  if (g == 1) return ct;
  const KSwitchKey& key = galois_key(gk, g, "rotate: missing Galois key for requested step");
  return rotate_digits(ct, decompose_digits(ct.parts[1]), g, key);
}

HoistedDecomposition Evaluator::hoist(const Ciphertext& ct) const {
  sp::check(ct.size() == 2, "hoist: relinearize first");
  HoistedDecomposition h;
  h.src = ct;
  h.digits = decompose_digits(ct.parts[1]);
  return h;
}

Ciphertext Evaluator::rotate_hoisted(const HoistedDecomposition& h, int steps,
                                     const GaloisKeys& gk) const {
  sp::check(!h.digits.empty(), "rotate_hoisted: empty decomposition");
  const u64 g = galois_element(steps);
  if (g == 1) return h.src;
  const KSwitchKey& key =
      galois_key(gk, g, "rotate_hoisted: missing Galois key for requested step");
  ++counters.hoisted_rotations;
  return rotate_digits(h.src, h.digits, g, key);
}

Ciphertext Evaluator::rotate_digits(const Ciphertext& src, const std::vector<RnsPoly>& digits,
                                    u64 g, const KSwitchKey& key) const {
  // The decomposition commutes with the automorphism: lifting is
  // coefficient-wise and X -> X^g is a signed coefficient permutation, so
  // permuting the NTT-form digits of c1 equals decomposing the rotated c1 —
  // bit for bit — at zero additional NTTs.
  const std::vector<std::uint32_t>& table = galois_ntt_table(ctx_->n(), g);
  auto [r0, r1] = apply_kswitch(digits, key, table.data());

  // c0 rotates as the same pure NTT-domain permutation.
  const RnsPoly& c0 = src.parts[0];
  const std::size_t n = ctx_->n();
  sp::parallel_for(0, static_cast<std::size_t>(r0.row_count()), [&](std::size_t tt) {
    const int t = static_cast<int>(tt);
    const u64 q = r0.row_mod(t).value();
    u64* dst = r0.row(t);
    const u64* c = c0.row(t);
    for (std::size_t j = 0; j < n; ++j) {
      const u64 v = dst[j] + c[table[j]];
      dst[j] = v >= q ? v - q : v;
    }
  });

  Ciphertext out;
  out.parts.push_back(std::move(r0));
  out.parts.push_back(std::move(r1));
  out.scale = src.scale;
  ++counters.rotations;
  return out;
}

std::vector<Ciphertext> Evaluator::rotate_hoisted(const Ciphertext& ct,
                                                  const std::vector<int>& steps,
                                                  const GaloisKeys& gk) const {
  const HoistedDecomposition h = hoist(ct);
  std::vector<Ciphertext> out;
  out.reserve(steps.size());
  for (int s : steps) out.push_back(rotate_hoisted(h, s, gk));
  return out;
}

}  // namespace sp::fhe
