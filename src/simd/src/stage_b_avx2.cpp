/// AVX2+FMA Stage-B ranking kernel: four cells per vector, lines walked
/// twice per block (residuals z_i parked in the caller's scratch, then
/// arg(z_i·conj Z) through a vector polynomial atan2). Compiled with
/// -mavx2 -mfma -ffp-contract=off on x86-64 builds only; the dispatching
/// entry point never routes here unless cpuid said the instructions exist.

#if defined(RFP_HAVE_AVX2)

#include <immintrin.h>

#include <algorithm>
#include <limits>

#include "rfp/simd/stage_b.hpp"

namespace rfp::simd::detail {

namespace {

constexpr std::size_t kLanes = 4;

/// Lane-wise atan2_poly: the same reduction, polynomial and unfolding as
/// the scalar reference, with fused Horner steps.
inline __m256d atan2_poly_v(__m256d y, __m256d x) {
  const __m256d sign = _mm256_set1_pd(-0.0);
  const __m256d ax = _mm256_andnot_pd(sign, x);
  const __m256d ay = _mm256_andnot_pd(sign, y);
  const __m256d hi = _mm256_max_pd(ax, ay);
  const __m256d lo = _mm256_min_pd(ax, ay);
  const __m256d fold = _mm256_cmp_pd(
      lo, _mm256_mul_pd(_mm256_set1_pd(kTanPi8), hi), _CMP_GT_OQ);
  const __m256d num = _mm256_blendv_pd(lo, _mm256_sub_pd(lo, hi), fold);
  const __m256d den = _mm256_blendv_pd(hi, _mm256_add_pd(lo, hi), fold);
  const __m256d t = _mm256_div_pd(num, den);
  const __m256d s = _mm256_mul_pd(t, t);
  __m256d p = _mm256_set1_pd(kAtanPoly[kAtanTerms - 1]);
  for (int k = kAtanTerms - 2; k >= 0; --k) {
    p = _mm256_fmadd_pd(p, s, _mm256_set1_pd(kAtanPoly[k]));
  }
  const __m256d pi = _mm256_set1_pd(3.14159265358979323846);
  __m256d r = _mm256_fmadd_pd(
      t, p, _mm256_and_pd(fold, _mm256_set1_pd(3.14159265358979323846 / 4.0)));
  r = _mm256_blendv_pd(
      r, _mm256_sub_pd(_mm256_set1_pd(3.14159265358979323846 / 2.0), r),
      _mm256_cmp_pd(ay, ax, _CMP_GT_OQ));
  r = _mm256_blendv_pd(r, _mm256_sub_pd(pi, r),
                       _mm256_cmp_pd(x, _mm256_setzero_pd(), _CMP_LT_OQ));
  // r >= 0 here, so OR-ing y's sign bit is copysign.
  return _mm256_or_pd(r, _mm256_and_pd(sign, y));
}

/// One block of four cells: writes the ranks (−inf where unsafe, +inf
/// where the block's lower bounds all clear skip_above) and returns them
/// with unsafe lanes as +inf for the running minimum.
inline __m256d rank_block(const OrientationLines& lines, __m256d wx,
                          __m256d wy, __m256d wz, __m256d skip_above,
                          double* scratch, __m256d* ranked) {
  const __m256d floor2 = _mm256_set1_pd(kOrientMinRay2);
  __m256d big_zr = _mm256_setzero_pd();
  __m256d big_zi = _mm256_setzero_pd();
  __m256d ok = _mm256_castsi256_pd(_mm256_set1_epi64x(-1));
  for (std::size_t i = 0; i < lines.n; ++i) {
    const __m256d uw = _mm256_fmadd_pd(
        _mm256_set1_pd(lines.ux[i]), wx,
        _mm256_fmadd_pd(_mm256_set1_pd(lines.uy[i]), wy,
                        _mm256_mul_pd(_mm256_set1_pd(lines.uz[i]), wz)));
    const __m256d vw = _mm256_fmadd_pd(
        _mm256_set1_pd(lines.vx[i]), wx,
        _mm256_fmadd_pd(_mm256_set1_pd(lines.vy[i]), wy,
                        _mm256_mul_pd(_mm256_set1_pd(lines.vz[i]), wz)));
    const __m256d p = _mm256_mul_pd(uw, uw);
    const __m256d q = _mm256_mul_pd(vw, vw);
    const __m256d r2 = _mm256_add_pd(p, q);
    ok = _mm256_and_pd(ok, _mm256_cmp_pd(r2, floor2, _CMP_GE_OQ));
    const __m256d inv = _mm256_div_pd(_mm256_set1_pd(1.0), r2);
    const __m256d er = _mm256_mul_pd(_mm256_sub_pd(p, q), inv);
    const __m256d ei = _mm256_mul_pd(_mm256_mul_pd(_mm256_add_pd(uw, uw), vw),
                                     inv);
    const __m256d cb = _mm256_set1_pd(lines.cos_b[i]);
    const __m256d sb = _mm256_set1_pd(lines.sin_b[i]);
    const __m256d zr = _mm256_fmadd_pd(cb, er, _mm256_mul_pd(sb, ei));
    const __m256d zi = _mm256_fmsub_pd(sb, er, _mm256_mul_pd(cb, ei));
    _mm256_storeu_pd(scratch + 2 * kLanes * i, zr);
    _mm256_storeu_pd(scratch + 2 * kLanes * i + kLanes, zi);
    big_zr = _mm256_add_pd(big_zr, zr);
    big_zi = _mm256_add_pd(big_zi, zi);
  }
  const __m256d z2 = _mm256_fmadd_pd(big_zr, big_zr,
                                     _mm256_mul_pd(big_zi, big_zi));
  ok = _mm256_and_pd(
      ok, _mm256_cmp_pd(z2,
                        _mm256_set1_pd(kOrientMinResultant *
                                       kOrientMinResultant),
                        _CMP_GE_OQ));
  const __m256d inf = _mm256_set1_pd(std::numeric_limits<double>::infinity());
  const __m256d neg_inf = _mm256_sub_pd(_mm256_setzero_pd(), inf);
  // Lower bound 2(n − |Z|) on the cost: skip the arg pass when no safe
  // lane can come near the limit.
  const __m256d bound = _mm256_mul_pd(
      _mm256_set1_pd(2.0),
      _mm256_sub_pd(_mm256_set1_pd(static_cast<double>(lines.n)),
                    _mm256_sqrt_pd(z2)));
  const __m256d skip = _mm256_or_pd(
      _mm256_cmp_pd(bound, skip_above, _CMP_GT_OQ),
      _mm256_xor_pd(ok, _mm256_castsi256_pd(_mm256_set1_epi64x(-1))));
  if (_mm256_movemask_pd(skip) == 0xF) {
    *ranked = _mm256_blendv_pd(neg_inf, inf, ok);
    return inf;
  }
  __m256d rank = _mm256_setzero_pd();
  for (std::size_t i = 0; i < lines.n; ++i) {
    const __m256d zr = _mm256_loadu_pd(scratch + 2 * kLanes * i);
    const __m256d zi = _mm256_loadu_pd(scratch + 2 * kLanes * i + kLanes);
    const __m256d qr = _mm256_fmadd_pd(zr, big_zr, _mm256_mul_pd(zi, big_zi));
    const __m256d qi = _mm256_fmsub_pd(zi, big_zr, _mm256_mul_pd(zr, big_zi));
    const __m256d d = atan2_poly_v(qi, qr);
    rank = _mm256_fmadd_pd(d, d, rank);
  }
  ok = _mm256_and_pd(
      ok, _mm256_cmp_pd(rank,
                        _mm256_set1_pd(std::numeric_limits<double>::max()),
                        _CMP_LE_OQ));
  *ranked = _mm256_blendv_pd(neg_inf, rank, ok);
  return _mm256_blendv_pd(inf, rank, ok);
}

}  // namespace

double orientation_rank_run_avx2(const OrientationLines& lines,
                                 const double* wx, const double* wy,
                                 const double* wz, std::size_t count,
                                 double skip_above, double* out,
                                 double* scratch) {
  const __m256d skip = _mm256_set1_pd(skip_above);
  __m256d vmin = _mm256_set1_pd(std::numeric_limits<double>::infinity());
  std::size_t k = 0;
  for (; k + kLanes <= count; k += kLanes) {
    __m256d ranked;
    const __m256d safe =
        rank_block(lines, _mm256_loadu_pd(wx + k), _mm256_loadu_pd(wy + k),
                   _mm256_loadu_pd(wz + k), skip, scratch, &ranked);
    _mm256_storeu_pd(out + k, ranked);
    vmin = _mm256_min_pd(safe, vmin);
  }
  if (k < count) {
    // Tail: pad the block with copies of the last cell, keep real lanes.
    alignas(32) double tx[kLanes], ty[kLanes], tz[kLanes], tr[kLanes];
    for (std::size_t j = 0; j < kLanes; ++j) {
      const std::size_t src = std::min(k + j, count - 1);
      tx[j] = wx[src];
      ty[j] = wy[src];
      tz[j] = wz[src];
    }
    __m256d ranked;
    const __m256d safe =
        rank_block(lines, _mm256_load_pd(tx), _mm256_load_pd(ty),
                   _mm256_load_pd(tz), skip, scratch, &ranked);
    _mm256_store_pd(tr, ranked);
    for (std::size_t j = 0; k + j < count; ++j) out[k + j] = tr[j];
    vmin = _mm256_min_pd(safe, vmin);
  }
  alignas(32) double lanes[kLanes];
  _mm256_store_pd(lanes, vmin);
  double min = std::numeric_limits<double>::infinity();
  for (double lane : lanes) min = lane < min ? lane : min;
  return min;
}

}  // namespace rfp::simd::detail

#endif  // RFP_HAVE_AVX2
