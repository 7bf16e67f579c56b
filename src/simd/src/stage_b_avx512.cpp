/// AVX-512F Stage-B ranking kernel: the AVX2 kernel's arithmetic eight
/// cells per vector, with mask registers for the safety tests and the
/// octant unfolding. Compiled with -mavx512f -mfma -ffp-contract=off on
/// x86-64 builds only (sign-bit logic uses the integer forms, which are
/// AVX-512F; the pd forms need DQ).

#if defined(RFP_HAVE_AVX512)

#include <immintrin.h>

#include <algorithm>
#include <limits>

#include "rfp/simd/stage_b.hpp"

namespace rfp::simd::detail {

namespace {

constexpr std::size_t kLanes = 8;

inline __m512d or_sign_of(__m512d r, __m512d y) {
  const __m512i sign = _mm512_set1_epi64(static_cast<long long>(1ULL << 63));
  return _mm512_castsi512_pd(
      _mm512_or_si512(_mm512_castpd_si512(r),
                      _mm512_and_si512(_mm512_castpd_si512(y), sign)));
}

inline __m512d atan2_poly_v(__m512d y, __m512d x) {
  const __m512d ax = _mm512_abs_pd(x);
  const __m512d ay = _mm512_abs_pd(y);
  const __m512d hi = _mm512_max_pd(ax, ay);
  const __m512d lo = _mm512_min_pd(ax, ay);
  const __mmask8 fold = _mm512_cmp_pd_mask(
      lo, _mm512_mul_pd(_mm512_set1_pd(kTanPi8), hi), _CMP_GT_OQ);
  const __m512d num = _mm512_mask_sub_pd(lo, fold, lo, hi);
  const __m512d den = _mm512_mask_add_pd(hi, fold, lo, hi);
  const __m512d t = _mm512_div_pd(num, den);
  const __m512d s = _mm512_mul_pd(t, t);
  __m512d p = _mm512_set1_pd(kAtanPoly[kAtanTerms - 1]);
  for (int k = kAtanTerms - 2; k >= 0; --k) {
    p = _mm512_fmadd_pd(p, s, _mm512_set1_pd(kAtanPoly[k]));
  }
  const __m512d pi = _mm512_set1_pd(3.14159265358979323846);
  __m512d r = _mm512_fmadd_pd(
      t, p,
      _mm512_maskz_mov_pd(fold,
                          _mm512_set1_pd(3.14159265358979323846 / 4.0)));
  r = _mm512_mask_sub_pd(r, _mm512_cmp_pd_mask(ay, ax, _CMP_GT_OQ),
                         _mm512_set1_pd(3.14159265358979323846 / 2.0), r);
  r = _mm512_mask_sub_pd(
      r, _mm512_cmp_pd_mask(x, _mm512_setzero_pd(), _CMP_LT_OQ), pi, r);
  return or_sign_of(r, y);
}

/// One block of eight cells; see the AVX2 kernel's rank_block.
inline __m512d rank_block(const OrientationLines& lines, __m512d wx,
                          __m512d wy, __m512d wz, __m512d skip_above,
                          double* scratch, __m512d* ranked) {
  const __m512d floor2 = _mm512_set1_pd(kOrientMinRay2);
  __m512d big_zr = _mm512_setzero_pd();
  __m512d big_zi = _mm512_setzero_pd();
  __mmask8 ok = 0xFF;
  for (std::size_t i = 0; i < lines.n; ++i) {
    const __m512d uw = _mm512_fmadd_pd(
        _mm512_set1_pd(lines.ux[i]), wx,
        _mm512_fmadd_pd(_mm512_set1_pd(lines.uy[i]), wy,
                        _mm512_mul_pd(_mm512_set1_pd(lines.uz[i]), wz)));
    const __m512d vw = _mm512_fmadd_pd(
        _mm512_set1_pd(lines.vx[i]), wx,
        _mm512_fmadd_pd(_mm512_set1_pd(lines.vy[i]), wy,
                        _mm512_mul_pd(_mm512_set1_pd(lines.vz[i]), wz)));
    const __m512d p = _mm512_mul_pd(uw, uw);
    const __m512d q = _mm512_mul_pd(vw, vw);
    const __m512d r2 = _mm512_add_pd(p, q);
    ok &= _mm512_cmp_pd_mask(r2, floor2, _CMP_GE_OQ);
    const __m512d inv = _mm512_div_pd(_mm512_set1_pd(1.0), r2);
    const __m512d er = _mm512_mul_pd(_mm512_sub_pd(p, q), inv);
    const __m512d ei = _mm512_mul_pd(_mm512_mul_pd(_mm512_add_pd(uw, uw), vw),
                                     inv);
    const __m512d cb = _mm512_set1_pd(lines.cos_b[i]);
    const __m512d sb = _mm512_set1_pd(lines.sin_b[i]);
    const __m512d zr = _mm512_fmadd_pd(cb, er, _mm512_mul_pd(sb, ei));
    const __m512d zi = _mm512_fmsub_pd(sb, er, _mm512_mul_pd(cb, ei));
    _mm512_storeu_pd(scratch + 2 * kLanes * i, zr);
    _mm512_storeu_pd(scratch + 2 * kLanes * i + kLanes, zi);
    big_zr = _mm512_add_pd(big_zr, zr);
    big_zi = _mm512_add_pd(big_zi, zi);
  }
  const __m512d z2 = _mm512_fmadd_pd(big_zr, big_zr,
                                     _mm512_mul_pd(big_zi, big_zi));
  ok &= _mm512_cmp_pd_mask(
      z2, _mm512_set1_pd(kOrientMinResultant * kOrientMinResultant),
      _CMP_GE_OQ);
  const double inf = std::numeric_limits<double>::infinity();
  // Lower bound 2(n − |Z|) on the cost: skip the arg pass when no safe
  // lane can come near the limit.
  const __m512d bound = _mm512_mul_pd(
      _mm512_set1_pd(2.0),
      _mm512_sub_pd(_mm512_set1_pd(static_cast<double>(lines.n)),
                    _mm512_sqrt_pd(z2)));
  const __mmask8 skip =
      _mm512_cmp_pd_mask(bound, skip_above, _CMP_GT_OQ) | __mmask8(~ok);
  if (skip == 0xFF) {
    *ranked = _mm512_mask_mov_pd(_mm512_set1_pd(-inf), ok, _mm512_set1_pd(inf));
    return _mm512_set1_pd(inf);
  }
  __m512d rank = _mm512_setzero_pd();
  for (std::size_t i = 0; i < lines.n; ++i) {
    const __m512d zr = _mm512_loadu_pd(scratch + 2 * kLanes * i);
    const __m512d zi = _mm512_loadu_pd(scratch + 2 * kLanes * i + kLanes);
    const __m512d qr = _mm512_fmadd_pd(zr, big_zr, _mm512_mul_pd(zi, big_zi));
    const __m512d qi = _mm512_fmsub_pd(zi, big_zr, _mm512_mul_pd(zr, big_zi));
    const __m512d d = atan2_poly_v(qi, qr);
    rank = _mm512_fmadd_pd(d, d, rank);
  }
  ok &= _mm512_cmp_pd_mask(
      rank, _mm512_set1_pd(std::numeric_limits<double>::max()), _CMP_LE_OQ);
  *ranked = _mm512_mask_mov_pd(_mm512_set1_pd(-inf), ok, rank);
  return _mm512_mask_mov_pd(_mm512_set1_pd(inf), ok, rank);
}

}  // namespace

double orientation_rank_run_avx512(const OrientationLines& lines,
                                   const double* wx, const double* wy,
                                   const double* wz, std::size_t count,
                                   double skip_above, double* out,
                                   double* scratch) {
  const __m512d skip = _mm512_set1_pd(skip_above);
  __m512d vmin = _mm512_set1_pd(std::numeric_limits<double>::infinity());
  std::size_t k = 0;
  for (; k + kLanes <= count; k += kLanes) {
    __m512d ranked;
    const __m512d safe =
        rank_block(lines, _mm512_loadu_pd(wx + k), _mm512_loadu_pd(wy + k),
                   _mm512_loadu_pd(wz + k), skip, scratch, &ranked);
    _mm512_storeu_pd(out + k, ranked);
    vmin = _mm512_min_pd(safe, vmin);
  }
  if (k < count) {
    // Tail: pad the block with copies of the last cell, keep real lanes.
    alignas(64) double tx[kLanes], ty[kLanes], tz[kLanes], tr[kLanes];
    for (std::size_t j = 0; j < kLanes; ++j) {
      const std::size_t src = std::min(k + j, count - 1);
      tx[j] = wx[src];
      ty[j] = wy[src];
      tz[j] = wz[src];
    }
    __m512d ranked;
    const __m512d safe =
        rank_block(lines, _mm512_load_pd(tx), _mm512_load_pd(ty),
                   _mm512_load_pd(tz), skip, scratch, &ranked);
    _mm512_store_pd(tr, ranked);
    for (std::size_t j = 0; k + j < count; ++j) out[k + j] = tr[j];
    vmin = _mm512_min_pd(safe, vmin);
  }
  alignas(64) double lanes[kLanes];
  _mm512_store_pd(lanes, vmin);
  double min = std::numeric_limits<double>::infinity();
  for (double lane : lanes) min = lane < min ? lane : min;
  return min;
}

}  // namespace rfp::simd::detail

#endif  // RFP_HAVE_AVX512
