#include <algorithm>
#include <cmath>
#include <limits>

#include "rfp/simd/stage_b.hpp"

/// Scalar Stage-B ranking kernel, its dispatcher and the error bound.
/// Compiled with -ffp-contract=off like the other scalar kernels, so the
/// rounding it does is the rounding orientation_margin() accounts for.

namespace rfp::simd {

namespace {

constexpr double kPi = 3.14159265358979323846;
constexpr double kHalfPi = kPi / 2.0;
constexpr double kQuarterPi = kPi / 4.0;

/// Cells per block: independent lanes give the out-of-order core (and the
/// auto-vectorizer, where the build lets it) parallel work across the
/// serial Horner and division chains.
constexpr std::size_t kLanes = 4;

inline double atan2_poly_inline(double y, double x) {
  // The octant selects are data-dependent and would mispredict about half
  // the time as branches, so each is a 0/1 factor instead — exact: every
  // product by 0 or 1 and every added 0 rounds to itself, leaving the
  // same arithmetic as the vector kernels' blends.
  const double ax = std::abs(x);
  const double ay = std::abs(y);
  const double hi = std::max(ax, ay);
  const double lo = std::min(ax, ay);
  const double fold = static_cast<double>(lo > detail::kTanPi8 * hi);
  const double swap = static_cast<double>(ay > ax);
  const double flip = static_cast<double>(x < 0.0);
  // fold: t = (lo − hi)/(lo + hi), atan offset π/4; else t = lo/hi.
  const double t = (lo - fold * hi) / (hi + fold * lo);
  const double s = t * t;
  double p = detail::kAtanPoly[detail::kAtanTerms - 1];
  for (int k = detail::kAtanTerms - 2; k >= 0; --k) {
    p = p * s + detail::kAtanPoly[k];
  }
  double r = t * p + fold * kQuarterPi;
  r = swap * kHalfPi + (1.0 - 2.0 * swap) * r;  // π/2 − r when swapped
  r = flip * kPi + (1.0 - 2.0 * flip) * r;      // π − r when x < 0
  return std::copysign(r, y);
}

/// One block of kLanes cells (w arrays of kLanes entries) into `out`:
/// rank at safe cells, −inf at unsafe ones, +inf at safe cells whose
/// lower bound 2(n − |Z|) exceeds `skip_above` when every safe lane of
/// the block does (the arg pass is then skipped). Scratch holds z_i per
/// line and lane.
void rank_block(const OrientationLines& lines, const double* wx,
                const double* wy, const double* wz, double skip_above,
                double* scratch, double* out) {
  constexpr double kInf = std::numeric_limits<double>::infinity();
  double big_zr[kLanes] = {};
  double big_zi[kLanes] = {};
  bool ok[kLanes];
  for (std::size_t j = 0; j < kLanes; ++j) ok[j] = true;
  for (std::size_t i = 0; i < lines.n; ++i) {
    double* zr = scratch + 2 * kLanes * i;
    double* zi = zr + kLanes;
    for (std::size_t j = 0; j < kLanes; ++j) {
      const double uw =
          lines.ux[i] * wx[j] + lines.uy[i] * wy[j] + lines.uz[i] * wz[j];
      const double vw =
          lines.vx[i] * wx[j] + lines.vy[i] * wy[j] + lines.vz[i] * wz[j];
      const double p = uw * uw;
      const double q = vw * vw;
      const double r2 = p + q;
      ok[j] = ok[j] & (r2 >= kOrientMinRay2);
      // e^{-i·orient} = (c − i·s) / r2 with c = uw² − vw², s = 2·uw·vw.
      const double inv = 1.0 / r2;
      const double er = (p - q) * inv;
      const double ei = ((uw + uw) * vw) * inv;
      // z = e^{i b}·e^{-i orient} = (cb + i sb)(er − i ei).
      zr[j] = lines.cos_b[i] * er + lines.sin_b[i] * ei;
      zi[j] = lines.sin_b[i] * er - lines.cos_b[i] * ei;
      big_zr[j] += zr[j];
      big_zi[j] += zi[j];
    }
  }
  const double n = static_cast<double>(lines.n);
  const double z_floor2 = kOrientMinResultant * kOrientMinResultant;
  bool skip = true;
  for (std::size_t j = 0; j < kLanes; ++j) {
    const double z2 = big_zr[j] * big_zr[j] + big_zi[j] * big_zi[j];
    ok[j] = ok[j] & (z2 >= z_floor2);
    skip = skip & (!ok[j] | (2.0 * (n - std::sqrt(z2)) > skip_above));
  }
  if (skip) {
    for (std::size_t j = 0; j < kLanes; ++j) out[j] = ok[j] ? kInf : -kInf;
    return;
  }
  double rank[kLanes] = {};
  for (std::size_t i = 0; i < lines.n; ++i) {
    const double* zr = scratch + 2 * kLanes * i;
    const double* zi = zr + kLanes;
    for (std::size_t j = 0; j < kLanes; ++j) {
      // z_i·conj(Z) = (zr·Zr + zi·Zi) + i·(zi·Zr − zr·Zi).
      const double qr = zr[j] * big_zr[j] + zi[j] * big_zi[j];
      const double qi = zi[j] * big_zr[j] - zr[j] * big_zi[j];
      const double d = atan2_poly_inline(qi, qr);
      rank[j] += d * d;
    }
  }
  for (std::size_t j = 0; j < kLanes; ++j) {
    const bool safe = ok[j] && rank[j] <= std::numeric_limits<double>::max();
    out[j] = safe ? rank[j] : -kInf;
  }
}

}  // namespace

double atan2_poly(double y, double x) { return atan2_poly_inline(y, x); }

double orientation_margin(std::size_t n_lines, double max_abs_intercept) {
  // Error budget in units of u = 2^-53 (DESIGN.md "Stage-B ranked scan"),
  // at the worst safe cell: |(uw, vw)| ≥ rho_min, |Z| ≥ z_min. Each line
  // of the canonical (c) and ranking (s) chains is an upper bound on the
  // circular error of that quantity against exact arithmetic on the same
  // double inputs.
  constexpr double u = 0x1p-53;
  const double n = static_cast<double>(n_lines);
  const double inv_rho = 1.0 / std::sqrt(kOrientMinRay2);
  const double inv_z = 1.0 / kOrientMinResultant;
  const double sqrt2 = std::sqrt(2.0);
  // orient = 2·arg(uw + i·vw): (uw, vw) each within 5.01u (3.01u of dot
  // product rounding, 2u for a w table an ulp off the canonical w per
  // component), so the doubled angle moves ≤ 2·√2·5.01u/rho; plus
  // forming (c, s) and libm atan2.
  const double orient = 14.2 * u * inv_rho + 7.3 * u;
  // a_i = wrap_to_2pi(b_i − orient): subtraction, fmod against the
  // rounded 2π and the final add scale with |b_i|.
  const double a_c = orient + (2.0 * max_abs_intercept + 21.0) * u;
  // Σ (sin a_i, cos a_i) with libm sin/cos and n-term summation.
  const double big_z_c = sqrt2 * (n * (a_c + 2.0 * u) + n * n * u);
  // bt = atan2(S, C), wrapped; then ang_diff's three roundings.
  const double d_c = a_c + 1.0001 * big_z_c * inv_z + 60.0 * u;
  // Ranking chain: z_i off e^{i(b_i − orient_i)} by the (uw, vw) angle
  // error plus the unit-vector, e^{i b} and complex-product roundings.
  const double z_s = 14.2 * u * inv_rho + 16.6 * u;
  const double big_z_s = n * z_s + sqrt2 * n * n * u;
  const double d_s = 1.0001 * (z_s + big_z_s * inv_z + 3.0 * u) +
                     kAtan2MaxError;
  // d² is 2π-Lipschitz on the circle; squares and the n-term sums round
  // once more on each side. Doubled for safety.
  const double d = d_c + d_s;
  return 2.0 * (2.0 * kPi * n * d + n * d * d +
                2.0 * (n + 1.0) * n * kPi * kPi * u);
}

namespace detail {

double orientation_rank_run_scalar(const OrientationLines& lines,
                                   const double* wx, const double* wy,
                                   const double* wz, std::size_t count,
                                   double skip_above, double* out,
                                   double* scratch) {
  double min = std::numeric_limits<double>::infinity();
  double bx[kLanes], by[kLanes], bz[kLanes], rank[kLanes];
  for (std::size_t k = 0; k < count; k += kLanes) {
    // A short last block repeats its final cell in the spare lanes.
    for (std::size_t j = 0; j < kLanes; ++j) {
      const std::size_t src = std::min(k + j, count - 1);
      bx[j] = wx[src];
      by[j] = wy[src];
      bz[j] = wz[src];
    }
    rank_block(lines, bx, by, bz, skip_above, scratch, rank);
    for (std::size_t j = 0; j < kLanes && k + j < count; ++j) {
      out[k + j] = rank[j];
      if (rank[j] > -std::numeric_limits<double>::infinity() &&
          rank[j] < min) {
        min = rank[j];
      }
    }
  }
  return min;
}

}  // namespace detail

double orientation_rank_run(Level level, const OrientationLines& lines,
                            const double* wx, const double* wy,
                            const double* wz, std::size_t count,
                            double skip_above, double* out, double* scratch) {
#if defined(RFP_HAVE_AVX512)
  if (level == Level::kAvx512) {
    return detail::orientation_rank_run_avx512(lines, wx, wy, wz, count,
                                               skip_above, out, scratch);
  }
#endif
#if defined(RFP_HAVE_AVX2)
  if (level == Level::kAvx2) {
    return detail::orientation_rank_run_avx2(lines, wx, wy, wz, count,
                                             skip_above, out, scratch);
  }
#endif
  (void)level;
  return detail::orientation_rank_run_scalar(lines, wx, wy, wz, count,
                                             skip_above, out, scratch);
}

}  // namespace rfp::simd
