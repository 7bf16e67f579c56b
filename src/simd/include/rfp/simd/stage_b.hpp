#pragma once

#include <cstddef>

#include "rfp/simd/dispatch.hpp"

/// \file stage_b.hpp
/// Trig-free ranking kernel for the Stage-B orientation scan (DESIGN.md
/// "Stage-B ranked scan"). The canonical per-cell cost
///
///   orient_i = atan2(2·uw·vw, uw² − vw²)        (paper Eq. 4)
///   a_i      = b_i − orient_i,   bt = arg Σ e^{i a_i}
///   rss(w)   = Σ_i wrap(a_i − bt)²
///
/// (uw = u_i·w, vw = v_i·w over the propagation-adjusted frame of line i)
/// spends ~5 atan2, 8 sin/cos and ~10 fmod per line per cell. Eq. 4's
/// double-angle form gives each line's unit residual without any trig:
///
///   z_i = e^{i b_i} · ((uw² − vw²) − i·2·uw·vw) / (uw² + vw²)
///   Z   = Σ z_i,    d_i = arg(z_i · conj Z),    rank(w) = Σ d_i²
///
/// with e^{i b_i} computed once per solve and arg() a polynomial atan2
/// (max error kAtan2MaxError). rank(w) equals rss(w) up to rounding, and
/// orientation_margin() bounds |rank − rss| at every *safe* cell; the
/// solver re-scores canonically every cell within twice that bound of
/// the ranking minimum plus every unsafe cell, so its reported values are
/// byte-identical to the full canonical scan's.
///
/// Unlike the factored Stage-A kernels, the levels are *not* bit-identical
/// to each other (the vector paths fuse multiply-adds the scalar path
/// rounds twice); each level is within orientation_margin() of the
/// canonical cost, which is all the certified re-score needs.

namespace rfp::simd {

/// Per-solve Stage-B inputs over the n usable lines, struct-of-arrays:
/// the propagation-adjusted frame axes u_i, v_i at the tag position and
/// e^{i b_i} of every fitted intercept. Pointers borrow from the caller
/// and must stay valid for the call.
struct OrientationLines {
  std::size_t n = 0;
  const double* ux = nullptr;
  const double* uy = nullptr;
  const double* uz = nullptr;
  const double* vx = nullptr;
  const double* vy = nullptr;
  const double* vz = nullptr;
  const double* cos_b = nullptr;  ///< cos(b_i)
  const double* sin_b = nullptr;  ///< sin(b_i)
};

/// A cell is *unsafe* — ranked −inf, so the solver always re-scores it —
/// when any line's uw² + vw² is below kOrientMinRay2 (w within ~1e-3 rad
/// of that line's ray, where Eq. 4 is ill-conditioned and
/// polarization_phase's 1e-15 guard lives), when |Z| is below
/// kOrientMinResultant (bt ill-conditioned; circular_mean throws below
/// 1e-12), or when the rank is not finite (NaN/Inf inputs).
inline constexpr double kOrientMinRay2 = 1e-6;
inline constexpr double kOrientMinResultant = 1e-3;

/// Maximum absolute error of atan2_poly [rad] at every level, rounding
/// included: an odd degree-15 polynomial on |t| ≤ tan(π/8) after the
/// octant reduction (approximation error ≤ 3.1e-13) plus ≤ 3e-15 of
/// rounding through the reduction, the Horner chain and the octant
/// unfolding; measured ≤ 2.8e-13. Its share of the ranking margin is
/// ~3e-5: the conditioning terms dominate that budget.
inline constexpr double kAtan2MaxError = 4e-13;

/// Scratch doubles orientation_rank_run needs per line (per-lane z_i).
inline constexpr std::size_t kOrientScratchPerLine = 16;

namespace detail {

/// atan(t)/t = Σ_k kAtanPoly[k]·t^{2k} on t² ∈ [0, tan²(π/8)]: an
/// 8-term Chebyshev fit (max error 7.5e-13), coefficients lowest first.
inline constexpr int kAtanTerms = 8;
inline constexpr double kAtanPoly[kAtanTerms] = {
    0.9999999999992447,   -0.33333333276922494, 0.19999993053555815,
    -0.14285386553752139, 0.11103456908947464,  -0.08992552906150912,
    0.06974197686595265,  -0.03765510601291402,
};
inline constexpr double kTanPi8 = 0.41421356237309503;

}  // namespace detail

/// Polynomial atan2 (scalar reference of the kernels' arg()): octant
/// reduction to t = min/max ∈ [0, 1], then t > tan(π/8) folds to
/// (min − max)/(min + max) with a π/4 offset — one division either way.
/// |atan2_poly(y, x) − atan2(y, x)| ≤ kAtan2MaxError for finite (y, x) not
/// both zero; the branch cut (y = ±0, x < 0) may land on either ±π.
double atan2_poly(double y, double x);

/// Conservative bound on |rank(w) − rss(w)| at any safe cell of a round
/// with `n_lines` lines whose intercepts satisfy |b_i| ≤
/// `max_abs_intercept` (DESIGN.md derives it term by term). Returns a
/// non-finite value when the intercept bound is not finite.
double orientation_margin(std::size_t n_lines, double max_abs_intercept);

/// Rank the cells w_k = (wx[k], wy[k], wz[k]), k in [0, count), into
/// out[k]: the surrogate cost at safe cells, −inf at unsafe cells.
/// Returns the minimum over the safe cells (+inf when none is safe).
/// `scratch` must hold kOrientScratchPerLine·lines.n doubles.
///
/// Early out: since d² ≥ 2(1 − cos d) on [−π, π] and Σ cos d_i = |Z|,
/// every cell's canonical cost is at least 2(n − |Z|) up to rounding. A
/// block of cells whose safe cells all have 2(n − |Z|) > skip_above skips
/// the arg pass and writes +inf there instead of the rank; such a cell's
/// canonical cost exceeds skip_above − orientation_margin(n, max |b_i|).
/// Pass +inf to rank every cell.
double orientation_rank_run(Level level, const OrientationLines& lines,
                            const double* wx, const double* wy,
                            const double* wz, std::size_t count,
                            double skip_above, double* out, double* scratch);

namespace detail {
double orientation_rank_run_scalar(const OrientationLines& lines,
                                   const double* wx, const double* wy,
                                   const double* wz, std::size_t count,
                                   double skip_above, double* out,
                                   double* scratch);
/// Defined only when the build compiles the matching translation unit;
/// never call directly — route through orientation_rank_run.
double orientation_rank_run_avx2(const OrientationLines& lines,
                                 const double* wx, const double* wy,
                                 const double* wz, std::size_t count,
                                 double skip_above, double* out,
                                 double* scratch);
double orientation_rank_run_avx512(const OrientationLines& lines,
                                   const double* wx, const double* wy,
                                   const double* wz, std::size_t count,
                                   double skip_above, double* out,
                                   double* scratch);
}  // namespace detail

}  // namespace rfp::simd
