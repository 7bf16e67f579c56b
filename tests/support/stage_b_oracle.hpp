#pragma once

/// Test oracle for Stage B: the canonical full orientation scan, written
/// out from the public circular/frame primitives exactly as the solver's
/// intercept cost composes them. Every cell of the scan grid is scored
/// canonically and the strict-< scan-order argmin is kept, followed by
/// the 2D golden-section refinement — either the solver's early-stopping
/// form or the fixed 40 iterations of its pre-early-stop predecessor.
/// The solver's ranked scan must reproduce this oracle bit for bit.

#include <algorithm>
#include <cmath>
#include <limits>
#include <span>
#include <vector>

#include "rfp/common/angles.hpp"
#include "rfp/common/constants.hpp"
#include "rfp/common/error.hpp"
#include "rfp/core/disentangle.hpp"
#include "rfp/geom/frame.hpp"

namespace rfp::testutil {

struct OracleCost {
  double bt = 0.0;
  double rss = 0.0;
};

/// Canonical intercept cost at polarization `w` over ray frames `ray`.
/// `residual` is caller-owned scratch (resized to the line count), so a
/// scan of many cells allocates nothing per cell.
inline OracleCost oracle_intercept_cost(std::span<const OrthoFrame> ray,
                                        std::span<const double> intercept,
                                        Vec3 w, std::vector<double>& residual) {
  residual.resize(ray.size());
  for (std::size_t i = 0; i < ray.size(); ++i) {
    residual[i] = wrap_to_2pi(intercept[i] - polarization_phase(ray[i], w));
  }
  OracleCost out;
  out.bt = wrap_to_2pi(circular_mean(residual));
  for (double a : residual) {
    const double r = ang_diff(a, out.bt);
    out.rss += r * r;
  }
  return out;
}

/// The canonical solve_orientation: dense scan of every cell, then (2D)
/// golden-section refinement. `fixed_refine` runs all 40 refinement
/// iterations regardless of config.orientation_refine_tol_rad.
inline OrientationSolve oracle_solve_orientation(
    const DeploymentGeometry& geometry, std::span<const AntennaLine> lines,
    Vec3 tag_position, const DisentangleConfig& config,
    bool fixed_refine = false) {
  std::vector<OrthoFrame> ray;
  std::vector<double> intercept;
  for (const AntennaLine& line : lines) {
    if (line.fit.n < 3) continue;
    ray.push_back(propagation_adjusted_frame(
        geometry.antenna_frames[line.antenna],
        geometry.antenna_positions[line.antenna], tag_position));
    intercept.push_back(line.fit.intercept);
  }
  require(ray.size() >= 3, "oracle_solve_orientation: need >= 3 lines");
  const bool mode_3d = config.grid_nz > 1;
  const std::size_t az_steps = config.orientation_scan_steps;
  const std::size_t el_steps = std::max<std::size_t>(az_steps / 2, 4);

  OrientationSolve best;
  double best_rss = std::numeric_limits<double>::infinity();
  std::vector<double> residual;
  const auto consider = [&](double alpha, Vec3 w) {
    const OracleCost c = oracle_intercept_cost(ray, intercept, w, residual);
    if (c.rss < best_rss) {
      best_rss = c.rss;
      best.alpha = alpha;
      best.polarization = w;
      best.bt = c.bt;
    }
  };
  for (std::size_t ia = 0; ia < az_steps; ++ia) {
    const double alpha =
        kPi * static_cast<double>(ia) / static_cast<double>(az_steps);
    if (!mode_3d) {
      consider(alpha, planar_polarization(alpha));
      continue;
    }
    for (std::size_t ie = 0; ie < el_steps; ++ie) {
      const double elevation =
          -kPi / 2.0 +
          kPi * static_cast<double>(ie) / static_cast<double>(el_steps - 1);
      consider(alpha, spherical_polarization(alpha, elevation));
    }
  }

  if (!mode_3d) {
    double lo = best.alpha - kPi / static_cast<double>(az_steps);
    double hi = best.alpha + kPi / static_cast<double>(az_steps);
    for (int iter = 0; iter < 40; ++iter) {
      if (!fixed_refine && hi - lo <= config.orientation_refine_tol_rad) {
        break;
      }
      const double m1 = lo + (hi - lo) * 0.382;
      const double m2 = lo + (hi - lo) * 0.618;
      const double c1 = oracle_intercept_cost(
                            ray, intercept, planar_polarization(m1), residual)
                            .rss;
      const double c2 = oracle_intercept_cost(
                            ray, intercept, planar_polarization(m2), residual)
                            .rss;
      if (c1 < c2) {
        hi = m2;
      } else {
        lo = m1;
      }
    }
    const double alpha = wrap_to_2pi((lo + hi) / 2.0);
    best.alpha = alpha >= kPi ? alpha - kPi : alpha;
    best.polarization = planar_polarization(best.alpha);
    const OracleCost c =
        oracle_intercept_cost(ray, intercept, best.polarization, residual);
    best.bt = c.bt;
    best_rss = c.rss;
  }
  best.rms = std::sqrt(best_rss / static_cast<double>(ray.size()));
  return best;
}

}  // namespace rfp::testutil
