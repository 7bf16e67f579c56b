#pragma once

#include <cstdint>

#include "rfp/core/types.hpp"

/// \file fitting.hpp
/// Per-antenna multi-frequency linear fitting (paper Eq. 6) with the
/// multipath channel selection of §V-D.
///
/// COTS readers report phase with two ambiguities: every reading is modulo
/// 2*pi, and a per-read demodulation ambiguity can add pi. Sequential
/// unwrapping is fragile against both (one corrupted or mis-corrected
/// channel folds everything after it), so the fitter searches for the line
/// directly in the mod-pi domain:
///
///  1. RANSAC over channel pairs: each pair + a small set of feasible
///     pi/delta_f slope offsets proposes a line; channels whose mod-pi
///     residual is small vote for it.
///  2. The winning hypothesis is refined by congruence-snapping all
///     channels onto the line (period pi) and re-fitting on inliers.
///  3. A parity vote (is each raw channel phase ~0 or ~pi away from the
///     fitted line, mod 2*pi?) restores the intercept modulo 2*pi.
///
/// Multipath-corrupted channels simply never become inliers — which is
/// exactly the paper's "pick up the relatively clean channels" selection.

namespace rfp {

struct FittingConfig {
  /// Enable robust channel selection (the "Multipath+" mode of paper
  /// Fig. 12). When false a plain least-squares fit over a naive
  /// sequential unwrap is used — the degraded "Multipath" mode.
  bool multipath_suppression = true;

  /// Physical bounds on the total slope k = 4*pi*d/c + kt [rad/Hz]; used
  /// to prune RANSAC slope hypotheses. Defaults cover d in (0, ~7 m) and
  /// |kt| up to 2e-8.
  double slope_min = 0.0;
  double slope_max = 3.2e-7;

  /// RANSAC sampling seed (deterministic fits).
  std::uint64_t seed = 0x52414E53;
};

/// Fit one antenna's trace. Requires >= 3 channels and consistent array
/// sizes; throws InvalidArgument otherwise. The returned line's intercept
/// is correct modulo 2*pi (parity resolved); residuals cover all channels
/// (outliers included, measured against the final line after congruence
/// snapping).
AntennaLine fit_antenna_line(const AntennaTrace& trace,
                             const FittingConfig& config);

/// Fit every antenna of a round. Traces with fewer than 3 channels yield
/// an AntennaLine with zero inlier channels (callers treat those antennas
/// as unusable).
std::vector<AntennaLine> fit_all_antennas(
    const std::vector<AntennaTrace>& traces, const FittingConfig& config);

}  // namespace rfp
