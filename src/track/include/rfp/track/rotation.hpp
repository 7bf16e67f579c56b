#pragma once

#include <cstddef>

/// \file rotation.hpp
/// Continuous rotation sensing on top of the disentangled orientation.
/// RF-Prism's orientation solve is ambiguous by construction: a linear
/// polarization is indistinguishable from its 180-degree flip, so alpha
/// lives on [0, pi). Muralter et al. (PAPERS.md) show the same intercept
/// channel supports *continuous* rotation tracking on COTS tags: as long
/// as the platform turns less than pi/2 between fixes, the nearest mod-pi
/// representative of each new measurement is unambiguous and the per-round
/// angles unwrap into a cumulative rotation + angular rate.

namespace rfp::track {

/// The filter's process noise is a white angular-acceleration density of
/// 2e-4 rad^2/s^3; a fresh track starts with an angular-rate std-dev of
/// 0.35 rad/s, sized so the first few fixes of a spinning platform pass
/// the gate while the rate estimate is still forming (~20 deg/s admitted
/// from a cold start).
struct RotationConfig {
  /// Measurement noise: std-dev of one round's alpha estimate [rad]
  /// (the sensing pipeline's orientation accuracy; ~3 degrees).
  double measurement_sigma_rad = 0.05;

  /// Reject fixes whose squared normalized innovation exceeds this
  /// (chi-square, 1 dof; 10.8 ~ 0.1% tail).
  double gate_chi2 = 10.8;

  /// Re-anchor the track after this many consecutive gated fixes.
  std::size_t max_consecutive_rejections = 3;
};

/// Unwraps per-round mod-pi orientation fixes into cumulative angle and
/// angular rate with a 1-D constant-rate Kalman filter. The innovation is
/// the *folded* residual — the measured alpha minus the prediction,
/// mapped to the nearest representative in [-pi/2, pi/2) — so the
/// cumulative angle tracks through arbitrarily many half-turns. A gate on
/// the normalized innovation rejects gross orientation outliers; after a
/// gate storm the track re-anchors at the nearest representative of the
/// new measurement (keeping cumulative continuity) and relearns the rate.
class RotationTracker {
 public:
  explicit RotationTracker(RotationConfig config = {});

  /// Feed one orientation fix (alpha in [0, pi), as SensingResult::alpha)
  /// taken at absolute time `time_s`. Returns true when the fix was
  /// folded into the track, false when it was gated out or non-finite.
  bool update(double alpha_rad, double time_s);

  bool initialized() const { return initialized_; }

  /// Cumulative unwrapped rotation [rad] since the first fix. Congruent
  /// to the latest accepted alpha mod pi.
  double angle_rad() const { return theta_; }

  /// Angular rate estimate [rad/s]; signed.
  double rate_rad_s() const { return omega_; }

  double last_update_time_s() const { return initialized_ ? last_time_s_ : 0.0; }
  std::size_t updates() const { return updates_; }
  std::size_t rejected_in_a_row() const { return consecutive_rejections_; }

  void reset();

 private:
  void anchor(double theta, double time_s);

  RotationConfig config_;
  bool initialized_ = false;
  double last_time_s_ = 0.0;
  double theta_ = 0.0;  ///< cumulative angle [rad]
  double omega_ = 0.0;  ///< angular rate [rad/s]
  // Covariance [p_aa, p_av; p_av, p_vv].
  double p_aa_ = 0.0, p_av_ = 0.0, p_vv_ = 0.0;
  std::size_t updates_ = 0;
  std::size_t consecutive_rejections_ = 0;
};

/// Fold an angular residual to its nearest mod-pi representative in
/// [-pi/2, pi/2) — the step that makes the pi-ambiguous orientation
/// unwrappable. Exposed for tests.
double fold_mod_pi(double delta_rad);

}  // namespace rfp::track
