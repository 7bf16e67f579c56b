#include "rfp/track/rotation.hpp"

#include <cmath>

#include "rfp/common/constants.hpp"
#include "rfp/common/error.hpp"

namespace rfp::track {

namespace {

// Process noise and cold-start rate uncertainty; see RotationConfig.
constexpr double kRateDensity = 2e-4;            // [rad^2/s^3]
constexpr double kInitialRateSigmaRadS = 0.35;  // [rad/s]

}  // namespace

double fold_mod_pi(double delta_rad) {
  double r = std::fmod(delta_rad, kPi);  // (-pi, pi), sign of delta_rad
  if (r < -kPi / 2.0) {
    r += kPi;
  } else if (r >= kPi / 2.0) {
    r -= kPi;
  }
  return r;
}

RotationTracker::RotationTracker(RotationConfig config) : config_(config) {
  require(config_.measurement_sigma_rad > 0.0 && config_.gate_chi2 > 0.0,
          "RotationTracker: parameters must be positive");
}

void RotationTracker::anchor(double theta, double time_s) {
  theta_ = theta;
  omega_ = 0.0;
  const double r = config_.measurement_sigma_rad * config_.measurement_sigma_rad;
  p_aa_ = r;
  p_av_ = 0.0;
  p_vv_ = kInitialRateSigmaRadS * kInitialRateSigmaRadS;
  last_time_s_ = time_s;
  initialized_ = true;
  updates_ = 1;
  consecutive_rejections_ = 0;
}

bool RotationTracker::update(double alpha_rad, double time_s) {
  if (!std::isfinite(alpha_rad)) return false;

  if (!initialized_) {
    anchor(alpha_rad, time_s);
    return true;
  }
  const double dt = time_s - last_time_s_;
  require(dt >= 0.0, "RotationTracker::update: time went backwards");

  // ---- Predict ----------------------------------------------------------
  const double q = kRateDensity;
  const double p_aa = p_aa_ + 2.0 * dt * p_av_ + dt * dt * p_vv_ +
                      q * dt * dt * dt / 3.0;
  const double p_av = p_av_ + dt * p_vv_ + q * dt * dt / 2.0;
  const double p_vv = p_vv_ + q * dt;
  const double pred = theta_ + dt * omega_;

  // ---- Unwrap + gate ----------------------------------------------------
  // The measurement is pi-ambiguous; the innovation is the residual to
  // the *nearest* representative of the measured angle.
  const double d = fold_mod_pi(alpha_rad - pred);
  const double r = config_.measurement_sigma_rad * config_.measurement_sigma_rad;
  const double s = p_aa + r;
  const double nis = d * d / s;
  if (nis > config_.gate_chi2) {
    ++consecutive_rejections_;
    if (consecutive_rejections_ >= config_.max_consecutive_rejections) {
      // Lost lock (platform accelerated past the gate, or a run of bad
      // orientations). Re-anchor at the nearest representative of the
      // new measurement so the cumulative count stays continuous, and
      // relearn the rate from scratch.
      anchor(pred + d, time_s);
      return true;
    }
    return false;
  }
  consecutive_rejections_ = 0;

  // ---- Update -----------------------------------------------------------
  const double k_a = p_aa / s;
  const double k_v = p_av / s;
  theta_ = pred + k_a * d;
  omega_ = omega_ + k_v * d;
  p_aa_ = (1.0 - k_a) * p_aa;
  p_av_ = (1.0 - k_a) * p_av;
  p_vv_ = p_vv - k_v * p_av;

  last_time_s_ = time_s;
  ++updates_;
  return true;
}

void RotationTracker::reset() {
  initialized_ = false;
  theta_ = 0.0;
  omega_ = 0.0;
  updates_ = 0;
  consecutive_rejections_ = 0;
}

}  // namespace rfp::track
