#include "rfp/core/drift.hpp"

#include <cmath>
#include <utility>

#include "rfp/common/angles.hpp"
#include "rfp/common/constants.hpp"
#include "rfp/common/error.hpp"
#include "rfp/core/calibration.hpp"
#include "rfp/dsp/stats.hpp"
#include "rfp/geom/frame.hpp"

namespace rfp {

namespace {

/// Absolute innovation-scale floors of the MAD gate — a clean simulated
/// round has near-zero MAD, and the gate must not reject honest noise.
constexpr double kMinSigmaSlope = 5e-10;     // [rad/Hz]
constexpr double kMinSigmaIntercept = 0.02;  // [rad]

/// Re-survey alarm (see DriftEstimator): base thresholds on the
/// accumulated per-port correction, their growth in spread units, and the
/// fraction of the grown threshold below which a latched alarm clears.
constexpr double kAlarmSlope = 8e-9;      // [rad/Hz]
constexpr double kAlarmIntercept = 0.35;  // [rad]
constexpr double kAlarmConfidence = 3.0;
constexpr double kAlarmClearFraction = 0.5;

/// Robust sigma of a set of innovations: scaled MAD, floored so a clean
/// (near-zero-MAD) round cannot gate honest noise away.
double robust_sigma(std::span<const double> values, double floor_sigma) {
  const double scaled = 1.4826 * mad(values);
  return std::max(scaled, floor_sigma);
}

}  // namespace

DriftEstimator::DriftEstimator(std::size_t n_antennas, DriftConfig config)
    : config_(std::move(config)) {
  require(n_antennas > 0, "DriftEstimator: need at least one antenna");
  require(config_.ema_alpha > 0.0 && config_.ema_alpha <= 1.0,
          "DriftEstimator: ema_alpha must be in (0, 1]");
  require(config_.warmup_rounds >= 1,
          "DriftEstimator: warmup_rounds must be >= 1");
  require(config_.mad_gate > 0.0, "DriftEstimator: mad_gate must be positive");
  require(config_.max_correct_slope > 0.0 &&
              config_.max_correct_intercept > 0.0,
          "DriftEstimator: correctable bounds must be positive");
  state_.resize(n_antennas);
}

void DriftEstimator::observe(const SensingResult& result,
                             const DeploymentGeometry& geometry,
                             const ReferencePose* reference) {
  if (!config_.enable) return;
  const std::size_t na = state_.size();
  // With a known reference pose the residuals do not depend on the solve,
  // so even a rejected round's lines are usable — the estimator keeps
  // learning while drift is bad enough to fail the error detector.
  const bool pose_known = reference != nullptr;
  if ((!pose_known && !result.valid) || geometry.n_antennas() != na) {
    ++stats_.rounds_skipped;
    return;
  }
  const Vec3 pose_position = pose_known ? reference->position
                                        : result.position;
  const Vec3 pose_polarization = pose_known ? reference->polarization
                                            : result.polarization;

  // The lines the pose was actually solved on: not excluded, enough
  // channels for a real fit, finite. Excluded ports carry data that
  // failed the health gate — residuals against them measure the fault,
  // not the drift.
  std::vector<bool> excluded(na, false);
  for (std::size_t a : result.excluded_antennas) {
    if (a < na) excluded[a] = true;
  }
  std::vector<std::size_t> used;
  used.reserve(result.lines.size());
  for (std::size_t i = 0; i < result.lines.size(); ++i) {
    const AntennaLine& line = result.lines[i];
    if (line.antenna >= na || excluded[line.antenna] || line.fit.n < 3 ||
        !std::isfinite(line.fit.slope) || !std::isfinite(line.fit.intercept)) {
      continue;
    }
    used.push_back(i);
  }
  if (used.size() < 3) {
    ++stats_.rounds_skipped;
    return;
  }

  // Raw per-port residuals against the solved pose, mirroring the
  // solver's cost arithmetic. kt and bt are re-derived closed-form from
  // the *raw* lines here — result.kt/bt may carry tag-calibration
  // compensation, and when corrections were applied this round the
  // solver's kt absorbed their mean. Because the solve ran on corrected
  // lines, the raw residual of port i converges to exactly the
  // differential drift the correction should hold — the EMA's fixed
  // point is self-consistent under its own correction (integral loop).
  const std::size_t n = used.size();
  std::vector<double> detrended(n);  // slope minus the geometric part
  std::vector<double> slope_residual(n);
  {
    double acc = 0.0;
    for (std::size_t i = 0; i < n; ++i) {
      const AntennaLine& line = result.lines[used[i]];
      const double dist_i =
          distance(geometry.antenna_positions[line.antenna], pose_position);
      detrended[i] = line.fit.slope - kSlopePerMeter * dist_i;
      acc += detrended[i];
    }
    const double kt = acc / static_cast<double>(n);
    for (std::size_t i = 0; i < n; ++i) {
      slope_residual[i] = detrended[i] - kt;
    }
  }

  bool have_intercept = geometry.antenna_frames.size() == na;
  std::vector<double> wrapped(n, 0.0);  // intercept minus the pose part
  std::vector<double> intercept_residual(n, 0.0);
  if (have_intercept) {
    for (std::size_t i = 0; i < n; ++i) {
      const AntennaLine& line = result.lines[used[i]];
      const OrthoFrame ray = propagation_adjusted_frame(
          geometry.antenna_frames[line.antenna],
          geometry.antenna_positions[line.antenna], pose_position);
      wrapped[i] = wrap_to_2pi(line.fit.intercept -
                               polarization_phase(ray, pose_polarization));
    }
    try {
      const double bt = wrap_to_2pi(circular_mean(wrapped));
      for (std::size_t i = 0; i < n; ++i) {
        intercept_residual[i] = ang_diff(wrapped[i], bt);
      }
    } catch (const Error&) {
      // Degenerate circular mean (antipodal intercepts): skip the channel.
      have_intercept = false;
    }
  }

  // Innovations against the current estimate. The intercept channel lives
  // on the circle: the EMA accumulates unwrapped, so the innovation is the
  // shortest rotation from the estimate to the fresh residual — valid as
  // long as per-round drift increments stay well below pi.
  std::vector<double> slope_innovation(n);
  std::vector<double> intercept_innovation(n, 0.0);
  for (std::size_t i = 0; i < n; ++i) {
    const std::size_t a = result.lines[used[i]].antenna;
    slope_innovation[i] = slope_residual[i] - state_[a].slope;
    if (have_intercept) {
      intercept_innovation[i] =
          ang_diff(intercept_residual[i], state_[a].intercept);
    }
  }

  // Cross-port MAD gate, per channel: one burst-spiked port must not leak
  // into its EMA, while a slow honest ramp (small innovations on every
  // port) passes untouched.
  const double slope_med = median(slope_innovation);
  const double slope_sigma = robust_sigma(slope_innovation, kMinSigmaSlope);
  double intercept_med = 0.0, intercept_sigma = 1.0;
  if (have_intercept) {
    intercept_med = median(intercept_innovation);
    intercept_sigma = robust_sigma(intercept_innovation, kMinSigmaIntercept);
  }

  std::vector<bool> slope_ok(n), intercept_ok(n, false);
  std::size_t n_slope_ok = 0, n_intercept_ok = 0;
  for (std::size_t i = 0; i < n; ++i) {
    slope_ok[i] = std::abs(slope_innovation[i] - slope_med) <=
                  config_.mad_gate * slope_sigma;
    if (slope_ok[i]) ++n_slope_ok;
    if (have_intercept) {
      intercept_ok[i] = std::abs(intercept_innovation[i] - intercept_med) <=
                        config_.mad_gate * intercept_sigma;
      if (intercept_ok[i]) ++n_intercept_ok;
    }
  }

  // When the gate rejected anything, refit the shared offset over the
  // accepted subset only: the mean-based kt/bt above included the
  // rejected port, so its spike would otherwise leak a common-mode kick
  // into every accepted port's update. Fewer than 3 accepted ports leave
  // no trustworthy refit — the whole channel sits this round out.
  if (n_slope_ok >= 3 && n_slope_ok < n) {
    double acc = 0.0;
    for (std::size_t i = 0; i < n; ++i) {
      if (slope_ok[i]) acc += detrended[i];
    }
    const double kt = acc / static_cast<double>(n_slope_ok);
    for (std::size_t i = 0; i < n; ++i) {
      if (!slope_ok[i]) continue;
      slope_innovation[i] =
          (detrended[i] - kt) - state_[result.lines[used[i]].antenna].slope;
    }
  }
  if (have_intercept && n_intercept_ok >= 3 && n_intercept_ok < n) {
    std::vector<double> subset;
    subset.reserve(n_intercept_ok);
    for (std::size_t i = 0; i < n; ++i) {
      if (intercept_ok[i]) subset.push_back(wrapped[i]);
    }
    try {
      const double bt = wrap_to_2pi(circular_mean(subset));
      for (std::size_t i = 0; i < n; ++i) {
        if (!intercept_ok[i]) continue;
        intercept_innovation[i] =
            ang_diff(ang_diff(wrapped[i], bt),
                     state_[result.lines[used[i]].antenna].intercept);
      }
    } catch (const Error&) {
      n_intercept_ok = 0;  // degenerate refit: sit the channel out
    }
  }

  const double alpha = config_.ema_alpha;
  for (std::size_t i = 0; i < n; ++i) {
    AntennaDriftState& st = state_[result.lines[used[i]].antenna];
    bool accepted = false;
    if (slope_ok[i] && n_slope_ok >= 3) {
      const double previous = st.slope;
      st.slope += alpha * slope_innovation[i];
      st.slope_rate += alpha * ((st.slope - previous) - st.slope_rate);
      st.slope_spread +=
          alpha * (std::abs(slope_innovation[i]) - st.slope_spread);
      accepted = true;
    } else if (!slope_ok[i]) {
      ++stats_.outliers_rejected;
    }
    if (have_intercept) {
      if (intercept_ok[i] && n_intercept_ok >= 3) {
        const double previous = st.intercept;
        st.intercept += alpha * intercept_innovation[i];
        st.intercept_rate +=
            alpha * ((st.intercept - previous) - st.intercept_rate);
        st.intercept_spread +=
            alpha * (std::abs(intercept_innovation[i]) - st.intercept_spread);
        accepted = true;
      } else if (!intercept_ok[i]) {
        ++stats_.outliers_rejected;
      }
    }
    if (accepted) {
      ++st.updates;
      ++stats_.updates_applied;
    }

    // Alarm latch with hysteresis, on the confidence-scaled threshold: a
    // port whose residuals are noisy must drift further before alarming.
    if (st.updates >= kAlarmMinUpdates) {
      const double slope_threshold =
          kAlarmSlope + kAlarmConfidence * st.slope_spread;
      const double intercept_threshold =
          kAlarmIntercept + kAlarmConfidence * st.intercept_spread;
      const bool over = std::abs(st.slope) > slope_threshold ||
                        std::abs(st.intercept) > intercept_threshold;
      const bool under =
          std::abs(st.slope) < kAlarmClearFraction * slope_threshold &&
          std::abs(st.intercept) < kAlarmClearFraction * intercept_threshold;
      if (!st.alarmed && over) {
        st.alarmed = true;
        ++stats_.alarms_raised;
      } else if (st.alarmed && under) {
        st.alarmed = false;
      }
    }
  }

  ++stats_.rounds_observed;
}

DriftCorrections DriftEstimator::corrections() const {
  const std::size_t na = state_.size();
  DriftCorrections out;
  out.slope.assign(na, 0.0);
  out.intercept.assign(na, 0.0);
  out.drop.assign(na, false);
  if (!config_.enable || stats_.rounds_observed < config_.warmup_rounds) {
    return out;
  }
  out.active = true;
  for (std::size_t a = 0; a < na; ++a) {
    const AntennaDriftState& st = state_[a];
    if (st.updates < config_.warmup_rounds) continue;
    out.slope[a] = st.slope;
    out.intercept[a] = st.intercept;
    out.drop[a] = std::abs(st.slope) > config_.max_correct_slope ||
                  std::abs(st.intercept) > config_.max_correct_intercept;
  }
  return out;
}

std::vector<ReSurveyAlarm> DriftEstimator::alarms() const {
  std::vector<ReSurveyAlarm> out;
  for (std::size_t a = 0; a < state_.size(); ++a) {
    const AntennaDriftState& st = state_[a];
    if (!st.alarmed) continue;
    ReSurveyAlarm alarm;
    alarm.antenna = a;
    alarm.slope_drift = st.slope;
    alarm.intercept_drift = st.intercept;
    alarm.slope_rate = st.slope_rate;
    alarm.intercept_rate = st.intercept_rate;
    alarm.updates = st.updates;
    out.push_back(alarm);
  }
  return out;
}

DriftStats DriftEstimator::stats() const {
  DriftStats out = stats_;
  out.warmed_up =
      config_.enable && stats_.rounds_observed >= config_.warmup_rounds;
  for (const AntennaDriftState& st : state_) {
    if (st.alarmed) ++out.alarms_active;
    if (std::abs(st.slope) > config_.max_correct_slope ||
        std::abs(st.intercept) > config_.max_correct_intercept) {
      ++out.ports_dropped;
    }
  }
  return out;
}

void DriftEstimator::reset() {
  state_.assign(state_.size(), {});
  stats_ = {};
}

}  // namespace rfp
