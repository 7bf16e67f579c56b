#include "rfp/track/segmentation.hpp"

#include <cmath>

namespace rfp::track {

namespace {

// Evidence thresholds and hysteresis hold; see segmentation.hpp.
constexpr double kMovingSpeedMS = 0.01;
constexpr double kMovingInnovationChi2 = 6.0;
constexpr double kRotatingRateRadS = 0.05;
constexpr std::size_t kHoldRounds = 2;

}  // namespace

const char* to_string(MotionLabel label) {
  switch (label) {
    case MotionLabel::kStatic:
      return "static";
    case MotionLabel::kMoving:
      return "moving";
    case MotionLabel::kRotating:
      return "rotating";
  }
  return "?";
}

MotionLabel MotionSegmenter::classify(const MotionEvidence& e) {
  // Rotation first: a spinning tag also jitters its position estimate,
  // and the rate witness is the more specific of the two.
  if (std::abs(e.rotation_rate_rad_s) >= kRotatingRateRadS) {
    return MotionLabel::kRotating;
  }
  if (e.mobility_reject || e.speed_m_s >= kMovingSpeedMS ||
      (e.fix_accepted && e.innovation2 >= kMovingInnovationChi2)) {
    return MotionLabel::kMoving;
  }
  return MotionLabel::kStatic;
}

MotionLabel MotionSegmenter::update(const MotionEvidence& e) {
  const MotionLabel candidate = classify(e);
  if (candidate == label_) {
    pending_rounds_ = 0;
    return label_;
  }
  // §V-C is direct physical evidence of a maneuver: flip immediately.
  // Everything tracker-derived is noisy per round and must persist.
  if (e.mobility_reject && candidate == MotionLabel::kMoving) {
    label_ = candidate;
    pending_rounds_ = 0;
    return label_;
  }
  if (candidate == pending_ && pending_rounds_ > 0) {
    ++pending_rounds_;
  } else {
    pending_ = candidate;
    pending_rounds_ = 1;
  }
  if (pending_rounds_ >= kHoldRounds) {
    label_ = pending_;
    pending_rounds_ = 0;
  }
  return label_;
}

}  // namespace rfp::track
