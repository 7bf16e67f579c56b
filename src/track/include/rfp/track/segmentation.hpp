#pragma once

#include <cstddef>

/// \file segmentation.hpp
/// Motion segmentation: label each tag's timeline {static, moving,
/// rotating} by fusing two independent witnesses. The paper's error
/// detector (§V-C) catches motion *within* a hop round — broken
/// phase-vs-frequency linearity is direct physical evidence and is
/// trusted immediately. Motion *between* rounds is invisible to §V-C
/// (every individual round is clean), so it is inferred from the
/// trackers: sustained tracked speed or position-innovation energy means
/// translation, sustained angular rate means rotation. Tracker evidence
/// is noisy per round, so it only flips the label after a short
/// hysteresis hold.
///
/// Thresholds: a tracked speed of 0.01 m/s, or a normalized
/// position-innovation (squared Mahalanobis, 2 dof) of 6 — the first sign
/// of a step-advance is a fix landing far from the prediction — reads as
/// translation; an |angular rate| of 0.05 rad/s (~3 deg/s) reads as
/// rotation. Tracker-derived evidence must persist 2 consecutive rounds
/// before the label flips; a §V-C mobility reject bypasses the hold.

namespace rfp::track {

enum class MotionLabel : unsigned char { kStatic, kMoving, kRotating };

const char* to_string(MotionLabel label);

/// Per-round evidence for one tag.
struct MotionEvidence {
  bool mobility_reject = false;  ///< §V-C linearity break this round
  bool fix_accepted = false;     ///< position fix accepted by the tracker
  double speed_m_s = 0.0;        ///< |tracked velocity|
  double innovation2 = 0.0;      ///< squared Mahalanobis of the fix
  double rotation_rate_rad_s = 0.0;  ///< |tracked angular rate|
};

/// Hysteresis label machine for one tag. Deterministic: the label is a
/// pure function of the evidence sequence.
class MotionSegmenter {
 public:
  /// Fold in one round's evidence; returns the (possibly updated) label.
  MotionLabel update(const MotionEvidence& evidence);

  MotionLabel label() const { return label_; }

 private:
  static MotionLabel classify(const MotionEvidence& evidence);

  MotionLabel label_ = MotionLabel::kStatic;
  MotionLabel pending_ = MotionLabel::kStatic;
  std::size_t pending_rounds_ = 0;
};

}  // namespace rfp::track
