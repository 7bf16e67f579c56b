#pragma once

/// Shared helpers for core/system tests: canonical noiseless and
/// mildly-noisy setups over the standard 2D scene, with exact geometry
/// handed to the pipeline (tests that want survey error add it
/// themselves).

#include <string>
#include <vector>

#include "rfp/common/angles.hpp"
#include "rfp/common/constants.hpp"
#include "rfp/core/fitting.hpp"
#include "rfp/core/preprocess.hpp"
#include "rfp/core/types.hpp"
#include "rfp/geom/frame.hpp"
#include "rfp/rfsim/faults.hpp"
#include "rfp/rfsim/reader.hpp"

namespace rfp::testutil {

inline ChannelConfig noiseless_channel() {
  ChannelConfig c;
  c.trial_ripple_amplitude = 0.0;
  c.trial_offset_sigma = 0.0;
  c.trial_range_jitter_m = 0.0;
  c.channel_corruption_prob = 0.0;
  c.material_kt_rel_sigma = 0.0;
  c.material_bt_sigma = 0.0;
  c.material_ripple_rel_sigma = 0.0;
  return c;
}

inline ReaderConfig noiseless_reader() {
  ReaderConfig r;
  r.read_phase_noise = 0.0;
  r.pi_jump_prob = 0.0;
  r.rssi_noise_db = 0.0;
  return r;
}

/// Exact deployment geometry (no survey error) from a scene.
inline DeploymentGeometry exact_geometry(const Scene& scene) {
  DeploymentGeometry g;
  for (const auto& a : scene.antennas) {
    g.antenna_positions.push_back(a.position);
    g.antenna_frames.push_back(a.frame);
  }
  g.working_region = scene.working_region;
  g.tag_plane_z = scene.tag_plane_z;
  return g;
}

/// Exact AntennaLines from the physical model at a given state, one per
/// antenna: k_i = C*d_i + kt, b_i = orient_i + bt (wrapped).
inline std::vector<AntennaLine> exact_lines(const DeploymentGeometry& geometry,
                                            Vec3 position, Vec3 polarization,
                                            double kt, double bt) {
  std::vector<AntennaLine> lines;
  for (std::size_t i = 0; i < geometry.n_antennas(); ++i) {
    AntennaLine line;
    line.antenna = i;
    const double d = distance(geometry.antenna_positions[i], position);
    line.fit.slope = kSlopePerMeter * d + kt;
    line.fit.intercept = wrap_to_2pi(
        polarization_phase_toward(geometry.antenna_frames[i],
                                  geometry.antenna_positions[i], position,
                                  polarization) +
        bt);
    line.fit.n = kNumChannels;
    line.n_channels = kNumChannels;
    lines.push_back(line);
  }
  return lines;
}

/// The lines a sensed result was solved on: result.lines minus the
/// excluded ports (what the pipeline hands Stage A when drift is off).
inline std::vector<AntennaLine> solved_lines(const SensingResult& r) {
  std::vector<AntennaLine> lines;
  for (const AntennaLine& line : r.lines) {
    bool excluded = false;
    for (std::size_t a : r.excluded_antennas) excluded |= a == line.antenna;
    if (!excluded) lines.push_back(line);
  }
  return lines;
}

/// The linear-drift fault profile: deployment time 10 s/round, both
/// channels ramping. Across a 48-round loop the slope offsets reach
/// ~1e-8 rad/Hz (~0.25 m of ranging bias on the worst port) and the
/// intercepts ~0.2 rad: big enough to visibly damage poses, small enough
/// to stay inside the estimator's correctable bounds. Pass the round's
/// index within the loop as the injector's trial (drift is evaluated at
/// trial * 10 s).
inline FaultProfile linear_drift_profile() {
  FaultProfile profile;
  profile.drift_round_period_s = 10.0;
  profile.slope_drift_rate = 2e-11;
  profile.intercept_drift_rate = 4e-4;
  return profile;
}

/// Collect a round and fit all antennas in one step.
inline std::vector<AntennaLine> fit_round(const Scene& scene,
                                          const ReaderConfig& reader,
                                          const ChannelConfig& channel,
                                          const TagHardware& tag,
                                          const TagState& state,
                                          std::uint64_t trial, Rng& rng,
                                          const FittingConfig& fitting = {}) {
  const RoundTrace round =
      collect_round(scene, reader, channel, tag, state, trial, rng);
  return fit_all_antennas(preprocess_round(round), fitting);
}

}  // namespace rfp::testutil
