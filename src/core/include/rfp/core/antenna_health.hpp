#pragma once

#include <cstdint>
#include <span>
#include <vector>

#include "rfp/core/types.hpp"

/// \file antenna_health.hpp
/// Long-horizon antenna-port health tracking. A single bad round says
/// little — bursts happen — but a port whose fit RMSE, read rate, or
/// exclusion rate stays bad across rounds is broken hardware, and keeping
/// it in the solve poisons every pose. AntennaHealthMonitor maintains EWMA
/// health signals per port, quarantines ports that stay bad, and re-admits
/// them with hysteresis once they deliver clean rounds again (a flapping
/// port must *prove* recovery, not merely have one good round).
///
/// The monitor feeds RfPrism::sense's antenna-subset path: quarantined
/// ports are excluded up-front, so one chattering connector degrades the
/// deployment to (N-1)-antenna sensing instead of rejecting every round.

namespace rfp {

/// A port is quarantined once observed for 3 rounds (one burst-corrupted
/// first round must not condemn it) when its EWMA fit RMSE exceeds 0.30
/// rad, its EWMA read rate (channels delivered / channels expected) falls
/// below 0.30, or its EWMA exclusion rate (how often the per-round health
/// gate rejected it) exceeds 0.60. It is re-admitted (hysteresis) only when
/// the RMSE is below rmse_readmit, the read rate above 0.60 and the
/// exclusion rate below 0.25.
struct AntennaHealthConfig {
  /// EWMA weight of the newest observation (0 < alpha <= 1).
  double ewma_alpha = 0.3;

  /// Re-admit a quarantined port only when its EWMA fit RMSE has fallen
  /// back below this [rad]; must be below the 0.30 quarantine bound.
  double rmse_readmit = 0.15;
};

/// EWMA health state of one reader port.
struct PortHealth {
  double ewma_rmse = 0.0;
  double ewma_read_rate = 1.0;
  double ewma_exclusion_rate = 0.0;
  std::size_t rounds_observed = 0;
  bool quarantined = false;
  std::size_t quarantine_transitions = 0;  ///< healthy->quarantined edges
};

class AntennaHealthMonitor {
 public:
  /// Throws InvalidArgument on zero antennas, alpha outside (0, 1], or
  /// rmse_readmit not strictly below the quarantine bound.
  explicit AntennaHealthMonitor(std::size_t n_antennas,
                                AntennaHealthConfig config = {});

  /// Record one port observation. `fit_rmse` is the port's inlier-channel
  /// fit RMSE (ignored when the port delivered too few channels to fit),
  /// `read_rate` the delivered/expected channel fraction, `excluded`
  /// whether the per-round gate dropped the port from the solve.
  void observe_port(std::size_t antenna, double fit_rmse, double read_rate,
                    bool excluded);

  /// Record a whole sensing emission: per-port read rates and RMSEs from
  /// `result.lines`, exclusion flags from `result.unhealthy_antennas`.
  /// `expected_channels` is what a healthy port delivers per round (the
  /// hop-plan channel count, or StreamingConfig::min_channels_per_antenna).
  void observe_round(const SensingResult& result,
                     std::size_t expected_channels);

  bool healthy(std::size_t antenna) const;
  std::vector<std::size_t> quarantined() const;
  const PortHealth& port(std::size_t antenna) const;
  std::size_t n_antennas() const { return ports_.size(); }

  /// Forget all history (ports start healthy).
  void reset();

 private:
  void update_quarantine(PortHealth& port);

  AntennaHealthConfig config_;
  std::vector<PortHealth> ports_;
};

}  // namespace rfp
