#include "rfp/core/antenna_health.hpp"

#include <algorithm>

#include "rfp/common/error.hpp"

namespace rfp {

namespace {

// Quarantine and re-admission bounds of the EWMA signals; see
// AntennaHealthConfig.
constexpr double kRmseQuarantine = 0.30;
constexpr double kReadRateQuarantine = 0.30;
constexpr double kReadRateReadmit = 0.60;
constexpr double kExclusionRateQuarantine = 0.60;
constexpr double kExclusionRateReadmit = 0.25;
constexpr std::size_t kMinRounds = 3;

}  // namespace

AntennaHealthMonitor::AntennaHealthMonitor(std::size_t n_antennas,
                                           AntennaHealthConfig config)
    : config_(config), ports_(n_antennas) {
  require(n_antennas > 0, "AntennaHealthMonitor: zero antennas");
  require(config_.ewma_alpha > 0.0 && config_.ewma_alpha <= 1.0,
          "AntennaHealthMonitor: ewma_alpha must be in (0, 1]");
  require(config_.rmse_readmit < kRmseQuarantine,
          "AntennaHealthMonitor: rmse_readmit must be below the quarantine "
          "bound");
}

void AntennaHealthMonitor::observe_port(std::size_t antenna, double fit_rmse,
                                        double read_rate, bool excluded) {
  require(antenna < ports_.size(),
          "AntennaHealthMonitor: antenna index out of range");
  PortHealth& port = ports_[antenna];
  const double a = config_.ewma_alpha;
  // A port that delivered nothing has no meaningful RMSE; its read rate
  // and exclusion flag carry the signal, so the RMSE EWMA holds.
  if (read_rate > 0.0) {
    port.ewma_rmse = port.rounds_observed == 0
                         ? fit_rmse
                         : (1.0 - a) * port.ewma_rmse + a * fit_rmse;
  }
  port.ewma_read_rate = port.rounds_observed == 0
                            ? read_rate
                            : (1.0 - a) * port.ewma_read_rate + a * read_rate;
  const double excl = excluded ? 1.0 : 0.0;
  port.ewma_exclusion_rate =
      port.rounds_observed == 0
          ? excl
          : (1.0 - a) * port.ewma_exclusion_rate + a * excl;
  ++port.rounds_observed;
  update_quarantine(port);
}

void AntennaHealthMonitor::observe_round(const SensingResult& result,
                                         std::size_t expected_channels) {
  require(expected_channels > 0,
          "AntennaHealthMonitor: expected_channels must be positive");
  for (const AntennaLine& line : result.lines) {
    if (line.antenna >= ports_.size()) continue;
    // Use the for-cause set, not excluded_antennas: a quarantined port is
    // excluded from the solve by this monitor itself, and counting that as
    // a bad observation would block re-admission forever.
    const bool excluded =
        std::find(result.unhealthy_antennas.begin(),
                  result.unhealthy_antennas.end(),
                  line.antenna) != result.unhealthy_antennas.end();
    const double read_rate =
        std::min(1.0, static_cast<double>(line.n_channels) /
                          static_cast<double>(expected_channels));
    // Fit RMSE is only meaningful with a real line under it.
    const double rmse = line.fit.n >= 3 ? line.fit.rmse : 0.0;
    observe_port(line.antenna, rmse, read_rate, excluded);
  }
}

void AntennaHealthMonitor::update_quarantine(PortHealth& port) {
  if (!port.quarantined) {
    if (port.rounds_observed < kMinRounds) return;
    const bool bad = port.ewma_rmse > kRmseQuarantine ||
                     port.ewma_read_rate < kReadRateQuarantine ||
                     port.ewma_exclusion_rate > kExclusionRateQuarantine;
    if (bad) {
      port.quarantined = true;
      ++port.quarantine_transitions;
    }
    return;
  }
  // Hysteresis: every signal must be comfortably back inside its
  // re-admission band before the port rejoins the solve.
  const bool recovered =
      port.ewma_rmse < config_.rmse_readmit &&
      port.ewma_read_rate > kReadRateReadmit &&
      port.ewma_exclusion_rate < kExclusionRateReadmit;
  if (recovered) port.quarantined = false;
}

bool AntennaHealthMonitor::healthy(std::size_t antenna) const {
  require(antenna < ports_.size(),
          "AntennaHealthMonitor: antenna index out of range");
  return !ports_[antenna].quarantined;
}

std::vector<std::size_t> AntennaHealthMonitor::quarantined() const {
  std::vector<std::size_t> out;
  for (std::size_t i = 0; i < ports_.size(); ++i) {
    if (ports_[i].quarantined) out.push_back(i);
  }
  return out;
}

const PortHealth& AntennaHealthMonitor::port(std::size_t antenna) const {
  require(antenna < ports_.size(),
          "AntennaHealthMonitor: antenna index out of range");
  return ports_[antenna];
}

void AntennaHealthMonitor::reset() {
  for (PortHealth& port : ports_) port = PortHealth{};
}

}  // namespace rfp
