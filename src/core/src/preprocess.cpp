#include "rfp/core/preprocess.hpp"

#include <algorithm>
#include <cmath>

#include "rfp/common/constants.hpp"
#include "rfp/common/error.hpp"
#include "rfp/dsp/stats.hpp"

namespace rfp {

namespace {

/// A reader reports phase in [0, 2*pi); anything else (non-finite or out
/// of range) is a corrupt report.
bool phase_in_domain(double phase) { return phase >= 0.0 && phase < kTwoPi; }

}  // namespace

std::vector<AntennaTrace> preprocess_round(const RoundTrace& round) {
  require(round.n_antennas > 0, "preprocess_round: zero antennas");

  // Aggregate each dwell, grouped by antenna, one entry per frequency,
  // then sort each antenna's entries by frequency so the random hop order
  // comes out sorted. Flat vectors rather than a map per antenna: this is
  // the largest transient allocation of a sense call.
  struct ChannelAgg {
    ChannelPhase phase;
    double rssi = 0.0;
  };
  std::vector<std::vector<ChannelAgg>> per_antenna(round.n_antennas);
  {
    std::vector<std::size_t> dwells(round.n_antennas, 0);
    for (const Dwell& dwell : round.dwells) {
      if (dwell.antenna < round.n_antennas) ++dwells[dwell.antenna];
    }
    for (std::size_t ai = 0; ai < round.n_antennas; ++ai) {
      per_antenna[ai].reserve(dwells[ai]);
    }
  }

  for (const Dwell& dwell : round.dwells) {
    require(dwell.antenna < round.n_antennas,
            "preprocess_round: antenna index out of range");
    if (dwell.phases.empty() || !std::isfinite(dwell.frequency_hz) ||
        dwell.frequency_hz <= 0.0) {
      continue;
    }
    // Drop corrupt reads with their RSSI. The clean path reads the dwell
    // in place; only a dwell holding a corrupt read is copied.
    std::span<const double> phases(dwell.phases);
    std::span<const double> rssi(dwell.rssi_dbm);
    std::vector<double> kept_phases, kept_rssi;
    if (!std::all_of(phases.begin(), phases.end(), phase_in_domain)) {
      for (std::size_t i = 0; i < phases.size(); ++i) {
        if (!phase_in_domain(phases[i])) continue;
        kept_phases.push_back(phases[i]);
        if (i < rssi.size()) kept_rssi.push_back(rssi[i]);
      }
      if (kept_phases.empty()) continue;
      phases = kept_phases;
      rssi = kept_rssi;
    }
    ChannelAgg agg;
    agg.phase = aggregate_dwell(dwell.frequency_hz, phases);
    agg.rssi = rssi.empty() ? 0.0 : mean(rssi);
    // A channel can be visited twice in odd hop plans; keep the dwell with
    // more reads (better averaging), the earlier one on a tie.
    std::vector<ChannelAgg>& entries = per_antenna[dwell.antenna];
    const auto it = std::find_if(
        entries.begin(), entries.end(), [&](const ChannelAgg& e) {
          return e.phase.frequency_hz == dwell.frequency_hz;
        });
    if (it == entries.end()) {
      entries.push_back(agg);
    } else if (phases.size() > it->phase.n_reads) {
      *it = agg;
    }
  }
  // Only finite, positive frequencies got this far, so the keys are
  // distinct and totally ordered.
  for (std::vector<ChannelAgg>& entries : per_antenna) {
    std::sort(entries.begin(), entries.end(),
              [](const ChannelAgg& a, const ChannelAgg& b) {
                return a.phase.frequency_hz < b.phase.frequency_hz;
              });
  }

  std::vector<AntennaTrace> out;
  out.reserve(round.n_antennas);
  for (std::size_t ai = 0; ai < round.n_antennas; ++ai) {
    AntennaTrace at;
    at.antenna = ai;
    if (!per_antenna[ai].empty()) {
      std::vector<ChannelPhase> channels;
      channels.reserve(per_antenna[ai].size());
      at.mean_rssi_dbm.reserve(per_antenna[ai].size());
      at.phase_spread.reserve(per_antenna[ai].size());
      at.wrapped_phase.reserve(per_antenna[ai].size());
      for (const ChannelAgg& agg : per_antenna[ai]) {
        channels.push_back(agg.phase);
        at.wrapped_phase.push_back(agg.phase.phase);
        at.mean_rssi_dbm.push_back(agg.rssi);
        at.phase_spread.push_back(agg.phase.spread);
      }
      at.trace = unwrap_trace(channels);
      std::vector<ChannelAgg>().swap(per_antenna[ai]);  // release early
    }
    out.push_back(std::move(at));
  }
  return out;
}

double trace_mean_rssi(const AntennaTrace& trace) {
  require(!trace.mean_rssi_dbm.empty(), "trace_mean_rssi: empty trace");
  return mean(std::span<const double>(trace.mean_rssi_dbm));
}

}  // namespace rfp
