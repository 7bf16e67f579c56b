#include "rfp/core/preprocess.hpp"

#include <algorithm>

#include "rfp/common/error.hpp"
#include "rfp/dsp/stats.hpp"

namespace rfp {

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
    if (dwell.phases.empty()) continue;
    ChannelAgg agg;
    agg.phase = aggregate_dwell(dwell.frequency_hz, dwell.phases);
    agg.rssi = dwell.rssi_dbm.empty()
                   ? 0.0
                   : mean(std::span<const double>(dwell.rssi_dbm));
    // A channel can be visited twice in odd hop plans; keep the dwell with
    // more reads (better averaging), the earlier one on a tie.
    std::vector<ChannelAgg>& entries = per_antenna[dwell.antenna];
    const auto it = std::find_if(
        entries.begin(), entries.end(), [&](const ChannelAgg& e) {
          return e.phase.frequency_hz == dwell.frequency_hz;
        });
    if (it == entries.end()) {
      entries.push_back(agg);
    } else if (dwell.phases.size() > it->phase.n_reads) {
      *it = agg;
    }
  }
  // aggregate_dwell rejects non-positive and NaN frequencies, so the keys
  // are distinct and totally ordered.
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
