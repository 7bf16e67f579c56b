#include "rfp/dsp/phase_prep.hpp"

#include <algorithm>
#include <cmath>

#include "rfp/common/angles.hpp"
#include "rfp/common/constants.hpp"
#include "rfp/common/error.hpp"
#include "rfp/dsp/stats.hpp"

namespace rfp {

ChannelPhase aggregate_dwell(double frequency_hz,
                             std::span<const double> raw_phases) {
  require(!raw_phases.empty(), "aggregate_dwell: no reads");
  require(frequency_hz > 0.0, "aggregate_dwell: bad frequency");

  // Fold modulo pi by doubling the angle: 2*(theta + pi) == 2*theta (mod
  // 2*pi), so the pi ambiguity vanishes on the doubled circle.
  std::vector<double> doubled(raw_phases.size());
  for (std::size_t i = 0; i < raw_phases.size(); ++i) {
    doubled[i] = wrap_to_2pi(2.0 * raw_phases[i]);
  }
  const double folded_mean = wrap_to_2pi(circular_mean(doubled)) / 2.0;

  // Unfold: each read is nearer to folded_mean or folded_mean + pi; the
  // majority cluster fixes the half-turn.
  const double alt = wrap_to_2pi(folded_mean + kPi);
  std::size_t votes_base = 0;
  std::vector<double> corrected(raw_phases.size());
  for (std::size_t i = 0; i < raw_phases.size(); ++i) {
    const double d_base = std::abs(ang_diff(raw_phases[i], folded_mean));
    const double d_alt = std::abs(ang_diff(raw_phases[i], alt));
    if (d_base <= d_alt) {
      ++votes_base;
      corrected[i] = raw_phases[i];
    } else {
      corrected[i] = wrap_to_2pi(raw_phases[i] + kPi);
    }
  }
  const bool base_wins = 2 * votes_base >= raw_phases.size();
  if (!base_wins) {
    // The majority sat on the alternate representative: flip all corrected
    // reads to cluster around it instead.
    for (double& c : corrected) c = wrap_to_2pi(c + kPi);
  }

  ChannelPhase out;
  out.frequency_hz = frequency_hz;
  out.n_reads = raw_phases.size();
  out.phase = wrap_to_2pi(circular_mean(corrected));
  out.spread = circular_stddev(corrected);
  return out;
}

UnwrappedTrace unwrap_trace(std::span<const ChannelPhase> channels) {
  require(!channels.empty(), "unwrap_trace: no channels");

  // Merge duplicate frequencies (re-visited channels) by circular mean of
  // their phases, weighted by read count. A stable sort by frequency keeps
  // each frequency's channels in input order, the order its sums run in.
  struct Entry {
    double frequency_hz;
    double phase;
    double weight;
  };
  std::vector<Entry> entries;
  entries.reserve(channels.size());
  for (const auto& c : channels) {
    require(c.frequency_hz > 0.0, "unwrap_trace: bad frequency");
    entries.push_back(
        {c.frequency_hz, c.phase,
         static_cast<double>(std::max<std::size_t>(c.n_reads, 1))});
  }
  std::stable_sort(entries.begin(), entries.end(),
                   [](const Entry& a, const Entry& b) {
                     return a.frequency_hz < b.frequency_hz;
                   });

  UnwrappedTrace trace;
  trace.frequency_hz.reserve(entries.size());
  trace.phase.reserve(entries.size());
  for (std::size_t i = 0; i < entries.size();) {
    const double freq = entries[i].frequency_hz;
    double s = 0.0, c = 0.0;
    for (; i < entries.size() && entries[i].frequency_hz == freq; ++i) {
      s += entries[i].weight * std::sin(entries[i].phase);
      c += entries[i].weight * std::cos(entries[i].phase);
    }
    trace.frequency_hz.push_back(freq);
    trace.phase.push_back(wrap_to_2pi(std::atan2(s, c)));
  }

  trace.phase = unwrap(trace.phase);
  return trace;
}

double local_slope_spread(const UnwrappedTrace& trace) {
  const std::size_t n = trace.frequency_hz.size();
  require(n == trace.phase.size(), "local_slope_spread: size mismatch");
  if (n < 3) return 0.0;
  std::vector<double> slopes;
  slopes.reserve(n - 1);
  for (std::size_t i = 1; i < n; ++i) {
    const double df = trace.frequency_hz[i] - trace.frequency_hz[i - 1];
    if (df <= 0.0) throw InvalidArgument("local_slope_spread: unsorted trace");
    slopes.push_back((trace.phase[i] - trace.phase[i - 1]) / df);
  }
  return stddev(slopes);
}

}  // namespace rfp
