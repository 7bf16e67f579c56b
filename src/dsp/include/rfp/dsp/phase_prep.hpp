#pragma once

#include <span>
#include <vector>

/// \file phase_prep.hpp
/// Signal pre-processing (paper §III, first module): denoise raw per-read
/// phases, correct the "sudden pi jump" a commodity reader introduces, and
/// resolve the 2*pi folding across frequency channels.
///
/// A reader dwell on one channel yields many raw reads; a random subset of
/// them is offset by pi (a demodulation ambiguity of COTS readers). Within
/// a dwell the true phase is constant, so the reads form two antipodal
/// clusters; we fold, average, and unfold.

namespace rfp {

/// One denoised channel observation.
struct ChannelPhase {
  double frequency_hz = 0.0;
  double phase = 0.0;       ///< wrapped to [0, 2*pi)
  std::size_t n_reads = 0;  ///< reads aggregated into this value
  double spread = 0.0;      ///< circular stddev of the (pi-corrected) reads
};

/// Aggregate one dwell's raw reads into a single phase.
///
/// Pi-jump correction: map every read into [0, pi) modulo pi (which erases
/// the pi ambiguity), take the circular mean with period pi, then restore
/// the half-turn by majority vote of the corrected reads. Throws on empty
/// input.
ChannelPhase aggregate_dwell(double frequency_hz,
                             std::span<const double> raw_phases);

/// A full pre-processed multi-frequency trace for one antenna: channel
/// observations sorted by frequency with phases unwrapped into a continuous
/// curve (paper Figs. 4-6 style). The absolute 2*pi*m offset of the curve
/// is arbitrary; downstream consumers treat intercept-like quantities
/// modulo 2*pi.
struct UnwrappedTrace {
  std::vector<double> frequency_hz;  ///< ascending
  std::vector<double> phase;         ///< unwrapped, same length
};

/// Sort channel observations by frequency and unwrap the phase sequence.
/// Requires at least one observation and strictly increasing frequencies
/// after sorting (duplicate channels are circular-averaged first).
UnwrappedTrace unwrap_trace(std::span<const ChannelPhase> channels);

}  // namespace rfp
