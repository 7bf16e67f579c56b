#pragma once

#include "rfp/core/types.hpp"
#include "rfp/rfsim/reader.hpp"

/// \file preprocess.hpp
/// Signal pre-processing module (paper §III, module 1): turn a raw hop
/// round into one clean unwrapped multi-frequency trace per antenna —
/// denoise per-dwell reads, correct sudden pi jumps, resolve 2*pi folding.

namespace rfp {

/// Pre-process one hop round into per-antenna traces. Antenna index `i` of
/// the result is antenna `i` of the round. Reads whose phase is
/// non-finite or outside [0, 2*pi) are dropped with their RSSI. Dwells
/// with no remaining reads or with a non-finite or non-positive frequency
/// are skipped; an antenna with no usable dwell yields an empty trace
/// (callers check). Throws InvalidArgument on a malformed trace (zero
/// antennas).
std::vector<AntennaTrace> preprocess_round(const RoundTrace& round);

/// Mean RSSI across all channels of a pre-processed antenna trace [dBm].
/// Throws InvalidArgument if the trace has no channels.
double trace_mean_rssi(const AntennaTrace& trace);

}  // namespace rfp
