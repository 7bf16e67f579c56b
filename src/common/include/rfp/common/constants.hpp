#pragma once

#include <cstddef>

/// \file constants.hpp
/// Physical constants and the FCC UHF RFID channel plan used throughout the
/// library. Frequencies are in Hz, distances in meters, phases in radians.

namespace rfp {

/// Speed of light in vacuum [m/s].
inline constexpr double kSpeedOfLight = 299'792'458.0;

/// Pi, to double precision.
inline constexpr double kPi = 3.14159265358979323846;

/// 2*Pi.
inline constexpr double kTwoPi = 2.0 * kPi;

/// Number of frequency channels an FCC-region UHF reader hops across.
/// The ImpinJ Speedway R420 used by the paper hops over 50 channels.
inline constexpr std::size_t kNumChannels = 50;

/// Center frequency of the first channel [Hz] (902.75 MHz).
inline constexpr double kFirstChannelHz = 902.75e6;

/// Channel spacing [Hz] (500 kHz).
inline constexpr double kChannelSpacingHz = 0.5e6;

/// Center frequency of channel `i` (0-based) [Hz].
constexpr double channel_frequency(std::size_t i) {
  return kFirstChannelHz + kChannelSpacingHz * static_cast<double>(i);
}

/// Center frequency of the last channel [Hz] (927.25 MHz).
inline constexpr double kLastChannelHz = channel_frequency(kNumChannels - 1);

/// Total swept bandwidth [Hz].
inline constexpr double kBandSpanHz = kLastChannelHz - kFirstChannelHz;

/// Mid-band frequency [Hz]; used for wavelength-scale reasoning.
inline constexpr double kMidBandHz = (kFirstChannelHz + kLastChannelHz) / 2.0;

/// Mid-band wavelength [m] (~32.8 cm).
inline constexpr double kMidBandWavelength = kSpeedOfLight / kMidBandHz;

/// Slope contribution of round-trip propagation per meter of antenna-tag
/// distance [rad/Hz/m]: d(theta)/df = 4*pi*d/c.
inline constexpr double kSlopePerMeter = 4.0 * kPi / kSpeedOfLight;

}  // namespace rfp
