#include "rfp/dsp/phase_prep.hpp"

#include <vector>

#include <gtest/gtest.h>

#include "rfp/common/angles.hpp"
#include "rfp/common/constants.hpp"
#include "rfp/common/error.hpp"
#include "rfp/common/rng.hpp"

namespace rfp {
namespace {

TEST(AggregateDwell, CleanReadsAverage) {
  const std::vector<double> reads{1.00, 1.02, 0.98, 1.01, 0.99};
  const ChannelPhase cp = aggregate_dwell(915e6, reads);
  EXPECT_NEAR(cp.phase, 1.0, 0.01);
  EXPECT_EQ(cp.n_reads, 5u);
  EXPECT_LT(cp.spread, 0.05);
}

TEST(AggregateDwell, CorrectsMinorityPiJumps) {
  // 2 of 7 reads offset by pi: majority restores the true value.
  std::vector<double> reads{1.0, 1.0, 1.0, 1.0, 1.0,
                            wrap_to_2pi(1.0 + kPi), wrap_to_2pi(1.0 + kPi)};
  const ChannelPhase cp = aggregate_dwell(915e6, reads);
  EXPECT_NEAR(std::abs(ang_diff(cp.phase, 1.0)), 0.0, 1e-9);
}

TEST(AggregateDwell, MajorityFlippedLandsOnPiOffset) {
  // When most reads carry the pi offset, the dwell reports the offset
  // value (per-dwell majority cannot know better; the fitter's global
  // parity vote resolves it).
  std::vector<double> reads{wrap_to_2pi(1.0 + kPi), wrap_to_2pi(1.0 + kPi),
                            wrap_to_2pi(1.0 + kPi), 1.0};
  const ChannelPhase cp = aggregate_dwell(915e6, reads);
  EXPECT_NEAR(std::abs(ang_diff(cp.phase, 1.0 + kPi)), 0.0, 1e-9);
}

TEST(AggregateDwell, WrapBoundaryCluster) {
  // Reads straddling the 0/2*pi seam must not average to ~pi.
  const std::vector<double> reads{0.05, kTwoPi - 0.05, 0.02, kTwoPi - 0.02};
  const ChannelPhase cp = aggregate_dwell(915e6, reads);
  EXPECT_LT(std::abs(ang_diff(cp.phase, 0.0)), 0.01);
}

TEST(AggregateDwell, NoisyPiJumpMix) {
  Rng rng(81);
  for (int trial = 0; trial < 200; ++trial) {
    const double truth = rng.uniform(0.0, kTwoPi);
    std::vector<double> reads;
    for (int i = 0; i < 24; ++i) {
      double v = truth + rng.gaussian(0.0, 0.05);
      if (rng.bernoulli(0.15)) v += kPi;
      reads.push_back(wrap_to_2pi(v));
    }
    const ChannelPhase cp = aggregate_dwell(915e6, reads);
    ASSERT_LT(std::abs(ang_diff(cp.phase, truth)), 0.1) << "trial " << trial;
  }
}

TEST(AggregateDwell, EmptyThrows) {
  EXPECT_THROW(aggregate_dwell(915e6, std::vector<double>{}), InvalidArgument);
}

TEST(AggregateDwell, BadFrequencyThrows) {
  EXPECT_THROW(aggregate_dwell(0.0, std::vector<double>{1.0}),
               InvalidArgument);
}

std::vector<ChannelPhase> make_channels(double slope, double intercept,
                                        std::size_t n) {
  std::vector<ChannelPhase> channels;
  for (std::size_t i = 0; i < n; ++i) {
    ChannelPhase cp;
    cp.frequency_hz = channel_frequency(i);
    cp.phase = wrap_to_2pi(slope * cp.frequency_hz + intercept);
    cp.n_reads = 4;
    channels.push_back(cp);
  }
  return channels;
}

TEST(UnwrapTrace, StraightLineUnwrapsToLinear) {
  const double slope = 9.0e-8;  // ~2.2 m equivalent
  const auto channels = make_channels(slope, 0.7, kNumChannels);
  const UnwrappedTrace trace = unwrap_trace(channels);
  ASSERT_EQ(trace.frequency_hz.size(), kNumChannels);
  // Differences between consecutive unwrapped phases recover the slope.
  for (std::size_t i = 1; i < trace.phase.size(); ++i) {
    const double local =
        (trace.phase[i] - trace.phase[i - 1]) /
        (trace.frequency_hz[i] - trace.frequency_hz[i - 1]);
    ASSERT_NEAR(local, slope, 1e-12);
  }
}

TEST(UnwrapTrace, SortsByFrequency) {
  auto channels = make_channels(5e-8, 0.0, 10);
  std::swap(channels[0], channels[7]);
  std::swap(channels[2], channels[9]);
  const UnwrappedTrace trace = unwrap_trace(channels);
  for (std::size_t i = 1; i < trace.frequency_hz.size(); ++i) {
    ASSERT_GT(trace.frequency_hz[i], trace.frequency_hz[i - 1]);
  }
}

TEST(UnwrapTrace, MergesDuplicateChannels) {
  auto channels = make_channels(5e-8, 0.0, 5);
  ChannelPhase duplicate = channels[2];
  duplicate.phase = wrap_to_2pi(duplicate.phase + 0.2);
  channels.push_back(duplicate);
  const UnwrappedTrace trace = unwrap_trace(channels);
  EXPECT_EQ(trace.frequency_hz.size(), 5u);
  // Merged phase lies between the two observations.
  const double merged = wrap_to_2pi(trace.phase[2]);
  const double lo = wrap_to_2pi(channels[2].phase);
  EXPECT_GT(std::abs(ang_diff(merged, lo)), 0.0);
}

TEST(UnwrapTrace, EmptyThrows) {
  EXPECT_THROW(unwrap_trace(std::vector<ChannelPhase>{}), InvalidArgument);
}

}  // namespace
}  // namespace rfp
