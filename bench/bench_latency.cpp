/// §VI-C "Latency of Sensing" — google-benchmark timings of every
/// pipeline stage. Paper reference: data pre-processing + parameter
/// estimation within 0.06 s; classification within tens of ms; the 10 s
/// hop round dominates end-to-end latency (hardware, not compute).

#include <benchmark/benchmark.h>

#include "support/bench_util.hpp"

#include "rfp/core/disentangle.hpp"
#include "rfp/core/fitting.hpp"
#include "rfp/core/preprocess.hpp"
#include "rfp/geom/frame.hpp"

namespace {

using namespace rfp;
using namespace rfp::bench;

const Testbed& bed() {
  static const Testbed instance{};
  return instance;
}

const RoundTrace& sample_round() {
  static const RoundTrace round = bed().collect(
      bed().tag_state({0.9, 1.2}, 0.5, "glass"), /*trial=*/12345);
  return round;
}

const std::vector<AntennaTrace>& sample_traces() {
  static const std::vector<AntennaTrace> traces =
      preprocess_round(sample_round());
  return traces;
}

const std::vector<AntennaLine>& sample_lines() {
  static const std::vector<AntennaLine> lines =
      fit_all_antennas(sample_traces(), FittingConfig{});
  return lines;
}

const MaterialIdentifier& trained_identifier() {
  static const MaterialIdentifier id = [] {
    const LabelledData data =
        collect_material_data(bed(), 20, 1, 0.0, 0.0, 130000);
    return train_identifier(data.train);
  }();
  return id;
}

void BM_Preprocess(benchmark::State& state) {
  for (auto _ : state) {
    benchmark::DoNotOptimize(preprocess_round(sample_round()));
  }
}
BENCHMARK(BM_Preprocess)->Unit(benchmark::kMillisecond);

void BM_RobustFit(benchmark::State& state) {
  for (auto _ : state) {
    benchmark::DoNotOptimize(fit_all_antennas(sample_traces(),
                                              FittingConfig{}));
  }
}
BENCHMARK(BM_RobustFit)->Unit(benchmark::kMillisecond);

void BM_SolvePosition(benchmark::State& state) {
  const auto& geometry = bed().prism().config().geometry;
  for (auto _ : state) {
    benchmark::DoNotOptimize(
        solve_position(geometry, sample_lines(), DisentangleConfig{}));
  }
}
BENCHMARK(BM_SolvePosition)->Unit(benchmark::kMillisecond);

void BM_SolveOrientation(benchmark::State& state) {
  const auto& geometry = bed().prism().config().geometry;
  const PositionSolve pos =
      solve_position(geometry, sample_lines(), DisentangleConfig{});
  for (auto _ : state) {
    benchmark::DoNotOptimize(solve_orientation(
        geometry, sample_lines(), pos.position, DisentangleConfig{}));
  }
}
BENCHMARK(BM_SolveOrientation)->Unit(benchmark::kMillisecond);

const Testbed& bed_3d() {
  static const Testbed instance{[] {
    TestbedConfig config;
    config.mode_3d = true;
    return config;
  }()};
  return instance;
}

void BM_SolveOrientation3D(benchmark::State& state) {
  // The 3D scan: 720 azimuth x 360 elevation cells per solve.
  const Testbed& bed = bed_3d();
  const RfPrismConfig& config = bed.prism().config();
  const RoundTrace round = bed.collect(
      TagState{{0.9, 1.2, 0.5}, spherical_polarization(0.7, 0.3), "glass"},
      /*trial=*/12345);
  const std::vector<AntennaLine> lines =
      fit_all_antennas(preprocess_round(round), FittingConfig{});
  const PositionSolve pos =
      solve_position(config.geometry, lines, config.disentangle);
  std::size_t rescored = 0;
  for (auto _ : state) {
    const OrientationSolve solve = solve_orientation(
        config.geometry, lines, pos.position, config.disentangle);
    rescored = solve.rescored;
    benchmark::DoNotOptimize(solve);
  }
  state.counters["rescored"] = static_cast<double>(rescored);
}
BENCHMARK(BM_SolveOrientation3D)->Unit(benchmark::kMillisecond);

void BM_FullSense(benchmark::State& state) {
  // Paper: "data pre-processing and parameter estimation can be completed
  // within 0.06 s" — this is the comparable number.
  for (auto _ : state) {
    benchmark::DoNotOptimize(bed().prism().sense(sample_round(),
                                                 bed().tag_id()));
  }
}
BENCHMARK(BM_FullSense)->Unit(benchmark::kMillisecond);

void BM_ClassifyMaterial(benchmark::State& state) {
  // Paper: "the time overhead for the three classifiers are all within
  // dozens of milliseconds" (that includes training; prediction is
  // microseconds).
  const SensingResult r = bed().prism().sense(sample_round(), bed().tag_id());
  const auto& id = trained_identifier();
  for (auto _ : state) {
    benchmark::DoNotOptimize(id.predict(r));
  }
}
BENCHMARK(BM_ClassifyMaterial)->Unit(benchmark::kMicrosecond);

void BM_TrainDecisionTree(benchmark::State& state) {
  const LabelledData data =
      collect_material_data(bed(), 20, 1, 0.0, 0.0, 140000);
  for (auto _ : state) {
    MaterialIdentifier id(ClassifierKind::kDecisionTree);
    for (const auto& [r, m] : data.train) id.add_sample(r, m);
    id.train();
    benchmark::DoNotOptimize(id);
  }
}
BENCHMARK(BM_TrainDecisionTree)->Unit(benchmark::kMillisecond);

void BM_SimulateHopRound(benchmark::State& state) {
  // Not a latency of the sensing pipeline (the real reader needs 10 s of
  // wall-clock); included to show simulator throughput.
  std::uint64_t trial = 150000;
  for (auto _ : state) {
    benchmark::DoNotOptimize(
        bed().collect(bed().tag_state({1.0, 1.0}, 0.3, "wood"), trial++));
  }
}
BENCHMARK(BM_SimulateHopRound)->Unit(benchmark::kMillisecond);

}  // namespace
