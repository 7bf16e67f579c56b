/// shelf-3d: in-process batch sensing over a 3-D 4-antenna shelf.
///
/// Each call hands RfPrism::sense_batch one scan of a shelf section's 8
/// tags (8 sections, 64 tags) on a 4-thread SensingEngine (4 busy threads; the caller only waits).
/// Stage B's azimuth x elevation scan is ~99% of every round and nothing
/// crosses a socket, so a network or streaming change should not move
/// this workload. Every batch result must be bitwise-equal to sequential
/// RfPrism::sense of the same round.

#include <algorithm>
#include <memory>
#include <thread>

#include "layers.hpp"
#include "rfp/common/constants.hpp"
#include "rfp/common/rng.hpp"
#include "rfp/core/engine.hpp"
#include "rfp/exp/testbed.hpp"
#include "rfp/geom/frame.hpp"
#include "rfp/net/wire.hpp"
#include "workloads.hpp"

namespace perfbench {
namespace {

using namespace rfp;

constexpr std::size_t kBatch = 8;    // rounds per sense_batch call
constexpr std::size_t kSections = 8;
constexpr std::size_t kTags = kSections * kBatch;
// Scans of every tag in the corpus. The 3-D orientation error is heavy-
// tailed (p75 ~ 4 x p25), so its median needs ~500 rounds to hold still
// from seed to seed.
constexpr std::size_t kCycles = 8;
constexpr std::size_t kEngineThreads = 4;
constexpr int kSetups = 5;
constexpr std::size_t kLayerCalls = kSections;  // calls the traced run decomposes
constexpr double kCycleS = 10.0;     // every tag is re-read each hop round
// ~75 calls in 25 s; p75 keeps more than ten samples beyond it.
constexpr double kTailPercentile = 75.0;

struct Corpus {
  std::unique_ptr<Testbed> bed;
  /// Cycle-major ([c * kTags + t]); call k senses rounds
  /// [k * kBatch, (k + 1) * kBatch), one section of one cycle.
  std::vector<RoundTrace> rounds;
  std::vector<TagState> truth;  // per tag
};

/// 64 static tags in fixed slots (8 across x 8 sections deep, cycling
/// over the 0.2 / 0.5 / 0.8 m shelves) with fixed polarizations that
/// stratify azimuth and elevation, and the paper's 8 materials in a Latin
/// square (each once per section and once across). The seed draws every
/// read; placements and materials stay fixed, so the accuracy metrics
/// measure the pipeline rather than one seed's layout.
Corpus make_corpus(std::uint64_t seed) {
  Corpus corpus;
  TestbedConfig config;
  config.seed = kSiteSeed;
  config.mode_3d = true;
  corpus.bed = std::make_unique<Testbed>(config);
  const Testbed& bed = *corpus.bed;
  const std::vector<std::string> materials = paper_materials();
  const auto stratum = [](std::size_t k) {
    return (static_cast<double>(k % kTags) + 0.5) / static_cast<double>(kTags);
  };
  for (std::size_t t = 0; t < kTags; ++t) {
    const std::size_t across = t % kBatch, section = t / kBatch;
    const Vec3 at{0.45 + 1.1 * (across + 0.5) / kBatch,
                  0.45 + 1.1 * (section + 0.5) / kSections,
                  0.2 + 0.3 * static_cast<double>((across + section) % 3)};
    // 23 is coprime to 64, so the elevations are a permutation too.
    const Vec3 w = spherical_polarization(kTwoPi * stratum(t),
                                          -0.5 + stratum(23 * t));
    corpus.truth.push_back(
        TagState{at, w, materials[(across + 3 * section) % materials.size()]});
  }
  for (std::size_t c = 0; c < kCycles; ++c) {
    for (std::size_t t = 0; t < kTags; ++t) {
      corpus.rounds.push_back(
          bed.collect(corpus.truth[t], mix_seed(seed, 0x3D00 + c * kTags + t)));
    }
  }
  return corpus;
}

struct Sut {
  explicit Sut(RfPrism p) : prism(std::move(p)) {}
  RfPrism prism;
  SensingEngine engine{kEngineThreads};
};

std::unique_ptr<Sut> build_sut(const Corpus& corpus) {
  const Testbed& bed = *corpus.bed;
  auto sut = std::make_unique<Sut>(
      bed.make_pipeline_variant(bed.prism().config()));
  // First results: one batch, as the loop calls it, builds the engine's
  // Stage-A distance table. (A single round would time one core only,
  // whose speed on a shared host swings far more than the batch's.)
  (void)sut->prism.sense_batch(std::span(corpus.rounds).first(kBatch),
                               sut->engine, bed.tag_id());
  return sut;
}

}  // namespace

Outcome run_shelf_3d(const Options& options) {
  Outcome out;
  out.note("threads", "engine 4 (caller waits) = 4");
  const Corpus corpus = make_corpus(options.seed);
  const Testbed& bed = *corpus.bed;

  // Reference: sequential engine-less sense of every round, spread over
  // kEngineThreads plain threads (each round is still one sequential
  // call). The accuracy metrics come from it; the loop requires every
  // batch result to equal it bitwise, so they are the system's outputs too.
  std::vector<SensingResult> reference(corpus.rounds.size());
  {
    std::vector<std::thread> workers;
    for (std::size_t w = 0; w < kEngineThreads; ++w) {
      workers.emplace_back([&, w] {
        for (std::size_t idx = w; idx < corpus.rounds.size();
             idx += kEngineThreads) {
          reference[idx] = bed.prism().sense(corpus.rounds[idx], bed.tag_id());
        }
      });
    }
    for (std::thread& worker : workers) worker.join();
  }
  std::vector<std::vector<std::uint8_t>> expected;
  Accuracy accuracy;
  std::vector<std::vector<StreamedResult>> cycles(kCycles);
  std::map<std::string, Vec2> tag_truth;
  for (std::size_t idx = 0; idx < corpus.rounds.size(); ++idx) {
    const std::size_t c = idx / kTags, t = idx % kTags;
    expected.push_back(net::encode_sense_response(reference[idx]));
    accuracy.add(reference[idx], corpus.truth[t], /*use_z=*/true);
    const std::string tag = "tag-" + std::to_string(t);
    tag_truth[tag] = Vec2{corpus.truth[t].position.x,
                          corpus.truth[t].position.y};
    cycles[c].push_back(
        StreamedResult{tag, kCycleS * (c + 1.0), reference[idx]});
  }
  accuracy.tracked_rmse_cm =
      static_tracked_rmse_cm(cycles, tag_truth, 1, kCycleS);
  if (options.corrupt_reference) expected.front().back() ^= 0x01;

  HeapPeak heap;
  std::vector<double> setup_s;
  std::unique_ptr<Sut> sut = timed_setups<Sut>(
      kSetups, [&] { return build_sut(corpus); }, setup_s);

  constexpr std::size_t kCalls = kCycles * kTags / kBatch;
  std::size_t calls = 0;
  Tracer tracer(span_capacity(options));
  std::vector<std::size_t> traced_calls;  // corpus call of each traced batch
  const auto run = [&](double seconds, TimedPhase& phase, bool traced) {
    const Clock::time_point deadline = deadline_after(seconds);
    // Runs past the deadline until every corpus round has been sensed once,
    // so the accuracy metrics always cover the whole corpus.
    while ((Clock::now() < deadline || calls < kCalls) && out.correct) {
      const std::size_t c = calls++ % kCalls;
      const std::span<const RoundTrace> batch(&corpus.rounds[c * kBatch],
                                              kBatch);
      const Clock::time_point t0 = Clock::now();
      std::vector<SensingResult> results;
      {
        const std::uint64_t span =
            traced ? tracer.begin("core.engine.batch", c) : 0;
        results = sut->prism.sense_batch(batch, sut->engine, bed.tag_id());
        if (traced) {
          tracer.end(span);
          traced_calls.push_back(c);
        }
      }
      phase.latency_ms.push_back(ms_between(t0, Clock::now()));
      phase.rounds += kBatch;
      out.attempted += kBatch;
      for (std::size_t t = 0; t < kBatch; ++t) {
        const std::size_t idx = c * kBatch + t;
        if (net::encode_sense_response(results[t]) != expected[idx]) {
          out.mismatch("round " + std::to_string(idx) +
                       ": batch result differs from sequential sense");
        }
      }
    }
    phase.stop();
  };
  TimedPhase phase;
  if (!options.trace) {
    run(options.seconds, phase, false);
  } else {
    run(options.seconds / 2, phase, false);
    TimedPhase traced_phase;
    run(options.seconds / 2, traced_phase, true);
    report_overhead(out, phase, traced_phase);
  }
  const double rss_mb = heap.stop_mb();
  sut.reset();

  if (!options.trace) {
    add_end_to_end(out, setup_s, phase, kTailPercentile, rss_mb, accuracy);
    return out;
  }

  // The layer pass re-senses, on one thread, the rounds of the first
  // kLayerCalls traced calls (every slot of the shelf once); the whole
  // corpus would take over a minute.
  const std::vector<double> batch_ms = tracer.durations_ms("core.engine.batch");
  const std::size_t layer_calls = std::min(kLayerCalls, traced_calls.size());
  LayerCounters counters;
  SolveWorkspace ws;
  GridGeometryCache cache;
  // Parallel efficiency: the sequential work of a batch over the engine's
  // thread-time spent on it; below 1 when a batch waits on its slowest
  // rounds.
  double eff = 0.0;
  for (std::size_t i = 0; i < layer_calls; ++i) {
    double work = 0.0;
    for (std::size_t t = 0; t < kBatch; ++t) {
      const std::size_t idx = traced_calls[i] * kBatch + t;
      work += trace_sense(tracer, bed.prism(), corpus.rounds[idx],
                          bed.tag_id(), idx, 0, ws, cache, nullptr, counters);
    }
    eff += work / (batch_ms[i] * static_cast<double>(kEngineThreads));
  }
  PerLayer layers;
  layers.fill_core(tracer, counters);
  layers.engine_batch_ms = median(batch_ms);
  layers.engine_parallel_eff =
      layer_calls == 0 ? 0.0 : eff / static_cast<double>(layer_calls);
  layers.emit(out);
  write_spans(out, tracer, options);
  return out;
}

}  // namespace perfbench
