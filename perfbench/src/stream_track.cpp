/// stream-track: a 2-D conveyor streamed through a tracking session.
///
/// Thirty-two tags ride sixteen lanes under the 3-antenna gantry, two per
/// lane, stepping 2 cm along the belt between short hop rounds (static
/// within a round, as §V-C requires) and turning slowly; the last one
/// spins faster. Their raw reads interleave in time and are pushed with
/// Client::push_stream, half a round of stream time per push, into a
/// wire-v2 session with warm-start sensing and trajectory tracking on. The
/// two halves of the fleet run half a round apart, so every push but the
/// first of a pass completes 16 rounds, each assembled over two pushes.
/// Each pass opens a fresh session, so every pass is byte-identical; each
/// kStreamResults / kTrackEvents payload must equal what a local
/// StreamingSensor + TrackingEngine emit for the same reads.
///
/// Threads: client 1 + reactor 1 (which runs the session's sensor) on one
/// CPU, engine 1 on another = 3. The loop is sequential: the client waits
/// for each push's reply and the reactor waits for the engine. Measured on
/// a shared 4-vCPU VM, a second engine thread gave no more rounds/s. Left
/// free, the threads woke idle CPUs four times per push, and the wall-clock
/// figures fell by up to a third whenever the host's steal time rose; all
/// on one CPU, push latency split into a fast and a slow cluster whose mix
/// moved the median by a quarter from run to run. Pinned this way, a push
/// crosses CPUs twice and its latency is unimodal.

#include <sched.h>

#include <algorithm>
#include <cmath>
#include <future>
#include <memory>

#include "layers.hpp"
#include "rfp/common/constants.hpp"
#include "rfp/common/rng.hpp"
#include "rfp/core/engine.hpp"
#include "rfp/core/track_sink.hpp"
#include "rfp/exp/testbed.hpp"
#include "rfp/net/client.hpp"
#include "rfp/net/server.hpp"
#include "rfp/track/tracking_engine.hpp"
#include "workloads.hpp"

namespace perfbench {
namespace {

using namespace rfp;

constexpr std::size_t kLanes = 16;
constexpr std::size_t kGroups = 2;         // staggered by half a round
constexpr std::size_t kTags = kLanes * kGroups;
constexpr std::size_t kRoundsPerTag = 15;
constexpr std::size_t kEngineThreads = 1;
constexpr int kSetups = 7;
constexpr double kDwellS = 0.05;           // 50 channels -> 2.5 s rounds
constexpr std::size_t kReadsPerDwell = 16;  // short dwells, fewer reads
// A tag's round occupies a slot that must hold the whole round plus the
// reads' 1 ms spacing past its last dwell (2.56 s > 2.5 s + 6 ms). The
// groups start half a slot apart and one push carries half a slot, so a
// round is assembled over two pushes (25 of its 50 channels, below the 40
// that complete it, arrive in the first) and every poll falls between one
// round of a tag and its next.
constexpr double kRoundSlotS = 2.56;
constexpr double kPushS = kRoundSlotS / kGroups;
constexpr double kStepM = 0.02;
constexpr double kTurnRad = 0.1;  // every item turns slowly on the belt
constexpr double kSpinRad = 0.3;  // ... and the last one spins
constexpr std::size_t kWarmupRounds = 4;  // track fixes skipped in the RMSE
// Every push but the first of a pass completes 16 rounds, so latency is
// unimodal; above p75 it follows the host's scheduling noise, not the work.
constexpr double kTailPercentile = 75.0;

struct TagRound {
  std::string tag_id;
  std::size_t k = 0;     ///< round index along the tag's lane
  TagState truth;
  std::size_t push = 0;  ///< the push whose poll completes this round
};

struct Corpus {
  std::unique_ptr<Testbed> bed;
  std::vector<TagRound> rounds;
  std::vector<RoundTrace> traces;  // parallel to rounds
  std::vector<std::vector<TagRead>> pushes;
  std::vector<double> push_now;      // stream clock at each push
  std::vector<std::size_t> emitted;  // rounds each push must complete
};

Corpus make_corpus(std::uint64_t seed) {
  Corpus corpus;
  TestbedConfig config;
  config.seed = kSiteSeed;
  config.reader.dwell_s = kDwellS;
  config.reader.reads_per_antenna_per_channel = kReadsPerDwell;
  corpus.bed = std::make_unique<Testbed>(config);
  const Testbed& bed = *corpus.bed;

  const std::size_t n_pushes = static_cast<std::size_t>(std::ceil(
      (kRoundSlotS * kRoundsPerTag + kPushS * (kGroups - 1)) / kPushS));
  corpus.pushes.resize(n_pushes);
  corpus.emitted.assign(n_pushes, 0);
  for (std::size_t p = 0; p < n_pushes; ++p) {
    corpus.push_now.push_back(kPushS * static_cast<double>(p + 1));
  }
  std::vector<TagRead> all;
  for (std::size_t i = 0; i < kTags; ++i) {
    const std::string tag_id = "tag-" + std::to_string(i + 1);
    const std::size_t group = i / kLanes;
    const double x0 = 0.3 + 0.6 * static_cast<double>(group);
    const double y = 0.3 + 0.09 * static_cast<double>(i % kLanes);
    // Starting orientations stratify [0, pi), lane-interleaved.
    const double alpha0 = kPi * (static_cast<double>((5 * i) % kTags) + 0.5) /
                          static_cast<double>(kTags);
    for (std::size_t k = 0; k < kRoundsPerTag; ++k) {
      const double turn = i + 1 == kTags ? kSpinRad : kTurnRad;
      const double alpha = std::fmod(alpha0 + turn * static_cast<double>(k), kPi);
      TagRound round;
      round.tag_id = tag_id;
      round.k = k;
      round.truth = bed.tag_state({x0 + kStepM * k, y}, alpha, "plastic");
      const RoundTrace trace =
          bed.collect(round.truth, mix_seed(seed, 0xC0E0 + i * 1000 + k));
      const double start = kPushS * group + kRoundSlotS * k;
      double last = start;
      for (TagRead& read : round_to_reads(trace, tag_id)) {
        read.time_s += start;
        last = std::max(last, read.time_s);
        all.push_back(std::move(read));
      }
      round.push = static_cast<std::size_t>(last / kPushS);
      ++corpus.emitted[round.push];
      corpus.rounds.push_back(std::move(round));
      corpus.traces.push_back(trace);
    }
  }
  std::stable_sort(all.begin(), all.end(),
                   [](const TagRead& a, const TagRead& b) {
                     return a.time_s < b.time_s;
                   });
  for (TagRead& read : all) {
    const auto p = static_cast<std::size_t>(read.time_s / kPushS);
    corpus.pushes[std::min(p, n_pushes - 1)].push_back(std::move(read));
  }
  return corpus;
}

/// The CPUs of the front end (client and reactor) and of the engine: the
/// two highest-numbered CPUs the process may run on. Either is -1 when
/// there is no such CPU.
struct Placement {
  int front = -1;
  int engine = -1;
};

Placement pick_cpus() {
  Placement placement;
  cpu_set_t allowed;
  if (sched_getaffinity(0, sizeof allowed, &allowed) != 0) return placement;
  for (int cpu = CPU_SETSIZE - 1; cpu >= 0 && placement.engine < 0; --cpu) {
    if (!CPU_ISSET(cpu, &allowed)) continue;
    (placement.front < 0 ? placement.front : placement.engine) = cpu;
  }
  return placement;
}

/// Pin the calling thread, and every thread it starts from now on, to
/// `cpu`; a no-op for -1.
void pin_to(int cpu) {
  if (cpu < 0) return;
  cpu_set_t one;
  CPU_ZERO(&one);
  CPU_SET(cpu, &one);
  (void)sched_setaffinity(0, sizeof one, &one);
}

net::ServerConfig server_config() {
  net::ServerConfig config;
  config.stream.enable_warm_start = true;
  config.tracking.enable = true;
  return config;
}

void open_session(const Corpus& corpus, net::Client& client) {
  const RfPrism& prism = corpus.bed->prism();
  (void)client.setup_session(prism.config().geometry, prism.calibrations(),
                             /*enable_drift=*/false, /*enable_tracking=*/true);
}

std::unique_ptr<Loopback> build_sut(const Corpus& corpus,
                                    Placement placement) {
  std::unique_ptr<Loopback> sut =
      start_loopback(*corpus.bed, kEngineThreads, server_config());
  // The caller is pinned to the front end's CPU, which every thread it
  // starts inherits; move the engine's worker to its own.
  if (placement.engine >= 0) {
    std::promise<void> moved;
    std::future<void> done = moved.get_future();
    sut->engine.submit([&] {
      pin_to(placement.engine);
      moved.set_value();
    });
    done.wait();
  }
  // First results: one round slot of the stream, which builds the lazy
  // state (session tenant, Stage-A distance table, buffer pools).
  open_session(corpus, *sut->client);
  for (std::size_t p = 0; p < kGroups; ++p) {
    (void)sut->client->push_stream_raw(corpus.pushes[p], corpus.push_now[p]);
  }
  return sut;
}

/// A TrackSink that times the TrackingEngine from outside: every
/// observe_emissions call becomes a `track.observe` span under the poll
/// that made it.
class TimedSink final : public TrackSink {
 public:
  TimedSink(track::TrackingEngine& engine, Tracer* tracer)
      : engine_(engine), tracer_(tracer) {}
  std::uint64_t parent = 0;
  std::uint64_t request = 0;

  void observe_emissions(std::span<const StreamedResult> emissions,
                         double now_s) override {
    if (tracer_ == nullptr) {
      engine_.observe_emissions(emissions, now_s);
      return;
    }
    Scope s(*tracer_, "track.observe", request, parent);
    engine_.observe_emissions(emissions, now_s);
  }
  bool suppress_warm_start(const std::string& tag_id) const override {
    return engine_.suppress_warm_start(tag_id);
  }

 private:
  track::TrackingEngine& engine_;
  Tracer* tracer_;
};

/// The reference: a local sensor and tracker fed the same pushes, with
/// the server's configuration. Optionally spanned for the traced run.
struct Reference {
  std::vector<std::vector<std::uint8_t>> results;  // per push, encoded
  std::vector<std::vector<std::uint8_t>> events;
  std::vector<StreamedResult> emissions;
  std::vector<track::TrackEvent> track_events;
  std::vector<std::size_t> emitted;  // emissions per push
  std::vector<double> push_poll_ms;  // local push + poll time per push
  StreamingStats streaming;
  track::TrackingStats tracking;
};

Reference run_reference(const Corpus& corpus, Tracer* tracer) {
  const net::ServerConfig config = server_config();
  SensingEngine engine(kEngineThreads);
  StreamingSensor sensor(corpus.bed->prism(), config.stream, &engine);
  track::TrackingEngine tracker(config.tracking);
  TimedSink sink(tracker, tracer);
  sensor.attach_track_sink(&sink);
  Reference ref;
  for (std::size_t p = 0; p < corpus.pushes.size(); ++p) {
    const std::span<const TagRead> reads(corpus.pushes[p]);
    const Clock::time_point t0 = Clock::now();
    std::vector<StreamedResult> results;
    if (tracer == nullptr) {
      sensor.push(reads);
      results = sensor.poll(corpus.push_now[p]);
    } else {
      {
        Scope s(*tracer, "core.streaming.push", p);
        sensor.push(reads);
      }
      Scope s(*tracer, "core.streaming.poll", p);
      sink.parent = s.id();
      sink.request = p;
      results = sensor.poll(corpus.push_now[p]);
    }
    ref.push_poll_ms.push_back(ms_between(t0, Clock::now()));
    std::vector<track::TrackEvent> events = tracker.take_events();
    ref.emitted.push_back(results.size());
    ref.results.push_back(net::encode_stream_results(results));
    ref.events.push_back(net::encode_track_events(events));
    ref.emissions.insert(ref.emissions.end(), results.begin(), results.end());
    ref.track_events.insert(ref.track_events.end(), events.begin(),
                            events.end());
  }
  sensor.attach_track_sink(nullptr);
  ref.streaming = sensor.stats();
  ref.tracking = tracker.stats();
  return ref;
}

}  // namespace

Outcome run_stream_track(const Options& options) {
  Outcome out;
  const Placement placement = pick_cpus();
  pin_to(placement.front);
  out.note("threads", "client 1 + reactor 1 (cpu " +
                          std::to_string(placement.front) +
                          ") + engine 1 (cpu " +
                          std::to_string(placement.engine) + ") = 3");
  const Corpus corpus = make_corpus(options.seed);
  const std::size_t n_pushes = corpus.pushes.size();

  // Reference: the same pushes through a local sensor and tracker. The
  // accuracy metrics come from it; the loop requires the served bytes to
  // equal it, so they are the system's outputs too.
  Tracer tracer(span_capacity(options));
  Reference ref = run_reference(corpus, nullptr);
  if (ref.emitted != corpus.emitted) {
    out.mismatch("the conveyor's rounds were not emitted one per round slot");
  }
  if (options.corrupt_reference) ref.results.front().back() ^= 0x01;

  // Accuracy: each emission (and track fix) against the pose of its tag's
  // round, found by the push its newest read fell into.
  std::map<std::pair<std::string, std::size_t>, std::size_t> by_push;
  for (std::size_t idx = 0; idx < corpus.rounds.size(); ++idx) {
    by_push[{corpus.rounds[idx].tag_id, corpus.rounds[idx].push}] = idx;
  }
  const auto round_of = [&](const std::string& tag_id,
                            double time_s) -> const TagRound* {
    const auto it = by_push.find(
        {tag_id, static_cast<std::size_t>(time_s / kPushS)});
    return it == by_push.end() ? nullptr : &corpus.rounds[it->second];
  };
  Accuracy accuracy;
  for (const StreamedResult& e : ref.emissions) {
    // A missing round is already a layout mismatch.
    if (const TagRound* round = round_of(e.tag_id, e.completed_at_s)) {
      accuracy.add(e.result, round->truth, /*use_z=*/false);
    }
  }
  double sum_sq = 0.0;
  std::size_t fixes = 0;
  for (const track::TrackEvent& e : ref.track_events) {
    const TagRound* round = round_of(e.tag_id, e.time_s);
    if (!e.fix_accepted || round == nullptr || round->k < kWarmupRounds) {
      continue;
    }
    const Vec3 at = round->truth.position;
    const double dx = e.position.x - at.x, dy = e.position.y - at.y;
    sum_sq += dx * dx + dy * dy;
    ++fixes;
  }
  accuracy.tracked_rmse_cm =
      fixes == 0 ? 0.0 : 100.0 * std::sqrt(sum_sq / static_cast<double>(fixes));

  HeapPeak heap;
  std::vector<double> setup_s;
  std::unique_ptr<Loopback> sut = timed_setups<Loopback>(
      kSetups, [&] { return build_sut(corpus, placement); }, setup_s);

  std::vector<std::pair<std::size_t, double>> rtts;  // traced pushes
  std::uint64_t request = 0;
  bool full_pass = false;
  const auto run = [&](double seconds, TimedPhase& phase, bool traced) {
    const Clock::time_point deadline = deadline_after(seconds);
    std::vector<std::uint8_t> scratch, events;
    std::vector<StreamedResult> decoded;
    std::vector<track::TrackEvent> decoded_events;
    // Runs past the deadline until one whole pass is done, so every output
    // the accuracy metrics describe has been served.
    const auto more = [&] { return Clock::now() < deadline || !full_pass; };
    while (more() && out.correct) {
      try {
        open_session(corpus, *sut->client);
        for (std::size_t p = 0; p < n_pushes && more(); ++p) {
          const std::span<const TagRead> reads(corpus.pushes[p]);
          const std::uint64_t id = ++request;
          std::uint64_t span = 0;
          if (traced) {
            span = tracer.begin("net.request", id);
            Scope s(tracer, "net.wire.encode", id, span);
            scratch.clear();
            ByteWriter w(scratch);
            net::encode_stream_push_into(w, corpus.push_now[p], reads);
          }
          const Clock::time_point t0 = Clock::now();
          ++out.attempted;
          const std::vector<std::uint8_t> results =
              sut->client->push_stream_raw(reads, corpus.push_now[p], &events);
          const double ms = ms_between(t0, Clock::now());
          phase.latency_ms.push_back(ms);
          phase.rounds += corpus.emitted[p];
          if (traced) {
            {
              Scope s(tracer, "net.wire.decode", id, span);
              (void)net::decode_stream_results(results, decoded);
              (void)net::decode_track_events(events, decoded_events);
            }
            tracer.end(span);
            rtts.emplace_back(p, ms);
          }
          if (results != ref.results[p] || events != ref.events[p]) {
            out.mismatch("push " + std::to_string(p) +
                         ": results or track events differ from the local "
                         "StreamingSensor + TrackingEngine");
          }
          if (p + 1 == n_pushes) full_pass = true;
        }
      } catch (const std::exception& e) {
        ++out.failed;
        out.mismatch(std::string("transport: ") + e.what());
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
  const net::ServerStats stats = sut->server->stats();
  sut.reset();

  if (!options.trace) {
    add_end_to_end(out, setup_s, phase, kTailPercentile, rss_mb, accuracy);
    return out;
  }

  // Per-layer passes, after the loop so both run warm. First the local
  // sensor and tracker again, spanned: push, poll, track.observe.
  const Reference timed = run_reference(corpus, &tracer);

  // Then every round through the layer functions, warm-hinted
  // from the tag's previous valid fix as the sensor's tracks would be.
  LayerCounters counters;
  SolveWorkspace ws;
  GridGeometryCache cache;
  std::map<std::string, Vec3> last_fix;
  for (const StreamedResult& e : ref.emissions) {
    const TagRound* round = round_of(e.tag_id, e.completed_at_s);
    if (round == nullptr) continue;
    const auto idx = static_cast<std::size_t>(round - corpus.rounds.data());
    const auto hint = last_fix.find(e.tag_id);
    trace_sense(tracer, corpus.bed->prism(), corpus.traces[idx], e.tag_id,
                idx, 0, ws, cache,
                hint == last_fix.end() ? nullptr : &hint->second, counters);
    if (e.result.valid) last_fix[e.tag_id] = e.result.position;
  }
  PerLayer layers;
  layers.fill_core(tracer, counters);
  const auto totals = tracer.layer_totals();
  const auto total_ms = [&](const char* layer) {
    const auto it = totals.find(layer);
    return it == totals.end() ? 0.0 : it->second.total_ms;
  };
  const auto spans = [&](const char* layer) {
    const auto it = totals.find(layer);
    return it == totals.end() ? 1.0
                              : static_cast<double>(std::max<std::uint64_t>(
                                    it->second.spans, 1));
  };
  std::size_t reads = 0;
  for (const auto& push : corpus.pushes) reads += push.size();
  layers.streaming_push_us_per_read =
      1e3 * total_ms("core.streaming.push") / static_cast<double>(reads);
  layers.streaming_poll_ms =
      total_ms("core.streaming.poll") / spans("core.streaming.poll");
  layers.streaming_rounds_per_poll =
      static_cast<double>(ref.emissions.size()) / static_cast<double>(n_pushes);
  layers.track_observe_us = 1e3 * total_ms("track.observe") /
                            static_cast<double>(std::max<std::size_t>(
                                ref.tracking.emissions_consumed, 1));
  layers.track_gated_frac =
      static_cast<double>(ref.tracking.fixes_gated) /
      static_cast<double>(std::max<std::uint64_t>(
          ref.tracking.emissions_consumed, 1));
  layers.fill_net(tracer, stats, stats.stream_results, rtts, timed.push_poll_ms);
  layers.emit(out);
  out.note("server_stats",
           "requests_completed " + std::to_string(stats.requests_completed) +
               " stream_reads " + std::to_string(stats.stream_reads) +
               " stream_results " + std::to_string(stats.stream_results) +
               " stream_track_events " +
               std::to_string(stats.stream_track_events) + " writev_calls " +
               std::to_string(stats.writev_calls) + " pool_hits " +
               std::to_string(stats.pool_hits) + " pool_misses " +
               std::to_string(stats.pool_misses));
  out.note("streaming_stats",
           "reads_accepted " + std::to_string(ref.streaming.reads_accepted) +
               " rounds_emitted " + std::to_string(ref.streaming.rounds_emitted) +
               " rounds_full " + std::to_string(ref.streaming.rounds_full) +
               " rounds_rejected " +
               std::to_string(ref.streaming.rounds_rejected) +
               " duplicates_dropped " +
               std::to_string(ref.streaming.duplicates_dropped) +
               " stale_dropped " + std::to_string(ref.streaming.stale_dropped));
  out.note("tracking_stats",
           "emissions_consumed " +
               std::to_string(ref.tracking.emissions_consumed) +
               " fixes_accepted " + std::to_string(ref.tracking.fixes_accepted) +
               " fixes_gated " + std::to_string(ref.tracking.fixes_gated) +
               " tracks_started " + std::to_string(ref.tracking.tracks_started) +
               " tracks_confirmed " +
               std::to_string(ref.tracking.tracks_confirmed) +
               " events_emitted " + std::to_string(ref.tracking.events_emitted));
  write_spans(out, tracer, options);
  return out;
}

}  // namespace perfbench
