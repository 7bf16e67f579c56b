#include "layers.hpp"

#include <sys/stat.h>

#include <cstdio>

#include "rfp/core/calibration.hpp"
#include "rfp/core/disentangle.hpp"
#include "rfp/core/error_detector.hpp"
#include "rfp/core/features.hpp"
#include "rfp/core/fitting.hpp"
#include "rfp/core/preprocess.hpp"

namespace perfbench {

double trace_sense(Tracer& tracer, const rfp::RfPrism& prism,
                   const rfp::RoundTrace& round, const std::string& tag_id,
                   std::uint64_t request, std::uint64_t parent,
                   rfp::SolveWorkspace& ws, rfp::GridGeometryCache& cache,
                   const rfp::Vec3* warm_hint, LayerCounters& counters) {
  const rfp::RfPrismConfig& config = prism.config();
  const Clock::time_point t0 = Clock::now();
  {
    Scope sense(tracer, "core.sense", request, parent);
    ++counters.rounds;
    std::vector<rfp::AntennaTrace> traces;
    {
      Scope s(tracer, "core.preprocess", request, sense.id());
      traces = rfp::preprocess_round(round);
    }
    std::vector<rfp::AntennaLine> lines;
    {
      Scope s(tracer, "core.fitting", request, sense.id());
      lines = rfp::fit_all_antennas(traces, config.fitting);
      if (prism.calibrations().reader().has_value()) {
        rfp::apply_reader_calibration(*prism.calibrations().reader(), lines);
      }
    }
    rfp::RejectReason verdict = rfp::RejectReason::kNone;
    {
      // RfPrism runs both: the per-antenna gate, then the round verdict.
      Scope s(tracer, "core.error_detector", request, sense.id());
      (void)rfp::antenna_health_flags(lines, config.error_detector);
      verdict = rfp::detect_errors(lines, config.error_detector);
    }
    if (verdict != rfp::RejectReason::kNone) {
      ++counters.rejected;
    } else {
      rfp::PositionSolve pos;
      {
        Scope s(tracer, "core.stage_a", request, sense.id());
        pos = rfp::solve_position(config.geometry, lines, config.disentangle,
                                  ws, nullptr, &cache, warm_hint);
      }
      ++counters.stage_a_solves;
      counters.cells += pos.cells_scanned;
      if (warm_hint != nullptr) {
        ++counters.warm_hinted;
        if (pos.path == rfp::SolvePath::kWarmStart) ++counters.warm_hits;
      }
      {
        Scope s(tracer, "core.stage_b", request, sense.id());
        (void)rfp::solve_orientation(config.geometry, lines, pos.position,
                                     config.disentangle, ws);
      }
      {
        Scope s(tracer, "core.features", request, sense.id());
        double kt = pos.kt, bt = 0.0;
        std::vector<double> signature = rfp::material_signature(lines);
        if (const rfp::TagCalibration* cal =
                prism.calibrations().find_tag(tag_id)) {
          rfp::apply_tag_calibration(*cal, kt, bt, signature);
        }
      }
    }
  }
  return ms_between(t0, Clock::now());
}

void PerLayer::fill_core(const Tracer& tracer, const LayerCounters& c) {
  const auto totals = tracer.layer_totals();
  const double rounds = static_cast<double>(c.rounds == 0 ? 1 : c.rounds);
  const auto self_ms = [&](const char* layer) {
    const auto it = totals.find(layer);
    return it == totals.end() ? 0.0 : it->second.self_ms / rounds;
  };
  const auto allocs = [&](const char* layer) {
    const auto it = totals.find(layer);
    return it == totals.end()
               ? 0.0
               : static_cast<double>(it->second.self_allocs) / rounds;
  };
  preprocess_self_ms = self_ms("core.preprocess");
  preprocess_allocs = allocs("core.preprocess");
  fitting_self_ms = self_ms("core.fitting");
  fitting_allocs = allocs("core.fitting");
  error_detector_self_ms = self_ms("core.error_detector");
  error_detector_reject_frac = static_cast<double>(c.rejected) / rounds;
  stage_a_self_ms = self_ms("core.stage_a");
  stage_b_self_ms = self_ms("core.stage_b");
  features_self_ms = self_ms("core.features");
  if (c.stage_a_solves > 0) {
    stage_a_cells_per_round = static_cast<double>(c.cells) /
                              static_cast<double>(c.stage_a_solves);
  }
  if (c.warm_hinted > 0) {
    stage_a_warm_hit_frac = static_cast<double>(c.warm_hits) /
                            static_cast<double>(c.warm_hinted);
  }
}

void PerLayer::fill_net(const Tracer& tracer, const rfp::net::ServerStats& stats,
                        std::uint64_t rounds,
                        const std::vector<std::pair<std::size_t, double>>& rtts,
                        const std::vector<double>& local_ms) {
  const auto totals = tracer.layer_totals();
  const auto per_span_us = [&](const char* layer) {
    const auto it = totals.find(layer);
    return it == totals.end() || it->second.spans == 0
               ? 0.0
               : 1e3 * it->second.total_ms /
                     static_cast<double>(it->second.spans);
  };
  wire_encode_us = per_span_us("net.wire.encode");
  wire_decode_us = per_span_us("net.wire.decode");
  double transport = 0.0;
  for (const auto& [request, ms] : rtts) transport += ms - local_ms[request];
  transport_ms = rtts.empty() ? 0.0 : transport / static_cast<double>(rtts.size());
  const auto ratio = [](std::uint64_t num, std::uint64_t den) {
    return den == 0 ? 0.0 : static_cast<double>(num) / static_cast<double>(den);
  };
  wire_bytes_per_round = ratio(stats.bytes_received + stats.bytes_sent, rounds);
  writev_per_response = ratio(stats.writev_calls, stats.requests_completed);
  buffer_pool_hit_frac =
      ratio(stats.pool_hits, stats.pool_hits + stats.pool_misses);
}

void PerLayer::emit(Outcome& out) const {
  out.add("core.preprocess.self_ms", preprocess_self_ms, "ms");
  out.add("core.preprocess.allocs", preprocess_allocs, "count");
  out.add("core.fitting.self_ms", fitting_self_ms, "ms");
  out.add("core.fitting.allocs", fitting_allocs, "count");
  out.add("core.stage_a.self_ms", stage_a_self_ms, "ms");
  out.add("core.stage_a.cells_per_round", stage_a_cells_per_round, "count");
  out.add("core.stage_a.warm_hit_frac", stage_a_warm_hit_frac, "ratio");
  out.add("core.stage_b.self_ms", stage_b_self_ms, "ms");
  out.add("core.error_detector.self_ms", error_detector_self_ms, "ms");
  out.add("core.error_detector.reject_frac", error_detector_reject_frac,
          "ratio");
  out.add("core.features.self_ms", features_self_ms, "ms");
  out.add("core.engine.batch_ms", engine_batch_ms, "ms");
  out.add("core.engine.parallel_eff", engine_parallel_eff, "ratio");
  out.add("core.streaming.push_us_per_read", streaming_push_us_per_read, "us");
  out.add("core.streaming.poll_ms", streaming_poll_ms, "ms");
  out.add("core.streaming.rounds_per_poll", streaming_rounds_per_poll,
          "count");
  out.add("track.observe_us", track_observe_us, "us");
  out.add("track.gated_frac", track_gated_frac, "ratio");
  out.add("net.wire.encode_us", wire_encode_us, "us");
  out.add("net.wire.decode_us", wire_decode_us, "us");
  out.add("net.wire.bytes_per_round", wire_bytes_per_round, "bytes");
  out.add("net.transport_ms", transport_ms, "ms");
  out.add("net.server.writev_per_response", writev_per_response, "count");
  out.add("common.buffer_pool.hit_frac", buffer_pool_hit_frac, "ratio");
}

void report_overhead(Outcome& out, const TimedPhase& untraced,
                     const TimedPhase& traced) {
  const auto rate = [](const TimedPhase& p) {
    return static_cast<double>(p.rounds) / p.elapsed_s();
  };
  char line[256];
  std::snprintf(line, sizeof line,
                "rounds_per_s untraced %.3f traced %.3f (%+.2f%%); "
                "latency_p50_ms untraced %.4f traced %.4f (%+.2f%%)",
                rate(untraced), rate(traced),
                100.0 * (rate(traced) / rate(untraced) - 1.0),
                percentile(untraced.latency_ms, 50.0),
                percentile(traced.latency_ms, 50.0),
                100.0 * (percentile(traced.latency_ms, 50.0) /
                             percentile(untraced.latency_ms, 50.0) -
                         1.0));
  out.note("trace_overhead", line);
}

void write_spans(Outcome& out, const Tracer& tracer, const Options& options) {
  ::mkdir(options.out_dir.c_str(), 0755);  // may already exist
  const std::string path = options.out_dir + "/spans-" + options.workload +
                           "-" + std::to_string(options.seed) + ".json";
  if (tracer.write_json(path)) {
    out.note("spans", path + " (" + std::to_string(tracer.size()) + " spans)");
  } else {
    out.note("spans", "could not write " + path);
  }
}

}  // namespace perfbench
