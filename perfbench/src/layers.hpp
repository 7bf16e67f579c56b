#pragma once

/// \file layers.hpp
/// The traced run's per-layer view. `trace_sense` drives one round
/// through the sensing pipeline one public layer function at a time
/// (preprocess → fit → error detector → Stage A → Stage B → features),
/// the order RfPrism::sense composes them in, with a span around each
/// call. `PerLayer` holds every per-layer metric of BENCHMARK.json; a
/// layer that is not on a workload's path reports 0.

#include <string>

#include "harness.hpp"
#include "rfp/core/grid_cache.hpp"
#include "rfp/core/pipeline.hpp"
#include "rfp/net/server.hpp"
#include "trace.hpp"

namespace perfbench {

struct LayerCounters {
  std::uint64_t rounds = 0;
  std::uint64_t rejected = 0;      ///< error detector verdicts != kNone
  std::uint64_t stage_a_solves = 0;
  std::uint64_t cells = 0;         ///< Stage-A cost evaluations
  std::uint64_t warm_hinted = 0;   ///< solves given a warm-start hint
  std::uint64_t warm_hits = 0;     ///< ... that stayed on the warm path
};

/// One traced sense; returns the duration of its root span [ms].
double trace_sense(Tracer& tracer, const rfp::RfPrism& prism,
                   const rfp::RoundTrace& round, const std::string& tag_id,
                   std::uint64_t request, std::uint64_t parent,
                   rfp::SolveWorkspace& ws, rfp::GridGeometryCache& cache,
                   const rfp::Vec3* warm_hint, LayerCounters& counters);

struct PerLayer {
  double preprocess_self_ms = 0, preprocess_allocs = 0;
  double fitting_self_ms = 0, fitting_allocs = 0;
  double stage_a_self_ms = 0, stage_a_cells_per_round = 0,
         stage_a_warm_hit_frac = 0;
  double stage_b_self_ms = 0;
  double error_detector_self_ms = 0, error_detector_reject_frac = 0;
  double features_self_ms = 0;
  double engine_batch_ms = 0, engine_parallel_eff = 0;
  double streaming_push_us_per_read = 0, streaming_poll_ms = 0,
         streaming_rounds_per_poll = 0;
  double track_observe_us = 0, track_gated_frac = 0;
  double wire_encode_us = 0, wire_decode_us = 0, wire_bytes_per_round = 0;
  double transport_ms = 0;
  double writev_per_response = 0;
  double buffer_pool_hit_frac = 0;

  /// Fill the core.* fields from trace_sense spans.
  void fill_core(const Tracer& tracer, const LayerCounters& counters);
  /// Fill the net.* and buffer-pool fields from the net.wire.* spans, the
  /// server's counters, the rounds it served, and (request, round trip)
  /// pairs whose in-process cost `local_ms[request]` is known.
  void fill_net(const Tracer& tracer, const rfp::net::ServerStats& stats,
                std::uint64_t rounds,
                const std::vector<std::pair<std::size_t, double>>& rtts,
                const std::vector<double>& local_ms);
  /// Append every per-layer metric, in BENCHMARK.json order.
  void emit(Outcome& out) const;
};

/// Traced-run bookkeeping shared by the workloads: the tracing overhead
/// (traced minus untraced end-to-end figures) and the span dump.
void report_overhead(Outcome& out, const TimedPhase& untraced,
                     const TimedPhase& traced);
void write_spans(Outcome& out, const Tracer& tracer, const Options& options);

/// Span capacity for a run: none untraced, ample traced.
inline std::size_t span_capacity(const Options& options) {
  return options.trace ? std::size_t{1} << 20 : 0;
}

}  // namespace perfbench
