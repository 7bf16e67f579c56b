#include "rfp/core/pipeline.hpp"

#include <algorithm>
#include <cstdint>
#include <memory>
#include <utility>

#include "rfp/common/angles.hpp"
#include "rfp/common/error.hpp"
#include "rfp/core/engine.hpp"
#include "rfp/core/features.hpp"
#include "rfp/core/grid_cache.hpp"

namespace rfp {

const char* to_string(RejectReason reason) {
  switch (reason) {
    case RejectReason::kNone:
      return "none";
    case RejectReason::kMobility:
      return "mobility";
    case RejectReason::kTooFewChannels:
      return "too_few_channels";
    case RejectReason::kSolverFailure:
      return "solver_failure";
    case RejectReason::kAntennaHealth:
      return "antenna_health";
  }
  return "?";
}

const char* to_string(SensingGrade grade) {
  switch (grade) {
    case SensingGrade::kFull:
      return "full";
    case SensingGrade::kDegraded:
      return "degraded";
    case SensingGrade::kRejected:
      return "rejected";
  }
  return "?";
}

RfPrism::RfPrism(RfPrismConfig config) : config_(std::move(config)) {
  const bool mode_3d = config_.disentangle.grid_nz > 1;
  const std::size_t min_antennas = mode_3d ? 4 : 3;
  require(config_.geometry.n_antennas() >= min_antennas,
          "RfPrism: not enough antennas for the sensing mode");
  require(config_.geometry.antenna_frames.size() ==
              config_.geometry.n_antennas(),
          "RfPrism: antenna frames/positions mismatch");
}

void RfPrism::import_calibrations(const CalibrationDB& db) {
  if (db.reader().has_value()) {
    require(db.reader()->n_antennas() == config_.geometry.n_antennas(),
            "RfPrism::import_calibrations: antenna count mismatch");
  }
  db_ = db;
}

std::vector<AntennaLine> RfPrism::fit_round(const RoundTrace& round,
                                            bool apply_reader_cal) const {
  require(round.n_antennas == config_.geometry.n_antennas(),
          "RfPrism: round antenna count does not match geometry");
  const std::vector<AntennaTrace> traces = preprocess_round(round);
  std::vector<AntennaLine> lines = fit_all_antennas(traces, config_.fitting);
  if (apply_reader_cal && db_.reader().has_value()) {
    apply_reader_calibration(*db_.reader(), lines);
  }
  return lines;
}

void RfPrism::calibrate_reader(const RoundTrace& round,
                               const ReferencePose& reference) {
  const std::vector<AntennaLine> lines =
      fit_round(round, /*apply_reader_cal=*/false);
  db_.set_reader(::rfp::calibrate_reader(config_.geometry, lines, reference));
}

void RfPrism::calibrate_tag(const std::string& tag_id, const RoundTrace& round,
                            const ReferencePose& reference) {
  require(!tag_id.empty(), "RfPrism::calibrate_tag: empty tag id");
  if (!db_.reader().has_value()) {
    throw Error("RfPrism::calibrate_tag: reader calibration required first");
  }
  const std::vector<AntennaLine> lines =
      fit_round(round, /*apply_reader_cal=*/true);
  db_.set_tag(tag_id, ::rfp::calibrate_tag(config_.geometry, lines, reference));
}

namespace {

/// Reject `result` in place with `reason`.
SensingResult& reject(SensingResult& result, RejectReason reason) {
  result.valid = false;
  result.reject_reason = reason;
  result.grade = SensingGrade::kRejected;
  return result;
}

/// Scratch for the workspace-free sense() overload. Thread-local, so the
/// legacy API is safe from any thread and still allocation-free at steady
/// state.
SolveWorkspace& fallback_workspace() {
  static thread_local SolveWorkspace ws;
  return ws;
}

}  // namespace

SensingResult RfPrism::sense(const RoundTrace& round, const std::string& tag_id,
                             const AntennaHealthMonitor* health,
                             const DriftCorrections* drift) const {
  return sense_with(round, tag_id, health, fallback_workspace(),
                    /*pool=*/nullptr, &GridGeometryCache::shared(),
                    /*warm_hint=*/nullptr, drift);
}

SensingResult RfPrism::sense(const RoundTrace& round, SensingEngine& engine,
                             const std::string& tag_id,
                             const AntennaHealthMonitor* health,
                             const DriftCorrections* drift) const {
  return sense_with(round, tag_id, health, engine.local_workspace(),
                    &engine.pool(), &engine.geometry_cache(),
                    /*warm_hint=*/nullptr, drift);
}

SensingResult RfPrism::sense_warm(const RoundTrace& round,
                                  const std::string& tag_id, Vec3 hint,
                                  const AntennaHealthMonitor* health,
                                  SensingEngine* engine,
                                  const DriftCorrections* drift) const {
  if (engine != nullptr) {
    return sense_with(round, tag_id, health, engine->local_workspace(),
                      &engine->pool(), &engine->geometry_cache(), &hint,
                      drift);
  }
  return sense_with(round, tag_id, health, fallback_workspace(),
                    /*pool=*/nullptr, &GridGeometryCache::shared(), &hint,
                    drift);
}

std::vector<SensingResult> RfPrism::sense_batch(
    std::span<const RoundTrace> rounds, SensingEngine& engine,
    const std::string& tag_id, const AntennaHealthMonitor* health,
    const DriftCorrections* drift) const {
  return sense_batch_impl(rounds, /*tag_ids=*/{}, tag_id, engine, health,
                          /*warm_hints=*/{}, drift);
}

std::vector<SensingResult> RfPrism::sense_batch(
    std::span<const RoundTrace> rounds, std::span<const std::string> tag_ids,
    SensingEngine& engine, const AntennaHealthMonitor* health,
    std::span<const std::optional<Vec3>> warm_hints,
    const DriftCorrections* drift) const {
  require(tag_ids.empty() || tag_ids.size() == rounds.size(),
          "RfPrism::sense_batch: tag_ids must be empty or match rounds");
  require(warm_hints.empty() || warm_hints.size() == rounds.size(),
          "RfPrism::sense_batch: warm_hints must be empty or match rounds");
  return sense_batch_impl(rounds, tag_ids, /*shared_tag_id=*/{}, engine, health,
                          warm_hints, drift);
}

std::vector<SensingResult> RfPrism::sense_batch_impl(
    std::span<const RoundTrace> rounds, std::span<const std::string> tag_ids,
    const std::string& shared_tag_id, SensingEngine& engine,
    const AntennaHealthMonitor* health,
    std::span<const std::optional<Vec3>> warm_hints,
    const DriftCorrections* drift) const {
  std::vector<SensingResult> results(rounds.size());
  const DisentangleConfig& dc = config_.disentangle;
  const auto tag_of = [&](std::size_t i) -> const std::string& {
    return tag_ids.empty() ? shared_tag_id : tag_ids[i];
  };
  const auto hint_of = [&](std::size_t i) -> const Vec3* {
    return (!warm_hints.empty() && warm_hints[i].has_value()) ? &*warm_hints[i]
                                                              : nullptr;
  };

  // The tag-major Stage-A pass needs a non-degenerate grid
  // (GridGeometryCache::acquire throws on degenerate grids, whereas the
  // per-round path converts that into a per-round kSolverFailure — so
  // degenerate configs must keep the per-round path). Singletons gain
  // nothing from batching.
  const bool batched =
      rounds.size() >= 2 && dc.grid_nx >= 2 && dc.grid_ny >= 2;
  if (!batched) {
    // One round per chunk: per-tag solves are the natural work quantum
    // (~ms each), and every chunk writes only its own pre-assigned result
    // slot, so results are in input order and independent of scheduling.
    // Inner solves do NOT use the pool (a busy pool must never be waited
    // on from inside itself beyond parallel_for's inline fallback).
    engine.pool().parallel_for(
        rounds.size(), 1,
        [&](std::size_t begin, std::size_t end, std::size_t slot) {
          for (std::size_t i = begin; i < end; ++i) {
            results[i] = sense_with(rounds[i], tag_of(i), health,
                                    engine.workspace(slot), /*pool=*/nullptr,
                                    &engine.geometry_cache(), hint_of(i),
                                    drift);
          }
        });
    return results;
  }

  // ---- Tag-batched Stage-A path ---------------------------------------
  // Every round in the batch shares the deployment geometry, so the cache
  // lookup hoists out of the per-round loop: one digest+lock per batch
  // instead of one per round.
  const std::size_t nz = std::max<std::size_t>(dc.grid_nz, 1);
  const std::shared_ptr<const GridTable> table =
      engine.geometry_cache().acquire(
          config_.geometry,
          GridSpec{dc.grid_nx, dc.grid_ny, nz, dc.z_lo, dc.z_hi});

  // Phase 1: fit + gate every round on the pool. prepare_round needs no
  // workspace; exceptions (antenna-count mismatch) keep parallel_for's
  // first-in-chunk-order semantics, same as the per-round path.
  std::vector<PreparedRound> preps(rounds.size());
  engine.pool().parallel_for(
      rounds.size(), 1,
      [&](std::size_t begin, std::size_t end, std::size_t) {
        for (std::size_t i = begin; i < end; ++i) {
          preps[i] = prepare_round(rounds[i], health, drift);
        }
      });

  // Phase 2: tag-major Stage A over the shared table. solve_position_batch
  // fans the grid rows out over the pool internally.
  std::vector<BatchedRankRequest> requests;
  std::vector<std::size_t> req_of(rounds.size(), 0);
  requests.reserve(rounds.size());
  for (std::size_t i = 0; i < rounds.size(); ++i) {
    if (preps[i].rejected) continue;
    req_of[i] = requests.size();
    requests.push_back(BatchedRankRequest{
        std::span<const AntennaLine>(preps[i].solve_lines), hint_of(i)});
  }
  std::vector<PositionSolve> solves(requests.size());
  std::vector<std::uint8_t> solved(requests.size(), 0);
  if (!requests.empty()) {
    solve_position_batch(config_.geometry, requests, dc,
                         engine.local_workspace(), &engine.pool(), *table,
                         solves, solved);
  }

  // Phase 3: orientation + features + grading per round on the pool.
  engine.pool().parallel_for(
      rounds.size(), 1,
      [&](std::size_t begin, std::size_t end, std::size_t slot) {
        for (std::size_t i = begin; i < end; ++i) {
          if (preps[i].rejected) {
            results[i] = std::move(preps[i].result);
            continue;
          }
          const std::size_t r = req_of[i];
          if (solved[r] == 0) {
            results[i] = reject(preps[i].result, RejectReason::kSolverFailure);
            continue;
          }
          try {
            results[i] = finish_round(preps[i], tag_of(i), solves[r],
                                      engine.workspace(slot));
          } catch (const Error&) {
            results[i] = reject(preps[i].result, RejectReason::kSolverFailure);
          }
        }
      });
  return results;
}

RfPrism::PreparedRound RfPrism::prepare_round(
    const RoundTrace& round, const AntennaHealthMonitor* health,
    const DriftCorrections* drift) const {
  PreparedRound prep;
  SensingResult& result = prep.result;
  std::vector<AntennaLine>& solve_lines = prep.solve_lines;
  result.lines = fit_round(round, /*apply_reader_cal=*/true);
  const bool mode_3d = config_.disentangle.grid_nz > 1;
  const std::size_t min_antennas = mode_3d ? 4 : 3;
  // Drift corrections only bite when the feature is enabled in config AND
  // the caller's snapshot is warmed up; otherwise this path is bit-for-bit
  // the drift-free pipeline.
  const bool use_drift =
      config_.disentangle.drift.enable && drift != nullptr && drift->active;

  // ---- Antenna-subset selection (degraded mode) -----------------------
  // Gate each port's *this-round* data on the §V-C per-antenna criteria.
  // Quarantined ports (long-horizon health) are excluded regardless of how
  // their current round looks.
  const std::vector<bool> gate =
      antenna_health_flags(result.lines, config_.error_detector);
  for (std::size_t i = 0; i < result.lines.size(); ++i) {
    const std::size_t antenna = result.lines[i].antenna;
    const bool quarantined = health != nullptr &&
                             antenna < health->n_antennas() &&
                             !health->healthy(antenna);
    // Ports whose accumulated drift exceeds the correctable bound join
    // the degraded subset path like gate failures: their lines are too
    // far gone to trust even corrected.
    const bool drift_dropped =
        use_drift && antenna < drift->drop.size() && drift->drop[antenna];
    if (!gate[i] || drift_dropped) {
      result.unhealthy_antennas.push_back(antenna);
    }
    if (!gate[i] || drift_dropped || quarantined) {
      result.excluded_antennas.push_back(antenna);
    } else {
      solve_lines.push_back(result.lines[i]);
    }
  }

  // Subtract the estimator's per-antenna corrections from the lines the
  // solver will see. result.lines stays *raw* — diagnostics and the drift
  // estimator itself feed on the uncorrected fits (the integral loop's
  // fixed point depends on it). rmse is untouched by a slope/intercept
  // shift, so the error detector's gates behave identically.
  if (use_drift) {
    for (AntennaLine& line : solve_lines) {
      if (line.antenna < drift->slope.size()) {
        line.fit.slope -= drift->slope[line.antenna];
        line.fit.intercept -= drift->intercept[line.antenna];
      }
    }
  }

  if (solve_lines.size() < min_antennas) {
    // Not enough healthy ports to disentangle. Prefer the whole-round
    // detector verdict when *every* port failed (mobility corrupts all
    // antennas at once — that is not a port-health problem); otherwise
    // name the antenna-health gate explicitly.
    prep.rejected = true;
    RejectReason reason = RejectReason::kAntennaHealth;
    if (result.unhealthy_antennas.size() == result.lines.size()) {
      const RejectReason detected =
          detect_errors(result.lines, config_.error_detector);
      if (detected != RejectReason::kNone) reason = detected;
    }
    reject(result, reason);
    return prep;
  }

  // Best-subset search: the cross-antenna checks can still fail on the
  // healthy set (e.g. one marginal port drags the median); shed the
  // worst-RMSE line while a solvable subset remains.
  RejectReason reason = detect_errors(std::span<const AntennaLine>(solve_lines),
                                      config_.error_detector);
  while (reason != RejectReason::kNone && solve_lines.size() > min_antennas) {
    std::size_t worst = 0;
    for (std::size_t i = 1; i < solve_lines.size(); ++i) {
      if (solve_lines[i].fit.rmse > solve_lines[worst].fit.rmse) worst = i;
    }
    result.unhealthy_antennas.push_back(solve_lines[worst].antenna);
    result.excluded_antennas.push_back(solve_lines[worst].antenna);
    solve_lines.erase(solve_lines.begin() + static_cast<std::ptrdiff_t>(worst));
    reason = detect_errors(std::span<const AntennaLine>(solve_lines),
                           config_.error_detector);
  }
  if (reason != RejectReason::kNone) {
    prep.rejected = true;
    reject(result, reason);
  }
  return prep;
}

SensingResult RfPrism::finish_round(PreparedRound& prep,
                                    const std::string& tag_id,
                                    const PositionSolve& pos,
                                    SolveWorkspace& ws) const {
  // Work on prep.result in place: if the orientation solve throws, the
  // caller still holds the fitted/gated result to reject, exactly like
  // the monolithic path did.
  SensingResult& result = prep.result;
  const std::vector<AntennaLine>& solve_lines = prep.solve_lines;
  const OrientationSolve orient = solve_orientation(
      config_.geometry, solve_lines, pos.position, config_.disentangle, ws);

  result.position = pos.position;
  result.position_residual = pos.rms;
  result.kt = pos.kt;
  result.alpha = orient.alpha;
  result.polarization = orient.polarization;
  result.orientation_residual = orient.rms;
  result.bt = orient.bt;

  // Material features come from the lines that were actually solved on: a
  // dead or bursty port would otherwise poison the averaged signature.
  result.material_signature =
      material_signature(std::span<const AntennaLine>(solve_lines));
  if (!tag_id.empty()) {
    if (const TagCalibration* cal = db_.find_tag(tag_id)) {
      apply_tag_calibration(*cal, result.kt, result.bt,
                            result.material_signature);
    }
  }

  result.valid = true;
  result.reject_reason = RejectReason::kNone;
  result.grade = solve_lines.size() < result.lines.size()
                     ? SensingGrade::kDegraded
                     : SensingGrade::kFull;
  return std::move(prep.result);
}

SensingResult RfPrism::sense_with(const RoundTrace& round,
                                  const std::string& tag_id,
                                  const AntennaHealthMonitor* health,
                                  SolveWorkspace& ws, ThreadPool* pool,
                                  GridGeometryCache* cache,
                                  const Vec3* warm_hint,
                                  const DriftCorrections* drift) const {
  PreparedRound prep = prepare_round(round, health, drift);
  if (prep.rejected) return std::move(prep.result);
  try {
    const PositionSolve pos =
        solve_position(config_.geometry, prep.solve_lines, config_.disentangle,
                       ws, pool, cache, warm_hint);
    return finish_round(prep, tag_id, pos, ws);
  } catch (const Error&) {
    return reject(prep.result, RejectReason::kSolverFailure);
  }
}

}  // namespace rfp
