#pragma once

#include <cstdint>

#include "rfp/common/thread_pool.hpp"
#include "rfp/common/workspace.hpp"
#include "rfp/core/drift.hpp"
#include "rfp/core/types.hpp"

/// \file disentangle.hpp
/// The phase-disentangling solver (paper §IV): turns the per-antenna
/// (slope, intercept) pairs of Eq. 6 into the five (2D) or seven (3D)
/// physical unknowns of Eq. 7:
///
///   k_i = 4*pi*dist(A_i, p)/c + kt
///   b_i = theta_orient(A_i, w) + bt   (mod 2*pi)
///
/// The two equation families are *independent*: the slope family contains
/// the position and the material slope; the intercept family contains the
/// orientation and the material intercept. RF-Prism exploits this by
/// solving them in two stages — which is also why its localization needs
/// no calibration (kt is solved, not assumed) and why its orientation
/// estimate is immune to ranging error (the intercepts never reference
/// distance).

namespace rfp {

class GridGeometryCache;
struct GridTable;

struct DisentangleConfig {
  /// Stage A multi-start grid resolution over the working region.
  std::size_t grid_nx = 41;
  std::size_t grid_ny = 41;

  /// 3D mode: number of z layers (1 = planar 2D sensing at tag_plane_z).
  std::size_t grid_nz = 1;
  double z_lo = 0.0;  ///< z search range in 3D mode
  double z_hi = 1.5;

  /// Levenberg-Marquardt refinement of the grid optimum.
  bool refine = true;

  /// Stage B orientation scan steps over alpha in [0, pi) (2D) or per
  /// azimuth turn (3D; elevation uses half as many over [-pi/2, pi/2]).
  std::size_t orientation_scan_steps = 720;

  /// Stage B golden-section refinement stops once the bracket is narrower
  /// than this [rad] (well below any physical orientation accuracy), and
  /// after at most 40 iterations. Must be > 0.
  double orientation_refine_tol_rad = 1e-6;

  // ---- Solver acceleration (DESIGN.md "Solver acceleration") -----------

  /// Coarse-to-fine pyramid search: scan a decimated sampling of the fine
  /// grid with a fused single-pass ranking kernel, then re-scan full-
  /// resolution windows around the best coarse cells. Deterministic
  /// scan-order argmin, reproducible across thread counts; lands within
  /// one fine cell of the exhaustive scan on smooth slope-residual
  /// surfaces (validated per test scene, not guaranteed adversarially).
  struct Pyramid {
    bool enable = false;
    std::size_t decimation = 4;     ///< coarse stride in fine cells (>= 2)
    std::size_t top_k = 3;          ///< coarse candidates refined at full res
    std::size_t refine_radius = 0;  ///< fine half-window; 0 = decimation + 1
  };
  Pyramid pyramid;

  /// Warm start: when the caller passes a position hint (solve_position's
  /// `warm_hint`, RfPrism::sense_warm, StreamingConfig::enable_warm_start),
  /// scan only a local window around the hint and LM-refine. Falls back to
  /// the full grid — byte-identical to the cold solve — whenever the
  /// windowed solve's refined RMS exceeds `max_rms` or the hint misses the
  /// working region. A null hint is a cold solve.
  struct WarmStart {
    double window_m = 0.25;  ///< half-width of the hint window [m]
    double max_rms = 2e-9;   ///< fallback threshold on refined RMS [rad/Hz]
  };
  WarmStart warm_start;

  /// Online drift self-calibration (drift.hpp): when enabled, owners of a
  /// DriftEstimator (SensingEngine, StreamingSensor, rfpd) subtract its
  /// per-antenna corrections from the calibrated lines before the solve
  /// and feed every valid result back in. Off by default — and when off,
  /// every pipeline output is byte-identical to the drift-free build.
  DriftConfig drift;
};

/// Which Stage-A search produced a PositionSolve.
enum class SolvePath {
  kExhaustive,  ///< full grid scan
  kPyramid,     ///< coarse-to-fine pyramid
  kWarmStart,   ///< hint-windowed scan (did not fall back)
};

/// Stage A output: position and material slope from the slope equations.
struct PositionSolve {
  Vec3 position;
  double kt = 0.0;       ///< common-mode slope left after propagation [rad/Hz]
  double rms = 0.0;      ///< RMS slope residual [rad/Hz]
  bool converged = false;
  SolvePath path = SolvePath::kExhaustive;  ///< which Stage-A search ran
  std::size_t cells_scanned = 0;  ///< Stage-A cost evaluations performed
};

/// Stage B output: orientation and material intercept from the intercept
/// equations.
struct OrientationSolve {
  double alpha = 0.0;      ///< planar angle in [0, pi) (2D mode)
  Vec3 polarization{1, 0, 0};
  double bt = 0.0;         ///< material intercept, wrapped to [0, 2*pi)
  double rms = 0.0;        ///< RMS wrapped intercept residual [rad]
  /// Scan cells the ranked Stage-B scan re-scored canonically
  /// (diagnostic; DESIGN.md "Stage-B ranked scan").
  std::size_t rescored = 0;
};

/// Solve position + kt from per-antenna slopes. Requires >= 3 usable lines
/// in 2D mode (grid_nz == 1) and >= 4 in 3D mode; throws InvalidArgument
/// otherwise. Grid search over the working region seeds an LM refinement;
/// kt is eliminated in closed form at every candidate (it enters the
/// equations linearly).
PositionSolve solve_position(const DeploymentGeometry& geometry,
                             std::span<const AntennaLine> lines,
                             const DisentangleConfig& config);

/// Workspace-taking overload: a solve_position_batch of one round. All
/// scratch (the flattened SoA snapshot of the usable lines, LM buffers)
/// lives in `ws`, so repeated solves on a warmed-up workspace do no heap
/// allocation in the grid scan or the refinement iterations. With a
/// non-null `pool` the Stage-A grid scan is fanned out over the pool by
/// row chunks; results are bit-identical to the sequential scan for any
/// pool size (the argmin reduction is first-strict-minimum in scan order).
///
/// The scan runs over the [cell x antenna] distance table of `cache`
/// (GridGeometryCache::shared() when null), built once per deployment.
/// With a non-null `warm_hint` the solve first tries a local window
/// around the hint and falls back to the full grid when the refined RMS
/// exceeds config.warm_start.max_rms. Throws InvalidArgument on too few
/// usable lines, a grid coarser than 2x2, or a line whose antenna index
/// is out of range.
PositionSolve solve_position(const DeploymentGeometry& geometry,
                             std::span<const AntennaLine> lines,
                             const DisentangleConfig& config,
                             SolveWorkspace& ws, ThreadPool* pool = nullptr,
                             GridGeometryCache* cache = nullptr,
                             const Vec3* warm_hint = nullptr);

/// Solve orientation + bt from per-antenna intercepts, given the Stage-A
/// position estimate (the polarization coupling happens transverse to each
/// antenna->tag ray, so the model needs the ray directions; their
/// sensitivity to position error is tiny — degrees of ray per tens of cm).
/// In 2D mode the polarization is constrained to the tag plane; in 3D mode
/// azimuth and elevation are both scanned. Requires >= 3 usable lines.
/// The scan ranks every cell with the trig-free rfp::simd kernel at the
/// simd::active() level and re-scores the possible winners canonically
/// (DESIGN.md "Stage-B ranked scan"), so the result is byte-identical to
/// scoring every cell canonically.
OrientationSolve solve_orientation(const DeploymentGeometry& geometry,
                                   std::span<const AntennaLine> lines,
                                   Vec3 tag_position,
                                   const DisentangleConfig& config);

/// Workspace-taking overload of solve_orientation (allocation-free at
/// steady state, same results as the plain overload).
OrientationSolve solve_orientation(const DeploymentGeometry& geometry,
                                   std::span<const AntennaLine> lines,
                                   Vec3 tag_position,
                                   const DisentangleConfig& config,
                                   SolveWorkspace& ws);

/// One round's Stage-A input in a tag-batched solve: the usable lines of
/// a round sharing the batch's deployment, plus an optional warm-start
/// hint (same semantics as solve_position's `warm_hint`).
struct BatchedRankRequest {
  std::span<const AntennaLine> lines;
  const Vec3* warm_hint = nullptr;
};

/// Tag-batched Stage-A position solve over one pre-acquired distance
/// table — the one Stage-A solver; solve_position is a batch of one.
/// `out[i]` depends on requests[i] alone and is byte-identical for every
/// batch composition, dispatch level and pool size. Cold rounds are
/// ranked tag-major per shared cell pass (the batched rfp::simd kernels
/// visit each table row once for the whole batch), and warm/pyramid-fine
/// windows batch whenever requests land on identical windows.
///
/// `solved[i]` is set to 1 when out[i] holds a solve and 0 when
/// solve_position would have thrown (too few usable lines, unknown
/// antenna); the batch never throws per tag. Requires matching spans and
/// a table built for this geometry/config — InvalidArgument otherwise.
void solve_position_batch(const DeploymentGeometry& geometry,
                          std::span<const BatchedRankRequest> requests,
                          const DisentangleConfig& config, SolveWorkspace& ws,
                          ThreadPool* pool, const GridTable& table,
                          std::span<PositionSolve> out,
                          std::span<std::uint8_t> solved);

/// One exhaustive Stage-A *ranking* pass over a cached distance table:
/// the winning cell with its canonical two-pass cost. Benchmark and test
/// hook (bench_solver's rank rows, the ranking property tests) —
/// solve_position runs the same scan internally.
struct StageARank {
  std::size_t cell = 0;  ///< winning cell (canonical strict-< argmin)
  double rss = 0.0;      ///< canonical two-pass rss at the winner
  double kt = 0.0;       ///< canonical closed-form kt at the winner
  /// Cells the factored ranking re-scored canonically (the margin
  /// candidates).
  std::size_t candidates = 0;
};

/// Rank every cell of `table` for each request in one shared pass (a
/// span of one ranks a single round). The factored ranking selects the
/// canonical scan's winner: every cell whose factored cost lies within a
/// conservative rounding margin of the pass minimum is re-scored with the
/// canonical kernel and the strict-< scan-order argmin of those
/// candidates is returned. out[i] depends on requests[i] alone except for
/// `candidates`, which can grow with the batch (pass-local minima). Throws
/// InvalidArgument on fewer than 3 usable lines in any request, a
/// table/geometry antenna-count mismatch, or a round with no finite cell
/// cost; warm hints are ignored.
void rank_exhaustive_batch(const DeploymentGeometry& geometry,
                           std::span<const BatchedRankRequest> requests,
                           const GridTable& table, SolveWorkspace& ws,
                           std::span<StageARank> out);

/// Slope-equation RMS residual at a given position (diagnostic; also the
/// Stage A cost function). kt is the closed-form optimum at `p`.
double position_cost(const DeploymentGeometry& geometry,
                     std::span<const AntennaLine> lines, Vec3 p);

/// Intercept-equation RMS residual at a given polarization (diagnostic;
/// Stage B cost). bt is the closed-form circular-mean optimum at `w`.
double orientation_cost(const DeploymentGeometry& geometry,
                        std::span<const AntennaLine> lines, Vec3 tag_position,
                        Vec3 w);

}  // namespace rfp
