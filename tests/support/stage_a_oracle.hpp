#pragma once

/// Test and bench oracle for Stage A: the canonical solve_position and
/// the canonical exhaustive ranking, written out from public primitives
/// with none of the solver's acceleration. Distances are recomputed per
/// cell (no distance table), every cell is scored with the solver's
/// two-pass closed-form kt and slope residual, the argmin is strict-< in
/// canonical (iz, iy, ix) scan order, an optional warm-start window is
/// tried first, and the winner is refined through the public
/// levenberg_marquardt with the solver's residual. The library's
/// solve_position must reproduce it bit for bit for every exhaustive and
/// warm-start solve. oracle_rank_exhaustive is the canonical ranking over
/// a GridTable that rank_exhaustive_batch must match.

#include <algorithm>
#include <cmath>
#include <cstddef>
#include <limits>
#include <span>
#include <vector>

#include "rfp/common/constants.hpp"
#include "rfp/common/error.hpp"
#include "rfp/common/workspace.hpp"
#include "rfp/core/disentangle.hpp"
#include "rfp/core/grid_cache.hpp"
#include "rfp/solver/levenberg_marquardt.hpp"

namespace rfp::testutil {

/// The usable lines of a round (fit.n >= 3) plus per-cell distance
/// scratch, kept in a SolveWorkspace so repeated oracle solves reuse it.
struct StageAOracleScratch {
  std::vector<Vec3> position;
  std::vector<double> slope;
  std::vector<std::size_t> antenna;
  std::vector<double> dist;

  void load(const DeploymentGeometry& geometry,
            std::span<const AntennaLine> lines) {
    position.clear();
    slope.clear();
    antenna.clear();
    for (const AntennaLine& line : lines) {
      if (line.fit.n < 3) continue;
      require(line.antenna < geometry.n_antennas(),
              "stage-A oracle: line references unknown antenna");
      position.push_back(geometry.antenna_positions[line.antenna]);
      slope.push_back(line.fit.slope);
      antenna.push_back(line.antenna);
    }
    dist.resize(slope.size());
  }
  std::size_t n() const { return slope.size(); }
};

struct OracleSlopeCost {
  double kt = 0.0;
  double rss = 0.0;
};

/// The solver's two-pass slope cost at `p`: kt = mean(k_i - K d_i), then
/// rss = sum (k_i - K d_i - kt)^2.
inline OracleSlopeCost oracle_slope_cost(StageAOracleScratch& s, Vec3 p) {
  const std::size_t n = s.n();
  double acc = 0.0;
  for (std::size_t i = 0; i < n; ++i) {
    s.dist[i] = distance(s.position[i], p);
    acc += s.slope[i] - kSlopePerMeter * s.dist[i];
  }
  OracleSlopeCost out;
  out.kt = acc / static_cast<double>(n);
  for (std::size_t i = 0; i < n; ++i) {
    const double r = s.slope[i] - kSlopePerMeter * s.dist[i] - out.kt;
    out.rss += r * r;
  }
  return out;
}

/// Grid-index range [i0, i1] of an axis within `halfwidth` of `center`;
/// false when the window misses the axis (the solver's warm window).
inline bool oracle_axis_window(double lo, double extent, std::size_t n,
                               double center, double halfwidth,
                               std::size_t& i0, std::size_t& i1) {
  if (!(extent > 0.0) || n < 2) {
    i0 = i1 = 0;
    return true;
  }
  const double step = extent / static_cast<double>(n - 1);
  const double f0 = std::floor((center - halfwidth - lo) / step);
  const double f1 = std::ceil((center + halfwidth - lo) / step);
  if (f1 < 0.0 || f0 > static_cast<double>(n - 1)) return false;
  i0 = f0 < 0.0 ? 0 : static_cast<std::size_t>(f0);
  i1 = f1 > static_cast<double>(n - 1) ? n - 1
                                       : static_cast<std::size_t>(f1);
  return i0 <= i1;
}

struct OracleBest {
  double rss = std::numeric_limits<double>::infinity();
  double kt = 0.0;
  Vec3 position;
  bool any = false;
};

/// Canonical strict-< scan of the grid cells [x0,x1] x [y0,y1] x [z0,z1].
inline OracleBest oracle_scan(StageAOracleScratch& s,
                              const DeploymentGeometry& geometry,
                              const DisentangleConfig& config, std::size_t x0,
                              std::size_t x1, std::size_t y0, std::size_t y1,
                              std::size_t z0, std::size_t z1) {
  const Rect& region = geometry.working_region;
  const bool mode_3d = config.grid_nz > 1;
  OracleBest best;
  for (std::size_t iz = z0; iz <= z1; ++iz) {
    const double z = mode_3d ? grid_axis_coord(config.z_lo,
                                               config.z_hi - config.z_lo, iz,
                                               config.grid_nz)
                             : geometry.tag_plane_z;
    for (std::size_t iy = y0; iy <= y1; ++iy) {
      const double y =
          grid_axis_coord(region.lo.y, region.height(), iy, config.grid_ny);
      for (std::size_t ix = x0; ix <= x1; ++ix) {
        const Vec3 p{
            grid_axis_coord(region.lo.x, region.width(), ix, config.grid_nx),
            y, z};
        const OracleSlopeCost cost = oracle_slope_cost(s, p);
        if (cost.rss < best.rss) {
          best.rss = cost.rss;
          best.kt = cost.kt;
          best.position = p;
          best.any = true;
        }
      }
    }
  }
  return best;
}

/// LM refinement of a grid winner, kept only when it stays within 0.2 m
/// of the region and does not raise the cost.
inline PositionSolve oracle_refine(StageAOracleScratch& s,
                                   const DeploymentGeometry& geometry,
                                   const DisentangleConfig& config,
                                   SolveWorkspace& ws, const OracleBest& best) {
  const bool mode_3d = config.grid_nz > 1;
  const std::size_t n = s.n();
  PositionSolve solve;
  solve.position = best.position;
  solve.converged = true;
  double final_rss = best.rss;
  double final_kt = best.kt;
  if (config.refine) {
    const std::size_t n_params = mode_3d ? 3 : 2;
    std::vector<double> initial{best.position.x, best.position.y};
    if (mode_3d) initial.push_back(best.position.z);
    const auto residual_fn = [&](std::span<const double> params,
                                 std::span<double> residuals) {
      const Vec3 p{params[0], params[1],
                   mode_3d ? params[2] : geometry.tag_plane_z};
      const OracleSlopeCost cost = oracle_slope_cost(s, p);
      for (std::size_t i = 0; i < n; ++i) {
        // rad/Hz residuals scaled into O(1) units (rad/GHz).
        residuals[i] =
            (s.slope[i] - kSlopePerMeter * s.dist[i] - cost.kt) * 1e9;
      }
    };
    LmOptions options;
    options.parameter_scales.assign(n_params, 0.05);
    const LmResult lm =
        levenberg_marquardt(residual_fn, initial, n, options, ws);
    const Vec3 refined{lm.params[0], lm.params[1],
                       mode_3d ? lm.params[2] : geometry.tag_plane_z};
    const Rect& region = geometry.working_region;
    const Rect margin{{region.lo.x - 0.2, region.lo.y - 0.2},
                      {region.hi.x + 0.2, region.hi.y + 0.2}};
    if (margin.contains(refined.xy())) {
      const OracleSlopeCost cost = oracle_slope_cost(s, refined);
      if (cost.rss <= best.rss) {
        solve.position = refined;
        solve.converged = lm.converged;
        final_rss = cost.rss;
        final_kt = cost.kt;
      }
    }
  }
  solve.kt = final_kt;
  solve.rms = std::sqrt(final_rss / static_cast<double>(n));
  return solve;
}

/// The canonical solve_position (exhaustive or warm-start path). Same
/// preconditions and InvalidArgument cases.
inline PositionSolve oracle_solve_position(const DeploymentGeometry& geometry,
                                           std::span<const AntennaLine> lines,
                                           const DisentangleConfig& config,
                                           SolveWorkspace& ws,
                                           const Vec3* warm_hint = nullptr) {
  StageAOracleScratch& s = ws.scratch<StageAOracleScratch>();
  s.load(geometry, lines);
  const bool mode_3d = config.grid_nz > 1;
  require(s.n() >= (mode_3d ? 4u : 3u),
          "stage-A oracle: not enough usable antenna lines");
  require(config.grid_nx >= 2 && config.grid_ny >= 2,
          "stage-A oracle: grid too coarse");
  const std::size_t nz = std::max<std::size_t>(config.grid_nz, 1);
  const Rect& region = geometry.working_region;

  if (warm_hint != nullptr) {
    const double w = config.warm_start.window_m;
    std::size_t x0, x1, y0, y1, z0 = 0, z1 = 0;
    if (oracle_axis_window(region.lo.x, region.width(), config.grid_nx,
                           warm_hint->x, w, x0, x1) &&
        oracle_axis_window(region.lo.y, region.height(), config.grid_ny,
                           warm_hint->y, w, y0, y1) &&
        (!mode_3d || oracle_axis_window(config.z_lo, config.z_hi - config.z_lo,
                                        nz, warm_hint->z, w, z0, z1))) {
      const OracleBest windowed =
          oracle_scan(s, geometry, config, x0, x1, y0, y1, z0, z1);
      if (windowed.any && std::isfinite(windowed.rss)) {
        PositionSolve warm = oracle_refine(s, geometry, config, ws, windowed);
        if (warm.rms <= config.warm_start.max_rms) {
          warm.path = SolvePath::kWarmStart;
          warm.cells_scanned = (x1 - x0 + 1) * (y1 - y0 + 1) * (z1 - z0 + 1);
          return warm;
        }
      }
    }
  }

  OracleBest best = oracle_scan(s, geometry, config, 0, config.grid_nx - 1, 0,
                                config.grid_ny - 1, 0, nz - 1);
  if (!best.any || !std::isfinite(best.rss)) {
    // Every cost NaN/inf: the region center seeds the refinement.
    best.position =
        Vec3{region.center().x, region.center().y, geometry.tag_plane_z};
    const OracleSlopeCost cost = oracle_slope_cost(s, best.position);
    best.kt = cost.kt;
    best.rss = cost.rss;
  }
  PositionSolve solve = oracle_refine(s, geometry, config, ws, best);
  solve.path = SolvePath::kExhaustive;
  solve.cells_scanned = config.grid_nx * config.grid_ny * nz;
  return solve;
}

/// The canonical exhaustive ranking over a cached table: every cell
/// scored with the two-pass cost from the table's distances, strict-< in
/// scan order. candidates = n_cells() (everything is scored). Throws
/// InvalidArgument on fewer than 3 usable lines, a table/geometry
/// antenna-count mismatch, or no finite cell cost.
inline StageARank oracle_rank_exhaustive(const DeploymentGeometry& geometry,
                                         std::span<const AntennaLine> lines,
                                         const GridTable& table,
                                         SolveWorkspace& ws) {
  StageAOracleScratch& s = ws.scratch<StageAOracleScratch>();
  s.load(geometry, lines);
  require(s.n() >= 3, "stage-A oracle: not enough usable antenna lines");
  require(table.n_antennas == geometry.n_antennas(),
          "stage-A oracle: table/geometry antenna count mismatch");
  const std::size_t n = s.n();
  StageARank out;
  out.candidates = table.n_cells();
  double best_rss = std::numeric_limits<double>::infinity();
  bool any = false;
  for (std::size_t cell = 0; cell < table.n_cells(); ++cell) {
    const double* dist_row = table.dist.data() + cell * table.n_antennas;
    double acc = 0.0;
    for (std::size_t i = 0; i < n; ++i) {
      acc += s.slope[i] - kSlopePerMeter * dist_row[s.antenna[i]];
    }
    const double kt = acc / static_cast<double>(n);
    double rss = 0.0;
    for (std::size_t i = 0; i < n; ++i) {
      const double r = s.slope[i] - kSlopePerMeter * dist_row[s.antenna[i]] - kt;
      rss += r * r;
    }
    if (rss < best_rss) {
      best_rss = rss;
      out.cell = cell;
      out.rss = rss;
      out.kt = kt;
      any = true;
    }
  }
  require(any, "stage-A oracle: no finite cell cost");
  return out;
}

}  // namespace rfp::testutil
