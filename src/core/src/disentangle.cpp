#include "rfp/core/disentangle.hpp"

#include <algorithm>
#include <array>
#include <cmath>
#include <cstdint>
#include <limits>
#include <map>
#include <memory>
#include <mutex>
#include <span>
#include <utility>
#include <vector>

#include "rfp/common/angles.hpp"
#include "rfp/common/constants.hpp"
#include "rfp/common/error.hpp"
#include "rfp/core/grid_cache.hpp"
#include "rfp/simd/kernels.hpp"
#include "rfp/simd/stage_b.hpp"
#include "rfp/solver/levenberg_marquardt.hpp"

namespace rfp {

namespace {

struct ScanTables;

/// Flat (structure-of-arrays) snapshot of one round's usable lines —
/// antenna geometry and fitted line parameters copied out of the
/// pointer-chasing AntennaLine vector once per solve, so the grid and
/// orientation scans are tight loops over contiguous data. Lives in a
/// SolveWorkspace (scratch<RoundSnapshot>()), so the arrays are reused
/// across solves.
struct RoundSnapshot {
  std::size_t n = 0;
  std::vector<Vec3> position;        ///< antenna phase centers
  std::vector<double> slope;         ///< fitted k_i [rad/Hz]
  std::vector<double> intercept;     ///< fitted b_i [rad]
  std::vector<OrthoFrame> aperture;  ///< antenna aperture frames
  std::vector<std::size_t> antenna;  ///< original antenna indices

  // Scratch for the orientation stage (single-threaded per solve).
  std::vector<OrthoFrame> ray;            ///< frames at the current position
  std::vector<double> residual_angle;     ///< wrapped intercept residuals

  // Stage-B ranked scan (DESIGN.md "Stage-B ranked scan"), refreshed per
  // solve except the shared w tables, which are swapped only when the
  // scan resolution changes.
  std::vector<double> orient_planes;   ///< ux uy uz vx vy vz cos_b sin_b, n each
  std::vector<double> orient_scratch;  ///< kernel scratch
  std::shared_ptr<const ScanTables> scan_tables;
  std::vector<std::size_t> cand_cell;  ///< re-score candidates, scan order
  std::vector<double> cand_rank;       ///< ... and their ranks

  // Antenna-factored sufficient statistics (DESIGN.md "Vectorized
  // kernels"), folded once per round: with count_a, S1_a = Σ slope,
  // S2_a = Σ slope² over antenna a's usable lines, a cell's ranking cost
  // is a closed form over n_antennas terms — the kernels never walk the
  // lines again. Sized to the deployment's antenna count; antennas with
  // no usable line carry all-zero coefficients.
  std::size_t n_antennas = 0;
  std::vector<double> stat_q1;  ///< per antenna: −count_a·K
  std::vector<double> stat_p1;  ///< per antenna: −2K·S1_a
  std::vector<double> stat_p2;  ///< per antenna: count_a·K²
  double stat_c1 = 0.0;         ///< Σ_a S1_a
  double stat_c2 = 0.0;         ///< Σ_a S2_a
  double stat_s1_abs = 0.0;     ///< Σ_a |S1_a| (factored-margin bound)
};

/// Usable = enough inlier channels to trust the fit (paper §V-A).
void build_snapshot(const DeploymentGeometry& geometry,
                    std::span<const AntennaLine> lines, RoundSnapshot& snap) {
  snap.position.clear();
  snap.slope.clear();
  snap.intercept.clear();
  snap.aperture.clear();
  snap.antenna.clear();
  const bool have_frames =
      geometry.antenna_frames.size() == geometry.n_antennas();
  for (const AntennaLine& line : lines) {
    if (line.fit.n < 3) continue;
    require(line.antenna < geometry.n_antennas(),
            "disentangle: line references unknown antenna");
    snap.position.push_back(geometry.antenna_positions[line.antenna]);
    snap.slope.push_back(line.fit.slope);
    snap.intercept.push_back(line.fit.intercept);
    if (have_frames) {
      snap.aperture.push_back(geometry.antenna_frames[line.antenna]);
    }
    snap.antenna.push_back(line.antenna);
  }
  snap.n = snap.slope.size();

  // Pre-size the Stage-B scratch once per round: fill_ray_frames and
  // intercept_cost run per candidate and must never touch capacity.
  snap.ray.resize(snap.n);
  snap.residual_angle.resize(snap.n);

  // Fold the sufficient statistics. The stat arrays hold (count, S1, S2)
  // during accumulation and are transformed into the kernel coefficients
  // in place afterwards.
  const std::size_t na = geometry.n_antennas();
  snap.n_antennas = na;
  snap.stat_q1.assign(na, 0.0);
  snap.stat_p1.assign(na, 0.0);
  snap.stat_p2.assign(na, 0.0);
  for (std::size_t i = 0; i < snap.n; ++i) {
    const std::size_t a = snap.antenna[i];
    snap.stat_q1[a] += 1.0;
    snap.stat_p1[a] += snap.slope[i];
    snap.stat_p2[a] += snap.slope[i] * snap.slope[i];
  }
  snap.stat_c1 = 0.0;
  snap.stat_c2 = 0.0;
  snap.stat_s1_abs = 0.0;
  for (std::size_t a = 0; a < na; ++a) {
    snap.stat_c1 += snap.stat_p1[a];
    snap.stat_c2 += snap.stat_p2[a];
    snap.stat_s1_abs += std::abs(snap.stat_p1[a]);
    const double count = snap.stat_q1[a];
    const double s1 = snap.stat_p1[a];
    snap.stat_q1[a] = -count * kSlopePerMeter;
    snap.stat_p1[a] = -2.0 * kSlopePerMeter * s1;
    snap.stat_p2[a] = count * kSlopePerMeter * kSlopePerMeter;
  }
}

/// Per-cost-evaluation distance scratch: antenna counts are small, so the
/// common case is a stack array and the loops below compute each distance
/// once and reuse it for both the kt mean and the residuals.
constexpr std::size_t kMaxStackAntennas = 64;

/// Closed-form kt and the slope residual sum of squares at `p`, in one
/// walk of the snapshot (kt enters the equations linearly, so it is
/// eliminated exactly at every candidate).
struct SlopeCost {
  double kt = 0.0;
  double rss = 0.0;
};

SlopeCost slope_cost(const RoundSnapshot& snap, Vec3 p) {
  double stack_dist[kMaxStackAntennas];
  std::vector<double> heap_dist;
  double* dist_to = stack_dist;
  if (snap.n > kMaxStackAntennas) {
    heap_dist.resize(snap.n);
    dist_to = heap_dist.data();
  }
  SlopeCost out;
  double acc = 0.0;
  for (std::size_t i = 0; i < snap.n; ++i) {
    dist_to[i] = distance(snap.position[i], p);
    acc += snap.slope[i] - kSlopePerMeter * dist_to[i];
  }
  out.kt = acc / static_cast<double>(snap.n);
  for (std::size_t i = 0; i < snap.n; ++i) {
    const double r = snap.slope[i] - kSlopePerMeter * dist_to[i] - out.kt;
    out.rss += r * r;
  }
  return out;
}

/// Two-pass cached cost at one table cell: bit-identical arithmetic to
/// slope_cost (the table stores the exact distance() doubles, and the
/// accumulation order is the same), with both sqrt walks replaced by
/// contiguous loads — the scan's inner loop is pure multiply-add.
SlopeCost cached_cell_cost(const GridTable& table, const RoundSnapshot& snap,
                           std::size_t cell) {
  const double* dist_row = table.dist.data() + cell * table.n_antennas;
  SlopeCost out;
  double acc = 0.0;
  for (std::size_t i = 0; i < snap.n; ++i) {
    acc += snap.slope[i] - kSlopePerMeter * dist_row[snap.antenna[i]];
  }
  out.kt = acc / static_cast<double>(snap.n);
  for (std::size_t i = 0; i < snap.n; ++i) {
    const double r =
        snap.slope[i] - kSlopePerMeter * dist_row[snap.antenna[i]] - out.kt;
    out.rss += r * r;
  }
  return out;
}

/// The snapshot's sufficient statistics as a kernel view (pointers borrow
/// from the snapshot; valid for the current solve only).
simd::FactoredStats factored_stats(const RoundSnapshot& snap) {
  simd::FactoredStats stats;
  stats.n_antennas = snap.n_antennas;
  stats.c1 = snap.stat_c1;
  stats.c2 = snap.stat_c2;
  stats.inv_n = 1.0 / static_cast<double>(snap.n);
  stats.q1 = snap.stat_q1.data();
  stats.p1 = snap.stat_p1.data();
  stats.p2 = snap.stat_p2.data();
  return stats;
}

/// Conservative bound on |factored − canonical| rss at any cell of
/// `table`: both expressions equal Σx² − n·kt² exactly, and their
/// floating-point results differ by at most a few hundred ulps of the
/// *uncentered* magnitude Σ|per-antenna term| ≤ c2 + 2K·d·Σ|S1| + n(Kd)².
/// Every cell whose factored cost lies within this margin of the factored
/// minimum is re-scored canonically, which makes the factored ranking's
/// winner exactly the canonical scan's strict-< scan-order argmin.
double factored_margin(const RoundSnapshot& snap, const GridTable& table) {
  const double kd = kSlopePerMeter * table.max_dist;
  const double bound = snap.stat_c2 + 2.0 * kd * snap.stat_s1_abs +
                       static_cast<double>(snap.n) * kd * kd;
  return 256.0 * std::numeric_limits<double>::epsilon() *
         static_cast<double>(snap.n + snap.n_antennas + 8) * bound;
}

/// Thread-local ranking buffers for the factored scans. Pool workers keep
/// theirs warm across chunks/solves; these cannot live in the per-solve
/// workspace because chunks of one solve are scanned concurrently.
std::vector<double>& local_rank_buffer() {
  static thread_local std::vector<double> buffer;
  return buffer;
}

std::vector<std::uint32_t>& local_candidate_buffer() {
  static thread_local std::vector<std::uint32_t> buffer(64);
  return buffer;
}

/// Margin candidates of a scored range: indices into `rank[0, count)`
/// with rank[i] <= limit, ascending. Grows the thread-local index buffer
/// and re-collects on the (degenerate-surface) overflow path.
std::span<const std::uint32_t> margin_candidates(const double* rank,
                                                 std::size_t count,
                                                 double limit,
                                                 simd::Level level) {
  std::vector<std::uint32_t>& idx = local_candidate_buffer();
  std::size_t found =
      simd::collect_below(level, rank, count, limit, idx.data(), idx.size());
  if (found > idx.size()) {
    idx.resize(found);
    found =
        simd::collect_below(level, rank, count, limit, idx.data(), idx.size());
  }
  return {idx.data(), found};
}

/// Closed-form bt at polarization w (circular mean of b_i - orient_i) and
/// the wrapped residual sum of squares. Uses snap.residual_angle as
/// scratch; snap.ray must hold the frames at the current tag position.
struct InterceptCost {
  double bt = 0.0;
  double rss = 0.0;
};

InterceptCost intercept_cost(RoundSnapshot& snap, Vec3 w) {
  for (std::size_t i = 0; i < snap.n; ++i) {
    const double orient = polarization_phase(snap.ray[i], w);
    snap.residual_angle[i] = wrap_to_2pi(snap.intercept[i] - orient);
  }
  InterceptCost out;
  out.bt = wrap_to_2pi(circular_mean(snap.residual_angle));
  for (double a : snap.residual_angle) {
    const double r = ang_diff(a, out.bt);
    out.rss += r * r;
  }
  return out;
}

/// Propagation-adjusted aperture frames for all snapshot lines at
/// candidate tag position `p`, into snap.ray (pre-sized per round by
/// build_snapshot).
void fill_ray_frames(RoundSnapshot& snap, Vec3 p) {
  for (std::size_t i = 0; i < snap.n; ++i) {
    snap.ray[i] =
        propagation_adjusted_frame(snap.aperture[i], snap.position[i], p);
  }
}

/// Stage-B w tables for one scan resolution (el_steps == 1 is the planar
/// scan): cos/sin per azimuth and per elevation, computed exactly as
/// planar_polarization / spherical_polarization compute them, so the w
/// vectors the kernel ranks are the canonical scan's. They depend on the
/// resolution only, so one immutable copy serves every solve.
struct ScanTables {
  std::size_t az_steps = 0;
  std::size_t el_steps = 0;
  std::vector<double> cos_az, sin_az;
  std::vector<double> cos_el;  ///< 3D only
  std::vector<double> sin_el;  ///< 3D; az_steps zeros (the w_z) in 2D
};

std::shared_ptr<const ScanTables> make_scan_tables(std::size_t az_steps,
                                                   std::size_t el_steps) {
  auto t = std::make_shared<ScanTables>();
  t->az_steps = az_steps;
  t->el_steps = el_steps;
  for (std::size_t ia = 0; ia < az_steps; ++ia) {
    const double alpha =
        kPi * static_cast<double>(ia) / static_cast<double>(az_steps);
    t->cos_az.push_back(std::cos(alpha));
    t->sin_az.push_back(std::sin(alpha));
  }
  if (el_steps == 1) {
    t->sin_el.assign(az_steps, 0.0);
    return t;
  }
  for (std::size_t ie = 0; ie < el_steps; ++ie) {
    const double elevation =
        -kPi / 2.0 +
        kPi * static_cast<double>(ie) / static_cast<double>(el_steps - 1);
    t->cos_el.push_back(std::cos(elevation));
    t->sin_el.push_back(std::sin(elevation));
  }
  return t;
}

/// The process-wide tables for a resolution, from a small cache of the
/// most recently used ones (holders keep evicted tables alive).
std::shared_ptr<const ScanTables> shared_scan_tables(std::size_t az_steps,
                                                     std::size_t el_steps) {
  static std::mutex mutex;
  static std::vector<std::shared_ptr<const ScanTables>> cache;
  const std::lock_guard<std::mutex> lock(mutex);
  for (const auto& t : cache) {
    if (t->az_steps == az_steps && t->el_steps == el_steps) return t;
  }
  if (cache.size() == 4) cache.erase(cache.begin());
  cache.push_back(make_scan_tables(az_steps, el_steps));
  return cache.back();
}

/// The Stage-B scan (DESIGN.md "Stage-B ranked scan"): cell
/// ia·el_steps + ie is w(alpha_ia, elevation_ie), or w(alpha_ia) when
/// el_steps == 1. Every cell is ranked by the trig-free rfp::simd kernel;
/// then, in scan order and with strict <, intercept_cost re-scores every
/// unsafe cell and every cell ranked within 2·margin of the ranking
/// minimum. Any other cell costs canonically strictly more than the
/// minimum-rank cell, so `best`/`best_rss` end exactly where a canonical
/// scan of every cell would leave them, and a cell that would make
/// circular_mean throw is unsafe, so the first one throws here too.
/// Returns the number of cells re-scored.
std::size_t scan_orientation(RoundSnapshot& snap, std::size_t az_steps,
                             std::size_t el_steps, OrientationSolve& best,
                             double& best_rss) {
  const std::size_t n = snap.n;
  if (!snap.scan_tables || snap.scan_tables->az_steps != az_steps ||
      snap.scan_tables->el_steps != el_steps) {
    snap.scan_tables = shared_scan_tables(az_steps, el_steps);
  }
  const ScanTables& tables = *snap.scan_tables;
  snap.orient_planes.resize(8 * n);
  double* plane = snap.orient_planes.data();
  double max_abs_b = 0.0;
  for (std::size_t i = 0; i < n; ++i) {
    const OrthoFrame& f = snap.ray[i];
    plane[i] = f.u.x;
    plane[n + i] = f.u.y;
    plane[2 * n + i] = f.u.z;
    plane[3 * n + i] = f.v.x;
    plane[4 * n + i] = f.v.y;
    plane[5 * n + i] = f.v.z;
    plane[6 * n + i] = std::cos(snap.intercept[i]);
    plane[7 * n + i] = std::sin(snap.intercept[i]);
    max_abs_b = std::max(max_abs_b, std::abs(snap.intercept[i]));
  }
  const simd::OrientationLines lines{n,         plane,         plane + n,
                                     plane + 2 * n, plane + 3 * n,
                                     plane + 4 * n, plane + 5 * n,
                                     plane + 6 * n, plane + 7 * n};
  snap.orient_scratch.resize(simd::kOrientScratchPerLine * n);
  // NaN intercepts leave max_abs_b alone but make every cell unsafe; an
  // infinite one makes the margin infinite. Either way every cell is
  // re-scored, as the canonical scan would score it.
  const double margin = simd::orientation_margin(n, max_abs_b);
  const simd::Level level = simd::active();

  snap.cand_cell.clear();
  snap.cand_rank.clear();
  double rank_min = std::numeric_limits<double>::infinity();
  // Cells are ranked in runs of at most kRun.
  constexpr std::size_t kRun = 64;
  double rank[kRun];
  const auto rank_run = [&](std::size_t first_cell, const double* wx,
                            const double* wy, const double* wz,
                            std::size_t count) {
    // Cells whose cost lower bound clears the current limit come back
    // +inf: they cost canonically more than rank_min + margin, so more
    // than the minimum-rank cell, and are not candidates.
    const double old_limit = rank_min + 2.0 * margin;
    const double run_min =
        simd::orientation_rank_run(level, lines, wx, wy, wz, count, old_limit,
                                   rank, snap.orient_scratch.data());
    rank_min = std::min(rank_min, run_min);
    const double limit = rank_min + 2.0 * margin;
    if (limit < old_limit) {
      // The minimum dropped: forget earlier candidates now out of reach
      // (unsafe cells rank −inf and always stay).
      std::size_t kept = 0;
      for (std::size_t c = 0; c < snap.cand_cell.size(); ++c) {
        if (snap.cand_rank[c] <= limit) {
          snap.cand_cell[kept] = snap.cand_cell[c];
          snap.cand_rank[kept] = snap.cand_rank[c];
          ++kept;
        }
      }
      snap.cand_cell.resize(kept);
      snap.cand_rank.resize(kept);
    }
    for (const std::uint32_t i :
         margin_candidates(rank, count, limit, level)) {
      snap.cand_cell.push_back(first_cell + i);
      snap.cand_rank.push_back(rank[i]);
    }
  };
  if (el_steps == 1) {
    for (std::size_t ia = 0; ia < az_steps; ia += kRun) {
      rank_run(ia, &tables.cos_az[ia], &tables.sin_az[ia], &tables.sin_el[ia],
               std::min(kRun, az_steps - ia));
    }
  } else {
    // Every kCoarse-th azimuth row is ranked first, then the rest: the
    // running minimum then starts near its final value, which keeps the
    // early-out effective and the candidate list short. (Ranked in scan
    // order, the pole cells that every row shares would otherwise pile up
    // as near-ties of the early rows' minimum.) Only the re-score has to
    // run in scan order.
    constexpr std::size_t kCoarse = 16;
    double wx[kRun], wy[kRun];
    for (const bool coarse : {true, false}) {
      for (std::size_t ia = 0; ia < az_steps; ++ia) {
        if ((ia % kCoarse == 0) != coarse) continue;
        for (std::size_t ie = 0; ie < el_steps; ie += kRun) {
          const std::size_t count = std::min(kRun, el_steps - ie);
          for (std::size_t k = 0; k < count; ++k) {
            wx[k] = tables.cos_el[ie + k] * tables.cos_az[ia];
            wy[k] = tables.cos_el[ie + k] * tables.sin_az[ia];
          }
          rank_run(ia * el_steps + ie, wx, wy, &tables.sin_el[ie], count);
        }
      }
    }
    std::sort(snap.cand_cell.begin(), snap.cand_cell.end());
  }

  for (const std::size_t cell : snap.cand_cell) {
    const std::size_t ia = cell / el_steps;
    const double alpha =
        kPi * static_cast<double>(ia) / static_cast<double>(az_steps);
    Vec3 w;
    if (el_steps == 1) {
      w = planar_polarization(alpha);
    } else {
      const double elevation =
          -kPi / 2.0 + kPi * static_cast<double>(cell % el_steps) /
                           static_cast<double>(el_steps - 1);
      w = spherical_polarization(alpha, elevation);
    }
    const InterceptCost c = intercept_cost(snap, w);
    if (c.rss < best_rss) {
      best_rss = c.rss;
      best.alpha = alpha;
      best.polarization = w;
      best.bt = c.bt;
    }
  }
  return snap.cand_cell.size();
}

/// Per-chunk result of the Stage-A grid scan: the first strict minimum in
/// scan order within the chunk's rows.
struct GridBest {
  double rss = std::numeric_limits<double>::infinity();
  double kt = 0.0;
  Vec3 position;
  std::size_t cell = 0;  ///< canonical cell index (when the scan has one)
  bool any = false;
};

/// Scan grid rows [row_begin, row_end) in canonical (iz, iy, ix) order.
/// A "row" is one (iz, iy) pair: row = iz * grid_ny + iy.
GridBest scan_grid_rows(const RoundSnapshot& snap,
                        const DeploymentGeometry& geometry,
                        const DisentangleConfig& config, bool mode_3d,
                        std::size_t nz, std::size_t row_begin,
                        std::size_t row_end) {
  const Rect& region = geometry.working_region;
  GridBest best;
  for (std::size_t row = row_begin; row < row_end; ++row) {
    const std::size_t iz = row / config.grid_ny;
    const std::size_t iy = row % config.grid_ny;
    const double z =
        mode_3d ? grid_axis_coord(config.z_lo, config.z_hi - config.z_lo, iz,
                                  nz)
                : geometry.tag_plane_z;
    const double y =
        grid_axis_coord(region.lo.y, region.height(), iy, config.grid_ny);
    for (std::size_t ix = 0; ix < config.grid_nx; ++ix) {
      const double x =
          grid_axis_coord(region.lo.x, region.width(), ix, config.grid_nx);
      const Vec3 p{x, y, z};
      const SlopeCost cost = slope_cost(snap, p);
      if (cost.rss < best.rss) {
        best.rss = cost.rss;
        best.kt = cost.kt;
        best.position = p;
        best.cell = row * config.grid_nx + ix;
        best.any = true;
      }
    }
  }
  return best;
}

/// Cached variant of scan_grid_rows: same rows, same scan order, same
/// two-pass arithmetic — distances loaded from the table instead of
/// recomputed per cell.
GridBest scan_grid_rows_cached(const RoundSnapshot& snap,
                               const GridTable& table, std::size_t row_begin,
                               std::size_t row_end) {
  GridBest best;
  const std::size_t nx = table.spec.nx;
  for (std::size_t row = row_begin; row < row_end; ++row) {
    for (std::size_t ix = 0; ix < nx; ++ix) {
      const std::size_t cell = row * nx + ix;
      const SlopeCost cost = cached_cell_cost(table, snap, cell);
      if (cost.rss < best.rss) {
        best.rss = cost.rss;
        best.kt = cost.kt;
        best.position = table.cell_position(cell);
        best.cell = cell;
        best.any = true;
      }
    }
  }
  return best;
}

/// Factored-ranking variant of scan_grid_rows_cached. Two stages:
///
///  1. The batched sufficient-statistics kernel (rfp::simd) scores every
///     cell of the rows into a thread-local buffer — O(n_antennas) per
///     cell instead of O(n_lines), 3 FMAs per antenna, vectorized 8 cells
///     wide at Level::kAvx2.
///  2. Every cell whose factored cost lies within `margin` of the buffer
///     minimum is re-scored with the canonical two-pass kernel under the
///     same first-strict-minimum scan order.
///
/// Because the margin bounds the factored-vs-canonical rounding gap
/// (factored_margin), the canonical argmin is always among the re-scored
/// candidates, so the returned winner — rss, kt, position, cell — is
/// byte-identical to scan_grid_rows_cached over the same rows, for either
/// dispatch level. The factored costs only *rank*; they are never
/// reported.
GridBest scan_grid_rows_factored(const RoundSnapshot& snap,
                                 const GridTable& table, simd::Level level,
                                 double margin, std::size_t row_begin,
                                 std::size_t row_end,
                                 std::size_t* candidates = nullptr) {
  GridBest best;
  const std::size_t nx = table.spec.nx;
  const std::size_t cell_begin = row_begin * nx;
  const std::size_t cell_end = row_end * nx;
  if (cell_begin >= cell_end) return best;
  const std::size_t count = cell_end - cell_begin;

  std::vector<double>& rank = local_rank_buffer();
  if (rank.size() < count) rank.resize(count);
  const simd::FactoredStats stats = factored_stats(snap);
  const double rank_min =
      simd::factored_rss_run(level, stats, table.dist_t.data(),
                             table.cell_stride, cell_begin, cell_end,
                             rank.data());
  // All-NaN costs (a poisoned slope poisons every cell in both kernels):
  // report "no cell", exactly like the canonical scan.
  if (!std::isfinite(rank_min)) return best;

  for (std::uint32_t i :
       margin_candidates(rank.data(), count, rank_min + margin, level)) {
    const std::size_t cell = cell_begin + i;
    const SlopeCost cost = cached_cell_cost(table, snap, cell);
    if (candidates != nullptr) ++*candidates;
    if (cost.rss < best.rss) {
      best.rss = cost.rss;
      best.kt = cost.kt;
      best.position = table.cell_position(cell);
      best.cell = cell;
      best.any = true;
    }
  }
  return best;
}

/// Fan a row-range scan out over the pool by chunks, reducing to the
/// first strict minimum in chunk (= scan) order; bit-identical to the
/// sequential scan for any pool size. `scan(row_begin, row_end)` must be
/// safe to call concurrently.
template <typename ScanRows>
GridBest chunked_scan(std::size_t rows, ThreadPool* pool,
                      const ScanRows& scan) {
  if (pool != nullptr && pool->size() > 1) {
    const std::size_t chunk =
        std::max<std::size_t>(1, rows / (4 * pool->size()));
    const std::size_t n_chunks = (rows + chunk - 1) / chunk;
    std::vector<GridBest> slots(n_chunks);
    pool->parallel_for(rows, chunk,
                       [&](std::size_t begin, std::size_t end, std::size_t) {
                         slots[begin / chunk] = scan(begin, end);
                       });
    GridBest best;
    for (const GridBest& slot : slots) {
      if (slot.any && slot.rss < best.rss) best = slot;
    }
    return best;
  }
  return scan(0, rows);
}

/// Strided coarse sampling of one fine axis: 0, s, 2s, ... plus the last
/// index (the region edges must stay reachable at the coarse level).
void coarse_axis(std::size_t n, std::size_t stride,
                 std::vector<std::size_t>& out) {
  out.clear();
  for (std::size_t i = 0; i < n; i += stride) out.push_back(i);
  if (out.back() != n - 1) out.push_back(n - 1);
}

GridBest window_scan_factored(const RoundSnapshot& snap,
                              const GridTable& table, simd::Level level,
                              double margin, std::size_t x0, std::size_t x1,
                              std::size_t y0, std::size_t y1, std::size_t z0,
                              std::size_t z1, std::size_t* cells_scanned);

/// Coarse-to-fine pyramid scan over the cached table. Deterministic and
/// single-threaded by construction: the coarse pass ranks a strided
/// sampling of the fine grid in canonical order keeping the top-K cells
/// (ties broken by cell index), then full-resolution windows around each
/// candidate are re-scanned under a strict-minimum argmin over canonical
/// costs — overlapping windows cannot change the winner.
///
/// With a factored rank kernel both passes use it: the coarse ranking
/// batches whole x-rows of the antenna-major table (only the strided
/// entries are consumed and counted), and each fine window goes through
/// window_scan_factored, whose winner is byte-identical to the canonical
/// window walk — so merging per-window winners strict-< in candidate
/// order reproduces the canonical fine pass bit-for-bit. Coarse ranking
/// is approximate by design either way; everything reported comes from
/// the fine pass's canonical re-scoring.
GridBest pyramid_scan(const RoundSnapshot& snap, const GridTable& table,
                      const DisentangleConfig& config, simd::Level level,
                      double margin, std::size_t* cells_scanned) {
  const std::size_t nx = table.spec.nx;
  const std::size_t ny = table.spec.ny;
  const std::size_t nz = table.spec.nz;
  const std::size_t stride = std::max<std::size_t>(config.pyramid.decimation, 2);
  const std::size_t top_k = std::max<std::size_t>(config.pyramid.top_k, 1);
  const std::size_t radius = config.pyramid.refine_radius > 0
                                 ? config.pyramid.refine_radius
                                 : stride + 1;
  const bool factored = config.rank_kernel != RankKernel::kCanonical;

  // ---- Coarse pass: factored ranking over the strided sampling ---------
  std::vector<std::size_t> xs_i, ys_i, zs_i;
  coarse_axis(nx, stride, xs_i);
  coarse_axis(ny, stride, ys_i);
  coarse_axis(nz, nz > 1 ? stride : 1, zs_i);

  std::vector<double>& rank = local_rank_buffer();
  if (factored && rank.size() < nx) rank.resize(nx);
  const simd::FactoredStats stats = factored_stats(snap);

  std::vector<std::pair<double, std::size_t>> top;  // (rss, cell), ascending
  top.reserve(top_k + 1);
  for (std::size_t iz : zs_i) {
    for (std::size_t iy : ys_i) {
      const std::size_t row0 = (iz * ny + iy) * nx;
      if (factored) {
        simd::factored_rss_run(level, stats, table.dist_t.data(),
                               table.cell_stride, row0, row0 + nx,
                               rank.data());
      }
      for (std::size_t ix : xs_i) {
        const std::size_t cell = row0 + ix;
        const double rss =
            factored ? rank[ix] : cached_cell_cost(table, snap, cell).rss;
        const std::pair<double, std::size_t> cand{rss, cell};
        ++*cells_scanned;
        if (top.size() < top_k || cand < top.back()) {
          top.insert(std::lower_bound(top.begin(), top.end(), cand), cand);
          if (top.size() > top_k) top.pop_back();
        }
      }
    }
  }

  // ---- Fine pass: canonical costs over windows around each candidate --
  GridBest best;
  for (const auto& [coarse_rss, cell] : top) {
    const std::size_t cx = cell % nx;
    const std::size_t cy = (cell / nx) % ny;
    const std::size_t cz = cell / (nx * ny);
    const std::size_t x0 = cx > radius ? cx - radius : 0;
    const std::size_t x1 = std::min(cx + radius, nx - 1);
    const std::size_t y0 = cy > radius ? cy - radius : 0;
    const std::size_t y1 = std::min(cy + radius, ny - 1);
    const std::size_t z0 = cz > radius ? cz - radius : 0;
    const std::size_t z1 = std::min(cz + radius, nz - 1);
    if (factored) {
      const GridBest w = window_scan_factored(snap, table, level, margin, x0,
                                              x1, y0, y1, z0, z1,
                                              cells_scanned);
      if (w.any && w.rss < best.rss) best = w;
      continue;
    }
    for (std::size_t iz = z0; iz <= z1; ++iz) {
      for (std::size_t iy = y0; iy <= y1; ++iy) {
        for (std::size_t ix = x0; ix <= x1; ++ix) {
          const std::size_t fine = (iz * ny + iy) * nx + ix;
          const SlopeCost cost = cached_cell_cost(table, snap, fine);
          ++*cells_scanned;
          if (cost.rss < best.rss) {
            best.rss = cost.rss;
            best.kt = cost.kt;
            best.position = table.cell_position(fine);
            best.cell = fine;
            best.any = true;
          }
        }
      }
    }
  }
  return best;
}

/// Grid-index range [i0, i1] of cells whose axis coordinate falls within
/// [center - halfwidth, center + halfwidth]; false if the window misses
/// the axis entirely.
bool axis_window(double lo, double extent, std::size_t n, double center,
                 double halfwidth, std::size_t& i0, std::size_t& i1) {
  if (!(extent > 0.0) || n < 2) {
    i0 = i1 = 0;
    return true;  // degenerate axis: the single coordinate always "matches"
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

/// Factored variant of the warm-start window scan body: the batched
/// kernel scores each row segment [x0, x1] of the window into the rank
/// buffer, then margin candidates are re-scored canonically in window
/// scan order. Byte-identical winner to the canonical window walk (same
/// margin argument as scan_grid_rows_factored); counts one scanned cell
/// per window cell, like the canonical walk.
GridBest window_scan_factored(const RoundSnapshot& snap,
                              const GridTable& table, simd::Level level,
                              double margin, std::size_t x0, std::size_t x1,
                              std::size_t y0, std::size_t y1, std::size_t z0,
                              std::size_t z1, std::size_t* cells_scanned) {
  const std::size_t nx = table.spec.nx;
  const std::size_t ny = table.spec.ny;
  const std::size_t wx = x1 - x0 + 1;
  const std::size_t n_rows = (z1 - z0 + 1) * (y1 - y0 + 1);
  *cells_scanned += wx * n_rows;

  std::vector<double>& rank = local_rank_buffer();
  if (rank.size() < wx * n_rows) rank.resize(wx * n_rows);
  const simd::FactoredStats stats = factored_stats(snap);
  const std::size_t wy = y1 - y0 + 1;
  double rank_min = std::numeric_limits<double>::infinity();
  std::size_t slot = 0;
  for (std::size_t iz = z0; iz <= z1; ++iz) {
    for (std::size_t iy = y0; iy <= y1; ++iy) {
      const std::size_t row0 = (iz * ny + iy) * nx;
      const double row_min =
          simd::factored_rss_run(level, stats, table.dist_t.data(),
                                 table.cell_stride, row0 + x0, row0 + x1 + 1,
                                 rank.data() + slot);
      rank_min = row_min < rank_min ? row_min : rank_min;
      slot += wx;
    }
  }

  GridBest best;
  if (!std::isfinite(rank_min)) return best;

  // Packed slots run in canonical window order, so ascending candidate
  // slots preserve the canonical walk's first-strict-minimum tie-break.
  for (std::uint32_t i : margin_candidates(rank.data(), wx * n_rows,
                                           rank_min + margin, level)) {
    const std::size_t r = i / wx;
    const std::size_t ix = x0 + i % wx;
    const std::size_t iy = y0 + r % wy;
    const std::size_t iz = z0 + r / wy;
    const std::size_t cell = (iz * ny + iy) * nx + ix;
    const SlopeCost cost = cached_cell_cost(table, snap, cell);
    if (cost.rss < best.rss) {
      best.rss = cost.rss;
      best.kt = cost.kt;
      best.position = table.cell_position(cell);
      best.cell = cell;
      best.any = true;
    }
  }
  return best;
}

/// Warm-start window scan: the fine cells within warm_start.window_m of
/// the hint, canonical order, canonical two-pass kernel (from the table
/// when available, recomputed otherwise — same positions, same bits).
/// With a table and a factored rank kernel the window is ranked by
/// window_scan_factored instead — byte-identical winner, less work.
GridBest window_scan(const RoundSnapshot& snap,
                     const DeploymentGeometry& geometry,
                     const DisentangleConfig& config, const GridTable* table,
                     simd::Level level, double margin, bool mode_3d,
                     std::size_t nz, Vec3 hint, std::size_t* cells_scanned) {
  const Rect& region = geometry.working_region;
  const double w = config.warm_start.window_m;
  std::size_t x0, x1, y0, y1, z0 = 0, z1 = 0;
  if (!axis_window(region.lo.x, region.width(), config.grid_nx, hint.x, w, x0,
                   x1) ||
      !axis_window(region.lo.y, region.height(), config.grid_ny, hint.y, w,
                   y0, y1)) {
    return {};
  }
  if (mode_3d && !axis_window(config.z_lo, config.z_hi - config.z_lo, nz,
                              hint.z, w, z0, z1)) {
    return {};
  }

  if (table != nullptr && config.rank_kernel != RankKernel::kCanonical) {
    return window_scan_factored(snap, *table, level, margin, x0, x1, y0, y1,
                                z0, z1, cells_scanned);
  }

  GridBest best;
  for (std::size_t iz = z0; iz <= z1; ++iz) {
    const double z =
        mode_3d ? grid_axis_coord(config.z_lo, config.z_hi - config.z_lo, iz,
                                  nz)
                : geometry.tag_plane_z;
    for (std::size_t iy = y0; iy <= y1; ++iy) {
      const double y =
          grid_axis_coord(region.lo.y, region.height(), iy, config.grid_ny);
      for (std::size_t ix = x0; ix <= x1; ++ix) {
        const std::size_t cell = (iz * config.grid_ny + iy) * config.grid_nx + ix;
        SlopeCost cost;
        Vec3 p;
        if (table != nullptr) {
          cost = cached_cell_cost(*table, snap, cell);
          p = table->cell_position(cell);
        } else {
          p = Vec3{grid_axis_coord(region.lo.x, region.width(), ix,
                                   config.grid_nx),
                   y, z};
          cost = slope_cost(snap, p);
        }
        ++*cells_scanned;
        if (cost.rss < best.rss) {
          best.rss = cost.rss;
          best.kt = cost.kt;
          best.position = table != nullptr ? table->cell_position(cell) : p;
          best.cell = cell;
          best.any = true;
        }
      }
    }
  }
  return best;
}

// ---- Tag-batched Stage-A (DisentangleConfig::batch_rank) ---------------
//
// The batched scans below rank B rounds per shared pass over the cached
// table (simd::factored_rss_run_batch streams each row once per tag tile
// instead of once per tag). Identity argument, per tag: the batched
// kernel's per-(tag, cell) arithmetic is exactly the single-tag kernel's,
// and margin candidates are collected against pass-local minima — a pass
// minimum is >= the tag's whole-scan minimum, so every pass's candidate
// set is a superset of the single-tag scan's candidates in that range.
// The margin guarantee (factored_margin) puts every cell whose canonical
// cost equals the canonical minimum inside *any* such superset, and
// candidates are re-scored canonically in scan order with a strict-<
// argmin — so the winning cell, rss, kt and position are byte-identical
// to the per-tag scan, only the amount of canonical re-scoring differs.

/// Thread-local arena for the batched kernels: per-tag value slices plus
/// the pointer/min fan-out arrays. Pool workers keep theirs warm across
/// chunks, like local_rank_buffer().
struct BatchRankArena {
  std::vector<double> values;
  std::vector<double*> outs;      ///< base slice per tag
  std::vector<double*> seg_outs;  ///< shifted slice per tag (window rows)
  std::vector<double> mins;
  std::vector<double> seg_mins;

  void reserve(std::size_t n_tags, std::size_t cells) {
    if (values.size() < n_tags * cells) values.resize(n_tags * cells);
    if (outs.size() < n_tags) {
      outs.resize(n_tags);
      seg_outs.resize(n_tags);
      mins.resize(n_tags);
      seg_mins.resize(n_tags);
    }
    for (std::size_t b = 0; b < n_tags; ++b) {
      outs[b] = values.data() + b * cells;
    }
  }
};

BatchRankArena& local_batch_arena() {
  static thread_local BatchRankArena arena;
  return arena;
}

/// Batched scan_grid_rows_factored: one shared pass over rows
/// [row_begin, row_end) ranks every tag. Row groups are sized so the
/// group's table planes and per-tag slices stay cache-resident while the
/// kernel's tag tiles re-read them. bests[b] is reduced strict-< in scan
/// order; candidates[b] (optional) counts canonical re-scores per tag.
void scan_grid_rows_factored_batch(const RoundSnapshot* const* snaps,
                                   const simd::FactoredStats* stats,
                                   const double* margins, std::size_t n_tags,
                                   const GridTable& table, simd::Level level,
                                   std::size_t row_begin, std::size_t row_end,
                                   GridBest* bests,
                                   std::size_t* candidates = nullptr) {
  const std::size_t nx = table.spec.nx;
  if (row_begin >= row_end || n_tags == 0) return;
  // ~6K cells/group: a 16-tag batch's out slices (~768KB) plus the group's
  // 8-antenna table planes (~384KB) stay L2-resident, while the per-group
  // passes (margin collect, candidate re-score) amortize over 3x more cells
  // than a 2K-cell group would give.
  const std::size_t group_rows = std::max<std::size_t>(1, 6144 / nx);
  BatchRankArena& arena = local_batch_arena();
  for (std::size_t row = row_begin; row < row_end; row += group_rows) {
    const std::size_t group_end = std::min(row + group_rows, row_end);
    const std::size_t cell_begin = row * nx;
    const std::size_t cell_end = group_end * nx;
    const std::size_t count = cell_end - cell_begin;
    arena.reserve(n_tags, count);
    simd::factored_rss_run_batch(level, stats, n_tags, table.dist_t.data(),
                                 table.cell_stride, cell_begin, cell_end,
                                 arena.outs.data(), arena.mins.data());
    for (std::size_t b = 0; b < n_tags; ++b) {
      if (!std::isfinite(arena.mins[b])) continue;
      for (std::uint32_t i :
           margin_candidates(arena.outs[b], count, arena.mins[b] + margins[b],
                             level)) {
        const std::size_t cell = cell_begin + i;
        const SlopeCost cost = cached_cell_cost(table, *snaps[b], cell);
        if (candidates != nullptr) ++candidates[b];
        GridBest& best = bests[b];
        if (cost.rss < best.rss) {
          best.rss = cost.rss;
          best.kt = cost.kt;
          best.position = table.cell_position(cell);
          best.cell = cell;
          best.any = true;
        }
      }
    }
  }
}

/// Batched window_scan_factored: the tags share one window, each tag's
/// candidate threshold uses its own whole-window minimum — so per tag the
/// candidate set, scan order and winner are exactly the single-tag
/// window_scan_factored's. Callers account the wx*n_rows scanned cells
/// per tag themselves (the single-tag helper does it inline).
void window_scan_factored_batch(const RoundSnapshot* const* snaps,
                                const simd::FactoredStats* stats,
                                const double* margins, std::size_t n_tags,
                                const GridTable& table, simd::Level level,
                                std::size_t x0, std::size_t x1, std::size_t y0,
                                std::size_t y1, std::size_t z0, std::size_t z1,
                                GridBest* bests) {
  const std::size_t nx = table.spec.nx;
  const std::size_t ny = table.spec.ny;
  const std::size_t wx = x1 - x0 + 1;
  const std::size_t wy = y1 - y0 + 1;
  const std::size_t n_rows = (z1 - z0 + 1) * wy;

  BatchRankArena& arena = local_batch_arena();
  arena.reserve(n_tags, wx * n_rows);
  std::vector<double>& win_min = arena.mins;
  for (std::size_t b = 0; b < n_tags; ++b) {
    win_min[b] = std::numeric_limits<double>::infinity();
  }
  std::size_t slot = 0;
  for (std::size_t iz = z0; iz <= z1; ++iz) {
    for (std::size_t iy = y0; iy <= y1; ++iy) {
      const std::size_t row0 = (iz * ny + iy) * nx;
      for (std::size_t b = 0; b < n_tags; ++b) {
        arena.seg_outs[b] = arena.outs[b] + slot;
      }
      simd::factored_rss_run_batch(level, stats, n_tags, table.dist_t.data(),
                                   table.cell_stride, row0 + x0, row0 + x1 + 1,
                                   arena.seg_outs.data(),
                                   arena.seg_mins.data());
      for (std::size_t b = 0; b < n_tags; ++b) {
        win_min[b] =
            arena.seg_mins[b] < win_min[b] ? arena.seg_mins[b] : win_min[b];
      }
      slot += wx;
    }
  }

  for (std::size_t b = 0; b < n_tags; ++b) {
    if (!std::isfinite(win_min[b])) continue;
    for (std::uint32_t i : margin_candidates(arena.outs[b], wx * n_rows,
                                             win_min[b] + margins[b], level)) {
      const std::size_t r = i / wx;
      const std::size_t ix = x0 + i % wx;
      const std::size_t iy = y0 + r % wy;
      const std::size_t iz = z0 + r / wy;
      const std::size_t cell = (iz * ny + iy) * nx + ix;
      const SlopeCost cost = cached_cell_cost(table, *snaps[b], cell);
      GridBest& best = bests[b];
      if (cost.rss < best.rss) {
        best.rss = cost.rss;
        best.kt = cost.kt;
        best.position = table.cell_position(cell);
        best.cell = cell;
        best.any = true;
      }
    }
  }
}

/// Window bounds as a grouping key: fine/warm windows that coincide
/// across tags share one batched scan.
using WindowKey = std::array<std::size_t, 6>;

/// Batched pyramid_scan: one shared coarse pass feeds per-tag top-K
/// selections, then the fine windows are grouped across tags by identical
/// bounds and each group is scanned batched. Per-tag fine results are
/// merged strict-< in that tag's candidate order, so bests[b] and
/// cells_scanned[b] are byte-identical to the single-tag pyramid_scan.
void pyramid_scan_batch(const RoundSnapshot* const* snaps,
                        const simd::FactoredStats* stats,
                        const double* margins, std::size_t n_tags,
                        const GridTable& table,
                        const DisentangleConfig& config, simd::Level level,
                        GridBest* bests, std::size_t* cells_scanned) {
  const std::size_t nx = table.spec.nx;
  const std::size_t ny = table.spec.ny;
  const std::size_t nz = table.spec.nz;
  const std::size_t stride =
      std::max<std::size_t>(config.pyramid.decimation, 2);
  const std::size_t top_k = std::max<std::size_t>(config.pyramid.top_k, 1);
  const std::size_t radius = config.pyramid.refine_radius > 0
                                 ? config.pyramid.refine_radius
                                 : stride + 1;

  std::vector<std::size_t> xs_i, ys_i, zs_i;
  coarse_axis(nx, stride, xs_i);
  coarse_axis(ny, stride, ys_i);
  coarse_axis(nz, nz > 1 ? stride : 1, zs_i);

  // ---- Coarse pass: one batched full-row ranking per sampled row -------
  BatchRankArena& arena = local_batch_arena();
  std::vector<std::vector<std::pair<double, std::size_t>>> tops(n_tags);
  for (auto& top : tops) top.reserve(top_k + 1);
  for (std::size_t iz : zs_i) {
    for (std::size_t iy : ys_i) {
      const std::size_t row0 = (iz * ny + iy) * nx;
      arena.reserve(n_tags, nx);
      simd::factored_rss_run_batch(level, stats, n_tags, table.dist_t.data(),
                                   table.cell_stride, row0, row0 + nx,
                                   arena.outs.data(), arena.mins.data());
      for (std::size_t b = 0; b < n_tags; ++b) {
        auto& top = tops[b];
        for (std::size_t ix : xs_i) {
          const std::pair<double, std::size_t> cand{arena.outs[b][ix],
                                                    row0 + ix};
          ++cells_scanned[b];
          if (top.size() < top_k || cand < top.back()) {
            top.insert(std::lower_bound(top.begin(), top.end(), cand), cand);
            if (top.size() > top_k) top.pop_back();
          }
        }
      }
    }
  }

  // ---- Fine pass: identical windows batch across tags ------------------
  std::map<WindowKey, std::vector<std::pair<std::size_t, std::size_t>>>
      groups;  // window -> [(tag, candidate rank)]
  for (std::size_t b = 0; b < n_tags; ++b) {
    for (std::size_t r = 0; r < tops[b].size(); ++r) {
      const std::size_t cell = tops[b][r].second;
      const std::size_t cx = cell % nx;
      const std::size_t cy = (cell / nx) % ny;
      const std::size_t cz = cell / (nx * ny);
      const WindowKey key{cx > radius ? cx - radius : 0,
                          std::min(cx + radius, nx - 1),
                          cy > radius ? cy - radius : 0,
                          std::min(cy + radius, ny - 1),
                          cz > radius ? cz - radius : 0,
                          std::min(cz + radius, nz - 1)};
      groups[key].push_back({b, r});
    }
  }

  std::vector<std::vector<GridBest>> fine(n_tags);
  for (std::size_t b = 0; b < n_tags; ++b) fine[b].resize(tops[b].size());
  std::vector<const RoundSnapshot*> g_snaps;
  std::vector<simd::FactoredStats> g_stats;
  std::vector<double> g_margins;
  std::vector<GridBest> g_bests;
  for (const auto& [key, members] : groups) {
    g_snaps.clear();
    g_stats.clear();
    g_margins.clear();
    for (const auto& [b, r] : members) {
      g_snaps.push_back(snaps[b]);
      g_stats.push_back(stats[b]);
      g_margins.push_back(margins[b]);
    }
    g_bests.assign(members.size(), GridBest{});
    window_scan_factored_batch(g_snaps.data(), g_stats.data(),
                               g_margins.data(), members.size(), table, level,
                               key[0], key[1], key[2], key[3], key[4], key[5],
                               g_bests.data());
    const std::size_t window_cells = (key[1] - key[0] + 1) *
                                     (key[3] - key[2] + 1) *
                                     (key[5] - key[4] + 1);
    for (std::size_t j = 0; j < members.size(); ++j) {
      const auto [b, r] = members[j];
      fine[b][r] = g_bests[j];
      cells_scanned[b] += window_cells;
    }
  }

  // Merge per tag in candidate order (the sequential fine-pass order), so
  // exact-tie resolution between windows matches the single-tag scan.
  for (std::size_t b = 0; b < n_tags; ++b) {
    for (const GridBest& w : fine[b]) {
      if (w.any && w.rss < bests[b].rss) bests[b] = w;
    }
  }
}

/// Per-workspace scratch of the batched entry points: snapshots and
/// selection arrays reused across batches.
struct BatchScratch {
  std::vector<RoundSnapshot> snaps;
  std::vector<simd::FactoredStats> stats;
  std::vector<double> margins;
  std::vector<std::uint8_t> done;
  std::vector<std::size_t> pending;
  std::vector<const RoundSnapshot*> sel_snaps;
  std::vector<simd::FactoredStats> sel_stats;
  std::vector<double> sel_margins;
  std::vector<GridBest> bests;
  std::vector<std::size_t> cells;
  std::vector<GridBest> chunk_slots;
  std::vector<std::size_t> candidates;
};

/// Stage A2: Levenberg-Marquardt refinement of a Stage-A1 winner plus the
/// final PositionSolve assembly. Shared verbatim by the exhaustive,
/// pyramid and warm-start paths so they differ only in which grid cells
/// seed the refinement.
PositionSolve refine_and_finish(const RoundSnapshot& snap,
                                const DeploymentGeometry& geometry,
                                const DisentangleConfig& config,
                                SolveWorkspace& ws, bool mode_3d,
                                const GridBest& best) {
  const Rect& region = geometry.working_region;
  PositionSolve solve;
  solve.position = best.position;
  solve.converged = true;
  double final_rss = best.rss;
  double final_kt = best.kt;

  if (config.refine) {
    const std::size_t n_params = mode_3d ? 3 : 2;
    std::vector<double>& initial = ws.vec(0, n_params);
    initial[0] = best.position.x;
    initial[1] = best.position.y;
    if (mode_3d) initial[2] = best.position.z;

    const auto residual_fn = [&](std::span<const double> params,
                                 std::span<double> residuals) {
      const Vec3 p{params[0], params[1],
                   mode_3d ? params[2] : geometry.tag_plane_z};
      double stack_dist[kMaxStackAntennas];
      std::vector<double> heap_dist;
      double* dist_to = stack_dist;
      if (snap.n > kMaxStackAntennas) {
        heap_dist.resize(snap.n);
        dist_to = heap_dist.data();
      }
      double acc = 0.0;
      for (std::size_t i = 0; i < snap.n; ++i) {
        dist_to[i] = distance(snap.position[i], p);
        acc += snap.slope[i] - kSlopePerMeter * dist_to[i];
      }
      const double kt = acc / static_cast<double>(snap.n);
      for (std::size_t i = 0; i < snap.n; ++i) {
        // Scale rad/Hz residuals into O(1) units (rad/Hz -> rad/GHz).
        residuals[i] =
            (snap.slope[i] - kSlopePerMeter * dist_to[i] - kt) * 1e9;
      }
    };

    LmOptions options;
    options.parameter_scales.assign(n_params, 0.05);  // meters
    const LmResult lm =
        levenberg_marquardt(residual_fn, initial, snap.n, options, ws);
    const Vec3 refined{lm.params[0], lm.params[1],
                       mode_3d ? lm.params[2] : geometry.tag_plane_z};
    // Keep the refinement only if it stayed in (a modest margin around)
    // the search region and actually improved. The refined cost is
    // computed once and reused for kt and the reported RMS.
    const Rect margin{{region.lo.x - 0.2, region.lo.y - 0.2},
                      {region.hi.x + 0.2, region.hi.y + 0.2}};
    if (margin.contains(refined.xy())) {
      const SlopeCost refined_cost = slope_cost(snap, refined);
      if (refined_cost.rss <= best.rss) {
        solve.position = refined;
        solve.converged = lm.converged;
        final_rss = refined_cost.rss;
        final_kt = refined_cost.kt;
      }
    }
  }

  solve.kt = final_kt;
  solve.rms = std::sqrt(final_rss / static_cast<double>(snap.n));
  return solve;
}

/// Thread-local fallback workspace backing the workspace-free public
/// overloads (and the diagnostics). Per-thread, so the legacy API stays
/// safe to call from pool workers.
SolveWorkspace& local_workspace() {
  static thread_local SolveWorkspace ws;
  return ws;
}

}  // namespace

double position_cost(const DeploymentGeometry& geometry,
                     std::span<const AntennaLine> lines, Vec3 p) {
  RoundSnapshot& snap = local_workspace().scratch<RoundSnapshot>();
  build_snapshot(geometry, lines, snap);
  require(snap.n > 0, "position_cost: no usable lines");
  return std::sqrt(slope_cost(snap, p).rss / static_cast<double>(snap.n));
}

double orientation_cost(const DeploymentGeometry& geometry,
                        std::span<const AntennaLine> lines, Vec3 tag_position,
                        Vec3 w) {
  RoundSnapshot& snap = local_workspace().scratch<RoundSnapshot>();
  build_snapshot(geometry, lines, snap);
  require(snap.n > 0, "orientation_cost: no usable lines");
  require(geometry.antenna_frames.size() == geometry.n_antennas(),
          "orientation_cost: geometry missing frames");
  fill_ray_frames(snap, tag_position);
  return std::sqrt(intercept_cost(snap, w).rss /
                   static_cast<double>(snap.n));
}

PositionSolve solve_position(const DeploymentGeometry& geometry,
                             std::span<const AntennaLine> lines,
                             const DisentangleConfig& config) {
  return solve_position(geometry, lines, config, local_workspace(), nullptr,
                        &GridGeometryCache::shared());
}

PositionSolve solve_position(const DeploymentGeometry& geometry,
                             std::span<const AntennaLine> lines,
                             const DisentangleConfig& config,
                             SolveWorkspace& ws, ThreadPool* pool,
                             GridGeometryCache* cache, const Vec3* warm_hint) {
  RoundSnapshot& snap = ws.scratch<RoundSnapshot>();
  build_snapshot(geometry, lines, snap);
  const bool mode_3d = config.grid_nz > 1;
  const std::size_t min_antennas = mode_3d ? 4 : 3;
  require(snap.n >= min_antennas,
          "solve_position: not enough usable antenna lines");
  require(config.grid_nx >= 2 && config.grid_ny >= 2,
          "solve_position: grid too coarse");

  const Rect& region = geometry.working_region;
  const std::size_t nz = std::max<std::size_t>(config.grid_nz, 1);
  const std::size_t rows = nz * config.grid_ny;

  std::shared_ptr<const GridTable> table;
  if (cache != nullptr && config.use_geometry_cache) {
    table = cache->acquire(
        geometry,
        GridSpec{config.grid_nx, config.grid_ny, nz, config.z_lo, config.z_hi});
  }

  // Ranking-kernel selection (see RankKernel): factored ranking needs the
  // antenna-major table, so uncached solves always rank canonically. The
  // dispatch level is resolved once per solve; kFactoredScalar pins the
  // scalar kernel regardless of what the CPU supports.
  const bool factored =
      table != nullptr && config.rank_kernel != RankKernel::kCanonical;
  const simd::Level level = config.rank_kernel == RankKernel::kFactoredSimd
                                ? simd::active()
                                : simd::Level::kScalar;
  const double margin = factored ? factored_margin(snap, *table) : 0.0;

  // ---- Stage A0: warm start — windowed scan around the caller's hint ---
  if (warm_hint != nullptr && config.warm_start.enable) {
    std::size_t cells = 0;
    const GridBest windowed =
        window_scan(snap, geometry, config, table.get(), level, margin,
                    mode_3d, nz, *warm_hint, &cells);
    if (windowed.any && std::isfinite(windowed.rss)) {
      PositionSolve warm =
          refine_and_finish(snap, geometry, config, ws, mode_3d, windowed);
      if (warm.rms <= config.warm_start.max_rms) {
        warm.path = SolvePath::kWarmStart;
        warm.cells_scanned = cells;
        return warm;
      }
    }
    // Hint missed or residual too high: fall through to the full solve,
    // byte-identical to the hint-less call.
  }

  // ---- Stage A1: grid multi-start over the working region -------------
  // Every cell's cost is independent, so the scan fans out over the pool
  // by row chunks; the reduction takes the first strict minimum in scan
  // order, which makes the winner identical for any chunking.
  GridBest best;
  std::size_t cells_scanned = rows * config.grid_nx;
  SolvePath path = SolvePath::kExhaustive;
  if (config.pyramid.enable && table != nullptr) {
    cells_scanned = 0;
    best = pyramid_scan(snap, *table, config, level, margin, &cells_scanned);
    path = SolvePath::kPyramid;
  } else if (factored) {
    best = chunked_scan(rows, pool,
                        [&](std::size_t begin, std::size_t end) {
                          return scan_grid_rows_factored(snap, *table, level,
                                                         margin, begin, end);
                        });
  } else if (table != nullptr) {
    best = chunked_scan(rows, pool,
                        [&](std::size_t begin, std::size_t end) {
                          return scan_grid_rows_cached(snap, *table, begin,
                                                       end);
                        });
  } else {
    best = chunked_scan(rows, pool,
                        [&](std::size_t begin, std::size_t end) {
                          return scan_grid_rows(snap, geometry, config,
                                                mode_3d, nz, begin, end);
                        });
  }
  if (!best.any || !std::isfinite(best.rss)) {
    // Pathological (all costs NaN/inf): fall back to the region center,
    // like the pre-snapshot implementation's initial candidate.
    best.position = Vec3{region.center().x, region.center().y,
                         geometry.tag_plane_z};
    const SlopeCost cost = slope_cost(snap, best.position);
    best.kt = cost.kt;
    best.rss = cost.rss;
  }

  PositionSolve solve =
      refine_and_finish(snap, geometry, config, ws, mode_3d, best);
  solve.path = path;
  solve.cells_scanned = cells_scanned;
  return solve;
}

void solve_position_batch(const DeploymentGeometry& geometry,
                          std::span<const BatchedRankRequest> requests,
                          const DisentangleConfig& config, SolveWorkspace& ws,
                          ThreadPool* pool, const GridTable& table,
                          std::span<PositionSolve> out,
                          std::span<std::uint8_t> solved) {
  require(out.size() == requests.size() && solved.size() == requests.size(),
          "solve_position_batch: output spans must match requests");
  require(config.rank_kernel != RankKernel::kCanonical,
          "solve_position_batch: canonical ranking has no tag-major form");
  require(table.n_antennas == geometry.n_antennas(),
          "solve_position_batch: table/geometry antenna count mismatch");
  require(config.grid_nx >= 2 && config.grid_ny >= 2,
          "solve_position_batch: grid too coarse");
  const std::size_t nz = std::max<std::size_t>(config.grid_nz, 1);
  require(table.spec.nx == config.grid_nx && table.spec.ny == config.grid_ny &&
              table.spec.nz == nz,
          "solve_position_batch: table/config grid mismatch");

  const bool mode_3d = config.grid_nz > 1;
  const std::size_t min_antennas = mode_3d ? 4 : 3;
  const std::size_t rows = nz * config.grid_ny;
  const std::size_t n = requests.size();
  const Rect& region = geometry.working_region;
  const simd::Level level = config.rank_kernel == RankKernel::kFactoredSimd
                                ? simd::active()
                                : simd::Level::kScalar;

  BatchScratch& scr = ws.scratch<BatchScratch>();
  if (scr.snaps.size() < n) scr.snaps.resize(n);
  scr.stats.resize(n);
  scr.margins.resize(n);
  scr.done.assign(n, 0);
  for (std::size_t b = 0; b < n; ++b) {
    RoundSnapshot& snap = scr.snaps[b];
    try {
      build_snapshot(geometry, requests[b].lines, snap);
      solved[b] = snap.n >= min_antennas ? 1 : 0;
    } catch (const Error&) {
      solved[b] = 0;  // malformed lines: the per-tag call throws too
    }
    if (solved[b] == 0) {
      scr.done[b] = 1;
      continue;
    }
    scr.stats[b] = factored_stats(snap);
    scr.margins[b] = factored_margin(snap, table);
  }

  // ---- Stage A0: warm starts, grouped by identical hint windows --------
  if (config.warm_start.enable) {
    std::map<WindowKey, std::vector<std::size_t>> warm_groups;
    const double w = config.warm_start.window_m;
    for (std::size_t b = 0; b < n; ++b) {
      if (scr.done[b] != 0 || requests[b].warm_hint == nullptr) continue;
      const Vec3 hint = *requests[b].warm_hint;
      std::size_t x0, x1, y0, y1, z0 = 0, z1 = 0;
      if (!axis_window(region.lo.x, region.width(), config.grid_nx, hint.x, w,
                       x0, x1) ||
          !axis_window(region.lo.y, region.height(), config.grid_ny, hint.y, w,
                       y0, y1)) {
        continue;  // hint missed the region: cold solve, like window_scan
      }
      if (mode_3d && !axis_window(config.z_lo, config.z_hi - config.z_lo, nz,
                                  hint.z, w, z0, z1)) {
        continue;
      }
      warm_groups[WindowKey{x0, x1, y0, y1, z0, z1}].push_back(b);
    }
    for (const auto& [key, members] : warm_groups) {
      scr.sel_snaps.clear();
      scr.sel_stats.clear();
      scr.sel_margins.clear();
      for (std::size_t b : members) {
        scr.sel_snaps.push_back(&scr.snaps[b]);
        scr.sel_stats.push_back(scr.stats[b]);
        scr.sel_margins.push_back(scr.margins[b]);
      }
      scr.bests.assign(members.size(), GridBest{});
      window_scan_factored_batch(scr.sel_snaps.data(), scr.sel_stats.data(),
                                 scr.sel_margins.data(), members.size(), table,
                                 level, key[0], key[1], key[2], key[3], key[4],
                                 key[5], scr.bests.data());
      const std::size_t window_cells = (key[1] - key[0] + 1) *
                                       (key[3] - key[2] + 1) *
                                       (key[5] - key[4] + 1);
      for (std::size_t j = 0; j < members.size(); ++j) {
        const std::size_t b = members[j];
        const GridBest& windowed = scr.bests[j];
        if (!windowed.any || !std::isfinite(windowed.rss)) continue;
        PositionSolve warm = refine_and_finish(scr.snaps[b], geometry, config,
                                               ws, mode_3d, windowed);
        if (warm.rms <= config.warm_start.max_rms) {
          warm.path = SolvePath::kWarmStart;
          warm.cells_scanned = window_cells;
          out[b] = warm;
          scr.done[b] = 1;
        }
        // Otherwise fall through to the cold batch, byte-identical to the
        // hint-less per-tag call.
      }
    }
  }

  // ---- Stage A1: one shared pass ranks every cold tag ------------------
  scr.pending.clear();
  for (std::size_t b = 0; b < n; ++b) {
    if (scr.done[b] == 0) scr.pending.push_back(b);
  }
  if (scr.pending.empty()) return;
  const std::size_t n_pending = scr.pending.size();
  scr.sel_snaps.clear();
  scr.sel_stats.clear();
  scr.sel_margins.clear();
  for (std::size_t b : scr.pending) {
    scr.sel_snaps.push_back(&scr.snaps[b]);
    scr.sel_stats.push_back(scr.stats[b]);
    scr.sel_margins.push_back(scr.margins[b]);
  }
  scr.bests.assign(n_pending, GridBest{});
  scr.cells.assign(n_pending, 0);

  SolvePath path = SolvePath::kExhaustive;
  if (config.pyramid.enable) {
    path = SolvePath::kPyramid;
    pyramid_scan_batch(scr.sel_snaps.data(), scr.sel_stats.data(),
                       scr.sel_margins.data(), n_pending, table, config, level,
                       scr.bests.data(), scr.cells.data());
  } else {
    for (std::size_t p = 0; p < n_pending; ++p) {
      scr.cells[p] = rows * config.grid_nx;
    }
    if (pool != nullptr && pool->size() > 1) {
      // Same chunk boundaries as chunked_scan; per-(chunk, tag) bests are
      // reduced strict-< in chunk order per tag, so the winner matches the
      // sequential batched pass (and hence the per-tag scan) exactly.
      const std::size_t chunk =
          std::max<std::size_t>(1, rows / (4 * pool->size()));
      const std::size_t n_chunks = (rows + chunk - 1) / chunk;
      scr.chunk_slots.assign(n_chunks * n_pending, GridBest{});
      pool->parallel_for(
          rows, chunk, [&](std::size_t begin, std::size_t end, std::size_t) {
            scan_grid_rows_factored_batch(
                scr.sel_snaps.data(), scr.sel_stats.data(),
                scr.sel_margins.data(), n_pending, table, level, begin, end,
                scr.chunk_slots.data() + (begin / chunk) * n_pending);
          });
      for (std::size_t c = 0; c < n_chunks; ++c) {
        for (std::size_t p = 0; p < n_pending; ++p) {
          const GridBest& slot = scr.chunk_slots[c * n_pending + p];
          if (slot.any && slot.rss < scr.bests[p].rss) scr.bests[p] = slot;
        }
      }
    } else {
      scan_grid_rows_factored_batch(scr.sel_snaps.data(), scr.sel_stats.data(),
                                    scr.sel_margins.data(), n_pending, table,
                                    level, 0, rows, scr.bests.data());
    }
  }

  for (std::size_t p = 0; p < n_pending; ++p) {
    const std::size_t b = scr.pending[p];
    GridBest best = scr.bests[p];
    if (!best.any || !std::isfinite(best.rss)) {
      // Pathological (all costs NaN/inf): region-center fallback, same as
      // the per-tag solve.
      best.position = Vec3{region.center().x, region.center().y,
                           geometry.tag_plane_z};
      const SlopeCost cost = slope_cost(scr.snaps[b], best.position);
      best.kt = cost.kt;
      best.rss = cost.rss;
    }
    PositionSolve solve =
        refine_and_finish(scr.snaps[b], geometry, config, ws, mode_3d, best);
    solve.path = path;
    solve.cells_scanned = scr.cells[p];
    out[b] = solve;
  }
}

void rank_exhaustive_batch(const DeploymentGeometry& geometry,
                           std::span<const BatchedRankRequest> requests,
                           const GridTable& table, RankKernel kernel,
                           SolveWorkspace& ws, std::span<StageARank> out) {
  require(out.size() == requests.size(),
          "rank_exhaustive_batch: output span must match requests");
  require(table.n_antennas == geometry.n_antennas(),
          "rank_exhaustive: table/geometry antenna count mismatch");
  const std::size_t n = requests.size();
  const std::size_t rows = table.spec.nz * table.spec.ny;
  BatchScratch& scr = ws.scratch<BatchScratch>();
  if (scr.snaps.size() < n) scr.snaps.resize(n);
  for (std::size_t b = 0; b < n; ++b) {
    build_snapshot(geometry, requests[b].lines, scr.snaps[b]);
    require(scr.snaps[b].n >= 3,
            "rank_exhaustive: not enough usable antenna lines");
  }

  if (kernel == RankKernel::kCanonical) {
    for (std::size_t b = 0; b < n; ++b) {
      const GridBest best = scan_grid_rows_cached(scr.snaps[b], table, 0, rows);
      require(best.any, "rank_exhaustive: no finite cell cost");
      out[b] = StageARank{best.cell, best.rss, best.kt, table.n_cells()};
    }
    return;
  }

  const simd::Level level = kernel == RankKernel::kFactoredSimd
                                ? simd::active()
                                : simd::Level::kScalar;
  scr.sel_snaps.clear();
  scr.sel_stats.clear();
  scr.sel_margins.clear();
  for (std::size_t b = 0; b < n; ++b) {
    scr.sel_snaps.push_back(&scr.snaps[b]);
    scr.sel_stats.push_back(factored_stats(scr.snaps[b]));
    scr.sel_margins.push_back(factored_margin(scr.snaps[b], table));
  }
  scr.bests.assign(n, GridBest{});
  scr.candidates.assign(n, 0);
  scan_grid_rows_factored_batch(scr.sel_snaps.data(), scr.sel_stats.data(),
                                scr.sel_margins.data(), n, table, level, 0,
                                rows, scr.bests.data(), scr.candidates.data());
  for (std::size_t b = 0; b < n; ++b) {
    require(scr.bests[b].any, "rank_exhaustive: no finite cell cost");
    out[b] = StageARank{scr.bests[b].cell, scr.bests[b].rss, scr.bests[b].kt,
                        scr.candidates[b]};
  }
}

StageARank rank_exhaustive(const DeploymentGeometry& geometry,
                           std::span<const AntennaLine> lines,
                           const GridTable& table, RankKernel kernel,
                           SolveWorkspace& ws) {
  RoundSnapshot& snap = ws.scratch<RoundSnapshot>();
  build_snapshot(geometry, lines, snap);
  require(snap.n >= 3, "rank_exhaustive: not enough usable antenna lines");
  require(table.n_antennas == geometry.n_antennas(),
          "rank_exhaustive: table/geometry antenna count mismatch");

  const std::size_t rows = table.spec.nz * table.spec.ny;
  GridBest best;
  StageARank out;
  if (kernel == RankKernel::kCanonical) {
    best = scan_grid_rows_cached(snap, table, 0, rows);
    out.candidates = table.n_cells();
  } else {
    const simd::Level level = kernel == RankKernel::kFactoredSimd
                                  ? simd::active()
                                  : simd::Level::kScalar;
    std::size_t candidates = 0;
    best = scan_grid_rows_factored(snap, table, level,
                                   factored_margin(snap, table), 0, rows,
                                   &candidates);
    out.candidates = candidates;
  }
  require(best.any, "rank_exhaustive: no finite cell cost");
  out.cell = best.cell;
  out.rss = best.rss;
  out.kt = best.kt;
  return out;
}

OrientationSolve solve_orientation(const DeploymentGeometry& geometry,
                                   std::span<const AntennaLine> lines,
                                   Vec3 tag_position,
                                   const DisentangleConfig& config) {
  return solve_orientation(geometry, lines, tag_position, config,
                           local_workspace());
}

OrientationSolve solve_orientation(const DeploymentGeometry& geometry,
                                   std::span<const AntennaLine> lines,
                                   Vec3 tag_position,
                                   const DisentangleConfig& config,
                                   SolveWorkspace& ws) {
  require(geometry.antenna_frames.size() == geometry.n_antennas(),
          "solve_orientation: geometry missing frames");
  RoundSnapshot& snap = ws.scratch<RoundSnapshot>();
  build_snapshot(geometry, lines, snap);
  require(snap.n >= 3, "solve_orientation: need >= 3 usable lines");
  require(config.orientation_scan_steps >= 8,
          "solve_orientation: scan too coarse");
  require(config.orientation_refine_tol_rad > 0.0,
          "solve_orientation: refine tolerance must be > 0");
  const bool mode_3d = config.grid_nz > 1;
  fill_ray_frames(snap, tag_position);

  OrientationSolve best;
  double best_rss = std::numeric_limits<double>::infinity();

  // theta_orient has period pi in the polarization angle (w ~ -w), so a
  // half-turn of azimuth covers everything in 2D; 3D adds elevation.
  const std::size_t az_steps = config.orientation_scan_steps;
  const std::size_t el_steps =
      mode_3d ? std::max<std::size_t>(az_steps / 2, 4) : 1;
  best.rescored = scan_orientation(snap, az_steps, el_steps, best, best_rss);

  // Local golden-section style refinement around the best scan cell (2D
  // only; the 3D scan is already dense enough for the grid resolution).
  // Stops once the bracket is narrower than the configured tolerance, or
  // after 40 iterations (a ~4e-3 rad bracket shrunk by 0.618^40 ≈ 4e-9).
  if (!mode_3d) {
    double lo = best.alpha - kPi / static_cast<double>(az_steps);
    double hi = best.alpha + kPi / static_cast<double>(az_steps);
    for (int iter = 0; iter < 40; ++iter) {
      if (hi - lo <= config.orientation_refine_tol_rad) break;
      const double m1 = lo + (hi - lo) * 0.382;
      const double m2 = lo + (hi - lo) * 0.618;
      const double c1 = intercept_cost(snap, planar_polarization(m1)).rss;
      const double c2 = intercept_cost(snap, planar_polarization(m2)).rss;
      if (c1 < c2) {
        hi = m2;
      } else {
        lo = m1;
      }
    }
    const double alpha = wrap_to_2pi((lo + hi) / 2.0);
    best.alpha = alpha >= kPi ? alpha - kPi : alpha;
    best.polarization = planar_polarization(best.alpha);
    const InterceptCost c = intercept_cost(snap, best.polarization);
    best.bt = c.bt;
    best_rss = c.rss;
  }

  best.rms = std::sqrt(best_rss / static_cast<double>(snap.n));
  return best;
}

}  // namespace rfp
