#include "rfp/core/disentangle.hpp"

#include <algorithm>
#include <array>
#include <cmath>
#include <cstdint>
#include <limits>
#include <memory>
#include <mutex>
#include <span>
#include <tuple>
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

/// Thread-local margin-candidate indices. Pool workers keep theirs warm
/// across chunks/solves; they cannot live in the per-solve workspace
/// because the chunks of one scan are ranked concurrently.
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

// ---- Stage A ------------------------------------------------------------
//
// Every Stage-A search ranks a set of rounds ("tags") sharing one cached
// table — a single solve_position is a set of one. The factored kernel
// (simd::factored_rss_run_batch) scores every (tag, cell) of a row range
// from the antenna-major table planes, streaming each row once per tag
// tile; every cell whose factored cost lies within factored_margin of the
// pass minimum is then re-scored with the canonical two-pass kernel in
// scan order under a strict-< argmin. The margin bounds the factored-vs-
// canonical rounding gap, so the canonical argmin is always among the
// re-scored candidates, and a pass minimum is >= the tag's whole-scan
// minimum, so splitting a scan into passes (row groups, pool chunks) only
// adds candidates. The winning cell, rss, kt and position are therefore
// exactly those of a canonical scan of every cell; the factored costs
// only rank and are never reported.

/// Running result of a Stage-A scan: the first strict minimum in scan
/// order.
struct GridBest {
  double rss = std::numeric_limits<double>::infinity();
  double kt = 0.0;
  Vec3 position;
  std::size_t cell = 0;  ///< canonical cell index
  bool any = false;

  void consider(const GridTable& table, const RoundSnapshot& snap,
                std::size_t c) {
    const SlopeCost cost = cached_cell_cost(table, snap, c);
    if (cost.rss < rss) {
      rss = cost.rss;
      kt = cost.kt;
      position = table.cell_position(c);
      cell = c;
      any = true;
    }
  }
};

/// Thread-local arena for the ranking kernel: per-tag value slices plus
/// the pointer/min fan-out arrays. Pool workers keep theirs warm across
/// chunks; it cannot live in the workspace because the chunks of one scan
/// are ranked concurrently.
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

/// The exhaustive scan over rows [row_begin, row_end) (a row is one
/// (iz, iy) pair): one shared pass ranks every tag. Row groups are sized
/// so the group's table planes and per-tag slices stay cache-resident
/// while the kernel's tag tiles re-read them. bests[b] is reduced strict-<
/// in scan order; candidates[b] (optional) counts canonical re-scores.
void exhaustive_scan(const RoundSnapshot* const* snaps,
                     const simd::FactoredStats* stats, const double* margins,
                     std::size_t n_tags, const GridTable& table,
                     simd::Level level, std::size_t row_begin,
                     std::size_t row_end, GridBest* bests,
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
      // All-NaN costs (a poisoned slope poisons every cell): no cell.
      if (!std::isfinite(arena.mins[b])) continue;
      for (std::uint32_t i :
           margin_candidates(arena.outs[b], count, arena.mins[b] + margins[b],
                             level)) {
        if (candidates != nullptr) ++candidates[b];
        bests[b].consider(table, *snaps[b], cell_begin + i);
      }
    }
  }
}

/// Window bounds {x0, x1, y0, y1, z0, z1} (inclusive grid indices).
using WindowKey = std::array<std::size_t, 6>;

std::size_t window_cells(const WindowKey& key) {
  return (key[1] - key[0] + 1) * (key[3] - key[2] + 1) *
         (key[5] - key[4] + 1);
}

/// The window scan: the tags share one window, and each tag's candidate
/// threshold uses its own whole-window minimum. Packed slots run in
/// canonical window order, so ascending candidate slots keep the
/// canonical walk's first-strict-minimum tie-break.
void window_scan(const RoundSnapshot* const* snaps,
                 const simd::FactoredStats* stats, const double* margins,
                 std::size_t n_tags, const GridTable& table, simd::Level level,
                 const WindowKey& key, GridBest* bests) {
  const std::size_t nx = table.spec.nx;
  const std::size_t ny = table.spec.ny;
  const auto [x0, x1, y0, y1, z0, z1] = key;
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
      bests[b].consider(table, *snaps[b], (iz * ny + iy) * nx + ix);
    }
  }
}

/// One tag's window in a grouping pass. Sorted by (key, tag, rank), equal
/// keys form one shared window_scan whose members stay in ascending
/// (tag, rank) order.
struct WindowMember {
  WindowKey key;
  std::size_t tag = 0;
  std::size_t rank = 0;  ///< pyramid candidate rank (0 for warm windows)

  bool operator<(const WindowMember& o) const {
    return std::tie(key, tag, rank) < std::tie(o.key, o.tag, o.rank);
  }
};

/// Reused storage of scan_window_groups.
struct WindowGroups {
  std::vector<WindowMember> members;
  std::vector<const RoundSnapshot*> snaps;
  std::vector<simd::FactoredStats> stats;
  std::vector<double> margins;
  std::vector<GridBest> bests;
};

/// Scan every run of identical windows in g.members once for all of its
/// tags (indices into snaps/stats/margins), then hand each member its
/// window winner and the window's cell count: found(member, best, cells).
template <typename Found>
void scan_window_groups(WindowGroups& g, const RoundSnapshot* const* snaps,
                        const simd::FactoredStats* stats,
                        const double* margins, const GridTable& table,
                        simd::Level level, const Found& found) {
  std::sort(g.members.begin(), g.members.end());
  for (std::size_t first = 0; first < g.members.size();) {
    const WindowKey key = g.members[first].key;
    g.snaps.clear();
    g.stats.clear();
    g.margins.clear();
    std::size_t last = first;
    for (; last < g.members.size() && g.members[last].key == key; ++last) {
      const std::size_t t = g.members[last].tag;
      g.snaps.push_back(snaps[t]);
      g.stats.push_back(stats[t]);
      g.margins.push_back(margins[t]);
    }
    const std::size_t count = last - first;
    g.bests.assign(count, GridBest{});
    window_scan(g.snaps.data(), g.stats.data(), g.margins.data(), count,
                table, level, key, g.bests.data());
    for (std::size_t j = 0; j < count; ++j) {
      found(g.members[first + j], g.bests[j], window_cells(key));
    }
    first = last;
  }
}

/// Strided coarse sampling of one fine axis: 0, s, 2s, ... plus the last
/// index (the region edges must stay reachable at the coarse level).
void coarse_axis(std::size_t n, std::size_t stride,
                 std::vector<std::size_t>& out) {
  out.clear();
  for (std::size_t i = 0; i < n; i += stride) out.push_back(i);
  if (out.back() != n - 1) out.push_back(n - 1);
}

/// Reused storage of pyramid_scan.
struct PyramidScratch {
  std::vector<std::size_t> xs, ys, zs;
  /// Per tag, top_k slots of (coarse rank, cell), ascending; top_count
  /// of them are filled.
  std::vector<std::pair<double, std::size_t>> tops;
  std::vector<std::size_t> top_count;
  std::vector<GridBest> fine;  ///< per (tag, candidate rank)
};

/// Coarse-to-fine pyramid scan. The coarse pass ranks a strided sampling
/// of the fine grid — whole x-rows through the ranking kernel, only the
/// strided entries consumed and counted — keeping each tag's top-K cells
/// (ties broken by cell index). Full-resolution windows around every
/// candidate then go through window_scan, windows identical across tags
/// scanned once, and each tag's window winners are merged strict-< in its
/// candidate order, so overlapping windows cannot change the winner.
/// Coarse ranking is approximate by design; everything reported comes
/// from the fine pass's canonical re-scoring.
void pyramid_scan(const RoundSnapshot* const* snaps,
                  const simd::FactoredStats* stats, const double* margins,
                  std::size_t n_tags, const GridTable& table,
                  const DisentangleConfig& config, simd::Level level,
                  PyramidScratch& ps, WindowGroups& groups, GridBest* bests,
                  std::size_t* cells_scanned) {
  const std::size_t nx = table.spec.nx;
  const std::size_t ny = table.spec.ny;
  const std::size_t nz = table.spec.nz;
  const std::size_t stride =
      std::max<std::size_t>(config.pyramid.decimation, 2);
  const std::size_t top_k = std::max<std::size_t>(config.pyramid.top_k, 1);
  const std::size_t radius = config.pyramid.refine_radius > 0
                                 ? config.pyramid.refine_radius
                                 : stride + 1;
  coarse_axis(nx, stride, ps.xs);
  coarse_axis(ny, stride, ps.ys);
  coarse_axis(nz, nz > 1 ? stride : 1, ps.zs);

  // ---- Coarse pass: one batched full-row ranking per sampled row -------
  BatchRankArena& arena = local_batch_arena();
  ps.tops.resize(n_tags * top_k);
  ps.top_count.assign(n_tags, 0);
  for (std::size_t iz : ps.zs) {
    for (std::size_t iy : ps.ys) {
      const std::size_t row0 = (iz * ny + iy) * nx;
      arena.reserve(n_tags, nx);
      simd::factored_rss_run_batch(level, stats, n_tags, table.dist_t.data(),
                                   table.cell_stride, row0, row0 + nx,
                                   arena.outs.data(), arena.mins.data());
      for (std::size_t b = 0; b < n_tags; ++b) {
        auto* top = ps.tops.data() + b * top_k;
        std::size_t& filled = ps.top_count[b];
        for (std::size_t ix : ps.xs) {
          const std::pair<double, std::size_t> cand{arena.outs[b][ix],
                                                    row0 + ix};
          ++cells_scanned[b];
          if (filled < top_k || cand < top[filled - 1]) {
            // Sorted insert; a full list drops its last entry.
            const std::size_t pos = static_cast<std::size_t>(
                std::lower_bound(top, top + filled, cand) - top);
            const std::size_t end = filled < top_k ? filled : top_k - 1;
            std::move_backward(top + pos, top + end, top + end + 1);
            top[pos] = cand;
            if (filled < top_k) ++filled;
          }
        }
      }
    }
  }

  // ---- Fine pass: identical windows batch across tags ------------------
  groups.members.clear();
  for (std::size_t b = 0; b < n_tags; ++b) {
    for (std::size_t r = 0; r < ps.top_count[b]; ++r) {
      const std::size_t cell = ps.tops[b * top_k + r].second;
      const std::size_t cx = cell % nx;
      const std::size_t cy = (cell / nx) % ny;
      const std::size_t cz = cell / (nx * ny);
      groups.members.push_back(WindowMember{
          WindowKey{cx > radius ? cx - radius : 0,
                    std::min(cx + radius, nx - 1),
                    cy > radius ? cy - radius : 0,
                    std::min(cy + radius, ny - 1),
                    cz > radius ? cz - radius : 0,
                    std::min(cz + radius, nz - 1)},
          b, r});
    }
  }
  ps.fine.assign(n_tags * top_k, GridBest{});
  scan_window_groups(groups, snaps, stats, margins, table, level,
                     [&](const WindowMember& m, const GridBest& best,
                         std::size_t cells) {
                       ps.fine[m.tag * top_k + m.rank] = best;
                       cells_scanned[m.tag] += cells;
                     });

  // Merge per tag in candidate order (the sequential fine-pass order), so
  // exact-tie resolution between windows is fixed.
  for (std::size_t b = 0; b < n_tags; ++b) {
    for (std::size_t r = 0; r < ps.top_count[b]; ++r) {
      const GridBest& w = ps.fine[b * top_k + r];
      if (w.any && w.rss < bests[b].rss) bests[b] = w;
    }
  }
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

/// The warm-start window around `hint`: the fine cells within
/// warm_start.window_m of it; false when the hint misses the grid.
bool hint_window(const DeploymentGeometry& geometry,
                 const DisentangleConfig& config, std::size_t nz, Vec3 hint,
                 WindowKey& key) {
  const Rect& region = geometry.working_region;
  const double w = config.warm_start.window_m;
  key[4] = key[5] = 0;
  return axis_window(region.lo.x, region.width(), config.grid_nx, hint.x, w,
                     key[0], key[1]) &&
         axis_window(region.lo.y, region.height(), config.grid_ny, hint.y, w,
                     key[2], key[3]) &&
         (nz == 1 || axis_window(config.z_lo, config.z_hi - config.z_lo, nz,
                                 hint.z, w, key[4], key[5]));
}

/// Per-workspace scratch of the Stage-A entry points, reused across
/// solves so the steady state does no allocation.
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
  WindowGroups groups;
  PyramidScratch pyramid;
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
  return solve_position(geometry, lines, config, local_workspace());
}

PositionSolve solve_position(const DeploymentGeometry& geometry,
                             std::span<const AntennaLine> lines,
                             const DisentangleConfig& config,
                             SolveWorkspace& ws, ThreadPool* pool,
                             GridGeometryCache* cache, const Vec3* warm_hint) {
  std::size_t usable = 0;
  for (const AntennaLine& line : lines) {
    if (line.fit.n < 3) continue;
    require(line.antenna < geometry.n_antennas(),
            "disentangle: line references unknown antenna");
    ++usable;
  }
  require(usable >= (config.grid_nz > 1 ? 4u : 3u),
          "solve_position: not enough usable antenna lines");
  require(config.grid_nx >= 2 && config.grid_ny >= 2,
          "solve_position: grid too coarse");
  GridGeometryCache& tables =
      cache != nullptr ? *cache : GridGeometryCache::shared();
  const std::shared_ptr<const GridTable> table = tables.acquire(
      geometry,
      GridSpec{config.grid_nx, config.grid_ny,
               std::max<std::size_t>(config.grid_nz, 1), config.z_lo,
               config.z_hi});
  const BatchedRankRequest request{lines, warm_hint};
  PositionSolve solve;
  std::uint8_t solved = 0;
  solve_position_batch(geometry, {&request, 1}, config, ws, pool, *table,
                       {&solve, 1}, {&solved, 1});
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
  const simd::Level level = simd::active();

  BatchScratch& scr = ws.scratch<BatchScratch>();
  if (scr.snaps.size() < n) scr.snaps.resize(n);
  scr.stats.resize(n);
  scr.margins.resize(n);
  scr.done.assign(n, 0);
  scr.sel_snaps.clear();
  for (std::size_t b = 0; b < n; ++b) {
    RoundSnapshot& snap = scr.snaps[b];
    scr.sel_snaps.push_back(&snap);
    try {
      build_snapshot(geometry, requests[b].lines, snap);
      solved[b] = snap.n >= min_antennas ? 1 : 0;
    } catch (const Error&) {
      solved[b] = 0;  // malformed lines: solve_position throws instead
    }
    if (solved[b] == 0) {
      scr.done[b] = 1;
      continue;
    }
    scr.stats[b] = factored_stats(snap);
    scr.margins[b] = factored_margin(snap, table);
  }

  // ---- Stage A0: warm starts, grouped by identical hint windows --------
  // A hint that misses the grid leaves its round cold; a windowed solve
  // whose refined RMS exceeds max_rms falls through to the cold scan,
  // byte-identical to the hint-less solve.
  scr.groups.members.clear();
  for (std::size_t b = 0; b < n; ++b) {
    WindowKey key;
    if (scr.done[b] == 0 && requests[b].warm_hint != nullptr &&
        hint_window(geometry, config, nz, *requests[b].warm_hint, key)) {
      scr.groups.members.push_back(WindowMember{key, b, 0});
    }
  }
  scan_window_groups(
      scr.groups, scr.sel_snaps.data(), scr.stats.data(), scr.margins.data(),
      table, level,
      [&](const WindowMember& m, const GridBest& windowed,
          std::size_t cells) {
        if (!windowed.any || !std::isfinite(windowed.rss)) return;
        PositionSolve warm = refine_and_finish(scr.snaps[m.tag], geometry,
                                               config, ws, mode_3d, windowed);
        if (warm.rms <= config.warm_start.max_rms) {
          warm.path = SolvePath::kWarmStart;
          warm.cells_scanned = cells;
          out[m.tag] = warm;
          scr.done[m.tag] = 1;
        }
      });

  // ---- Stage A1: one shared pass ranks every cold tag ------------------
  scr.pending.clear();
  scr.sel_snaps.clear();
  scr.sel_stats.clear();
  scr.sel_margins.clear();
  for (std::size_t b = 0; b < n; ++b) {
    if (scr.done[b] != 0) continue;
    scr.pending.push_back(b);
    scr.sel_snaps.push_back(&scr.snaps[b]);
    scr.sel_stats.push_back(scr.stats[b]);
    scr.sel_margins.push_back(scr.margins[b]);
  }
  if (scr.pending.empty()) return;
  const std::size_t n_pending = scr.pending.size();
  scr.bests.assign(n_pending, GridBest{});
  scr.cells.assign(n_pending, 0);

  SolvePath path = SolvePath::kExhaustive;
  if (config.pyramid.enable) {
    path = SolvePath::kPyramid;
    pyramid_scan(scr.sel_snaps.data(), scr.sel_stats.data(),
                 scr.sel_margins.data(), n_pending, table, config, level,
                 scr.pyramid, scr.groups, scr.bests.data(), scr.cells.data());
  } else {
    scr.cells.assign(n_pending, rows * config.grid_nx);
    if (pool != nullptr && pool->size() > 1) {
      // Row chunks fan out over the pool; per-(chunk, tag) bests are
      // reduced strict-< in chunk order per tag, so the winner is the
      // sequential scan's for any pool size.
      const std::size_t chunk =
          std::max<std::size_t>(1, rows / (4 * pool->size()));
      const std::size_t n_chunks = (rows + chunk - 1) / chunk;
      scr.chunk_slots.assign(n_chunks * n_pending, GridBest{});
      pool->parallel_for(
          rows, chunk, [&](std::size_t begin, std::size_t end, std::size_t) {
            exhaustive_scan(scr.sel_snaps.data(), scr.sel_stats.data(),
                            scr.sel_margins.data(), n_pending, table, level,
                            begin, end,
                            scr.chunk_slots.data() + (begin / chunk) * n_pending);
          });
      for (std::size_t c = 0; c < n_chunks; ++c) {
        for (std::size_t p = 0; p < n_pending; ++p) {
          const GridBest& slot = scr.chunk_slots[c * n_pending + p];
          if (slot.any && slot.rss < scr.bests[p].rss) scr.bests[p] = slot;
        }
      }
    } else {
      exhaustive_scan(scr.sel_snaps.data(), scr.sel_stats.data(),
                      scr.sel_margins.data(), n_pending, table, level, 0,
                      rows, scr.bests.data());
    }
  }

  for (std::size_t p = 0; p < n_pending; ++p) {
    const std::size_t b = scr.pending[p];
    GridBest best = scr.bests[p];
    if (!best.any || !std::isfinite(best.rss)) {
      // Pathological (all costs NaN/inf): fall back to the region center.
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
                           const GridTable& table, SolveWorkspace& ws,
                           std::span<StageARank> out) {
  require(out.size() == requests.size(),
          "rank_exhaustive_batch: output span must match requests");
  require(table.n_antennas == geometry.n_antennas(),
          "rank_exhaustive_batch: table/geometry antenna count mismatch");
  const std::size_t n = requests.size();
  BatchScratch& scr = ws.scratch<BatchScratch>();
  if (scr.snaps.size() < n) scr.snaps.resize(n);
  scr.sel_snaps.clear();
  scr.sel_stats.clear();
  scr.sel_margins.clear();
  for (std::size_t b = 0; b < n; ++b) {
    RoundSnapshot& snap = scr.snaps[b];
    build_snapshot(geometry, requests[b].lines, snap);
    require(snap.n >= 3,
            "rank_exhaustive_batch: not enough usable antenna lines");
    scr.sel_snaps.push_back(&snap);
    scr.sel_stats.push_back(factored_stats(snap));
    scr.sel_margins.push_back(factored_margin(snap, table));
  }
  scr.bests.assign(n, GridBest{});
  scr.candidates.assign(n, 0);
  exhaustive_scan(scr.sel_snaps.data(), scr.sel_stats.data(),
                  scr.sel_margins.data(), n, table, simd::active(), 0,
                  table.spec.nz * table.spec.ny, scr.bests.data(),
                  scr.candidates.data());
  for (std::size_t b = 0; b < n; ++b) {
    require(scr.bests[b].any, "rank_exhaustive_batch: no finite cell cost");
    out[b] = StageARank{scr.bests[b].cell, scr.bests[b].rss, scr.bests[b].kt,
                        scr.candidates[b]};
  }
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
