/// Stage-B ranked scan: solve_orientation must be byte-identical to the
/// canonical full scan (tests/support/stage_b_oracle.hpp) on every round —
/// 2D and 3D, clean and multipath, 3- and 4-line subsets, unsafe cells
/// (tag on an antenna's boresight), NaN intercepts and the zero-resultant
/// throw — and the trig-free ranking kernel must stay within
/// orientation_margin() of the canonical cost at every dispatch level.
/// Labelled `simd`: CI re-runs it with RFP_FORCE_SCALAR=1 and
/// RFP_SIMD_LEVEL=avx512, which moves the library's dispatch.

#include <bit>
#include <cmath>
#include <cstdint>
#include <limits>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "rfp/common/angles.hpp"
#include "rfp/common/constants.hpp"
#include "rfp/common/error.hpp"
#include "rfp/common/rng.hpp"
#include "rfp/core/disentangle.hpp"
#include "rfp/core/fitting.hpp"
#include "rfp/core/preprocess.hpp"
#include "rfp/exp/testbed.hpp"
#include "rfp/geom/frame.hpp"
#include "rfp/rfsim/scene.hpp"
#include "rfp/simd/stage_b.hpp"
#include "support/core_test_util.hpp"
#include "support/stage_b_oracle.hpp"

namespace rfp {
namespace {

using testutil::exact_geometry;
using testutil::exact_lines;
using testutil::oracle_intercept_cost;
using testutil::oracle_solve_orientation;

bool same_bits(double a, double b) {
  return std::bit_cast<std::uint64_t>(a) == std::bit_cast<std::uint64_t>(b);
}

/// All four reported fields, bit for bit (NaN payloads included).
void expect_same_solve(const OrientationSolve& got,
                       const OrientationSolve& want, const std::string& where) {
  SCOPED_TRACE(where);
  EXPECT_TRUE(same_bits(got.alpha, want.alpha))
      << got.alpha << " vs " << want.alpha;
  EXPECT_TRUE(same_bits(got.polarization.x, want.polarization.x));
  EXPECT_TRUE(same_bits(got.polarization.y, want.polarization.y));
  EXPECT_TRUE(same_bits(got.polarization.z, want.polarization.z));
  EXPECT_TRUE(same_bits(got.bt, want.bt)) << got.bt << " vs " << want.bt;
  EXPECT_TRUE(same_bits(got.rms, want.rms)) << got.rms << " vs " << want.rms;
}

/// The lines with antenna `drop`'s line removed (a 3-line subset of a
/// 4-antenna round).
std::vector<AntennaLine> without(std::vector<AntennaLine> lines,
                                 std::size_t drop) {
  std::erase_if(lines,
                [drop](const AntennaLine& l) { return l.antenna == drop; });
  return lines;
}

void expect_matches_oracle(const DeploymentGeometry& geometry,
                           const std::vector<AntennaLine>& lines, Vec3 p,
                           const DisentangleConfig& config,
                           const std::string& where) {
  const OrientationSolve got = solve_orientation(geometry, lines, p, config);
  const OrientationSolve want =
      oracle_solve_orientation(geometry, lines, p, config);
  expect_same_solve(got, want, where);
}

DisentangleConfig config_3d() {
  DisentangleConfig config;
  config.grid_nx = 25;
  config.grid_ny = 25;
  config.grid_nz = 9;
  config.z_lo = 0.0;
  config.z_hi = 1.2;
  return config;
}

// ---------------------------------------------------------------------------
// Byte identity against the canonical full scan
// ---------------------------------------------------------------------------

TEST(StageBRank, PlanarExactLinesMatchOracle) {
  const Scene scene = make_scene_2d(71);
  const DeploymentGeometry geometry = exact_geometry(scene);
  const DisentangleConfig config;
  Rng rng(mix_seed(13, 0x5B));
  for (int k = 0; k < 12; ++k) {
    const Vec3 p{0.2 + 1.6 * rng.uniform(), 0.2 + 1.6 * rng.uniform(), 0.0};
    const double alpha = rng.uniform(0.0, kPi);
    const auto lines = exact_lines(geometry, p, planar_polarization(alpha),
                                   2e-9, rng.uniform(0.0, kTwoPi));
    expect_matches_oracle(geometry, lines, p, config,
                          "planar case " + std::to_string(k));
  }
}

TEST(StageBRank, TestbedRoundsMatchOracle) {
  // Clean and multipath rooms, 2D (4 antennas, so 3-line subsets exist)
  // and 3D, fitted from simulated reads and solved at the Stage-A
  // position the pipeline would use.
  for (const bool mode_3d : {false, true}) {
    for (const bool multipath : {false, true}) {
      TestbedConfig tc;
      tc.mode_3d = mode_3d;
      tc.n_antennas = 4;
      tc.multipath_environment = multipath;
      const Testbed bed(tc);
      const DeploymentGeometry& geometry = bed.prism().config().geometry;
      const DisentangleConfig& config = bed.prism().config().disentangle;
      Rng rng(mix_seed(mode_3d ? 3 : 2, multipath ? 0x3B : 0xC1));
      const std::size_t rounds = mode_3d ? 2 : 4;
      for (std::size_t k = 0; k < rounds; ++k) {
        TagState state = bed.tag_state(
            {0.3 + 1.4 * rng.uniform(), 0.3 + 1.4 * rng.uniform()},
            rng.uniform(0.0, kPi), "glass");
        if (mode_3d) {
          state.position.z = rng.uniform(0.2, 0.8);
          state.polarization = spherical_polarization(
              rng.uniform(0.0, kTwoPi), rng.uniform(-1.0, 1.0));
        }
        const RoundTrace round = bed.collect(state, 9100 + k);
        const std::vector<AntennaLine> lines =
            fit_all_antennas(preprocess_round(round), FittingConfig{});
        const Vec3 p = solve_position(geometry, lines, config).position;
        const std::string where = std::string(mode_3d ? "3d" : "2d") +
                                  (multipath ? " multipath" : " clean") +
                                  " round " + std::to_string(k);
        expect_matches_oracle(geometry, lines, p, config, where);
        expect_matches_oracle(geometry, without(lines, k % 4), p, config,
                              where + " minus antenna " +
                                  std::to_string(k % 4));
      }
    }
  }
}

/// A deployment with one extra antenna aimed straight at the tag, so that
/// polarizations along its ray are scan cells: uw = vw = 0 there, the
/// canonical cost takes polarization_phase's guard branch and the ranking
/// kernel must flag the cells unsafe.
DeploymentGeometry with_boresight_antenna(DeploymentGeometry geometry,
                                          Vec3 tag, Vec3 offset) {
  geometry.antenna_positions.push_back(tag + offset);
  geometry.antenna_frames.push_back(make_frame(offset * -1.0, 0.0));
  return geometry;
}

TEST(StageBRank, BoresightTagUnsafeCellsMatchOracle) {
  {
    // 2D: an in-plane antenna on the -x side; alpha = 0 is along its ray,
    // and is also the true polarization, so the winner is the unsafe cell.
    const Scene scene = make_scene_2d(71);
    const Vec3 tag{1.0, 1.0, scene.tag_plane_z};
    const DeploymentGeometry geometry =
        with_boresight_antenna(exact_geometry(scene), tag, {-1.5, 0.0, 0.0});
    const DisentangleConfig config;
    for (const double alpha : {0.0, 0.7}) {
      const auto lines =
          exact_lines(geometry, tag, planar_polarization(alpha), 2e-9, 0.4);
      expect_matches_oracle(geometry, lines, tag, config,
                            "2d boresight alpha " + std::to_string(alpha));
    }
  }
  {
    // 3D: an antenna straight above the tag; both pole rows (720 cells
    // each, near-identical costs) lie along its ray.
    const Scene scene = make_scene_3d(72);
    const Vec3 tag{1.1, 0.9, 0.4};
    const DeploymentGeometry geometry =
        with_boresight_antenna(exact_geometry(scene), tag, {0.0, 0.0, 1.0});
    const DisentangleConfig config = config_3d();
    for (const Vec3 w : {Vec3{0.0, 0.0, 1.0}, spherical_polarization(0.8, 0.35)}) {
      const auto lines = exact_lines(geometry, tag, w, 2e-9, 1.3);
      expect_matches_oracle(geometry, lines, tag, config, "3d boresight");
    }
  }
}

TEST(StageBRank, NanInterceptMatchesOracle) {
  // Every cell is non-finite, hence unsafe: the ranked scan re-scores the
  // whole grid and must land on the oracle's (default) answer.
  {
    const Scene scene = make_scene_2d(71);
    const DeploymentGeometry geometry = exact_geometry(scene);
    const Vec3 p{1.2, 1.1, 0.0};
    auto lines = exact_lines(geometry, p, planar_polarization(0.9), 0.0, 0.5);
    lines[1].fit.intercept = std::numeric_limits<double>::quiet_NaN();
    expect_matches_oracle(geometry, lines, p, DisentangleConfig{}, "2d NaN");
  }
  {
    const Scene scene = make_scene_3d(72);
    const DeploymentGeometry geometry = exact_geometry(scene);
    const Vec3 p{1.2, 0.9, 0.45};
    auto lines =
        exact_lines(geometry, p, spherical_polarization(0.8, 0.35), 0.0, 1.0);
    lines[2].fit.intercept = std::numeric_limits<double>::quiet_NaN();
    expect_matches_oracle(geometry, lines, p, config_3d(), "3d NaN");
  }
}

TEST(StageBRank, ZeroResultantThrowsLikeOracle) {
  // Intercepts whose residuals cancel in antipodal pairs at one scan cell:
  // circular_mean's zero-resultant throw must surface from the ranked scan
  // exactly as from the canonical one.
  const Scene scene = make_scene_3d(72);
  const DeploymentGeometry geometry = exact_geometry(scene);
  const Vec3 p{1.0, 1.1, 0.0};
  const DisentangleConfig config;  // planar scan over a 4-antenna rig
  const Vec3 w0 = planar_polarization(kPi * 100.0 / 720.0);
  const double offsets[4] = {0.3, 0.3 + kPi, 1.9, 1.9 + kPi};
  std::vector<AntennaLine> lines;
  for (std::size_t i = 0; i < geometry.n_antennas(); ++i) {
    AntennaLine line;
    line.antenna = i;
    line.fit.slope = kSlopePerMeter * distance(geometry.antenna_positions[i], p);
    line.fit.intercept = wrap_to_2pi(
        polarization_phase_toward(geometry.antenna_frames[i],
                                  geometry.antenna_positions[i], p, w0) +
        offsets[i]);
    line.fit.n = kNumChannels;
    line.n_channels = kNumChannels;
    lines.push_back(line);
  }
  std::string got, want;
  try {
    (void)oracle_solve_orientation(geometry, lines, p, config);
  } catch (const InvalidArgument& e) {
    want = e.what();
  }
  try {
    (void)solve_orientation(geometry, lines, p, config);
  } catch (const InvalidArgument& e) {
    got = e.what();
  }
  ASSERT_FALSE(want.empty()) << "the oracle did not throw";
  EXPECT_EQ(got, want);
}

TEST(StageBRank, RescoresAHandfulOfCells) {
  // The certificate is only worth having if it is tight: on clean rounds
  // the canonical re-score touches a vanishing share of the grid.
  const Scene scene = make_scene_3d(72);
  const DeploymentGeometry geometry = exact_geometry(scene);
  const DisentangleConfig config = config_3d();
  Rng rng(mix_seed(5, 0x3D));
  for (int k = 0; k < 4; ++k) {
    const Vec3 p{0.4 + 1.2 * rng.uniform(), 0.4 + 1.2 * rng.uniform(),
                 rng.uniform(0.2, 0.8)};
    const Vec3 w = spherical_polarization(rng.uniform(0.0, kTwoPi),
                                          rng.uniform(-1.2, 1.2));
    const auto lines = exact_lines(geometry, p, w, 2e-9, 0.7);
    const OrientationSolve solve = solve_orientation(geometry, lines, p, config);
    EXPECT_GE(solve.rescored, 1u);
    EXPECT_LE(solve.rescored, 64u) << "case " << k;
  }
}

TEST(StageBRank, RejectsNonPositiveRefineTolerance) {
  const Scene scene = make_scene_2d(71);
  const DeploymentGeometry geometry = exact_geometry(scene);
  const Vec3 p{1.2, 1.1, 0.0};
  const auto lines = exact_lines(geometry, p, planar_polarization(0.4), 0, 0);
  for (const double tol : {0.0, -1.0, std::nan("")}) {
    DisentangleConfig config;
    config.orientation_refine_tol_rad = tol;
    EXPECT_THROW(solve_orientation(geometry, lines, p, config),
                 InvalidArgument);
  }
}

// ---------------------------------------------------------------------------
// The ranking kernel at every dispatch level
// ---------------------------------------------------------------------------

std::vector<simd::Level> runnable_levels() {
  std::vector<simd::Level> levels{simd::Level::kScalar};
  if (simd::compiled_avx2() && simd::detected() >= simd::Level::kAvx2) {
    levels.push_back(simd::Level::kAvx2);
  }
  if (simd::compiled_avx512() && simd::detected() == simd::Level::kAvx512) {
    levels.push_back(simd::Level::kAvx512);
  }
  return levels;
}

Vec3 random_unit(Rng& rng) {
  for (;;) {
    const Vec3 v{rng.uniform(-1.0, 1.0), rng.uniform(-1.0, 1.0),
                 rng.uniform(-1.0, 1.0)};
    if (v.norm() > 0.1 && v.norm() < 1.0) return v.normalized();
  }
}

/// Random lines in the kernel's struct-of-arrays form, with the frames and
/// intercepts the canonical cost needs alongside.
struct KernelCase {
  std::vector<OrthoFrame> frames;
  std::vector<double> intercept;
  std::vector<double> planes;  // ux uy uz vx vy vz cos_b sin_b
  double max_abs_b = 0.0;

  explicit KernelCase(const std::vector<OrthoFrame>& f,
                      const std::vector<double>& b)
      : frames(f), intercept(b), planes(8 * f.size()) {
    const std::size_t n = f.size();
    for (std::size_t i = 0; i < n; ++i) {
      planes[i] = f[i].u.x;
      planes[n + i] = f[i].u.y;
      planes[2 * n + i] = f[i].u.z;
      planes[3 * n + i] = f[i].v.x;
      planes[4 * n + i] = f[i].v.y;
      planes[5 * n + i] = f[i].v.z;
      planes[6 * n + i] = std::cos(b[i]);
      planes[7 * n + i] = std::sin(b[i]);
      max_abs_b = std::max(max_abs_b, std::abs(b[i]));
    }
  }

  simd::OrientationLines lines() const {
    const std::size_t n = frames.size();
    const double* p = planes.data();
    return {n,         p,         p + n,     p + 2 * n, p + 3 * n,
            p + 4 * n, p + 5 * n, p + 6 * n, p + 7 * n};
  }

  std::vector<double> rank(
      simd::Level level, const std::vector<Vec3>& w, double* min,
      double skip_above = std::numeric_limits<double>::infinity()) const {
    std::vector<double> wx, wy, wz, out(w.size());
    for (const Vec3& v : w) {
      wx.push_back(v.x);
      wy.push_back(v.y);
      wz.push_back(v.z);
    }
    std::vector<double> scratch(simd::kOrientScratchPerLine * frames.size());
    *min = simd::orientation_rank_run(level, lines(), wx.data(), wy.data(),
                                      wz.data(), w.size(), skip_above,
                                      out.data(), scratch.data());
    return out;
  }
};

KernelCase random_case(Rng& rng, std::size_t n) {
  std::vector<OrthoFrame> frames;
  std::vector<double> b;
  for (std::size_t i = 0; i < n; ++i) {
    OrthoFrame f;
    f.n = random_unit(rng);
    f.u = f.n.cross(random_unit(rng)).normalized();
    f.v = f.n.cross(f.u);
    frames.push_back(f);
    b.push_back(rng.uniform(0.0, kTwoPi));
  }
  return KernelCase(frames, b);
}

TEST(StageBKernel, Atan2PolyWithinStatedError) {
  Rng rng(mix_seed(7, 0xA7A2));
  double worst = 0.0;
  for (int k = 0; k < 200000; ++k) {
    const double a = rng.uniform(-kPi, kPi);
    const double m = std::exp(rng.uniform(-20.0, 20.0));
    const double x = m * std::cos(a);
    const double y = m * std::sin(a);
    worst = std::max(worst,
                     std::abs(simd::atan2_poly(y, x) - std::atan2(y, x)));
  }
  // Octant boundaries, the fold threshold and the axes.
  const double t8 = simd::detail::kTanPi8;
  for (const double x : {1.0, -1.0}) {
    for (const double y : {0.0, 1.0, -1.0, t8, -t8, std::nextafter(t8, 1.0),
                           1.0 / t8, 1e-300}) {
      for (const auto& [yy, xx] : {std::pair{y, x}, std::pair{x, y}}) {
        worst = std::max(
            worst, std::abs(simd::atan2_poly(yy, xx) - std::atan2(yy, xx)));
      }
    }
  }
  EXPECT_LE(worst, simd::kAtan2MaxError);
}

TEST(StageBKernel, SurrogateWithinMarginAtEveryLevel) {
  std::vector<double> residual;
  for (const simd::Level level : runnable_levels()) {
    SCOPED_TRACE(simd::name(level));
    Rng rng(mix_seed(17, static_cast<std::uint64_t>(level)));
    double worst_share = 0.0;
    std::size_t safe = 0;
    for (const std::size_t n : {3u, 4u, 5u, 8u}) {
      for (int trial = 0; trial < 40; ++trial) {
        const KernelCase kc = random_case(rng, n);
        std::vector<Vec3> w;
        for (int k = 0; k < 37; ++k) w.push_back(random_unit(rng));
        double min = 0.0;
        const std::vector<double> rank = kc.rank(level, w, &min);
        const double margin = simd::orientation_margin(n, kc.max_abs_b);
        double want_min = std::numeric_limits<double>::infinity();
        for (std::size_t k = 0; k < w.size(); ++k) {
          if (rank[k] == -std::numeric_limits<double>::infinity()) continue;
          ++safe;
          want_min = std::min(want_min, rank[k]);
          const double canonical =
              oracle_intercept_cost(kc.frames, kc.intercept, w[k], residual)
                  .rss;
          const double diff = std::abs(rank[k] - canonical);
          ASSERT_LE(diff, margin) << "n=" << n << " cell " << k;
          worst_share = std::max(worst_share, diff / margin);
        }
        EXPECT_EQ(min, want_min);
      }
    }
    EXPECT_GT(safe, 5000u);
    // Informational: how much of the certified bound the rounding used.
    std::printf("  [%s] worst |rank - rss| = %.3g of the margin\n",
                simd::name(level), worst_share);
  }
}

TEST(StageBKernel, SkippedCellsCostMoreThanTheLimit) {
  // With a finite skip_above, a block may skip its arg pass and write +inf
  // at safe cells: their canonical cost must then exceed
  // skip_above − margin (the cost lower bound 2(n − |Z|) cleared it).
  constexpr double kInf = std::numeric_limits<double>::infinity();
  std::vector<double> residual;
  for (const simd::Level level : runnable_levels()) {
    SCOPED_TRACE(simd::name(level));
    Rng rng(mix_seed(31, static_cast<std::uint64_t>(level)));
    std::size_t skipped = 0;
    for (int trial = 0; trial < 60; ++trial) {
      const KernelCase kc = random_case(rng, 4);
      std::vector<Vec3> w;
      for (int k = 0; k < 64; ++k) w.push_back(random_unit(rng));
      const double skip_above = rng.uniform(0.5, 6.0);
      double min = 0.0;
      const std::vector<double> rank = kc.rank(level, w, &min, skip_above);
      const double margin = simd::orientation_margin(4, kc.max_abs_b);
      for (std::size_t k = 0; k < w.size(); ++k) {
        if (rank[k] == -kInf) continue;
        const double canonical =
            oracle_intercept_cost(kc.frames, kc.intercept, w[k], residual).rss;
        if (rank[k] == kInf) {
          ++skipped;
          EXPECT_GT(canonical, skip_above - margin) << "cell " << k;
        } else {
          EXPECT_LE(std::abs(rank[k] - canonical), margin) << "cell " << k;
        }
      }
    }
    EXPECT_GT(skipped, 100u);  // the early out does fire
  }
}

TEST(StageBKernel, UnsafeCellsRankNegativeInfinity) {
  constexpr double kNegInf = -std::numeric_limits<double>::infinity();
  Rng rng(mix_seed(23, 0x05AF));
  for (const simd::Level level : runnable_levels()) {
    SCOPED_TRACE(simd::name(level));
    const KernelCase kc = random_case(rng, 4);
    // Along line 2's ray; a near-cancelling resultant needs bespoke
    // intercepts (below); a regular cell stays finite.
    std::vector<Vec3> w = {kc.frames[2].n, kc.frames[2].n * -1.0,
                           random_unit(rng)};
    double min = 0.0;
    std::vector<double> rank = kc.rank(level, w, &min);
    EXPECT_EQ(rank[0], kNegInf);
    EXPECT_EQ(rank[1], kNegInf);
    EXPECT_TRUE(std::isfinite(rank[2]));
    EXPECT_EQ(min, rank[2]);

    // Antipodal residual pairs at w0: |Z| ~ 0.
    const Vec3 w0 = random_unit(rng);
    std::vector<double> b;
    const double offsets[4] = {0.2, 0.2 + kPi, 2.0, 2.0 + kPi};
    for (std::size_t i = 0; i < 4; ++i) {
      b.push_back(
          wrap_to_2pi(polarization_phase(kc.frames[i], w0) + offsets[i]));
    }
    const KernelCase cancel(kc.frames, b);
    rank = cancel.rank(level, {w0}, &min);
    EXPECT_EQ(rank[0], kNegInf);
    EXPECT_EQ(min, std::numeric_limits<double>::infinity());

    // A NaN intercept poisons every cell.
    b[1] = std::numeric_limits<double>::quiet_NaN();
    const KernelCase poisoned(kc.frames, b);
    rank = poisoned.rank(level, {w0, random_unit(rng)}, &min);
    EXPECT_EQ(rank[0], kNegInf);
    EXPECT_EQ(rank[1], kNegInf);
    EXPECT_EQ(min, std::numeric_limits<double>::infinity());
  }
}

TEST(StageBKernel, LevelsAgreeWithinTwiceTheMargin) {
  // Levels are not bit-identical (fused vs twice-rounded multiply-adds),
  // but each is within the margin of the canonical cost.
  const std::vector<simd::Level> levels = runnable_levels();
  if (levels.size() < 2) GTEST_SKIP() << "only the scalar level runs here";
  Rng rng(mix_seed(29, 0x1E7E));
  for (int trial = 0; trial < 50; ++trial) {
    const KernelCase kc = random_case(rng, 4);
    std::vector<Vec3> w;
    for (int k = 0; k < 19; ++k) w.push_back(random_unit(rng));
    double min = 0.0;
    const std::vector<double> ref = kc.rank(simd::Level::kScalar, w, &min);
    const double margin = simd::orientation_margin(4, kc.max_abs_b);
    for (std::size_t l = 1; l < levels.size(); ++l) {
      const std::vector<double> got = kc.rank(levels[l], w, &min);
      for (std::size_t k = 0; k < w.size(); ++k) {
        if (std::isinf(ref[k]) || std::isinf(got[k])) continue;
        EXPECT_LE(std::abs(got[k] - ref[k]), 2.0 * margin);
      }
    }
  }
}

}  // namespace
}  // namespace rfp
