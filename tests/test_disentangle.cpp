#include "rfp/core/disentangle.hpp"

#include <gtest/gtest.h>

#include "rfp/common/angles.hpp"
#include "rfp/common/constants.hpp"
#include "rfp/common/error.hpp"
#include "support/core_test_util.hpp"

namespace rfp {
namespace {

using testutil::exact_geometry;
using testutil::exact_lines;

std::vector<Vec2> paper_like_grid() {
  std::vector<Vec2> pts;
  for (double x : {0.3, 1.0, 1.7}) {
    for (double y : {0.3, 1.0, 1.7}) pts.push_back({x, y});
  }
  return pts;
}

class DisentangleTest : public ::testing::Test {
 protected:
  DisentangleTest()
      : scene_(make_scene_2d(71)), geometry_(exact_geometry(scene_)) {}

  Scene scene_;
  DeploymentGeometry geometry_;
  DisentangleConfig config_;
};

TEST_F(DisentangleTest, ExactPositionRecovered) {
  const Vec3 truth{0.65, 1.4, 0.0};
  const auto lines =
      exact_lines(geometry_, truth, planar_polarization(0.3), 2e-9, 1.1);
  const PositionSolve solve = solve_position(geometry_, lines, config_);
  EXPECT_NEAR(distance(solve.position, truth), 0.0, 1e-3);
  EXPECT_NEAR(solve.kt, 2e-9, 1e-11);
  EXPECT_LT(solve.rms, 1e-10);
}

TEST_F(DisentangleTest, PositionSweepAcrossRegion) {
  for (Vec2 p : paper_like_grid()) {
    const Vec3 truth{p, 0.0};
    const auto lines =
        exact_lines(geometry_, truth, planar_polarization(1.0), 0.0, 0.5);
    const PositionSolve solve = solve_position(geometry_, lines, config_);
    ASSERT_NEAR(distance(solve.position, truth), 0.0, 5e-3)
        << "at " << p.x << "," << p.y;
  }
}

TEST_F(DisentangleTest, KtIndependentOfPositionTruth) {
  // kt must absorb exactly the common-mode slope regardless of where the
  // tag sits.
  for (double kt : {-5e-9, 0.0, 4e-9, 1.2e-8}) {
    const Vec3 truth{1.3, 0.8, 0.0};
    const auto lines =
        exact_lines(geometry_, truth, planar_polarization(0.0), kt, 0.0);
    const PositionSolve solve = solve_position(geometry_, lines, config_);
    ASSERT_NEAR(solve.kt, kt, 1e-11);
    ASSERT_NEAR(distance(solve.position, truth), 0.0, 2e-3);
  }
}

TEST_F(DisentangleTest, ExactOrientationRecovered) {
  const Vec3 truth{1.2, 1.1, 0.0};
  for (double alpha : {0.0, 0.4, 1.0, 1.5, 2.2, 2.9}) {
    const auto lines = exact_lines(geometry_, truth,
                                   planar_polarization(alpha), 1e-9, 0.8);
    const OrientationSolve solve =
        solve_orientation(geometry_, lines, truth, config_);
    ASSERT_NEAR(rad2deg(planar_angle_error(solve.alpha, alpha)), 0.0, 0.5)
        << "alpha=" << alpha;
    ASSERT_NEAR(std::abs(ang_diff(solve.bt, 0.8)), 0.0, 0.05);
    ASSERT_LT(solve.rms, 1e-3);
  }
}

TEST_F(DisentangleTest, OrientationToleratesSmallPositionError) {
  const Vec3 truth{0.9, 1.5, 0.0};
  const double alpha = 1.1;
  const auto lines =
      exact_lines(geometry_, truth, planar_polarization(alpha), 0.0, 0.3);
  // Feed a position 10 cm off: the ray directions barely move.
  const Vec3 biased{1.0, 1.55, 0.0};
  const OrientationSolve solve =
      solve_orientation(geometry_, lines, biased, config_);
  EXPECT_LT(rad2deg(planar_angle_error(solve.alpha, alpha)), 6.0);
}

TEST_F(DisentangleTest, InterceptNoiseDegradesGracefully) {
  const Vec3 truth{1.0, 1.0, 0.0};
  const double alpha = 0.7;
  auto lines =
      exact_lines(geometry_, truth, planar_polarization(alpha), 0.0, 1.9);
  lines[1].fit.intercept = wrap_to_2pi(lines[1].fit.intercept + 0.08);
  const OrientationSolve solve =
      solve_orientation(geometry_, lines, truth, config_);
  EXPECT_LT(rad2deg(planar_angle_error(solve.alpha, alpha)), 12.0);
}

TEST_F(DisentangleTest, PositionCostMinimalAtTruth) {
  const Vec3 truth{0.5, 0.6, 0.0};
  const auto lines =
      exact_lines(geometry_, truth, planar_polarization(0.2), 1e-9, 0.1);
  const double at_truth = position_cost(geometry_, lines, truth);
  for (Vec3 other : {Vec3{0.8, 0.6, 0.0}, Vec3{0.5, 1.0, 0.0},
                     Vec3{1.5, 1.5, 0.0}}) {
    EXPECT_LT(at_truth, position_cost(geometry_, lines, other));
  }
}

TEST_F(DisentangleTest, OrientationCostMinimalAtTruth) {
  const Vec3 truth{1.4, 1.2, 0.0};
  const double alpha = 0.9;
  const auto lines =
      exact_lines(geometry_, truth, planar_polarization(alpha), 0.0, 0.0);
  const double at_truth =
      orientation_cost(geometry_, lines, truth, planar_polarization(alpha));
  for (double other : {0.2, 1.6, 2.5}) {
    EXPECT_LT(at_truth, orientation_cost(geometry_, lines, truth,
                                         planar_polarization(other)));
  }
}

TEST_F(DisentangleTest, TooFewLinesThrows) {
  const Vec3 truth{1.0, 1.0, 0.0};
  auto lines =
      exact_lines(geometry_, truth, planar_polarization(0.0), 0.0, 0.0);
  lines.pop_back();
  EXPECT_THROW(solve_position(geometry_, lines, config_), InvalidArgument);
  EXPECT_THROW(solve_orientation(geometry_, lines, truth, config_),
               InvalidArgument);
}

TEST_F(DisentangleTest, UnusableLinesDoNotCount) {
  const Vec3 truth{1.0, 1.0, 0.0};
  auto lines =
      exact_lines(geometry_, truth, planar_polarization(0.0), 0.0, 0.0);
  lines[2].fit.n = 0;
  EXPECT_THROW(solve_position(geometry_, lines, config_), InvalidArgument);
}

TEST_F(DisentangleTest, CoarseGridConfigThrows) {
  DisentangleConfig bad;
  bad.grid_nx = 1;
  const Vec3 truth{1.0, 1.0, 0.0};
  const auto lines =
      exact_lines(geometry_, truth, planar_polarization(0.0), 0.0, 0.0);
  EXPECT_THROW(solve_position(geometry_, lines, bad), InvalidArgument);
}

TEST(Disentangle3d, PositionAndOrientationIn3d) {
  const Scene scene = make_scene_3d(72);
  const DeploymentGeometry geometry = exact_geometry(scene);
  DisentangleConfig config;
  config.grid_nx = 25;
  config.grid_ny = 25;
  config.grid_nz = 9;
  config.z_lo = 0.0;
  config.z_hi = 1.2;

  const Vec3 truth{1.2, 0.9, 0.45};
  const Vec3 w = spherical_polarization(0.8, 0.35);
  const auto lines = exact_lines(geometry, truth, w, 2e-9, 1.0);

  const PositionSolve pos = solve_position(geometry, lines, config);
  EXPECT_NEAR(distance(pos.position, truth), 0.0, 0.02);
  EXPECT_NEAR(pos.kt, 2e-9, 1e-10);

  const OrientationSolve orient =
      solve_orientation(geometry, lines, pos.position, config);
  EXPECT_LT(rad2deg(polarization_angle_error(orient.polarization, w)), 6.0);
}

TEST(Disentangle3d, Needs4Antennas) {
  const Scene scene = make_scene_2d(73);  // only 3 antennas
  const DeploymentGeometry geometry = exact_geometry(scene);
  DisentangleConfig config;
  config.grid_nz = 5;
  const auto lines = exact_lines(geometry, Vec3{1.0, 1.0, 0.0},
                                 planar_polarization(0.0), 0.0, 0.0);
  EXPECT_THROW(solve_position(geometry, lines, config), InvalidArgument);
}

}  // namespace
}  // namespace rfp
