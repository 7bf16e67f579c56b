/// Figure 9: orientation error by distance region (near/medium/far) and by
/// material. Paper reference: 8.59 / 10.40 / 10.50 deg across regions
/// (near best — stronger LOS), 9.83 deg overall, conductive materials
/// slightly worse.
///
/// The closing `JSON:` line carries the per-region, overall and
/// material-sweep means; CI gates them.

#include <map>

#include "support/bench_util.hpp"

namespace {

using namespace rfp;
using namespace rfp::bench;

}  // namespace

int main() {
  Testbed bed{};
  const auto grid = paper_grid_positions(bed.scene().working_region);

  print_header("Fig. 9 (left)", "orientation error vs distance region");
  std::map<Region, std::vector<double>> by_region;
  std::vector<double> overall;
  std::uint64_t trial = 2000;
  for (const Vec2 p : grid) {
    for (double alpha : paper_rotation_angles()) {
      for (int rep = 0; rep < 2; ++rep) {
        const SensingResult r =
            bed.sense(bed.tag_state(p, alpha, "plastic"), trial++);
        if (!r.valid) continue;
        const double err = rad2deg(planar_angle_error(r.alpha, alpha));
        by_region[bed.region_of(p)].push_back(err);
        overall.push_back(err);
      }
    }
  }
  for (Region region : {Region::kNear, Region::kMedium, Region::kFar}) {
    print_stat_row(to_string(region), by_region[region], "deg");
  }
  print_stat_row("overall", overall, "deg");
  std::printf("  [paper: near 8.59 / medium 10.40 / far 10.50 deg]\n");

  print_header("Fig. 9 (right)", "orientation error vs target material");
  std::vector<double> overall_mat;
  for (const auto& material : paper_materials()) {
    std::vector<double> errors;
    for (const Vec2 p : grid) {
      const double alpha =
          paper_rotation_angles()[(trial / 7) % 6];  // vary angles too
      const SensingResult r =
          bed.sense(bed.tag_state(p, alpha, material), trial++);
      if (!r.valid) continue;
      errors.push_back(rad2deg(planar_angle_error(r.alpha, alpha)));
    }
    print_stat_row(material, errors, "deg");
    overall_mat.insert(overall_mat.end(), errors.begin(), errors.end());
  }
  print_stat_row("overall", overall_mat, "deg");
  std::printf("  [paper: 9.83 deg overall; metal & conductive liquids "
              "slightly higher]\n");

  std::printf("\nJSON: {\"near_mean_deg\": %.3f, \"medium_mean_deg\": %.3f, "
              "\"far_mean_deg\": %.3f, \"overall_mean_deg\": %.3f, "
              "\"material_sweep_mean_deg\": %.3f}\n",
              mean(by_region[Region::kNear]), mean(by_region[Region::kMedium]),
              mean(by_region[Region::kFar]), mean(overall), mean(overall_mat));
  return 0;
}
