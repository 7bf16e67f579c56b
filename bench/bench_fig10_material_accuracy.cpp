/// Figure 10: material identification accuracy by distance region and by
/// tag orientation. Paper reference: near/medium/far = 88.6/87.5/87.5%;
/// training only at 0 deg still gives 88.0% (0 deg) and 87.8% (90 deg) at
/// test time — distance and orientation do not significantly affect
/// identification.
///
/// The closing `JSON:` line carries the overall and per-orientation
/// accuracies; CI gates the overall one.

#include <map>

#include "support/bench_util.hpp"

namespace {

using namespace rfp;
using namespace rfp::bench;

}  // namespace

int main() {
  Testbed bed{};

  // Paper protocol: 150 reads per material (100 at 0 deg, 50 at 90 deg);
  // half the 0-deg reads train, the rest validate. Scaled to 60/30 per
  // material to keep the bench under a minute.
  print_header("Fig. 10", "material identification accuracy (decision tree)");
  Rng rng(1);
  std::uint64_t trial = 3000;
  std::vector<std::pair<SensingResult, std::string>> train;
  struct TestCase {
    SensingResult result;
    std::string material;
    Region region;
    bool rotated;
  };
  std::vector<TestCase> tests;

  for (const auto& material : paper_materials()) {
    int train_n = 0, test0_n = 0, test90_n = 0;
    for (int attempt = 0;
         attempt < 300 && (train_n < 30 || test0_n < 30 || test90_n < 15);
         ++attempt) {
      const Vec2 p{0.3 + 1.4 * rng.uniform(), 0.3 + 1.4 * rng.uniform()};
      const bool rotated = train_n >= 30 && test0_n >= 30;
      const double alpha = rotated ? deg2rad(90.0) : 0.0;
      const SensingResult r =
          bed.sense(bed.tag_state(p, alpha, material), trial++);
      if (!r.valid) continue;
      if (train_n < 30) {
        train.push_back({r, material});
        ++train_n;
      } else if (!rotated) {
        tests.push_back({r, material, bed.region_of(p), false});
        ++test0_n;
      } else {
        tests.push_back({r, material, bed.region_of(p), true});
        ++test90_n;
      }
    }
  }

  MaterialIdentifier id = train_identifier(train);
  std::printf("  trained on %zu reads (all at 0 deg)\n", id.n_samples());

  // Accuracy by region (0-deg test set).
  std::map<Region, std::pair<int, int>> region_counts;
  std::map<bool, std::pair<int, int>> orientation_counts;
  std::map<std::string, std::pair<int, int>> material_counts;
  for (const TestCase& t : tests) {
    const bool correct = id.predict(t.result) == t.material;
    if (!t.rotated) {
      auto& [ok, n] = region_counts[t.region];
      ok += correct;
      ++n;
    }
    auto& [ok2, n2] = orientation_counts[t.rotated];
    ok2 += correct;
    ++n2;
    auto& [ok3, n3] = material_counts[t.material];
    ok3 += correct;
    ++n3;
  }

  std::printf("\n  accuracy by distance region (test at 0 deg):\n");
  for (Region region : {Region::kNear, Region::kMedium, Region::kFar}) {
    const auto [ok, n] = region_counts[region];
    std::printf("    %-8s %5.1f%%  (n=%d)\n", to_string(region),
                n ? 100.0 * ok / n : 0.0, n);
  }
  std::printf("  [paper: near 88.6 / medium 87.5 / far 87.5 %%]\n");

  std::printf("\n  accuracy by test orientation (trained at 0 deg only):\n");
  for (bool rotated : {false, true}) {
    const auto [ok, n] = orientation_counts[rotated];
    std::printf("    %-8s %5.1f%%  (n=%d)\n", rotated ? "90 deg" : "0 deg",
                n ? 100.0 * ok / n : 0.0, n);
  }
  std::printf("  [paper: 88.0%% at 0 deg, 87.8%% at 90 deg]\n");

  std::printf("\n  accuracy by material (all tests):\n");
  int total_ok = 0, total_n = 0;
  for (const auto& material : paper_materials()) {
    const auto [ok, n] = material_counts[material];
    std::printf("    %-8s %5.1f%%  (n=%d)\n", material.c_str(),
                n ? 100.0 * ok / n : 0.0, n);
    total_ok += ok;
    total_n += n;
  }
  std::printf("    %-8s %5.1f%%  (n=%d)\n", "overall",
              total_n ? 100.0 * total_ok / total_n : 0.0, total_n);
  std::printf("  [paper: 87.9%% overall]\n");

  const auto accuracy = [](std::pair<int, int> counts) {
    return counts.second ? 100.0 * counts.first / counts.second : 0.0;
  };
  std::printf("\nJSON: {\"overall_accuracy_pct\": %.3f, "
              "\"accuracy_0deg_pct\": %.3f, \"accuracy_90deg_pct\": %.3f}\n",
              accuracy({total_ok, total_n}),
              accuracy(orientation_counts[false]),
              accuracy(orientation_counts[true]));
  return 0;
}
