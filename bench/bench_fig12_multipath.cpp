/// Figure 12: system performance in different environments.
///
///   Clean space          : loc 7.61 cm, orient 8.59 deg, material 0.88
///   Multipath + suppress : loc 9.21 cm, orient 10.98 deg, material 0.82
///   Multipath (none)     : loc 14.82 cm, orient 19.33 deg, material 0.65
///
/// The "Multipath" column disables the channel-selection suppressor
/// (paper §V-D) on the identical cluttered deployment, isolating its
/// contribution (paper: 37.8% / 43.2% / 26.1% gains).
///
/// The closing `JSON:` line carries each environment's means; CI gates
/// their ordering.

#include <memory>

#include "support/bench_util.hpp"

namespace {

using namespace rfp;
using namespace rfp::bench;

struct EnvResult {
  std::vector<double> loc_cm;
  std::vector<double> orient_deg;
  double material_accuracy = 0.0;
};

EnvResult evaluate(const Testbed& bed, const RfPrism& prism,
                   std::uint64_t trial_base) {
  EnvResult out;
  Rng rng(mix_seed(trial_base, 0xE7A1));
  std::uint64_t trial = trial_base;

  // Localization + orientation sweep.
  for (int rep = 0; rep < 120; ++rep) {
    const Vec2 p{0.3 + 1.4 * rng.uniform(), 0.3 + 1.4 * rng.uniform()};
    const double alpha = rng.uniform(0.0, kPi);
    const TagState state = bed.tag_state(p, alpha, "plastic");
    const SensingResult r = prism.sense(bed.collect(state, trial++),
                                        bed.tag_id());
    if (!r.valid) continue;
    out.loc_cm.push_back(100.0 * distance(r.position, state.position));
    out.orient_deg.push_back(rad2deg(planar_angle_error(r.alpha, alpha)));
  }

  // Material identification: train and test in this environment through
  // this pipeline.
  std::vector<std::pair<SensingResult, std::string>> train, test;
  for (const auto& material : paper_materials()) {
    int got = 0;
    for (int attempt = 0; attempt < 140 && got < 36; ++attempt) {
      const Vec2 p{0.3 + 1.4 * rng.uniform(), 0.3 + 1.4 * rng.uniform()};
      const TagState state = bed.tag_state(p, 0.0, material);
      const SensingResult r = prism.sense(bed.collect(state, trial++),
                                          bed.tag_id());
      if (!r.valid) continue;
      ((got % 2 == 0) ? train : test).push_back({r, material});
      ++got;
    }
  }
  if (!train.empty() && !test.empty()) {
    const MaterialIdentifier id = train_identifier(train);
    out.material_accuracy = id.evaluate(test).accuracy();
  }
  return out;
}

void print_env(const char* name, const EnvResult& r) {
  std::printf("  %-22s", name);
  std::printf("loc %6.2f cm   orient %6.2f deg   material %5.1f%%   (n=%zu)\n",
              r.loc_cm.empty() ? -1.0 : mean(r.loc_cm),
              r.orient_deg.empty() ? -1.0 : mean(r.orient_deg),
              100.0 * r.material_accuracy, r.loc_cm.size());
}

}  // namespace

int main() {
  print_header("Fig. 12", "clean space vs multipath (with/without suppression)");

  // Clean space.
  Testbed clean_bed{};
  const EnvResult clean = evaluate(clean_bed, clean_bed.prism(), 10000);

  // Cluttered deployment, suppression on.
  TestbedConfig mp_config;
  mp_config.multipath_environment = true;
  Testbed mp_bed(mp_config);
  const EnvResult suppressed = evaluate(mp_bed, mp_bed.prism(), 20000);

  // Identical deployment, suppression off (plain fit, detector off so the
  // degraded answers are produced rather than rejected).
  RfPrismConfig raw_config = mp_bed.prism().config();
  raw_config.fitting.multipath_suppression = false;
  // The error detector stays on: the paper's "Multipath" bar removes only
  // the channel-selection method, and rounds whose phases support no line
  // at all are rejected, not averaged in.
  raw_config.error_detector.max_fit_rmse = 0.20;
  const RfPrism raw = mp_bed.make_pipeline_variant(std::move(raw_config));
  const EnvResult unsuppressed = evaluate(mp_bed, raw, 20000);

  print_env("clean space", clean);
  print_env("multipath + suppress", suppressed);
  print_env("multipath (none)", unsuppressed);
  std::printf("\n  [paper: 7.61/9.21/14.82 cm ; 8.59/10.98/19.33 deg ; "
              "0.88/0.82/0.65]\n");

  const double loc_gain =
      (mean(unsuppressed.loc_cm) - mean(suppressed.loc_cm)) /
      mean(unsuppressed.loc_cm);
  const double orient_gain =
      (mean(unsuppressed.orient_deg) - mean(suppressed.orient_deg)) /
      mean(unsuppressed.orient_deg);
  const double mat_gain =
      (suppressed.material_accuracy - unsuppressed.material_accuracy) /
      std::max(unsuppressed.material_accuracy, 1e-9);
  std::printf("  suppression gains: loc %.1f%%, orient %.1f%%, material "
              "%.1f%%  (paper: 37.8 / 43.2 / 26.1)\n",
              100.0 * loc_gain, 100.0 * orient_gain, 100.0 * mat_gain);

  std::printf("\nJSON: {");
  const std::pair<const char*, const EnvResult*> envs[] = {
      {"clean", &clean}, {"suppressed", &suppressed},
      {"unsuppressed", &unsuppressed}};
  for (const auto& [name, env] : envs) {
    std::printf("%s\"%s\": {\"loc_mean_cm\": %.3f, \"orient_mean_deg\": %.3f, "
                "\"material_accuracy\": %.3f, \"n\": %zu}",
                env == &clean ? "" : ", ", name, mean(env->loc_cm),
                mean(env->orient_deg), env->material_accuracy,
                env->loc_cm.size());
  }
  std::printf("}\n");
  return 0;
}
