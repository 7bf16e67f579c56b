/// Golden corpus: fixed-seed rounds from the simulated testbed, sensed
/// through every Stage-A route (cold exhaustive, pool-fanned, warm-start
/// hit and fallback, batched, 3-D), through the degraded, rejected and
/// NaN-poisoned paths, and through drift-corrected sequences whose
/// estimator is fed in emission order. Every numeric SensingResult field
/// and every PositionSolve field (path and cells_scanned included) is written
/// as the 64-bit pattern of the double, and the test asserts that the
/// freshly computed corpus equals the checked-in file byte for byte.
///
/// The file is regenerated only on purpose:
///
///   test_golden --regenerate-golden
///
/// rewrites tests/data/golden_corpus.txt from the current build. A change
/// that does so must say why in CHANGES.md; a refactor that claims to be
/// output-neutral must leave it untouched.

#include <bit>
#include <cinttypes>
#include <cstdint>
#include <cstdio>
#include <cstring>
#include <fstream>
#include <limits>
#include <optional>
#include <sstream>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "rfp/common/angles.hpp"
#include "rfp/common/error.hpp"
#include "rfp/common/rng.hpp"
#include "rfp/common/thread_pool.hpp"
#include "rfp/common/workspace.hpp"
#include "rfp/core/disentangle.hpp"
#include "rfp/core/drift.hpp"
#include "rfp/core/engine.hpp"
#include "rfp/core/grid_cache.hpp"
#include "rfp/exp/testbed.hpp"
#include "rfp/geom/frame.hpp"
#include "rfp/rfsim/faults.hpp"
#include "rfp/rfsim/mobility.hpp"
#include "rfp/rfsim/scene.hpp"
#include "support/core_test_util.hpp"

namespace rfp {
namespace {

bool g_regenerate = false;

/// Appends fields of one record as space-separated tokens.
class Record {
 public:
  explicit Record(std::string& out) : out_(out) {}

  Record& key(const char* k) {
    out_ += ' ';
    out_ += k;
    return *this;
  }
  Record& num(double v) {
    char buf[24];
    std::snprintf(buf, sizeof buf, " %016" PRIx64,
                  std::bit_cast<std::uint64_t>(v));
    out_ += buf;
    return *this;
  }
  Record& count(std::uint64_t v) {
    out_ += ' ';
    out_ += std::to_string(v);
    return *this;
  }
  Record& vec(Vec3 v) { return num(v.x).num(v.y).num(v.z); }
  void end() { out_ += '\n'; }

 private:
  std::string& out_;
};

/// FNV-1a over the bit patterns of a line's per-channel diagnostics.
std::uint64_t line_digest(const AntennaLine& line) {
  std::uint64_t h = 1469598103934665603ull;
  const auto mix = [&](std::uint64_t v) {
    for (int i = 0; i < 8; ++i) {
      h ^= (v >> (8 * i)) & 0xffu;
      h *= 1099511628211ull;
    }
  };
  for (double r : line.residual) mix(std::bit_cast<std::uint64_t>(r));
  for (double f : line.frequency_hz) mix(std::bit_cast<std::uint64_t>(f));
  for (bool b : line.channel_inlier) mix(b ? 1u : 0u);
  return h;
}

void write_result(std::string& out, const SensingResult& r) {
  Record(out)
      .key("result")
      .count(r.valid ? 1 : 0)
      .count(static_cast<std::uint64_t>(r.reject_reason))
      .count(static_cast<std::uint64_t>(r.grade))
      .end();
  Record ex(out);
  ex.key("excluded");
  for (std::size_t a : r.excluded_antennas) ex.count(a);
  ex.key("unhealthy");
  for (std::size_t a : r.unhealthy_antennas) ex.count(a);
  ex.end();
  Record(out)
      .key("pose")
      .vec(r.position)
      .num(r.position_residual)
      .num(r.alpha)
      .vec(r.polarization)
      .num(r.orientation_residual)
      .end();
  Record(out).key("material").num(r.kt).num(r.bt).end();
  Record sig(out);
  sig.key("signature");
  for (double v : r.material_signature) sig.num(v);
  sig.end();
  for (const AntennaLine& line : r.lines) {
    Record(out)
        .key("line")
        .count(line.antenna)
        .count(line.n_channels)
        .count(line.fit.n)
        .num(line.fit.slope)
        .num(line.fit.intercept)
        .num(line.fit.rmse)
        .count(line_digest(line))
        .end();
  }
}

void write_solve(std::string& out, const PositionSolve& s) {
  Record(out)
      .key("solve")
      .count(static_cast<std::uint64_t>(s.path))
      .count(s.cells_scanned)
      .count(s.converged ? 1 : 0)
      .vec(s.position)
      .num(s.kt)
      .num(s.rms)
      .end();
}

/// Coverage tallies, so a corpus that stops reaching a path fails loudly
/// instead of silently pinning less.
struct Coverage {
  std::size_t rounds = 0;
  std::size_t degraded = 0;
  std::size_t rejected = 0;
  std::size_t warm_hits = 0;
  std::size_t warm_fallbacks = 0;
  std::size_t mode_3d = 0;
  std::size_t drift_corrected = 0;  ///< sensed with active corrections
  std::size_t drift_dropped = 0;    ///< ... and a port past the bound
};

class CorpusWriter {
 public:
  CorpusWriter(std::string& out, Coverage& cov) : out_(out), cov_(cov) {}

  /// One sensed round plus, for valid results, the direct Stage-A solve
  /// of the lines the pipeline solved on (same config and hint), which
  /// pins PositionSolve::path and cells_scanned. A round sensed with a
  /// drift snapshot also records the snapshot, and its direct solve sees
  /// the corrected lines, as the pipeline's did.
  void sensed(const std::string& name, const RfPrism& prism,
              const SensingResult& r, const Vec3* hint,
              const DriftCorrections* drift = nullptr) {
    header(name);
    if (drift != nullptr) write_drift(*drift);
    write_result(out_, r);
    ++cov_.rounds;
    cov_.degraded += r.grade == SensingGrade::kDegraded ? 1 : 0;
    cov_.rejected += r.grade == SensingGrade::kRejected ? 1 : 0;
    cov_.mode_3d += prism.config().disentangle.grid_nz > 1 ? 1 : 0;
    if (!r.valid) {
      Record(out_).key("solve").key("none").end();
      return;
    }
    std::vector<AntennaLine> lines = testutil::solved_lines(r);
    if (drift != nullptr && drift->active) {
      for (AntennaLine& line : lines) {
        line.fit.slope -= drift->slope[line.antenna];
        line.fit.intercept -= drift->intercept[line.antenna];
      }
    }
    const PositionSolve s =
        solve_position(prism.config().geometry, lines,
                       prism.config().disentangle, ws_, nullptr, &cache_, hint);
    write_solve(out_, s);
    note(s, hint);
  }

  /// A direct Stage-A solve (no pipeline around it).
  void solved(const std::string& name, const PositionSolve& s,
              const Vec3* hint) {
    header(name);
    write_solve(out_, s);
    ++cov_.rounds;
    note(s, hint);
  }

  void threw(const std::string& name) {
    header(name);
    Record(out_).key("throws").key("InvalidArgument").end();
    ++cov_.rounds;
  }

  SolveWorkspace& ws() { return ws_; }
  GridGeometryCache& cache() { return cache_; }

 private:
  void header(const std::string& name) { out_ += "round " + name + "\n"; }

  void write_drift(const DriftCorrections& d) {
    Record rec(out_);
    rec.key("drift").count(d.active ? 1 : 0);
    for (std::size_t a = 0; a < d.slope.size(); ++a) {
      rec.num(d.slope[a]).num(d.intercept[a]).count(d.drop[a] ? 1 : 0);
    }
    rec.end();
    cov_.drift_corrected += d.active ? 1 : 0;
    bool dropped = false;
    for (bool drop : d.drop) dropped |= drop;
    cov_.drift_dropped += d.active && dropped ? 1 : 0;
  }

  void note(const PositionSolve& s, const Vec3* hint) {
    if (hint != nullptr) {
      if (s.path == SolvePath::kWarmStart) {
        ++cov_.warm_hits;
      } else {
        ++cov_.warm_fallbacks;
      }
    }
  }

  std::string& out_;
  Coverage& cov_;
  SolveWorkspace ws_;
  GridGeometryCache cache_;
};

TagState random_state(const Testbed& bed, Rng& rng, std::size_t k) {
  const auto materials = paper_materials();
  const Vec2 p{0.3 + 1.4 * rng.uniform(), 0.3 + 1.4 * rng.uniform()};
  return bed.tag_state(p, rng.uniform(0.0, kPi),
                       materials[k % materials.size()]);
}

TagState random_state_3d(Rng& rng, std::size_t k) {
  const auto materials = paper_materials();
  const Vec3 p{0.3 + 1.4 * rng.uniform(), 0.3 + 1.4 * rng.uniform(),
               0.2 + 0.9 * rng.uniform()};
  const Vec3 w = spherical_polarization(rng.uniform(0.0, kPi),
                                        rng.uniform(-1.2, 1.2));
  return TagState{p, w, materials[k % materials.size()]};
}

std::string build_corpus(Coverage& cov) {
  std::string out =
      "# RF-Prism golden corpus: doubles are IEEE-754 bit patterns (hex).\n"
      "# Regenerate only with `test_golden --regenerate-golden`.\n";
  CorpusWriter w(out, cov);

  // ---- 2-D clean: cold sense, then warm hints near (hit) and far ------
  {
    Testbed bed;
    const RfPrism& prism = bed.prism();
    Rng rng(mix_seed(0x601D, 1));
    std::vector<TagState> states;
    std::vector<RoundTrace> rounds;
    for (std::size_t k = 0; k < 8; ++k) {
      states.push_back(random_state(bed, rng, k));
      rounds.push_back(bed.collect(states.back(), 9100 + k));
      w.sensed("clean2d/" + std::to_string(k), prism,
               prism.sense(rounds.back(), bed.tag_id()), nullptr);
    }
    for (std::size_t k = 0; k < 4; ++k) {
      const Vec3 hint = states[k].position + Vec3{0.03, -0.02, 0.0};
      w.sensed("warm2d_near/" + std::to_string(k), prism,
               prism.sense_warm(rounds[k], bed.tag_id(), hint), &hint);
    }
    for (std::size_t k = 4; k < 6; ++k) {
      // A hint on the far side of the region: the window misses the
      // optimum, the refined RMS is too high, and the solve falls back.
      const Vec3 hint{2.0 - states[k].position.x, 2.0 - states[k].position.y,
                      0.0};
      w.sensed("warm2d_far/" + std::to_string(k), prism,
               prism.sense_warm(rounds[k], bed.tag_id(), hint), &hint);
    }
    const Vec3 outside{10.0, -10.0, 0.0};
    w.sensed("warm2d_outside/6", prism,
             prism.sense_warm(rounds[6], bed.tag_id(), outside), &outside);
    // An unpassable threshold (three antennas fit 2-D position + kt
    // exactly, so the refined RMS can reach 0): the window is scanned and
    // refined, then the solve falls back to the full grid.
    RfPrismConfig strict_config = prism.config();
    strict_config.disentangle.warm_start.max_rms = -1.0;
    const RfPrism strict = bed.make_pipeline_variant(strict_config);
    for (std::size_t k = 0; k < 2; ++k) {
      const Vec3 hint = states[k].position;
      w.sensed("warm2d_strict/" + std::to_string(k), strict,
               strict.sense_warm(rounds[k], bed.tag_id(), hint), &hint);
    }

    // Pool-fanned Stage A through an engine.
    SensingEngine engine(3);
    for (std::size_t k = 0; k < 2; ++k) {
      w.sensed("engine2d/" + std::to_string(k), prism,
               prism.sense(rounds[k], engine, bed.tag_id()), nullptr);
    }

    // Tag-batched Stage A: one sense_batch over a warm-hint mix.
    std::vector<std::optional<Vec3>> hints(rounds.size());
    hints[1] = states[1].position + Vec3{-0.02, 0.01, 0.0};
    hints[5] = Vec3{2.0 - states[5].position.x, 2.0 - states[5].position.y,
                    0.0};
    const std::vector<std::string> ids(rounds.size(), bed.tag_id());
    const std::vector<SensingResult> batch =
        prism.sense_batch(rounds, ids, engine, nullptr, hints);
    for (std::size_t k = 0; k < batch.size(); ++k) {
      w.sensed("batch2d/" + std::to_string(k), prism, batch[k],
               hints[k] ? &*hints[k] : nullptr);
    }

    // Mobility inside the window: the error detector rejects it.
    for (std::size_t k = 0; k < 2; ++k) {
      const MobilityModel moving =
          MobilityModel::linear_motion(states[k], Vec3{0.4, -0.3, 0.0});
      w.sensed("moving2d/" + std::to_string(k), prism,
               prism.sense(bed.collect(moving, 9200 + k), bed.tag_id()),
               nullptr);
    }
  }

  // ---- 2-D multipath ----------------------------------------------------
  {
    TestbedConfig config;
    config.seed = 7;
    config.multipath_environment = true;
    Testbed bed(config);
    Rng rng(mix_seed(0x601D, 2));
    for (std::size_t k = 0; k < 6; ++k) {
      const TagState state = random_state(bed, rng, k);
      const RoundTrace round = bed.collect(state, 9300 + k);
      w.sensed("multipath2d/" + std::to_string(k), bed.prism(),
               bed.prism().sense(round, bed.tag_id()), nullptr);
      if (k < 3) {
        const Vec3 hint = state.position + Vec3{0.02, 0.02, 0.0};
        w.sensed("warm_multipath2d/" + std::to_string(k), bed.prism(),
                 bed.prism().sense_warm(round, bed.tag_id(), hint), &hint);
      }
    }
  }

  // ---- 4-antenna 2-D rig under heavy faults: full/degraded/rejected ----
  {
    TestbedConfig config;
    config.seed = 11;
    config.n_antennas = 4;
    Testbed bed(config);
    Rng rng(mix_seed(0x601D, 3));
    const FaultInjector injector(FaultProfile::scaled(0.8, mix_seed(0x601D, 4)));
    for (std::size_t k = 0; k < 8; ++k) {
      const TagState state = random_state(bed, rng, k);
      const RoundTrace round = injector.apply(bed.collect(state, 9400 + k),
                                              9400 + k);
      w.sensed("faulted2d/" + std::to_string(k), bed.prism(),
               bed.prism().sense(round, bed.tag_id()), nullptr);
    }
    // A severed cable on port 2: the degraded subset path.
    FaultProfile dead;
    dead.dead_antennas = {2};
    const FaultInjector severed(dead);
    for (std::size_t k = 0; k < 3; ++k) {
      const TagState state = random_state(bed, rng, k);
      const RoundTrace round = severed.apply(bed.collect(state, 9450 + k),
                                             9450 + k);
      w.sensed("dead_port2d/" + std::to_string(k), bed.prism(),
               bed.prism().sense(round, bed.tag_id()), nullptr);
    }
  }

  // ---- 3-D: cold, warm ---------------------------------------------------
  {
    TestbedConfig config;
    config.mode_3d = true;
    config.seed = 5;
    Testbed bed(config);
    const RfPrism& prism = bed.prism();
    Rng rng(mix_seed(0x601D, 5));
    std::vector<TagState> states;
    std::vector<RoundTrace> rounds;
    for (std::size_t k = 0; k < 4; ++k) {
      states.push_back(random_state_3d(rng, k));
      rounds.push_back(bed.collect(states.back(), 9500 + k));
      w.sensed("clean3d/" + std::to_string(k), prism,
               prism.sense(rounds.back(), bed.tag_id()), nullptr);
    }
    const Vec3 hint = states[0].position + Vec3{0.02, 0.02, -0.03};
    w.sensed("warm3d_near/0", prism,
             prism.sense_warm(rounds[0], bed.tag_id(), hint), &hint);
  }

  // ---- Direct Stage-A solves on exact lines -----------------------------
  {
    const Scene scene = make_scene_2d(71);
    const DeploymentGeometry geometry = testutil::exact_geometry(scene);
    const DisentangleConfig config;
    const Vec3 truth{0.65, 1.4, 0.0};
    const auto lines = testutil::exact_lines(
        geometry, truth, planar_polarization(0.3), 2e-9, 1.1);
    const Vec3 hint{truth.x + 0.04, truth.y - 0.03, 0.0};
    w.solved("exact2d/cold", solve_position(geometry, lines, config), nullptr);
    w.solved("exact2d/uncached",
             solve_position(geometry, lines, config, w.ws()), nullptr);
    w.solved("exact2d/warm",
             solve_position(geometry, lines, config, w.ws(), nullptr,
                            &w.cache(), &hint),
             &hint);
    ThreadPool pool(3);
    w.solved("exact2d/pool",
             solve_position(geometry, lines, config, w.ws(), &pool,
                            &w.cache()),
             nullptr);

    // A NaN-poisoned slope poisons every cell: region-center fallback.
    auto poisoned = lines;
    poisoned[1].fit.slope = std::numeric_limits<double>::quiet_NaN();
    w.solved("nan_slope2d/cold",
             solve_position(geometry, poisoned, config, w.ws(), nullptr,
                            &w.cache()),
             nullptr);
    w.solved("nan_slope2d/warm",
             solve_position(geometry, poisoned, config, w.ws(), nullptr,
                            &w.cache(), &hint),
             &hint);

    // Too few usable lines: the solve throws.
    auto few = lines;
    few[0].fit.n = 2;
    try {
      (void)solve_position(geometry, few, config, w.ws(), nullptr,
                           &w.cache());
      ADD_FAILURE() << "solve_position accepted 2 usable lines";
    } catch (const InvalidArgument&) {
      w.threw("few_lines2d/cold");
    }
  }

  // ---- Drift on: linear LO/cable drift, estimator fed in emission order -
  // The second run tightens the correctable bound so that, once warmed
  // up, a port is dropped into the degraded subset path.
  for (const double max_correct_intercept : {1.2, 0.05}) {
    TestbedConfig config;
    config.seed = 13;
    config.n_antennas = 4;
    Testbed bed(config);
    RfPrismConfig pc = bed.prism().config();
    pc.disentangle.drift.enable = true;
    pc.disentangle.drift.max_correct_intercept = max_correct_intercept;
    const RfPrism prism = bed.make_pipeline_variant(pc);
    DriftEstimator estimator(4, pc.disentangle.drift);
    const FaultInjector injector(testutil::linear_drift_profile());
    const std::string run = max_correct_intercept < 1.0 ? "drift_drop2d/"
                                                        : "drift2d/";
    Rng rng(mix_seed(0x601D, 6));
    for (std::size_t k = 0; k < 16; ++k) {
      const TagState state = random_state(bed, rng, k);
      const RoundTrace round =
          injector.apply(bed.collect(state, 9600 + k), k);
      const DriftCorrections snapshot = estimator.corrections();
      const SensingResult r =
          prism.sense(round, bed.tag_id(), nullptr, &snapshot);
      w.sensed(run + std::to_string(k), prism, r, nullptr, &snapshot);
      estimator.observe(r, prism.config().geometry);
    }
  }
  return out;
}

std::vector<std::string> split_lines(const std::string& text) {
  std::vector<std::string> lines;
  std::istringstream in(text);
  for (std::string line; std::getline(in, line);) lines.push_back(line);
  return lines;
}

TEST(GoldenCorpus, MatchesCheckedInFileByteForByte) {
  Coverage cov;
  const std::string fresh = build_corpus(cov);

  // The corpus must keep reaching every path it claims to pin.
  EXPECT_GE(cov.rounds, 48u);
  EXPECT_GE(cov.degraded, 1u);
  EXPECT_GE(cov.rejected, 2u);
  EXPECT_GE(cov.warm_hits, 2u);
  EXPECT_GE(cov.warm_fallbacks, 2u);
  EXPECT_GE(cov.mode_3d, 5u);
  EXPECT_GE(cov.drift_corrected, 8u);
  EXPECT_GE(cov.drift_dropped, 1u);

  if (g_regenerate) {
    std::ofstream file(RFP_GOLDEN_FILE, std::ios::binary | std::ios::trunc);
    ASSERT_TRUE(file) << "cannot write " << RFP_GOLDEN_FILE;
    file << fresh;
    std::printf("regenerated %s (%zu rounds)\n", RFP_GOLDEN_FILE, cov.rounds);
    return;
  }

  std::ifstream file(RFP_GOLDEN_FILE, std::ios::binary);
  ASSERT_TRUE(file) << "missing golden file " << RFP_GOLDEN_FILE;
  std::stringstream stored;
  stored << file.rdbuf();
  if (stored.str() == fresh) return;

  // Report the first differing line with the round it belongs to.
  const std::vector<std::string> want = split_lines(stored.str());
  const std::vector<std::string> got = split_lines(fresh);
  std::string round = "(header)";
  for (std::size_t i = 0; i < std::max(want.size(), got.size()); ++i) {
    const std::string& a = i < want.size() ? want[i] : std::string();
    const std::string& b = i < got.size() ? got[i] : std::string();
    if (b.rfind("round ", 0) == 0) round = b;
    if (a != b) {
      ADD_FAILURE() << "golden corpus differs at line " << i + 1 << " ("
                    << round << ")\n  stored: " << a << "\n  actual: " << b;
      return;
    }
  }
  ADD_FAILURE() << "golden corpus differs (line endings or trailing bytes)";
}

}  // namespace
}  // namespace rfp

int main(int argc, char** argv) {
  ::testing::InitGoogleTest(&argc, argv);
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--regenerate-golden") == 0) {
      rfp::g_regenerate = true;
    } else {
      std::fprintf(stderr, "test_golden: unknown argument %s\n", argv[i]);
      return 2;
    }
  }
  return RUN_ALL_TESTS();
}
