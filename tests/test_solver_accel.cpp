/// Solver acceleration contract (DESIGN.md "Solver acceleration"):
/// the cached, factored-ranked Stage-A solve is bit-identical to the
/// uncached canonical oracle (tests/support/stage_a_oracle.hpp) for any
/// thread count, warm starts fall back byte-identically when the hint is bad,
/// and the GridGeometryCache itself keys/evicts/builds correctly under
/// concurrency.

#include "rfp/core/grid_cache.hpp"

#include <cmath>
#include <cstddef>
#include <cstdint>
#include <string>
#include <thread>
#include <vector>

#include <gtest/gtest.h>

#include "rfp/common/angles.hpp"
#include "rfp/common/constants.hpp"
#include "rfp/common/error.hpp"
#include "rfp/common/rng.hpp"
#include "rfp/common/thread_pool.hpp"
#include "rfp/common/workspace.hpp"
#include "rfp/core/disentangle.hpp"
#include "rfp/core/engine.hpp"
#include "rfp/core/streaming.hpp"
#include "rfp/exp/testbed.hpp"
#include "rfp/geom/frame.hpp"
#include "rfp/rfsim/faults.hpp"
#include "rfp/rfsim/scene.hpp"
#include "support/core_test_util.hpp"
#include "support/stage_a_oracle.hpp"
#include "support/stage_b_oracle.hpp"

namespace rfp {
namespace {

using testutil::exact_geometry;
using testutil::exact_lines;

/// Exact (bitwise on doubles) equality of everything sensing computes.
/// No tolerances on purpose: bit-identity is the contract.
void expect_identical(const SensingResult& a, const SensingResult& b,
                      const std::string& where) {
  SCOPED_TRACE(where);
  EXPECT_EQ(a.valid, b.valid);
  EXPECT_EQ(a.reject_reason, b.reject_reason);
  EXPECT_EQ(a.grade, b.grade);
  EXPECT_EQ(a.excluded_antennas, b.excluded_antennas);
  EXPECT_EQ(a.unhealthy_antennas, b.unhealthy_antennas);
  EXPECT_EQ(a.position.x, b.position.x);
  EXPECT_EQ(a.position.y, b.position.y);
  EXPECT_EQ(a.position.z, b.position.z);
  EXPECT_EQ(a.position_residual, b.position_residual);
  EXPECT_EQ(a.alpha, b.alpha);
  EXPECT_EQ(a.polarization.x, b.polarization.x);
  EXPECT_EQ(a.polarization.y, b.polarization.y);
  EXPECT_EQ(a.polarization.z, b.polarization.z);
  EXPECT_EQ(a.orientation_residual, b.orientation_residual);
  EXPECT_EQ(a.kt, b.kt);
  EXPECT_EQ(a.bt, b.bt);
  EXPECT_EQ(a.material_signature, b.material_signature);
}

/// A mixed corpus: clean rounds plus heavily faulted ones, so the
/// accelerated paths are exercised across full, degraded, and rejected
/// outcomes (the PR 1 harness).
std::vector<RoundTrace> make_corpus(const Testbed& bed, std::size_t n_clean,
                                    std::size_t n_faulted) {
  std::vector<RoundTrace> corpus;
  Rng rng(mix_seed(11, 0xACCE));
  const auto materials = paper_materials();
  const FaultInjector injector(FaultProfile::scaled(0.8, mix_seed(11, 0xFA17)));
  for (std::size_t k = 0; k < n_clean + n_faulted; ++k) {
    const Vec2 p{0.3 + 1.4 * rng.uniform(), 0.3 + 1.4 * rng.uniform()};
    const TagState state = bed.tag_state(p, rng.uniform(0.0, kPi),
                                         materials[k % materials.size()]);
    RoundTrace round = bed.collect(state, 6000 + k);
    if (k >= n_clean) round = injector.apply(round, 6000 + k);
    corpus.push_back(std::move(round));
  }
  return corpus;
}

/// Bitwise equality of two Stage-A solves, path and cell count included.
void expect_same_solve(const PositionSolve& a, const PositionSolve& b,
                       const std::string& where) {
  SCOPED_TRACE(where);
  EXPECT_EQ(a.position.x, b.position.x);
  EXPECT_EQ(a.position.y, b.position.y);
  EXPECT_EQ(a.position.z, b.position.z);
  EXPECT_EQ(a.kt, b.kt);
  EXPECT_EQ(a.rms, b.rms);
  EXPECT_EQ(a.converged, b.converged);
  EXPECT_EQ(a.path, b.path);
  EXPECT_EQ(a.cells_scanned, b.cells_scanned);
}

/// A sensed result's Stage-A fields against the oracle's solve of the
/// lines the pipeline solved on (result.lines minus excluded ports).
void expect_matches_oracle(const RfPrism& prism, const SensingResult& r,
                           SolveWorkspace& ws, const std::string& where) {
  SCOPED_TRACE(where);
  const PositionSolve oracle = testutil::oracle_solve_position(
      prism.config().geometry, testutil::solved_lines(r),
      prism.config().disentangle, ws);
  EXPECT_EQ(r.position.x, oracle.position.x);
  EXPECT_EQ(r.position.y, oracle.position.y);
  EXPECT_EQ(r.position.z, oracle.position.z);
  EXPECT_EQ(r.position_residual, oracle.rms);
}

// ---------------------------------------------------------------------------
// GridGeometryCache unit tests
// ---------------------------------------------------------------------------

DeploymentGeometry square_geometry() {
  DeploymentGeometry g;
  g.antenna_positions = {{0.0, 0.0, 1.0},
                         {2.0, 0.0, 1.0},
                         {0.0, 2.0, 1.0},
                         {2.0, 2.0, 1.0}};
  for (std::size_t i = 0; i < 4; ++i) {
    g.antenna_frames.push_back(OrthoFrame{});
  }
  g.working_region = Rect{{0.0, 0.0}, {2.0, 2.0}};
  g.tag_plane_z = 0.0;
  return g;
}

GridSpec default_spec() { return GridSpec{41, 41, 1, 0.0, 1.5}; }

TEST(GridGeometryCache, ReusesTableForSameKey) {
  GridGeometryCache cache;
  const DeploymentGeometry g = square_geometry();
  const auto a = cache.acquire(g, default_spec());
  const auto b = cache.acquire(g, default_spec());
  EXPECT_EQ(a.get(), b.get());
  const auto stats = cache.stats();
  EXPECT_EQ(stats.hits, 1u);
  EXPECT_EQ(stats.misses, 1u);
  EXPECT_EQ(stats.entries, 1u);
  EXPECT_GT(stats.bytes, 0u);
}

TEST(GridGeometryCache, TableMatchesScanGeometry) {
  GridGeometryCache cache;
  const DeploymentGeometry g = square_geometry();
  const GridSpec spec = default_spec();
  const auto table = cache.acquire(g, spec);
  ASSERT_EQ(table->n_cells(), 41u * 41u);
  ASSERT_EQ(table->n_antennas, 4u);
  // Cell coordinates are the canonical scan expressions, bit-for-bit.
  const Rect& region = g.working_region;
  for (std::size_t ix = 0; ix < spec.nx; ++ix) {
    EXPECT_EQ(table->xs[ix],
              grid_axis_coord(region.lo.x, region.width(), ix, spec.nx));
  }
  // Distances are the exact distance() doubles at those cells.
  const std::size_t cell = 17 * spec.nx + 5;  // arbitrary interior cell
  const Vec3 p = table->cell_position(cell);
  for (std::size_t a = 0; a < 4; ++a) {
    EXPECT_EQ(table->dist[cell * 4 + a], distance(g.antenna_positions[a], p));
  }
  // Every antenna plane of the kernels' mirror starts on a cache line.
  EXPECT_EQ(reinterpret_cast<std::uintptr_t>(table->dist_t.data()) % 64, 0u);
  EXPECT_EQ(table->cell_stride % 8, 0u);
}

TEST(GridGeometryCache, GeometryChangeMisses) {
  GridGeometryCache cache;
  DeploymentGeometry g = square_geometry();
  const auto a = cache.acquire(g, default_spec());
  g.antenna_positions[2].x += 0.001;  // 1 mm survey correction
  const auto b = cache.acquire(g, default_spec());
  EXPECT_NE(a.get(), b.get());
  EXPECT_EQ(cache.stats().misses, 2u);
  EXPECT_EQ(cache.stats().entries, 2u);
}

TEST(GridGeometryCache, GridChangeMisses) {
  GridGeometryCache cache;
  const DeploymentGeometry g = square_geometry();
  const auto a = cache.acquire(g, default_spec());
  GridSpec finer = default_spec();
  finer.nx = 81;
  const auto b = cache.acquire(g, finer);
  EXPECT_NE(a.get(), b.get());
  EXPECT_EQ(b->spec.nx, 81u);
}

TEST(GridGeometryCache, FramesAndPlanarZRangeDoNotInvalidate) {
  // The distance table depends on neither the antenna frames nor (in 2D
  // mode) the 3D z range — changing them must hit the same entry.
  GridGeometryCache cache;
  DeploymentGeometry g = square_geometry();
  const auto a = cache.acquire(g, default_spec());
  g.antenna_frames[0] = OrthoFrame{{0, 1, 0}, {0, 0, 1}, {1, 0, 0}};
  GridSpec spec = default_spec();
  spec.z_lo = -3.0;
  spec.z_hi = 9.0;
  const auto b = cache.acquire(g, spec);
  EXPECT_EQ(a.get(), b.get());
  EXPECT_EQ(cache.stats().hits, 1u);
}

TEST(GridGeometryCache, CapacityEvictsOldestFirst) {
  GridGeometryCache cache(/*max_entries=*/2);
  DeploymentGeometry g = square_geometry();
  const auto first = cache.acquire(g, default_spec());
  g.antenna_positions[0].x += 0.01;
  cache.acquire(g, default_spec());
  g.antenna_positions[0].x += 0.01;
  cache.acquire(g, default_spec());
  const auto stats = cache.stats();
  EXPECT_EQ(stats.entries, 2u);
  EXPECT_EQ(stats.evictions, 1u);
  // The first (evicted) table is still usable by its holders.
  EXPECT_EQ(first->n_cells(), 41u * 41u);
  // Re-acquiring the first geometry is a miss again.
  DeploymentGeometry original = square_geometry();
  cache.acquire(original, default_spec());
  EXPECT_EQ(cache.stats().misses, 4u);
}

TEST(GridGeometryCache, DegenerateGridThrows) {
  GridGeometryCache cache;
  const DeploymentGeometry g = square_geometry();
  EXPECT_THROW(cache.acquire(g, GridSpec{1, 41, 1, 0.0, 0.0}),
               InvalidArgument);
  EXPECT_THROW(cache.acquire(DeploymentGeometry{}, default_spec()),
               InvalidArgument);
}

TEST(GridGeometryCache, ConcurrentFirstBuildSharesOneTable) {
  // Many workers race to build the same missing entry; everyone must end
  // up with the single winning table (TSan covers the synchronization).
  GridGeometryCache cache;
  const DeploymentGeometry g = square_geometry();
  constexpr std::size_t kThreads = 8;
  std::vector<std::shared_ptr<const GridTable>> tables(kThreads);
  {
    std::vector<std::thread> threads;
    threads.reserve(kThreads);
    for (std::size_t t = 0; t < kThreads; ++t) {
      threads.emplace_back(
          [&, t] { tables[t] = cache.acquire(g, default_spec()); });
    }
    for (auto& thread : threads) thread.join();
  }
  for (std::size_t t = 1; t < kThreads; ++t) {
    EXPECT_EQ(tables[0].get(), tables[t].get());
  }
  const auto stats = cache.stats();
  EXPECT_EQ(stats.entries, 1u);
  EXPECT_GE(stats.builds, 1u);
  EXPECT_EQ(stats.hits + stats.misses, kThreads);
}

// ---------------------------------------------------------------------------
// Cached exhaustive scan: bit-identity with the uncached canonical oracle
// ---------------------------------------------------------------------------

TEST(SolverAccelDeterminism, CachedMatchesUncachedBitExact) {
  // Full clean+faulted corpus through the whole pipeline: every valid
  // result's position and residual equal the oracle's uncached solve.
  TestbedConfig config;
  config.n_antennas = 4;  // room for the degraded path to act
  Testbed bed(config);
  const std::vector<RoundTrace> corpus = make_corpus(bed, 4, 8);
  SolveWorkspace ws;

  bool saw_degraded = false;
  std::size_t valid = 0;
  for (std::size_t k = 0; k < corpus.size(); ++k) {
    const SensingResult r = bed.prism().sense(corpus[k], bed.tag_id());
    saw_degraded |= r.grade == SensingGrade::kDegraded;
    if (!r.valid) continue;
    ++valid;
    expect_matches_oracle(bed.prism(), r, ws, "round " + std::to_string(k));
  }
  EXPECT_GE(valid, 6u);
  EXPECT_TRUE(saw_degraded)
      << "faulted corpus never reached the degraded subset path; weak test";
}

TEST(SolverAccelDeterminism, CachedBatchBitIdenticalAcrossThreadCounts) {
  TestbedConfig config;
  config.n_antennas = 4;
  Testbed bed(config);
  const std::vector<RoundTrace> corpus = make_corpus(bed, 3, 5);

  std::vector<SensingResult> reference;
  for (const RoundTrace& round : corpus) {
    reference.push_back(bed.prism().sense(round, bed.tag_id()));
  }
  for (std::size_t threads : {1u, 2u, 8u}) {
    SensingEngine engine(threads);
    const std::vector<SensingResult> batch =
        bed.prism().sense_batch(corpus, engine, bed.tag_id());
    ASSERT_EQ(batch.size(), reference.size());
    for (std::size_t k = 0; k < batch.size(); ++k) {
      expect_identical(batch[k], reference[k],
                       "threads=" + std::to_string(threads) + " round " +
                           std::to_string(k));
    }
  }
}

// ---------------------------------------------------------------------------
// Factored ranking: byte-identical to the canonical oracle
// ---------------------------------------------------------------------------

TEST(SolverAccelKernels, FactoredMatchesCanonicalBitExact) {
  // Direct solves on noisy synthetic rounds, 2D and 3D, pooled and not:
  // the factored-ranked solve (at whatever level dispatch picked) equals
  // the canonical oracle bit for bit, path and cell count included.
  const Scene scene2 = make_scene_2d(71);
  const Scene scene3 = make_scene_3d(72);
  SolveWorkspace ws, oracle_ws;
  GridGeometryCache cache;
  ThreadPool pool(3);
  Rng rng(mix_seed(71, 0xFAC7));
  for (const bool mode_3d : {false, true}) {
    const DeploymentGeometry geometry =
        exact_geometry(mode_3d ? scene3 : scene2);
    DisentangleConfig config;
    if (mode_3d) {
      config.grid_nx = 25;
      config.grid_ny = 25;
      config.grid_nz = 9;
      config.z_hi = 1.2;
    }
    for (std::size_t k = 0; k < 12; ++k) {
      const Vec3 truth{0.2 + 1.6 * rng.uniform(), 0.2 + 1.6 * rng.uniform(),
                       mode_3d ? 0.1 + rng.uniform() : 0.0};
      auto lines = exact_lines(geometry, truth, planar_polarization(0.4),
                               2e-9 * rng.uniform(), 0.3);
      for (AntennaLine& line : lines) {
        line.fit.slope += rng.gaussian(0.0, 2e-10);
      }
      const std::string where = std::string(mode_3d ? "3d" : "2d") +
                                " round " + std::to_string(k);
      const PositionSolve oracle =
          testutil::oracle_solve_position(geometry, lines, config, oracle_ws);
      expect_same_solve(
          solve_position(geometry, lines, config, ws, nullptr, &cache),
          oracle, where);
      expect_same_solve(
          solve_position(geometry, lines, config, ws, &pool, &cache), oracle,
          where + " pooled");
    }
  }
}

TEST(SolverAccelKernels, FactoredBitIdenticalAcrossThreadCounts) {
  // Batches at 1/2/8 threads reproduce the canonical oracle's Stage A
  // bit-for-bit on every valid round.
  TestbedConfig config;
  config.n_antennas = 4;
  Testbed bed(config);
  const std::vector<RoundTrace> corpus = make_corpus(bed, 3, 5);
  SolveWorkspace ws;
  for (std::size_t threads : {1u, 2u, 8u}) {
    SensingEngine engine(threads);
    const std::vector<SensingResult> batch =
        bed.prism().sense_batch(corpus, engine, bed.tag_id());
    ASSERT_EQ(batch.size(), corpus.size());
    for (std::size_t k = 0; k < batch.size(); ++k) {
      if (!batch[k].valid) continue;
      expect_matches_oracle(bed.prism(), batch[k], ws,
                            "threads=" + std::to_string(threads) + " round " +
                                std::to_string(k));
    }
  }
}

TEST(SolverAccelKernels, FactoredWarmWindowMatchesCanonical) {
  // Warm-start windows rank through the factored kernel too; the windowed
  // solve must land on the canonical window winner bit-for-bit.
  const Scene scene = make_scene_2d(71);
  const DeploymentGeometry geometry = exact_geometry(scene);
  const Vec3 truth{0.65, 1.4, 0.0};
  const auto lines =
      exact_lines(geometry, truth, planar_polarization(0.3), 2e-9, 1.1);
  const DisentangleConfig config;
  SolveWorkspace ws, oracle_ws;
  GridGeometryCache cache;
  const Vec3 hint{truth.x + 0.04, truth.y - 0.03, 0.0};

  const PositionSolve oracle =
      testutil::oracle_solve_position(geometry, lines, config, oracle_ws,
                                      &hint);
  const PositionSolve solve =
      solve_position(geometry, lines, config, ws, nullptr, &cache, &hint);
  EXPECT_EQ(oracle.path, SolvePath::kWarmStart);
  expect_same_solve(solve, oracle, "warm window");

  // A hint far off the optimum under an unpassable threshold: both scan
  // the window, refine, and fall back to the same cold solve.
  DisentangleConfig strict = config;
  strict.warm_start.max_rms = -1.0;
  const Vec3 far{1.6, 0.3, 0.0};
  const PositionSolve oracle_far = testutil::oracle_solve_position(
      geometry, lines, strict, oracle_ws, &far);
  EXPECT_EQ(oracle_far.path, SolvePath::kExhaustive);
  expect_same_solve(
      solve_position(geometry, lines, strict, ws, nullptr, &cache, &far),
      oracle_far, "fallback");
}

// ---------------------------------------------------------------------------
// Warm start
// ---------------------------------------------------------------------------

TEST(SolverAccelWarmStart, NearHintUsesWindowAndMatchesExhaustive) {
  const Scene scene = make_scene_2d(71);
  const DeploymentGeometry geometry = exact_geometry(scene);
  const Vec3 truth{0.65, 1.4, 0.0};
  const auto lines =
      exact_lines(geometry, truth, planar_polarization(0.3), 2e-9, 1.1);
  DisentangleConfig config;
  SolveWorkspace ws;
  GridGeometryCache cache;

  const PositionSolve cold =
      solve_position(geometry, lines, config, ws, nullptr, &cache);
  const Vec3 hint{truth.x + 0.04, truth.y - 0.03, 0.0};
  const PositionSolve warm =
      solve_position(geometry, lines, config, ws, nullptr, &cache, &hint);

  EXPECT_EQ(warm.path, SolvePath::kWarmStart);
  EXPECT_LT(warm.cells_scanned, cold.cells_scanned / 4);
  EXPECT_LE(distance(warm.position, cold.position), 1e-6);
  EXPECT_LE(distance(warm.position, truth), 1e-3);
}

TEST(SolverAccelWarmStart, HintOutsideRegionFallsBackByteIdentical) {
  const Scene scene = make_scene_2d(71);
  const DeploymentGeometry geometry = exact_geometry(scene);
  const auto lines = exact_lines(geometry, Vec3{1.1, 0.7, 0.0},
                                 planar_polarization(1.2), 0.0, 0.2);
  DisentangleConfig config;
  SolveWorkspace ws;
  GridGeometryCache cache;

  const PositionSolve cold =
      solve_position(geometry, lines, config, ws, nullptr, &cache);
  const Vec3 hint{10.0, -10.0, 0.0};
  const PositionSolve warm =
      solve_position(geometry, lines, config, ws, nullptr, &cache, &hint);

  EXPECT_EQ(warm.path, SolvePath::kExhaustive);
  EXPECT_EQ(warm.position.x, cold.position.x);
  EXPECT_EQ(warm.position.y, cold.position.y);
  EXPECT_EQ(warm.position.z, cold.position.z);
  EXPECT_EQ(warm.kt, cold.kt);
  EXPECT_EQ(warm.rms, cold.rms);
}

TEST(SolverAccelWarmStart, ImpossibleThresholdAlwaysFallsBack) {
  const Scene scene = make_scene_2d(71);
  const DeploymentGeometry geometry = exact_geometry(scene);
  const Vec3 truth{1.5, 0.5, 0.0};
  const auto lines =
      exact_lines(geometry, truth, planar_polarization(0.9), 1e-9, 0.0);
  DisentangleConfig config;
  // On exact lines the windowed refinement reaches rms == 0.0 exactly, so
  // only a negative threshold is truly unpassable.
  config.warm_start.max_rms = -1.0;
  SolveWorkspace ws;
  GridGeometryCache cache;

  const PositionSolve cold =
      solve_position(geometry, lines, config, ws, nullptr, &cache);
  const Vec3 hint = truth;  // even a perfect hint must fall back
  const PositionSolve warm =
      solve_position(geometry, lines, config, ws, nullptr, &cache, &hint);
  EXPECT_EQ(warm.path, SolvePath::kExhaustive);
  EXPECT_EQ(warm.position.x, cold.position.x);
  EXPECT_EQ(warm.rms, cold.rms);
}

TEST(SolverAccelWarmStart, SenseWarmMatchesColdWithinTolerance) {
  Testbed bed;
  const TagState state = bed.tag_state({0.9, 1.1}, 0.7, paper_materials()[0]);
  const RoundTrace round = bed.collect(state, 7000);
  const SensingResult cold = bed.prism().sense(round, bed.tag_id());
  ASSERT_TRUE(cold.valid);
  const SensingResult warm =
      bed.prism().sense_warm(round, bed.tag_id(), cold.position);
  ASSERT_TRUE(warm.valid);
  EXPECT_LE(distance(warm.position, cold.position), 2e-3);
}

TEST(SolverAccelWarmStart, StreamingWarmEngineMatchesNoEngine) {
  // Warm-started streaming must stay engine-vs-engineless deterministic:
  // both paths compute hints from identical tracks and funnel through the
  // same sense_with.
  Testbed bed;
  StreamingConfig scfg;
  scfg.min_channels_per_antenna = 8;
  scfg.enable_warm_start = true;
  SensingEngine engine(4);
  StreamingSensor with_engine(bed.prism(), scfg, &engine);
  StreamingSensor without_engine(bed.prism(), scfg);

  Vec2 p{0.6, 0.8};
  double t = 0.0;
  for (std::size_t round_idx = 0; round_idx < 5; ++round_idx) {
    const TagState state = bed.tag_state(p, 0.5, paper_materials()[1]);
    RoundTrace round = bed.collect(state, 8000 + round_idx);
    std::vector<TagRead> reads = round_to_reads(round, "tag-a");
    for (TagRead& read : reads) read.time_s += t;
    with_engine.push(reads);
    without_engine.push(reads);
    const auto a = with_engine.poll(t + 5.0);
    const auto b = without_engine.poll(t + 5.0);
    ASSERT_EQ(a.size(), b.size()) << "poll " << round_idx;
    for (std::size_t i = 0; i < a.size(); ++i) {
      EXPECT_EQ(a[i].tag_id, b[i].tag_id);
      expect_identical(a[i].result, b[i].result,
                       "poll " + std::to_string(round_idx));
    }
    p.x += 0.05;  // conveyor-style step advance between rounds
    t += 10.0;
  }
}

TEST(SolverAccelWarmStart, StreamingWarmTracksMovingTag) {
  // Accuracy guard: warm-started emissions stay close to the cold ones
  // while the tag steps across the region.
  Testbed bed;
  StreamingConfig cold_cfg;
  cold_cfg.min_channels_per_antenna = 8;
  StreamingConfig warm_cfg = cold_cfg;
  warm_cfg.enable_warm_start = true;
  StreamingSensor cold(bed.prism(), cold_cfg);
  StreamingSensor warm(bed.prism(), warm_cfg);

  Vec2 p{0.5, 1.3};
  double t = 0.0;
  std::size_t compared = 0;
  for (std::size_t round_idx = 0; round_idx < 6; ++round_idx) {
    const TagState state = bed.tag_state(p, 1.1, paper_materials()[2]);
    RoundTrace round = bed.collect(state, 8100 + round_idx);
    std::vector<TagRead> reads = round_to_reads(round, "tag-b");
    for (TagRead& read : reads) read.time_s += t;
    cold.push(reads);
    warm.push(reads);
    const auto a = cold.poll(t + 5.0);
    const auto b = warm.poll(t + 5.0);
    ASSERT_EQ(a.size(), b.size());
    for (std::size_t i = 0; i < a.size(); ++i) {
      if (!a[i].result.valid || !b[i].result.valid) continue;
      ++compared;
      EXPECT_LE(distance(a[i].result.position, b[i].result.position), 5e-3)
          << "round " << round_idx;
    }
    p.x += 0.06;
    t += 10.0;
  }
  EXPECT_GE(compared, 4u);
}

// ---------------------------------------------------------------------------
// Orientation early stop (satellite)
// ---------------------------------------------------------------------------

TEST(SolverAccelOrientation, EarlyStopAlphaMatchesDenseScan) {
  // The refinement's early stop against the test oracle's dense scan with
  // the fixed 40 golden-section iterations the solver used to offer as a
  // "legacy" mode: the answers agree far below physical accuracy.
  const Scene scene = make_scene_2d(71);
  const DeploymentGeometry geometry = exact_geometry(scene);
  const Vec3 truth{1.2, 1.1, 0.0};
  const DisentangleConfig config;  // default: tol = 1e-6 rad
  for (double alpha : {0.0, 0.4, 1.0, 1.5, 2.2, 2.9}) {
    const auto lines =
        exact_lines(geometry, truth, planar_polarization(alpha), 1e-9, 0.8);
    const OrientationSolve a =
        solve_orientation(geometry, lines, truth, config);
    const OrientationSolve b = testutil::oracle_solve_orientation(
        geometry, lines, truth, config, /*fixed_refine=*/true);
    ASSERT_LE(std::abs(planar_angle_error(a.alpha, b.alpha)), 2e-6)
        << "alpha=" << alpha;
    ASSERT_NEAR(rad2deg(planar_angle_error(a.alpha, alpha)), 0.0, 0.5);
  }
}

}  // namespace
}  // namespace rfp
