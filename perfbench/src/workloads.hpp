#pragma once

/// \file workloads.hpp
/// The benchmark's three workloads (README.md gives why each exists).
/// Each generates its input from the seed, sets the system under test up
/// several times, runs a closed loop for the requested seconds (and at
/// least one whole pass over its input), checks
/// every output against an in-process reference, and reports either the
/// end-to-end metrics (untraced) or the per-layer metrics (traced).

#include <map>
#include <span>
#include <string>
#include <vector>

#include "harness.hpp"
#include "rfp/core/engine.hpp"
#include "rfp/core/streaming.hpp"
#include "rfp/exp/testbed.hpp"
#include "rfp/net/client.hpp"
#include "rfp/net/server.hpp"

namespace perfbench {

Outcome run_serve_2d(const Options& options);
Outcome run_shelf_3d(const Options& options);
Outcome run_stream_track(const Options& options);

/// Fixed survey seed of the simulated site. The deployment is a physical
/// installation, so it stays the same across benchmark seeds; the seed
/// draws every read, fault and tag material.
inline constexpr std::uint64_t kSiteSeed = 42;

/// A loopback rfpd as the system under test: a pipeline over the site's
/// measured deployment, its engine, a 1-reactor server and one client
/// connection. Members are destroyed client first, so the server drains
/// cleanly. The server holds references to the pipeline and the engine,
/// so a Loopback never moves.
struct Loopback {
  Loopback(rfp::RfPrism p, std::size_t engine_threads)
      : prism(std::move(p)), engine(engine_threads) {}
  Loopback(const Loopback&) = delete;
  Loopback& operator=(const Loopback&) = delete;
  rfp::RfPrism prism;
  rfp::SensingEngine engine;
  std::unique_ptr<rfp::net::Server> server;
  std::unique_ptr<rfp::net::Client> client;
};

/// Start a Loopback over `bed`'s deployment with `config` (reactors forced
/// to 1) and connect to it. The client never retries: a transport fault
/// is a failure.
std::unique_ptr<Loopback> start_loopback(const rfp::Testbed& bed,
                                         std::size_t engine_threads,
                                         rfp::net::ServerConfig config);

/// RMSE [cm] of the accepted track positions of static tags re-read once
/// per scan cycle, as a downstream consumer would smooth them with
/// rfp::track: `emissions[c]` holds cycle c's results, `truth` maps each
/// tag id to its true position, and fixes of the first `warmup` cycles
/// are skipped while the filters settle.
double static_tracked_rmse_cm(
    const std::vector<std::vector<rfp::StreamedResult>>& emissions,
    const std::map<std::string, rfp::Vec2>& truth, std::size_t warmup,
    double cycle_period_s);

}  // namespace perfbench
