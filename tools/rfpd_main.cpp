/// rfpd — the RF-Prism sensing daemon.
///
/// Serves the rfp::net wire protocol: clients send hop rounds
/// (kSenseRequest frames), rfpd solves them on a SensingEngine thread
/// pool and answers with SensingResult frames, in per-connection request
/// order. The deployment (geometry + calibration) is the standard
/// simulated testbed keyed by --seed, so any client built against the
/// same seed agrees on what the antennas look like.
///
///   rfpd [--port N] [--bind ADDR] [--threads N] [--reactors N]
///        [--seed S] [--antennas N] [--multipath] [--idle-timeout SEC]
///        [--max-conns N] [--max-pending N] [--max-tenants N]
///        [--pool-buffers N]
///        [--geometry FILE] [--calibration FILE]
///        [--drift] [--track]
///
/// --port 0 binds an ephemeral port; the actual port is printed on the
/// "listening on" line (scripts parse it there). --reactors runs N
/// SO_REUSEPORT poll loops; --geometry/--calibration serve a surveyed
/// deployment from files instead of the seed-keyed testbed (wire-v2
/// sessions can still ship their own, bounded by --max-tenants).
/// SIGINT/SIGTERM trigger a graceful shutdown: the listeners close,
/// in-flight solves drain, and every accepted request still receives its
/// response.

#include <cstdio>
#include <exception>
#include <stdexcept>

#include "rfpd_common.hpp"

namespace {

int usage() {
  std::fprintf(stderr,
               "usage: rfpd [--port N] [--bind ADDR] [--threads N]\n"
               "            [--reactors N] [--seed S] [--antennas N]\n"
               "            [--multipath] [--idle-timeout SEC]\n"
               "            [--max-conns N] [--max-pending N]\n"
               "            [--max-tenants N] [--pool-buffers N]\n"
               "            [--geometry FILE]\n"
               "            [--calibration FILE] [--drift] [--track]\n");
  return 2;
}

}  // namespace

int main(int argc, char** argv) {
  rfp::tools::DaemonOptions options;
  try {
    if (!rfp::tools::parse_daemon_options(argc, argv, 1, options)) {
      return usage();
    }
  } catch (const std::invalid_argument&) {
    return usage();
  } catch (const std::out_of_range&) {
    std::fprintf(stderr, "option value out of range\n");
    return usage();
  }

  try {
    return rfp::tools::run_daemon("rfpd", options);
  } catch (const std::exception& e) {
    std::fprintf(stderr, "rfpd: fatal: %s\n", e.what());
    return 1;
  }
}
