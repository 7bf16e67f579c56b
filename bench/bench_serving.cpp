/// Serving-layer throughput: connection x tenant x reactor sweeps over a
/// loopback rfp::net::Server.
///
/// Three workloads, one JSON stream (BENCH_serving.json in CI):
///
///   solve — N concurrent client connections pipeline `depth` sense
///   requests per window against a 2-reactor server; with tenants > 1
///   each connection opens a wire-v2 session shipping its own surveyed
///   geometry + calibration, so the sweep exercises the deployment
///   registry on the hot path. Every response is checked byte-for-byte
///   against the locally grafted single-tenant pipeline, so a
///   wire-determinism regression fails the bench before it skews a
///   number.
///
///   wire — 8 connections blast batched ping frames at servers running
///   1, 2, and 4 reactors. Pings are answered inline on the reactor
///   thread (no engine hand-off), so this isolates front-end scaling:
///   CI gates 4-reactor throughput >= 2x single-reactor on this
///   workload (skipped on < 4 cores, where wall-clock parallelism is
///   meaningless — the `cores` field records the machine).
///
///   datapath — in-process request→response cycles over the real wire
///   components (FrameDecoder views, pooled response encodes, Outbox,
///   writev to /dev/null), pooled vs the pre-pool legacy shape (Frame
///   copies, fresh encode vectors, flattening write buffer), across a
///   payload-size axis: ~64 B sense requests and multi-KB kStreamPush
///   bursts. A global operator new/delete interposer counts heap
///   allocations inside the measured loop; CI gates allocs_per_request
///   == 0 on the pooled sense path and >= 1.3x pooled-vs-legacy on the
///   32 KB streaming sweep (both skip, never fail, where they can't
///   bind — sanitized builds own operator new, and a runner whose writev
///   syscall dominates the cycle has no headroom for the data path to
///   show).
///
/// Cells report sustained requests/sec plus p50/p99 window latency; the
/// solve sweep's rate is the median of three interleaved measurements,
/// each serving the same number of requests at every depth.

#include <fcntl.h>
#include <sys/uio.h>
#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <memory>
#include <new>
#include <string>
#include <thread>
#include <vector>

#include "rfp/common/buffer_pool.hpp"
#include "rfp/common/socket.hpp"
#include "rfp/core/engine.hpp"
#include "rfp/net/client.hpp"
#include "rfp/net/outbox.hpp"
#include "rfp/net/server.hpp"
#include "support/bench_util.hpp"

// ---- Allocation-counting interposer -------------------------------------
// Replacing the global allocation functions is how the zero-alloc claim
// gets *measured* instead of asserted: the thread running the datapath
// loop flips t_counting on and every heap allocation anywhere under it is
// tallied. Sanitizer builds own operator new/delete, so the interposer
// compiles out there and the JSON rows carry alloc_counting=false (CI
// skips the gate).
#if defined(__SANITIZE_ADDRESS__) || defined(__SANITIZE_THREAD__) || \
    defined(RFP_SANITIZE_BUILD)
#define RFP_BENCH_COUNT_ALLOCS 0
#else
#define RFP_BENCH_COUNT_ALLOCS 1
#endif

#if RFP_BENCH_COUNT_ALLOCS
namespace rfp_bench_alloc {
std::atomic<std::uint64_t> g_allocs{0};
thread_local bool t_counting = false;

inline void* checked_malloc(std::size_t n) {
  if (t_counting) g_allocs.fetch_add(1, std::memory_order_relaxed);
  void* p = std::malloc(n == 0 ? 1 : n);
  if (p == nullptr) throw std::bad_alloc();
  return p;
}
}  // namespace rfp_bench_alloc

void* operator new(std::size_t n) { return rfp_bench_alloc::checked_malloc(n); }
void* operator new[](std::size_t n) {
  return rfp_bench_alloc::checked_malloc(n);
}
void operator delete(void* p) noexcept { std::free(p); }
void operator delete[](void* p) noexcept { std::free(p); }
void operator delete(void* p, std::size_t) noexcept { std::free(p); }
void operator delete[](void* p, std::size_t) noexcept { std::free(p); }
#endif  // RFP_BENCH_COUNT_ALLOCS

namespace {

using namespace rfp;
using namespace rfp::bench;

using Clock = std::chrono::steady_clock;

double seconds_since(Clock::time_point t0) {
  return std::chrono::duration<double>(Clock::now() - t0).count();
}

struct Cell {
  const char* mode = "solve";
  std::size_t reactors = 0;
  std::size_t tenants = 0;
  std::size_t clients = 0;
  std::size_t depth = 0;
  double requests_per_s = 0.0;
  double p50_ms = 0.0;
  double p99_ms = 0.0;
};

struct ClientOutcome {
  std::vector<double> window_ms;
  std::size_t completed = 0;
  std::string error;  // empty on success
};

/// One deployment a client can ship over the wire: its testbed, a hop
/// corpus, and the expected response bytes from the grafted direct path
/// (server solver settings + this deployment's geometry/calibration —
/// exactly what the registry builds for a session tenant).
struct Deployment {
  std::unique_ptr<Testbed> bed;
  std::vector<RoundTrace> corpus;
  std::vector<std::vector<std::uint8_t>> expected;
};

Deployment make_deployment(const RfPrism* server_prism, std::uint64_t seed,
                           std::size_t corpus_size) {
  Deployment dep;
  TestbedConfig config;
  config.seed = seed;
  dep.bed = std::make_unique<Testbed>(config);

  const auto materials = paper_materials();
  Rng rng(mix_seed(seed, 0x5E59));
  dep.corpus.reserve(corpus_size);
  for (std::size_t k = 0; k < corpus_size; ++k) {
    const Vec2 p{0.3 + 1.4 * rng.uniform(), 0.3 + 1.4 * rng.uniform()};
    const TagState state = dep.bed->tag_state(p, rng.uniform(0.0, kPi),
                                              materials[k % materials.size()]);
    dep.corpus.push_back(dep.bed->collect(state, 11000 + k));
  }

  dep.expected.reserve(dep.corpus.size());
  if (server_prism == nullptr) {  // the server's own (default) deployment
    for (const RoundTrace& round : dep.corpus) {
      dep.expected.push_back(net::encode_sense_response(
          dep.bed->prism().sense(round, dep.bed->tag_id())));
    }
  } else {
    // Mirror the registry graft: server solver settings, this
    // deployment's geometry and calibration database.
    RfPrismConfig grafted = server_prism->config();
    grafted.geometry = dep.bed->prism().config().geometry;
    RfPrism prism(std::move(grafted));
    prism.import_calibrations(dep.bed->prism().calibrations());
    for (const RoundTrace& round : dep.corpus) {
      dep.expected.push_back(
          net::encode_sense_response(prism.sense(round, dep.bed->tag_id())));
    }
  }
  return dep;
}

// ---- datapath: in-process zero-copy cycle vs the legacy shape -----------

inline void alloc_counting(bool on) {
#if RFP_BENCH_COUNT_ALLOCS
  rfp_bench_alloc::t_counting = on;
#else
  (void)on;
#endif
}

inline std::uint64_t alloc_count() {
#if RFP_BENCH_COUNT_ALLOCS
  return rfp_bench_alloc::g_allocs.load(std::memory_order_relaxed);
#else
  return 0;
#endif
}

struct DatapathCell {
  const char* path = "pooled";  // "pooled" | "legacy"
  const char* workload = "sense";
  std::size_t payload_bytes = 0;  ///< request payload size on the wire
  double requests_per_s = 0.0;
  double allocs_per_request = 0.0;
  double bytes_copied_per_request = 0.0;
  bool writev_headroom = true;
};

struct DatapathWorkload {
  const char* name = "sense";
  bool is_sense = true;
  std::vector<std::uint8_t> request;  ///< one complete encoded frame
  std::size_t payload_bytes = 0;
  std::size_t iters = 0;
  SensingResult sense_result;                 // is_sense
  std::vector<StreamedResult> stream_results;  // !is_sense
};

DatapathWorkload make_sense_workload(std::size_t iters) {
  DatapathWorkload wl;
  wl.name = "sense";
  wl.is_sense = true;
  wl.iters = iters;
  // The smallest meaningful request: one dwell, two phase samples.
  RoundTrace round;
  round.n_antennas = 1;
  round.duration_s = 0.25;
  round.dwells.resize(1);
  round.dwells[0].antenna = 0;
  round.dwells[0].channel = 3;
  round.dwells[0].frequency_hz = 920.625e6;
  round.dwells[0].start_time_s = 0.0;
  round.dwells[0].phases = {1.25, 1.27};
  round.dwells[0].rssi_dbm = {-55.0, -55.5};
  const auto payload = net::encode_sense_request("t0", round);
  wl.payload_bytes = payload.size();
  wl.request = net::encode_frame(net::FrameType::kSenseRequest, 1, payload);
  wl.sense_result.valid = true;
  wl.sense_result.grade = SensingGrade::kFull;
  wl.sense_result.position = {1.2, 0.8, 0.0};
  wl.sense_result.alpha = 0.7;
  return wl;
}

DatapathWorkload make_stream_workload(const char* name, std::size_t n_reads,
                                      std::size_t iters) {
  DatapathWorkload wl;
  wl.name = name;
  wl.is_sense = false;
  wl.iters = iters;
  std::vector<TagRead> reads(n_reads);
  for (std::size_t i = 0; i < n_reads; ++i) {
    TagRead& read = reads[i];
    read.tag_id = "t";
    read.tag_id += static_cast<char>('0' + i % 8);
    read.antenna = i % 4;
    read.channel = i % 16;
    read.frequency_hz = 920.625e6 + 0.5e6 * static_cast<double>(i % 16);
    read.time_s = 0.01 * static_cast<double>(i);
    read.phase = 1.0 + 0.001 * static_cast<double>(i);
    read.rssi_dbm = -50.0 - static_cast<double>(i % 10);
  }
  const auto payload = net::encode_stream_push(1.0, reads);
  wl.payload_bytes = payload.size();
  wl.request = net::encode_frame(net::FrameType::kStreamPush, 1, payload);
  // A burst push releases completed rounds: one emission per 8 reads, so
  // the response scales with the request and the outbound side carries
  // real weight too.
  wl.stream_results.resize(std::max<std::size_t>(1, n_reads / 8));
  for (std::size_t i = 0; i < wl.stream_results.size(); ++i) {
    StreamedResult& r = wl.stream_results[i];
    r.tag_id = "t";
    r.tag_id += static_cast<char>('0' + i % 8);
    r.completed_at_s = 1.0;
    r.result.valid = true;
    r.result.grade = SensingGrade::kFull;
    r.result.position = {1.0 + 0.01 * static_cast<double>(i), 0.5, 0.0};
    r.result.alpha = 0.3;
  }
  return wl;
}

/// One request→response cycle over the zero-copy components: FrameView
/// decode in place, reused decode scratch, response encoded straight into
/// a pooled buffer, Outbox splice, writev drain. Returns the cell.
DatapathCell run_datapath_pooled(const DatapathWorkload& wl, int devnull) {
  BufferPool pool;
  net::OutboxCounters counters;
  net::Outbox outbox(&counters);
  net::FrameDecoder decoder;
  std::string tag_scratch;
  RoundTrace round_scratch;
  double now_scratch = 0.0;
  std::vector<TagRead> reads_scratch;

  const auto one = [&] {
    decoder.feed(wl.request);
    net::FrameView view;
    if (decoder.next(view) != net::DecodeStatus::kFrame) {
      std::fprintf(stderr, "FAIL: datapath decode\n");
      std::exit(1);
    }
    PooledBuffer buf = pool.acquire();
    ByteWriter w(buf.storage());
    if (wl.is_sense) {
      if (!net::decode_sense_request(view.payload, tag_scratch,
                                     round_scratch)) {
        std::fprintf(stderr, "FAIL: sense payload decode\n");
        std::exit(1);
      }
      const std::size_t f =
          net::begin_frame(w, net::FrameType::kSenseResponse, view.seq);
      net::encode_sense_response_into(w, wl.sense_result);
      net::end_frame(w, f);
    } else {
      if (!net::decode_stream_push(view.payload, now_scratch,
                                   reads_scratch)) {
        std::fprintf(stderr, "FAIL: stream payload decode\n");
        std::exit(1);
      }
      const std::size_t f =
          net::begin_frame(w, net::FrameType::kStreamResults, view.seq);
      net::encode_stream_results_into(w, wl.stream_results);
      net::end_frame(w, f);
    }
    outbox.push(std::move(buf));
    struct iovec iov[16];
    while (!outbox.empty()) {
      const std::size_t n = outbox.fill_iovec(iov, 16);
      const IoResult r = writev_some(devnull, iov, static_cast<int>(n));
      if (r.status != IoStatus::kOk) {
        std::fprintf(stderr, "FAIL: writev to /dev/null\n");
        std::exit(1);
      }
      outbox.consume(r.bytes);
    }
  };

  const std::size_t warmup = wl.iters / 10 + 50;
  for (std::size_t i = 0; i < warmup; ++i) one();

  const std::uint64_t allocs0 = alloc_count();
  alloc_counting(true);
  const auto t0 = Clock::now();
  for (std::size_t i = 0; i < wl.iters; ++i) one();
  const double elapsed = seconds_since(t0);
  alloc_counting(false);
  const std::uint64_t allocs = alloc_count() - allocs0;

  DatapathCell cell;
  cell.path = "pooled";
  cell.workload = wl.name;
  cell.payload_bytes = wl.payload_bytes;
  cell.requests_per_s =
      elapsed > 0.0 ? static_cast<double>(wl.iters) / elapsed : 0.0;
  cell.allocs_per_request =
      static_cast<double>(allocs) / static_cast<double>(wl.iters);
  // The one copy per direction the design allows: feed() into decoder
  // storage inbound; outbound is spliced, not copied.
  cell.bytes_copied_per_request = static_cast<double>(wl.request.size());
  return cell;
}

/// The pre-pool shape of the same cycle, mirroring the old reactor: the
/// payload is copied out via next(Frame&), decoded into fresh locals, the
/// response encoded into a fresh payload vector, framed into a second
/// fresh vector (encode_frame), flattened into the persistent per-
/// connection write buffer (the old emit_ready insert), and written with
/// plain write().
DatapathCell run_datapath_legacy(const DatapathWorkload& wl, int devnull) {
  net::FrameDecoder decoder;
  std::vector<std::uint8_t> out;  // the old per-connection flat buffer
  double response_frame_bytes = 0.0;

  const auto one = [&] {
    decoder.feed(wl.request);
    net::Frame frame;  // fresh payload vector per frame, as the old loop
    if (decoder.next(frame) != net::DecodeStatus::kFrame) {
      std::fprintf(stderr, "FAIL: datapath decode\n");
      std::exit(1);
    }
    std::vector<std::uint8_t> framed;
    if (wl.is_sense) {
      std::string tag;
      RoundTrace round;
      if (!net::decode_sense_request(frame.payload, tag, round)) {
        std::fprintf(stderr, "FAIL: sense payload decode\n");
        std::exit(1);
      }
      framed = net::encode_frame(net::FrameType::kSenseResponse, frame.seq,
                                 net::encode_sense_response(wl.sense_result));
    } else {
      double now = 0.0;
      std::vector<TagRead> reads;
      if (!net::decode_stream_push(frame.payload, now, reads)) {
        std::fprintf(stderr, "FAIL: stream payload decode\n");
        std::exit(1);
      }
      framed = net::encode_frame(net::FrameType::kStreamResults, frame.seq,
                                 net::encode_stream_results(wl.stream_results));
    }
    out.insert(out.end(), framed.begin(), framed.end());
    response_frame_bytes = static_cast<double>(out.size());
    std::size_t pos = 0;
    while (pos < out.size()) {
      const ssize_t n = ::write(devnull, out.data() + pos, out.size() - pos);
      if (n <= 0) {
        std::fprintf(stderr, "FAIL: write to /dev/null\n");
        std::exit(1);
      }
      pos += static_cast<std::size_t>(n);
    }
    out.clear();
  };

  const std::size_t warmup = wl.iters / 10 + 50;
  for (std::size_t i = 0; i < warmup; ++i) one();

  const std::uint64_t allocs0 = alloc_count();
  alloc_counting(true);
  const auto t0 = Clock::now();
  for (std::size_t i = 0; i < wl.iters; ++i) one();
  const double elapsed = seconds_since(t0);
  alloc_counting(false);
  const std::uint64_t allocs = alloc_count() - allocs0;

  DatapathCell cell;
  cell.path = "legacy";
  cell.workload = wl.name;
  cell.payload_bytes = wl.payload_bytes;
  cell.requests_per_s =
      elapsed > 0.0 ? static_cast<double>(wl.iters) / elapsed : 0.0;
  cell.allocs_per_request =
      static_cast<double>(allocs) / static_cast<double>(wl.iters);
  // feed copy in + Frame payload copy + payload copied into the frame +
  // frame flattened into the write buffer.
  cell.bytes_copied_per_request =
      static_cast<double>(wl.request.size()) +
      static_cast<double>(wl.payload_bytes) + 2.0 * response_frame_bytes;
  return cell;
}

/// Raw drain throughput of a pre-encoded response via writev: how fast
/// the syscall alone would go. If the full pooled path is already within
/// ~3x of this, the syscall dominates the cycle and the pooled-vs-legacy
/// gate has no headroom to bind — the JSON row says so and CI skips.
double probe_writev_only(const DatapathWorkload& wl, int devnull,
                         std::size_t iters) {
  std::vector<std::uint8_t> response;
  {
    ByteWriter w(response);
    const std::size_t f =
        net::begin_frame(w, net::FrameType::kStreamResults, 1);
    net::encode_stream_results_into(w, wl.stream_results);
    net::end_frame(w, f);
  }
  struct iovec iov;
  const auto t0 = Clock::now();
  for (std::size_t i = 0; i < iters; ++i) {
    iov.iov_base = response.data();
    iov.iov_len = response.size();
    const IoResult r = writev_some(devnull, &iov, 1);
    if (r.status != IoStatus::kOk || r.bytes != response.size()) {
      std::fprintf(stderr, "FAIL: writev probe\n");
      std::exit(1);
    }
  }
  const double elapsed = seconds_since(t0);
  return elapsed > 0.0 ? static_cast<double>(iters) / elapsed : 0.0;
}

}  // namespace

int main(int argc, char** argv) {
  // --quick: fewer cells and windows (CI smoke).
  bool quick = false;
  for (int i = 1; i < argc; ++i) {
    if (std::string(argv[i]) == "--quick") quick = true;
  }

  print_header("Serving throughput",
               "rfpd loopback requests/sec: connections x tenants x reactors");

  const std::size_t cores = std::thread::hardware_concurrency();
  const std::size_t corpus_size = quick ? 8 : 32;

  // Deployment 0 is the server's own (sessions not needed); 1..N are
  // distinct surveyed sites shipped over wire-v2 session setup.
  std::vector<Deployment> deployments;
  deployments.push_back(make_deployment(nullptr, 42, corpus_size));
  const RfPrism& server_prism = deployments[0].bed->prism();
  deployments.push_back(make_deployment(&server_prism, 7, corpus_size));
  deployments.push_back(make_deployment(&server_prism, 9, corpus_size));

  std::vector<Cell> cells;

  // ---- solve sweep: connections x tenants, byte-verified ----------------
  {
    SensingEngine engine(0);  // hardware thread count
    net::ServerConfig server_config;
    server_config.reactors = 2;
    net::Server server(server_prism, engine, server_config);
    server.start();
    std::printf("  solve: server on 127.0.0.1:%u, %zu engine thread(s), "
                "2 reactors, corpus %zu rounds/tenant\n\n",
                static_cast<unsigned>(server.port()), engine.n_threads(),
                corpus_size);

    const std::vector<std::size_t> tenant_counts =
        quick ? std::vector<std::size_t>{1, 2}
              : std::vector<std::size_t>{1, 3};
    const std::vector<std::size_t> client_counts =
        quick ? std::vector<std::size_t>{1, 2}
              : std::vector<std::size_t>{1, 4, 8};
    const std::vector<std::size_t> depths =
        quick ? std::vector<std::size_t>{4}
              : std::vector<std::size_t>{1, 8};
    // Windows per client at the deepest pipeline; shallower depths run
    // proportionally more windows so every cell serves the same number
    // of requests (a depth-1 cell would otherwise time only ~30 ms of
    // work, too little to compare against depth 8 on a shared runner).
    const std::size_t windows = quick ? 3 : 10;
    // Each cell is measured this many times, the depths interleaved, and
    // reports its median rate: at 8 clients both depths saturate a
    // 4-core runner and single runs scatter by ~10%.
    const std::size_t rounds = quick ? 1 : 3;

    // One measurement of a (tenants, clients, depth) cell: appends the
    // window latencies, returns requests/s (or -1 after printing a FAIL).
    const auto measure = [&](std::size_t n_tenants, std::size_t n_clients,
                             std::size_t depth,
                             std::vector<double>& window_ms) -> double {
      std::vector<ClientOutcome> outcomes(n_clients);
      const auto t0 = Clock::now();
      std::vector<std::thread> threads;
      for (std::size_t c = 0; c < n_clients; ++c) {
        threads.emplace_back([&, c] {
          ClientOutcome& out = outcomes[c];
          const Deployment& dep = deployments[c % n_tenants];
          try {
            net::ClientConfig config;
            config.port = server.port();
            config.io_timeout_s = 120.0;
            net::Client client(config);
            if (c % n_tenants != 0) {
              client.setup_session(dep.bed->prism().config().geometry,
                                   dep.bed->prism().calibrations(),
                                   /*enable_drift=*/false);
            }
            std::size_t cursor = c;  // offset clients across the corpus
            const std::size_t cell_windows = windows * depths.back() / depth;
            for (std::size_t w = 0; w < cell_windows; ++w) {
              const auto w0 = Clock::now();
              std::vector<std::size_t> sent;
              for (std::size_t d = 0; d < depth; ++d) {
                const std::size_t k = cursor++ % dep.corpus.size();
                client.send_sense(dep.corpus[k], dep.bed->tag_id());
                sent.push_back(k);
              }
              for (std::size_t k : sent) {
                const net::Frame frame = client.read_frame();
                if (frame.type != net::FrameType::kSenseResponse ||
                    frame.payload != dep.expected[k]) {
                  out.error =
                      "response mismatch for round " + std::to_string(k);
                  return;
                }
                ++out.completed;
              }
              out.window_ms.push_back(1e3 * seconds_since(w0));
            }
          } catch (const std::exception& e) {
            out.error = e.what();
          }
        });
      }
      for (std::thread& t : threads) t.join();
      const double elapsed = seconds_since(t0);

      std::size_t completed = 0;
      for (const ClientOutcome& out : outcomes) {
        if (!out.error.empty()) {
          std::fprintf(stderr, "FAIL: %s\n", out.error.c_str());
          return -1.0;
        }
        window_ms.insert(window_ms.end(), out.window_ms.begin(),
                         out.window_ms.end());
        completed += out.completed;
      }
      return elapsed > 0.0 ? static_cast<double>(completed) / elapsed : 0.0;
    };

    std::printf("  %-8s %-8s %-8s %-14s %-10s %s\n", "tenants", "clients",
                "depth", "req/s", "p50[ms]", "p99[ms]");
    for (std::size_t n_tenants : tenant_counts) {
      for (std::size_t n_clients : client_counts) {
        std::vector<std::vector<double>> rates(depths.size());
        std::vector<std::vector<double>> window_ms(depths.size());
        for (std::size_t round = 0; round < rounds; ++round) {
          for (std::size_t d = 0; d < depths.size(); ++d) {
            const double rate =
                measure(n_tenants, n_clients, depths[d], window_ms[d]);
            if (rate < 0.0) return 1;
            rates[d].push_back(rate);
          }
        }
        for (std::size_t d = 0; d < depths.size(); ++d) {
          Cell cell;
          cell.mode = "solve";
          cell.reactors = 2;
          cell.tenants = n_tenants;
          cell.clients = n_clients;
          cell.depth = depths[d];
          cell.requests_per_s = percentile(rates[d], 50.0);
          cell.p50_ms = percentile(window_ms[d], 50.0);
          cell.p99_ms = percentile(window_ms[d], 99.0);
          cells.push_back(cell);
          std::printf("  %-8zu %-8zu %-8zu %-14.1f %-10.2f %.2f\n",
                      cell.tenants, cell.clients, cell.depth,
                      cell.requests_per_s, cell.p50_ms, cell.p99_ms);
        }
      }
    }

    server.stop();
    const net::ServerStats stats = server.stats();
    std::printf("\n  solve server: %llu requests completed, %llu failed, "
                "%llu backpressure pauses, %llu tenants resident\n\n",
                static_cast<unsigned long long>(stats.requests_completed),
                static_cast<unsigned long long>(stats.requests_failed),
                static_cast<unsigned long long>(stats.backpressure_pauses),
                static_cast<unsigned long long>(stats.tenants_resident));
    if (stats.requests_failed != 0) {
      std::fprintf(stderr, "FAIL: server reported failed requests\n");
      return 1;
    }
  }

  // ---- wire sweep: reactor scaling on inline-answered frames ------------
  {
    const std::size_t connections = quick ? 4 : 8;
    const std::size_t depth = 64;
    const std::size_t windows = quick ? 8 : 30;
    const std::vector<std::size_t> reactor_counts{1, 2, 4};

    std::printf("  wire: %zu connections, %zu pings/window, %zu windows, "
                "%zu core(s)\n\n",
                connections, depth, windows, cores);
    std::printf("  %-10s %-14s %-10s %s\n", "reactors", "req/s", "p50[ms]",
                "p99[ms]");
    for (std::size_t n_reactors : reactor_counts) {
      SensingEngine engine(1);  // pings never reach the engine
      net::ServerConfig server_config;
      server_config.reactors = n_reactors;
      server_config.max_pending_per_connection = depth * 2;
      net::Server server(server_prism, engine, server_config);
      server.start();

      std::vector<ClientOutcome> outcomes(connections);
      const auto t0 = Clock::now();
      std::vector<std::thread> threads;
      for (std::size_t c = 0; c < connections; ++c) {
        threads.emplace_back([&, c] {
          ClientOutcome& out = outcomes[c];
          try {
            net::ClientConfig config;
            config.port = server.port();
            config.io_timeout_s = 120.0;
            net::Client client(config);
            // One pre-encoded batch per window: a single write syscall
            // ships `depth` pings, keeping the client side cheap so the
            // reactor threads are the measured bottleneck.
            std::vector<std::uint8_t> batch;
            for (std::size_t d = 0; d < depth; ++d) {
              const auto frame = net::encode_frame(
                  net::FrameType::kPing, static_cast<std::uint32_t>(d), {});
              batch.insert(batch.end(), frame.begin(), frame.end());
            }
            for (std::size_t w = 0; w < windows; ++w) {
              const auto w0 = Clock::now();
              client.send_bytes(batch);
              for (std::size_t d = 0; d < depth; ++d) {
                const net::Frame frame = client.read_frame();
                if (frame.type != net::FrameType::kPong ||
                    frame.seq != static_cast<std::uint32_t>(d)) {
                  out.error = "pong mismatch at depth " + std::to_string(d);
                  return;
                }
                ++out.completed;
              }
              out.window_ms.push_back(1e3 * seconds_since(w0));
            }
          } catch (const std::exception& e) {
            out.error = e.what();
          }
        });
      }
      for (std::thread& t : threads) t.join();
      const double elapsed = seconds_since(t0);
      server.stop();

      std::vector<double> window_ms;
      std::size_t completed = 0;
      for (const ClientOutcome& out : outcomes) {
        if (!out.error.empty()) {
          std::fprintf(stderr, "FAIL: %s\n", out.error.c_str());
          return 1;
        }
        window_ms.insert(window_ms.end(), out.window_ms.begin(),
                         out.window_ms.end());
        completed += out.completed;
      }

      Cell cell;
      cell.mode = "wire";
      cell.reactors = n_reactors;
      cell.tenants = 1;
      cell.clients = connections;
      cell.depth = depth;
      cell.requests_per_s =
          elapsed > 0.0 ? static_cast<double>(completed) / elapsed : 0.0;
      cell.p50_ms = percentile(window_ms, 50.0);
      cell.p99_ms = percentile(window_ms, 99.0);
      cells.push_back(cell);
      std::printf("  %-10zu %-14.1f %-10.2f %.2f\n", cell.reactors,
                  cell.requests_per_s, cell.p50_ms, cell.p99_ms);
    }
  }

  // ---- datapath sweep: pooled vs legacy across payload sizes ------------
  std::vector<DatapathCell> datapath_cells;
  bool writev_headroom = false;
  {
    const int devnull = ::open("/dev/null", O_WRONLY);
    if (devnull < 0) {
      std::fprintf(stderr, "FAIL: open /dev/null\n");
      return 1;
    }

    std::vector<DatapathWorkload> workloads;
    workloads.push_back(make_sense_workload(quick ? 4000 : 40000));
    workloads.push_back(
        make_stream_workload("stream-2k", 40, quick ? 1000 : 10000));
    workloads.push_back(
        make_stream_workload("stream-32k", 640, quick ? 300 : 3000));

    std::printf("\n  datapath: pooled vs legacy cycles to /dev/null, "
                "alloc counting %s\n\n",
                RFP_BENCH_COUNT_ALLOCS ? "on" : "off (sanitized build)");
    std::printf("  %-12s %-8s %-12s %-14s %-12s %s\n", "workload", "path",
                "payload[B]", "req/s", "allocs/req", "copied[B/req]");
    for (const DatapathWorkload& wl : workloads) {
      const DatapathCell pooled = run_datapath_pooled(wl, devnull);
      const DatapathCell legacy = run_datapath_legacy(wl, devnull);
      for (const DatapathCell& cell : {pooled, legacy}) {
        std::printf("  %-12s %-8s %-12zu %-14.1f %-12.2f %.0f\n",
                    cell.workload, cell.path, cell.payload_bytes,
                    cell.requests_per_s, cell.allocs_per_request,
                    cell.bytes_copied_per_request);
        datapath_cells.push_back(cell);
      }
    }

    // Writev-headroom probe on the largest workload: if draining a
    // pre-encoded response alone isn't >= 3x the full pooled cycle, the
    // syscall dominates and the pooled-vs-legacy ratio can't bind.
    const DatapathWorkload& largest = workloads.back();
    const double probe_rps =
        probe_writev_only(largest, devnull, quick ? 2000 : 20000);
    double pooled_large_rps = 0.0;
    for (const DatapathCell& cell : datapath_cells) {
      if (std::strcmp(cell.workload, largest.name) == 0 &&
          std::strcmp(cell.path, "pooled") == 0) {
        pooled_large_rps = cell.requests_per_s;
      }
    }
    writev_headroom = probe_rps >= 3.0 * pooled_large_rps;
    for (DatapathCell& cell : datapath_cells) {
      cell.writev_headroom = writev_headroom;
    }
    std::printf("\n  datapath: writev-only probe %.1f req/s vs pooled "
                "%s %.1f req/s -> headroom %s\n",
                probe_rps, largest.name, pooled_large_rps,
                writev_headroom ? "yes" : "no");
    ::close(devnull);
  }

  std::printf("\n  JSON:\n[");
  for (std::size_t i = 0; i < cells.size(); ++i) {
    const Cell& cell = cells[i];
    std::printf(
        "%s\n  {\"mode\": \"%s\", \"reactors\": %zu, \"tenants\": %zu, "
        "\"clients\": %zu, \"depth\": %zu, \"cores\": %zu, "
        "\"requests_per_s\": %.1f, \"p50_ms\": %.3f, \"p99_ms\": %.3f}",
        i == 0 ? "" : ",", cell.mode, cell.reactors, cell.tenants,
        cell.clients, cell.depth, cores, cell.requests_per_s, cell.p50_ms,
        cell.p99_ms);
  }
  for (const DatapathCell& cell : datapath_cells) {
    std::printf(
        ",\n  {\"mode\": \"datapath\", \"path\": \"%s\", \"workload\": "
        "\"%s\", \"payload_bytes\": %zu, \"cores\": %zu, "
        "\"requests_per_s\": %.1f, \"allocs_per_request\": %.3f, "
        "\"bytes_copied_per_request\": %.0f, \"alloc_counting\": %s, "
        "\"writev_headroom\": %s}",
        cell.path, cell.workload, cell.payload_bytes, cores,
        cell.requests_per_s, cell.allocs_per_request,
        cell.bytes_copied_per_request,
        RFP_BENCH_COUNT_ALLOCS ? "true" : "false",
        cell.writev_headroom ? "true" : "false");
  }
  std::printf("\n]\n");
  return 0;
}
