#pragma once

/// \file harness.hpp
/// Measurement machinery shared by the benchmark's workloads: clocks,
/// the process-wide allocation and heap counters, the CPU probe, percentile
/// helpers, the result record, and the accuracy tally every workload
/// computes over its verified outputs.

#include <chrono>
#include <condition_variable>
#include <cstdint>
#include <memory>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

#include "rfp/core/types.hpp"
#include "rfp/rfsim/scene.hpp"

namespace perfbench {

using Clock = std::chrono::steady_clock;

inline double ms_between(Clock::time_point a, Clock::time_point b) {
  return std::chrono::duration<double, std::milli>(b - a).count();
}

inline Clock::time_point deadline_after(double seconds) {
  return Clock::now() + std::chrono::duration_cast<Clock::duration>(
                            std::chrono::duration<double>(seconds));
}

/// Heap allocations (global operator new calls) made by every thread of
/// the process since start, and by the calling thread alone.
std::uint64_t allocs_total();
std::uint64_t allocs_this_thread();

/// Process user + system CPU time [s].
double process_cpu_s();

/// Live heap bytes of the process (operator new, by malloc_usable_size).
std::int64_t heap_live_bytes();

/// High-water mark of the live heap above its level at construction. A
/// background thread samples the live heap every 10 ms until stop_mb(),
/// and the mark is the 99th percentile of the samples: whether one sample
/// happens to catch the rare instant with every request of a window in
/// flight then does not decide it. (Faster sampling preempts the workers
/// measurably once every core is busy.) The process RSS high-water mark
/// cannot serve here: input generation peaks above what the system under
/// test adds, and glibc hands the freed pages straight back to the next
/// allocations.
class HeapPeak {
 public:
  HeapPeak();
  ~HeapPeak();
  HeapPeak(const HeapPeak&) = delete;
  HeapPeak& operator=(const HeapPeak&) = delete;
  /// Stop sampling; the mark above the baseline [MiB].
  double stop_mb();

 private:
  std::vector<double> samples_;  // guarded by mutex_ while sampling
  std::int64_t baseline_ = 0;
  std::mutex mutex_;
  std::condition_variable wake_;
  bool stop_ = false;
  std::thread sampler_;
};

/// Linear-interpolated percentile (p in [0, 100]); 0 for an empty input.
double percentile(std::vector<double> values, double p);
inline double median(std::vector<double> values) {
  return percentile(std::move(values), 50.0);
}

struct Options {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  /// Self-test: perturb one reference output, so a correct run must fail.
  bool corrupt_reference = false;
  /// Where the traced run writes its spans (inside the checkout).
  std::string out_dir = ".bench_out";
};

struct Metric {
  std::string name;
  double value = 0.0;
  std::string unit;
};

/// Everything a workload reports.
struct Outcome {
  bool correct = true;
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  std::vector<Metric> metrics;
  /// Extra `key value` lines printed before the result (the context
  /// block, the traced run's overhead and counters).
  std::vector<std::pair<std::string, std::string>> notes;
  std::vector<std::string> mismatches;

  void add(std::string name, double value, std::string unit) {
    metrics.push_back({std::move(name), value, std::move(unit)});
  }
  void note(std::string key, std::string value) {
    notes.emplace_back(std::move(key), std::move(value));
  }
  /// Record a wrong output (the first few are kept for the report).
  void mismatch(const std::string& what);
};

/// Time `build` (which constructs and warms the system under test)
/// `times` times and keep the last instance; `seconds` receives every
/// construction time. Earlier instances are destroyed before the next is
/// built, so every build starts from the same state.
template <class T, class Build>
std::unique_ptr<T> timed_setups(int times, Build build,
                                std::vector<double>& seconds) {
  std::unique_ptr<T> sut;
  for (int i = 0; i < times; ++i) {
    sut.reset();
    const Clock::time_point t0 = Clock::now();
    sut = build();
    seconds.push_back(ms_between(t0, Clock::now()) / 1e3);
  }
  return sut;
}

/// Closed-loop sample collector for the timed phase.
class TimedPhase {
 public:
  TimedPhase();
  /// Ends the phase (freezes elapsed time, CPU and allocations).
  void stop();
  std::vector<double> latency_ms;
  std::uint64_t rounds = 0;
  double elapsed_s() const { return elapsed_s_; }
  double cpu_s() const { return cpu_s_; }
  std::uint64_t allocs() const { return allocs_; }
  /// Kernel-side counts over the phase: system CPU [s], minor page faults,
  /// voluntary and involuntary context switches.
  double sys_s() const { return sys_s_; }
  long minor_faults() const { return minflt_; }
  long voluntary_switches() const { return nvcsw_; }
  long involuntary_switches() const { return nivcsw_; }

 private:
  Clock::time_point t0_;
  double cpu0_ = 0.0;
  double sys0_ = 0.0;
  long minflt0_ = 0, nvcsw0_ = 0, nivcsw0_ = 0;
  std::uint64_t allocs0_ = 0;
  double elapsed_s_ = 0.0;
  double cpu_s_ = 0.0;
  double sys_s_ = 0.0;
  long minflt_ = 0, nvcsw_ = 0, nivcsw_ = 0;
  std::uint64_t allocs_ = 0;
};

/// Accuracy over verified outputs against the simulator's ground truth.
struct Accuracy {
  std::vector<double> loc_cm;
  std::vector<double> orient_deg;
  std::size_t total = 0;
  std::size_t valid = 0;
  double tracked_rmse_cm = 0.0;

  /// Localization error is planar unless `use_z` (3-D deployments).
  void add(const rfp::SensingResult& result, const rfp::TagState& truth,
           bool use_z);
};

/// Append the end-to-end metric set, in BENCHMARK.json order.
void add_end_to_end(Outcome& out, const std::vector<double>& setup_s,
                    const TimedPhase& phase,
                    double tail_percentile, double rss_mb,
                    const Accuracy& accuracy);

}  // namespace perfbench
