#include "harness.hpp"

#include <malloc.h>
#include <sys/resource.h>

#include <algorithm>
#include <atomic>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <new>

#include "rfp/common/angles.hpp"
#include "rfp/geom/frame.hpp"

// ---- Allocation counter ---------------------------------------------------
// Replacing the global allocation functions counts every heap allocation
// and the live heap bytes of the process. Each thread updates its own
// cache line of a fixed slot table, so the engine's workers never contend
// on one counter (bytes freed by another thread than allocated them make
// single slots drift, but the sum stays exact); the thread-local tally
// serves the tracer's per-span counts.
namespace {

struct alignas(64) Slot {
  std::atomic<std::uint64_t> count{0};
  std::atomic<std::int64_t> live_bytes{0};
};
constexpr std::size_t kSlots = 64;
Slot g_slots[kSlots];
std::atomic<std::size_t> g_next_slot{0};
thread_local Slot* t_slot = nullptr;
thread_local std::uint64_t t_allocs = 0;

Slot& my_slot() {
  if (t_slot == nullptr) {
    t_slot = &g_slots[g_next_slot.fetch_add(1, std::memory_order_relaxed) %
                      kSlots];
  }
  return *t_slot;
}

void* counted_malloc(std::size_t n) {
  void* p = std::malloc(n == 0 ? 1 : n);
  if (p == nullptr) throw std::bad_alloc();
  Slot& slot = my_slot();
  slot.count.fetch_add(1, std::memory_order_relaxed);
  slot.live_bytes.fetch_add(static_cast<std::int64_t>(malloc_usable_size(p)),
                            std::memory_order_relaxed);
  ++t_allocs;
  return p;
}

void counted_free(void* p) noexcept {
  if (p == nullptr) return;
  my_slot().live_bytes.fetch_sub(
      static_cast<std::int64_t>(malloc_usable_size(p)),
      std::memory_order_relaxed);
  std::free(p);
}

}  // namespace

void* operator new(std::size_t n) { return counted_malloc(n); }
void* operator new[](std::size_t n) { return counted_malloc(n); }
void operator delete(void* p) noexcept { counted_free(p); }
void operator delete[](void* p) noexcept { counted_free(p); }
void operator delete(void* p, std::size_t) noexcept { counted_free(p); }
void operator delete[](void* p, std::size_t) noexcept { counted_free(p); }

namespace perfbench {

std::uint64_t allocs_total() {
  std::uint64_t sum = 0;
  for (const Slot& slot : g_slots) {
    sum += slot.count.load(std::memory_order_relaxed);
  }
  return sum;
}

std::uint64_t allocs_this_thread() { return t_allocs; }

namespace {
double seconds(const timeval& tv) {
  return static_cast<double>(tv.tv_sec) + 1e-6 * static_cast<double>(tv.tv_usec);
}
rusage usage_now() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  return usage;
}
}  // namespace

double process_cpu_s() {
  const rusage usage = usage_now();
  return seconds(usage.ru_utime) + seconds(usage.ru_stime);
}

std::int64_t heap_live_bytes() {
  std::int64_t sum = 0;
  for (const Slot& slot : g_slots) {
    sum += slot.live_bytes.load(std::memory_order_relaxed);
  }
  return sum;
}

HeapPeak::HeapPeak() {
  samples_.reserve(std::size_t{1} << 16);  // before the baseline is taken
  baseline_ = heap_live_bytes();
  sampler_ = std::thread([this] {
    std::unique_lock<std::mutex> lock(mutex_);
    while (!stop_) {
      if (samples_.size() < samples_.capacity()) {
        samples_.push_back(static_cast<double>(heap_live_bytes() - baseline_));
      }
      wake_.wait_for(lock, std::chrono::milliseconds(10));
    }
  });
}

HeapPeak::~HeapPeak() { (void)stop_mb(); }

double HeapPeak::stop_mb() {
  {
    std::lock_guard<std::mutex> lock(mutex_);
    stop_ = true;
  }
  wake_.notify_all();
  if (sampler_.joinable()) sampler_.join();
  return percentile(samples_, 99.0) / (1024.0 * 1024.0);
}

double percentile(std::vector<double> values, double p) {
  if (values.empty()) return 0.0;
  std::sort(values.begin(), values.end());
  const double rank = p / 100.0 * static_cast<double>(values.size() - 1);
  const std::size_t lo = static_cast<std::size_t>(std::floor(rank));
  const std::size_t hi = std::min(lo + 1, values.size() - 1);
  const double frac = rank - static_cast<double>(lo);
  return values[lo] + frac * (values[hi] - values[lo]);
}

void Outcome::mismatch(const std::string& what) {
  correct = false;
  if (mismatches.size() < 8) mismatches.push_back(what);
}

TimedPhase::TimedPhase() {
  const rusage usage = usage_now();
  cpu0_ = seconds(usage.ru_utime) + seconds(usage.ru_stime);
  sys0_ = seconds(usage.ru_stime);
  minflt0_ = usage.ru_minflt;
  nvcsw0_ = usage.ru_nvcsw;
  nivcsw0_ = usage.ru_nivcsw;
  allocs0_ = allocs_total();
  t0_ = Clock::now();
}

void TimedPhase::stop() {
  elapsed_s_ = ms_between(t0_, Clock::now()) / 1e3;
  allocs_ = allocs_total() - allocs0_;
  const rusage usage = usage_now();
  cpu_s_ = seconds(usage.ru_utime) + seconds(usage.ru_stime) - cpu0_;
  sys_s_ = seconds(usage.ru_stime) - sys0_;
  minflt_ = usage.ru_minflt - minflt0_;
  nvcsw_ = usage.ru_nvcsw - nvcsw0_;
  nivcsw_ = usage.ru_nivcsw - nivcsw0_;
}

void Accuracy::add(const rfp::SensingResult& result,
                   const rfp::TagState& truth, bool use_z) {
  ++total;
  if (!result.valid) return;
  ++valid;
  rfp::Vec3 at = result.position;
  if (!use_z) at.z = truth.position.z;
  loc_cm.push_back(100.0 * rfp::distance(at, truth.position));
  orient_deg.push_back(rfp::rad2deg(
      rfp::polarization_angle_error(result.polarization, truth.polarization)));
}

void add_end_to_end(Outcome& out, const std::vector<double>& setup_s,
                    const TimedPhase& phase,
                    double tail_percentile, double rss_mb,
                    const Accuracy& accuracy) {
  const double rounds = static_cast<double>(std::max<std::uint64_t>(phase.rounds, 1));
  out.add("setup_s", median(setup_s), "s");
  out.add("rounds_per_s", static_cast<double>(phase.rounds) / phase.elapsed_s(),
          "1/s");
  out.add("latency_p50_ms", percentile(phase.latency_ms, 50.0), "ms");
  out.add("latency_tail_ms", percentile(phase.latency_ms, tail_percentile),
          "ms");
  out.add("cpu_ms_per_round", 1e3 * phase.cpu_s() / rounds, "ms");
  out.add("allocs_per_round", static_cast<double>(phase.allocs()) / rounds,
          "count");
  out.add("peak_rss_mb", rss_mb, "MiB");
  out.add("loc_err_cm_p50", percentile(accuracy.loc_cm, 50.0), "cm");
  out.add("orient_err_deg_p50", percentile(accuracy.orient_deg, 50.0), "deg");
  out.add("valid_frac",
          accuracy.total == 0 ? 0.0
                              : static_cast<double>(accuracy.valid) /
                                    static_cast<double>(accuracy.total),
          "ratio");
  out.add("tracked_rmse_cm", accuracy.tracked_rmse_cm, "cm");
  char setups[128];
  std::snprintf(setups, sizeof setups, "%zu builds, min %.6f median %.6f max %.6f s",
                setup_s.size(), percentile(setup_s, 0.0), median(setup_s),
                percentile(setup_s, 100.0));
  out.note("setup", setups);
  out.note("latency_samples", std::to_string(phase.latency_ms.size()));
  std::string spread;
  for (const double p : {5.0, 25.0, 50.0, 75.0, 90.0, 95.0, 99.0}) {
    char cell[48];
    std::snprintf(cell, sizeof cell, "%sp%g %.3f", spread.empty() ? "" : " ",
                  p, percentile(phase.latency_ms, p));
    spread += cell;
  }
  out.note("latency_ms", spread);
  char kernel[160];
  std::snprintf(kernel, sizeof kernel,
                "sys_s %.3f minor_faults %ld voluntary_switches %ld "
                "involuntary_switches %ld",
                phase.sys_s(), phase.minor_faults(),
                phase.voluntary_switches(), phase.involuntary_switches());
  out.note("kernel", kernel);
  char acc[200];
  std::snprintf(acc, sizeof acc,
                "rounds %zu valid %zu loc_cm p25 %.3f p75 %.3f "
                "orient_deg p25 %.3f p75 %.3f p90 %.3f",
                accuracy.total, accuracy.valid,
                percentile(accuracy.loc_cm, 25.0),
                percentile(accuracy.loc_cm, 75.0),
                percentile(accuracy.orient_deg, 25.0),
                percentile(accuracy.orient_deg, 75.0),
                percentile(accuracy.orient_deg, 90.0));
  out.note("accuracy", acc);
  char tail[32];
  std::snprintf(tail, sizeof tail, "p%g", tail_percentile);
  out.note("latency_tail_percentile", tail);
}

}  // namespace perfbench
