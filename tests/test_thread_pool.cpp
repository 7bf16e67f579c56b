#include "rfp/common/thread_pool.hpp"

#include <atomic>
#include <chrono>
#include <cstdlib>
#include <new>
#include <stdexcept>
#include <string>
#include <thread>
#include <vector>

#include <gtest/gtest.h>

// The global operator new is replaced to count allocations; sanitizer
// builds own the allocator, so the counting test skips there.
#if defined(__SANITIZE_ADDRESS__) || defined(__SANITIZE_THREAD__) || \
    defined(RFP_SANITIZE_BUILD)
#define RFP_TEST_COUNT_ALLOCS 0
#else
#define RFP_TEST_COUNT_ALLOCS 1
#endif

#if RFP_TEST_COUNT_ALLOCS
namespace {
std::atomic<long> g_allocs{0};
}  // namespace

void* operator new(std::size_t n) {
  g_allocs.fetch_add(1, std::memory_order_relaxed);
  void* p = std::malloc(n == 0 ? 1 : n);
  if (p == nullptr) throw std::bad_alloc();
  return p;
}
void* operator new[](std::size_t n) { return ::operator new(n); }
void operator delete(void* p) noexcept { std::free(p); }
void operator delete[](void* p) noexcept { std::free(p); }
void operator delete(void* p, std::size_t) noexcept { std::free(p); }
void operator delete[](void* p, std::size_t) noexcept { std::free(p); }
#endif

namespace rfp {
namespace {

TEST(ThreadPool, ZeroThreadsClampedToOne) {
  ThreadPool pool(0);
  EXPECT_EQ(pool.size(), 1u);
}

TEST(ThreadPool, SizeMatchesRequest) {
  ThreadPool pool(3);
  EXPECT_EQ(pool.size(), 3u);
}

TEST(ThreadPool, WorkerIndexIsNposOutsidePool) {
  ThreadPool pool(2);
  EXPECT_EQ(pool.worker_index(), ThreadPool::npos);
}

TEST(ThreadPool, WorkerIndexStableAndInRangeInsidePool) {
  ThreadPool pool(4);
  std::atomic<int> bad{0};
  std::atomic<int> done{0};
  for (int i = 0; i < 64; ++i) {
    pool.submit([&] {
      const std::size_t index = pool.worker_index();
      if (index >= pool.size()) ++bad;
      ++done;
    });
  }
  while (done.load() < 64) std::this_thread::yield();
  EXPECT_EQ(bad.load(), 0);
}

TEST(ThreadPool, DestructorCompletesQueuedTasks) {
  // Queue far more tasks than workers and destroy immediately: every task
  // must still run exactly once (the TSan shutdown scenario).
  std::atomic<int> ran{0};
  {
    ThreadPool pool(2);
    for (int i = 0; i < 200; ++i) {
      pool.submit([&ran] { ++ran; });
    }
  }
  EXPECT_EQ(ran.load(), 200);
}

TEST(ThreadPool, ParallelForCoversEveryIndexExactlyOnce) {
  ThreadPool pool(4);
  constexpr std::size_t kN = 1013;  // prime: uneven final chunk
  std::vector<std::atomic<int>> hits(kN);
  pool.parallel_for(kN, 7, [&](std::size_t begin, std::size_t end,
                               std::size_t /*slot*/) {
    for (std::size_t i = begin; i < end; ++i) ++hits[i];
  });
  for (std::size_t i = 0; i < kN; ++i) {
    ASSERT_EQ(hits[i].load(), 1) << "index " << i;
  }
}

TEST(ThreadPool, ParallelForZeroItemsIsNoop) {
  ThreadPool pool(2);
  bool called = false;
  pool.parallel_for(0, 4, [&](std::size_t, std::size_t, std::size_t) {
    called = true;
  });
  EXPECT_FALSE(called);
}

TEST(ThreadPool, ParallelForSlotsWithinScratchRange) {
  // Slots index per-thread scratch: always in [0, size()] (size() is the
  // calling thread's slot on the inline path).
  ThreadPool pool(3);
  std::atomic<int> bad{0};
  pool.parallel_for(100, 1, [&](std::size_t, std::size_t, std::size_t slot) {
    if (slot > pool.size()) ++bad;
  });
  EXPECT_EQ(bad.load(), 0);
}

TEST(ThreadPool, SingleChunkRunsInlineOnCaller) {
  ThreadPool pool(4);
  std::size_t slot_seen = ThreadPool::npos;
  pool.parallel_for(5, 8, [&](std::size_t begin, std::size_t end,
                              std::size_t slot) {
    EXPECT_EQ(begin, 0u);
    EXPECT_EQ(end, 5u);
    slot_seen = slot;
  });
  // One chunk => executed by the caller, whose scratch slot is size().
  EXPECT_EQ(slot_seen, pool.size());
}

TEST(ThreadPool, NestedParallelForRunsInlineWithoutDeadlock) {
  ThreadPool pool(2);
  constexpr std::size_t kOuter = 8;
  constexpr std::size_t kInner = 16;
  std::vector<std::atomic<int>> hits(kOuter * kInner);
  pool.parallel_for(kOuter, 1, [&](std::size_t begin, std::size_t end,
                                   std::size_t /*slot*/) {
    for (std::size_t i = begin; i < end; ++i) {
      // Re-entrant use of the same pool from a worker: must run inline
      // rather than waiting on the (busy) queue.
      pool.parallel_for(kInner, 3, [&, i](std::size_t b, std::size_t e,
                                          std::size_t) {
        for (std::size_t j = b; j < e; ++j) ++hits[i * kInner + j];
      });
    }
  });
  for (std::size_t k = 0; k < hits.size(); ++k) {
    ASSERT_EQ(hits[k].load(), 1) << "cell " << k;
  }
}

TEST(ThreadPool, FirstExceptionInChunkOrderWins) {
  ThreadPool pool(4);
  // Chunks 3 and 7 throw; chunk order (not completion order) must pick 3.
  // Delay the earlier chunk so completion order favours the later one.
  try {
    pool.parallel_for(10, 1, [&](std::size_t begin, std::size_t,
                                 std::size_t) {
      if (begin == 3) {
        std::this_thread::sleep_for(std::chrono::milliseconds(20));
        throw std::runtime_error("chunk 3");
      }
      if (begin == 7) throw std::runtime_error("chunk 7");
    });
    FAIL() << "expected an exception";
  } catch (const std::runtime_error& e) {
    EXPECT_EQ(std::string(e.what()), "chunk 3");
  }
}

TEST(ThreadPool, AllChunksFinishEvenWhenOneThrows) {
  ThreadPool pool(4);
  std::atomic<int> ran{0};
  EXPECT_THROW(
      pool.parallel_for(32, 1, [&](std::size_t begin, std::size_t,
                                   std::size_t) {
        ++ran;
        if (begin == 0) throw std::runtime_error("boom");
      }),
      std::runtime_error);
  EXPECT_EQ(ran.load(), 32);
}

TEST(ThreadPool, ParallelForBodyIsBorrowedNotCopied) {
#if RFP_TEST_COUNT_ALLOCS
  // Allocations over kCalls fanned-out calls (8 chunks each) on a fresh
  // pool. Both bodies queue the same chunks, so the task queue's own
  // block allocations match; a body copied into a std::function would add
  // one heap allocation per call once its captures outgrow the 16-byte
  // inline buffer.
  constexpr int kCalls = 64;
  const auto allocs_per_run = [](const auto& body) {
    ThreadPool pool(2);
    const long before = g_allocs.load();
    for (int i = 0; i < kCalls; ++i) pool.parallel_for(8, 1, body);
    return g_allocs.load() - before;
  };
  std::atomic<std::size_t> a{0}, b{0}, c{0}, d{0};
  const auto narrow = [&a](std::size_t begin, std::size_t, std::size_t) {
    a += begin;
  };
  const auto wide = [&a, &b, &c, &d](std::size_t begin, std::size_t,
                                     std::size_t) {
    a += begin;
    b += 1;
    c += 2;
    d += 3;
  };
  static_assert(sizeof(narrow) == 8 && sizeof(wide) == 32);
  EXPECT_LE(allocs_per_run(wide), allocs_per_run(narrow));
#else
  GTEST_SKIP() << "sanitizer build owns operator new";
#endif
}

TEST(ThreadPool, ParallelForResultsIndependentOfThreadCount) {
  // The determinism backbone: identical chunking + per-slot writes give
  // identical results for any pool size.
  constexpr std::size_t kN = 257;
  const auto run = [](std::size_t n_threads) {
    ThreadPool pool(n_threads);
    std::vector<double> out(kN);
    pool.parallel_for(kN, 9, [&](std::size_t begin, std::size_t end,
                                 std::size_t) {
      for (std::size_t i = begin; i < end; ++i) {
        out[i] = static_cast<double>(i) * 0.1 + 3.0;
      }
    });
    return out;
  };
  const std::vector<double> one = run(1);
  EXPECT_EQ(run(2), one);
  EXPECT_EQ(run(8), one);
}

}  // namespace
}  // namespace rfp
