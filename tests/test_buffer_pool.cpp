/// BufferPool + Outbox: the serving data path's memory plumbing. The
/// pool must recycle storage (hits, not heap traffic) while bounding
/// residency, and the outbox must splice/coalesce/drain segments without
/// losing or reordering a byte. Run under ASan/TSan in CI alongside the
/// FrameView lifetime suites.

#include "rfp/common/buffer_pool.hpp"

#include <algorithm>
#include <cstdint>
#include <numeric>
#include <thread>
#include <vector>

#include <gtest/gtest.h>

#include "rfp/net/outbox.hpp"

namespace rfp {
namespace {

TEST(BufferPoolTest, AcquireGrantsClearedCapacity) {
  BufferPool pool;
  PooledBuffer buf = pool.acquire(10'000);
  EXPECT_TRUE(buf.empty());
  EXPECT_GE(buf.storage().capacity(), 10'000u);
  // The default hint still grants at least the smallest class.
  PooledBuffer small = pool.acquire();
  EXPECT_GE(small.storage().capacity(), BufferPool::kMinClassBytes);
  const BufferPoolStats stats = pool.stats();
  EXPECT_EQ(stats.acquires, 2u);
  EXPECT_EQ(stats.misses, 2u);  // cold pool: everything came off the heap
  EXPECT_EQ(stats.hits, 0u);
}

TEST(BufferPoolTest, RecyclesReleasedStorage) {
  BufferPool pool;
  const std::uint8_t* raw = nullptr;
  {
    PooledBuffer buf = pool.acquire(8192);
    buf.storage().assign(100, 0xAB);
    raw = buf.data();
  }  // returned to the pool here
  EXPECT_EQ(pool.stats().releases, 1u);
  EXPECT_EQ(pool.stats().buffers_resident, 1u);

  PooledBuffer again = pool.acquire(8192);
  EXPECT_EQ(pool.stats().hits, 1u);
  EXPECT_TRUE(again.empty());  // recycled buffers come back cleared
  EXPECT_EQ(again.storage().data(), raw);  // the very same storage
}

TEST(BufferPoolTest, OversizeAndOverflowReleasesAreDiscarded) {
  BufferPoolConfig config;
  config.max_buffers_per_class = 2;
  BufferPool pool(config);
  {
    // Grew past the largest class while out: freed, not kept.
    PooledBuffer huge = pool.acquire();
    huge.storage().reserve(BufferPool::kMaxClassBytes * 2);
  }
  EXPECT_EQ(pool.stats().discards, 1u);
  EXPECT_EQ(pool.stats().buffers_resident, 0u);

  // A full freelist discards the overflow rather than growing resident
  // memory without bound.
  {
    std::vector<PooledBuffer> bufs;
    for (int i = 0; i < 3; ++i) bufs.push_back(pool.acquire(4096));
  }
  const BufferPoolStats stats = pool.stats();
  EXPECT_EQ(stats.buffers_resident, 2u);
  EXPECT_EQ(stats.discards, 2u);
  EXPECT_GT(stats.bytes_resident, 0u);
}

TEST(BufferPoolTest, MoveTransfersOwnershipWithoutDoubleRelease) {
  BufferPool pool;
  {
    PooledBuffer a = pool.acquire(4096);
    a.storage().assign(8, 1);
    PooledBuffer b = std::move(a);
    EXPECT_EQ(b.size(), 8u);
    PooledBuffer c;
    c = std::move(b);
    EXPECT_EQ(c.size(), 8u);
  }
  // One buffer travelled through three handles: exactly one release.
  EXPECT_EQ(pool.stats().releases, 1u);
  EXPECT_EQ(pool.stats().buffers_resident, 1u);
}

TEST(BufferPoolTest, WrappedBuffersBypassThePool) {
  std::vector<std::uint8_t> raw(64, 0x5A);
  {
    PooledBuffer wrapped = PooledBuffer::wrap(std::move(raw));
    EXPECT_EQ(wrapped.size(), 64u);
    wrapped.reset();  // frees, nothing to return to
    EXPECT_TRUE(wrapped.empty());
  }
  PooledBuffer untouched;  // default handle: plain vector semantics
  untouched.storage().push_back(1);
}

TEST(BufferPoolTest, ConcurrentAcquireReleaseIsSafe) {
  // The reactor's solve workers acquire response buffers from the
  // reactor's pool concurrently; hammer that pattern under TSan.
  BufferPool pool;
  constexpr int kThreads = 4, kIters = 500;
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&pool, t] {
      for (int i = 0; i < kIters; ++i) {
        PooledBuffer buf = pool.acquire(4096 + 1024 * (i % 3));
        buf.storage().assign(16, static_cast<std::uint8_t>(t));
      }
    });
  }
  for (std::thread& th : threads) th.join();
  const BufferPoolStats stats = pool.stats();
  EXPECT_EQ(stats.acquires, static_cast<std::uint64_t>(kThreads) * kIters);
  EXPECT_EQ(stats.releases, stats.acquires);
  EXPECT_GT(stats.hits, 0u);
}

// -- Outbox ----------------------------------------------------------------

net::Outbox make_outbox(net::OutboxCounters* counters,
                        std::size_t coalesce_limit = 512) {
  return net::Outbox(counters, coalesce_limit);
}

PooledBuffer filled(BufferPool& pool, std::size_t n, std::uint8_t seed) {
  PooledBuffer buf = pool.acquire(n);
  buf.storage().resize(n);
  for (std::size_t i = 0; i < n; ++i) {
    buf.storage()[i] = static_cast<std::uint8_t>(seed + i);
  }
  return buf;
}

std::vector<std::uint8_t> gather(const net::Outbox& out,
                                 std::size_t max_iov = 64) {
  struct iovec iov[64];
  const std::size_t n = out.fill_iovec(iov, max_iov);
  std::vector<std::uint8_t> bytes;
  for (std::size_t i = 0; i < n; ++i) {
    const auto* p = static_cast<const std::uint8_t*>(iov[i].iov_base);
    bytes.insert(bytes.end(), p, p + iov[i].iov_len);
  }
  return bytes;
}

TEST(OutboxTest, SplicesLargeFramesAndCoalescesSmall) {
  BufferPool pool;
  net::OutboxCounters counters;
  net::Outbox out = make_outbox(&counters);

  out.push(filled(pool, 2000, 1));  // first frame: always its own segment
  out.push(filled(pool, 100, 2));   // small: packs into the tail's spare
  out.push(filled(pool, 2000, 3));  // large: new segment
  EXPECT_EQ(out.size(), 4100u);
  EXPECT_EQ(counters.frames_spliced, 2u);
  EXPECT_EQ(counters.frames_coalesced, 1u);
  EXPECT_EQ(counters.bytes_coalesced, 100u);

  // The drained byte stream preserves push order exactly.
  std::vector<std::uint8_t> expect;
  for (auto [n, seed] : {std::pair<std::size_t, int>{2000, 1},
                         {100, 2},
                         {2000, 3}}) {
    for (std::size_t i = 0; i < n; ++i) {
      expect.push_back(static_cast<std::uint8_t>(seed + i));
    }
  }
  EXPECT_EQ(gather(out), expect);

  // Coalesced frames returned their own buffer to the pool immediately.
  EXPECT_GE(pool.stats().releases, 1u);
}

TEST(OutboxTest, ConsumeAdvancesWithinAndAcrossSegments) {
  BufferPool pool;
  net::OutboxCounters counters;
  net::Outbox out = make_outbox(&counters, /*coalesce_limit=*/0);
  out.push(filled(pool, 1000, 10));
  out.push(filled(pool, 1000, 20));

  out.consume(300);  // partial first segment
  EXPECT_EQ(out.size(), 1700u);
  std::vector<std::uint8_t> rest = gather(out);
  ASSERT_EQ(rest.size(), 1700u);
  EXPECT_EQ(rest[0], static_cast<std::uint8_t>(10 + 300));

  const std::uint64_t released_before = pool.stats().releases;
  out.consume(900);  // finishes segment one (returned to pool), enters two
  EXPECT_EQ(out.size(), 800u);
  EXPECT_EQ(pool.stats().releases, released_before + 1);
  rest = gather(out);
  ASSERT_EQ(rest.size(), 800u);
  EXPECT_EQ(rest[0], static_cast<std::uint8_t>(20 + 200));

  out.consume(800);
  EXPECT_TRUE(out.empty());
  EXPECT_EQ(out.fill_iovec(nullptr, 0), 0u);
}

TEST(OutboxTest, RingGrowsPastInitialCapacityAndDrainsInOrder) {
  BufferPool pool;
  net::Outbox out = make_outbox(nullptr, /*coalesce_limit=*/0);
  constexpr std::size_t kSegments = 37;  // forces several ring growths
  std::size_t total = 0;
  for (std::size_t i = 0; i < kSegments; ++i) {
    out.push(filled(pool, 100 + i, static_cast<std::uint8_t>(i)));
    total += 100 + i;
  }
  EXPECT_EQ(out.size(), total);

  // Drain in awkward chunk sizes and re-assemble; order must hold.
  std::vector<std::uint8_t> drained;
  while (!out.empty()) {
    const std::vector<std::uint8_t> front = gather(out, 3);
    const std::size_t take = std::min<std::size_t>(front.size(), 217);
    drained.insert(drained.end(), front.begin(), front.begin() + take);
    out.consume(take);
  }
  ASSERT_EQ(drained.size(), total);
  std::size_t off = 0;
  for (std::size_t i = 0; i < kSegments; ++i) {
    for (std::size_t k = 0; k < 100 + i; ++k, ++off) {
      ASSERT_EQ(drained[off], static_cast<std::uint8_t>(i + k))
          << "segment " << i << " byte " << k;
    }
  }
}

TEST(OutboxTest, SteadyStateCyclesThroughThePool) {
  // The whole point of the data path: after warm-up, push/drain cycles
  // are served entirely off the pool freelist.
  BufferPool pool;
  net::Outbox out = make_outbox(nullptr);
  for (int i = 0; i < 8; ++i) {
    out.push(filled(pool, 3000, static_cast<std::uint8_t>(i)));
    out.consume(3000);
  }
  EXPECT_TRUE(out.empty());
  const BufferPoolStats stats = pool.stats();
  EXPECT_EQ(stats.misses, 1u);  // only the very first acquire hit the heap
  EXPECT_EQ(stats.hits, stats.acquires - 1);
}

TEST(OutboxTest, ClearReleasesEverything) {
  BufferPool pool;
  net::Outbox out = make_outbox(nullptr, /*coalesce_limit=*/0);
  for (int i = 0; i < 5; ++i) out.push(filled(pool, 500, 9));
  const std::uint64_t released_before = pool.stats().releases;
  out.clear();
  EXPECT_TRUE(out.empty());
  EXPECT_EQ(out.size(), 0u);
  EXPECT_EQ(pool.stats().releases, released_before + 5);
}

}  // namespace
}  // namespace rfp
