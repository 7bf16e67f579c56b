#pragma once

#include <array>
#include <bit>
#include <cstdint>
#include <mutex>
#include <vector>

/// \file buffer_pool.hpp
/// Size-classed freelist of byte buffers for the serving data path.
///
/// The steady-state request→response cycle in rfp::net must not touch the
/// heap: every response is encoded into a buffer acquired here, spliced
/// into the connection's outbox, drained by writev, and returned — so
/// after warm-up the same storage cycles between the pool and the wire
/// with zero allocations. The pool is deliberately simple:
///
///  - buffers are plain std::vector<std::uint8_t> handed out inside a
///    move-only RAII handle (PooledBuffer) that returns the storage on
///    destruction;
///  - freelists are binned by capacity into power-of-two size classes
///    (kMinClassBytes … kMaxClassBytes); acquire() rounds the caller's
///    hint up to a class so repeated acquire/release cycles stay in one
///    bin instead of fragmenting;
///  - each class holds at most max_buffers_per_class buffers; beyond
///    that (or beyond kMaxClassBytes, e.g. a vector that grew while
///    out) the storage is freed and counted as a discard, which bounds
///    resident memory under bursty traffic;
///  - a mutex guards the freelists. Pools are per-reactor, so the only
///    contention is that reactor's solve workers returning response
///    buffers — an uncontended lock, not a global allocator choke point.
///
/// Lifetime: PooledBuffer holds a raw pointer to its pool. The owner
/// (Reactor, Client) must declare the pool before anything that can hold
/// one of its buffers, so member destruction order returns every buffer
/// before the pool dies. A default-constructed PooledBuffer has no pool
/// and frees its storage like a plain vector — useful for tests and for
/// wrapping bytes that never came from a pool.

namespace rfp {

class BufferPool;

/// Move-only RAII handle over pooled storage. Expose the vector itself
/// (storage()) so ByteWriter encodes straight into pooled memory.
class PooledBuffer {
 public:
  PooledBuffer() = default;
  PooledBuffer(PooledBuffer&& other) noexcept;
  PooledBuffer& operator=(PooledBuffer&& other) noexcept;
  PooledBuffer(const PooledBuffer&) = delete;
  PooledBuffer& operator=(const PooledBuffer&) = delete;
  ~PooledBuffer();

  /// Wrap storage that did not come from a pool (freed, not recycled, on
  /// reset). Lets non-pooled byte vectors ride pooled plumbing.
  static PooledBuffer wrap(std::vector<std::uint8_t> storage);

  /// Return the storage to the pool (or free it if unpooled) now.
  void reset();

  std::vector<std::uint8_t>& storage() { return storage_; }
  const std::vector<std::uint8_t>& storage() const { return storage_; }
  const std::uint8_t* data() const { return storage_.data(); }
  std::size_t size() const { return storage_.size(); }
  bool empty() const { return storage_.empty(); }

 private:
  friend class BufferPool;
  PooledBuffer(BufferPool* pool, std::vector<std::uint8_t> storage)
      : pool_(pool), storage_(std::move(storage)) {}

  BufferPool* pool_ = nullptr;
  std::vector<std::uint8_t> storage_;
};

struct BufferPoolConfig {
  /// Per-class freelist depth; releases beyond it are discarded.
  std::size_t max_buffers_per_class = 64;
};

struct BufferPoolStats {
  std::uint64_t acquires = 0;
  std::uint64_t hits = 0;      ///< served from a freelist
  std::uint64_t misses = 0;    ///< fresh heap allocation
  std::uint64_t releases = 0;  ///< buffers returned (kept or discarded)
  std::uint64_t discards = 0;  ///< returned storage freed, not kept
  std::size_t buffers_resident = 0;
  std::size_t bytes_resident = 0;  ///< sum of resident capacities
};

/// Thread-safe size-classed buffer freelist. See file comment.
class BufferPool {
 public:
  /// Smallest size class; acquire() hints below this round up to it.
  static constexpr std::size_t kMinClassBytes = 4096;
  /// Largest pooled capacity. Buffers that grew beyond this while out
  /// are freed on release rather than kept resident.
  static constexpr std::size_t kMaxClassBytes = std::size_t{1} << 20;

  explicit BufferPool(BufferPoolConfig config = {});
  ~BufferPool() = default;
  BufferPool(const BufferPool&) = delete;
  BufferPool& operator=(const BufferPool&) = delete;

  /// A cleared buffer with capacity >= max(min_capacity, min class).
  PooledBuffer acquire(std::size_t min_capacity = 0);

  BufferPoolStats stats() const;

 private:
  friend class PooledBuffer;
  void release(std::vector<std::uint8_t>&& storage);
  static std::size_t class_for_acquire(std::size_t min_capacity);

  /// Class c holds buffers of capacity kMinClassBytes << c.
  static constexpr std::size_t kClassCount =
      std::bit_width(kMaxClassBytes / kMinClassBytes);

  BufferPoolConfig config_;
  mutable std::mutex mutex_;
  std::array<std::vector<std::vector<std::uint8_t>>, kClassCount> free_;
  BufferPoolStats stats_;
};

}  // namespace rfp
