#include "rfp/common/buffer_pool.hpp"

#include <algorithm>
#include <utility>

namespace rfp {

PooledBuffer::PooledBuffer(PooledBuffer&& other) noexcept
    : pool_(std::exchange(other.pool_, nullptr)),
      storage_(std::move(other.storage_)) {
  other.storage_.clear();
}

PooledBuffer& PooledBuffer::operator=(PooledBuffer&& other) noexcept {
  if (this != &other) {
    reset();
    pool_ = std::exchange(other.pool_, nullptr);
    storage_ = std::move(other.storage_);
    other.storage_.clear();
  }
  return *this;
}

PooledBuffer::~PooledBuffer() { reset(); }

PooledBuffer PooledBuffer::wrap(std::vector<std::uint8_t> storage) {
  return PooledBuffer(nullptr, std::move(storage));
}

void PooledBuffer::reset() {
  if (pool_ != nullptr) {
    pool_->release(std::move(storage_));
    pool_ = nullptr;
  }
  // Moved-from vectors are left valid-but-unspecified by release(); make
  // the handle unambiguously empty either way.
  storage_ = std::vector<std::uint8_t>{};
}

namespace {

std::size_t class_bytes(std::size_t c) {
  return BufferPool::kMinClassBytes << c;
}

}  // namespace

BufferPool::BufferPool(BufferPoolConfig config) : config_(config) {}

std::size_t BufferPool::class_for_acquire(std::size_t min_capacity) {
  // Smallest class that can hold min_capacity; callers asking beyond the
  // largest class get the largest (the vector grows past it while out and
  // the oversized storage is discarded on release).
  std::size_t c = 0;
  while (c + 1 < kClassCount && class_bytes(c) < min_capacity) ++c;
  return c;
}

PooledBuffer BufferPool::acquire(std::size_t min_capacity) {
  std::vector<std::uint8_t> storage;
  {
    std::lock_guard<std::mutex> lock(mutex_);
    ++stats_.acquires;
    // Scan from the preferred class upward so a buffer from a larger bin
    // still beats a fresh allocation.
    for (std::size_t c = class_for_acquire(min_capacity);
         c < kClassCount; ++c) {
      if (!free_[c].empty()) {
        storage = std::move(free_[c].back());
        free_[c].pop_back();
        --stats_.buffers_resident;
        stats_.bytes_resident -= storage.capacity();
        ++stats_.hits;
        break;
      }
    }
    if (storage.capacity() == 0) ++stats_.misses;
  }
  const std::size_t want = std::max(
      min_capacity, class_bytes(class_for_acquire(min_capacity)));
  if (storage.capacity() < want) storage.reserve(want);
  storage.clear();
  return PooledBuffer(this, std::move(storage));
}

void BufferPool::release(std::vector<std::uint8_t>&& storage) {
  std::vector<std::uint8_t> local = std::move(storage);
  const std::size_t capacity = local.capacity();
  std::lock_guard<std::mutex> lock(mutex_);
  ++stats_.releases;
  if (capacity < kMinClassBytes || capacity > kMaxClassBytes) {
    ++stats_.discards;
    return;  // `local` frees the storage
  }
  // Bin by the largest class the capacity can actually serve.
  std::size_t c = 0;
  while (c + 1 < kClassCount && class_bytes(c + 1) <= capacity) ++c;
  if (free_[c].size() >= config_.max_buffers_per_class) {
    ++stats_.discards;
    return;
  }
  local.clear();
  free_[c].push_back(std::move(local));
  ++stats_.buffers_resident;
  stats_.bytes_resident += capacity;
}

BufferPoolStats BufferPool::stats() const {
  std::lock_guard<std::mutex> lock(mutex_);
  return stats_;
}

}  // namespace rfp
