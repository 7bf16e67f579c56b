#include "rfp/common/thread_pool.hpp"

#include <algorithm>
#include <exception>

namespace rfp {

namespace {

// Which pool (if any) owns the current thread, and under what index.
// Plain thread_locals instead of a per-pool map: a worker belongs to
// exactly one pool for its whole life.
thread_local const ThreadPool* tls_pool = nullptr;
thread_local std::size_t tls_index = ThreadPool::npos;

}  // namespace

ThreadPool::ThreadPool(std::size_t n_threads) {
  const std::size_t n = std::max<std::size_t>(n_threads, 1);
  workers_.reserve(n);
  for (std::size_t i = 0; i < n; ++i) {
    workers_.emplace_back([this, i] { worker_loop(i); });
  }
}

ThreadPool::~ThreadPool() {
  {
    std::lock_guard<std::mutex> lock(mutex_);
    stopping_ = true;
  }
  wake_.notify_all();
  for (std::thread& worker : workers_) worker.join();
}

std::size_t ThreadPool::worker_index() const {
  return tls_pool == this ? tls_index : npos;
}

void ThreadPool::submit(std::function<void()> task) {
  {
    std::lock_guard<std::mutex> lock(mutex_);
    queue_.push_back(std::move(task));
  }
  wake_.notify_one();
}

void ThreadPool::worker_loop(std::size_t index) {
  tls_pool = this;
  tls_index = index;
  for (;;) {
    std::function<void()> task;
    {
      std::unique_lock<std::mutex> lock(mutex_);
      wake_.wait(lock, [this] { return stopping_ || !queue_.empty(); });
      if (queue_.empty()) return;  // stopping, and nothing left to drain
      task = std::move(queue_.front());
      queue_.pop_front();
    }
    task();
  }
}

void ThreadPool::parallel_for(
    std::size_t n, std::size_t chunk,
    FunctionRef<void(std::size_t, std::size_t, std::size_t)> body) {
  if (n == 0) return;
  chunk = std::max<std::size_t>(chunk, 1);
  const std::size_t n_chunks = (n + chunk - 1) / chunk;

  const std::size_t self = worker_index();
  if (self != npos || n_chunks == 1) {
    // Called from one of our own workers (nested parallelism), or a
    // single chunk: run inline in chunk order. Chunk boundaries are the
    // same as the fanned-out path, so results are identical.
    const std::size_t slot = self != npos ? self : size();
    std::exception_ptr first;
    for (std::size_t c = 0; c < n_chunks; ++c) {
      const std::size_t begin = c * chunk;
      const std::size_t end = std::min(begin + chunk, n);
      try {
        body(begin, end, slot);
      } catch (...) {
        if (!first) first = std::current_exception();
      }
    }
    if (first) std::rethrow_exception(first);
    return;
  }

  // Everything a chunk needs lives here, on the caller's stack, so each
  // submitted closure captures only (&join, c): small enough for
  // std::function's inline buffer, so fanning out allocates nothing per
  // chunk.
  struct Join {
    ThreadPool* pool;
    FunctionRef<void(std::size_t, std::size_t, std::size_t)> body;
    std::size_t n;
    std::size_t chunk;
    std::mutex mutex;
    std::condition_variable done;
    std::size_t remaining;
    std::exception_ptr error;      ///< first failure in chunk order
    std::size_t error_chunk = npos;
  } join{this, body, n, chunk, {}, {}, n_chunks, {}, npos};

  for (std::size_t c = 0; c < n_chunks; ++c) {
    submit([&join, c] {
      const std::size_t begin = c * join.chunk;
      const std::size_t end = std::min(begin + join.chunk, join.n);
      std::exception_ptr error;
      try {
        join.body(begin, end, join.pool->worker_index());
      } catch (...) {
        error = std::current_exception();
      }
      std::lock_guard<std::mutex> lock(join.mutex);
      if (error && c < join.error_chunk) {
        join.error = std::move(error);
        join.error_chunk = c;
      }
      if (--join.remaining == 0) join.done.notify_all();
    });
  }

  std::unique_lock<std::mutex> lock(join.mutex);
  join.done.wait(lock, [&join] { return join.remaining == 0; });
  if (join.error) std::rethrow_exception(join.error);
}

}  // namespace rfp
