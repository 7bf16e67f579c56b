#pragma once

#include <condition_variable>
#include <cstddef>
#include <deque>
#include <functional>
#include <memory>
#include <mutex>
#include <thread>
#include <type_traits>
#include <utility>
#include <vector>

/// \file thread_pool.hpp
/// Fixed-size worker pool for the sensing hot path. Deliberately boring:
/// a mutex-guarded task queue drained by N workers parked on a condition
/// variable — no work stealing, no lock-free queues. The throughput shape
/// RF-Prism cares about (thousands of independent per-tag solves) is
/// embarrassingly parallel, so a plain queue is already within noise of
/// fancier schedulers, and the determinism story stays trivial: every
/// parallel_for chunk writes its own pre-assigned result slot, so results
/// are bit-identical no matter which worker runs which chunk, or in what
/// order.

namespace rfp {

template <typename Signature>
class FunctionRef;

/// Non-owning reference to a callable: an object pointer plus a call
/// thunk, so binding any lambda never allocates. The referenced callable
/// must outlive every call through the reference.
template <typename R, typename... Args>
class FunctionRef<R(Args...)> {
 public:
  template <typename F>
    requires(!std::is_same_v<std::remove_cvref_t<F>, FunctionRef> &&
             std::is_invocable_r_v<R, F&, Args...>)
  FunctionRef(F&& f)
      : object_(const_cast<void*>(
            static_cast<const void*>(std::addressof(f)))),
        call_([](void* object, Args... args) -> R {
          return (*static_cast<std::remove_reference_t<F>*>(object))(
              std::forward<Args>(args)...);
        }) {}

  R operator()(Args... args) const {
    return call_(object_, std::forward<Args>(args)...);
  }

 private:
  void* object_;
  R (*call_)(void*, Args...);
};

/// Fixed pool of worker threads. Construction spawns the workers;
/// destruction completes every task still queued, then the workers exit
/// and are joined (clean shutdown under TSan — no task is abandoned).
class ThreadPool {
 public:
  static constexpr std::size_t npos = static_cast<std::size_t>(-1);

  /// Spawn `n_threads` workers (0 is clamped to 1: a pool always has at
  /// least one real worker so submit() can make progress).
  explicit ThreadPool(std::size_t n_threads);
  ~ThreadPool();

  ThreadPool(const ThreadPool&) = delete;
  ThreadPool& operator=(const ThreadPool&) = delete;

  /// Number of worker threads.
  std::size_t size() const { return workers_.size(); }

  /// Index of the calling thread within this pool in [0, size()), or
  /// `npos` when called from a thread this pool does not own. Stable for
  /// the lifetime of the pool: the canonical per-thread scratch slot.
  std::size_t worker_index() const;

  /// Enqueue one task. Tasks must not throw (parallel_for wraps bodies in
  /// its own exception capture); an escaping exception terminates.
  void submit(std::function<void()> task);

  /// Split [0, n) into contiguous chunks of at most `chunk` indices and
  /// run `body(begin, end, slot)` for each, blocking until every chunk has
  /// finished. `slot` is a stable scratch index in [0, size()]: workers
  /// use their worker_index(), and chunks executed inline on the calling
  /// thread use size(). The caller does not steal queued chunks, it only
  /// waits — so a chunk's slot is always consistent with the thread
  /// running it.
  ///
  /// Determinism contract: chunk boundaries depend only on (n, chunk),
  /// never on size() or scheduling, and chunks are independent — any
  /// reduction over per-chunk results must be done by the caller in chunk
  /// order (parallel_for keeps no cross-chunk state).
  ///
  /// Re-entrancy: when called from one of this pool's own workers the
  /// whole loop runs inline on that worker (chunk order preserved), so
  /// nested parallelism cannot deadlock on the queue.
  ///
  /// The first exception thrown by a body (first in *chunk order*, not
  /// completion order) is rethrown on the calling thread after all chunks
  /// have finished. `body` is borrowed for the call, never copied, so
  /// passing a lambda allocates nothing whatever it captures.
  void parallel_for(std::size_t n, std::size_t chunk,
                    FunctionRef<void(std::size_t begin, std::size_t end,
                                     std::size_t slot)>
                        body);

 private:
  void worker_loop(std::size_t index);

  mutable std::mutex mutex_;
  std::condition_variable wake_;
  std::deque<std::function<void()>> queue_;
  std::vector<std::thread> workers_;
  bool stopping_ = false;
};

}  // namespace rfp
