#pragma once

#include <cstddef>
#include <deque>
#include <functional>
#include <utility>

#include "rfp/common/thread_pool.hpp"
#include "rfp/common/workspace.hpp"
#include "rfp/core/grid_cache.hpp"

/// \file engine.hpp
/// Shared execution resources for high-throughput sensing: one ThreadPool
/// plus one SolveWorkspace per thread that can touch the solve path. An
/// engine is the unit a deployment shares across pipelines, streaming
/// sensors, and CLI batch jobs — construct it once, size it to the
/// machine, and pass it wherever rounds need to be solved. It holds no
/// deployment state: a drift estimator belongs to the deployment that
/// drifts (DeploymentTenant for served requests, StreamingSensor for a
/// stream), so one engine serves any number of sites.
///
/// Determinism guarantee: everything executed through an engine
/// (RfPrism::sense_batch, the pool-fanned grid scan) is bit-identical to
/// the sequential path for any thread count. Per-round solves are
/// independent, scratch workspaces never leak state into results, and all
/// reductions are performed in input order on the calling thread.

namespace rfp {

class SensingEngine {
 public:
  /// `n_threads` = 0 picks the hardware concurrency (at least 1).
  explicit SensingEngine(std::size_t n_threads = 0);

  std::size_t n_threads() const { return pool_.size(); }
  ThreadPool& pool() { return pool_; }

  /// Enqueue an independent task on the engine's pool. The serving
  /// layer's unit of work: a task may itself call the engine-powered
  /// sense overloads — nested parallel_for runs inline on the worker, so
  /// results stay bit-identical to the sequential path. Tasks must not
  /// let exceptions escape (see ThreadPool::submit).
  void submit(std::function<void()> task) { pool_.submit(std::move(task)); }

  /// Scratch workspace for slot `slot` in [0, n_threads()]: workers use
  /// their ThreadPool::worker_index(); the extra last slot serves the
  /// calling (non-worker) thread when it runs chunks inline.
  SolveWorkspace& workspace(std::size_t slot) { return workspaces_[slot]; }

  /// Workspace for the current thread: its worker slot when called from a
  /// pool worker, the caller slot otherwise.
  SolveWorkspace& local_workspace() {
    const std::size_t index = pool_.worker_index();
    return workspaces_[index == ThreadPool::npos ? pool_.size() : index];
  }

  /// Engine-owned geometry cache: the Stage-A distance tables shared
  /// read-only by every solve routed through this engine. Engine-less
  /// paths use GridGeometryCache::shared() instead; both build the same
  /// (bit-identical) tables.
  GridGeometryCache& geometry_cache() { return geometry_cache_; }

 private:
  ThreadPool pool_;
  std::deque<SolveWorkspace> workspaces_;  // n_threads + 1, stable refs
  GridGeometryCache geometry_cache_;
};

}  // namespace rfp
