#pragma once

/// \file trace.hpp
/// In-memory span recorder for the traced run. The benchmark wraps its own
/// calls into each layer's public functions in spans (name, start, end,
/// parent, request id, heap allocations on the calling thread), keeps them
/// in a preallocated vector, and writes them out as JSON when the run
/// ends. A layer's self time is its spans' duration minus the part their
/// child spans cover. Spans are recorded from one thread at a time.

#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "harness.hpp"

namespace perfbench {

class Tracer {
 public:
  struct Span {
    std::uint64_t id = 0;
    std::uint64_t parent = 0;  ///< 0 = root
    std::uint64_t request = 0;
    const char* layer = "";
    double begin_us = 0.0;
    double end_us = 0.0;
    /// Heap allocations on the recording thread, children included (the
    /// thread's running count while the span is open).
    std::uint64_t allocs = 0;
  };

  struct LayerTotal {
    std::uint64_t spans = 0;
    double total_ms = 0.0;
    double self_ms = 0.0;
    std::uint64_t self_allocs = 0;
  };

  /// Room for `capacity` spans is reserved up front (0 for an untraced
  /// run), so recording never allocates inside another span.
  explicit Tracer(std::size_t capacity);

  /// Open a span; returns its id. `parent` 0 makes it a root span.
  std::uint64_t begin(const char* layer, std::uint64_t request,
                      std::uint64_t parent = 0);
  void end(std::uint64_t id);

  /// Self time and self allocations summed per layer name.
  std::map<std::string, LayerTotal> layer_totals() const;

  /// Durations [ms] of every span of `layer`, in recording order.
  std::vector<double> durations_ms(const std::string& layer) const;

  /// Write every span as a JSON array. Returns false on an I/O error.
  bool write_json(const std::string& path) const;

  std::size_t size() const { return spans_.size(); }

 private:
  Clock::time_point origin_;
  std::vector<Span> spans_;
};

/// RAII span.
class Scope {
 public:
  Scope(Tracer& tracer, const char* layer, std::uint64_t request,
        std::uint64_t parent = 0)
      : tracer_(tracer), id_(tracer.begin(layer, request, parent)) {}
  ~Scope() { tracer_.end(id_); }
  Scope(const Scope&) = delete;
  Scope& operator=(const Scope&) = delete;
  std::uint64_t id() const { return id_; }

 private:
  Tracer& tracer_;
  std::uint64_t id_;
};

}  // namespace perfbench
