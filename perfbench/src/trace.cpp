#include "trace.hpp"

#include <cstdio>
#include <unordered_map>

namespace perfbench {

namespace {
double us_since(Clock::time_point origin) {
  return std::chrono::duration<double, std::micro>(Clock::now() - origin)
      .count();
}
}  // namespace

Tracer::Tracer(std::size_t capacity) : origin_(Clock::now()) {
  spans_.reserve(capacity);
}

std::uint64_t Tracer::begin(const char* layer, std::uint64_t request,
                            std::uint64_t parent) {
  Span span;
  span.id = spans_.size() + 1;
  span.parent = parent;
  span.request = request;
  span.layer = layer;
  span.allocs = allocs_this_thread();
  span.begin_us = us_since(origin_);
  spans_.push_back(span);
  return span.id;
}

void Tracer::end(std::uint64_t id) {
  Span& span = spans_[id - 1];
  span.end_us = us_since(origin_);
  span.allocs = allocs_this_thread() - span.allocs;
}

std::map<std::string, Tracer::LayerTotal> Tracer::layer_totals() const {
  std::unordered_map<std::uint64_t, double> child_us;
  std::unordered_map<std::uint64_t, std::uint64_t> child_allocs;
  for (const Span& span : spans_) {
    if (span.parent == 0) continue;
    child_us[span.parent] += span.end_us - span.begin_us;
    child_allocs[span.parent] += span.allocs;
  }
  std::map<std::string, LayerTotal> totals;
  for (const Span& span : spans_) {
    LayerTotal& total = totals[span.layer];
    const double us = span.end_us - span.begin_us;
    ++total.spans;
    total.total_ms += us / 1e3;
    const auto c = child_us.find(span.id);
    total.self_ms += (us - (c == child_us.end() ? 0.0 : c->second)) / 1e3;
    const auto a = child_allocs.find(span.id);
    total.self_allocs += span.allocs - (a == child_allocs.end() ? 0 : a->second);
  }
  return totals;
}

std::vector<double> Tracer::durations_ms(const std::string& layer) const {
  std::vector<double> out;
  for (const Span& span : spans_) {
    if (layer == span.layer) out.push_back((span.end_us - span.begin_us) / 1e3);
  }
  return out;
}

bool Tracer::write_json(const std::string& path) const {
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) return false;
  std::fprintf(f, "[\n");
  for (std::size_t i = 0; i < spans_.size(); ++i) {
    const Span& s = spans_[i];
    std::fprintf(f,
                 "{\"id\":%llu,\"parent\":%llu,\"request\":%llu,"
                 "\"layer\":\"%s\",\"begin_us\":%.3f,\"end_us\":%.3f,"
                 "\"allocs\":%llu}%s\n",
                 static_cast<unsigned long long>(s.id),
                 static_cast<unsigned long long>(s.parent),
                 static_cast<unsigned long long>(s.request), s.layer,
                 s.begin_us, s.end_us,
                 static_cast<unsigned long long>(s.allocs),
                 i + 1 == spans_.size() ? "" : ",");
  }
  std::fprintf(f, "]\n");
  return std::fclose(f) == 0;
}

}  // namespace perfbench
