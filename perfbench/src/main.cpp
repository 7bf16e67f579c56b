/// RF-Prism end-to-end benchmark program.
///
///   rfprism_bench --workload <serve-2d|shelf-3d|stream-track>
///                    --seed <n> --seconds <s> --trace <0|1>
///                    [--corrupt-reference] [--out-dir <dir>]
///
/// Prints `key value` context lines, then one JSON result object as the
/// last line of standard output. Exits 0 when every output matched its
/// reference, 1 when one did not, 2 on bad usage.

#include <unistd.h>

#include <cstdio>
#include <cstdlib>
#include <string>

#include "harness.hpp"
#include "rfp/simd/dispatch.hpp"
#include "workloads.hpp"

#ifndef PERFBENCH_BUILD_TYPE
#define PERFBENCH_BUILD_TYPE "unknown"
#endif

namespace {

using perfbench::Options;
using perfbench::Outcome;

[[noreturn]] void usage(const char* why) {
  std::fprintf(stderr,
               "error: %s\nusage: rfprism_bench --workload "
               "<serve-2d|shelf-3d|stream-track> --seed <n> --seconds <s> "
               "--trace <0|1> [--corrupt-reference] [--out-dir <dir>]\n",
               why);
  std::exit(2);
}

Options parse(int argc, char** argv) {
  Options options;
  bool have_workload = false;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    const auto value = [&]() -> std::string {
      if (i + 1 >= argc) usage(("missing value for " + arg).c_str());
      return argv[++i];
    };
    if (arg == "--workload") {
      options.workload = value();
      have_workload = true;
    } else if (arg == "--seed") {
      options.seed = std::strtoull(value().c_str(), nullptr, 10);
    } else if (arg == "--seconds") {
      options.seconds = std::atof(value().c_str());
      if (!(options.seconds > 0.0)) usage("--seconds must be positive");
    } else if (arg == "--trace") {
      const std::string v = value();
      if (v != "0" && v != "1") usage("--trace takes 0 or 1");
      options.trace = v == "1";
    } else if (arg == "--corrupt-reference") {
      options.corrupt_reference = true;
    } else if (arg == "--out-dir") {
      options.out_dir = value();
    } else {
      usage(("unknown argument " + arg).c_str());
    }
  }
  if (!have_workload) usage("--workload is required");
  return options;
}

void print_json_string(const std::string& s) {
  std::putchar('"');
  for (const char ch : s) {
    if (ch == '"' || ch == '\\') std::putchar('\\');
    std::putchar(ch);
  }
  std::putchar('"');
}

}  // namespace

int main(int argc, char** argv) {
  const Options options = parse(argc, argv);
  Outcome out;
  if (options.workload == "serve-2d") {
    out = perfbench::run_serve_2d(options);
  } else if (options.workload == "shelf-3d") {
    out = perfbench::run_shelf_3d(options);
  } else if (options.workload == "stream-track") {
    out = perfbench::run_stream_track(options);
  } else {
    usage(("unknown workload " + options.workload).c_str());
  }

  // Context block: what produced these numbers.
  std::printf("context nproc %ld\n", sysconf(_SC_NPROCESSORS_ONLN));
  std::printf("context simd %s\n", rfp::simd::name(rfp::simd::active()));
  std::printf("context build_type %s\n", PERFBENCH_BUILD_TYPE);
  std::printf("context compiler %s\n", __VERSION__);
  std::printf("context workload %s seed %llu seconds %g trace %d\n",
              options.workload.c_str(),
              static_cast<unsigned long long>(options.seed), options.seconds,
              options.trace ? 1 : 0);
  for (const auto& [key, value] : out.notes) {
    std::printf("%s %s\n", key.c_str(), value.c_str());
  }
  for (const std::string& m : out.mismatches) {
    std::printf("mismatch %s\n", m.c_str());
  }

  std::printf("{\"correct\": %s, \"attempted\": %llu, \"failed\": %llu, "
              "\"metrics\": {",
              out.correct ? "true" : "false",
              static_cast<unsigned long long>(out.attempted),
              static_cast<unsigned long long>(out.failed));
  for (std::size_t i = 0; i < out.metrics.size(); ++i) {
    const perfbench::Metric& m = out.metrics[i];
    if (i > 0) std::printf(", ");
    print_json_string(m.name);
    std::printf(": {\"value\": %.17g, \"unit\": ", m.value);
    print_json_string(m.unit);
    std::printf("}");
  }
  std::printf("}}\n");
  std::fflush(stdout);
  return out.correct ? 0 : 1;
}
