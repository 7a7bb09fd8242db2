// One benchmark run: set-up, the check pass, and either the untraced timed
// loop (end-to-end metrics) or the traced pass plus layer probes (per-layer
// metrics).
#pragma once

#include <cstdint>
#include <string>
#include <vector>

namespace perfbench {

struct MetricSpec {
  const char* name;
  const char* unit;
};
/// Every metric the benchmark emits, by name and unit (BENCHMARK.json lists
/// the same, which the self-test checks).
const std::vector<MetricSpec>& end_to_end_metrics();
const std::vector<MetricSpec>& per_layer_metrics();

inline constexpr std::uint64_t kDefaultSeed = 42;

struct Options {
  std::string workload;
  std::uint64_t seed = kDefaultSeed;
  double seconds = 10.0;
  bool trace = false;
  /// Where the run writes its result set and, when traced, its Chrome
  /// trace; nothing is written when empty.
  std::string out_dir;
};

struct Metric {
  std::string name;
  std::string unit;
  double value = 0.0;
  std::string note;  // how the value was taken, for the readable report
};

struct Report {
  std::size_t attempted = 0;
  std::size_t failed = 0;
  std::vector<Metric> metrics;
  std::string context_json;  // host, threads, seed, build
  std::uint64_t check_digest = 0;
};

/// Throws std::invalid_argument for an unknown workload.
Report run_benchmark(const Options& options);

/// The last stdout line of a run.
std::string result_json(const Report& report);

}  // namespace perfbench
