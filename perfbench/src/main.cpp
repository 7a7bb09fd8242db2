// cpm_perfbench: the repository benchmark. Run through perfbench/run.py,
// which builds it; see perfbench/README.md for the workloads and metrics.
//
//   cpm_perfbench --workload NAME [--seed N] [--seconds S] [--trace 0|1]
//                 [--out-dir DIR]
//   cpm_perfbench --list-metrics
//   cpm_perfbench --self-test
//
// The last line of stdout is the JSON result; the lines before it print the
// run's context and every metric with its unit and spread. With --out-dir
// the result set (context plus result) is also written there as JSON.
#include <cstdlib>
#include <exception>
#include <filesystem>
#include <fstream>
#include <iostream>
#include <string>

#include "bench.h"
#include "workloads.h"

namespace perfbench {
int run_self_tests();
}

namespace {

using namespace perfbench;

int usage(const std::string& error) {
  std::cerr << "cpm_perfbench: " << error << "\n"
            << "usage: cpm_perfbench --workload NAME [--seed N] [--seconds S]"
               " [--trace 0|1] [--out-dir DIR]\n"
            << "       cpm_perfbench --list-metrics | --self-test\n";
  return 2;
}

void list_metrics() {
  const auto object = [](const std::vector<MetricSpec>& specs) {
    std::string json = "{";
    for (std::size_t i = 0; i < specs.size(); ++i) {
      json += std::string(i ? ", " : "") + "\"" + specs[i].name + "\": \"" +
              specs[i].unit + "\"";
    }
    return json + "}";
  };
  std::string workloads;
  for (const std::string& name : workload_names()) {
    workloads += std::string(workloads.empty() ? "" : ", ") + "\"" + name + "\"";
  }
  std::cout << "{\"end_to_end\": " << object(end_to_end_metrics())
            << ", \"per_layer\": " << object(per_layer_metrics())
            << ", \"workloads\": [" << workloads << "]}\n";
}

}  // namespace

int main(int argc, char** argv) {
  Options options;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    if (arg == "--list-metrics") {
      list_metrics();
      return 0;
    }
    if (arg == "--self-test") return run_self_tests();
    if (i + 1 >= argc) return usage("missing value for " + arg);
    const std::string value = argv[++i];
    char* end = nullptr;
    if (arg == "--workload") {
      options.workload = value;
    } else if (arg == "--seed") {
      options.seed = std::strtoull(value.c_str(), &end, 10);
      if (value.empty() || *end != '\0') return usage("bad --seed " + value);
    } else if (arg == "--seconds") {
      options.seconds = std::strtod(value.c_str(), &end);
      if (value.empty() || *end != '\0' || !(options.seconds > 0.0) ||
          options.seconds > 3600.0) {
        return usage("bad --seconds " + value);
      }
    } else if (arg == "--trace") {
      if (value != "0" && value != "1") return usage("bad --trace " + value);
      options.trace = value == "1";
    } else if (arg == "--out-dir") {
      options.out_dir = value;
    } else {
      return usage("unknown argument " + arg);
    }
  }
  if (!make_workload(options.workload)) {
    return usage("unknown or missing --workload '" + options.workload + "'");
  }

  try {
    const Report report = run_benchmark(options);
    std::cout << "context " << report.context_json << "\n";
    std::cout << "check digest 0x" << std::hex << report.check_digest
              << std::dec << "; " << report.failed << " failed of "
              << report.attempted << " attempted (error_rate "
              << static_cast<double>(report.failed) /
                     static_cast<double>(report.attempted)
              << ")\n";
    for (const Metric& m : report.metrics) {
      std::cout << "metric " << m.name << " = " << m.value << " " << m.unit
                << (m.note.empty() ? "" : "  [" + m.note + "]") << "\n";
    }
    const std::string result = result_json(report);
    if (!options.out_dir.empty()) {
      std::error_code ec;
      std::filesystem::create_directories(options.out_dir, ec);
      const std::string path = options.out_dir + "/result-" +
                               options.workload + "-seed" +
                               std::to_string(options.seed) + "-trace" +
                               (options.trace ? "1" : "0") + ".json";
      std::ofstream out(path);
      out << "{\"context\": " << report.context_json
          << ", \"result\": " << result << "}\n";
      if (!out) std::cerr << "cpm_perfbench: could not write " << path << "\n";
    }
    std::cout << result << std::endl;
  } catch (const std::exception& e) {
    std::cerr << "cpm_perfbench: " << e.what() << "\n";
    return 1;
  }
  return 0;
}
