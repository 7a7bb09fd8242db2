// determinism fixtures: process-global metric writes on the simulation run
// path. A comment naming MetricsRegistry::global() is not a finding.
#include <cstdint>

namespace fixture::sim {

struct Counter {
  void add(std::uint64_t) {}
};

struct MetricsRegistry {
  static MetricsRegistry& global();
  Counter& counter(const char* name);
};

struct Config {
  int global() const { return 1; }
};

void positive_tick_metric() {
  static Counter& ticks =
      MetricsRegistry::global().counter("chip.ticks");  // finding
  ticks.add(1);
}

std::uint64_t ticks_ = 0;

void negative_plain_field() { ++ticks_; }

int negative_other_global(const Config& config) { return config.global(); }

}  // namespace fixture::sim
