// determinism fixtures: the cluster tier publishes once per epoch from its
// calling thread; it is not on the run path, so this is not a finding.
#include <cstdint>

namespace fixture::util {
struct Counter {
  void add(std::uint64_t) {}
};
struct MetricsRegistry {
  static MetricsRegistry& global();
  Counter& counter(const char* name);
};
}  // namespace fixture::util

namespace fixture::core {

void negative_epoch_metric() {
  fixture::util::MetricsRegistry::global().counter("cluster.epochs").add(1);
}

}  // namespace fixture::core
