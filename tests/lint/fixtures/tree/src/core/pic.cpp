// determinism fixtures: a PIC publishing from every invocation (finding) and
// the run's single fold site (suppressed with a reason).
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

void positive_per_invocation() {
  fixture::util::MetricsRegistry::global().counter("pic.invocations").add(1);  // finding
}

void suppressed_fold(std::uint64_t invocations) {
  // cpm-lint: allow(determinism) fixture for the per-run fold site, called once per run
  fixture::util::MetricsRegistry::global().counter("pic.invocations").add(invocations);
}

}  // namespace fixture::core
