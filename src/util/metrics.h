// Lock-cheap metrics registry: named counters (relaxed atomics), gauges
// (atomic doubles) and histograms (Welford aggregates from util/stats behind
// a spinlock). The management stack publishes into the process-wide
// Registry::global() -- Gpm/Pic invocation counts, record throughput,
// invariant-checker verdicts, parallel_map task counts -- and
// `cpm_sim_cli --metrics-out FILE` / Registry::write_json dump a sorted
// JSON snapshot. Metric objects live for the life of the registry, so
// publishers resolve a name once and keep the reference (hot paths never
// touch the registry map). The simulation itself never writes here from its
// tick, PIC or GPM path: runs count into plain per-run fields and fold them
// in once, at SimulationRun::finish(). See docs/OBSERVABILITY.md.
#pragma once

#include <atomic>
#include <cstdint>
#include <iosfwd>
#include <map>
#include <memory>
#include <mutex>
#include <string>

#include "util/stats.h"

namespace cpm::util {

/// Monotonic event count. Increments are relaxed atomics: safe from any
/// thread, never a lock, no cross-thread ordering implied.
class Counter {
 public:
  void add(std::uint64_t n = 1) noexcept {
    value_.fetch_add(n, std::memory_order_relaxed);
  }
  std::uint64_t value() const noexcept {
    return value_.load(std::memory_order_relaxed);
  }
  void reset() noexcept { value_.store(0, std::memory_order_relaxed); }

 private:
  std::atomic<std::uint64_t> value_{0};
};

/// Last-write-wins instantaneous value.
class Gauge {
 public:
  void set(double v) noexcept { value_.store(v, std::memory_order_relaxed); }
  double value() const noexcept {
    return value_.load(std::memory_order_relaxed);
  }
  void reset() noexcept { set(0.0); }

 private:
  std::atomic<double> value_{0.0};
};

/// Streaming distribution: count/mean/stddev/min/max/sum via Welford
/// (util::RunningStats) behind a spinlock -- observations are a handful of
/// flops, so a sleeping mutex would cost more than the update itself.
class Histogram {
 public:
  void observe(double x) noexcept {
    lock();
    stats_.add(x);
    unlock();
  }
  /// Folds a batch of observations aggregated elsewhere (one lock for the
  /// whole batch): how per-run statistics are published. Merging an empty
  /// RunningStats is a no-op.
  void merge(const RunningStats& batch) noexcept {
    lock();
    stats_.merge(batch);
    unlock();
  }
  /// Consistent snapshot of the aggregates.
  RunningStats snapshot() const noexcept {
    lock();
    const RunningStats copy = stats_;
    unlock();
    return copy;
  }
  void reset() noexcept {
    lock();
    stats_.reset();
    unlock();
  }

 private:
  void lock() const noexcept {
    while (busy_.test_and_set(std::memory_order_acquire)) {
    }
  }
  void unlock() const noexcept { busy_.clear(std::memory_order_release); }

  mutable std::atomic_flag busy_ = ATOMIC_FLAG_INIT;
  RunningStats stats_;
};

/// Name -> metric registry. Lookups take a mutex and are expected once per
/// publisher (cache the returned reference); the metric objects themselves
/// are allocated stably and never removed, so references stay valid for the
/// registry's lifetime.
class MetricsRegistry {
 public:
  /// The process-wide registry every built-in publisher uses.
  static MetricsRegistry& global();

  Counter& counter(const std::string& name);
  Gauge& gauge(const std::string& name);
  Histogram& histogram(const std::string& name);

  /// Point snapshot of a counter by name; 0 when the counter does not exist
  /// (reader-side convenience: never creates the metric).
  std::uint64_t counter_value(const std::string& name) const;

  /// Writes one JSON object, keys sorted by metric name:
  ///   {"counters":{...},"gauges":{...},"histograms":{"x":{"count":..}}}
  void write_json(std::ostream& os) const;

  /// Zeroes every registered metric (tests / per-run isolation). The metric
  /// objects survive, so cached references remain valid.
  void reset();

 private:
  mutable std::mutex mu_;
  std::map<std::string, std::unique_ptr<Counter>> counters_;
  std::map<std::string, std::unique_ptr<Gauge>> gauges_;
  std::map<std::string, std::unique_ptr<Histogram>> histograms_;
};

}  // namespace cpm::util
