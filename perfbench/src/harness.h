// Measurement plumbing for the benchmark program: host clocks, order
// statistics, the FNV-1a output digest, the span tracer of the traced run,
// and the forwarding timing RecordSink. Nothing here touches the simulator's
// internals -- every number is taken from outside a public call.
#pragma once

#include <chrono>
#include <cstddef>
#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "core/cluster.h"
#include "core/record_sink.h"
#include "core/simulation.h"

namespace perfbench {

/// Host monotonic time in nanoseconds.
inline std::int64_t now_ns() noexcept {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

/// CPU time of the whole process (every thread), seconds.
double process_cpu_s();
/// Peak resident set size of this process image so far, MiB.
double peak_rss_mb();

/// Quantile with linear interpolation between order statistics (q in [0,1]).
double quantile(std::vector<double> values, double q);
inline double median(std::vector<double> values) {
  return quantile(std::move(values), 0.5);
}
/// Mean of the values left when the lowest and the highest `share` of them
/// (each rounded down to whole values) are dropped.
double trimmed_mean(std::vector<double> values, double share);

/// Bounded, uniformly thinned sample buffer: keeps every stride-th sample and
/// doubles the stride when full. Storage is reserved up front, so the
/// buffer's footprint does not grow with how fast the host runs (which
/// would leak host speed into peak_rss_mb).
class SampleSet {
 public:
  explicit SampleSet(std::size_t capacity = 1 << 16);
  void add(double value);
  const std::vector<double>& values() const noexcept { return values_; }
  std::size_t seen() const noexcept { return seen_; }
  /// Empties the buffer and resets the stride; the storage is kept.
  void clear() noexcept;

 private:
  std::size_t capacity_;
  std::size_t stride_ = 1;
  std::size_t seen_ = 0;
  std::vector<double> values_;
};

/// Moves the calling thread over every CPU the process may use, one CPU per
/// next() call, and restores the original affinity when destroyed. On a
/// shared host the CPUs can differ in speed (a busy SMT sibling on the
/// host side, say); rotating makes a single-threaded run weigh every CPU
/// equally instead of whichever one the scheduler picked.
class CpuRotation {
 public:
  /// Disabled (no pinning) when `enabled` is false or the
  /// process may use a single CPU only.
  explicit CpuRotation(bool enabled);
  ~CpuRotation();
  CpuRotation(const CpuRotation&) = delete;
  CpuRotation& operator=(const CpuRotation&) = delete;

  /// Pins the thread to the next CPU.
  void next();

 private:
  std::vector<int> original_;  // the affinity to restore
  std::vector<int> cpus_;
  std::size_t cursor_ = 0;
};

/// FNV-1a, 64-bit, over the bit patterns of the values fed to it.
class Digest {
 public:
  void add(std::uint64_t value) noexcept;
  void add(double value) noexcept;
  void add(const std::vector<double>& values) noexcept;
  std::uint64_t value() const noexcept { return hash_; }

 private:
  std::uint64_t hash_ = 0xcbf29ce484222325ULL;
};

/// Digest of one run's deterministic outputs: records seen, total and
/// per-island instructions and energy, and the sink's exact GPM aggregates
/// (which cover every record's power and budget bits).
void add_run_digest(Digest& digest, const cpm::core::SimulationResult& result,
                    const cpm::core::RecordSink& sink);
/// Digest of a cluster run: the epoch power and budget series and every
/// chip's summary statistics.
void add_cluster_digest(Digest& digest, const cpm::core::ClusterResult& result);

/// In-memory span recorder for the traced run. Spans nest on one thread
/// (the benchmark's main thread); each keeps its name, start, end and the
/// index of its enclosing span. Past `capacity` spans are still timed but
/// no longer stored, so memory stays bounded on long runs.
class Tracer {
 public:
  explicit Tracer(std::size_t capacity = 1 << 16);

  void open(const char* name);
  /// Closes the innermost open span and returns its duration in ns.
  std::int64_t close();

  std::size_t recorded() const noexcept { return spans_.size(); }
  std::size_t dropped() const noexcept { return dropped_; }
  /// Writes the stored spans as a Chrome trace_event JSON file, with
  /// `metadata_json` (a JSON object) under "otherData".
  bool write_chrome(const std::string& path,
                    const std::string& metadata_json) const;

 private:
  struct Span {
    const char* name;
    std::int64_t start_ns;
    std::int64_t end_ns;
    std::int64_t parent;  // index into spans_, -1 for a root span
  };
  struct Open {
    std::int64_t index;  // -1 when the span was not stored
    std::int64_t start_ns;
  };
  std::size_t capacity_;
  std::size_t dropped_ = 0;
  std::int64_t origin_ns_;
  std::vector<Span> spans_;
  std::vector<Open> stack_;
};

/// RAII span; a null tracer makes it a no-op (the untraced path).
class Scope {
 public:
  Scope(Tracer* tracer, const char* name) : tracer_(tracer) {
    if (tracer_) tracer_->open(name);
  }
  ~Scope() {
    if (tracer_) tracer_->close();
  }
  Scope(const Scope&) = delete;
  Scope& operator=(const Scope&) = delete;

 private:
  Tracer* tracer_;
};

/// Host time of each record-sink call, per record kind.
struct SinkTimes {
  explicit SinkTimes(std::size_t capacity = 1 << 14)
      : pic_ns(capacity), gpm_ns(capacity) {}
  SampleSet pic_ns;
  SampleSet gpm_ns;
};

/// Forwarding RecordSink decorator that times each call into the wrapped
/// sink. It forwards through the inner sink's public entry points, so the
/// inner sink's counters and aggregates are exactly what they would be
/// without the decorator.
class TimingSink : public cpm::core::RecordSink {
 public:
  /// Borrows the inner sink.
  TimingSink(cpm::core::RecordSink& inner, SinkTimes& times)
      : inner_(&inner), times_(&times) {}
  /// Owns the inner sink.
  TimingSink(std::unique_ptr<cpm::core::RecordSink> inner, SinkTimes& times)
      : owned_inner_(std::move(inner)), inner_(owned_inner_.get()),
        times_(&times) {}

 protected:
  void on_pic(const cpm::core::PicIntervalRecord& rec) override;
  void on_gpm(const cpm::core::GpmIntervalRecord& rec) override;
  void on_finish(cpm::core::SimulationResult& result) override;

 private:
  std::unique_ptr<cpm::core::RecordSink> owned_inner_;
  cpm::core::RecordSink* inner_;
  SinkTimes* times_;
};

}  // namespace perfbench
