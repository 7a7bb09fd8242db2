// The benchmark's three workloads. Each builds its inputs from the seed
// (setup), proves one unit of work correct under the invariant checker
// (check), and then repeats that unit in the timed loop (run_unit), where
// every repeat must reproduce the checked unit's digest.
#pragma once

#include <cstddef>
#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "core/simulation.h"
#include "harness.h"

namespace perfbench {

/// One unit of timed work and its deterministic output.
struct UnitOutput {
  std::uint64_t digest = 0;
  std::uint64_t core_ticks = 0;  // simulated core-ticks
  std::uint64_t pic_records = 0;
  std::uint64_t gpm_records = 0;
};

/// The check pass: one unit under a CheckingSink, outside the timed loop.
struct CheckOutput {
  std::uint64_t digest = 0;
  std::size_t invariant_violations = 0;
  double sim_bips = 0.0;                // simulated throughput, BIPS
  double sim_tracking_error_pct = 0.0;  // mean |power - budget| / budget
};

/// Instruments of the traced pass; both null on the untraced path.
struct Instruments {
  Tracer* tracer = nullptr;
  SinkTimes* sink_times = nullptr;
};

/// A manager configuration the layer probes time on this workload's chip.
struct Member {
  std::string name;  // cpm_perf, cpm_thermal or maxbips
  cpm::core::SimulationConfig config;
};

/// The fleet the cluster-tier probes run: the workload's own fleet for
/// cluster_fleet, a small fleet of the workload's chip otherwise.
struct FleetShape {
  cpm::core::SimulationConfig base;
  std::size_t chips = 0;
  std::size_t shard_size = 0;
  std::size_t epochs = 0;
  double epoch_s = 1e-3;
  std::uint64_t seed = 0;
};

class Workload {
 public:
  virtual ~Workload() = default;

  /// Builds what the timed loop reuses: calibrated simulations, or the
  /// fleet. This is what setup_s times.
  virtual void setup(std::uint64_t seed, Tracer* tracer) = 0;
  virtual CheckOutput check() = 0;
  /// Runs one unit; appends host microseconds per GPM window (per cluster
  /// epoch for the fleet) to `window_us`.
  virtual UnitOutput run_unit(SampleSet& window_us, const Instruments& inst) = 0;
  /// Worker threads the timed loop uses.
  virtual std::size_t threads() const { return 1; }
  /// Manager configurations on this workload's chip, cpm_perf first.
  virtual std::vector<Member> members() const = 0;
  virtual FleetShape fleet() const = 0;
};

const std::vector<std::string>& workload_names();
/// Returns null for an unknown name.
std::unique_ptr<Workload> make_workload(const std::string& name);

/// The CPUs this process may use.
std::size_t host_threads();

}  // namespace perfbench
