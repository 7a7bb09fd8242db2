// Per-layer probes of the traced run. Each times public calls from outside
// on a twin built from the workload's own config and seed, and records a
// span around every call it times.
#pragma once

#include <cstddef>
#include <cstdint>

#include "core/simulation.h"
#include "harness.h"
#include "workloads.h"

namespace perfbench {

/// Host ns per simulated core-tick of each tick phase, timed standalone.
struct PhaseCosts {
  double workload_ns = 0.0;  // workload::WorkloadInstance::step
  double chip_ns = 0.0;      // sim::Chip::step (includes the workload pass)
  double power_ns = 0.0;     // power::PowerModel::chip_power_batch
  double thermal_ns = 0.0;   // thermal::RcThermalModel::step
};
PhaseCosts probe_phases(const cpm::core::SimulationConfig& config,
                        Tracer& tracer);

/// In-situ costs from SimulationRun::advance(one tick), by tick kind.
struct TickCosts {
  double tick_ns_per_core = 0.0;     // median tick without a boundary
  double pic_ns_per_island = 0.0;    // PIC-boundary tick minus plain tick
  double gpm_ns = 0.0;               // GPM-boundary tick minus PIC tick
};
/// Runs at the paper's 5 ticks per PIC interval, so plain, PIC and GPM
/// ticks all occur whatever the workload's own cadence.
TickCosts probe_ticks(const cpm::core::SimulationConfig& config,
                      std::size_t windows, Tracer& tracer);

/// Cluster-tier costs of a fleet.
struct FleetCosts {
  double epoch_us = 0.0;       // cluster wall per epoch at N threads
  double chip_epoch_us = 0.0;  // one chip's advance by one epoch, serially
  double overhead_frac = 0.0;  // 1 - sum of chip advances / 1-thread wall
  double parallel_eff = 0.0;   // (1-thread wall / N-thread wall) / N
  double cpu_ratio = 0.0;      // process CPU at N threads / at 1 thread
  double dispatch_us = 0.0;    // empty parallel_map over the shard count
  std::uint64_t epochs = 0;    // epochs run at N threads
};
FleetCosts probe_fleet(const FleetShape& shape, std::size_t threads,
                       Tracer& tracer);

}  // namespace perfbench
