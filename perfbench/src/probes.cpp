#include "probes.h"

#include <algorithm>
#include <vector>

#include "core/cluster.h"
#include "power/model.h"
#include "sim/chip.h"
#include "thermal/rc_model.h"
#include "util/parallel.h"
#include "util/rng.h"
#include "workload/workload.h"

namespace perfbench {
namespace {

using namespace cpm;

constexpr std::size_t kPaperTicksPerPic = 5;
constexpr std::size_t kPhaseBlocks = 31;
constexpr std::size_t kFleetRepeats = 7;
constexpr std::size_t kDispatchCalls = 2000;

/// Median over `kPhaseBlocks` blocks of `ticks` calls of `step`, in ns per
/// core-tick; one span per block.
template <typename Step>
double time_phase(Tracer& tracer, const char* name, std::size_t ticks,
                  std::size_t cores, Step&& step) {
  std::vector<double> per_core_ns;
  for (std::size_t b = 0; b < kPhaseBlocks; ++b) {
    tracer.open(name);
    for (std::size_t t = 0; t < ticks; ++t) step();
    const auto ns = static_cast<double>(tracer.close());
    per_core_ns.push_back(ns / static_cast<double>(ticks * cores));
  }
  return median(std::move(per_core_ns));
}

}  // namespace

PhaseCosts probe_phases(const core::SimulationConfig& config, Tracer& tracer) {
  Scope probe(&tracer, "probe.phases");
  const std::size_t cores = config.cmp.total_cores();
  const double dt = config.cmp.tick_seconds();
  // ~1 ms blocks whatever the chip size.
  const std::size_t ticks = std::max<std::size_t>(8, 25000 / cores);

  // Workload twins seeded and phase-offset exactly as sim::Chip seeds its
  // cores.
  util::Xoshiro256pp master(config.seed);
  std::vector<workload::WorkloadInstance> workloads;
  std::size_t core_index = 0;
  for (const auto& island : config.mix.islands) {
    for (const auto* profile : island) {
      const units::Milliseconds offset{1.7 * static_cast<double>(core_index)};
      workloads.emplace_back(*profile, master(), offset);
      ++core_index;
    }
  }
  sim::Chip chip(config.cmp, config.mix, config.seed);
  chip.set_record_cores(false);  // as SimulationRun runs it
  chip.step(dt);
  power::PowerModel power(config.cmp, config.island_leak_mults);
  thermal::RcThermalModel thermal(core::make_floorplan(cores),
                                  config.thermal_params);
  std::vector<double> leak(cores);
  for (std::size_t i = 0; i < chip.num_islands(); ++i) {
    for (std::size_t c = 0; c < chip.island_size(i); ++c) {
      leak[chip.island_offset(i) + c] = power.island_leak_mult(i);
    }
  }
  std::vector<double> core_power(cores, 0.0);

  PhaseCosts costs;
  double sink = 0.0;  // keeps the standalone workload results observable
  costs.workload_ns = time_phase(
      tracer, "workload::WorkloadInstance::step", ticks, cores, [&] {
        for (auto& w : workloads) sink += w.step(dt).cpi;
      });
  costs.chip_ns = time_phase(tracer, "sim::Chip::step", ticks, cores,
                             [&] { chip.step(dt); });
  const sim::ChipSoa& soa = chip.soa();
  costs.power_ns = time_phase(
      tracer, "power::PowerModel::chip_power_batch", ticks, cores, [&] {
        power.chip_power_batch(soa.utilization, soa.demand_activity,
                               soa.activity_idle, soa.ceff_scale, soa.voltage,
                               soa.freq_ghz, leak, thermal.temperatures(),
                               core_power);
      });
  costs.thermal_ns = time_phase(tracer, "thermal::RcThermalModel::step", ticks,
                                cores, [&] { thermal.step(core_power, dt); });
  volatile double observed = sink;
  (void)observed;
  return costs;
}

TickCosts probe_ticks(const core::SimulationConfig& config, std::size_t windows,
                      Tracer& tracer) {
  Scope probe(&tracer, "probe.ticks");
  core::SimulationConfig twin = config;
  twin.cmp.ticks_per_pic_interval = kPaperTicksPerPic;
  std::unique_ptr<core::Simulation> sim;
  {
    Scope span(&tracer, "Simulation::Simulation");
    sim = std::make_unique<core::Simulation>(twin);
  }
  core::BoundedSink sink;
  auto run = sim->start(sink);
  const double dt = twin.cmp.tick_seconds();
  const std::size_t per_gpm =
      kPaperTicksPerPic * twin.cmp.pic_invocations_per_gpm();
  std::vector<double> plain, pic, gpm;
  for (std::size_t k = 1; k <= windows * per_gpm; ++k) {
    const bool at_gpm = k % per_gpm == 0;
    const bool at_pic = k % kPaperTicksPerPic == 0;
    tracer.open(at_gpm  ? "SimulationRun::advance(tick+pic+gpm)"
                : at_pic ? "SimulationRun::advance(tick+pic)"
                         : "SimulationRun::advance(tick)");
    run->advance(dt);
    const auto ns = static_cast<double>(tracer.close());
    (at_gpm ? gpm : at_pic ? pic : plain).push_back(ns);
  }
  run->finish();
  const double plain_ns = median(plain);
  const double pic_ns = median(pic);
  TickCosts costs;
  costs.tick_ns_per_core =
      plain_ns / static_cast<double>(twin.cmp.total_cores());
  costs.pic_ns_per_island =
      (pic_ns - plain_ns) / static_cast<double>(twin.cmp.num_islands);
  costs.gpm_ns = median(gpm) - pic_ns;
  return costs;
}

FleetCosts probe_fleet(const FleetShape& shape, std::size_t threads,
                       Tracer& tracer) {
  Scope probe(&tracer, "probe.fleet");
  const auto build = [&](std::size_t run_threads) {
    Scope span(&tracer, "make_cluster_chips");
    return core::make_cluster_chips(shape.base, shape.chips, shape.seed, true,
                                    run_threads);
  };
  const double duration_s = shape.epoch_s * static_cast<double>(shape.epochs);

  // Twin fleet advanced serially, one chip-epoch at a time.
  auto chips = build(threads);
  std::vector<double> chip_epoch_us;
  std::vector<double> chip_sum_s;
  for (std::size_t rep = 0; rep < kFleetRepeats; ++rep) {
    std::vector<core::BoundedSink> sinks(chips.size());
    std::vector<std::unique_ptr<core::SimulationRun>> runs;
    for (std::size_t c = 0; c < chips.size(); ++c) {
      runs.push_back(chips[c]->start(sinks[c]));
    }
    double sum_ns = 0.0;
    for (std::size_t e = 0; e < shape.epochs; ++e) {
      for (auto& run : runs) {
        tracer.open("SimulationRun::advance(epoch)");
        run->advance(shape.epoch_s);
        const auto ns = static_cast<double>(tracer.close());
        chip_epoch_us.push_back(1e-3 * ns);
        sum_ns += ns;
      }
    }
    for (auto& run : runs) run->finish();
    chip_sum_s.push_back(1e-9 * sum_ns);
  }

  // The same fleet under the cluster tier at 1 thread and at N threads.
  const auto time_cluster = [&](std::vector<std::unique_ptr<core::Simulation>> fleet,
                                std::size_t run_threads, std::vector<double>& wall,
                                std::vector<double>& cpu) {
    core::ClusterConfig config;
    config.epoch_s = shape.epoch_s;
    config.shard_size = shape.shard_size;
    config.threads = run_threads;
    core::ClusterPowerManager manager(config, std::move(fleet));
    std::uint64_t epochs = 0;
    for (std::size_t rep = 0; rep < kFleetRepeats; ++rep) {
      const double cpu0 = process_cpu_s();
      tracer.open(run_threads == 1 ? "ClusterPowerManager::run(1 thread)"
                                   : "ClusterPowerManager::run(N threads)");
      epochs += manager.run(duration_s).epochs;
      wall.push_back(1e-9 * static_cast<double>(tracer.close()));
      cpu.push_back(process_cpu_s() - cpu0);
    }
    return epochs;
  };
  std::vector<double> wall1, cpu1, wall_n, cpu_n;
  time_cluster(std::move(chips), 1, wall1, cpu1);
  FleetCosts costs;
  costs.epochs = time_cluster(build(threads), threads, wall_n, cpu_n);

  const util::ShardPlan plan{shape.chips, shape.shard_size};
  std::vector<double> dispatch_us;
  for (std::size_t i = 0; i < kDispatchCalls; ++i) {
    tracer.open("util::parallel_map(empty)");
    util::parallel_map<char>(
        plan.num_shards(), [](std::size_t) { return char{0}; }, threads);
    dispatch_us.push_back(1e-3 * static_cast<double>(tracer.close()));
  }

  const double w1 = median(wall1);
  const double wn = median(wall_n);
  costs.epoch_us = 1e6 * wn / static_cast<double>(shape.epochs);
  costs.chip_epoch_us = median(chip_epoch_us);
  costs.overhead_frac = 1.0 - median(chip_sum_s) / w1;
  costs.parallel_eff = w1 / wn / static_cast<double>(threads);
  costs.cpu_ratio = median(cpu_n) / median(cpu1);
  costs.dispatch_us = median(dispatch_us);
  return costs;
}

}  // namespace perfbench
