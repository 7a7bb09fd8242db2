#include "workloads.h"

#include <sched.h>

#include <algorithm>
#include <cmath>
#include <utility>

#include "core/cluster.h"
#include "core/experiment.h"
#include "core/invariant_checker.h"
#include "workload/mixes.h"

namespace perfbench {
namespace {

using namespace cpm;

constexpr double kBudgetFraction = 0.8;

std::uint64_t ticks_per_window(const core::SimulationConfig& config) {
  return config.cmp.ticks_per_pic_interval *
         config.cmp.pic_invocations_per_gpm();
}

/// A fresh run on `sim`, advanced one GPM window per call.
core::SimulationResult run_windows(core::Simulation& sim,
                                   core::RecordSink& sink, std::size_t windows,
                                   SampleSet* window_us, Tracer* tracer) {
  std::unique_ptr<core::SimulationRun> run;
  {
    Scope span(tracer, "Simulation::start");
    run = sim.start(sink);
  }
  const double window_s = sim.config().cmp.gpm_interval_s;
  for (std::size_t w = 0; w < windows; ++w) {
    const std::int64_t t0 = now_ns();
    {
      Scope span(tracer, "SimulationRun::advance");
      run->advance(window_s);
    }
    if (window_us) window_us->add(1e-3 * static_cast<double>(now_ns() - t0));
  }
  Scope span(tracer, "SimulationRun::finish");
  return run->finish();
}

/// One timed single-chip run into `inner` (behind the timing decorator on
/// the traced path); folds its digest and counts into `digest` and `out`.
void timed_run(core::Simulation& sim, core::RecordSink& inner,
               std::size_t windows, SampleSet& window_us,
               const Instruments& inst, Digest& digest, UnitOutput& out) {
  core::SimulationResult result;
  if (inst.sink_times) {
    TimingSink timing(inner, *inst.sink_times);
    result = run_windows(sim, timing, windows, &window_us, inst.tracer);
  } else {
    result = run_windows(sim, inner, windows, &window_us, inst.tracer);
  }
  add_run_digest(digest, result, inner);
  const core::SimulationConfig& config = sim.config();
  out.core_ticks +=
      windows * ticks_per_window(config) * config.cmp.total_cores();
  out.pic_records += result.pic_records_seen;
  out.gpm_records += result.gpm_records_seen;
}

/// Mean absolute chip-power tracking error of a run, percent of the budget,
/// from the sink's exact tracking aggregates (which skip the two warm-up
/// windows).
double tracking_error_pct(const core::RecordSink& sink) {
  return 100.0 * sink.tracking().metrics().mean_abs_error;
}

/// The check pass of one single-chip run: the same run as timed_run, with
/// the invariant checker in front of the same kind of sink.
template <typename Inner>
void checked_run(core::Simulation& sim, std::size_t windows, Digest& digest,
                 CheckOutput& out, double& bips_sum, double& error_sum) {
  core::InvariantChecker checker(core::checker_config_for(sim));
  Inner inner;
  core::CheckingSink checking(checker, inner);
  const core::SimulationResult result =
      run_windows(sim, checking, windows, nullptr, nullptr);
  add_run_digest(digest, result, inner);
  out.invariant_violations += checker.violations().size();
  bips_sum += result.avg_chip_bips;
  error_sum += tracking_error_pct(inner);
}

/// cpm_perf, cpm_thermal and maxbips on the chip of `perf`.
std::vector<Member> members_on(const core::SimulationConfig& perf) {
  return {{"cpm_perf", perf},
          {"cpm_thermal", core::with_policy(perf, core::PolicyKind::kThermal)},
          {"maxbips", core::with_manager(perf, core::ManagerKind::kMaxBips)}};
}

// chip_tick: one 64-core chip (Mix-3, 16 islands x 4 cores) under CPM with
// the performance policy and a bounded sink, on one thread. The tick kernel
// does ~90 % of the work, so workload/sim/power/thermal changes show here
// and controller changes do not. A unit is a 0.5 s (simulated) run, short
// enough that several fit in one slice of the timed loop.
class ChipTick final : public Workload {
 public:
  static constexpr std::size_t kWindows = 100;

  void setup(std::uint64_t seed, Tracer* tracer) override {
    seed_ = seed;
    Scope span(tracer, "Simulation::Simulation");
    sim_ = std::make_unique<core::Simulation>(config());
  }

  CheckOutput check() override {
    Digest digest;
    CheckOutput out;
    double bips = 0.0, error = 0.0;
    checked_run<core::BoundedSink>(*sim_, kWindows, digest, out, bips, error);
    out.digest = digest.value();
    out.sim_bips = bips;
    out.sim_tracking_error_pct = error;
    return out;
  }

  UnitOutput run_unit(SampleSet& window_us, const Instruments& inst) override {
    Digest digest;
    UnitOutput out;
    core::BoundedSink sink;
    timed_run(*sim_, sink, kWindows, window_us, inst, digest, out);
    out.digest = digest.value();
    return out;
  }

  std::vector<Member> members() const override { return members_on(config()); }

  FleetShape fleet() const override {
    // Eight chips in two-chip shards, 50 epochs of 1 ms.
    return {config(), 8, 2, 50, 1e-3, seed_};
  }

 private:
  core::SimulationConfig config() const {
    return core::scaled_config(64, kBudgetFraction, seed_);
  }

  std::uint64_t seed_ = 0;
  std::unique_ptr<core::Simulation> sim_;
};

// control_sweep: back-to-back short runs, each a fresh start() on a
// calibrated Simulation with a full in-memory trace -- how the figure sweeps
// use the library. The PIC runs every tick (Fig. 17's fastest control
// interval), so the PIC/GPM boundaries and record sinking, not the tick,
// dominate. A unit is one 0.25 s (simulated) run of each rotation member:
// CPM-performance and MaxBIPS on the 8-core paper chip, CPM-thermal on the
// thermal-study chip.
class ControlSweep final : public Workload {
 public:
  static constexpr std::size_t kWindows = 50;

  void setup(std::uint64_t seed, Tracer* tracer) override {
    seed_ = seed;
    const std::vector<Member> rotation = members();
    sims_.clear();
    Scope span(tracer, "Simulation::Simulation");
    sims_.push_back(std::make_unique<core::Simulation>(rotation[0].config));
    sims_.push_back(std::make_unique<core::Simulation>(rotation[1].config));
    // MaxBIPS reuses the performance member's calibration, as the figure
    // sweeps' manager matchups do.
    sims_.push_back(std::make_unique<core::Simulation>(
        rotation[2].config, sims_[0]->calibration(),
        sims_[0]->max_chip_power()));
  }

  CheckOutput check() override {
    Digest digest;
    CheckOutput out;
    double bips = 0.0, error = 0.0;
    for (auto& sim : sims_) {
      checked_run<core::InMemorySink>(*sim, kWindows, digest, out, bips, error);
    }
    out.digest = digest.value();
    out.sim_bips = bips / static_cast<double>(sims_.size());
    out.sim_tracking_error_pct = error / static_cast<double>(sims_.size());
    return out;
  }

  UnitOutput run_unit(SampleSet& window_us, const Instruments& inst) override {
    Digest digest;
    UnitOutput out;
    for (auto& sim : sims_) {
      core::InMemorySink sink;
      timed_run(*sim, sink, kWindows, window_us, inst, digest, out);
    }
    out.digest = digest.value();
    return out;
  }

  std::vector<Member> members() const override {
    core::SimulationConfig perf = core::default_config(kBudgetFraction, seed_);
    core::SimulationConfig thermal = core::thermal_config(
        core::PolicyKind::kThermal, kBudgetFraction, seed_);
    perf.cmp.ticks_per_pic_interval = 1;
    thermal.cmp.ticks_per_pic_interval = 1;
    return {{"cpm_perf", perf},
            {"cpm_thermal", thermal},
            {"maxbips", core::with_manager(perf, core::ManagerKind::kMaxBips)}};
  }

  FleetShape fleet() const override {
    // Eight chips in two-chip shards, 50 epochs of 1 ms.
    return {members()[0].config, 8, 2, 50, 1e-3, seed_};
  }

 private:
  std::uint64_t seed_ = 0;
  std::vector<std::unique_ptr<core::Simulation>> sims_;
};

// cluster_fleet: 64 small chips (2 islands x 2 cores, mixes drawn per chip)
// under the cluster tier with 1 ms epochs and 4-chip shards, on half the
// CPUs. The only workload on the thread pool: per-epoch dispatch, the
// shard-order reduction and cross-thread contention show here. A unit is one
// 50-epoch cluster run. Every epoch ends at a barrier, so a stall of any
// worker's CPU stalls the epoch; on a shared host the vCPUs lose ~13 % of
// their time to steal when all of them are busy, and at one thread per CPU
// the epoch tail spread 4x between runs. Half the CPUs leave the scheduler
// room to move a worker off a stalled CPU.
class ClusterFleet final : public Workload {
 public:
  static constexpr std::size_t kChips = 64;
  static constexpr std::size_t kShardSize = 4;
  static constexpr std::size_t kEpochs = 50;
  static constexpr double kEpochS = 1e-3;

  void setup(std::uint64_t seed, Tracer* tracer) override {
    seed_ = seed;
    manager_.reset();
    std::vector<std::unique_ptr<core::Simulation>> chips;
    {
      Scope span(tracer, "make_cluster_chips");
      chips = core::make_cluster_chips(base(), kChips, seed_, true, threads());
    }
    chip0_ = chips.front()->config();
    core::ClusterConfig config = cluster_config(threads());
    config.sink_factory = [this](std::size_t chip) { return make_sink(chip); };
    manager_ =
        std::make_unique<core::ClusterPowerManager>(config, std::move(chips));
  }

  // The check pass builds its own fleet at one thread, so the timed runs at
  // N threads also prove the fleet and its results thread-count invariant.
  CheckOutput check() override {
    auto chips = core::make_cluster_chips(base(), kChips, seed_, true, 1);
    std::vector<std::unique_ptr<core::InvariantChecker>> checkers;
    std::vector<std::unique_ptr<core::BoundedSink>> inner;
    for (const auto& chip : chips) {
      checkers.push_back(std::make_unique<core::InvariantChecker>(
          core::checker_config_for(*chip)));
      inner.push_back(std::make_unique<core::BoundedSink>());
    }
    core::ClusterConfig config = cluster_config(1);
    config.sink_factory = [&checkers, &inner](std::size_t chip) {
      return std::make_unique<core::CheckingSink>(*checkers[chip],
                                                  *inner[chip]);
    };
    core::ClusterPowerManager manager(config, std::move(chips));
    const core::ClusterResult result = manager.run(duration_s());

    Digest digest;
    add_cluster_digest(digest, result);
    CheckOutput out;
    out.digest = digest.value();
    out.invariant_violations = result.invariant_violations;
    double error = 0.0;
    for (std::size_t c = 0; c < kChips; ++c) {
      out.invariant_violations += checkers[c]->violations().size();
      error += tracking_error_pct(*inner[c]);
    }
    out.sim_bips = result.total_instructions / (duration_s() * 1e9);
    out.sim_tracking_error_pct = error / static_cast<double>(kChips);
    return out;
  }

  UnitOutput run_unit(SampleSet& window_us, const Instruments& inst) override {
    if (inst.sink_times) chip_sink_times_.assign(kChips, SinkTimes(1 << 10));
    timing_sinks_ = inst.sink_times != nullptr;
    core::ClusterResult result;
    const std::int64_t t0 = now_ns();
    {
      Scope span(inst.tracer, "ClusterPowerManager::run");
      result = manager_->run(duration_s());
    }
    window_us.add(1e-3 * static_cast<double>(now_ns() - t0) /
                  static_cast<double>(kEpochs));
    timing_sinks_ = false;
    if (inst.sink_times) {
      for (const SinkTimes& chip : chip_sink_times_) {
        for (const double v : chip.pic_ns.values()) inst.sink_times->pic_ns.add(v);
        for (const double v : chip.gpm_ns.values()) inst.sink_times->gpm_ns.add(v);
      }
    }

    Digest digest;
    add_cluster_digest(digest, result);
    UnitOutput out;
    out.digest = digest.value();
    const core::SimulationConfig chip = base();
    const auto ticks = static_cast<std::uint64_t>(
        std::llround(duration_s() / chip.cmp.tick_seconds()));
    out.core_ticks = kChips * chip.cmp.total_cores() * ticks;
    for (const core::ClusterChipStats& stats : result.chips) {
      out.pic_records += stats.pic_records_seen;
      out.gpm_records += stats.gpm_records_seen;
    }
    return out;
  }

  std::size_t threads() const override {
    return std::max<std::size_t>(1, host_threads() / 2);
  }

  std::vector<Member> members() const override {
    core::SimulationConfig perf = chip0_;
    perf.budget_fraction = kBudgetFraction;
    return members_on(perf);
  }

  FleetShape fleet() const override {
    return {base(), kChips, kShardSize, kEpochs, kEpochS, seed_};
  }

 private:
  static core::SimulationConfig base() {
    // Chips run at their whole max power; the cluster tier provisions them.
    core::SimulationConfig config = core::default_config(1.0, 1);
    config.cmp.num_islands = 2;
    config.cmp.cores_per_island = 2;
    config.mix = workload::mix1_regrouped(2);
    config.mix.islands.resize(2);
    return config;
  }

  static core::ClusterConfig cluster_config(std::size_t threads) {
    core::ClusterConfig config;
    config.epoch_s = kEpochS;
    config.shard_size = kShardSize;
    config.threads = threads;
    return config;
  }

  static double duration_s() { return kEpochS * static_cast<double>(kEpochs); }

  std::unique_ptr<core::RecordSink> make_sink(std::size_t chip) {
    auto bounded = std::make_unique<core::BoundedSink>();
    if (!timing_sinks_) return bounded;
    return std::make_unique<TimingSink>(std::move(bounded),
                                        chip_sink_times_[chip]);
  }

  std::uint64_t seed_ = 0;
  core::SimulationConfig chip0_;
  std::unique_ptr<core::ClusterPowerManager> manager_;
  // Per-chip sink timings: each chip's sink is only called from the thread
  // advancing that chip, so the slots need no synchronisation.
  bool timing_sinks_ = false;
  std::vector<SinkTimes> chip_sink_times_;
};

}  // namespace

const std::vector<std::string>& workload_names() {
  static const std::vector<std::string> names = {"chip_tick", "control_sweep",
                                                 "cluster_fleet"};
  return names;
}

std::unique_ptr<Workload> make_workload(const std::string& name) {
  if (name == "chip_tick") return std::make_unique<ChipTick>();
  if (name == "control_sweep") return std::make_unique<ControlSweep>();
  if (name == "cluster_fleet") return std::make_unique<ClusterFleet>();
  return nullptr;
}

std::size_t host_threads() {
  // Read once, on the first call, before any CPU rotation pins the thread.
  static const std::size_t threads = [] {
    cpu_set_t set;
    CPU_ZERO(&set);
    if (sched_getaffinity(0, sizeof set, &set) != 0) return std::size_t{1};
    return static_cast<std::size_t>(std::max(1, CPU_COUNT(&set)));
  }();
  return threads;
}

}  // namespace perfbench
