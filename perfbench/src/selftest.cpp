// The benchmark's own self-tests (cpm_perfbench --self-test): the timing
// decorator forwards records bit for bit, cluster digests do not depend on
// the thread count, every workload's inputs are a function of the seed, and
// every named metric is emitted with its unit.
#include <cmath>
#include <cstring>
#include <iostream>
#include <string>

#include "bench.h"
#include "core/cluster.h"
#include "core/experiment.h"
#include "harness.h"
#include "workloads.h"

namespace perfbench {
namespace {

using namespace cpm;

int failures = 0;

void expect(bool ok, const std::string& what) {
  std::cout << (ok ? "ok   " : "FAIL ") << what << "\n";
  if (!ok) ++failures;
}

bool same_bits(double a, double b) { return std::memcmp(&a, &b, sizeof a) == 0; }

bool same_bits(const std::vector<double>& a, const std::vector<double>& b) {
  if (a.size() != b.size()) return false;
  for (std::size_t i = 0; i < a.size(); ++i) {
    if (!same_bits(a[i], b[i])) return false;
  }
  return true;
}

bool same_records(const core::SimulationResult& a,
                  const core::SimulationResult& b) {
  if (a.pic_records.size() != b.pic_records.size() ||
      a.gpm_records.size() != b.gpm_records.size()) {
    return false;
  }
  for (std::size_t i = 0; i < a.pic_records.size(); ++i) {
    const core::PicIntervalRecord& x = a.pic_records[i];
    const core::PicIntervalRecord& y = b.pic_records[i];
    if (!same_bits(x.time_s, y.time_s) || x.island != y.island ||
        !same_bits(x.target_w, y.target_w) ||
        !same_bits(x.sensed_w, y.sensed_w) ||
        !same_bits(x.actual_w, y.actual_w) ||
        !same_bits(x.utilization, y.utilization) ||
        !same_bits(x.bips, y.bips) || !same_bits(x.freq_ghz, y.freq_ghz) ||
        x.dvfs_level != y.dvfs_level) {
      return false;
    }
  }
  for (std::size_t i = 0; i < a.gpm_records.size(); ++i) {
    const core::GpmIntervalRecord& x = a.gpm_records[i];
    const core::GpmIntervalRecord& y = b.gpm_records[i];
    if (!same_bits(x.time_s, y.time_s) ||
        !same_bits(x.island_alloc_w, y.island_alloc_w) ||
        !same_bits(x.island_actual_w, y.island_actual_w) ||
        !same_bits(x.island_bips, y.island_bips) ||
        !same_bits(x.chip_actual_w, y.chip_actual_w) ||
        !same_bits(x.chip_budget_w, y.chip_budget_w) ||
        !same_bits(x.chip_bips, y.chip_bips) ||
        !same_bits(x.max_temp_c, y.max_temp_c)) {
      return false;
    }
  }
  return true;
}

void decorator_forwards_bit_for_bit() {
  for (const core::ManagerKind manager :
       {core::ManagerKind::kCpm, core::ManagerKind::kMaxBips}) {
    core::SimulationConfig config =
        core::with_manager(core::default_config(0.8, 7), manager);
    config.cmp.ticks_per_pic_interval = 1;
    core::Simulation sim(config);
    core::InMemorySink plain;
    const core::SimulationResult direct = sim.run(0.05, plain);
    core::InMemorySink inner;
    SinkTimes times;
    TimingSink timing(inner, times);
    const core::SimulationResult decorated = sim.run(0.05, timing);
    expect(!direct.pic_records.empty() && same_records(direct, decorated),
           "timing decorator forwards every record bit for bit");
    expect(times.pic_ns.seen() == direct.pic_records_seen &&
               times.gpm_ns.seen() == direct.gpm_records_seen,
           "timing decorator times every sink call");
  }
}

std::uint64_t fleet_digest(const FleetShape& shape, std::size_t threads) {
  auto chips = core::make_cluster_chips(shape.base, shape.chips, shape.seed,
                                        true, threads);
  core::ClusterConfig config;
  config.epoch_s = shape.epoch_s;
  config.shard_size = shape.shard_size;
  config.threads = threads;
  core::ClusterPowerManager manager(config, std::move(chips));
  Digest digest;
  add_cluster_digest(digest,
                     manager.run(shape.epoch_s * static_cast<double>(shape.epochs)));
  return digest.value();
}

void digests_thread_invariant() {
  auto fleet = make_workload("cluster_fleet");
  fleet->setup(3, nullptr);
  const FleetShape shape = fleet->fleet();
  const std::uint64_t one = fleet_digest(shape, 1);
  expect(one == fleet_digest(shape, 2) && one == fleet_digest(shape, 4),
         "cluster_fleet digest is identical at 1, 2 and 4 threads");
}

void inputs_deterministic_in_seed() {
  for (const std::string& name : workload_names()) {
    std::uint64_t digests[3] = {};
    const std::uint64_t seeds[3] = {5, 5, 6};
    for (int i = 0; i < 3; ++i) {
      auto workload = make_workload(name);
      workload->setup(seeds[i], nullptr);
      digests[i] = workload->check().digest;
    }
    expect(digests[0] == digests[1], name + ": same seed, same outputs");
    expect(digests[0] != digests[2], name + ": another seed, other inputs");
  }
}

void every_metric_emitted() {
  for (const std::string& name : workload_names()) {
    for (const bool trace : {false, true}) {
      Options options;
      options.workload = name;
      options.seed = 3;
      options.seconds = 0.2;
      options.trace = trace;
      const Report report = run_benchmark(options);
      const std::vector<MetricSpec>& specs =
          trace ? per_layer_metrics() : end_to_end_metrics();
      bool match = report.metrics.size() == specs.size();
      bool finite = true;
      for (std::size_t i = 0; match && i < specs.size(); ++i) {
        match = report.metrics[i].name == specs[i].name &&
                report.metrics[i].unit == specs[i].unit;
        finite = finite && std::isfinite(report.metrics[i].value) &&
                 (trace || report.metrics[i].value > 0.0);
      }
      const std::string what = name + (trace ? " --trace 1" : " --trace 0");
      expect(match, what + ": every metric emitted with its unit");
      expect(finite, what + (trace ? ": every metric finite"
                                   : ": every metric finite and non-zero"));
      expect(report.failed == 0 && report.attempted > 1,
             what + ": no failed unit");
    }
  }
}

}  // namespace

int run_self_tests() {
  decorator_forwards_bit_for_bit();
  digests_thread_invariant();
  inputs_deterministic_in_seed();
  every_metric_emitted();
  std::cout << (failures ? "self-test FAILED" : "self-test ok") << "\n";
  return failures ? 1 : 0;
}

}  // namespace perfbench
