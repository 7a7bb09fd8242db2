// Cross-commit golden digests: one FNV-1a hash over the bit pattern of every
// field of every PIC and GPM record, plus the SimulationResult aggregates,
// for a fixed short 8-core scenario under each manager/policy path. The fuzz
// guarantees compare a build with itself, so a refactor that drifts the
// energy, QoS, migration or adaptive-sensing paths would pass them; these
// constants pin the behaviour itself. A deliberate behaviour change updates
// them in the same commit (the test prints the new digest).
#include <gtest/gtest.h>

#include <cstdint>
#include <string>
#include <type_traits>
#include <vector>

#include "core/experiment.h"
#include "core/simulation.h"
#include "util/bench_telemetry.h"

namespace cpm::core {
namespace {

constexpr double kRunSeconds = 0.05;

/// Raw bytes of every hashed value, in order; hashed once at the end.
class Digest {
 public:
  /// Hashes a double or a count by its bit pattern.
  template <typename T>
    requires std::is_arithmetic_v<T>
  void add(T v) {
    bytes_.append(reinterpret_cast<const char*>(&v), sizeof v);
  }
  void add(const std::vector<double>& values) {
    add(values.size());
    for (const double v : values) add(v);
  }
  std::string hex() const { return util::fnv1a_hex(bytes_); }

 private:
  std::string bytes_;
};

std::string digest_of(const SimulationResult& r) {
  Digest d;
  d.add(r.pic_records.size());
  for (const PicIntervalRecord& p : r.pic_records) {
    d.add(p.time_s);
    d.add(p.island);
    d.add(p.target_w);
    d.add(p.sensed_w);
    d.add(p.actual_w);
    d.add(p.utilization);
    d.add(p.bips);
    d.add(p.freq_ghz);
    d.add(p.dvfs_level);
  }
  d.add(r.gpm_records.size());
  for (const GpmIntervalRecord& g : r.gpm_records) {
    d.add(g.time_s);
    d.add(g.island_alloc_w);
    d.add(g.island_actual_w);
    d.add(g.island_bips);
    d.add(g.chip_actual_w);
    d.add(g.chip_budget_w);
    d.add(g.chip_bips);
    d.add(g.max_temp_c);
  }
  d.add(r.pic_records_seen);
  d.add(r.gpm_records_seen);
  d.add(r.duration_s);
  d.add(r.max_chip_power_w);
  d.add(r.budget_w);
  d.add(r.total_instructions);
  d.add(r.avg_chip_power_w);
  d.add(r.avg_chip_bips);
  d.add(r.hotspot_fraction);
  d.add(r.dvfs_transitions);
  d.add(r.migrations);
  d.add(r.island_instructions);
  d.add(r.island_energy_j);
  d.add(r.island_avg_bips);
  for (const std::vector<double>& residency : r.island_level_residency) {
    d.add(residency);
  }
  return d.hex();
}

/// The fixed scenario: the paper's 8-core Mix-1 chip, short calibration.
SimulationConfig base_config() {
  SimulationConfig cfg = default_config(0.8, 42);
  cfg.calibration_seconds = 0.02;
  return cfg;
}

SimulationConfig cpm_config(PolicyKind policy) {
  return with_policy(base_config(), policy);
}

std::string run_digest(const SimulationConfig& cfg) {
  Simulation sim(cfg);
  return digest_of(sim.run(kRunSeconds));
}

TEST(GoldenDigest, CpmPerformance) {
  EXPECT_EQ(run_digest(cpm_config(PolicyKind::kPerformance)),
            "f9f071a3deafb2f8");
}

TEST(GoldenDigest, CpmThermal) {
  EXPECT_EQ(run_digest(cpm_config(PolicyKind::kThermal)), "c0c6ce93e84f14ae");
}

TEST(GoldenDigest, CpmVariation) {
  SimulationConfig cfg = cpm_config(PolicyKind::kVariation);
  cfg.island_leak_mults = {1.2, 1.5, 2.0, 1.0};
  EXPECT_EQ(run_digest(cfg), "361c0c9925f53434");
}

TEST(GoldenDigest, CpmEnergy) {
  EXPECT_EQ(run_digest(cpm_config(PolicyKind::kEnergy)), "aa709811de891ab0");
}

TEST(GoldenDigest, CpmQosWithSla) {
  SimulationConfig cfg = cpm_config(PolicyKind::kQos);
  cfg.qos_policy.min_bips = {0.0, 2.5, 0.0, 0.0};
  EXPECT_EQ(run_digest(cfg), "d1edf5de4abc4b31");
}

TEST(GoldenDigest, CpmMigration) {
  SimulationConfig cfg = cpm_config(PolicyKind::kPerformance);
  cfg.enable_migration = true;
  Simulation sim(cfg);
  const SimulationResult res = sim.run(kRunSeconds);
  EXPECT_GT(res.migrations, 0u);  // the swap and recalibration paths ran
  EXPECT_EQ(digest_of(res), "631bbbf9445eedc5");
}

TEST(GoldenDigest, CpmAdaptiveNoisyObserver) {
  SimulationConfig cfg = cpm_config(PolicyKind::kPerformance);
  cfg.adaptive_transducer = true;
  cfg.sensor_noise_sigma = 0.02;
  cfg.pic_observer_gain = 0.3;
  EXPECT_EQ(run_digest(cfg), "52eed812da865b58");
}

TEST(GoldenDigest, MaxBipsStatic) {
  EXPECT_EQ(run_digest(with_manager(base_config(), ManagerKind::kMaxBips)),
            "b0acef74ebb57483");
}

TEST(GoldenDigest, MaxBipsDynamic) {
  SimulationConfig cfg = with_manager(base_config(), ManagerKind::kMaxBips);
  cfg.maxbips_dynamic = true;
  EXPECT_EQ(run_digest(cfg), "fe84d42158f63c6d");
}

TEST(GoldenDigest, NoDvfs) {
  EXPECT_EQ(run_digest(with_manager(base_config(), ManagerKind::kNoDvfs)),
            "5910bc658d726f43");
}

TEST(GoldenDigest, BudgetScheduleAndMidRunSetBudget) {
  SimulationConfig cfg = cpm_config(PolicyKind::kPerformance);
  cfg.budget_schedule = {{0.015, 0.6}};
  Simulation sim(cfg);
  auto live = sim.start();
  live->advance(0.03);
  live->set_budget(units::Watts{sim.max_chip_power().value() * 0.9});
  live->advance(kRunSeconds - 0.03);
  EXPECT_EQ(digest_of(live->finish()), "2bab8e02df916d2c");
}

}  // namespace
}  // namespace cpm::core
