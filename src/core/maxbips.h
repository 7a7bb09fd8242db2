// MaxBIPS baseline (Isci et al., MICRO'06 [17]), as the paper implements it
// for comparison: an open-loop global manager that, once per interval, picks
// the per-island DVFS combination maximizing *predicted* total BIPS subject
// to *predicted* total power <= budget, from a static prediction table
// (BIPS scales ~f, power scales ~f V^2). No feedback: with discrete knobs the
// chosen combination's power is below the set-point, which is why MaxBIPS
// under-consumes the budget in Fig. 11.
//
// The combinatorial choice is solved exactly with a knapsack-style dynamic
// program over discretized power, so it scales to the 8-island/32-core
// configuration (8^8 exhaustive combinations would not).
#pragma once

#include <cstddef>
#include <cstdint>
#include <span>
#include <vector>

#include "core/types.h"
#include "sim/dvfs.h"
#include "util/units.h"

namespace cpm::core {

struct MaxBipsConfig {
  sim::DvfsTable dvfs = sim::DvfsTable::pentium_m();
  /// Power discretization bins for the DP (more bins = finer packing).
  std::size_t power_bins = 1024;
};

class MaxBipsManager {
 public:
  MaxBipsManager(const MaxBipsConfig& config, units::Watts budget);

  /// Chooses one DVFS level per island from the observations of the last
  /// interval (each island's measured BIPS and power at its current level).
  /// A call whose inputs are bitwise-equal to the previous call's returns
  /// the previous answer without re-solving (see the memo below).
  std::vector<std::size_t> choose_levels(
      std::span<const IslandObservation> observations) const;

  /// Prediction table entries (exposed for tests): BIPS and power an island
  /// is predicted to produce at `level`, given its current observation.
  static double predict_bips(const IslandObservation& obs,
                             const sim::DvfsTable& dvfs, std::size_t level);
  static units::Watts predict_power(const IslandObservation& obs,
                                    const sim::DvfsTable& dvfs,
                                    std::size_t level);

  units::Watts budget() const noexcept { return budget_; }
  /// Re-targets the budget in place (runtime cap changes), like
  /// Gpm::set_budget -- the manager is not reconstructed mid-run.
  void set_budget(units::Watts budget);

 private:
  MaxBipsConfig config_;
  units::Watts budget_;

  /// The knapsack DP itself: the only solver, run on every memo miss.
  std::vector<std::size_t> solve(
      std::span<const IslandObservation> observations) const;

  // Cost model: one DP per *distinct* input. choose_levels keys each call on
  // the bit patterns of everything solve() reads -- the budget, the island
  // count, and per island bips, power_w, leakage_w and dvfs_level -- and
  // returns memo_levels_ when the key equals the last solve's. Equal bits
  // imply an identical DP and so an identical answer, with no -0.0/NaN edge
  // cases. With the static prediction table (maxbips_dynamic = false) the
  // inputs only change with the budget, so a run costs one solve plus one per
  // budget change; dynamic observations miss almost every window and pay the
  // full DP as before. The memo holds n observations' keys plus n levels.
  //
  // The DP scratch below is reused across solves: the tables run
  // ~quarter-MB at 16 islands x 1024 bins, and allocating + filling a fresh
  // vector<vector> lattice per call dominated the manager's cost. Flat
  // row-major storage, same iteration order, identical results.
  //
  // The memo and the scratch are both mutated by the const choose_levels, so
  // one instance must not run choose_levels concurrently; give each thread
  // (each simulation) its own manager.
  mutable std::vector<std::uint64_t> key_;        // this call's input bits
  mutable std::vector<std::uint64_t> memo_key_;   // last solve's input bits
  mutable std::vector<std::size_t> memo_levels_;  // last solve's answer
  mutable std::vector<double> dp_;            // (n+1) x (bins+1)
  mutable std::vector<std::size_t> choice_;   // n x (bins+1)
  mutable std::vector<double> pred_bips_;     // n x levels
  mutable std::vector<std::size_t> pred_cost_;  // n x levels
};

}  // namespace cpm::core
