#include "core/maxbips.h"
#include "util/units.h"

#include "util/rng.h"

#include <gtest/gtest.h>

#include <cmath>
#include <limits>
#include <vector>

namespace cpm::core {
namespace {

MaxBipsConfig config() { return MaxBipsConfig{}; }

IslandObservation obs(double bips, double power, std::size_t level) {
  IslandObservation o;
  o.bips = bips;
  o.power_w = power;
  o.dvfs_level = level;
  return o;
}

TEST(MaxBips, RejectsBadConstruction) {
  EXPECT_THROW(MaxBipsManager(config(), units::Watts{0.0}), std::invalid_argument);
  MaxBipsConfig few = config();
  few.power_bins = 2;
  EXPECT_THROW(MaxBipsManager(few, units::Watts{10.0}), std::invalid_argument);
}

TEST(MaxBips, PredictionScalesLinearlyInFrequency) {
  const sim::DvfsTable& t = sim::DvfsTable::pentium_m();
  const IslandObservation o = obs(2.0, 10.0, 7);  // at 2.0 GHz
  // At level 0 (0.6 GHz): BIPS prediction = 2.0 * 0.6/2.0.
  EXPECT_NEAR(MaxBipsManager::predict_bips(o, t, 0), 0.6, 1e-12);
  EXPECT_NEAR(MaxBipsManager::predict_bips(o, t, 7), 2.0, 1e-12);
}

TEST(MaxBips, PredictionScalesPowerWithFV2) {
  const sim::DvfsTable& t = sim::DvfsTable::pentium_m();
  const IslandObservation o = obs(2.0, 10.0, 7);
  const double top_fv2 = 2.0 * 1.26 * 1.26;
  const double low_fv2 = 0.6 * 0.956 * 0.956;
  EXPECT_NEAR(MaxBipsManager::predict_power(o, t, 0).value(),
              10.0 * low_fv2 / top_fv2, 1e-12);
  EXPECT_NEAR(MaxBipsManager::predict_power(o, t, 7).value(), 10.0, 1e-12);
}

TEST(MaxBips, GenerousBudgetPicksTopLevelEverywhere) {
  MaxBipsManager mgr(config(), units::Watts{1000.0});
  std::vector<IslandObservation> islands(4, obs(1.0, 10.0, 7));
  const auto levels = mgr.choose_levels(islands);
  for (const std::size_t l : levels) EXPECT_EQ(l, 7u);
}

TEST(MaxBips, TinyBudgetPicksBottomLevels) {
  MaxBipsManager mgr(config(), units::Watts{1.0});
  std::vector<IslandObservation> islands(4, obs(1.0, 10.0, 7));
  const auto levels = mgr.choose_levels(islands);
  for (const std::size_t l : levels) EXPECT_EQ(l, 0u);
}

double total_predicted_power(const std::vector<IslandObservation>& islands,
                             const std::vector<std::size_t>& levels) {
  const sim::DvfsTable& t = sim::DvfsTable::pentium_m();
  double total = 0.0;
  for (std::size_t i = 0; i < islands.size(); ++i) {
    total += MaxBipsManager::predict_power(islands[i], t, levels[i]).value();
  }
  return total;
}

double total_predicted_bips(const std::vector<IslandObservation>& islands,
                            const std::vector<std::size_t>& levels) {
  const sim::DvfsTable& t = sim::DvfsTable::pentium_m();
  double total = 0.0;
  for (std::size_t i = 0; i < islands.size(); ++i) {
    total += MaxBipsManager::predict_bips(islands[i], t, levels[i]);
  }
  return total;
}

TEST(MaxBips, NeverExceedsBudget) {
  for (const double budget : {15.0, 25.0, 32.0, 38.0}) {
    MaxBipsManager mgr(config(), units::Watts{budget});
    std::vector<IslandObservation> islands{
        obs(2.0, 12.0, 7), obs(0.8, 9.0, 7), obs(1.5, 11.0, 7),
        obs(0.5, 8.0, 7)};
    const auto levels = mgr.choose_levels(islands);
    EXPECT_LE(total_predicted_power(islands, levels), budget + 1e-9)
        << "budget " << budget;
  }
}

TEST(MaxBips, MatchesBruteForceOnSmallInstance) {
  // 2 islands x 8 levels = 64 combinations: the DP must find the best one.
  const double budget = 14.0;
  MaxBipsManager mgr(config(), units::Watts{budget});
  std::vector<IslandObservation> islands{obs(2.0, 12.0, 7), obs(0.8, 9.0, 7)};
  const auto dp_levels = mgr.choose_levels(islands);

  double best_bips = -1.0;
  for (std::size_t a = 0; a < 8; ++a) {
    for (std::size_t b = 0; b < 8; ++b) {
      const std::vector<std::size_t> combo{a, b};
      if (total_predicted_power(islands, combo) > budget) continue;
      best_bips = std::max(best_bips, total_predicted_bips(islands, combo));
    }
  }
  // DP result (power rounded up to bins) cannot beat brute force, and must
  // come within one quantization bin of it.
  const double dp_bips = total_predicted_bips(islands, dp_levels);
  EXPECT_LE(dp_bips, best_bips + 1e-9);
  EXPECT_GT(dp_bips, best_bips * 0.97);
}

TEST(MaxBips, FavorsHighBipsPerWattIsland) {
  // Island 0 produces 4x the BIPS for the same power: under a tight budget
  // it should end at a higher level than island 1.
  MaxBipsManager mgr(config(), units::Watts{14.0});
  std::vector<IslandObservation> islands{obs(4.0, 10.0, 7), obs(1.0, 10.0, 7)};
  const auto levels = mgr.choose_levels(islands);
  EXPECT_GT(levels[0], levels[1]);
}

TEST(MaxBips, SetBudgetMatchesFreshManager) {
  // Re-targeting a live manager must behave exactly like constructing one at
  // the new budget -- the prediction table (seeded at construction) carries
  // over instead of being rebuilt.
  const std::vector<IslandObservation> islands{
      obs(2.0, 12.0, 7), obs(0.8, 9.0, 7), obs(1.5, 11.0, 7), obs(0.5, 8.0, 7)};
  const auto fresh_levels = [&islands](double budget) {
    return MaxBipsManager(config(), units::Watts{budget})
        .choose_levels(islands);
  };
  MaxBipsManager reused(config(), units::Watts{38.0});
  const std::vector<std::size_t> at_38 = reused.choose_levels(islands);
  reused.set_budget(units::Watts{20.0});
  EXPECT_DOUBLE_EQ(reused.budget().value(), 20.0);
  const std::vector<std::size_t> at_20 = reused.choose_levels(islands);
  EXPECT_EQ(at_20, fresh_levels(20.0));
  EXPECT_NE(at_20, at_38);

  // Restoring the earlier budget with the same observations must not return
  // the answer memoized at the other budget.
  reused.set_budget(units::Watts{38.0});
  EXPECT_EQ(reused.choose_levels(islands), fresh_levels(38.0));
}

// One ulp towards +inf or -inf, chosen by `up`.
double ulp_step(double x, bool up) {
  return std::nextafter(x, up ? std::numeric_limits<double>::infinity()
                              : -std::numeric_limits<double>::infinity());
}

IslandObservation random_obs(util::Xoshiro256pp& rng) {
  IslandObservation o = obs(rng.uniform(0.2, 3.0), rng.uniform(4.0, 14.0),
                            static_cast<std::size_t>(rng.uniform_int(8)));
  o.leakage_w = rng.uniform(0.0, 4.0);
  return o;
}

TEST(MaxBips, LongLivedManagerMatchesFreshManagerEveryCall) {
  // choose_levels keeps the last solve's inputs and answer and returns the
  // answer again for bitwise-equal inputs. A manager that lives across the
  // whole sequence must agree with a fresh manager (which always solves) on
  // every call: exact repeats (memo hits), one-ulp nudges and full redraws of
  // each field the DP reads, island-count changes and budget moves (misses).
  util::Xoshiro256pp rng(20100913);
  std::vector<IslandObservation> islands(4);
  for (auto& o : islands) o = random_obs(rng);
  double budget = 30.0;
  MaxBipsManager live(config(), units::Watts{budget});

  std::size_t repeats = 0;
  std::size_t answer_changes = 0;
  std::vector<std::size_t> previous;
  for (int step = 0; step < 600; ++step) {
    const bool up = rng.uniform_int(2) == 0;
    const bool nudge = rng.uniform_int(2) == 0;  // one ulp, else a redraw
    IslandObservation& o = islands[rng.uniform_int(islands.size())];
    const IslandObservation fresh_draw = random_obs(rng);
    switch (rng.uniform_int(8)) {
      case 0:
        ++repeats;  // exact repeat of the previous call's inputs
        break;
      case 1:
        o.bips = nudge ? ulp_step(o.bips, up) : fresh_draw.bips;
        break;
      case 2:
        o.power_w = nudge ? ulp_step(o.power_w, up) : fresh_draw.power_w;
        break;
      case 3:
        o.leakage_w = nudge ? ulp_step(o.leakage_w, up) : fresh_draw.leakage_w;
        break;
      case 4:
        o.dvfs_level = nudge ? (up ? std::min<std::size_t>(o.dvfs_level + 1, 7)
                                   : o.dvfs_level - (o.dvfs_level > 0 ? 1 : 0))
                             : fresh_draw.dvfs_level;
        break;
      case 5:
        if (up && islands.size() < 8) {
          islands.push_back(fresh_draw);
        } else if (islands.size() > 1) {
          islands.pop_back();
        }
        break;
      default:
        budget = nudge ? ulp_step(budget, up)
                       : budget * (up ? rng.uniform(1.05, 1.6)
                                      : rng.uniform(0.6, 0.95));
        live.set_budget(units::Watts{budget});
        break;
    }
    const std::vector<std::size_t> got = live.choose_levels(islands);
    MaxBipsManager fresh(config(), units::Watts{budget});
    ASSERT_EQ(got, fresh.choose_levels(islands)) << "step " << step;
    if (got != previous) ++answer_changes;
    previous = got;
  }
  // The sequence exercised both sides of the memo.
  EXPECT_GT(repeats, 30u);
  EXPECT_GT(answer_changes, 100u);
}

TEST(MaxBips, SetBudgetRejectsNonPositive) {
  MaxBipsManager mgr(config(), units::Watts{10.0});
  EXPECT_THROW(mgr.set_budget(units::Watts{0.0}), std::invalid_argument);
  EXPECT_THROW(mgr.set_budget(units::Watts{-5.0}), std::invalid_argument);
}

TEST(MaxBips, EmptyInput) {
  MaxBipsManager mgr(config(), units::Watts{10.0});
  EXPECT_TRUE(mgr.choose_levels({}).empty());
}

TEST(MaxBips, ScalesToEightIslands) {
  MaxBipsManager mgr(config(), units::Watts{50.0});
  std::vector<IslandObservation> islands(8, obs(1.0, 10.0, 7));
  const auto levels = mgr.choose_levels(islands);
  ASSERT_EQ(levels.size(), 8u);
  EXPECT_LE(total_predicted_power(islands, levels), 50.0 + 1e-9);
  // Symmetric islands should receive near-identical levels (within one).
  for (std::size_t i = 1; i < 8; ++i) {
    EXPECT_NEAR(static_cast<double>(levels[i]),
                static_cast<double>(levels[0]), 1.0);
  }
}

}  // namespace
}  // namespace cpm::core
