#include "core/maxbips.h"

#include <algorithm>
#include <bit>
#include <cmath>
#include <limits>
#include <stdexcept>

namespace cpm::core {

MaxBipsManager::MaxBipsManager(const MaxBipsConfig& config,
                               units::Watts budget)
    : config_(config), budget_(budget) {
  if (budget_ <= units::Watts{0.0}) {
    throw std::invalid_argument("MaxBipsManager: budget must be > 0");
  }
  if (config_.power_bins < 8) {
    throw std::invalid_argument("MaxBipsManager: too few power bins");
  }
}

void MaxBipsManager::set_budget(units::Watts budget) {
  if (budget <= units::Watts{0.0}) {
    throw std::invalid_argument("MaxBipsManager: budget must be > 0");
  }
  budget_ = budget;
}

double MaxBipsManager::predict_bips(const IslandObservation& obs,
                                    const sim::DvfsTable& dvfs,
                                    std::size_t level) {
  const auto& cur = dvfs.level(std::min(obs.dvfs_level, dvfs.max_level()));
  const auto& tgt = dvfs.level(level);
  // MaxBIPS's optimistic model: performance scales linearly with frequency.
  return obs.bips * tgt.freq_ghz / cur.freq_ghz;
}

units::Watts MaxBipsManager::predict_power(const IslandObservation& obs,
                                           const sim::DvfsTable& dvfs,
                                           std::size_t level) {
  const auto& cur = dvfs.level(std::min(obs.dvfs_level, dvfs.max_level()));
  const auto& tgt = dvfs.level(level);
  const double cur_fv2 = cur.dynamic_energy_scale();
  const double tgt_fv2 = tgt.dynamic_energy_scale();
  // Dynamic power scales with f V^2; the static (leakage) share, when the
  // characterization provides it, only scales with V. Folding leakage into
  // the f V^2 scaling would underestimate low-level power and let the
  // open-loop scheme overshoot tight budgets.
  const double leak = std::min(obs.leakage_w, obs.power_w);
  const double dyn = obs.power_w - leak;
  return units::Watts{dyn * tgt_fv2 / cur_fv2 +
                      leak * tgt.voltage / cur.voltage};
}

std::vector<std::size_t> MaxBipsManager::choose_levels(
    std::span<const IslandObservation> observations) const {
  // The key is the bit pattern of every input solve() reads; its length
  // encodes the island count. memo_key_ starts empty, so the first call
  // (whose key holds at least the budget) always solves.
  const auto bits = [](double x) { return std::bit_cast<std::uint64_t>(x); };
  key_.clear();
  key_.push_back(bits(budget_.value()));
  for (const IslandObservation& o : observations) {
    key_.push_back(bits(o.bips));
    key_.push_back(bits(o.power_w));
    key_.push_back(bits(o.leakage_w));
    key_.push_back(static_cast<std::uint64_t>(o.dvfs_level));
  }
  if (key_ != memo_key_) {
    memo_levels_ = solve(observations);
    memo_key_.swap(key_);
  }
  return memo_levels_;
}

std::vector<std::size_t> MaxBipsManager::solve(
    std::span<const IslandObservation> observations) const {
  const std::size_t n = observations.size();
  const std::size_t levels = config_.dvfs.num_levels();
  const std::size_t bins = config_.power_bins;
  if (n == 0) return {};

  // Precompute per-island per-level (bips, power-bin cost). Costs are rounded
  // *up* so the DP never underestimates power (the budget is a hard cap).
  const double bin_w = budget_.value() / static_cast<double>(bins);
  pred_bips_.resize(n * levels);
  pred_cost_.resize(n * levels);
  for (std::size_t i = 0; i < n; ++i) {
    for (std::size_t l = 0; l < levels; ++l) {
      pred_bips_[i * levels + l] =
          predict_bips(observations[i], config_.dvfs, l);
      const double p =
          predict_power(observations[i], config_.dvfs, l).value();
      pred_cost_[i * levels + l] =
          static_cast<std::size_t>(std::ceil(p / bin_w - 1e-12));
    }
  }

  constexpr double kNegInf = -std::numeric_limits<double>::infinity();
  // dp[b] = best total BIPS for islands 0..i using exactly budget bins <= b
  // (we track "total cost == b" and take the max at the end via running max).
  // dp_ needs the kNegInf reset every call; choice_ does not (the backward
  // walk only reads entries along a finite-dp chain, and every finite
  // dp_[(i+1), nb] wrote choice_[(i), nb] when it was set).
  const std::size_t stride = bins + 1;
  dp_.assign((n + 1) * stride, kNegInf);
  choice_.resize(n * stride);
  dp_[0] = 0.0;
  for (std::size_t i = 0; i < n; ++i) {
    const double* dp_row = dp_.data() + i * stride;
    double* dp_next = dp_.data() + (i + 1) * stride;
    std::size_t* choice_row = choice_.data() + i * stride;
    const double* bips_row = pred_bips_.data() + i * levels;
    const std::size_t* cost_row = pred_cost_.data() + i * levels;
    for (std::size_t b = 0; b <= bins; ++b) {
      if (dp_row[b] == kNegInf) continue;
      for (std::size_t l = 0; l < levels; ++l) {
        const std::size_t nb = b + cost_row[l];
        if (nb > bins) continue;
        const double v = dp_row[b] + bips_row[l];
        if (v > dp_next[nb]) {
          dp_next[nb] = v;
          choice_row[nb] = l;
        }
      }
    }
  }

  // Best final bin; if nothing fits (pathological budget), fall back to the
  // lowest level everywhere.
  std::size_t best_bin = bins + 1;
  double best = kNegInf;
  const double* dp_last = dp_.data() + n * stride;
  for (std::size_t b = 0; b <= bins; ++b) {
    if (dp_last[b] > best) {
      best = dp_last[b];
      best_bin = b;
    }
  }
  std::vector<std::size_t> result(n, 0);
  if (best_bin > bins) return result;

  // Walk the DP backwards: `choice_[i][b]` is the level island i took in the
  // best chain landing on bin b (dp row i is finalized before stage i's
  // transitions run, so the chain is consistent).
  std::size_t b = best_bin;
  for (std::size_t i = n; i-- > 0;) {
    const std::size_t picked = choice_[i * stride + b];
    result[i] = picked;
    b -= pred_cost_[i * levels + picked];
  }
  return result;
}

}  // namespace cpm::core
