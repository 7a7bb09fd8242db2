#include "power/model.h"

#include <algorithm>
#include <cmath>
#include <stdexcept>

#include "util/fastmath.h"

namespace cpm::power {

PowerModel::PowerModel(const sim::CmpConfig& config,
                       std::vector<double> island_leak_mults)
    : dynamic_(config.ceff_base_w_per_v2ghz),
      leakage_(units::WattsPerVolt{config.leakage_w_per_v},
               config.leakage_temp_beta, config.leakage_ref_temp_c),
      dvfs_(config.dvfs),
      island_leak_mults_(std::move(island_leak_mults)) {
  if (!island_leak_mults_.empty() &&
      island_leak_mults_.size() != config.num_islands) {
    throw std::invalid_argument(
        "PowerModel: leak multipliers must match island count");
  }
}

double PowerModel::island_leak_mult(std::size_t island_idx) const noexcept {
  if (island_idx < island_leak_mults_.size()) {
    return island_leak_mults_[island_idx];
  }
  return 1.0;
}

PowerBreakdown PowerModel::core_power(const sim::CoreTick& tick,
                                      const sim::DvfsPoint& op,
                                      std::size_t island_idx,
                                      double temp_c) const {
  PowerBreakdown out;
  out.dynamic_w = dynamic_.core_power(tick, op).value();
  out.leakage_w =
      leakage_
          .core_power(units::Volts{op.voltage}, temp_c,
                      island_leak_mult(island_idx))
          .value();
  return out;
}

IslandPowerSums PowerModel::core_powers_batch(
    std::span<const double> utilization, std::span<const double> activity_busy,
    std::span<const double> activity_idle, std::span<const double> ceff_scale,
    const sim::DvfsPoint& op, std::size_t island_idx,
    std::span<const double> temps_c, std::span<double> out_total_w) const {
  const std::size_t n = out_total_w.size();
  if (utilization.size() != n || activity_busy.size() != n ||
      activity_idle.size() != n || ceff_scale.size() != n ||
      temps_c.size() != n) {
    throw std::invalid_argument("core_powers_batch: span length mismatch");
  }
  dynamic_.power_batch(utilization, activity_busy, activity_idle, ceff_scale,
                       op, out_total_w);
  // Leakage is added core-by-core here (not via LeakageModel::power_batch) so
  // the island leakage sum accumulates in the same flat core order that the
  // scalar path's `total += core_power(...)` loop uses.
  const double lm = island_leak_mult(island_idx);
  IslandPowerSums sums;
  for (std::size_t i = 0; i < n; ++i) {
    const double leak =
        leakage_.core_power(units::Volts{op.voltage}, temps_c[i], lm).value();
    out_total_w[i] += leak;
    sums.leakage_w += leak;
    sums.total_w += out_total_w[i];
  }
  return sums;
}

void PowerModel::chip_power_batch(
    std::span<const double> utilization, std::span<const double> activity_busy,
    std::span<const double> activity_idle, std::span<const double> ceff_scale,
    std::span<const double> voltage, std::span<const double> freq_ghz,
    std::span<const double> leak_mult, std::span<const double> temps_c,
    std::span<double> out_total_w) const {
  const std::size_t n = out_total_w.size();
  if (utilization.size() != n || activity_busy.size() != n ||
      activity_idle.size() != n || ceff_scale.size() != n ||
      voltage.size() != n || freq_ghz.size() != n || leak_mult.size() != n ||
      temps_c.size() != n) {
    throw std::invalid_argument("chip_power_batch: span length mismatch");
  }
  // Multiplication order mirrors DynamicPowerModel::power_batch and
  // LeakageModel::core_power exactly (including the util::exp_fast leakage
  // exponential), so this sweep is element-wise bit-identical to the
  // per-island core_powers_batch path. The loop is straight-line and
  // vectorized: exp_fast has no integer shifts or branches, and cpm_power
  // builds with -fno-trapping-math so the utilization clamp and exp_fast's
  // exponent clamp become vector selects (under the default
  // -ftrapping-math GCC keeps them as branches, since an ordered compare may
  // raise FE_INVALID). The flag changes no result bit. The marker is
  // checked against GCC's -fopt-info-vec report by
  // scripts/check_vectorized.py.
  const double ceff_base = dynamic_.ceff_base();
  const double k_design = leakage_.k_design();
  const double beta = leakage_.temp_beta();
  const double ref_c = leakage_.ref_temp_c();
  const double* u_in = utilization.data();
  const double* ab = activity_busy.data();
  const double* ai = activity_idle.data();
  const double* cs = ceff_scale.data();
  const double* v = voltage.data();
  const double* f = freq_ghz.data();
  const double* lm = leak_mult.data();
  const double* t = temps_c.data();
  double* out = out_total_w.data();
  // cpm: vectorized
  for (std::size_t i = 0; i < n; ++i) {
    const double u = std::clamp(u_in[i], 0.0, 1.0);
    const double effective_activity = u * ab[i] + (1.0 - u) * ai[i];
    const double dyn =
        ceff_base * cs[i] * v[i] * v[i] * f[i] * effective_activity;
    const double leak =
        k_design * lm[i] * v[i] * util::exp_fast(beta * (t[i] - ref_c));
    out[i] = dyn + leak;
  }
}

PowerBreakdown PowerModel::island_power(
    const sim::IslandTick& tick, const sim::DvfsPoint& op,
    std::size_t island_idx, const std::vector<double>& core_temps_c) const {
  if (core_temps_c.empty()) {
    throw std::invalid_argument("island_power: need at least one temperature");
  }
  PowerBreakdown out;
  for (std::size_t c = 0; c < tick.cores.size(); ++c) {
    const double temp =
        core_temps_c.size() == 1 ? core_temps_c[0] : core_temps_c.at(c);
    const PowerBreakdown p =
        core_power(tick.cores[c], op, island_idx, temp);
    out.dynamic_w += p.dynamic_w;
    out.leakage_w += p.leakage_w;
  }
  return out;
}

units::Watts PowerModel::max_chip_power(const workload::Mix& mix,
                                        double thermal_margin_c) const {
  const sim::DvfsPoint top = dvfs_.level(dvfs_.max_level());
  const double hot_temp = leakage_.ref_temp_c() + thermal_margin_c;
  units::Watts total{};
  for (std::size_t i = 0; i < mix.islands.size(); ++i) {
    for (const auto* profile : mix.islands[i]) {
      total += dynamic_.power(units::Volts{top.voltage},
                              units::GigaHertz{top.freq_ghz},
                              /*utilization=*/1.0, profile->activity_active,
                              profile->activity_idle, profile->ceff_scale);
      total += leakage_.core_power(units::Volts{top.voltage}, hot_temp,
                                   island_leak_mult(i));
    }
  }
  return total;
}

}  // namespace cpm::power
