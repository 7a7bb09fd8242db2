// PIC: the Local Per-Island Controller (paper Sec. II-D).
//
// A discrete PID regulates island power to the GPM-provisioned setpoint by
// requesting frequency deltas. The measurable input is CPU utilization; the
// sensor/transducer converts it to estimated watts (Fig. 6 linear model). The
// PID gains are the paper's (0.4, 0.4, 0.3), designed by pole placement for
// the nominal plant gain a0 = 0.79 (%-power per GHz); for an island whose
// identified gain a_i differs, the controller output is scaled by a0/a_i so
// the closed-loop poles are preserved (gain scheduling). The paper's
// robustness result guarantees stability for any residual mismatch
// g = a_true/a_designed in (0, 2.1).
#pragma once

#include <cstddef>
#include <cstdint>

#include "control/observer.h"
#include "control/pid.h"
#include "power/sensor.h"
#include "util/stats.h"
#include "util/units.h"

namespace cpm::core {

struct PicConfig {
  control::PidGains gains{};            // paper defaults (0.4, 0.4, 0.3)
  double nominal_plant_gain = 0.79;     // a0 the gains were designed for
  double plant_gain = 0.79;             // identified a_i for this island
  double min_freq_ghz = 0.6;
  double max_freq_ghz = 2.0;
  /// Reference power scale: errors are normalized to percentage points of
  /// this (the paper works in % of max chip power).
  double power_scale_w = 100.0;
  /// Anti-windup clamp on the integral term, in percentage points.
  double integral_limit_pct = 10.0;
  /// Clamp on a single invocation's frequency step, GHz.
  double max_step_ghz = 0.4;
  /// Deadband, in percentage points of `power_scale_w`: errors smaller than
  /// this do not actuate (the island's discrete DVFS quantum makes them
  /// uncorrectable; chasing them only produces limit cycling).
  double deadband_pct = 0.75;
  /// Optional Luenberger-observer filtering of the sensed power (extension):
  /// 0 disables; (0,1) blends the plant model's prediction with the noisy
  /// measurement, trading noise rejection against reaction to unmodeled
  /// demand shifts.
  double observer_gain = 0.0;
};

class Pic {
 public:
  Pic(const PicConfig& config, power::TransducerModel transducer,
      units::GigaHertz initial_freq);

  /// Sets the GPM-provisioned power target.
  void set_target(units::Watts target) noexcept { target_ = target; }
  units::Watts target() const noexcept { return target_; }

  /// One controller invocation: consumes the mean utilization measured over
  /// the last local interval and returns the requested frequency
  /// (continuous; the DVFS actuator quantizes it).
  ///
  /// `level_scale` is the known dynamic-power ratio (V^2 f)_current /
  /// (V^2 f)_reference of the island's present DVFS level versus the level
  /// the transducer was calibrated at. The utilization->power line is fit in
  /// reference-level units and rescaled analytically: the controller knows
  /// its own DVFS setting, so this keeps the sensor observable across the
  /// whole DVFS range with a single calibrated line (paper Fig. 6).
  units::GigaHertz invoke(double measured_utilization,
                          double level_scale = 1.0);

  /// Power the controller believes the island draws at `utilization`,
  /// clamped to the physical range: an extrapolated linear fit (negative
  /// intercept, adaptive refit from degenerate data) must never report
  /// negative watts to the control loop.
  units::Watts sensed_power(double utilization,
                            double level_scale = 1.0) const noexcept {
    const units::Watts est = transducer_.estimate(utilization) * level_scale;
    return units::max(est, units::Watts{0.0});
  }

  const power::TransducerModel& transducer() const noexcept {
    return transducer_;
  }
  /// Replaces the transducer (adaptive calibration path).
  void set_transducer(power::TransducerModel model) noexcept {
    transducer_ = model;
  }

  units::GigaHertz frequency_request() const noexcept { return freq_request_; }
  units::Percent last_error() const noexcept { return last_error_; }
  void reset(units::GigaHertz initial_freq);

  /// Lifetime telemetry (not cleared by reset()): invoke() calls and the
  /// distribution of |error| in percentage points. Plain fields, published
  /// to the metrics registry by the owning run (`pic.invocations`,
  /// `pic.abs_error_pct`).
  std::uint64_t invocations() const noexcept { return invocations_; }
  const util::RunningStats& abs_error_stats() const noexcept {
    return abs_error_stats_;
  }

 private:
  PicConfig config_;
  power::TransducerModel transducer_;
  control::UnitPid<units::Percent, units::GigaHertz> pid_;
  control::ScalarObserver observer_;
  units::Watts target_{0.0};
  units::GigaHertz freq_request_;
  units::Percent last_error_{0.0};
  units::GigaHertz last_delta_{0.0};
  std::uint64_t invocations_ = 0;
  util::RunningStats abs_error_stats_;
};

}  // namespace cpm::core
