#include "bench.h"

#include <sys/utsname.h>
#include <unistd.h>

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <exception>
#include <filesystem>
#include <iostream>
#include <map>
#include <memory>
#include <optional>
#include <stdexcept>
#include <thread>
#include <utility>

#include "harness.h"
#include "probes.h"
#include "workloads.h"

namespace perfbench {
namespace {

/// Digests of each workload's check pass at the default seed. They pin the
/// simulated behaviour: a change that alters any simulated output changes
/// them, and must say so by updating this table.
const std::map<std::string, std::uint64_t>& golden_digests() {
  static const std::map<std::string, std::uint64_t> digests = {
      {"chip_tick", 0x1f84d237c9169188ULL},
      {"control_sweep", 0x5ab3ddfa11a11651ULL},
      {"cluster_fleet", 0x5e8d6635f402a4cdULL},
  };
  return digests;
}

constexpr std::size_t kMinUnits = 5;
/// The timed loop runs in slices of this much host time, and each host-time
/// metric is a trimmed mean of its per-slice values. On a shared host the
/// program's speed is bimodal: it runs up to ~1.7x slower while another
/// tenant keeps the host busy (most likely on the vCPU's SMT sibling), in
/// stretches of 0.1 s to many seconds, and the slow share drifts between
/// runs. A median (or a pooled percentile) jumps between the two modes as
/// that share crosses a half; a mean moves only in proportion to it.
/// Dropping the outer tenths keeps a burst of stalls from dragging the
/// mean, and steepens that proportion by only a quarter (an interquartile
/// mean would double it). A slice holds ~1000 GPM windows of chip_tick, so
/// its p99 has ten beyond it. A single-threaded workload moves to the next
/// CPU at each slice, which keeps the move's cold caches a small share of
/// the slice. Each slice starts with one timed set-up, so set-up is sampled
/// over the whole run like everything else.
constexpr std::int64_t kSliceNs = 200'000'000;
constexpr double kSliceTrim = 0.1;
/// Window samples kept per slice (uniformly thinned past that).
constexpr std::size_t kSliceWindows = 1024;
constexpr std::size_t kTickProbeWindows = 200;
constexpr std::size_t kSpanCapacity = 1 << 17;

/// JSON has no NaN or infinity. A value that could not be measured (every
/// unit failed, say) prints as 0; such a run is already `correct: false`.
std::string format_number(double value) {
  if (!std::isfinite(value)) return "0";
  char buf[64];
  std::snprintf(buf, sizeof buf, "%.17g", value);
  return buf;
}

std::string context_json(const Options& options, const Workload& workload) {
  char host[256] = {};
  gethostname(host, sizeof host - 1);
  utsname uts{};
  uname(&uts);
  char buf[1024];
  std::snprintf(
      buf, sizeof buf,
      "{\"host\":\"%s\",\"os\":\"%s %s %s\",\"nproc\":%zu,"
      "\"hardware_concurrency\":%u,\"threads\":%zu,\"workload\":\"%s\","
      "\"seed\":%llu,\"seconds\":%g,\"trace\":%d,\"build_type\":\"%s\","
      "\"ipo\":%d,\"compiler\":\"%s\"}",
      host, uts.sysname, uts.release, uts.machine, host_threads(),
      std::thread::hardware_concurrency(), workload.threads(),
      options.workload.c_str(), static_cast<unsigned long long>(options.seed),
      options.seconds, options.trace ? 1 : 0, PERFBENCH_BUILD_TYPE,
      PERFBENCH_IPO, __VERSION__);
  return buf;
}

/// Runs one unit and counts it: an exception or a digest other than the
/// checked unit's is a failure.
bool counted_unit(Workload& workload, SampleSet& window_us,
                  const Instruments& inst, std::uint64_t expected,
                  Report& report, UnitOutput& out) {
  ++report.attempted;
  try {
    out = workload.run_unit(window_us, inst);
  } catch (const std::exception& e) {
    ++report.failed;
    std::cerr << "perfbench: unit failed: " << e.what() << "\n";
    return false;
  }
  if (out.digest != expected) {
    ++report.failed;
    std::cerr << "perfbench: unit digest " << std::hex << out.digest
              << " != checked " << expected << std::dec << "\n";
    return false;
  }
  return true;
}

/// Host-time totals of one slice of the timed loop.
struct Slice {
  double setup_s = 0.0;
  double wall_s = 0.0;  // summed over the slice's units
  double cpu_s = 0.0;   // process CPU over the slice's units
  std::uint64_t core_ticks = 0;
  std::uint64_t records = 0;
  double window_us_p50 = 0.0;
  double window_us_p99 = 0.0;
};

void timed_loop(const Options& options, Workload& workload,
                const CheckOutput& check, Report& report) {
  // A single-threaded workload takes turns on every CPU, one slice each.
  // The parallel workload spreads over the CPUs itself. (The traced run is
  // not pinned: its fleet probe needs the whole thread pool.)
  CpuRotation rotation(workload.threads() == 1);
  const auto budget_ns = static_cast<std::int64_t>(options.seconds * 1e9);
  std::vector<Slice> slices;
  slices.reserve(static_cast<std::size_t>(budget_ns / kSliceNs) + 2);
  SampleSet window_us(kSliceWindows);
  const auto close_slice = [&slices, &window_us] {
    slices.back().window_us_p50 = quantile(window_us.values(), 0.5);
    slices.back().window_us_p99 = quantile(window_us.values(), 0.99);
    window_us.clear();
  };
  const std::int64_t start = now_ns();
  std::int64_t slice_start = 0;
  for (std::size_t units = 0;
       units < kMinUnits || now_ns() - start < budget_ns; ++units) {
    if (units == 0 || now_ns() - slice_start >= kSliceNs) {
      if (!slices.empty()) close_slice();
      rotation.next();
      slice_start = now_ns();
      workload.setup(options.seed, nullptr);
      slices.emplace_back();
      slices.back().setup_s = 1e-9 * static_cast<double>(now_ns() - slice_start);
    }
    Slice& slice = slices.back();
    const double cpu0 = process_cpu_s();
    const std::int64_t t0 = now_ns();
    UnitOutput out;
    if (!counted_unit(workload, window_us, {}, check.digest, report, out)) {
      continue;
    }
    slice.wall_s += 1e-9 * static_cast<double>(now_ns() - t0);
    slice.cpu_s += process_cpu_s() - cpu0;
    slice.core_ticks += out.core_ticks;
    slice.records += out.pic_records + out.gpm_records;
  }
  close_slice();

  // Slices in which every unit failed have nothing to measure.
  std::vector<Slice> done;
  for (const Slice& slice : slices) {
    if (slice.core_ticks > 0) done.push_back(slice);
  }
  const auto over_slices = [&done](auto&& stat) {
    std::vector<double> values;
    for (const Slice& slice : done) values.push_back(stat(slice));
    return trimmed_mean(std::move(values), kSliceTrim);
  };
  const std::string note =
      std::to_string(static_cast<int>(100 * kSliceTrim)) +
      " %-trimmed mean over " + std::to_string(done.size()) + " slices of " +
      std::to_string(kSliceNs / 1'000'000) + " ms";
  const auto add = [&report](const char* name, const char* unit, double value,
                             std::string how) {
    report.metrics.push_back({name, unit, value, std::move(how)});
  };
  add("setup_s", "s", over_slices([](const Slice& s) { return s.setup_s; }),
      note);
  add("core_ticks_per_s", "1/s", over_slices([](const Slice& s) {
        return static_cast<double>(s.core_ticks) / s.wall_s;
      }), note);
  add("records_per_s", "1/s", over_slices([](const Slice& s) {
        return static_cast<double>(s.records) / s.wall_s;
      }), note);
  add("window_us_p50", "us",
      over_slices([](const Slice& s) { return s.window_us_p50; }),
      note + " (each the slice's median window)");
  add("window_us_p99", "us",
      over_slices([](const Slice& s) { return s.window_us_p99; }),
      note + " (each the slice's 99th-percentile window)");
  add("cpu_ns_per_core_tick", "ns", over_slices([](const Slice& s) {
        return 1e9 * s.cpu_s / static_cast<double>(s.core_ticks);
      }), note);
  add("peak_rss_mb", "MiB", peak_rss_mb(), "process peak");
  add("sim_bips", "BIPS", check.sim_bips, "simulated, check pass");
  add("sim_tracking_error_pct", "%", check.sim_tracking_error_pct,
      "simulated, check pass");
}

void traced_pass(const Options& options, Workload& workload,
                 const CheckOutput& check, Report& report, Tracer& tracer) {
  // Layer probes first: their spans are bounded, the unit loop's are not.
  const std::vector<Member> members = workload.members();
  const PhaseCosts phases = probe_phases(members.front().config, tracer);
  std::vector<TickCosts> ticks;
  for (const Member& member : members) {
    ticks.push_back(probe_ticks(member.config, kTickProbeWindows, tracer));
  }
  const FleetCosts fleet = probe_fleet(workload.fleet(), host_threads(), tracer);

  // Untraced and traced units interleaved, so both see the same host
  // conditions; their wall ratio is the tracing overhead.
  SinkTimes sink_times;
  SampleSet discard(1 << 10);
  UnitOutput totals;
  double untraced_s = 0.0, traced_s = 0.0;
  const std::int64_t start = now_ns();
  const auto budget_ns = static_cast<std::int64_t>(options.seconds * 1e9);
  for (std::size_t units = 0;
       units < kMinUnits || now_ns() - start < budget_ns; ++units) {
    UnitOutput out;
    std::int64_t t0 = now_ns();
    if (!counted_unit(workload, discard, {}, check.digest, report, out)) continue;
    const std::int64_t t1 = now_ns();
    if (!counted_unit(workload, discard, {&tracer, &sink_times}, check.digest,
                      report, out)) {
      continue;
    }
    untraced_s += 1e-9 * static_cast<double>(t1 - t0);
    traced_s += 1e-9 * static_cast<double>(now_ns() - t1);
    totals.core_ticks += out.core_ticks;
    totals.pic_records += out.pic_records;
    totals.gpm_records += out.gpm_records;
  }

  const auto add = [&report](std::string name, const char* unit, double value) {
    report.metrics.push_back({std::move(name), unit, value, ""});
  };
  add("workload.step_ns_per_core", "ns", phases.workload_ns);
  add("sim.chip_step_ns_per_core", "ns", phases.chip_ns);
  add("power.sweep_ns_per_core", "ns", phases.power_ns);
  add("thermal.step_ns_per_core", "ns", phases.thermal_ns);
  const double standalone = phases.chip_ns + phases.power_ns + phases.thermal_ns;
  const double tick = ticks.front().tick_ns_per_core;
  add("core.tick_ns_per_core", "ns", tick);
  add("core.accum_ns_per_core", "ns", tick - standalone);
  add("core.closure_ratio", "ratio", standalone / tick);
  for (std::size_t m = 0; m < members.size(); ++m) {
    add("core.pic_boundary_ns_per_island." + members[m].name, "ns",
        ticks[m].pic_ns_per_island);
  }
  for (std::size_t m = 0; m < members.size(); ++m) {
    add("core.gpm_boundary_ns." + members[m].name, "ns", ticks[m].gpm_ns);
  }
  add("core.sink_pic_ns", "ns", median(sink_times.pic_ns.values()));
  add("core.sink_gpm_ns", "ns", median(sink_times.gpm_ns.values()));
  add("cluster.epoch_us", "us", fleet.epoch_us);
  add("cluster.chip_epoch_us", "us", fleet.chip_epoch_us);
  add("cluster.overhead_frac", "ratio", fleet.overhead_frac);
  add("cluster.parallel_eff", "ratio", fleet.parallel_eff);
  add("cluster.cpu_ratio", "ratio", fleet.cpu_ratio);
  add("util.dispatch_us", "us", fleet.dispatch_us);
  add("sim.core_ticks", "count", static_cast<double>(totals.core_ticks));
  add("core.pic_records", "count", static_cast<double>(totals.pic_records));
  add("core.gpm_records", "count", static_cast<double>(totals.gpm_records));
  add("cluster.epochs", "count", static_cast<double>(fleet.epochs));
  add("trace.overhead_frac", "ratio", traced_s / untraced_s - 1.0);

  if (!options.out_dir.empty()) {
    std::error_code ec;
    std::filesystem::create_directories(options.out_dir, ec);
    const std::string path = options.out_dir + "/trace-" + options.workload +
                             "-seed" + std::to_string(options.seed) + ".json";
    const std::string meta = "{\"context\":" + report.context_json +
                             ",\"spans_dropped\":" +
                             std::to_string(tracer.dropped()) + "}";
    if (!tracer.write_chrome(path, meta)) {
      std::cerr << "perfbench: could not write " << path << "\n";
    } else {
      std::cout << "trace " << path << " (" << tracer.recorded()
                << " spans, " << tracer.dropped() << " past capacity)\n";
    }
  }
}

}  // namespace

const std::vector<MetricSpec>& end_to_end_metrics() {
  static const std::vector<MetricSpec> specs = {
      {"setup_s", "s"},
      {"core_ticks_per_s", "1/s"},
      {"records_per_s", "1/s"},
      {"window_us_p50", "us"},
      {"window_us_p99", "us"},
      {"cpu_ns_per_core_tick", "ns"},
      {"peak_rss_mb", "MiB"},
      {"sim_bips", "BIPS"},
      {"sim_tracking_error_pct", "%"},
  };
  return specs;
}

const std::vector<MetricSpec>& per_layer_metrics() {
  static const std::vector<MetricSpec> specs = {
      {"workload.step_ns_per_core", "ns"},
      {"sim.chip_step_ns_per_core", "ns"},
      {"power.sweep_ns_per_core", "ns"},
      {"thermal.step_ns_per_core", "ns"},
      {"core.tick_ns_per_core", "ns"},
      {"core.accum_ns_per_core", "ns"},
      {"core.closure_ratio", "ratio"},
      {"core.pic_boundary_ns_per_island.cpm_perf", "ns"},
      {"core.pic_boundary_ns_per_island.cpm_thermal", "ns"},
      {"core.pic_boundary_ns_per_island.maxbips", "ns"},
      {"core.gpm_boundary_ns.cpm_perf", "ns"},
      {"core.gpm_boundary_ns.cpm_thermal", "ns"},
      {"core.gpm_boundary_ns.maxbips", "ns"},
      {"core.sink_pic_ns", "ns"},
      {"core.sink_gpm_ns", "ns"},
      {"cluster.epoch_us", "us"},
      {"cluster.chip_epoch_us", "us"},
      {"cluster.overhead_frac", "ratio"},
      {"cluster.parallel_eff", "ratio"},
      {"cluster.cpu_ratio", "ratio"},
      {"util.dispatch_us", "us"},
      {"sim.core_ticks", "count"},
      {"core.pic_records", "count"},
      {"core.gpm_records", "count"},
      {"cluster.epochs", "count"},
      {"trace.overhead_frac", "ratio"},
  };
  return specs;
}

Report run_benchmark(const Options& options) {
  std::unique_ptr<Workload> workload = make_workload(options.workload);
  if (!workload) {
    throw std::invalid_argument("unknown workload '" + options.workload + "'");
  }
  Report report;
  report.context_json = context_json(options, *workload);

  std::optional<Tracer> tracer;
  if (options.trace) tracer.emplace(kSpanCapacity);

  workload->setup(options.seed, tracer ? &*tracer : nullptr);

  // Check pass: one unit under the invariant checker, outside the timed
  // loop. Its digest is what every timed unit must reproduce.
  ++report.attempted;
  const CheckOutput check = workload->check();
  report.check_digest = check.digest;
  bool check_ok = check.invariant_violations == 0;
  if (!check_ok) {
    std::cerr << "perfbench: " << check.invariant_violations
              << " invariant violations in the check pass\n";
  }
  const auto golden = golden_digests().find(options.workload);
  if (options.seed == kDefaultSeed && golden != golden_digests().end() &&
      golden->second != check.digest) {
    std::cerr << "perfbench: default-seed digest " << std::hex << check.digest
              << " != committed " << golden->second << std::dec << "\n";
    check_ok = false;
  }
  if (!check_ok) ++report.failed;

  if (options.trace) {
    traced_pass(options, *workload, check, report, *tracer);
  } else {
    timed_loop(options, *workload, check, report);
  }
  return report;
}

std::string result_json(const Report& report) {
  std::string json = "{\"correct\": ";
  json += report.failed == 0 ? "true" : "false";
  json += ", \"attempted\": " + std::to_string(report.attempted);
  json += ", \"failed\": " + std::to_string(report.failed);
  json += ", \"metrics\": {";
  for (std::size_t i = 0; i < report.metrics.size(); ++i) {
    const Metric& m = report.metrics[i];
    json += (i ? ", \"" : "\"") + m.name + "\": {\"value\": " +
            format_number(m.value) + ", \"unit\": \"" + m.unit + "\"}";
  }
  json += "}}";
  return json;
}

}  // namespace perfbench
