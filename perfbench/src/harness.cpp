#include "harness.h"

#include <sched.h>
#include <sys/resource.h>

#include <algorithm>
#include <cmath>
#include <cstdlib>
#include <cstring>
#include <ctime>
#include <fstream>
#include <string>

namespace perfbench {

double process_cpu_s() {
  timespec ts{};
  clock_gettime(CLOCK_PROCESS_CPUTIME_ID, &ts);
  return static_cast<double>(ts.tv_sec) + 1e-9 * static_cast<double>(ts.tv_nsec);
}

double peak_rss_mb() {
  // VmHWM belongs to this process image alone. getrusage's ru_maxrss would
  // also count the launcher's peak from before exec (Linux keeps it across
  // execve), so it is only the fallback.
  std::ifstream status("/proc/self/status");
  std::string line;
  while (std::getline(status, line)) {
    if (line.rfind("VmHWM:", 0) == 0) {
      return std::strtod(line.c_str() + 6, nullptr) / 1024.0;  // kB
    }
  }
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;  // KiB
}

double quantile(std::vector<double> values, double q) {
  if (values.empty()) return std::nan("");
  std::sort(values.begin(), values.end());
  const double pos = q * static_cast<double>(values.size() - 1);
  const auto lo = static_cast<std::size_t>(pos);
  const std::size_t hi = std::min(lo + 1, values.size() - 1);
  const double frac = pos - static_cast<double>(lo);
  return values[lo] + frac * (values[hi] - values[lo]);
}

double trimmed_mean(std::vector<double> values, double share) {
  if (values.empty()) return std::nan("");
  std::sort(values.begin(), values.end());
  const auto trim =
      static_cast<std::size_t>(share * static_cast<double>(values.size()));
  double sum = 0.0;
  for (std::size_t i = trim; i < values.size() - trim; ++i) sum += values[i];
  return sum / static_cast<double>(values.size() - 2 * trim);
}

SampleSet::SampleSet(std::size_t capacity) : capacity_(std::max<std::size_t>(capacity, 2)) {
  values_.reserve(capacity_);
}

void SampleSet::add(double value) {
  if (seen_++ % stride_ != 0) return;
  values_.push_back(value);
  if (values_.size() < capacity_) return;
  std::size_t kept = 0;
  for (std::size_t i = 0; i < values_.size(); i += 2) values_[kept++] = values_[i];
  values_.resize(kept);
  stride_ *= 2;
}

void SampleSet::clear() noexcept {
  values_.clear();
  stride_ = 1;
  seen_ = 0;
}

namespace {

std::vector<int> allowed_cpus() {
  cpu_set_t set;
  CPU_ZERO(&set);
  std::vector<int> cpus;
  if (sched_getaffinity(0, sizeof set, &set) != 0) return cpus;
  for (int cpu = 0; cpu < CPU_SETSIZE; ++cpu) {
    if (CPU_ISSET(cpu, &set)) cpus.push_back(cpu);
  }
  return cpus;
}

void pin_to(const std::vector<int>& cpus) {
  cpu_set_t set;
  CPU_ZERO(&set);
  for (const int cpu : cpus) CPU_SET(cpu, &set);
  sched_setaffinity(0, sizeof set, &set);  // best effort: unpinned on failure
}

}  // namespace

CpuRotation::CpuRotation(bool enabled) : original_(allowed_cpus()) {
  if (enabled && original_.size() > 1) cpus_ = original_;
}

CpuRotation::~CpuRotation() {
  if (!cpus_.empty()) pin_to(original_);
}

void CpuRotation::next() {
  if (cpus_.empty()) return;
  pin_to({cpus_[cursor_]});
  cursor_ = (cursor_ + 1) % cpus_.size();
}

void Digest::add(std::uint64_t value) noexcept {
  for (int byte = 0; byte < 8; ++byte) {
    hash_ ^= (value >> (8 * byte)) & 0xffU;
    hash_ *= 0x100000001b3ULL;
  }
}

void Digest::add(double value) noexcept {
  std::uint64_t bits = 0;
  std::memcpy(&bits, &value, sizeof bits);
  add(bits);
}

void Digest::add(const std::vector<double>& values) noexcept {
  add(static_cast<std::uint64_t>(values.size()));
  for (const double v : values) add(v);
}

void add_run_digest(Digest& digest, const cpm::core::SimulationResult& result,
                    const cpm::core::RecordSink& sink) {
  digest.add(static_cast<std::uint64_t>(result.pic_records_seen));
  digest.add(static_cast<std::uint64_t>(result.gpm_records_seen));
  digest.add(result.total_instructions);
  digest.add(result.island_instructions);
  digest.add(result.island_energy_j);
  digest.add(sink.gpm_power_stats().sum());
  digest.add(sink.gpm_power_stats().max());
  digest.add(sink.gpm_bips_stats().sum());
  const cpm::core::ChipTrackingMetrics tracking = sink.tracking().metrics();
  digest.add(tracking.max_overshoot);
  digest.add(tracking.mean_abs_error);
}

void add_cluster_digest(Digest& digest, const cpm::core::ClusterResult& result) {
  digest.add(static_cast<std::uint64_t>(result.epochs));
  digest.add(result.total_instructions);
  digest.add(result.provisioned_budget_w);
  digest.add(result.epoch_power_w);
  digest.add(result.epoch_budget_w);
  for (const cpm::core::ClusterChipStats& chip : result.chips) {
    digest.add(chip.budget_w);
    digest.add(chip.mean_power_w);
    digest.add(chip.mean_bips);
    digest.add(chip.instructions);
    digest.add(chip.efficiency);
    digest.add(static_cast<std::uint64_t>(chip.pic_records_seen));
    digest.add(static_cast<std::uint64_t>(chip.gpm_records_seen));
  }
}

Tracer::Tracer(std::size_t capacity) : capacity_(capacity), origin_ns_(now_ns()) {
  spans_.reserve(capacity_);
}

void Tracer::open(const char* name) {
  const std::int64_t parent = stack_.empty() ? -1 : stack_.back().index;
  std::int64_t index = -1;
  if (spans_.size() < capacity_) {
    index = static_cast<std::int64_t>(spans_.size());
    spans_.push_back(Span{name, 0, 0, parent});
  } else {
    ++dropped_;
  }
  const std::int64_t start = now_ns();
  if (index >= 0) spans_[static_cast<std::size_t>(index)].start_ns = start;
  stack_.push_back(Open{index, start});
}

std::int64_t Tracer::close() {
  const std::int64_t end = now_ns();
  const Open open = stack_.back();
  stack_.pop_back();
  if (open.index >= 0) spans_[static_cast<std::size_t>(open.index)].end_ns = end;
  return end - open.start_ns;
}

bool Tracer::write_chrome(const std::string& path,
                          const std::string& metadata_json) const {
  std::ofstream out(path);
  if (!out) return false;
  out << "{\"displayTimeUnit\":\"ns\",\"otherData\":" << metadata_json
      << ",\"traceEvents\":[";
  char buf[256];
  for (std::size_t i = 0; i < spans_.size(); ++i) {
    const Span& s = spans_[i];
    std::snprintf(buf, sizeof buf,
                  "%s\n{\"name\":\"%s\",\"ph\":\"X\",\"pid\":1,\"tid\":1,"
                  "\"ts\":%.3f,\"dur\":%.3f,\"args\":{\"id\":%zu,\"parent\":%lld}}",
                  i ? "," : "", s.name,
                  1e-3 * static_cast<double>(s.start_ns - origin_ns_),
                  1e-3 * static_cast<double>(s.end_ns - s.start_ns), i,
                  static_cast<long long>(s.parent));
    out << buf;
  }
  out << "\n]}\n";
  return static_cast<bool>(out);
}

void TimingSink::on_pic(const cpm::core::PicIntervalRecord& rec) {
  const std::int64_t t0 = now_ns();
  inner_->record_pic(rec);
  times_->pic_ns.add(static_cast<double>(now_ns() - t0));
}

void TimingSink::on_gpm(const cpm::core::GpmIntervalRecord& rec) {
  const std::int64_t t0 = now_ns();
  inner_->record_gpm(rec);
  times_->gpm_ns.add(static_cast<double>(now_ns() - t0));
}

void TimingSink::on_finish(cpm::core::SimulationResult& result) {
  inner_->finish(result);
}

}  // namespace perfbench
