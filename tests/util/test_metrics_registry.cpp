#include "util/metrics.h"

#include <gtest/gtest.h>

#include <sstream>
#include <thread>
#include <vector>

#include "util/json.h"

namespace cpm::util {
namespace {

TEST(MetricsRegistry, CounterGaugeHistogramBasics) {
  MetricsRegistry reg;
  Counter& c = reg.counter("c");
  c.add();
  c.add(4);
  EXPECT_EQ(c.value(), 5u);
  EXPECT_EQ(reg.counter_value("c"), 5u);
  EXPECT_EQ(reg.counter_value("absent"), 0u);

  Gauge& g = reg.gauge("g");
  g.set(2.5);
  EXPECT_DOUBLE_EQ(g.value(), 2.5);

  Histogram& h = reg.histogram("h");
  for (const double x : {1.0, 2.0, 3.0}) h.observe(x);
  const RunningStats snap = h.snapshot();
  EXPECT_EQ(snap.count(), 3u);
  EXPECT_DOUBLE_EQ(snap.mean(), 2.0);
  EXPECT_DOUBLE_EQ(snap.min(), 1.0);
  EXPECT_DOUBLE_EQ(snap.max(), 3.0);
}

TEST(Histogram, MergeEqualsObservingOneByOne) {
  const std::vector<double> earlier = {3.5, -1.25, 8.0};
  const std::vector<double> batch = {0.5, 12.75, -4.0, 2.25, 7.5, 0.125};
  Histogram one_by_one;
  Histogram merged;
  for (const double x : earlier) {
    one_by_one.observe(x);
    merged.observe(x);
  }
  RunningStats run;
  for (const double x : batch) {
    one_by_one.observe(x);
    run.add(x);
  }
  merged.merge(run);
  const RunningStats a = one_by_one.snapshot();
  const RunningStats b = merged.snapshot();
  EXPECT_EQ(b.count(), a.count());
  EXPECT_EQ(b.min(), a.min());
  EXPECT_EQ(b.max(), a.max());
  // Dyadic values: every partial sum is exact, so the sums agree exactly.
  EXPECT_EQ(b.sum(), a.sum());
  EXPECT_NEAR(b.mean(), a.mean(), 1e-12);
  EXPECT_NEAR(b.stddev(), a.stddev(), 1e-12);
}

TEST(Histogram, MergeIntoEmptyCopiesAndEmptyMergeIsANoOp) {
  RunningStats run;
  for (const double x : {1.0, 2.0, 4.0}) run.add(x);
  Histogram h;
  h.merge(run);
  RunningStats snap = h.snapshot();
  EXPECT_EQ(snap.count(), 3u);
  EXPECT_EQ(snap.sum(), 7.0);
  EXPECT_EQ(snap.mean(), run.mean());
  EXPECT_EQ(snap.stddev(), run.stddev());

  h.merge(RunningStats{});
  const RunningStats after = h.snapshot();
  EXPECT_EQ(after.count(), snap.count());
  EXPECT_EQ(after.mean(), snap.mean());
  EXPECT_EQ(after.stddev(), snap.stddev());
  EXPECT_EQ(after.min(), snap.min());
  EXPECT_EQ(after.max(), snap.max());
  EXPECT_EQ(after.sum(), snap.sum());

  Histogram empty;
  empty.merge(RunningStats{});
  EXPECT_EQ(empty.snapshot().count(), 0u);
}

TEST(MetricsRegistry, LookupReturnsStableObjects) {
  MetricsRegistry reg;
  Counter& first = reg.counter("same");
  Counter& second = reg.counter("same");
  EXPECT_EQ(&first, &second);
  first.add(3);
  EXPECT_EQ(second.value(), 3u);
}

TEST(MetricsRegistry, ResetZeroesButKeepsReferencesValid) {
  MetricsRegistry reg;
  Counter& c = reg.counter("c");
  Histogram& h = reg.histogram("h");
  c.add(7);
  h.observe(1.0);
  reg.reset();
  EXPECT_EQ(c.value(), 0u);
  EXPECT_EQ(h.snapshot().count(), 0u);
  c.add();  // the cached reference still points at the live metric
  EXPECT_EQ(reg.counter_value("c"), 1u);
}

TEST(MetricsRegistry, WriteJsonIsParseableAndSorted) {
  MetricsRegistry reg;
  reg.counter("b.count").add(2);
  reg.counter("a.count").add(1);
  reg.gauge("level").set(0.5);
  reg.histogram("err").observe(1.5);
  reg.histogram("err").observe(2.5);

  std::ostringstream out;
  reg.write_json(out);
  const json::Value doc = json::parse(out.str());
  const json::Value* counters = doc.find("counters");
  ASSERT_NE(counters, nullptr);
  ASSERT_EQ(counters->object.size(), 2u);
  EXPECT_EQ(counters->object[0].first, "a.count");  // std::map order
  EXPECT_EQ(counters->object[1].first, "b.count");
  EXPECT_DOUBLE_EQ(counters->find("b.count")->number, 2.0);
  EXPECT_DOUBLE_EQ(doc.find("gauges")->find("level")->number, 0.5);
  const json::Value* err = doc.find("histograms")->find("err");
  ASSERT_NE(err, nullptr);
  EXPECT_DOUBLE_EQ(err->find("count")->number, 2.0);
  EXPECT_DOUBLE_EQ(err->find("mean")->number, 2.0);
}

// Run under TSan (scripts/verify.sh) this doubles as the data-race check
// for the lock-free counter path and the histogram spinlock.
TEST(MetricsRegistry, ConcurrentPublishersLoseNothing) {
  MetricsRegistry reg;
  constexpr int kThreads = 8;
  constexpr int kOps = 10000;
  std::vector<std::thread> pool;
  for (int t = 0; t < kThreads; ++t) {
    pool.emplace_back([&reg] {
      // Half the threads race the registry lookup itself, half use a cached
      // reference like real publishers do.
      Counter& c = reg.counter("hits");
      Histogram& h = reg.histogram("vals");
      for (int i = 0; i < kOps; ++i) {
        c.add();
        h.observe(static_cast<double>(i));
        reg.counter("hits").add();
      }
    });
  }
  for (auto& t : pool) t.join();
  EXPECT_EQ(reg.counter_value("hits"), std::uint64_t{2 * kThreads * kOps});
  EXPECT_EQ(reg.histogram("vals").snapshot().count(),
            std::uint64_t{kThreads * kOps});
}

TEST(MetricsRegistry, GlobalIsASingleton) {
  EXPECT_EQ(&MetricsRegistry::global(), &MetricsRegistry::global());
}

}  // namespace
}  // namespace cpm::util
