// Regression (ISSUE 4 satellite): querying a ShardedDriver that has never
// ingested a tuple must return the defined zero-stream answer — exactly what
// a freshly built summary of the same configuration answers — instead of
// relying on the edge behavior of merging S empty shards into a fresh
// scratch summary.
#include <cstdint>

#include <gtest/gtest.h>

#include "src/core/any_summary.h"
#include "src/core/correlated_f0.h"
#include "src/core/correlated_fk.h"
#include "src/driver/sharded_driver.h"

namespace castream {
namespace {

TEST(ShardedEmptyDriverTest, F2EmptyDriverAnswersLikeFreshSummary) {
  CorrelatedSketchOptions opts;
  opts.eps = 0.25;
  opts.delta = 0.1;
  opts.y_max = (uint64_t{1} << 12) - 1;
  opts.f_max_hint = 1e8;
  opts.conditions = AggregateConditions::ForFk(2.0);
  AmsF2SketchFactory factory(AmsDimsFor(opts.eps, 1e-4, 4), /*seed=*/5);
  auto make = [&] { return CorrelatedF2Sketch(opts, factory); };

  ShardedDriverOptions dopts;
  dopts.shards = 4;
  ShardedDriver<CorrelatedF2Sketch> driver(dopts, make);
  EXPECT_EQ(driver.tuples_processed(), 0u);

  const CorrelatedF2Sketch fresh = make();
  for (uint64_t c : {uint64_t{0}, uint64_t{100}, opts.y_max}) {
    const auto fresh_q = fresh.Query(c);
    const auto driver_q = driver.Query(c);
    ASSERT_EQ(fresh_q.ok(), driver_q.ok()) << "c=" << c;
    ASSERT_TRUE(driver_q.ok()) << "c=" << c;
    EXPECT_EQ(driver_q.value().estimate, 0.0) << "c=" << c;
    EXPECT_EQ(driver_q.value().estimate, fresh_q.value()) << "c=" << c;
  }
  // The snapshot is a fresh summary, not a merge artifact.
  auto merged = driver.Summarize();
  ASSERT_TRUE(merged.ok());
  EXPECT_EQ(merged.value()->tuples_inserted(), 0u);
  EXPECT_EQ(merged.value()->VirtualRootLevels(), fresh.VirtualRootLevels());

  // And ingest after the empty query still works normally.
  driver.Insert(3, 4);
  driver.Flush();
  auto after = driver.Query(opts.y_max);
  ASSERT_TRUE(after.ok());
  EXPECT_EQ(after.value().estimate, 1.0);  // single item, exact while sparse
}

TEST(ShardedEmptyDriverTest, F0EmptyDriverAnswersLikeFreshSummary) {
  CorrelatedF0Options opts;
  opts.eps = 0.25;
  opts.delta = 0.25;
  opts.x_domain = 2047;
  auto make = [&] { return CorrelatedF0Sketch(opts, /*seed=*/6); };

  ShardedDriverOptions dopts;
  dopts.shards = 3;
  ShardedDriver<CorrelatedF0Sketch> driver(dopts, make);

  const CorrelatedF0Sketch fresh = make();
  for (uint64_t c : {uint64_t{0}, uint64_t{999}}) {
    const auto fresh_q = fresh.Query(c);
    const auto driver_q = driver.Query(c);
    ASSERT_EQ(fresh_q.ok(), driver_q.ok()) << "c=" << c;
    ASSERT_TRUE(driver_q.ok()) << "c=" << c;
    EXPECT_EQ(driver_q.value().estimate, 0.0) << "c=" << c;
  }
}

TEST(ShardedEmptyDriverTest, AnySummaryEmptyDriverEveryKind) {
  SummaryOptions opts;
  opts.eps = 0.25;
  opts.delta = 0.2;
  opts.y_max = 1023;
  opts.f_max_hint = 1e6;
  opts.x_domain = 1023;
  for (const char* name : {"f2", "f0", "rarity", "hh"}) {
    auto make = [&] {
      return std::move(MakeSummary(name, opts, /*seed=*/9)).value();
    };
    ShardedDriverOptions dopts;
    dopts.shards = 2;
    ShardedDriver<AnySummary> driver(dopts, make);
    const AnySummary fresh = make();
    const auto fresh_q = fresh.Query(500);
    const auto driver_q = driver.Query(500);
    ASSERT_EQ(fresh_q.ok(), driver_q.ok()) << name;
    if (fresh_q.ok()) {
      EXPECT_EQ(fresh_q.value(), driver_q.value().estimate) << name;
    }
  }
}

}  // namespace
}  // namespace castream
