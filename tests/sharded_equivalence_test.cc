// The sharded driver is documented as *deterministic* with a single writer:
// each shard receives its x-partitioned sub-stream in arrival order, batched
// ingest is exactly equivalent to one-at-a-time ingest, and query-time
// merging is a pure function of the shard states. So the default blocking
// path of an S-shard driver must return answers bit-for-bit equal to the
// "merge oracle": feed S summaries by partitioning the stream with the
// driver's own ShardOf, then fold them with test::TreeOrderFold — an
// implementation of the tree order independent of the driver's MergeCache
// — passing shards that received no tuples as null. Checked for every
// summary type, plus the S=1 degenerate case against a plain unsharded
// summary.
#include <cstdint>
#include <memory>
#include <span>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "src/core/correlated_chh.h"
#include "src/core/correlated_f0.h"
#include "src/core/correlated_fk.h"
#include "src/core/correlated_heavy_hitters.h"
#include "src/driver/sharded_driver.h"
#include "src/stream/generators.h"
#include "src/stream/types.h"
#include "tests/test_util.h"

namespace castream {
namespace {

using test::TreeOrderFold;

std::vector<uint64_t> CutoffLadder(uint64_t y_max, uint64_t seed) {
  std::vector<uint64_t> cutoffs{0, 1, y_max};
  for (uint64_t c = 2; c < y_max; c *= 2) cutoffs.push_back(c - 1);
  Xoshiro256 rng(seed);
  for (int i = 0; i < 8; ++i) cutoffs.push_back(rng.NextBounded(y_max + 1));
  return cutoffs;
}

// Feeds the driver with a mix of single inserts and uneven batches so chunk
// boundaries inside the driver's own batching are exercised too.
template <typename Summary>
void FeedDriver(ShardedDriver<Summary>& driver,
                const std::vector<Tuple>& stream) {
  static constexpr size_t kSizes[] = {1, 117, 3, 1024, 64, 7};
  size_t pos = 0;
  size_t turn = 0;
  while (pos < stream.size()) {
    const size_t want = kSizes[turn++ % std::size(kSizes)];
    const size_t take = std::min(want, stream.size() - pos);
    if (take == 1) {
      driver.Insert(stream[pos]);
    } else {
      driver.InsertBatch(std::span<const Tuple>(stream.data() + pos, take));
    }
    pos += take;
  }
}

/// \brief Tree-order merge oracle: partition by the driver's own ShardOf,
/// feed one summary per shard in stream order, and fold them with
/// test::TreeOrderFold. A shard that received no tuples never publishes,
/// so it is a null leaf; with no tuples at all the answer is a fresh
/// summary. Returned by value (a copy answers exactly like the original).
template <typename Summary, typename Make>
Summary MergeOracle(const ShardedDriver<Summary>& driver, Make make,
                    const std::vector<Tuple>& stream) {
  std::vector<std::vector<Tuple>> parts(driver.shard_count());
  for (const Tuple& t : stream) parts[driver.ShardOf(t.x)].push_back(t);
  std::vector<std::shared_ptr<const Summary>> shards(driver.shard_count());
  for (uint32_t s = 0; s < driver.shard_count(); ++s) {
    if (parts[s].empty()) continue;
    Summary shard = make();
    shard.InsertBatch(std::span<const Tuple>(parts[s]));
    shards[s] = std::make_shared<const Summary>(std::move(shard));
  }
  const auto folded = TreeOrderFold(shards);
  return folded != nullptr ? *folded : make();
}

template <typename Summary>
void ExpectIdenticalScalarQueries(const Summary& expected,
                                  const Summary& actual, uint64_t y_max) {
  for (uint64_t c : CutoffLadder(y_max, 99)) {
    const Result<double> ra = expected.Query(c);
    const Result<double> rb = actual.Query(c);
    ASSERT_EQ(ra.ok(), rb.ok()) << "c=" << c;
    if (ra.ok()) {
      ASSERT_EQ(ra.value(), rb.value()) << "c=" << c;
    }
  }
}

CorrelatedSketchOptions FrameworkOptions() {
  CorrelatedSketchOptions opts;
  opts.eps = 0.25;
  opts.delta = 0.1;
  opts.y_max = (uint64_t{1} << 14) - 1;
  opts.f_max_hint = 1e9;
  return opts;
}

TEST(ShardedEquivalenceTest, F2DriverMatchesMergeOracle) {
  const auto opts = FrameworkOptions();
  AmsF2SketchFactory factory(AmsDimsFor(opts.eps, 1e-4, 4), /*seed=*/42);
  CorrelatedSketchOptions patched = opts;
  patched.conditions = AggregateConditions::ForFk(2.0);
  auto make = [&] { return CorrelatedF2Sketch(patched, factory); };
  const auto stream = SkewedStream(30000, 600, opts.y_max, 7);

  ShardedDriverOptions dopts;
  dopts.shards = 4;
  dopts.batch_size = 256;
  ShardedDriver<CorrelatedF2Sketch> driver(dopts, make);
  FeedDriver(driver, stream);
  auto merged = driver.Summarize();
  ASSERT_TRUE(merged.ok());
  EXPECT_EQ(driver.tuples_processed(), stream.size());

  const auto oracle = MergeOracle(driver, make, stream);
  ASSERT_TRUE(merged.value()->ValidateInvariants().ok());
  ExpectIdenticalScalarQueries(oracle, *merged.value(), opts.y_max);
}

TEST(ShardedEquivalenceTest, SingleShardDriverMatchesUnshardedSummary) {
  const auto opts = FrameworkOptions();
  AmsF2SketchFactory factory(AmsDimsFor(opts.eps, 1e-4, 4), /*seed=*/43);
  CorrelatedSketchOptions patched = opts;
  patched.conditions = AggregateConditions::ForFk(2.0);
  auto make = [&] { return CorrelatedF2Sketch(patched, factory); };
  const auto stream = SkewedStream(20000, 500, opts.y_max, 8);

  CorrelatedF2Sketch unsharded = make();
  for (const Tuple& t : stream) unsharded.Insert(t.x, t.y);

  ShardedDriverOptions dopts;
  dopts.shards = 1;
  ShardedDriver<CorrelatedF2Sketch> driver(dopts, make);
  FeedDriver(driver, stream);
  auto merged = driver.Summarize();
  ASSERT_TRUE(merged.ok());
  ExpectIdenticalScalarQueries(unsharded, *merged.value(), opts.y_max);
}

TEST(ShardedEquivalenceTest, F0DriverMatchesMergeOracle) {
  CorrelatedF0Options opts;
  opts.eps = 0.2;
  opts.delta = 0.2;
  opts.x_domain = 4095;
  const uint64_t y_max = (uint64_t{1} << 12) - 1;
  auto make = [&] { return CorrelatedF0Sketch(opts, 44); };
  const auto stream = SkewedStream(20000, 3000, y_max, 10);

  ShardedDriverOptions dopts;
  dopts.shards = 4;
  ShardedDriver<CorrelatedF0Sketch> driver(dopts, make);
  FeedDriver(driver, stream);
  auto merged = driver.Summarize();
  ASSERT_TRUE(merged.ok());

  const auto oracle = MergeOracle(driver, make, stream);
  EXPECT_EQ(oracle.StoredTuplesEquivalent(),
            merged.value()->StoredTuplesEquivalent());
  ExpectIdenticalScalarQueries(oracle, *merged.value(), y_max);
}

TEST(ShardedEquivalenceTest, RarityDriverMatchesMergeOracle) {
  CorrelatedF0Options opts;
  opts.eps = 0.25;
  opts.delta = 0.25;
  opts.x_domain = 2047;
  const uint64_t y_max = (uint64_t{1} << 11) - 1;
  auto make = [&] { return CorrelatedRaritySketch(opts, 45); };
  const auto stream = SkewedStream(12000, 1500, y_max, 11);

  ShardedDriverOptions dopts;
  dopts.shards = 3;
  dopts.batch_size = 100;
  ShardedDriver<CorrelatedRaritySketch> driver(dopts, make);
  FeedDriver(driver, stream);
  auto merged = driver.Summarize();
  ASSERT_TRUE(merged.ok());

  const auto oracle = MergeOracle(driver, make, stream);
  ExpectIdenticalScalarQueries(oracle, *merged.value(), y_max);
}

TEST(ShardedEquivalenceTest, HeavyHittersDriverMatchesMergeOracle) {
  auto opts = FrameworkOptions();
  opts.f_max_hint = 1e8;
  auto make = [&] { return CorrelatedF2HeavyHitters(opts, 0.05, 46); };
  const auto stream = SkewedStream(20000, 500, opts.y_max, 12);

  ShardedDriverOptions dopts;
  dopts.shards = 4;
  ShardedDriver<CorrelatedF2HeavyHitters> driver(dopts, make);
  FeedDriver(driver, stream);
  auto merged = driver.Summarize();
  ASSERT_TRUE(merged.ok());

  const auto oracle = MergeOracle(driver, make, stream);
  for (uint64_t c : CutoffLadder(opts.y_max, 101)) {
    const auto fa = oracle.QueryF2(c);
    const auto fb = merged.value()->QueryF2(c);
    ASSERT_EQ(fa.ok(), fb.ok()) << "c=" << c;
    if (fa.ok()) {
      ASSERT_EQ(fa.value(), fb.value()) << "c=" << c;
    }
    const auto ha = oracle.Query(c, 0.1);
    const auto hb = merged.value()->Query(c, 0.1);
    ASSERT_EQ(ha.ok(), hb.ok()) << "c=" << c;
    if (!ha.ok()) continue;
    ASSERT_EQ(ha.value().size(), hb.value().size()) << "c=" << c;
    for (size_t i = 0; i < ha.value().size(); ++i) {
      ASSERT_EQ(ha.value()[i].item, hb.value()[i].item) << "c=" << c;
      ASSERT_EQ(ha.value()[i].estimated_frequency,
                hb.value()[i].estimated_frequency);
    }
  }
}

// The two counter-based CHH kinds are fully deterministic, so the driver
// must match the tree-order merge oracle bit for bit — scalar queries, the
// ranked hitter lists, and the serialized bytes.
template <typename Chh>
void ChhDriverMatchesMergeOracle(uint64_t stream_seed) {
  CorrelatedChhOptions opts;
  opts.x_capacity_override = 16;
  opts.y_capacity_override = 8;
  auto make = [&] { return Chh(opts); };
  const uint64_t y_max = 1023;
  const auto stream = SkewedStream(20000, 50000, y_max, stream_seed);

  ShardedDriverOptions dopts;
  dopts.shards = 4;
  ShardedDriver<Chh> driver(dopts, make);
  FeedDriver(driver, stream);
  auto merged = driver.Summarize();
  ASSERT_TRUE(merged.ok());
  EXPECT_EQ(driver.tuples_processed(), stream.size());

  const auto oracle = MergeOracle(driver, make, stream);
  EXPECT_EQ(oracle.TotalWeight(), merged.value()->TotalWeight());
  EXPECT_EQ(oracle.PrimaryDecrements(), merged.value()->PrimaryDecrements());
  ExpectIdenticalScalarQueries(oracle, *merged.value(), y_max);
  for (uint64_t c : CutoffLadder(y_max, 102)) {
    const auto ha = oracle.QueryHeavyHitters(c, 0.05);
    const auto hb = merged.value()->QueryHeavyHitters(c, 0.05);
    ASSERT_EQ(ha.ok(), hb.ok()) << "c=" << c;
    if (!ha.ok()) continue;
    ASSERT_EQ(ha.value().size(), hb.value().size()) << "c=" << c;
    for (size_t i = 0; i < ha.value().size(); ++i) {
      ASSERT_EQ(ha.value()[i].item, hb.value()[i].item) << "c=" << c;
      ASSERT_EQ(ha.value()[i].estimated_frequency,
                hb.value()[i].estimated_frequency);
      ASSERT_EQ(ha.value()[i].estimated_f2_share,
                hb.value()[i].estimated_f2_share);
    }
  }
  std::string oracle_blob;
  std::string merged_blob;
  ASSERT_TRUE(oracle.Serialize(&oracle_blob).ok());
  ASSERT_TRUE(merged.value()->Serialize(&merged_blob).ok());
  EXPECT_EQ(oracle_blob, merged_blob);
}

TEST(ShardedEquivalenceTest, NestedMgDriverMatchesMergeOracle) {
  ChhDriverMatchesMergeOracle<CorrelatedNestedMisraGries>(14);
}

TEST(ShardedEquivalenceTest, FastChhDriverMatchesMergeOracle) {
  ChhDriverMatchesMergeOracle<CorrelatedFastChh>(15);
}

TEST(ShardedEquivalenceTest, RepeatedMergesAndContinuedIngest) {
  // Summarize must leave the shards intact: query, keep ingesting, and
  // query again — the second answer, served from the incrementally
  // re-merged tree, covers the whole stream so far.
  const auto opts = FrameworkOptions();
  AmsF2SketchFactory factory(AmsDimsFor(opts.eps, 1e-4, 4), /*seed=*/47);
  CorrelatedSketchOptions patched = opts;
  patched.conditions = AggregateConditions::ForFk(2.0);
  auto make = [&] { return CorrelatedF2Sketch(patched, factory); };
  const auto stream = SkewedStream(20000, 500, opts.y_max, 13);

  ShardedDriverOptions dopts;
  dopts.shards = 2;
  ShardedDriver<CorrelatedF2Sketch> driver(dopts, make);
  const size_t half = stream.size() / 2;
  driver.InsertBatch(std::span<const Tuple>(stream.data(), half));
  auto first = driver.Summarize();
  ASSERT_TRUE(first.ok());
  driver.InsertBatch(
      std::span<const Tuple>(stream.data() + half, stream.size() - half));
  auto second = driver.Summarize();
  ASSERT_TRUE(second.ok());
  EXPECT_EQ(driver.tuples_processed(), stream.size());

  const auto oracle = MergeOracle(driver, make, stream);
  ExpectIdenticalScalarQueries(oracle, *second.value(), opts.y_max);
  // And the first snapshot answers over the prefix only.
  EXPECT_EQ(first.value()->tuples_inserted(), half);
}

}  // namespace
}  // namespace castream
