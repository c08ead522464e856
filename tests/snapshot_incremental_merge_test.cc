// The merge engine's incremental reuse (label: concurrency).
//
// ShardedDriver's MergeCache memoizes merges keyed by shard snapshot
// epochs in a binary merge tree. These tests pin the properties that make
// the memo safe to rely on:
//   * Answers are identical whether the memo is reused or rebuilt from
//     scratch (InvalidateSnapshotCache) — catching stale-epoch and
//     double-merge bugs — including the S=1 and empty-driver edges.
//   * The work is really skipped, observable via the driver's shard-merge
//     counter: a repeated blocking Query (or Summarize) with no
//     intervening ingest performs zero shard merges, and ingest confined
//     to one shard re-merges only that leaf's root path (log2 S nodes,
//     wherever the shard sits).
#include <cstdint>
#include <span>
#include <vector>

#include <gtest/gtest.h>

#include "src/core/correlated_fk.h"
#include "src/driver/sharded_driver.h"
#include "src/stream/generators.h"
#include "src/stream/types.h"
#include "tests/test_util.h"

namespace castream {
namespace {

CorrelatedSketchOptions F2Options() {
  CorrelatedSketchOptions opts;
  opts.eps = 0.25;
  opts.delta = 0.1;
  opts.y_max = (uint64_t{1} << 12) - 1;
  opts.f_max_hint = 1e9;
  opts.conditions = AggregateConditions::ForFk(2.0);
  return opts;
}

std::vector<uint64_t> CutoffLadder(uint64_t y_max) {
  std::vector<uint64_t> cutoffs{0, 1, y_max / 2, y_max};
  for (uint64_t c = 2; c < y_max; c *= 2) cutoffs.push_back(c - 1);
  return cutoffs;
}

// Snapshot-mode answers over the cutoff ladder.
template <typename Driver>
std::vector<Result<double>> LadderAnswers(Driver& driver, uint64_t y_max) {
  std::vector<Result<double>> answers;
  for (uint64_t c : CutoffLadder(y_max)) {
    auto answer = driver.Query(c, {.mode = QueryMode::kSnapshot});
    if (answer.ok()) {
      answers.push_back(Result<double>(answer.value().estimate));
    } else {
      answers.push_back(Result<double>(answer.status()));
    }
  }
  return answers;
}

void ExpectIdenticalAnswers(const std::vector<Result<double>>& a,
                            const std::vector<Result<double>>& b) {
  ASSERT_EQ(a.size(), b.size());
  for (size_t i = 0; i < a.size(); ++i) {
    ASSERT_EQ(a[i].ok(), b[i].ok()) << "cutoff index " << i;
    if (a[i].ok()) {
      ASSERT_EQ(a[i].value(), b[i].value()) << "cutoff index " << i;
    }
  }
}

TEST(SnapshotIncrementalMergeTest, ReusedEqualsRebuiltFromScratch) {
  const auto opts = F2Options();
  AmsF2SketchFactory factory(AmsDimsFor(opts.eps, 1e-4, 4), /*seed=*/61);
  ShardedDriverOptions dopts;
  dopts.shards = 4;
  dopts.batch_size = 128;
  dopts.snapshot_interval_batches = 2;
  ShardedDriver<CorrelatedF2Sketch> driver(
      dopts, [&] { return CorrelatedF2Sketch(opts, factory); });

  const auto stream = UniformStream(24000, 800, opts.y_max, 5);
  const size_t chunk = stream.size() / 3;
  for (int round = 0; round < 3; ++round) {
    driver.InsertBatch(std::span<const Tuple>(
        stream.data() + static_cast<size_t>(round) * chunk, chunk));
    driver.Flush();
    // Reuse path first (it may hit the memo from the previous round's
    // queries), then force a from-scratch rebuild over the same snapshots.
    const auto reused = LadderAnswers(driver, opts.y_max);
    driver.InvalidateSnapshotCache();
    const auto rebuilt = LadderAnswers(driver, opts.y_max);
    ExpectIdenticalAnswers(reused, rebuilt);
  }
}

TEST(SnapshotIncrementalMergeTest, BackToBackBlockingQueryPerformsZeroMerges) {
  const auto opts = F2Options();
  AmsF2SketchFactory factory(AmsDimsFor(opts.eps, 1e-4, 4), /*seed=*/62);
  ShardedDriverOptions dopts;
  dopts.shards = 4;
  dopts.batch_size = 128;
  ShardedDriver<CorrelatedF2Sketch> driver(
      dopts, [&] { return CorrelatedF2Sketch(opts, factory); });
  driver.InsertBatch(UniformStream(12000, 600, opts.y_max, 6));

  const auto first = driver.Query(opts.y_max / 2);
  ASSERT_TRUE(first.ok());
  const uint64_t merges_after_first = driver.shard_merges_performed();
  EXPECT_GT(merges_after_first, 0u);

  // No ingest since the last query: the epoch-keyed cache must answer and
  // the merge counter must not move — for Query and for Summarize.
  const auto second = driver.Query(opts.y_max / 2);
  ASSERT_TRUE(second.ok());
  EXPECT_EQ(second.value().estimate, first.value().estimate);
  EXPECT_EQ(driver.shard_merges_performed(), merges_after_first);

  auto merged = driver.Summarize();
  ASSERT_TRUE(merged.ok());
  EXPECT_EQ(driver.shard_merges_performed(), merges_after_first);

  // New data re-merges; going quiescent again re-caches.
  driver.InsertBatch(UniformStream(4000, 600, opts.y_max, 7));
  ASSERT_TRUE(driver.Query(opts.y_max / 2).ok());
  const uint64_t merges_after_ingest = driver.shard_merges_performed();
  EXPECT_GT(merges_after_ingest, merges_after_first);
  ASSERT_TRUE(driver.Query(opts.y_max / 2).ok());
  EXPECT_EQ(driver.shard_merges_performed(), merges_after_ingest);
}

// The tree's signature cost shape: churn on ANY single shard —
// first or last — re-merges only that leaf's root path: log2(S) internal
// nodes once every leaf is populated.
TEST(SnapshotIncrementalMergeTest, TreeSingleShardChurnRemergesRootPathOnly) {
  const auto opts = F2Options();
  AmsF2SketchFactory factory(AmsDimsFor(opts.eps, 1e-4, 4), /*seed=*/66);
  ShardedDriverOptions dopts;
  dopts.shards = 4;  // S = 4: full build 3 merges, root path 2
  dopts.batch_size = 64;
  ShardedDriver<CorrelatedF2Sketch> driver(
      dopts, [&] { return CorrelatedF2Sketch(opts, factory); });
  driver.InsertBatch(UniformStream(8000, 500, opts.y_max, 10));
  ASSERT_TRUE(driver.Query(opts.y_max).ok());
  // Full build over 4 populated leaves: 2 inner nodes + the root.
  EXPECT_EQ(driver.shard_merges_performed(), 3u);

  for (uint32_t target : {driver.shard_count() - 1, 0u}) {
    uint64_t x = 0;
    while (driver.ShardOf(x) != target) ++x;
    const uint64_t before = driver.shard_merges_performed();
    std::vector<Tuple> one_shard(500, Tuple{x, opts.y_max / 2});
    driver.InsertBatch(one_shard);
    ASSERT_TRUE(driver.Query(opts.y_max).ok());
    EXPECT_EQ(driver.shard_merges_performed(), before + 2)
        << "churned shard " << target;
  }
}

TEST(SnapshotIncrementalMergeTest, SingleShardReuseEqualsRebuild) {
  const auto opts = F2Options();
  AmsF2SketchFactory factory(AmsDimsFor(opts.eps, 1e-4, 4), /*seed=*/64);
  ShardedDriverOptions dopts;
  dopts.shards = 1;
  dopts.batch_size = 64;
  ShardedDriver<CorrelatedF2Sketch> driver(
      dopts, [&] { return CorrelatedF2Sketch(opts, factory); });
  driver.InsertBatch(UniformStream(6000, 400, opts.y_max, 9));
  driver.Flush();

  // A single-leaf tree aliases the snapshot — zero merges, ever, also
  // when the memo is rebuilt after an invalidation.
  const auto reused = LadderAnswers(driver, opts.y_max);
  EXPECT_EQ(driver.shard_merges_performed(), 0u);
  ExpectIdenticalAnswers(reused, LadderAnswers(driver, opts.y_max));
  driver.InvalidateSnapshotCache();
  ExpectIdenticalAnswers(reused, LadderAnswers(driver, opts.y_max));
  EXPECT_EQ(driver.shard_merges_performed(), 0u);
}

TEST(SnapshotIncrementalMergeTest, EmptyDriverAnswersAsFreshSummary) {
  const auto opts = F2Options();
  AmsF2SketchFactory factory(AmsDimsFor(opts.eps, 1e-4, 4), /*seed=*/65);
  auto make = [&] { return CorrelatedF2Sketch(opts, factory); };
  ShardedDriverOptions dopts;
  dopts.shards = 3;
  ShardedDriver<CorrelatedF2Sketch> driver(dopts, make);

  const CorrelatedF2Sketch fresh = make();
  const auto reused = LadderAnswers(driver, opts.y_max);
  EXPECT_EQ(driver.shard_merges_performed(), 0u);  // nothing published
  driver.InvalidateSnapshotCache();
  const auto rebuilt = LadderAnswers(driver, opts.y_max);
  EXPECT_EQ(driver.shard_merges_performed(), 0u);
  ExpectIdenticalAnswers(reused, rebuilt);
  for (size_t i = 0; i < CutoffLadder(opts.y_max).size(); ++i) {
    const auto expected = fresh.Query(CutoffLadder(opts.y_max)[i]);
    ASSERT_EQ(expected.ok(), reused[i].ok());
    if (expected.ok()) {
      ASSERT_EQ(expected.value(), reused[i].value());
    }
  }
}

}  // namespace
}  // namespace castream
