// The merge engine's contract (label: concurrency).
//
// src/driver/merge_cache.h serves every query through one memoized
// evaluation shape, a binary merge tree (O(log S) MergeFrom calls per
// changed slot). This suite pins it:
//
//   * Cost: the tree's merge counts are exactly the structural ones — a
//     full build over S populated leaves is S-1 merges, single-leaf churn
//     re-merges only the log2(S) root path (slot position irrelevant),
//     and never-published slots are aliased for free. Verified both on a
//     bare MergeCache at S=64 and through a 64-shard ShardedDriver under
//     single-shard churn.
//   * Correctness: an incrementally churned memo answers bit-for-bit like
//     test::TreeOrderFold over the same snapshots (stale parents are never
//     served), and null leaves contribute nothing (checked exactly via
//     tuples_inserted).
//   * Accuracy: for the f2/f0/rarity/hh registry kinds, under randomized
//     slot arrival orders, the tree's estimates land within the
//     summaries' accuracy band of exact ground truth (TrialsWithin, the
//     same (eps, delta) shape every guarantee in the paper has).
#include <algorithm>
#include <cmath>
#include <cstdint>
#include <memory>
#include <span>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "src/core/any_summary.h"
#include "src/core/correlated_fk.h"
#include "src/driver/merge_cache.h"
#include "src/driver/sharded_driver.h"
#include "src/stream/types.h"
#include "tests/test_util.h"

namespace castream {
namespace {

using test::ExactFk;
using test::F0Oracle;
using test::TestRng;
using test::TreeOrderFold;
using test::TrialsWithin;
using test::UniformStream;

// All F2 sketches in this suite share one sketch seed (equal hash
// families), so any subset is mergeable; streams vary per snapshot.
constexpr uint64_t kSketchSeed = 71;

CorrelatedSketchOptions F2Options() {
  CorrelatedSketchOptions opts;
  opts.eps = 0.25;
  opts.delta = 0.1;
  opts.y_max = (uint64_t{1} << 12) - 1;
  opts.f_max_hint = 1e9;
  return opts;
}

/// \brief S small F2 snapshots over independent streams, each wrapped the
/// way the driver publishes them.
std::vector<std::shared_ptr<const CorrelatedF2Sketch>> MakeSnapshots(
    size_t count, const CorrelatedSketchOptions& opts, uint64_t stream_seed) {
  std::vector<std::shared_ptr<const CorrelatedF2Sketch>> snaps;
  snaps.reserve(count);
  for (size_t s = 0; s < count; ++s) {
    CorrelatedF2Sketch sketch = MakeCorrelatedF2(opts, kSketchSeed);
    for (const Tuple& t :
         UniformStream(40, 300, opts.y_max, stream_seed * 1000 + s)) {
      sketch.Insert(t.x, t.y);
    }
    snaps.push_back(
        std::make_shared<const CorrelatedF2Sketch>(std::move(sketch)));
  }
  return snaps;
}

// ---------------------------------------------------------------------------
// Cost shape, bare engine.

TEST(MergeTreeTest, TreeCountsFullBuildAndRootPathChurnAtS64) {
  const auto opts = F2Options();
  constexpr size_t kSlots = 64;
  auto snaps = MakeSnapshots(kSlots, opts, 1);
  std::vector<uint64_t> epochs(kSlots, 1);
  MergeCache<CorrelatedF2Sketch> cache(
      [&] { return MakeCorrelatedF2(opts, kSketchSeed); });

  // Full build over 64 populated leaves: 63 internal merges.
  ASSERT_TRUE(cache.Merge(snaps, epochs).ok());
  EXPECT_EQ(cache.merges_performed(), kSlots - 1);

  // Unchanged epochs: pure cache hit.
  ASSERT_TRUE(cache.Merge(snaps, epochs).ok());
  EXPECT_EQ(cache.merges_performed(), kSlots - 1);

  // Single-slot churn re-merges exactly the log2(64) = 6-node root path —
  // wherever the slot sits (first, middle, last).
  uint64_t expected = kSlots - 1;
  for (size_t slot : {size_t{0}, size_t{31}, size_t{63}}) {
    snaps[slot] = MakeSnapshots(1, opts, 50 + slot)[0];
    ++epochs[slot];
    ASSERT_TRUE(cache.Merge(snaps, epochs).ok());
    expected += 6;
    EXPECT_EQ(cache.merges_performed(), expected) << "slot " << slot;
  }
}

TEST(MergeTreeTest, TreeHandlesNonPowerOfTwoAndNullSlots) {
  const auto opts = F2Options();
  auto made = MakeSnapshots(5, opts, 2);
  MergeCache<CorrelatedF2Sketch> cache(
      [&] { return MakeCorrelatedF2(opts, kSketchSeed); });

  // S=5 with slots 1 and 3 never published: only 3 live leaves, so the
  // build needs exactly 2 merges; the null slots are aliased for free.
  std::vector<std::shared_ptr<const CorrelatedF2Sketch>> snaps{
      made[0], nullptr, made[2], nullptr, made[4]};
  std::vector<uint64_t> epochs{1, 0, 1, 0, 1};
  auto merged = cache.Merge(snaps, epochs);
  ASSERT_TRUE(merged.ok());
  EXPECT_EQ(cache.merges_performed(), 2u);
  // Null slots contribute nothing, live ones exactly once (this is the
  // double-merge / dropped-slot detector: tuple counts add exactly).
  EXPECT_EQ(merged.value()->tuples_inserted(),
            made[0]->tuples_inserted() + made[2]->tuples_inserted() +
                made[4]->tuples_inserted());

  // A slot publishing for the first time joins the tree via its root path.
  snaps[1] = made[1];
  epochs[1] = 1;
  merged = cache.Merge(snaps, epochs);
  ASSERT_TRUE(merged.ok());
  EXPECT_EQ(merged.value()->tuples_inserted(),
            made[0]->tuples_inserted() + made[1]->tuples_inserted() +
                made[2]->tuples_inserted() + made[4]->tuples_inserted());
}

// Incrementally churned memo == an independent from-scratch tree-order
// fold, bit-for-bit (the "stale parents are never served" pin).
TEST(MergeTreeTest, ChurnedMemoMatchesFreshRebuildBitForBit) {
  const auto opts = F2Options();
  constexpr size_t kSlots = 11;  // non-power-of-two on purpose
  auto snaps = MakeSnapshots(kSlots, opts, 3);
  std::vector<uint64_t> epochs(kSlots, 1);

  MergeCache<CorrelatedF2Sketch> churned(
      [&] { return MakeCorrelatedF2(opts, kSketchSeed); });
  ASSERT_TRUE(churned.Merge(snaps, epochs).ok());
  Xoshiro256 rng = TestRng(74);
  for (int round = 0; round < 20; ++round) {
    const size_t slot = rng.NextBounded(kSlots);
    snaps[slot] = MakeSnapshots(1, opts, 200 + round)[0];
    ++epochs[slot];
    ASSERT_TRUE(churned.Merge(snaps, epochs).ok());
  }
  auto reused = churned.Merge(snaps, epochs);
  ASSERT_TRUE(reused.ok());

  const auto rebuilt = TreeOrderFold(snaps);
  ASSERT_NE(rebuilt, nullptr);
  for (uint64_t c : {uint64_t{0}, opts.y_max / 3, opts.y_max}) {
    const auto qa = reused.value()->Query(c);
    const auto qb = rebuilt->Query(c);
    ASSERT_EQ(qa.ok(), qb.ok()) << "c=" << c;
    if (qa.ok()) {
      ASSERT_EQ(qa.value(), qb.value()) << "c=" << c;
    }
  }
}

// ---------------------------------------------------------------------------
// Cost shape, through the driver: S=64 single-shard churn performs
// O(log S) = 6 MergeFrom calls per query.

TEST(MergeTreeTest, DriverSingleShardChurnAtS64IsLogS) {
  const auto opts = F2Options();
  ShardedDriverOptions dopts;
  dopts.shards = 64;
  dopts.batch_size = 128;
  ShardedDriver<CorrelatedF2Sketch> driver(
      dopts, [&] { return MakeCorrelatedF2(opts, kSketchSeed); });

  // Every id in [0, 4096) once: all 64 shards receive tuples, so the
  // first blocking query publishes and tree-merges all 64 leaves.
  std::vector<Tuple> warmup;
  warmup.reserve(4096);
  Xoshiro256 rng = TestRng(76);
  for (uint64_t x = 0; x < 4096; ++x) {
    warmup.push_back(Tuple{x, rng.NextBounded(opts.y_max + 1)});
  }
  driver.InsertBatch(warmup);
  ASSERT_TRUE(driver.Query(opts.y_max).ok());
  ASSERT_EQ(driver.shard_merges_performed(), 63u)
      << "expected all 64 shards populated and tree-merged";

  // Steady-state churn confined to one shard: every follow-up query must
  // re-merge exactly the 6-node root path, regardless of which shard.
  for (uint64_t hot_x : {uint64_t{7}, uint64_t{1009}, uint64_t{4000}}) {
    const uint64_t before = driver.shard_merges_performed();
    std::vector<Tuple> hot(300, Tuple{hot_x, opts.y_max / 2});
    driver.InsertBatch(hot);
    ASSERT_TRUE(driver.Query(opts.y_max).ok());
    EXPECT_EQ(driver.shard_merges_performed(), before + 6)
        << "hot x " << hot_x << " (shard " << driver.ShardOf(hot_x) << ")";
  }
}

// ---------------------------------------------------------------------------
// Accuracy of the tree fold for the f2/f0/rarity/hh registry kinds under
// randomized slot arrival orders.

struct KindCase {
  std::string_view name;
  // Exact ground truth at cutoff c for the kind's scalar query.
  double (*truth)(const std::vector<Tuple>& stream, uint64_t c);
  // Acceptance band around the truth (generous: merge-order robustness,
  // not accuracy, is under test — the per-kind accuracy suites pin tight
  // bands).
  double (*tolerance)(double truth);
};

double F2Truth(const std::vector<Tuple>& stream, uint64_t c) {
  std::vector<uint64_t> xs;
  for (const Tuple& t : stream) {
    if (t.y <= c) xs.push_back(t.x);
  }
  return ExactFk(xs, 2.0);
}

double DistinctTruth(const std::vector<Tuple>& stream, uint64_t c) {
  F0Oracle oracle;
  for (const Tuple& t : stream) oracle.Insert(t.x, t.y);
  return oracle.Distinct(c);
}

double RarityTruth(const std::vector<Tuple>& stream, uint64_t c) {
  F0Oracle oracle;
  for (const Tuple& t : stream) oracle.Insert(t.x, t.y);
  return oracle.Rarity(c);
}

double RelativeBand(double truth) { return 2.0 * 0.25 * truth + 10.0; }
double AdditiveBand(double) { return 0.25; }

constexpr KindCase kKindCases[] = {
    {"f2", &F2Truth, &RelativeBand},
    {"f0", &DistinctTruth, &RelativeBand},
    {"rarity", &RarityTruth, &AdditiveBand},
    {"hh", &F2Truth, &RelativeBand},  // the hh scalar query is backing F2
};

TEST(MergeTreeTest, TreeAnswersWithinExactBandForAllKinds) {
  constexpr size_t kSlots = 9;
  constexpr uint64_t kYMax = (uint64_t{1} << 12) - 1;
  SummaryOptions sopts;
  sopts.eps = 0.25;
  sopts.delta = 0.1;
  sopts.y_max = kYMax;
  sopts.f_max_hint = 1e9;
  sopts.x_domain = 4095;
  sopts.phi_eps = 0.05;

  for (const KindCase& kind : kKindCases) {
    SCOPED_TRACE(std::string(kind.name));
    EXPECT_TRUE(TrialsWithin(10, 0.2, [&](int trial) {
      const uint64_t seed = 500 + static_cast<uint64_t>(trial);
      // Domain ~ stream length: real singleton mass, so the rarity case
      // compares nontrivial fractions rather than 0 == 0.
      const auto stream = UniformStream(5000, 4000, kYMax, seed);

      // Partition the stream across slots by x (any fixed split works; the
      // split just has to be consistent with the truth being whole-stream).
      std::vector<AnySummary> parts;
      for (size_t s = 0; s < kSlots; ++s) {
        parts.push_back(MakeSummary(kind.name, sopts, seed).value());
      }
      for (const Tuple& t : stream) {
        parts[t.x % kSlots].Insert(t.x, t.y);
      }

      // Randomized publish order: slots arrive one at a time in a shuffled
      // order, with a tree merge after every arrival — the incremental
      // path a live reducer's table exercises.
      std::vector<size_t> order(kSlots);
      for (size_t s = 0; s < kSlots; ++s) order[s] = s;
      Xoshiro256 rng = TestRng(seed * 7 + 1);
      for (size_t s = kSlots - 1; s > 0; --s) {
        std::swap(order[s], order[rng.NextBounded(s + 1)]);
      }
      MergeCache<AnySummary> cache(
          [&] { return MakeSummary(kind.name, sopts, seed).value(); });
      std::vector<std::shared_ptr<const AnySummary>> snaps(kSlots);
      std::vector<uint64_t> epochs(kSlots, 0);
      Result<std::shared_ptr<const AnySummary>> tree =
          Status::Internal("unset");
      for (size_t s : order) {
        snaps[s] =
            std::make_shared<const AnySummary>(std::move(parts[s]));
        epochs[s] = 1;
        tree = cache.Merge(snaps, epochs);
        if (!tree.ok()) return false;
      }

      for (uint64_t c : {kYMax / 4, kYMax / 2, kYMax}) {
        const double truth = kind.truth(stream, c);
        const auto qt = tree.value()->Query(c);
        if (!qt.ok()) return false;
        if (std::abs(qt.value() - truth) > kind.tolerance(truth)) {
          return false;
        }
      }
      return true;
    }));
  }
}

}  // namespace
}  // namespace castream
