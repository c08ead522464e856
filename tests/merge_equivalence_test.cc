// MergeFrom on every summary type: merging summaries built over split
// sub-streams must answer like one summary over the whole stream.
//
// The contract is tiered to what each design allows:
//   * bit-for-bit — merging into a fresh summary clones answers exactly
//     (losless in-family sketch copies); tiny streams where no bucket ever
//     closes merge exactly; CorrelatedF0/Rarity merge exactly whenever no
//     level budget overflowed (their state is a pure min-y map union);
//   * statistical — tree summaries that closed/split buckets at different
//     times on each side still answer within the (eps, delta) band of the
//     exact truth, checked with the shared TrialsWithin/SweepCounter
//     helpers;
//   * loud failure — mismatched configurations or hash families return
//     PreconditionFailed and self-merge returns InvalidArgument.
#include <cstdint>
#include <map>
#include <span>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "src/common/math_util.h"
#include "src/core/correlated_chh.h"
#include "src/core/correlated_f0.h"
#include "src/core/correlated_fk.h"
#include "src/core/correlated_heavy_hitters.h"
#include "src/core/exact_correlated.h"
#include "src/stream/generators.h"
#include "src/stream/types.h"
#include "tests/test_util.h"

namespace castream {
namespace {

using test::F0Oracle;
using test::SweepCounter;
using test::TrialsWithin;

// Round-robin split: deliberately NOT the x-partition the sharded driver
// uses, so the same identifier shows up in several parts and the merge has
// to combine overlapping per-x state (the harder case).
std::vector<std::vector<Tuple>> RoundRobinSplit(const std::vector<Tuple>& s,
                                                size_t parts) {
  std::vector<std::vector<Tuple>> out(parts);
  for (size_t i = 0; i < s.size(); ++i) out[i % parts].push_back(s[i]);
  return out;
}

std::vector<uint64_t> CutoffLadder(uint64_t y_max, uint64_t seed) {
  std::vector<uint64_t> cutoffs{0, 1, y_max};
  for (uint64_t c = 2; c < y_max; c *= 2) cutoffs.push_back(c - 1);
  Xoshiro256 rng(seed);
  for (int i = 0; i < 8; ++i) cutoffs.push_back(rng.NextBounded(y_max + 1));
  return cutoffs;
}

template <typename S>
void ExpectIdenticalScalarQueries(const S& expected, const S& actual,
                                  uint64_t y_max) {
  for (uint64_t c : CutoffLadder(y_max, 77)) {
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

// ---- CorrelatedSketch (AMS F2 instantiation) ------------------------------

TEST(MergeEquivalenceTest, MergeIntoFreshSummaryClonesAnswersBitForBit) {
  // A fresh summary absorbing a split one exercises densify-on-demand (every
  // level materializes out of the virtual pool during the merge) and subtree
  // adoption for the whole tree; in-family merges are lossless, so the clone
  // must answer exactly like the original.
  const auto opts = FrameworkOptions();
  AmsF2SketchFactory factory(AmsDimsFor(opts.eps, 1e-4, 4), /*seed=*/42);
  CorrelatedSketchOptions patched = opts;
  patched.conditions = AggregateConditions::ForFk(2.0);
  CorrelatedF2Sketch original(patched, factory);
  CorrelatedF2Sketch clone(patched, factory);
  for (const Tuple& t : SkewedStream(30000, 600, opts.y_max, 7)) {
    original.Insert(t.x, t.y);
  }
  ASSERT_TRUE(clone.MergeFrom(original).ok());
  ASSERT_TRUE(clone.ValidateInvariants().ok());
  ASSERT_EQ(clone.tuples_inserted(), original.tuples_inserted());
  for (uint32_t l = 0; l <= original.max_level(); ++l) {
    ASSERT_EQ(original.LevelThreshold(l), clone.LevelThreshold(l)) << l;
    // The clone may store *fewer* buckets: subtrees at or beyond Y_l (dead
    // weight the original still carries from pre-discard history) are
    // deliberately not adopted. Never more.
    ASSERT_LE(clone.StoredBuckets(l), original.StoredBuckets(l)) << l;
  }
  ExpectIdenticalScalarQueries(original, clone, opts.y_max);
}

TEST(MergeEquivalenceTest, NeverSplitSummariesMergeBitForBit) {
  // Streams small enough that no bucket ever closes anywhere: the merged
  // state is exactly the single-stream state (sparse AMS entries add
  // losslessly; every level still rides the shared virtual tail).
  const auto opts = FrameworkOptions();
  AmsF2SketchFactory factory(AmsDimsFor(opts.eps, 1e-4, 4), /*seed=*/43);
  CorrelatedSketchOptions patched = opts;
  patched.conditions = AggregateConditions::ForFk(2.0);
  CorrelatedF2Sketch a(patched, factory);
  CorrelatedF2Sketch b(patched, factory);
  CorrelatedF2Sketch whole(patched, factory);
  const std::vector<Tuple> stream = {{11, 5}, {12, 900}, {13, 77}};
  for (size_t i = 0; i < stream.size(); ++i) {
    (i % 2 == 0 ? a : b).Insert(stream[i].x, stream[i].y);
    whole.Insert(stream[i].x, stream[i].y);
  }
  ASSERT_TRUE(a.MergeFrom(b).ok());
  ASSERT_EQ(a.VirtualRootLevels(), whole.VirtualRootLevels());
  ExpectIdenticalScalarQueries(whole, a, opts.y_max);
}

TEST(MergeEquivalenceTest, SplitStreamMergeWithinEpsOfTruth) {
  // Three-way round-robin split: buckets close and split at different times
  // on each side, so the merged tree is not the single-stream tree — but
  // the answers must stay inside the (eps, delta) band of the exact truth.
  const auto opts = FrameworkOptions();
  EXPECT_TRUE(TrialsWithin(6, 0.34, [&](int trial) {
    const uint64_t seed = 100 + static_cast<uint64_t>(trial);
    AmsF2SketchFactory factory(AmsDimsFor(opts.eps, 1e-4, 4), seed);
    CorrelatedSketchOptions patched = opts;
    patched.conditions = AggregateConditions::ForFk(2.0);
    const auto stream = SkewedStream(40000, 500, opts.y_max, seed);
    ExactCorrelatedAggregate truth(AggregateKind::kF2);
    for (const Tuple& t : stream) truth.Insert(t.x, t.y);
    CorrelatedF2Sketch merged(patched, factory);
    for (auto& part : RoundRobinSplit(stream, 3)) {
      CorrelatedF2Sketch shard(patched, factory);
      shard.InsertBatch(std::span<const Tuple>(part));
      if (!shard.ValidateInvariants().ok()) return false;
      if (!merged.MergeFrom(shard).ok()) return false;
    }
    if (!merged.ValidateInvariants().ok()) return false;
    SweepCounter sweep;
    for (uint64_t c = 256; c <= opts.y_max; c = c * 2 + 1) {
      auto r = merged.Query(c);
      if (!r.ok()) continue;  // below every threshold: allowed FAIL
      sweep.Count(WithinRelativeError(r.value(), truth.Query(c), opts.eps));
    }
    return sweep.checked() >= 4 && sweep.misses() <= 1;
  }));
}

TEST(MergeEquivalenceTest, NeverSplitSummaryMergesIntoSplitSummary) {
  // The issue's corner case: a virtual-root-only summary (nothing ever
  // closed) merging into one whose levels are split, and the reverse.
  const auto opts = FrameworkOptions();
  AmsF2SketchFactory factory(AmsDimsFor(opts.eps, 1e-4, 4), /*seed=*/45);
  CorrelatedSketchOptions patched = opts;
  patched.conditions = AggregateConditions::ForFk(2.0);
  const auto big = SkewedStream(40000, 500, opts.y_max, 11);
  const std::vector<Tuple> tiny = {{1001, 3}, {1002, 4000}, {1003, 12000}};
  ExactCorrelatedAggregate truth(AggregateKind::kF2);
  for (const Tuple& t : big) truth.Insert(t.x, t.y);
  for (const Tuple& t : tiny) truth.Insert(t.x, t.y);

  CorrelatedF2Sketch split(patched, factory);
  for (const Tuple& t : big) split.Insert(t.x, t.y);
  CorrelatedF2Sketch virtual_only(patched, factory);
  for (const Tuple& t : tiny) virtual_only.Insert(t.x, t.y);
  ASSERT_GT(virtual_only.VirtualRootLevels(), 0u);

  // virtual -> split and split -> virtual must agree with each other
  // (same union, same family) and with the truth.
  CorrelatedF2Sketch forward(patched, factory);
  ASSERT_TRUE(forward.MergeFrom(split).ok());
  ASSERT_TRUE(forward.MergeFrom(virtual_only).ok());
  CorrelatedF2Sketch backward(patched, factory);
  ASSERT_TRUE(backward.MergeFrom(virtual_only).ok());
  ASSERT_TRUE(backward.MergeFrom(split).ok());
  ASSERT_TRUE(forward.ValidateInvariants().ok());
  ASSERT_TRUE(backward.ValidateInvariants().ok());

  SweepCounter sweep;
  for (uint64_t c = 256; c <= opts.y_max; c = c * 2 + 1) {
    auto rf = forward.Query(c);
    auto rb = backward.Query(c);
    ASSERT_EQ(rf.ok(), rb.ok()) << "c=" << c;
    if (!rf.ok()) continue;
    sweep.Count(WithinRelativeError(rf.value(), truth.Query(c), opts.eps));
    sweep.Count(WithinRelativeError(rb.value(), truth.Query(c), opts.eps));
  }
  EXPECT_TRUE(sweep.AtMost(/*max_misses=*/2, /*min_checked=*/8));
}

TEST(MergeEquivalenceTest, ExactBucketFrameworkMergeWithinEps) {
  // Exact per-bucket aggregates isolate the framework's own merge error
  // (discarded buckets and straddling spans) from sketch noise.
  auto opts = FrameworkOptions();
  opts.f_max_hint = 1e7;
  const auto stream = SkewedStream(30000, 400, opts.y_max, 13);
  ExactCorrelatedAggregate truth(AggregateKind::kF2);
  for (const Tuple& t : stream) truth.Insert(t.x, t.y);
  auto merged = MakeCorrelatedExact(opts, AggregateKind::kF2);
  for (auto& part : RoundRobinSplit(stream, 4)) {
    auto shard = MakeCorrelatedExact(opts, AggregateKind::kF2);
    shard.InsertBatch(std::span<const Tuple>(part));
    ASSERT_TRUE(merged.MergeFrom(shard).ok());
  }
  ASSERT_TRUE(merged.ValidateInvariants().ok());
  SweepCounter sweep;
  for (uint64_t c = 256; c <= opts.y_max; c = c * 2 + 1) {
    auto r = merged.Query(c);
    if (!r.ok()) continue;
    sweep.Count(WithinRelativeError(r.value(), truth.Query(c), opts.eps));
  }
  EXPECT_TRUE(sweep.AtMost(/*max_misses=*/1, /*min_checked=*/4));
}

// ---- CorrelatedF0Sketch / CorrelatedRaritySketch --------------------------

TEST(MergeEquivalenceTest, F0MergeBitForBitWhenNoBudgetOverflow) {
  // With budgets that never overflow, a level's state is exactly the min-y
  // map of its sampled identifiers, and the merged map equals the
  // single-stream map — answers must match bit-for-bit for every cutoff.
  CorrelatedF0Options opts;
  opts.eps = 0.1;  // alpha = 400 >> 300 distinct ids: no evictions
  opts.delta = 0.2;
  opts.x_domain = 4095;
  const uint64_t y_max = (uint64_t{1} << 12) - 1;
  const auto stream = SkewedStream(20000, 300, y_max, 17);
  CorrelatedF0Sketch whole(opts, 44);
  CorrelatedF0Sketch merged(opts, 44);
  for (const Tuple& t : stream) whole.Insert(t.x, t.y);
  for (auto& part : RoundRobinSplit(stream, 3)) {
    CorrelatedF0Sketch shard(opts, 44);
    for (const Tuple& t : part) shard.Insert(t.x, t.y);
    ASSERT_TRUE(merged.MergeFrom(shard).ok());
  }
  ASSERT_EQ(whole.StoredTuplesEquivalent(), merged.StoredTuplesEquivalent());
  ExpectIdenticalScalarQueries(whole, merged, y_max);
}

TEST(MergeEquivalenceTest, F0MergeWithEvictionsWithinEps) {
  // Budgets small enough to overflow: merged answers lose bit-for-bit
  // equality (eviction order differs) but keep the (eps, delta) guarantee.
  CorrelatedF0Options opts;
  opts.eps = 0.2;
  opts.delta = 0.2;
  opts.x_domain = (uint64_t{1} << 16) - 1;
  const uint64_t y_max = (uint64_t{1} << 12) - 1;
  EXPECT_TRUE(TrialsWithin(6, 0.34, [&](int trial) {
    const uint64_t seed = 300 + static_cast<uint64_t>(trial);
    const auto stream = SkewedStream(30000, 20000, y_max, seed);
    F0Oracle oracle;
    for (const Tuple& t : stream) oracle.Insert(t.x, t.y);
    CorrelatedF0Sketch merged(opts, seed);
    for (auto& part : RoundRobinSplit(stream, 3)) {
      CorrelatedF0Sketch shard(opts, seed);
      shard.InsertBatch(std::span<const Tuple>(part));
      if (!merged.MergeFrom(shard).ok()) return false;
    }
    auto r = merged.Query(y_max);
    return r.ok() &&
           WithinRelativeError(r.value(), oracle.Distinct(y_max), opts.eps);
  }));
}

TEST(MergeEquivalenceTest, RarityMergeBitForBitWhenNoBudgetOverflow) {
  // Rarity needs the *two* smallest occurrence values per id to merge
  // exactly — including the case where both sides saw the same (x, y).
  CorrelatedF0Options opts;
  opts.eps = 0.1;
  opts.delta = 0.25;
  opts.x_domain = 2047;
  const uint64_t y_max = (uint64_t{1} << 11) - 1;
  const auto stream = SkewedStream(12000, 250, y_max, 19);
  CorrelatedRaritySketch whole(opts, 45);
  CorrelatedRaritySketch merged(opts, 45);
  for (const Tuple& t : stream) whole.Insert(t.x, t.y);
  for (auto& part : RoundRobinSplit(stream, 2)) {
    CorrelatedRaritySketch shard(opts, 45);
    for (const Tuple& t : part) shard.Insert(t.x, t.y);
    ASSERT_TRUE(merged.MergeFrom(shard).ok());
  }
  ExpectIdenticalScalarQueries(whole, merged, y_max);
}

// ---- CorrelatedF2HeavyHitters ---------------------------------------------

TEST(MergeEquivalenceTest, HeavyHittersMergeRecoversOracleHitters) {
  auto opts = FrameworkOptions();
  opts.f_max_hint = 1e8;
  const uint64_t seed = 46;
  const auto stream = SkewedStream(20000, 500, opts.y_max, 12);
  test::HeavyHittersOracle oracle;
  for (const Tuple& t : stream) oracle.Insert(t.x, t.y);

  CorrelatedF2HeavyHitters merged(opts, 0.05, seed);
  for (auto& part : RoundRobinSplit(stream, 3)) {
    // Same (options, phi_eps, seed): value-based family identity makes
    // independently constructed summaries mergeable.
    CorrelatedF2HeavyHitters shard(opts, 0.05, seed);
    shard.InsertBatch(std::span<const Tuple>(part));
    ASSERT_TRUE(merged.MergeFrom(shard).ok());
  }
  ASSERT_TRUE(merged.ValidateInvariants().ok());

  // Every clear oracle hitter (phi = 0.25) must be reported by the merged
  // summary at the laxer phi = 0.1 — the classic no-false-negative check.
  for (uint64_t c : {opts.y_max, opts.y_max / 2}) {
    const auto truth = oracle.Hitters(c, 0.25);
    auto r = merged.Query(c, 0.1);
    ASSERT_TRUE(r.ok()) << "c=" << c;
    for (uint64_t x : truth) {
      bool found = false;
      for (const HeavyHitter& h : r.value()) found = found || h.item == x;
      EXPECT_TRUE(found) << "oracle hitter " << x << " missing at c=" << c;
    }
  }
}

// ---- Correlated heavy-hitters panel (chh_mg / chh_fast) -------------------

// In the exact regime (tables never overflow) both counter summaries are
// plain nested counting maps, so a round-robin shard merge must reproduce
// the whole-stream summary byte for byte, not just answer-for-answer.
template <typename Chh>
void ChhMergeBitForBitWhenTablesNeverOverflow() {
  CorrelatedChhOptions opts;
  opts.x_capacity_override = 64;
  opts.y_capacity_override = 32;
  Xoshiro256 rng(61);
  std::vector<Tuple> stream;
  for (int i = 0; i < 9000; ++i) {
    stream.push_back(Tuple{rng.NextBounded(24), rng.NextBounded(12)});
  }
  Chh whole(opts);
  whole.InsertBatch(std::span<const Tuple>(stream));
  Chh merged(opts);
  for (auto& part : RoundRobinSplit(stream, 3)) {
    Chh shard(opts);
    shard.InsertBatch(std::span<const Tuple>(part));
    ASSERT_TRUE(merged.MergeFrom(shard).ok());
  }
  EXPECT_EQ(whole.TotalWeight(), merged.TotalWeight());
  EXPECT_EQ(merged.PrimaryDecrements(), 0u);
  std::string whole_blob;
  std::string merged_blob;
  ASSERT_TRUE(whole.Serialize(&whole_blob).ok());
  ASSERT_TRUE(merged.Serialize(&merged_blob).ok());
  EXPECT_EQ(whole_blob, merged_blob);
}

TEST(MergeEquivalenceTest, NestedMgMergeBitForBitWhenTablesNeverOverflow) {
  ChhMergeBitForBitWhenTablesNeverOverflow<CorrelatedNestedMisraGries>();
}

TEST(MergeEquivalenceTest, FastChhMergeBitForBitWhenTablesNeverOverflow) {
  ChhMergeBitForBitWhenTablesNeverOverflow<CorrelatedFastChh>();
}

// Under overflow the shard merge may differ from the single-stream summary
// in which tail items it retains, but the deterministic guarantees survive:
// Query stays a lower bound on the exact correlated count, the decrement
// mass respects the Misra-Gries bound, and a clear heavy hitter is still
// reported at a laxer phi (no false negatives within the error budget).
template <typename Chh>
void ChhMergeKeepsGuaranteesUnderOverflow() {
  CorrelatedChhOptions opts;
  opts.x_capacity_override = 16;
  opts.y_capacity_override = 8;
  constexpr uint64_t kHeavy = 9;
  Xoshiro256 rng(62);
  std::vector<Tuple> stream;
  std::map<uint64_t, std::map<uint64_t, uint64_t>> exact;
  for (int i = 0; i < 12000; ++i) {
    const uint64_t x =
        (i % 3 == 0) ? kHeavy : 1000 + rng.NextBounded(100000);
    const uint64_t y = rng.NextBounded(6);
    stream.push_back(Tuple{x, y});
    ++exact[x][y];
  }
  Chh merged(opts);
  for (auto& part : RoundRobinSplit(stream, 4)) {
    Chh shard(opts);
    shard.InsertBatch(std::span<const Tuple>(part));
    ASSERT_TRUE(merged.MergeFrom(shard).ok());
  }
  const uint64_t n = stream.size();
  EXPECT_EQ(merged.TotalWeight(), n);
  EXPECT_LE(merged.PrimaryDecrements(), n / (opts.XCapacity() + 1));
  for (uint64_t c : {uint64_t{2}, uint64_t{5}, uint64_t{100}}) {
    uint64_t exact_total = 0;
    for (const auto& [x, by_y] : exact) {
      for (const auto& [y, count] : by_y) {
        if (y <= c) exact_total += count;
      }
    }
    auto r = merged.Query(c);
    ASSERT_TRUE(r.ok()) << "c=" << c;
    EXPECT_LE(r.value(), static_cast<double>(exact_total)) << "c=" << c;
  }
  auto hitters = merged.QueryHeavyHitters(5, 0.15);
  ASSERT_TRUE(hitters.ok());
  bool found = false;
  for (const HeavyHitter& h : hitters.value()) {
    found = found || h.item == kHeavy;
  }
  EXPECT_TRUE(found) << "clear hitter lost in the shard merge";
}

TEST(MergeEquivalenceTest, NestedMgMergeKeepsGuaranteesUnderOverflow) {
  ChhMergeKeepsGuaranteesUnderOverflow<CorrelatedNestedMisraGries>();
}

TEST(MergeEquivalenceTest, FastChhMergeKeepsGuaranteesUnderOverflow) {
  ChhMergeKeepsGuaranteesUnderOverflow<CorrelatedFastChh>();
}

// ---- Loud failures --------------------------------------------------------

TEST(MergeEquivalenceTest, MismatchedFamiliesAndConfigsFailLoudly) {
  const auto opts = FrameworkOptions();
  CorrelatedSketchOptions patched = opts;
  patched.conditions = AggregateConditions::ForFk(2.0);
  const SketchDims dims = AmsDimsFor(opts.eps, 1e-4, 4);

  // Different hash seeds: the family probe must reject even empty summaries.
  CorrelatedF2Sketch a(patched, AmsF2SketchFactory(dims, 1));
  CorrelatedF2Sketch b(patched, AmsF2SketchFactory(dims, 2));
  EXPECT_EQ(a.MergeFrom(b).code(), Status::Code::kPreconditionFailed);

  // Same seed but different structural configuration.
  CorrelatedSketchOptions other_alpha = patched;
  other_alpha.alpha_override = patched.Alpha() + 1;
  CorrelatedF2Sketch c(other_alpha, AmsF2SketchFactory(dims, 1));
  EXPECT_EQ(a.MergeFrom(c).code(), Status::Code::kPreconditionFailed);

  CorrelatedSketchOptions other_ymax = patched;
  other_ymax.y_max = patched.y_max / 2;
  CorrelatedF2Sketch d(other_ymax, AmsF2SketchFactory(dims, 1));
  EXPECT_EQ(a.MergeFrom(d).code(), Status::Code::kPreconditionFailed);

  // Self-merge is a caller bug, not a silent doubling.
  EXPECT_EQ(a.MergeFrom(a).code(), Status::Code::kInvalidArgument);

  // Same seed, same dims, distinct factory objects: must merge (value-based
  // family identity).
  CorrelatedF2Sketch e(patched, AmsF2SketchFactory(dims, 1));
  EXPECT_TRUE(a.MergeFrom(e).ok());

  CorrelatedF0Options f0_opts;
  CorrelatedF0Sketch f(f0_opts, 7);
  CorrelatedF0Sketch g(f0_opts, 8);
  EXPECT_EQ(f.MergeFrom(g).code(), Status::Code::kPreconditionFailed);
  EXPECT_EQ(f.MergeFrom(f).code(), Status::Code::kInvalidArgument);

  CorrelatedF2HeavyHitters h(opts, 0.05, 7);
  CorrelatedF2HeavyHitters i(opts, 0.05, 8);
  EXPECT_EQ(h.MergeFrom(i).code(), Status::Code::kPreconditionFailed);

  // The counter-based CHH kinds key family identity on effective capacities.
  CorrelatedChhOptions chh_a;
  chh_a.x_capacity_override = 16;
  chh_a.y_capacity_override = 8;
  CorrelatedChhOptions chh_b = chh_a;
  chh_b.x_capacity_override = 32;
  CorrelatedNestedMisraGries j(chh_a);
  CorrelatedNestedMisraGries k(chh_b);
  EXPECT_EQ(j.MergeFrom(k).code(), Status::Code::kPreconditionFailed);
  EXPECT_EQ(j.MergeFrom(j).code(), Status::Code::kInvalidArgument);
  CorrelatedFastChh l(chh_a);
  CorrelatedFastChh m(chh_b);
  EXPECT_EQ(l.MergeFrom(m).code(), Status::Code::kPreconditionFailed);
  EXPECT_EQ(l.MergeFrom(l).code(), Status::Code::kInvalidArgument);
}

}  // namespace
}  // namespace castream
