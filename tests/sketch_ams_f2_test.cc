// Tests for the AMS-F2 sketch (Thorup-Zhang variant).
#include <cmath>
#include <cstdint>
#include <vector>

#include <gtest/gtest.h>

#include "src/common/math_util.h"
#include "src/common/random.h"
#include "src/sketch/ams_f2.h"
#include "src/sketch/exact.h"
#include "tests/test_util.h"

namespace castream {
namespace {

using test::TrialsWithin;

TEST(AmsF2Test, EmptySketchEstimatesZero) {
  AmsF2SketchFactory factory(SketchDims{4, 64}, 1);
  AmsF2Sketch s = factory.Create();
  EXPECT_EQ(s.Estimate(), 0.0);
  EXPECT_EQ(s.NetCount(), 0);
}

TEST(AmsF2Test, SingleItemIsExact) {
  AmsF2SketchFactory factory(SketchDims{4, 64}, 2);
  AmsF2Sketch s = factory.Create();
  s.Insert(42, 7);
  // One item of weight 7: F2 = 49 regardless of hashing.
  EXPECT_DOUBLE_EQ(s.Estimate(), 49.0);
}

TEST(AmsF2Test, DeletionCancelsInsertion) {
  AmsF2SketchFactory factory(SketchDims{4, 64}, 3);
  AmsF2Sketch s = factory.Create();
  for (uint64_t x = 0; x < 100; ++x) s.Insert(x, 3);
  for (uint64_t x = 0; x < 100; ++x) s.Insert(x, -3);
  EXPECT_DOUBLE_EQ(s.Estimate(), 0.0);
  EXPECT_EQ(s.NetCount(), 0);
}

TEST(AmsF2Test, IncrementalEstimateMatchesRecomputation) {
  // The O(1) sum-of-squares maintenance must agree with recomputing row
  // sums from the counters; merging triggers the recompute path.
  AmsF2SketchFactory factory(SketchDims{5, 32}, 4);
  AmsF2Sketch a = factory.Create();
  AmsF2Sketch empty = factory.Create();
  Xoshiro256 rng(5);
  for (int i = 0; i < 5000; ++i) {
    a.Insert(rng.NextBounded(300), static_cast<int64_t>(rng.NextBounded(5)) - 2);
  }
  double incremental = a.Estimate();
  ASSERT_TRUE(a.MergeFrom(empty).ok());  // forces row_ss recompute
  EXPECT_DOUBLE_EQ(a.Estimate(), incremental);
}

TEST(AmsF2Test, MergeEqualsConcatenation) {
  AmsF2SketchFactory factory(SketchDims{4, 128}, 6);
  AmsF2Sketch ab = factory.Create();
  AmsF2Sketch a = factory.Create();
  AmsF2Sketch b = factory.Create();
  Xoshiro256 rng(7);
  for (int i = 0; i < 4000; ++i) {
    uint64_t x = rng.NextBounded(500);
    ab.Insert(x);
    (i % 2 ? a : b).Insert(x);
  }
  ASSERT_TRUE(a.MergeFrom(b).ok());
  EXPECT_DOUBLE_EQ(a.Estimate(), ab.Estimate());
  EXPECT_EQ(a.NetCount(), ab.NetCount());
}

TEST(AmsF2Test, MergeRejectsForeignFamily) {
  AmsF2SketchFactory f1(SketchDims{4, 64}, 8);
  AmsF2SketchFactory f2(SketchDims{4, 64}, 9);
  AmsF2Sketch a = f1.Create();
  AmsF2Sketch b = f2.Create();
  Status st = a.MergeFrom(b);
  EXPECT_FALSE(st.ok());
  EXPECT_EQ(st.code(), Status::Code::kPreconditionFailed);
}

TEST(AmsF2Test, SizeAccountsForCounters) {
  AmsF2SketchFactory factory(SketchDims{4, 64}, 10);
  AmsF2Sketch s = factory.Create();
  EXPECT_EQ(s.CounterCount(), 0u);  // sparse and empty
  for (uint64_t x = 0; x < 1000; ++x) s.Insert(x);  // force densification
  EXPECT_EQ(s.CounterCount(), 4u * 64u);
  EXPECT_GE(s.SizeBytes(), 4u * 64u * sizeof(int64_t));
}

TEST(AmsF2Test, DimsFromAccuracyShrinkWithEps) {
  SketchDims tight = AmsDimsFor(0.05, 0.05);
  SketchDims loose = AmsDimsFor(0.3, 0.05);
  EXPECT_GT(tight.width, loose.width);
}

// Accuracy sweep: relative error within eps across datasets and seeds. AMS
// is a randomized (eps, delta) estimator; with width 8/eps^2 and a median
// over 6 rows a miss is rare, and we tolerate none at these sizes.
struct AmsAccuracyCase {
  double eps;
  uint64_t domain;
  int n;
  bool zipf_like;
};

class AmsAccuracyTest : public ::testing::TestWithParam<AmsAccuracyCase> {};

TEST_P(AmsAccuracyTest, RelativeErrorWithinEps) {
  const AmsAccuracyCase c = GetParam();
  EXPECT_TRUE(TrialsWithin(/*trials=*/5, /*delta=*/0.2, [&](int trial) {
    AmsF2SketchFactory factory(c.eps, 0.05, 1000 + trial);
    AmsF2Sketch sketch = factory.Create();
    ExactAggregate exact = ExactAggregateFactory(AggregateKind::kF2).Create();
    Xoshiro256 rng(trial * 77 + 13);
    for (int i = 0; i < c.n; ++i) {
      uint64_t x = c.zipf_like
                       ? static_cast<uint64_t>(
                             c.domain /
                             (1 + rng.NextBounded(c.domain)))  // ~1/x tail
                       : rng.NextBounded(c.domain);
      sketch.Insert(x);
      exact.Insert(x);
    }
    return WithinRelativeError(sketch.Estimate(), exact.Estimate(), c.eps);
  })) << "eps=" << c.eps << " n=" << c.n;
}

INSTANTIATE_TEST_SUITE_P(
    Sweep, AmsAccuracyTest,
    ::testing::Values(AmsAccuracyCase{0.10, 1000, 20000, false},
                      AmsAccuracyCase{0.15, 5000, 30000, false},
                      AmsAccuracyCase{0.20, 500, 10000, false},
                      AmsAccuracyCase{0.10, 1000, 20000, true},
                      AmsAccuracyCase{0.20, 5000, 30000, true},
                      AmsAccuracyCase{0.30, 100, 5000, true}));

TEST(AmsF2Test, StartsSparseAndDensifiesUnderLoad) {
  AmsF2SketchFactory factory(SketchDims{4, 64}, 20);
  AmsF2Sketch s = factory.Create();
  EXPECT_TRUE(s.IsSparse());
  // Few distinct items: stays sparse and exact.
  for (uint64_t x = 0; x < 10; ++x) s.Insert(x, 2);
  EXPECT_TRUE(s.IsSparse());
  EXPECT_DOUBLE_EQ(s.Estimate(), 40.0);  // 10 items of weight 2 -> 10*4
  EXPECT_EQ(s.CounterCount(), 10u);
  // Many distinct items: densifies; capacity is depth*width/8 = 32 entries.
  for (uint64_t x = 100; x < 200; ++x) s.Insert(x);
  EXPECT_FALSE(s.IsSparse());
  EXPECT_EQ(s.CounterCount(), 4u * 64u);
}

TEST(AmsF2Test, SparseEstimateIsExactUnderDeletions) {
  AmsF2SketchFactory factory(SketchDims{4, 256}, 21);
  AmsF2Sketch s = factory.Create();
  s.Insert(1, 5);
  s.Insert(2, 3);
  s.Insert(1, -2);  // f = {1:3, 2:3}
  ASSERT_TRUE(s.IsSparse());
  EXPECT_DOUBLE_EQ(s.Estimate(), 18.0);
}

TEST(AmsF2Test, MergeAcrossSparseAndDenseModes) {
  AmsF2SketchFactory factory(SketchDims{4, 64}, 22);
  Xoshiro256 rng(23);
  // Build one dense and one sparse sketch plus a reference fed everything.
  AmsF2Sketch dense = factory.Create();
  AmsF2Sketch sparse = factory.Create();
  AmsF2Sketch reference = factory.Create();
  for (int i = 0; i < 2000; ++i) {
    uint64_t x = rng.NextBounded(400);
    dense.Insert(x);
    reference.Insert(x);
  }
  for (uint64_t x = 0; x < 5; ++x) {
    sparse.Insert(x, 7);
    reference.Insert(x, 7);
  }
  ASSERT_FALSE(dense.IsSparse());
  ASSERT_TRUE(sparse.IsSparse());
  // dense += sparse.
  ASSERT_TRUE(dense.MergeFrom(sparse).ok());
  EXPECT_DOUBLE_EQ(dense.Estimate(), reference.Estimate());
  EXPECT_EQ(dense.NetCount(), reference.NetCount());
  // sparse += dense (forces densification of the target).
  AmsF2Sketch sparse2 = factory.Create();
  sparse2.Insert(999, 1);
  AmsF2Sketch dense2 = factory.Create();
  for (int i = 0; i < 2000; ++i) dense2.Insert(rng.NextBounded(400));
  AmsF2Sketch ref2 = factory.Create();
  ASSERT_TRUE(ref2.MergeFrom(dense2).ok());
  ref2.Insert(999, 1);
  ASSERT_TRUE(sparse2.MergeFrom(dense2).ok());
  EXPECT_DOUBLE_EQ(sparse2.Estimate(), ref2.Estimate());
}

TEST(AmsF2Test, SparseToSparseMergeStaysExact) {
  AmsF2SketchFactory factory(SketchDims{4, 256}, 24);
  AmsF2Sketch a = factory.Create();
  AmsF2Sketch b = factory.Create();
  a.Insert(1, 2);
  b.Insert(1, 3);
  b.Insert(2, 1);
  ASSERT_TRUE(a.MergeFrom(b).ok());
  ASSERT_TRUE(a.IsSparse());
  EXPECT_DOUBLE_EQ(a.Estimate(), 26.0);  // 5^2 + 1^2
}

TEST(AmsF2Test, WeightedInsertEquivalentToRepeats) {
  AmsF2SketchFactory factory(SketchDims{4, 64}, 11);
  AmsF2Sketch weighted = factory.Create();
  AmsF2Sketch repeated = factory.Create();
  for (uint64_t x = 0; x < 50; ++x) {
    weighted.Insert(x, 5);
    for (int r = 0; r < 5; ++r) repeated.Insert(x);
  }
  EXPECT_DOUBLE_EQ(weighted.Estimate(), repeated.Estimate());
}

}  // namespace
}  // namespace castream
