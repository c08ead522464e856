// Tests for the KMV distinct-count sketch.
#include <cstdint>

#include <gtest/gtest.h>

#include "src/common/math_util.h"
#include "src/common/random.h"
#include "src/sketch/kmv.h"
#include "tests/test_util.h"

namespace castream {
namespace {

using test::TrialsWithin;

TEST(KmvTest, ExactBelowCapacity) {
  KmvSketchFactory factory(64, 1);
  KmvSketch s = factory.Create();
  for (uint64_t x = 0; x < 50; ++x) s.Insert(x);
  EXPECT_DOUBLE_EQ(s.Estimate(), 50.0);
}

TEST(KmvTest, DuplicatesDoNotInflate) {
  KmvSketchFactory factory(64, 2);
  KmvSketch s = factory.Create();
  for (int rep = 0; rep < 100; ++rep) {
    for (uint64_t x = 0; x < 30; ++x) s.Insert(x);
  }
  EXPECT_DOUBLE_EQ(s.Estimate(), 30.0);
}

class KmvAccuracyTest : public ::testing::TestWithParam<double> {};

TEST_P(KmvAccuracyTest, EstimateWithinEps) {
  const double eps = GetParam();
  const uint32_t k = KmvSketchFactory::KForAccuracy(eps, 0.05);
  EXPECT_TRUE(TrialsWithin(/*trials=*/5, /*delta=*/0.2, [&](int trial) {
    KmvSketchFactory factory(k, 100 + trial);
    KmvSketch s = factory.Create();
    const uint64_t truth = 50000;
    Xoshiro256 rng(trial);
    for (uint64_t x = 0; x < truth; ++x) {
      s.Insert(x);
      if (rng.NextDouble() < 0.3) s.Insert(x);  // duplicates
    }
    return WithinRelativeError(s.Estimate(), static_cast<double>(truth), eps);
  }));
}

INSTANTIATE_TEST_SUITE_P(Sweep, KmvAccuracyTest,
                         ::testing::Values(0.05, 0.1, 0.2, 0.3));

TEST(KmvTest, MergeEqualsUnion) {
  KmvSketchFactory factory(128, 3);
  KmvSketch a = factory.Create();
  KmvSketch b = factory.Create();
  KmvSketch u = factory.Create();
  for (uint64_t x = 0; x < 5000; ++x) {
    if (x % 2 == 0) a.Insert(x);
    if (x % 3 == 0) b.Insert(x);
    if (x % 2 == 0 || x % 3 == 0) u.Insert(x);
  }
  ASSERT_TRUE(a.MergeFrom(b).ok());
  EXPECT_DOUBLE_EQ(a.Estimate(), u.Estimate());
}

TEST(KmvTest, MergeRejectsForeignFamily) {
  KmvSketchFactory f1(64, 4);
  KmvSketchFactory f2(64, 5);
  KmvSketch a = f1.Create();
  KmvSketch b = f2.Create();
  EXPECT_EQ(a.MergeFrom(b).code(), Status::Code::kPreconditionFailed);
}

TEST(KmvTest, KForAccuracyGrowsAsEpsShrinks) {
  EXPECT_GT(KmvSketchFactory::KForAccuracy(0.05, 0.1),
            KmvSketchFactory::KForAccuracy(0.2, 0.1));
  EXPECT_GE(KmvSketchFactory::KForAccuracy(0.1, 0.001),
            KmvSketchFactory::KForAccuracy(0.1, 0.1));
}

TEST(KmvTest, SizeBoundedByK) {
  KmvSketchFactory factory(32, 6);
  KmvSketch s = factory.Create();
  for (uint64_t x = 0; x < 100000; ++x) s.Insert(x);
  EXPECT_LE(s.CounterCount(), 32u);
}

}  // namespace
}  // namespace castream
