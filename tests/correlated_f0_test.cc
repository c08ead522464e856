// Tests for correlated distinct counting (Section 3.2) and rarity (3.3).
#include <cstdint>
#include <set>

#include <gtest/gtest.h>

#include "src/common/math_util.h"
#include "src/common/random.h"
#include "src/core/correlated_f0.h"
#include "src/stream/generators.h"
#include "tests/test_util.h"

namespace castream {
namespace {

using test::F0Oracle;
using test::SweepCounter;

CorrelatedF0Options SmallF0Options() {
  CorrelatedF0Options o;
  o.eps = 0.1;
  o.delta = 0.2;
  o.x_domain = (1 << 20) - 1;
  return o;
}

TEST(CorrelatedF0Test, EmptySummaryAnswersZero) {
  CorrelatedF0Sketch sketch(SmallF0Options(), 1);
  auto r = sketch.Query(1000);
  ASSERT_TRUE(r.ok());
  EXPECT_DOUBLE_EQ(r.value(), 0.0);
}

TEST(CorrelatedF0Test, ExactWhileLevelZeroFits) {
  // Below the level-0 budget the level-0 sample holds everything: exact.
  auto opts = SmallF0Options();
  CorrelatedF0Sketch sketch(opts, 2);
  F0Oracle oracle;
  Xoshiro256 rng(3);
  for (int i = 0; i < 150; ++i) {
    uint64_t x = rng.NextBounded(100);
    uint64_t y = rng.NextBounded(1000);
    sketch.Insert(x, y);
    oracle.Insert(x, y);
  }
  for (uint64_t c : {0ull, 10ull, 500ull, 999ull}) {
    EXPECT_DOUBLE_EQ(sketch.Query(c).value(), oracle.Distinct(c)) << "c=" << c;
  }
}

TEST(CorrelatedF0Test, DuplicatesDoNotInflate) {
  CorrelatedF0Sketch sketch(SmallF0Options(), 4);
  for (int rep = 0; rep < 50; ++rep) {
    for (uint64_t x = 0; x < 40; ++x) sketch.Insert(x, 100 + x);
  }
  EXPECT_DOUBLE_EQ(sketch.Query(1000).value(), 40.0);
}

TEST(CorrelatedF0Test, MinYRetainedAcrossArrivalOrders) {
  // The same (x, y) multiset in opposite arrival orders must agree: the
  // sample depends on values, not order (the property Section 3.2 exploits).
  auto opts = SmallF0Options();
  CorrelatedF0Sketch forward(opts, 5);
  CorrelatedF0Sketch backward(opts, 5);  // same seed: same hash levels
  std::vector<Tuple> tuples;
  Xoshiro256 rng(6);
  for (int i = 0; i < 5000; ++i) {
    tuples.push_back(Tuple{rng.NextBounded(2000), rng.NextBounded(100000)});
  }
  for (const Tuple& t : tuples) forward.Insert(t.x, t.y);
  for (auto it = tuples.rbegin(); it != tuples.rend(); ++it) {
    backward.Insert(it->x, it->y);
  }
  for (uint64_t c : {1000ull, 30000ull, 99999ull}) {
    auto f = forward.Query(c);
    auto b = backward.Query(c);
    ASSERT_EQ(f.ok(), b.ok());
    if (f.ok()) {
      EXPECT_DOUBLE_EQ(f.value(), b.value()) << "c=" << c;
    }
  }
}

class CorrelatedF0AccuracyTest : public ::testing::TestWithParam<double> {};

TEST_P(CorrelatedF0AccuracyTest, WithinEpsAcrossCutoffs) {
  const double eps = GetParam();
  auto opts = SmallF0Options();
  opts.eps = eps;
  CorrelatedF0Sketch sketch(opts, 7);
  F0Oracle oracle;
  UniformGenerator gen(200000, 1000000, 8);
  for (int i = 0; i < 100000; ++i) {
    Tuple t = gen.Next();
    sketch.Insert(t.x, t.y);
    oracle.Insert(t.x, t.y);
  }
  SweepCounter sweep;
  for (uint64_t c = 4095; c <= 1000000; c = c * 4 + 3) {
    auto r = sketch.Query(c);
    if (!r.ok()) continue;
    sweep.Count(WithinRelativeError(r.value(), oracle.Distinct(c), eps));
  }
  EXPECT_TRUE(sweep.AtMost(/*max_misses=*/1, /*min_checked=*/4))
      << "eps=" << eps;
}

INSTANTIATE_TEST_SUITE_P(Sweep, CorrelatedF0AccuracyTest,
                         ::testing::Values(0.1, 0.15, 0.25));

TEST(CorrelatedF0Test, SpaceBoundedByLevelsTimesAlpha) {
  auto opts = SmallF0Options();
  CorrelatedF0Sketch sketch(opts, 9);
  UniformGenerator gen(1000000, 1000000, 10);
  for (int i = 0; i < 200000; ++i) {
    Tuple t = gen.Next();
    sketch.Insert(t.x, t.y);
  }
  EXPECT_LE(sketch.StoredTuplesEquivalent(),
            static_cast<size_t>(sketch.levels()) * sketch.alpha() *
                sketch.repetitions());
  EXPECT_GT(sketch.SizeBytes(), 0u);
}

TEST(CorrelatedF0Test, SpaceFlatInStreamLength) {
  auto opts = SmallF0Options();
  CorrelatedF0Sketch sketch(opts, 11);
  UniformGenerator gen(1000000, 1000000, 12);
  size_t size_early = 0;
  for (int i = 0; i < 300000; ++i) {
    Tuple t = gen.Next();
    sketch.Insert(t.x, t.y);
    if (i == 60000) size_early = sketch.StoredTuplesEquivalent();
  }
  EXPECT_LT(sketch.StoredTuplesEquivalent(),
            static_cast<size_t>(static_cast<double>(size_early) * 1.5));
}

TEST(CorrelatedF0Test, RarityRequiresTracking) {
  CorrelatedF0Sketch sketch(SmallF0Options(), 13);
  sketch.Insert(1, 1);
  EXPECT_EQ(sketch.QueryRarity(10).status().code(),
            Status::Code::kNotSupported);
}

TEST(CorrelatedRarityTest, ExactOnSmallStreams) {
  auto opts = SmallF0Options();
  CorrelatedRaritySketch sketch(opts, 14);
  // x=1 occurs once at y=5; x=2 twice (y=3, y=8); x=3 once at y=50.
  sketch.Insert(1, 5);
  sketch.Insert(2, 3);
  sketch.Insert(2, 8);
  sketch.Insert(3, 50);
  // c=6: x=1 once, x=2 once (only y=3 <= 6) -> rarity 1.0
  EXPECT_DOUBLE_EQ(sketch.Query(6).value(), 1.0);
  // c=10: x=1 once, x=2 twice -> rarity 1/2
  EXPECT_DOUBLE_EQ(sketch.Query(10).value(), 0.5);
  // c=60: x=1 once, x=2 twice, x=3 once -> rarity 2/3
  EXPECT_NEAR(sketch.Query(60).value(), 2.0 / 3.0, 1e-12);
  // c=2: nothing -> 0
  EXPECT_DOUBLE_EQ(sketch.Query(2).value(), 0.0);
}

TEST(CorrelatedRarityTest, TracksOracleOnRandomStreams) {
  auto opts = SmallF0Options();
  opts.eps = 0.1;
  CorrelatedRaritySketch sketch(opts, 15);
  F0Oracle oracle;
  Xoshiro256 rng(16);
  for (int i = 0; i < 60000; ++i) {
    // Mixture: half the ids are one-shot (large id space), half repeat.
    uint64_t x = (rng.NextBounded(2) == 0) ? 1000000 + rng.NextBounded(1u << 20)
                                           : rng.NextBounded(3000);
    uint64_t y = rng.NextBounded(1u << 20);
    sketch.Insert(x, y);
    oracle.Insert(x, y);
  }
  int checked = 0;
  for (uint64_t c = 65535; c < (1u << 20); c = c * 2 + 1) {
    auto r = sketch.Query(c);
    if (!r.ok()) continue;
    ++checked;
    // Rarity is a ratio in [0,1]; additive tolerance is the natural metric.
    EXPECT_NEAR(r.value(), oracle.Rarity(c), 0.1) << "c=" << c;
  }
  EXPECT_GE(checked, 3);
}

TEST(CorrelatedF0OptionsTest, DerivedParameters) {
  CorrelatedF0Options o;
  o.eps = 0.1;
  o.kappa = 2.0;
  EXPECT_EQ(o.Alpha(), 200u);
  o.alpha_override = 50;
  EXPECT_EQ(o.Alpha(), 50u);
  o.x_domain = 1023;
  EXPECT_EQ(o.Levels(), 11u);
  o.delta = 0.5;
  EXPECT_EQ(o.Repetitions() % 2, 1u);  // odd
}

}  // namespace
}  // namespace castream
