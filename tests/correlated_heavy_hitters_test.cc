// Tests for correlated F2 heavy hitters (Section 3.3).
#include <algorithm>
#include <cstdint>
#include <vector>

#include <gtest/gtest.h>

#include "src/common/random.h"
#include "src/core/correlated_heavy_hitters.h"
#include "tests/test_util.h"

namespace castream {
namespace {

using test::HeavyHittersOracle;

CorrelatedSketchOptions HhOptions() {
  CorrelatedSketchOptions o;
  o.eps = 0.2;
  o.delta = 0.1;
  o.y_max = (1 << 16) - 1;
  o.f_max_hint = 1e10;
  return o;
}

TEST(CorrelatedHeavyHittersTest, RejectsBadPhi) {
  CorrelatedF2HeavyHitters hh(HhOptions(), 0.05, 1);
  hh.Insert(1, 1);
  EXPECT_EQ(hh.Query(10, 0.0).status().code(), Status::Code::kInvalidArgument);
  EXPECT_EQ(hh.Query(10, 1.5).status().code(), Status::Code::kInvalidArgument);
}

TEST(CorrelatedHeavyHittersTest, EmptyStreamNoHitters) {
  CorrelatedF2HeavyHitters hh(HhOptions(), 0.05, 2);
  auto r = hh.Query(100, 0.5);
  ASSERT_TRUE(r.ok());
  EXPECT_TRUE(r.value().empty());
}

TEST(CorrelatedHeavyHittersTest, SingleDominantItemFound) {
  CorrelatedF2HeavyHitters hh(HhOptions(), 0.05, 3);
  Xoshiro256 rng(4);
  for (int i = 0; i < 5000; ++i) {
    hh.Insert(rng.NextBounded(5000) + 100, rng.NextBounded(60000));
  }
  for (int i = 0; i < 2000; ++i) {
    hh.Insert(7, rng.NextBounded(60000));  // the heavy item
  }
  auto r = hh.Query(60000, 0.25);
  ASSERT_TRUE(r.ok());
  ASSERT_FALSE(r.value().empty());
  EXPECT_EQ(r.value()[0].item, 7u);
  EXPECT_NEAR(r.value()[0].estimated_frequency, 2000.0, 300.0);
}

TEST(CorrelatedHeavyHittersTest, CutoffSelectsPrefixHitters) {
  // Item A is heavy only among y <= 1000; item B only among y > 1000. A
  // query at c=1000 must surface A and not B.
  CorrelatedF2HeavyHitters hh(HhOptions(), 0.05, 5);
  Xoshiro256 rng(6);
  for (int i = 0; i < 1500; ++i) hh.Insert(111, rng.NextBounded(1000));
  for (int i = 0; i < 5000; ++i) hh.Insert(222, 1001 + rng.NextBounded(50000));
  for (int i = 0; i < 3000; ++i) {
    hh.Insert(rng.NextBounded(3000) + 1000, rng.NextBounded(60000));
  }
  auto low = hh.Query(1000, 0.3);
  ASSERT_TRUE(low.ok());
  ASSERT_FALSE(low.value().empty());
  EXPECT_EQ(low.value()[0].item, 111u);
  for (const HeavyHitter& h : low.value()) EXPECT_NE(h.item, 222u);

  auto full = hh.Query(60000, 0.3);
  ASSERT_TRUE(full.ok());
  bool found_b = false;
  for (const HeavyHitter& h : full.value()) found_b |= (h.item == 222u);
  EXPECT_TRUE(found_b);
}

TEST(CorrelatedHeavyHittersTest, NoSpuriousHittersOnUniformStream) {
  CorrelatedF2HeavyHitters hh(HhOptions(), 0.05, 7);
  Xoshiro256 rng(8);
  for (int i = 0; i < 30000; ++i) {
    hh.Insert(rng.NextBounded(10000), rng.NextBounded(60000));
  }
  // Every item has ~3 occurrences: f^2/F2 ~ 3/30000; phi = 0.1 is far above.
  auto r = hh.Query(60000, 0.1);
  ASSERT_TRUE(r.ok());
  EXPECT_TRUE(r.value().empty());
}

TEST(CorrelatedHeavyHittersTest, SharesTrackExactShares) {
  CorrelatedF2HeavyHitters hh(HhOptions(), 0.05, 9);
  HeavyHittersOracle oracle;
  Xoshiro256 rng(10);
  // Two heavy items with 3:1 squared-frequency ratio plus noise.
  for (int i = 0; i < 1800; ++i) {
    uint64_t y = rng.NextBounded(60000);
    hh.Insert(1, y);
    oracle.Insert(1, y);
  }
  for (int i = 0; i < 1039; ++i) {
    uint64_t y = rng.NextBounded(60000);
    hh.Insert(2, y);
    oracle.Insert(2, y);
  }
  for (int i = 0; i < 2000; ++i) {
    uint64_t x = 100 + rng.NextBounded(4000);
    uint64_t y = rng.NextBounded(60000);
    hh.Insert(x, y);
    oracle.Insert(x, y);
  }
  auto r = hh.Query(60000, 0.05);
  ASSERT_TRUE(r.ok());
  ASSERT_GE(r.value().size(), 2u);
  auto exact_hitters = oracle.Hitters(60000, 0.05);
  ASSERT_GE(exact_hitters.size(), 2u);
  EXPECT_EQ(r.value()[0].item, exact_hitters[0]);
  EXPECT_EQ(r.value()[1].item, exact_hitters[1]);
  const double f2 = oracle.F2(60000);
  EXPECT_NEAR(r.value()[0].estimated_f2_share, 1800.0 * 1800.0 / f2, 0.08);
}

}  // namespace
}  // namespace castream
