// Tests for the dedicated correlated heavy-hitter kinds: nested Misra-Gries
// (arXiv:1310.1161) and fast CHH (arXiv:1611.04942). Both are deterministic
// counter structures, so beyond behavioral checks the tests pin the exact
// error-bound contracts: the nested-MG fold never overcounts and its slack
// is a certain bound, and fast CHH's per-item interval always brackets the
// true correlated frequency.
#include <algorithm>
#include <cstdint>
#include <map>
#include <string>
#include <utility>
#include <vector>

#include <gtest/gtest.h>

#include "src/common/random.h"
#include "src/core/any_summary.h"
#include "src/core/correlated_chh.h"
#include "src/io/decoder.h"
#include "tests/test_util.h"

namespace castream {
namespace {

using test::TestRng;

CorrelatedChhOptions SmallChh() {
  CorrelatedChhOptions o;
  o.x_capacity_override = 16;
  o.y_capacity_override = 8;
  return o;
}

// Exact per-item correlated frequencies f_x(c) of a recorded stream.
class ChhOracle {
 public:
  void Add(uint64_t x, uint64_t y, uint64_t w = 1) {
    counts_[x][y] += w;
    total_ += w;
  }
  uint64_t Frequency(uint64_t x, uint64_t c) const {
    auto it = counts_.find(x);
    if (it == counts_.end()) return 0;
    uint64_t f = 0;
    for (const auto& [y, w] : it->second) {
      if (y <= c) f += w;
    }
    return f;
  }
  std::vector<uint64_t> TrueHitters(uint64_t c, double phi) const {
    std::vector<uint64_t> out;
    for (const auto& [x, ys] : counts_) {
      if (static_cast<double>(Frequency(x, c)) >=
          phi * static_cast<double>(total_)) {
        out.push_back(x);
      }
    }
    return out;
  }
  uint64_t total() const { return total_; }

 private:
  std::map<uint64_t, std::map<uint64_t, uint64_t>> counts_;
  uint64_t total_ = 0;
};

template <typename Summary>
std::string Blob(const Summary& s) {
  std::string out;
  EXPECT_TRUE(s.Serialize(&out).ok());
  return out;
}

TEST(CorrelatedChhOptionsTest, ValidatesResolutionsAndCapacities) {
  CorrelatedChhOptions ok;
  EXPECT_TRUE(ok.Validate().ok());
  EXPECT_EQ(ok.XCapacity(), 40u);  // ceil(2 / 0.05)

  CorrelatedChhOptions bad_eps;
  bad_eps.phi_eps = 0.0;
  EXPECT_EQ(bad_eps.Validate().code(), Status::Code::kInvalidArgument);
  bad_eps.phi_eps = -1.0;
  EXPECT_EQ(bad_eps.Validate().code(), Status::Code::kInvalidArgument);

  // phi_eps = 1.0 derives capacity 2, below the uniform floor of 4.
  CorrelatedChhOptions coarse;
  coarse.phi_eps = 1.0;
  EXPECT_EQ(coarse.Validate().code(), Status::Code::kInvalidArgument);

  CorrelatedChhOptions small_override;
  small_override.x_capacity_override = 3;
  EXPECT_EQ(small_override.Validate().code(), Status::Code::kInvalidArgument);

  CorrelatedChhOptions huge_override;
  huge_override.y_capacity_override = (uint32_t{1} << 20) + 1;
  EXPECT_EQ(huge_override.Validate().code(), Status::Code::kInvalidArgument);

  // A tiny eps derives an over-large capacity; must reject, not overflow.
  CorrelatedChhOptions tiny_eps;
  tiny_eps.phi_eps = 1e-9;
  EXPECT_EQ(tiny_eps.Validate().code(), Status::Code::kInvalidArgument);
}

TEST(CorrelatedChhOptionsTest, MakeSummaryRejectsDegenerateConfigsLoudly) {
  SummaryOptions opts;
  opts.chh_x_capacity = 3;
  for (const char* kind : {"chh_mg", "chh_fast"}) {
    auto made = MakeSummary(kind, opts, 1);
    EXPECT_EQ(made.status().code(), Status::Code::kInvalidArgument) << kind;
  }
  // Same policy for the CountSketch construction: the old silent clamp to
  // 4 candidates is now a loud error.
  SummaryOptions hh_opts;
  hh_opts.max_candidates = 2;
  EXPECT_EQ(MakeSummary("hh", hh_opts, 1).status().code(),
            Status::Code::kInvalidArgument);
  hh_opts.max_candidates = (uint32_t{1} << 20) + 1;
  EXPECT_EQ(MakeSummary("hh", hh_opts, 1).status().code(),
            Status::Code::kInvalidArgument);
  hh_opts = SummaryOptions{};
  hh_opts.phi_eps = 0.0;
  EXPECT_EQ(MakeSummary("hh", hh_opts, 1).status().code(),
            Status::Code::kInvalidArgument);
}

template <typename Summary>
class CorrelatedChhTypedTest : public ::testing::Test {};

using ChhTypes = ::testing::Types<CorrelatedNestedMisraGries, CorrelatedFastChh>;
TYPED_TEST_SUITE(CorrelatedChhTypedTest, ChhTypes);

TYPED_TEST(CorrelatedChhTypedTest, ExactWhenTablesNeverOverflow) {
  // Fewer distinct x than the primary capacity and fewer distinct y per x
  // than the y capacity: both algorithms degenerate to exact counting.
  TypeParam s(SmallChh());
  ChhOracle oracle;
  Xoshiro256 rng = TestRng(101);
  for (int i = 0; i < 4000; ++i) {
    const uint64_t x = rng.NextBounded(12);
    const uint64_t y = rng.NextBounded(6);
    s.Insert(x, y);
    oracle.Add(x, y);
  }
  EXPECT_EQ(s.TotalWeight(), oracle.total());
  EXPECT_EQ(s.PrimaryDecrements(), 0u);
  for (uint64_t c : {uint64_t{0}, uint64_t{2}, uint64_t{5}, UINT64_MAX}) {
    auto hitters = s.QueryHeavyHitters(c, 0.01);
    ASSERT_TRUE(hitters.ok());
    for (const HeavyHitter& h : hitters.value()) {
      EXPECT_EQ(h.estimated_frequency,
                static_cast<double>(oracle.Frequency(h.item, c)))
          << "x=" << h.item << " c=" << c;
    }
    // Every true phi-hitter is reported (here: exactly, no slack needed).
    for (uint64_t x : oracle.TrueHitters(c, 0.01)) {
      bool found = false;
      for (const HeavyHitter& h : hitters.value()) found |= (h.item == x);
      EXPECT_TRUE(found) << "x=" << x << " c=" << c;
    }
  }
}

TYPED_TEST(CorrelatedChhTypedTest, WeightedInsertMatchesRepeatedUnitInserts) {
  // In the exact regime a weight-w insert is literally w unit inserts; the
  // serialized state must agree byte for byte.
  TypeParam weighted(SmallChh());
  TypeParam units(SmallChh());
  Xoshiro256 rng = TestRng(102);
  for (int i = 0; i < 300; ++i) {
    const uint64_t x = rng.NextBounded(10);
    const uint64_t y = rng.NextBounded(5);
    const int64_t w = static_cast<int64_t>(rng.NextBounded(7)) + 1;
    weighted.Insert(x, y, w);
    for (int64_t j = 0; j < w; ++j) units.Insert(x, y);
  }
  EXPECT_EQ(Blob(weighted), Blob(units));
  // Non-positive weights are no-ops for the counter kinds.
  const std::string before = Blob(weighted);
  weighted.Insert(1, 1, 0);
  weighted.Insert(1, 1, -5);
  EXPECT_EQ(Blob(weighted), before);
}

TYPED_TEST(CorrelatedChhTypedTest, RecallUnderAdversarialOverflow) {
  // Many more distinct x than the primary table holds; the heavy item must
  // still be reported at every cutoff, per the Misra-Gries guarantee.
  TypeParam s(SmallChh());
  ChhOracle oracle;
  Xoshiro256 rng = TestRng(103);
  const uint64_t kHeavy = 7;
  for (int i = 0; i < 20000; ++i) {
    const uint64_t x = 1000 + rng.NextBounded(5000);
    const uint64_t y = rng.NextBounded(1000);
    s.Insert(x, y);
    oracle.Add(x, y);
    if (i % 4 == 0) {
      // The heavy item's mass concentrates on a few small y values, so it
      // is a true hitter at every cutoff probed below.
      const uint64_t hy = rng.NextBounded(6);
      s.Insert(kHeavy, hy);
      oracle.Add(kHeavy, hy);
    }
  }
  for (uint64_t c : {uint64_t{5}, uint64_t{200}, uint64_t{999}}) {
    ASSERT_GE(static_cast<double>(oracle.Frequency(kHeavy, c)),
              0.1 * static_cast<double>(oracle.total()));
    auto hitters = s.QueryHeavyHitters(c, 0.1);
    ASSERT_TRUE(hitters.ok());
    bool found = false;
    for (const HeavyHitter& h : hitters.value()) found |= (h.item == kHeavy);
    EXPECT_TRUE(found) << "c=" << c;
  }
}

TEST(CorrelatedNestedMisraGriesTest, FoldNeverOvercounts) {
  // The folded estimate is a certain lower bound on f_x(c) — on every
  // reported item, at every cutoff, under heavy overflow on both stages —
  // and so is the scalar fold on the total below-cutoff mass.
  CorrelatedNestedMisraGries s(SmallChh());
  ChhOracle oracle;
  Xoshiro256 rng = TestRng(104);
  for (int i = 0; i < 30000; ++i) {
    // Zipf-ish: small x and y values are much more common.
    const uint64_t x = rng.NextBounded(rng.NextBounded(400) + 1);
    const uint64_t y = rng.NextBounded(rng.NextBounded(200) + 1);
    s.Insert(x, y);
    oracle.Add(x, y);
  }
  EXPECT_GT(s.PrimaryDecrements(), 0u);  // the stream really overflowed
  for (uint64_t c : {uint64_t{0}, uint64_t{3}, uint64_t{40}, UINT64_MAX}) {
    auto hitters = s.QueryHeavyHitters(c, 1e-6);
    ASSERT_TRUE(hitters.ok());
    for (const HeavyHitter& h : hitters.value()) {
      EXPECT_LE(h.estimated_frequency,
                static_cast<double>(oracle.Frequency(h.item, c)))
          << "x=" << h.item << " c=" << c;
    }
    auto q = s.Query(c);
    ASSERT_TRUE(q.ok());
    uint64_t exact_total = 0;
    for (uint64_t x = 0; x < 400; ++x) exact_total += oracle.Frequency(x, c);
    EXPECT_LE(q.value(), static_cast<double>(exact_total)) << "c=" << c;
  }
}

TEST(CorrelatedNestedMisraGriesTest, MergeEmptiedNestedTableKeepsHeavyItem) {
  // One heavy x spread evenly over more distinct y values than the y
  // capacity, split across two shards that each fit their half. The merge's
  // nested shrink subtracts the (k+1)-th largest counter, which equals every
  // counter, so x's nested table comes out empty and its whole mass lives
  // in the nested-loss slack. x must still be reported wherever it is a
  // true phi-hitter, and no estimate may exceed the truth.
  CorrelatedChhOptions opts;
  opts.x_capacity_override = 4;
  opts.y_capacity_override = 4;
  CorrelatedNestedMisraGries left(opts);
  CorrelatedNestedMisraGries right(opts);
  ChhOracle oracle;
  const uint64_t kHeavy = 9;
  for (uint64_t y = 0; y < 8; ++y) {
    (y < 4 ? left : right).Insert(kHeavy, y, 10);
    oracle.Add(kHeavy, y, 10);
  }
  left.Insert(100, 0);
  oracle.Add(100, 0);
  ASSERT_TRUE(left.MergeFrom(right).ok());
  // Only the light item's counter is left to fold: x's table is empty.
  ASSERT_EQ(left.Query(UINT64_MAX).value(), 1.0);

  constexpr double kPhi = 0.25;
  for (uint64_t c : {uint64_t{3}, uint64_t{5}, UINT64_MAX}) {
    const std::vector<uint64_t> truth = oracle.TrueHitters(c, kPhi);
    ASSERT_NE(std::find(truth.begin(), truth.end(), kHeavy), truth.end());
    auto hitters = left.QueryHeavyHitters(c, kPhi);
    ASSERT_TRUE(hitters.ok());
    for (uint64_t x : truth) {
      bool found = false;
      for (const HeavyHitter& h : hitters.value()) found |= (h.item == x);
      EXPECT_TRUE(found) << "x=" << x << " c=" << c;
    }
    for (const HeavyHitter& h : hitters.value()) {
      EXPECT_LE(h.estimated_frequency,
                static_cast<double>(oracle.Frequency(h.item, c)))
          << "x=" << h.item << " c=" << c;
    }
  }
}

TEST(CorrelatedFastChhTest, IntervalBracketsTheTruth) {
  // For every reported item, estimate comes with a certain interval:
  // estimate - stage error <= f_x(c) is not directly exposed, but the
  // scalar Query is a certain lower bound and the reporting rule used a
  // certain upper bound; check the scalar side exactly.
  CorrelatedFastChh s(SmallChh());
  ChhOracle oracle;
  Xoshiro256 rng = TestRng(105);
  for (int i = 0; i < 30000; ++i) {
    const uint64_t x = rng.NextBounded(rng.NextBounded(400) + 1);
    const uint64_t y = rng.NextBounded(rng.NextBounded(200) + 1);
    s.Insert(x, y);
    oracle.Add(x, y);
  }
  for (uint64_t c : {uint64_t{0}, uint64_t{3}, uint64_t{40}, UINT64_MAX}) {
    auto q = s.Query(c);
    ASSERT_TRUE(q.ok());
    uint64_t exact_total = 0;
    for (uint64_t x = 0; x < 400; ++x) exact_total += oracle.Frequency(x, c);
    EXPECT_LE(q.value(), static_cast<double>(exact_total)) << "c=" << c;
  }
}

TEST(CorrelatedFastChhTest, HeavyItemHiddenInInheritedErrorIsReported) {
  // Every slot of x's y stage lies above the cutoff: its below-cutoff mass
  // was evicted and now survives only as the inherited error of an
  // above-cutoff slot. x is still a true phi-hitter at that cutoff, so its
  // certain upper bound (below-cutoff count 0 + inherited error) must get it
  // reported; an entry with no below-cutoff slot is judged like any other.
  CorrelatedChhOptions opts;
  opts.x_capacity_override = 4;
  opts.y_capacity_override = 4;
  CorrelatedFastChh s(opts);
  ChhOracle oracle;
  const uint64_t kHeavy = 9;
  const auto add = [&](uint64_t x, uint64_t y, uint64_t w) {
    s.Insert(x, y, static_cast<int64_t>(w));
    oracle.Add(x, y, w);
  };
  add(kHeavy, 1, 50);  // the below-cutoff mass
  for (uint64_t y = 1000; y <= 3000; y += 1000) add(kHeavy, y, 100);
  add(kHeavy, 4000, 100);  // evicts y = 1; its 50 become inherited error
  add(7, 3, 10);

  // N = 460 and f_x(10) = 50 >= 0.1 * N.
  constexpr uint64_t kCutoff = 10;
  constexpr double kPhi = 0.1;
  const std::vector<uint64_t> truth = oracle.TrueHitters(kCutoff, kPhi);
  ASSERT_NE(std::find(truth.begin(), truth.end(), kHeavy), truth.end());
  auto hitters = s.QueryHeavyHitters(kCutoff, kPhi);
  ASSERT_TRUE(hitters.ok());
  for (uint64_t x : truth) {
    bool found = false;
    for (const HeavyHitter& h : hitters.value()) found |= (h.item == x);
    EXPECT_TRUE(found) << "x=" << x;
  }
}

TYPED_TEST(CorrelatedChhTypedTest, MergeMatchesSingleStreamExactRegime) {
  // No overflow anywhere: the merged state is bit-for-bit the single-stream
  // state regardless of how the stream was partitioned.
  TypeParam whole(SmallChh());
  TypeParam left(SmallChh());
  TypeParam right(SmallChh());
  Xoshiro256 rng = TestRng(106);
  for (int i = 0; i < 2000; ++i) {
    const uint64_t x = rng.NextBounded(12);
    const uint64_t y = rng.NextBounded(6);
    whole.Insert(x, y);
    (i % 2 == 0 ? left : right).Insert(x, y);
  }
  ASSERT_TRUE(left.MergeFrom(right).ok());
  EXPECT_EQ(Blob(left), Blob(whole));
}

TYPED_TEST(CorrelatedChhTypedTest, MergeKeepsGuaranteesUnderOverflow) {
  // Overflowing tables merged from 4 shards: the heavy item survives with
  // its share, and total weight / decrement accounting stays consistent.
  std::vector<TypeParam> shards(4, TypeParam(SmallChh()));
  TypeParam serial(SmallChh());
  ChhOracle oracle;
  Xoshiro256 rng = TestRng(107);
  const uint64_t kHeavy = 3;
  for (int i = 0; i < 24000; ++i) {
    uint64_t x = 1000 + rng.NextBounded(3000);
    uint64_t y = rng.NextBounded(500);
    if (i % 5 == 0) x = kHeavy;
    shards[i % 4].Insert(x, y);
    serial.Insert(x, y);
    oracle.Add(x, y);
  }
  TypeParam merged = shards[0];
  for (int i = 1; i < 4; ++i) ASSERT_TRUE(merged.MergeFrom(shards[i]).ok());
  EXPECT_EQ(merged.TotalWeight(), oracle.total());
  EXPECT_LE(merged.PrimaryDecrements(),
            oracle.total() / (SmallChh().XCapacity() + 1));
  auto hitters = merged.QueryHeavyHitters(UINT64_MAX, 0.15);
  ASSERT_TRUE(hitters.ok());
  bool found = false;
  for (const HeavyHitter& h : hitters.value()) found |= (h.item == kHeavy);
  EXPECT_TRUE(found);
}

TYPED_TEST(CorrelatedChhTypedTest, MergeRejectsMismatchedConfigsAndSelf) {
  TypeParam a(SmallChh());
  CorrelatedChhOptions other = SmallChh();
  other.y_capacity_override = 16;
  TypeParam b(other);
  EXPECT_EQ(a.MergeFrom(b).code(), Status::Code::kPreconditionFailed);
  EXPECT_EQ(a.MergeFrom(a).code(), Status::Code::kInvalidArgument);
}

TYPED_TEST(CorrelatedChhTypedTest, QueryRejectsBadPhi) {
  TypeParam s(SmallChh());
  s.Insert(1, 1);
  EXPECT_EQ(s.QueryHeavyHitters(10, 0.0).status().code(),
            Status::Code::kInvalidArgument);
  EXPECT_EQ(s.QueryHeavyHitters(10, 1.5).status().code(),
            Status::Code::kInvalidArgument);
  auto empty = TypeParam(SmallChh()).QueryHeavyHitters(10, 0.5);
  ASSERT_TRUE(empty.ok());
  EXPECT_TRUE(empty.value().empty());
}

TYPED_TEST(CorrelatedChhTypedTest, SerializedPeerContinuesTheStream) {
  TypeParam s(SmallChh());
  Xoshiro256 rng = TestRng(108);
  for (int i = 0; i < 10000; ++i) {
    s.Insert(rng.NextBounded(500), rng.NextBounded(100));
  }
  auto back = TypeParam::Deserialize(io::BytesOf(Blob(s)));
  ASSERT_TRUE(back.ok());
  EXPECT_EQ(Blob(back.value()), Blob(s));
  // The decoded peer keeps ingesting and merging like the original.
  TypeParam peer = std::move(back).value();
  peer.Insert(1, 1);
  s.Insert(1, 1);
  EXPECT_EQ(Blob(peer), Blob(s));
  ASSERT_TRUE(peer.MergeFrom(TypeParam(SmallChh())).ok());
}

}  // namespace
}  // namespace castream
