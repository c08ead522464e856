// Property-based validation of the paper's mathematical lemmas on random
// multisets: Lemma 6 (union growth / Condition III), Lemma 7 (small-set
// absorption), Lemma 8 (subtraction stability / Condition IV), and
// Condition II (superadditivity of Fk under multiset union). These pin down
// the inequalities the framework's alpha formula is derived from.
#include <cmath>
#include <cstdint>
#include <vector>

#include <gtest/gtest.h>

#include "src/common/random.h"
#include "src/sketch/exact.h"
#include "tests/test_util.h"

namespace castream {
namespace {

using test::Concat;
using test::ExactFk;
using test::RandomMultiset;

struct LemmaCase {
  double k;
  uint64_t domain;
  int n;
};

class FkLemmaTest : public ::testing::TestWithParam<LemmaCase> {};

TEST_P(FkLemmaTest, ConditionII_Superadditivity) {
  const LemmaCase c = GetParam();
  Xoshiro256 rng(11);
  for (int trial = 0; trial < 20; ++trial) {
    auto r1 = RandomMultiset(rng, c.n, c.domain);
    auto r2 = RandomMultiset(rng, c.n / 2 + 1, c.domain);
    const double together = ExactFk(Concat(r1, r2), c.k);
    EXPECT_GE(together + 1e-9, ExactFk(r1, c.k) + ExactFk(r2, c.k))
        << "trial " << trial;
  }
}

TEST_P(FkLemmaTest, Lemma6_UnionGrowthBoundedByJtoK) {
  const LemmaCase c = GetParam();
  Xoshiro256 rng(13);
  for (int trial = 0; trial < 10; ++trial) {
    const int j = 2 + static_cast<int>(rng.NextBounded(4));
    std::vector<std::vector<uint64_t>> sets;
    double beta = 0.0;
    std::vector<uint64_t> all;
    for (int i = 0; i < j; ++i) {
      sets.push_back(RandomMultiset(rng, c.n, c.domain));
      beta = std::max(beta, ExactFk(sets.back(), c.k));
      all = Concat(all, sets.back());
    }
    EXPECT_LE(ExactFk(all, c.k), std::pow(j, c.k) * beta + 1e-6)
        << "j=" << j << " trial " << trial;
  }
}

TEST_P(FkLemmaTest, Lemma7_SmallSetAbsorption) {
  const LemmaCase c = GetParam();
  Xoshiro256 rng(17);
  for (double eps : {0.2, 0.5, 0.9}) {
    for (int trial = 0; trial < 10; ++trial) {
      auto a = RandomMultiset(rng, c.n, c.domain);
      const double fa = ExactFk(a, c.k);
      // Build B by thinning A until Fk(B) <= (eps/(3k))^k * Fk(A).
      const double cap = std::pow(eps / (3.0 * c.k), c.k) * fa;
      std::vector<uint64_t> b;
      for (uint64_t x : a) {
        std::vector<uint64_t> candidate = b;
        candidate.push_back(x);
        if (ExactFk(candidate, c.k) <= cap) b = std::move(candidate);
      }
      const double fab = ExactFk(Concat(a, b), c.k);
      EXPECT_LE(fab, (1.0 + eps) * fa + 1e-6)
          << "eps=" << eps << " trial " << trial;
    }
  }
}

TEST_P(FkLemmaTest, Lemma8_SubtractionStability) {
  const LemmaCase c = GetParam();
  Xoshiro256 rng(19);
  for (double eps : {0.3, 0.6}) {
    for (int trial = 0; trial < 10; ++trial) {
      auto d = RandomMultiset(rng, c.n, c.domain);
      const double fd = ExactFk(d, c.k);
      const double cap = std::pow(eps / (9.0 * c.k), c.k) * fd;
      // C: a prefix of D with Fk(C) under the cap (C subset of D).
      std::vector<uint64_t> cset;
      std::vector<uint64_t> rest;
      bool still_filling = true;
      for (uint64_t x : d) {
        if (still_filling) {
          std::vector<uint64_t> candidate = cset;
          candidate.push_back(x);
          if (ExactFk(candidate, c.k) <= cap) {
            cset = std::move(candidate);
            continue;
          }
          still_filling = false;
        }
        rest.push_back(x);
      }
      EXPECT_GE(ExactFk(rest, c.k) + 1e-6, (1.0 - eps) * fd)
          << "eps=" << eps << " trial " << trial;
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Sweep, FkLemmaTest,
                         ::testing::Values(LemmaCase{2.0, 50, 200},
                                           LemmaCase{2.0, 500, 400},
                                           LemmaCase{3.0, 50, 150},
                                           LemmaCase{4.0, 30, 100}));

TEST(ConditionIITest, F0ViolatesSuperadditivity) {
  // Why Section 3.2 needs a *separate* algorithm for F0: distinct counting
  // fails Condition II (f(R1 u R2) >= f(R1) + f(R2)) whenever the parts
  // overlap, so the general framework of Section 2 does not apply to it.
  ExactAggregateFactory f0(AggregateKind::kF0);
  ExactAggregate r1 = f0.Create();
  ExactAggregate r2 = f0.Create();
  ExactAggregate both = f0.Create();
  for (uint64_t x = 0; x < 100; ++x) {
    r1.Insert(x);
    r2.Insert(x);  // identical parts: union has 100 distinct, sum says 200
    both.Insert(x);
    both.Insert(x);
  }
  EXPECT_LT(both.Estimate(), r1.Estimate() + r2.Estimate());
}

TEST(ConditionIITest, RarityViolatesSuperadditivity) {
  // Rarity (a ratio) also falls outside the framework; Section 3.3 instead
  // derives it from the F0 sampler.
  ExactAggregateFactory rar(AggregateKind::kRarity);
  ExactAggregate r1 = rar.Create();
  ExactAggregate r2 = rar.Create();
  ExactAggregate both = rar.Create();
  r1.Insert(1);  // rarity 1
  r2.Insert(1);  // rarity 1
  both.Insert(1);
  both.Insert(1);  // union: item seen twice -> rarity 0
  EXPECT_LT(both.Estimate(), r1.Estimate() + r2.Estimate());
}

TEST(ConditionITest, FkPolynomiallyBoundedInStreamLength) {
  // Condition I: f(R) <= poly(|R|). For unit weights Fk <= n^k.
  Xoshiro256 rng(23);
  for (double k : {2.0, 3.0}) {
    for (int n : {10, 100, 1000}) {
      auto r = RandomMultiset(rng, n, 7);  // tiny domain: worst case
      EXPECT_LE(ExactFk(r, k), std::pow(n, k) + 1e-6);
    }
  }
}

}  // namespace
}  // namespace castream
