// Shared test utilities for the CAStream suite.
//
// Everything here exists to keep the statistical tests honest and the
// deterministic tests deterministic:
//   - TestRng / kTestSeedBase: every test draws randomness from an explicit
//     fixed seed (never std::random_device or wall-clock time), so a CTest
//     run is bit-for-bit reproducible.
//   - F0Oracle: exact correlated distinct-count / rarity ground truth.
//   - HeavyHittersOracle: exact correlated F2 heavy-hitter ground truth.
//   - ExactFk / RandomMultiset / Concat: exact frequency-moment helpers for
//     lemma-style property checks.
//   - UniformStream / SkewedStream: seeded (x, y) tuple streams shared by the
//     sharded, merge, snapshot and serialization suites.
//   - TrialsWithin: the (eps, delta) trial runner — asserts that at least
//     (1 - delta) * trials of a randomized estimator land within tolerance,
//     which is exactly the guarantee the paper's theorems give.
//   - SweepCounter: miss accounting for cutoff-ladder accuracy sweeps.
//   - TreeOrderFold: the merge-tree fold order of src/driver/merge_cache.h,
//     written independently of MergeCache — the bit-for-bit oracle for
//     merged answers.
#ifndef CASTREAM_TESTS_TEST_UTIL_H_
#define CASTREAM_TESTS_TEST_UTIL_H_

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <memory>
#include <unordered_map>
#include <utility>
#include <vector>

#include <gtest/gtest.h>

#include "src/common/random.h"
#include "src/driver/merge_cache.h"  // SummaryDeepCopy only
#include "src/sketch/exact.h"
#include "src/stream/types.h"

namespace castream {
namespace test {

// A deterministic RNG for tests, seeded with exactly the given value (small
// per-test constants; Xoshiro256 expands them through SplitMix64). Never
// seed from random_device/time: CTest runs must be reproducible so that a
// statistical failure is a real signal.
inline Xoshiro256 TestRng(uint64_t seed) { return Xoshiro256(seed); }

// Exact correlated F0/rarity oracle: for each id x tracks min-y (enough for
// Distinct) and the full y multiset (needed for Rarity).
class F0Oracle {
 public:
  void Insert(uint64_t x, uint64_t y) {
    auto [it, fresh] = min_y_.try_emplace(x, y);
    if (!fresh && y < it->second) it->second = y;
    occurrences_[x].push_back(y);
  }

  // Number of distinct x with at least one occurrence at y <= c.
  double Distinct(uint64_t c) const {
    double n = 0;
    for (const auto& [x, y] : min_y_) n += (y <= c);
    return n;
  }

  // Fraction of c-selected distinct items occurring exactly once at y <= c.
  double Rarity(uint64_t c) const {
    double distinct = 0, singles = 0;
    for (const auto& [x, ys] : occurrences_) {
      int count = 0;
      for (uint64_t y : ys) count += (y <= c);
      if (count >= 1) ++distinct;
      if (count == 1) ++singles;
    }
    return distinct == 0 ? 0.0 : singles / distinct;
  }

 private:
  std::unordered_map<uint64_t, uint64_t> min_y_;
  std::unordered_map<uint64_t, std::vector<uint64_t>> occurrences_;
};

// Exact correlated F2 heavy-hitter oracle: frequencies restricted to the
// prefix {y <= c}, total F2 over that prefix, and the phi-hitters.
class HeavyHittersOracle {
 public:
  void Insert(uint64_t x, uint64_t y, int64_t weight = 1) {
    tuples_.push_back({x, y, weight});
  }

  // Sum of squared frequencies over the prefix {y <= c}.
  double F2(uint64_t c) const {
    double f2 = 0;
    for (const auto& [x, f] : Frequencies(c)) f2 += f * f;
    return f2;
  }

  // Items whose squared frequency within the prefix is >= phi * F2(c),
  // sorted by descending frequency.
  std::vector<uint64_t> Hitters(uint64_t c, double phi) const {
    const auto freq = Frequencies(c);
    double f2 = 0;
    for (const auto& [x, f] : freq) f2 += f * f;
    std::vector<std::pair<double, uint64_t>> ranked;
    for (const auto& [x, f] : freq) {
      if (f * f >= phi * f2) ranked.push_back({f, x});
    }
    std::sort(ranked.begin(), ranked.end(),
              [](const auto& a, const auto& b) { return a.first > b.first; });
    std::vector<uint64_t> out;
    out.reserve(ranked.size());
    for (const auto& [f, x] : ranked) out.push_back(x);
    return out;
  }

 private:
  std::unordered_map<uint64_t, double> Frequencies(uint64_t c) const {
    std::unordered_map<uint64_t, double> freq;
    for (const auto& t : tuples_) {
      if (t.y <= c) freq[t.x] += static_cast<double>(t.weight);
    }
    return freq;
  }

  struct OracleTuple {
    uint64_t x;
    uint64_t y;
    int64_t weight;
  };
  std::vector<OracleTuple> tuples_;
};

// Exact Fk over a frequency map built from a vector of items.
inline double ExactFk(const std::vector<uint64_t>& items, double k) {
  ExactAggregate agg = ExactAggregateFactory(AggregateKind::kFk, k).Create();
  for (uint64_t x : items) agg.Insert(x);
  return agg.Estimate();
}

// n uniform draws from [0, domain).
inline std::vector<uint64_t> RandomMultiset(Xoshiro256& rng, int n,
                                            uint64_t domain) {
  std::vector<uint64_t> out;
  out.reserve(static_cast<size_t>(n));
  for (int i = 0; i < n; ++i) out.push_back(rng.NextBounded(domain));
  return out;
}

inline std::vector<uint64_t> Concat(const std::vector<uint64_t>& a,
                                    const std::vector<uint64_t>& b) {
  std::vector<uint64_t> out = a;
  out.insert(out.end(), b.begin(), b.end());
  return out;
}

// n tuples with x uniform in [0, x_domain) and y uniform in [0, y_max]; x is
// drawn before y for every tuple.
inline std::vector<Tuple> UniformStream(size_t n, uint64_t x_domain,
                                        uint64_t y_max, uint64_t seed) {
  Xoshiro256 rng = TestRng(seed);
  std::vector<Tuple> stream;
  stream.reserve(n);
  for (size_t i = 0; i < n; ++i) {
    stream.push_back(
        Tuple{rng.NextBounded(x_domain), rng.NextBounded(y_max + 1)});
  }
  return stream;
}

// n tuples with a heavy head: a quarter of the x values come from the eight
// ids [0, 8), the rest uniformly from [100, 100 + x_domain); y is uniform in
// [0, y_max].
inline std::vector<Tuple> SkewedStream(size_t n, uint64_t x_domain,
                                       uint64_t y_max, uint64_t seed) {
  Xoshiro256 rng = TestRng(seed);
  std::vector<Tuple> stream;
  stream.reserve(n);
  for (size_t i = 0; i < n; ++i) {
    const uint64_t x = (rng.NextBounded(4) == 0)
                           ? rng.NextBounded(8)
                           : 100 + rng.NextBounded(x_domain);
    stream.push_back(Tuple{x, rng.NextBounded(y_max + 1)});
  }
  return stream;
}

// The (eps, delta) trial runner. Runs `trial(i)` for i in [0, trials) — each
// returns true when the estimate landed within tolerance — and passes iff at
// least ceil((1 - delta) * trials) did. This is the shape of every guarantee
// in the paper: Pr[relative error <= eps] >= 1 - delta.
template <typename TrialFn>
::testing::AssertionResult TrialsWithin(int trials, double delta,
                                        TrialFn&& trial) {
  int within = 0;
  for (int i = 0; i < trials; ++i) {
    if (trial(i)) ++within;
  }
  const int required =
      static_cast<int>(std::ceil((1.0 - delta) * static_cast<double>(trials)));
  if (within >= required) {
    return ::testing::AssertionSuccess()
           << within << "/" << trials << " trials within tolerance";
  }
  return ::testing::AssertionFailure()
         << "only " << within << "/" << trials
         << " trials within tolerance; needed " << required
         << " (delta=" << delta << ")";
}

// Miss accounting for cutoff-ladder sweeps: count how many query points were
// actually answerable and how many missed the eps band, then assert the
// (min-checked, max-misses) contract in one place.
class SweepCounter {
 public:
  void Count(bool within) {
    ++checked_;
    if (!within) ++misses_;
  }

  int checked() const { return checked_; }
  int misses() const { return misses_; }

  // At least `min_checked` cutoffs answerable, at most `max_misses` outside
  // the band — the discrete analogue of the 1 - delta success probability.
  ::testing::AssertionResult AtMost(int max_misses, int min_checked) const {
    if (checked_ < min_checked) {
      return ::testing::AssertionFailure()
             << "only " << checked_ << " cutoffs answerable; needed "
             << min_checked;
    }
    if (misses_ > max_misses) {
      return ::testing::AssertionFailure()
             << misses_ << "/" << checked_ << " cutoffs missed the band; "
             << "allowed " << max_misses;
    }
    return ::testing::AssertionSuccess()
           << misses_ << "/" << checked_ << " misses";
  }

 private:
  int checked_ = 0;
  int misses_ = 0;
};

namespace internal {

template <typename S>
std::shared_ptr<const S> FoldRange(
    const std::vector<std::shared_ptr<const S>>& leaves, size_t lo,
    size_t width) {
  if (width == 1) return lo < leaves.size() ? leaves[lo] : nullptr;
  auto left = FoldRange(leaves, lo, width / 2);
  auto right = FoldRange(leaves, lo + width / 2, width / 2);
  if (left == nullptr) return right;
  if (right == nullptr) return left;
  S merged = SummaryDeepCopy(*left);
  EXPECT_TRUE(merged.MergeFrom(*right).ok());
  return std::make_shared<const S>(std::move(merged));
}

}  // namespace internal

// Tree-order fold of `leaves`: pad the row to a power of two, halve it
// recursively, and at every node merge a copy of the left fold with the
// right one; a null child (a slot that never published) aliases the other
// child. Null when every leaf is null.
template <typename S>
std::shared_ptr<const S> TreeOrderFold(
    const std::vector<std::shared_ptr<const S>>& leaves) {
  size_t width = 1;
  while (width < leaves.size()) width <<= 1;
  return internal::FoldRange(leaves, 0, width);
}

}  // namespace test
}  // namespace castream

#endif  // CASTREAM_TESTS_TEST_UTIL_H_
