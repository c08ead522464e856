// Tests for workload generators, the stream builders and the multipass
// tape.
#include <cmath>
#include <cstdint>
#include <map>
#include <set>
#include <vector>

#include <gtest/gtest.h>

#include "src/common/random.h"
#include "src/stream/generators.h"
#include "src/stream/tape.h"

namespace castream {
namespace {

TEST(UniformGeneratorTest, StaysInDomain) {
  UniformGenerator gen(100, 50, 1);
  for (int i = 0; i < 10000; ++i) {
    Tuple t = gen.Next();
    EXPECT_LE(t.x, 100u);
    EXPECT_LE(t.y, 50u);
  }
}

TEST(UniformGeneratorTest, DeterministicBySeed) {
  UniformGenerator a(1000, 1000, 42);
  UniformGenerator b(1000, 1000, 42);
  for (int i = 0; i < 100; ++i) EXPECT_EQ(a.Next(), b.Next());
}

TEST(UniformGeneratorTest, CoversDomainRoughlyUniformly) {
  UniformGenerator gen(9, 9, 7);
  std::map<uint64_t, int> counts;
  const int n = 50000;
  for (int i = 0; i < n; ++i) counts[gen.Next().x]++;
  ASSERT_EQ(counts.size(), 10u);
  for (const auto& [x, c] : counts) EXPECT_NEAR(c, n / 10, n / 40);
}

TEST(ZipfDistributionTest, HeavilySkewedForAlpha2) {
  ZipfDistribution zipf(100000, 2.0);
  Xoshiro256 rng(3);
  int top = 0;
  const int n = 20000;
  for (int i = 0; i < n; ++i) top += (zipf.Sample(rng) == 0);
  // For alpha=2 the head item has probability 1/zeta(2) ~ 0.61.
  EXPECT_GT(top, static_cast<int>(0.5 * n));
  EXPECT_LT(top, static_cast<int>(0.7 * n));
}

TEST(ZipfDistributionTest, Alpha1HeadProbability) {
  const uint64_t m = 10000;
  ZipfDistribution zipf(m, 1.0);
  Xoshiro256 rng(5);
  int top = 0;
  const int n = 50000;
  for (int i = 0; i < n; ++i) top += (zipf.Sample(rng) == 0);
  // Head probability for alpha=1 is 1/H_m ~ 1/ln(m) ~ 0.102 for m=1e4.
  double expect = 1.0 / std::log(static_cast<double>(m));
  EXPECT_NEAR(static_cast<double>(top) / n, expect, 0.03);
}

TEST(ZipfDistributionTest, SamplesWithinDomain) {
  ZipfDistribution zipf(500, 1.0);
  Xoshiro256 rng(7);
  for (int i = 0; i < 10000; ++i) EXPECT_LT(zipf.Sample(rng), 500u);
}

TEST(ZipfGeneratorTest, NameMatchesPaperLegend) {
  ZipfGenerator g1(100, 1.0, 100, 1);
  ZipfGenerator g2(100, 2.0, 100, 1);
  EXPECT_EQ(g1.name(), "Zipf, alpha=1");
  EXPECT_EQ(g2.name(), "Zipf, alpha=2");
}

TEST(EthernetTraceGeneratorTest, PacketSizesInEthernetRange) {
  EthernetTraceGenerator gen(1000000, 11);
  std::set<uint64_t> sizes;
  for (int i = 0; i < 50000; ++i) {
    Tuple t = gen.Next();
    EXPECT_GE(t.x, 64u);
    EXPECT_LE(t.x, 1518u);
    sizes.insert(t.x);
  }
  // The x-domain stays small (paper: ~0..2000 distinct values) but is not
  // degenerate.
  EXPECT_GT(sizes.size(), 100u);
  EXPECT_LE(sizes.size(), 2000u);
}

TEST(EthernetTraceGeneratorTest, TimestampsNonDecreasing) {
  EthernetTraceGenerator gen(1u << 30, 13);
  uint64_t prev = 0;
  for (int i = 0; i < 20000; ++i) {
    Tuple t = gen.Next();
    EXPECT_GE(t.y, prev);
    prev = t.y;
  }
  EXPECT_GT(prev, 0u);  // the clock does advance
}

TEST(EthernetTraceGeneratorTest, ArrivalsAreBursty) {
  EthernetTraceGenerator gen(1u << 30, 17);
  int same_ms = 0;
  uint64_t prev = gen.Next().y;
  const int n = 20000;
  for (int i = 0; i < n; ++i) {
    uint64_t y = gen.Next().y;
    same_ms += (y == prev);
    prev = y;
  }
  // In-burst arrivals dominate (85% stay on the same millisecond).
  EXPECT_GT(same_ms, n / 2);
}

TEST(MakePaperDatasetsTest, F2SetHasThreeDatasets) {
  auto sets = MakePaperDatasets(/*f0_domains=*/false, 1);
  ASSERT_EQ(sets.size(), 3u);
  EXPECT_EQ(sets[0]->name(), "Uniform");
  EXPECT_EQ(sets[1]->name(), "Zipf, alpha=1");
  EXPECT_EQ(sets[2]->name(), "Zipf, alpha=2");
}

TEST(MakePaperDatasetsTest, F0SetAddsEthernet) {
  auto sets = MakePaperDatasets(/*f0_domains=*/true, 1);
  ASSERT_EQ(sets.size(), 4u);
  EXPECT_EQ(sets[0]->name(), "Ethernet");
}

// FNV-1a over each tuple's x then y, 8 little-endian bytes each.
uint64_t Fingerprint(const std::vector<Tuple>& stream) {
  uint64_t h = 0xcbf29ce484222325ULL;
  for (const Tuple& t : stream) {
    for (uint64_t v : {t.x, t.y}) {
      for (int b = 0; b < 8; ++b) {
        h ^= (v >> (8 * b)) & 0xff;
        h *= 0x100000001b3ULL;
      }
    }
  }
  return h;
}

// Recorded results (bench baselines, statistical test margins, bit-for-bit
// oracles) depend on the exact tuples these builders draw, so a change to
// any draw order must fail here first.
TEST(StreamBuilderTest, FingerprintsArePinned) {
  EXPECT_EQ(Fingerprint(UniformStream(1000, 300, 4095, 21)),
            0x1ab94f8758d49dedULL);
  EXPECT_EQ(Fingerprint(ZipfStream(1000, 500000, 1.1, 16, 62500, 5)),
            0x029991e172bed730ULL);
  EXPECT_EQ(Fingerprint(SkewedStream(1000, 600, 16383, 7)),
            0x9ba0a447987914abULL);
  // Every draw a burst (no odds draw), and one burst in four.
  EXPECT_EQ(
      Fingerprint(BurstyStream(1000, 500000, 1.1, 1000000, 1, 1, 15, 6)),
      0xcf90a28c1442f840ULL);
  EXPECT_EQ(Fingerprint(BurstyStream(1000, 2000, 1.1, 16, 1092, 4, 6, 21)),
            0x5a8d604638d8a377ULL);
  EXPECT_EQ(Fingerprint(ChurnStream(1000, 500000, 64, 100, 999999, 7)),
            0x9c324b94b5c6100dULL);
}

TEST(StoredStreamTest, ScanVisitsAllInOrder) {
  StoredStream tape;
  for (uint64_t i = 0; i < 100; ++i) tape.Append(i, i * 2, 1);
  uint64_t next = 0;
  tape.Scan([&](const WeightedTuple& t) {
    EXPECT_EQ(t.x, next);
    EXPECT_EQ(t.y, next * 2);
    ++next;
  });
  EXPECT_EQ(next, 100u);
}

TEST(StoredStreamTest, CountsPasses) {
  StoredStream tape;
  tape.Append(1, 1, 1);
  EXPECT_EQ(tape.passes(), 0u);
  for (int p = 0; p < 5; ++p) tape.Scan([](const WeightedTuple&) {});
  EXPECT_EQ(tape.passes(), 5u);
  tape.ResetPassCount();
  EXPECT_EQ(tape.passes(), 0u);
}

TEST(StoredStreamTest, SupportsNegativeWeights) {
  StoredStream tape;
  tape.Append(5, 10, -3);
  int64_t total = 0;
  tape.Scan([&](const WeightedTuple& t) { total += t.weight; });
  EXPECT_EQ(total, -3);
}

}  // namespace
}  // namespace castream
