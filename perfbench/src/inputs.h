// Seeded input generation and the exact answer oracle. Both run before any
// clock starts: the program under test only ever sees the generated tuples,
// and the oracle's exact answers come from a separate pre-pass.
#ifndef PERFBENCH_SRC_INPUTS_H_
#define PERFBENCH_SRC_INPUTS_H_

#include <algorithm>
#include <cstdint>
#include <unordered_map>
#include <vector>

#include "src/common/random.h"
#include "src/stream/generators.h"
#include "src/stream/types.h"

namespace perfbench {

using castream::Tuple;

inline constexpr uint64_t kYMax = (uint64_t{1} << 20) - 1;

enum class Shape {
  kZipfFewY,   // x ~ Zipf(1.1) over 2^20 ids, y one of 16 fixed values
  kUniform,    // x uniform over 2^24 ids, y uniform over [0, kYMax]
  kZipfAnyY,   // x ~ Zipf(1.1) over 2^16 ids, y uniform over [0, kYMax]
};

/// \brief n tuples of `shape`, a pure function of (shape, n, seed).
inline std::vector<Tuple> MakeInput(Shape shape, size_t n, uint64_t seed) {
  castream::Xoshiro256 rng(seed * 0x9E3779B97F4A7C15ULL + 0x1234567ULL);
  std::vector<Tuple> out(n);
  switch (shape) {
    case Shape::kZipfFewY: {
      castream::ZipfDistribution zipf(uint64_t{1} << 20, 1.1);
      for (Tuple& t : out) {
        t.x = zipf.Sample(rng);
        t.y = rng.NextBounded(16) * (uint64_t{1} << 16) + 777;
      }
      break;
    }
    case Shape::kUniform:
      for (Tuple& t : out) {
        t.x = rng.NextBounded(uint64_t{1} << 24);
        t.y = rng.NextBounded(kYMax + 1);
      }
      break;
    case Shape::kZipfAnyY: {
      castream::ZipfDistribution zipf(uint64_t{1} << 16, 1.1);
      for (Tuple& t : out) {
        t.x = zipf.Sample(rng);
        t.y = rng.NextBounded(kYMax + 1);
      }
      break;
    }
  }
  return out;
}

/// \brief The fixed cutoffs every workload queries and checks at.
inline const std::vector<uint64_t>& Cutoffs() {
  static const std::vector<uint64_t> kCutoffs = {
      (kYMax + 1) / 16 - 1, (kYMax + 1) / 8 - 1,     (kYMax + 1) / 4 - 1,
      (kYMax + 1) / 2 - 1,  (kYMax + 1) / 4 * 3 - 1, kYMax};
  return kCutoffs;
}

/// \brief The cutoff of latency query j: uniform over [Cutoffs().front(),
/// kYMax], a pure function of (seed, j). Query cost depends on the cutoff;
/// cycling through a few fixed cutoffs would make the latency distribution
/// multimodal and its median jump between modes from run to run.
inline uint64_t QueryCutoff(uint64_t seed, uint64_t j) {
  uint64_t z = seed * 0x9E3779B97F4A7C15ULL + (j + 1) * 0xBF58476D1CE4E5B9ULL;
  z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9ULL;
  z = (z ^ (z >> 27)) * 0x94D049BB133111EBULL;
  z ^= z >> 31;
  const uint64_t lo = Cutoffs().front();
  return lo + z % (kYMax - lo + 1);
}

/// \brief Exact answers at Cutoffs() over the union of some input parts:
/// F2 and tuple count of each prefix {y <= c}, and the items whose prefix
/// frequency reaches phi * N (the heavy hitters every counter summary must
/// report).
struct Oracle {
  uint64_t n = 0;
  std::vector<double> f2;
  std::vector<uint64_t> count;
  std::vector<std::vector<uint64_t>> heavy;
};

inline Oracle BuildOracle(const std::vector<const std::vector<Tuple>*>& parts,
                          double phi) {
  std::vector<Tuple> all;
  for (const auto* p : parts) all.insert(all.end(), p->begin(), p->end());
  std::sort(all.begin(), all.end(),
            [](const Tuple& a, const Tuple& b) { return a.y < b.y; });
  Oracle o;
  o.n = all.size();
  std::unordered_map<uint64_t, uint64_t> freq;
  freq.reserve(all.size() / 4 + 16);
  uint64_t sumsq = 0;
  size_t i = 0;
  for (uint64_t c : Cutoffs()) {
    for (; i < all.size() && all[i].y <= c; ++i) {
      uint64_t& f = freq[all[i].x];
      sumsq += 2 * f + 1;  // (f + 1)^2 - f^2
      ++f;
    }
    o.f2.push_back(static_cast<double>(sumsq));
    o.count.push_back(i);
    std::vector<uint64_t> heavy;
    for (const auto& [x, f] : freq) {
      if (static_cast<double>(f) >= phi * static_cast<double>(o.n)) {
        heavy.push_back(x);
      }
    }
    std::sort(heavy.begin(), heavy.end());
    o.heavy.push_back(std::move(heavy));
  }
  return o;
}

}  // namespace perfbench

#endif  // PERFBENCH_SRC_INPUTS_H_
