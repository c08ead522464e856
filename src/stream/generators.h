// Synthetic workload generators matching the paper's evaluation datasets
// (Section 5): Uniform, Zipfian(alpha), and an Ethernet-like packet trace,
// plus the vector stream builders that tests and benches share
// (UniformStream, ZipfStream, SkewedStream, BurstyStream, ChurnStream).
// Each builder is a pure function of its arguments: the same arguments give
// the same tuples on every platform, and stream_test pins a fingerprint of
// each, so a change to a draw order fails loudly.
//
// The paper's Ethernet dataset came from LBL packet traces
// (ita.ee.lbl.gov/html/contrib/BC.html) that are no longer hosted; the
// EthernetTraceGenerator below is the documented substitution (DESIGN.md §4):
// a synthetic packet stream whose x values (packet sizes) span the same
// ~0..2000 domain the paper reports, and whose y values (millisecond
// timestamps) arrive in self-similar bursts.
#ifndef CASTREAM_STREAM_GENERATORS_H_
#define CASTREAM_STREAM_GENERATORS_H_

#include <cstddef>
#include <cstdint>
#include <memory>
#include <string>
#include <string_view>
#include <vector>

#include "src/common/random.h"
#include "src/stream/types.h"

namespace castream {

/// \brief Uniform-integer sampler interface for the x dimension.
class TupleGenerator {
 public:
  virtual ~TupleGenerator() = default;

  /// \brief Produces the next stream element.
  virtual Tuple Next() = 0;

  /// \brief Dataset name as used in the paper's figures.
  virtual std::string_view name() const = 0;
};

/// \brief Zipfian sampler over {0..m-1} with P(i) proportional to
/// 1/(i+1)^alpha, using Walker's alias method for O(1) sampling after O(m)
/// setup.
class ZipfDistribution {
 public:
  ZipfDistribution(uint64_t m, double alpha);

  uint64_t Sample(Xoshiro256& rng) const;
  uint64_t domain() const { return m_; }

 private:
  uint64_t m_;
  std::vector<double> prob_;     // scaled acceptance probabilities
  std::vector<uint32_t> alias_;  // alias targets
};

/// \brief The paper's "Uniform" dataset: x uniform over {0..x_range},
/// y uniform over {0..y_range}.
class UniformGenerator : public TupleGenerator {
 public:
  UniformGenerator(uint64_t x_range, uint64_t y_range, uint64_t seed)
      : x_range_(x_range), y_range_(y_range), rng_(seed) {}

  Tuple Next() override {
    return Tuple{rng_.NextBounded(x_range_ + 1), rng_.NextBounded(y_range_ + 1)};
  }
  std::string_view name() const override { return "Uniform"; }

 private:
  uint64_t x_range_;
  uint64_t y_range_;
  Xoshiro256 rng_;
};

/// \brief The paper's "Zipf" datasets: x Zipfian(alpha) over {0..x_range},
/// y uniform over {0..y_range}.
class ZipfGenerator : public TupleGenerator {
 public:
  ZipfGenerator(uint64_t x_range, double alpha, uint64_t y_range,
                uint64_t seed);

  Tuple Next() override {
    return Tuple{zipf_.Sample(rng_), rng_.NextBounded(y_range_ + 1)};
  }
  std::string_view name() const override { return name_; }

 private:
  ZipfDistribution zipf_;
  uint64_t y_range_;
  Xoshiro256 rng_;
  std::string name_;
};

/// \brief Synthetic Ethernet packet trace: x = packet size (bytes), y =
/// millisecond timestamp, bursty self-similar arrivals.
class EthernetTraceGenerator : public TupleGenerator {
 public:
  /// \brief `y_range` caps timestamps (wraps by clamping); defaults sized so
  /// a 2M-packet trace spans the cap like the paper's combined LAN traces.
  EthernetTraceGenerator(uint64_t y_range, uint64_t seed)
      : y_range_(y_range), rng_(seed) {}

  Tuple Next() override;
  std::string_view name() const override { return "Ethernet"; }

 private:
  uint64_t y_range_;
  Xoshiro256 rng_;
  uint64_t clock_ms_ = 0;
};

/// \brief The four evaluation datasets of Section 5 with the paper's domain
/// parameters, in the paper's order. `f0_domains`: the F0 experiments widen
/// the x domain to 0..1e6 (Section 5.2 explains why).
std::vector<std::unique_ptr<TupleGenerator>> MakePaperDatasets(
    bool f0_domains, uint64_t seed);

/// \brief n draws of UniformGenerator(x_domain - 1, y_max, seed): x uniform
/// over [0, x_domain), y uniform over [0, y_max], x drawn before y.
inline std::vector<Tuple> UniformStream(size_t n, uint64_t x_domain,
                                        uint64_t y_max, uint64_t seed) {
  UniformGenerator gen(x_domain - 1, y_max, seed);
  std::vector<Tuple> out;
  out.reserve(n);
  for (size_t i = 0; i < n; ++i) out.push_back(gen.Next());
  return out;
}

/// \brief x ~ Zipf(alpha) over [0, x_domain); y = k * y_step with k uniform
/// over [0, y_card). The low y cardinality matters: hot keys then repeat
/// whole (x, y) pairs, which is what the hot-key coalescer feeds on, while
/// with continuous y no pair ever repeats.
inline std::vector<Tuple> ZipfStream(size_t n, uint64_t x_domain,
                                     double alpha, uint64_t y_card,
                                     uint64_t y_step, uint64_t seed) {
  ZipfDistribution zipf(x_domain, alpha);
  Xoshiro256 rng(seed);
  std::vector<Tuple> out;
  out.reserve(n);
  for (size_t i = 0; i < n; ++i) {
    const uint64_t x = zipf.Sample(rng);
    out.push_back(Tuple{x, rng.NextBounded(y_card) * y_step});
  }
  return out;
}

/// \brief A heavy head: a quarter of the x values come from the eight ids
/// [0, 8), the rest uniformly from [100, 100 + x_domain); y uniform over
/// [0, y_max].
inline std::vector<Tuple> SkewedStream(size_t n, uint64_t x_domain,
                                       uint64_t y_max, uint64_t seed) {
  Xoshiro256 rng(seed);
  std::vector<Tuple> out;
  out.reserve(n);
  for (size_t i = 0; i < n; ++i) {
    const uint64_t x = (rng.NextBounded(4) == 0)
                           ? rng.NextBounded(8)
                           : 100 + rng.NextBounded(x_domain);
    out.push_back(Tuple{x, rng.NextBounded(y_max + 1)});
  }
  return out;
}

/// \brief Arrival bursts on the ZipfStream shape (trace replay: packet
/// trains, flaps). Each (x, y) draw is repeated back to back: as a burst of
/// 1 + U[0, max_burst) copies with odds 1 in `burst_odds` (every draw is a
/// burst when burst_odds <= 1, and then no draw decides it), else once.
inline std::vector<Tuple> BurstyStream(size_t n, uint64_t x_domain,
                                       double alpha, uint64_t y_card,
                                       uint64_t y_step, uint64_t burst_odds,
                                       uint64_t max_burst, uint64_t seed) {
  ZipfDistribution zipf(x_domain, alpha);
  Xoshiro256 rng(seed);
  std::vector<Tuple> out;
  out.reserve(n);
  while (out.size() < n) {
    const uint64_t x = zipf.Sample(rng);
    const Tuple t{x, rng.NextBounded(y_card) * y_step};
    const bool burst = burst_odds <= 1 || rng.NextBounded(burst_odds) == 0;
    size_t copies = burst ? 1 + rng.NextBounded(max_burst) : 1;
    for (; copies > 0 && out.size() < n; --copies) out.push_back(t);
  }
  return out;
}

/// \brief Key churn: x uniform over a working set of `working_set` keys
/// whose base rotates by working_set / 2 + 1 (mod x_domain) every
/// `churn_period` >= 1 tuples, so old keys die and new ones are born; y
/// uniform over [0, y_max].
inline std::vector<Tuple> ChurnStream(size_t n, uint64_t x_domain,
                                      uint64_t working_set,
                                      size_t churn_period, uint64_t y_max,
                                      uint64_t seed) {
  Xoshiro256 rng(seed);
  std::vector<Tuple> out;
  out.reserve(n);
  uint64_t base = 0;
  for (size_t i = 0; i < n; ++i) {
    if (i > 0 && i % churn_period == 0) {
      base = (base + working_set / 2 + 1) % x_domain;
    }
    const uint64_t x = (base + rng.NextBounded(working_set)) % x_domain;
    out.push_back(Tuple{x, rng.NextBounded(y_max + 1)});
  }
  return out;
}

}  // namespace castream

#endif  // CASTREAM_STREAM_GENERATORS_H_
