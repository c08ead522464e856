// Shared plumbing for the benches. The streams themselves come from
// src/stream/generators.h; this header holds what only benches need.
//
// Paper-figure benches: scale-factor handling and the figure header. Every
// such bench prints series in the shape of the corresponding paper figure.
// Stream sizes default to a laptop/CI-friendly scale; set the environment
// variable CASTREAM_BENCH_SCALE (a positive double) to multiply them — e.g.
// CASTREAM_BENCH_SCALE=10 restores several figures to the paper's original
// sizes. The claims under test (space vs eps shape, space flat in n) are
// scale-free, which Figure 3-5/7 themselves demonstrate.
//
// Throughput benches (bench_update_throughput, bench_sharded_ingest,
// bench_snapshot_query, bench_zipf_ingest, bench_merge_scaling,
// bench_chh_shootout): the F2 options they share, the deterministic cutoff
// walk, and LogWorkload, which prints a one-line `# workload ...` header
// naming each stream's shape, length and seed, so any number recorded in
// BENCH_baseline.json can be traced back to the exact stream behind it.
#ifndef CASTREAM_BENCH_BENCH_UTIL_H_
#define CASTREAM_BENCH_BENCH_UTIL_H_

#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <string>
#include <vector>

#include "src/core/options.h"
#include "src/stream/types.h"

namespace castream::bench {

/// \brief Multiplier from CASTREAM_BENCH_SCALE (default 1.0).
inline double ScaleFactor() {
  const char* env = std::getenv("CASTREAM_BENCH_SCALE");
  if (env == nullptr) return 1.0;
  const double v = std::atof(env);
  return v > 0.0 ? v : 1.0;
}

/// \brief n scaled and rounded to a whole number of tuples.
inline uint64_t Scaled(uint64_t n) {
  return static_cast<uint64_t>(static_cast<double>(n) * ScaleFactor());
}

/// \brief Prints the standard bench header naming the paper artifact.
inline void PrintHeader(const char* figure, const char* description) {
  std::printf("# %s — %s\n", figure, description);
  std::printf("# scale factor: %.2f (set CASTREAM_BENCH_SCALE to change)\n",
              ScaleFactor());
}

/// \brief The F2-framework options every throughput bench uses (the
/// default AggregateConditions equal ForFk(2)).
inline CorrelatedSketchOptions F2BenchOpts(double eps, uint64_t y_max) {
  CorrelatedSketchOptions o;
  o.eps = eps;
  o.delta = 0.1;
  o.y_max = y_max;
  o.f_max_hint = 1e12;
  o.conditions = AggregateConditions::ForFk(2.0);
  return o;
}

/// \brief The query benches' deterministic cutoff sequence (a Weyl-style
/// `c = c * 2654435761 + 1` walk).
struct CutoffWalk {
  uint64_t c = 1;

  uint64_t Next(uint64_t range) {
    const uint64_t v = c % range;
    c = c * 2654435761 + 1;
    return v;
  }
};

/// \brief Prints the `# workload <name>: n=<size> seed=<seed>` line and
/// returns `stream` unchanged.
inline std::vector<Tuple> LogWorkload(const char* name, uint64_t seed,
                                      std::vector<Tuple> stream) {
  std::printf("# workload %s: n=%zu seed=%llu\n", name, stream.size(),
              static_cast<unsigned long long>(seed));
  return stream;
}

}  // namespace castream::bench

#endif  // CASTREAM_BENCH_BENCH_UTIL_H_
