// Correlated heavy-hitters shootout: the three CHH summary kinds — the
// F2-sketch bundle ('hh'), the nested Misra-Gries counters ('chh_mg'), and
// the Space-Saving-staged fast CHH ('chh_fast') — run on the same shared
// workloads (src/stream/generators.h Zipf(1.1) / bursty / uniform
// streams), and each benchmark records the three axes the panel is chosen
// on:
//
//   items_per_second   ingest throughput (columnar batches, offered tuples)
//   serialized_bytes   wire size of the summary after one full stream pass
//   precision/recall   QueryHeavyHitters(c, phi) against an exact oracle
//                      built from the same stream
//
// The oracle matches each kind's own guarantee: the counter kinds report
// frequency heavy hitters (f_x(c) >= phi * N(c)), the F2 bundle reports
// F2 heavy hitters (f_x(c)^2 >= phi * F2(c)), so precision/recall compare
// each algorithm against the thing it promises, not against each other's
// semantics. Space and throughput are directly comparable across the row.
//
// bench/run_baselines.sh folds these numbers into BENCH_baseline.json
// (counters land in the "counters" section via merge_baseline.py), and the
// README's "Correlated heavy-hitters panel" table is transcribed from that
// capture.
#include <benchmark/benchmark.h>

#include <cstdint>
#include <span>
#include <string>
#include <unordered_map>
#include <unordered_set>
#include <vector>

#include "bench/bench_util.h"
#include "src/core/any_summary.h"
#include "src/stream/generators.h"

namespace {

using namespace castream;

constexpr uint64_t kYRange = 1000000;
constexpr uint64_t kXRange = 500000;
constexpr double kAlpha = 1.1;
constexpr uint64_t kYCard = 16;
constexpr size_t kStreamLen = 1 << 19;
constexpr size_t kBatch = 4096;
// Query the hitters over the lower half of the y domain at phi = 0.02,
// with summaries sized for a 0.02 resolution (primary tables of ~100
// counters; the hh bundle keeps its default 64 candidates).
constexpr uint64_t kCutoff = kYRange / 2;
constexpr double kPhi = 0.02;

SummaryOptions ShootoutOptions() {
  SummaryOptions opts;
  opts.eps = 0.2;
  opts.y_max = kYRange - 1;
  opts.f_max_hint = 1e9;
  opts.x_domain = kXRange - 1;
  opts.phi_eps = 0.02;
  opts.chh_y_eps = 0.05;
  return opts;
}

const std::vector<Tuple>& ZipfStream() {
  static const auto* s = new std::vector<Tuple>(bench::LogWorkload(
      "zipf", 5,
      castream::ZipfStream(kStreamLen, kXRange, kAlpha, kYCard,
                           kYRange / kYCard, 5)));
  return *s;
}

const std::vector<Tuple>& BurstyStream() {
  static const auto* s = new std::vector<Tuple>(bench::LogWorkload(
      "bursty", 6,
      castream::BurstyStream(kStreamLen, kXRange, kAlpha, kYRange,
                             /*y_step=*/1, /*burst_odds=*/1,
                             /*max_burst=*/15, 6)));
  return *s;
}

const std::vector<Tuple>& UniformStream() {
  static const auto* s = new std::vector<Tuple>(bench::LogWorkload(
      "uniform", 7,
      castream::UniformStream(kStreamLen, kXRange, kYRange - 1, 7)));
  return *s;
}

// Exact heavy hitters of the sub-stream {x : y <= c}, under either the
// frequency (counter kinds) or the F2 (hh bundle) reading of "heavy".
std::unordered_set<uint64_t> OracleHitters(const std::vector<Tuple>& stream,
                                           uint64_t c, double phi,
                                           bool f2_semantics) {
  std::unordered_map<uint64_t, uint64_t> freq;
  uint64_t n = 0;
  for (const Tuple& t : stream) {
    if (t.y <= c) {
      ++freq[t.x];
      ++n;
    }
  }
  double f2 = 0.0;
  for (const auto& [x, f] : freq) {
    f2 += static_cast<double>(f) * static_cast<double>(f);
  }
  std::unordered_set<uint64_t> hitters;
  for (const auto& [x, f] : freq) {
    const double fd = static_cast<double>(f);
    const bool heavy = f2_semantics ? fd * fd >= phi * f2
                                    : fd >= phi * static_cast<double>(n);
    if (heavy) hitters.insert(x);
  }
  return hitters;
}

// One accuracy + space evaluation on a fresh summary fed the stream exactly
// once (the timed loop cycles the stream an iteration-dependent number of
// times, so it cannot be the summary the oracle is compared against).
void RecordAccuracyAndSpace(benchmark::State& state, const char* kind,
                            const std::vector<Tuple>& stream) {
  auto made = MakeSummary(kind, ShootoutOptions(), /*seed=*/11);
  if (!made.ok()) {
    state.SkipWithError(made.status().ToString().c_str());
    return;
  }
  AnySummary summary = std::move(made).value();
  summary.InsertBatch(stream);

  std::string blob;
  if (!summary.Serialize(&blob).ok()) {
    state.SkipWithError("serialize failed");
    return;
  }
  auto hits = summary.QueryHeavyHitters(kCutoff, kPhi);
  if (!hits.ok()) {
    state.SkipWithError(hits.status().ToString().c_str());
    return;
  }
  const bool f2_semantics = std::string(kind) == "hh";
  const auto truth = OracleHitters(stream, kCutoff, kPhi, f2_semantics);
  size_t true_positives = 0;
  for (const HeavyHitter& h : hits.value()) {
    if (truth.count(h.item) > 0) ++true_positives;
  }
  const size_t reported = hits.value().size();
  const double precision =
      reported == 0 ? 1.0
                    : static_cast<double>(true_positives) /
                          static_cast<double>(reported);
  const double recall = truth.empty()
                            ? 1.0
                            : static_cast<double>(true_positives) /
                                  static_cast<double>(truth.size());
  state.counters["serialized_bytes"] =
      benchmark::Counter(static_cast<double>(blob.size()));
  state.counters["precision"] = benchmark::Counter(precision);
  state.counters["recall"] = benchmark::Counter(recall);
}

// Ingest throughput through the type-erased batch path, then the one-pass
// accuracy/space capture. items_per_second counts offered tuples, directly
// comparable across the three kinds (same streams, same batch size).
void RunShootout(benchmark::State& state, const char* kind,
                 const std::vector<Tuple>& stream) {
  auto made = MakeSummary(kind, ShootoutOptions(), /*seed=*/11);
  if (!made.ok()) {
    state.SkipWithError(made.status().ToString().c_str());
    return;
  }
  AnySummary summary = std::move(made).value();
  std::vector<Tuple> batch;
  batch.reserve(kBatch);
  size_t pos = 0;
  for (auto _ : state) {
    batch.push_back(stream[pos]);
    if (++pos == stream.size()) pos = 0;
    if (batch.size() == kBatch) {
      summary.InsertBatch(batch);
      batch.clear();
    }
  }
  state.SetItemsProcessed(state.iterations());
  RecordAccuracyAndSpace(state, kind, stream);
}

void BM_ChhShootout_hh_zipf(benchmark::State& state) {
  RunShootout(state, "hh", ZipfStream());
}
void BM_ChhShootout_chh_mg_zipf(benchmark::State& state) {
  RunShootout(state, "chh_mg", ZipfStream());
}
void BM_ChhShootout_chh_fast_zipf(benchmark::State& state) {
  RunShootout(state, "chh_fast", ZipfStream());
}
void BM_ChhShootout_hh_bursty(benchmark::State& state) {
  RunShootout(state, "hh", BurstyStream());
}
void BM_ChhShootout_chh_mg_bursty(benchmark::State& state) {
  RunShootout(state, "chh_mg", BurstyStream());
}
void BM_ChhShootout_chh_fast_bursty(benchmark::State& state) {
  RunShootout(state, "chh_fast", BurstyStream());
}
void BM_ChhShootout_hh_uniform(benchmark::State& state) {
  RunShootout(state, "hh", UniformStream());
}
void BM_ChhShootout_chh_mg_uniform(benchmark::State& state) {
  RunShootout(state, "chh_mg", UniformStream());
}
void BM_ChhShootout_chh_fast_uniform(benchmark::State& state) {
  RunShootout(state, "chh_fast", UniformStream());
}

BENCHMARK(BM_ChhShootout_hh_zipf);
BENCHMARK(BM_ChhShootout_chh_mg_zipf);
BENCHMARK(BM_ChhShootout_chh_fast_zipf);
BENCHMARK(BM_ChhShootout_hh_bursty);
BENCHMARK(BM_ChhShootout_chh_mg_bursty);
BENCHMARK(BM_ChhShootout_chh_fast_bursty);
BENCHMARK(BM_ChhShootout_hh_uniform);
BENCHMARK(BM_ChhShootout_chh_mg_uniform);
BENCHMARK(BM_ChhShootout_chh_fast_uniform);

}  // namespace

BENCHMARK_MAIN();
