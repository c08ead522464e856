// Trace-shaped ingest throughput: the columnar batch pipeline and the
// hot-key pre-aggregation front end on skewed workloads (bench/workload.h).
//
// The recorded uniform-workload numbers (BM_CorrelatedF2InsertBatched in
// BENCH_baseline.json) are the worst case for pre-aggregation: no (x, y)
// pair ever repeats, so there is nothing to coalesce. Real traces are
// Zipf-skewed with low-cardinality y, and there the write path collapses
// repeats of hot pairs into single weighted rows before they touch the
// sketch. items_per_second always counts *offered* tuples (pre-coalescing),
// so the numbers here compare directly against the uniform baselines; the
// coalesced benches also report the measured coalesce factor
// (tuples in / rows reaching the sketch) as the `coalesce_x` counter.
#include <benchmark/benchmark.h>

#include <cstdint>
#include <span>
#include <vector>

#include "bench/workload.h"
#include "src/core/correlated_f0.h"
#include "src/core/correlated_fk.h"
#include "src/core/correlated_heavy_hitters.h"
#include "src/driver/hot_key_buffer.h"
#include "src/driver/sharded_driver.h"

namespace {

using namespace castream;

constexpr uint64_t kYRange = 1000000;
constexpr uint64_t kXRange = 500000;
constexpr double kAlpha = 1.1;
// Distinct y values: hot keys repeat whole (x, y) pairs at this cardinality
// (ports / status codes / coarse timestamps), which is what makes
// pre-aggregation bite.
constexpr uint64_t kYCard = 16;
constexpr size_t kStreamLen = 1 << 20;
constexpr size_t kBatch = 4096;
constexpr size_t kCoalesceSlots = 8192;

const std::vector<Tuple>& ZipfStream() {
  static const auto* s = new std::vector<Tuple>(
      bench::MakeZipfStream(kStreamLen, kXRange, kAlpha, kYCard, kYRange, 5));
  return *s;
}

const std::vector<Tuple>& BurstyStream() {
  static const auto* s = new std::vector<Tuple>(bench::MakeBurstyStream(
      kStreamLen, kXRange, kAlpha, kYRange, /*mean_burst=*/8, 6));
  return *s;
}

const std::vector<Tuple>& ChurnStream() {
  static const auto* s = new std::vector<Tuple>(bench::MakeChurnStream(
      kStreamLen, kXRange, /*working_set=*/4096, /*churn_period=*/1 << 14,
      kYRange, 7));
  return *s;
}

// Streams `stream` through the sketch in kBatch-tuple columnar batches.
template <typename Sketch>
void RunBatched(benchmark::State& state, Sketch& sketch,
                const std::vector<Tuple>& stream) {
  std::vector<Tuple> batch;
  batch.reserve(kBatch);
  size_t pos = 0;
  for (auto _ : state) {
    batch.push_back(stream[pos]);
    if (++pos == stream.size()) pos = 0;
    if (batch.size() == kBatch) {
      sketch.InsertBatch(batch);
      batch.clear();
    }
  }
  state.SetItemsProcessed(state.iterations());
}

// Same, but through a HotKeyBuffer: repeats of one (x, y) reach the sketch
// as a single weighted row. The weighted batches are flushed at the same
// kBatch row granularity, so queue/batch bookkeeping per *sketch row* is
// unchanged — the win is the rows that never exist.
template <typename Sketch>
void RunCoalesced(benchmark::State& state, Sketch& sketch,
                  const std::vector<Tuple>& stream) {
  HotKeyBuffer buf(kCoalesceSlots);
  std::vector<WeightedTuple> batch;
  batch.reserve(kBatch + 1);
  const auto stage = [&](const WeightedTuple& w) { batch.push_back(w); };
  size_t pos = 0;
  for (auto _ : state) {
    const Tuple& t = stream[pos];
    if (++pos == stream.size()) pos = 0;
    buf.Insert(t.x, t.y, 1, stage);
    if (batch.size() >= kBatch) {
      sketch.InsertBatch(std::span<const WeightedTuple>(batch));
      batch.clear();
    }
  }
  buf.Drain(stage);
  sketch.InsertBatch(std::span<const WeightedTuple>(batch));
  state.SetItemsProcessed(state.iterations());
  if (buf.tuples_out() > 0) {
    state.counters["coalesce_x"] = static_cast<double>(buf.tuples_in()) /
                                   static_cast<double>(buf.tuples_out());
  }
}

void BM_ZipfF2InsertBatched(benchmark::State& state) {
  auto sketch = MakeCorrelatedF2(bench::F2BenchOpts(0.20, kYRange), 3);
  RunBatched(state, sketch, ZipfStream());
}
BENCHMARK(BM_ZipfF2InsertBatched);

void BM_ZipfF2InsertCoalesced(benchmark::State& state) {
  auto sketch = MakeCorrelatedF2(bench::F2BenchOpts(0.20, kYRange), 3);
  RunCoalesced(state, sketch, ZipfStream());
}
BENCHMARK(BM_ZipfF2InsertCoalesced);

void BM_ZipfF0InsertBatched(benchmark::State& state) {
  CorrelatedF0Options opts;
  opts.eps = 0.1;
  opts.x_domain = kXRange;
  opts.repetitions_override = 1;
  CorrelatedF0Sketch sketch(opts, 15);
  RunBatched(state, sketch, ZipfStream());
}
BENCHMARK(BM_ZipfF0InsertBatched);

void BM_ZipfHeavyHittersInsertCoalesced(benchmark::State& state) {
  CorrelatedF2HeavyHitters hh(bench::F2BenchOpts(0.25, kYRange), 0.05, 17);
  RunCoalesced(state, hh, ZipfStream());
}
BENCHMARK(BM_ZipfHeavyHittersInsertCoalesced);

void BM_BurstyF2InsertCoalesced(benchmark::State& state) {
  // Back-to-back repeats: the coalescer's best case (the parked slot is
  // re-hit immediately), bounding what pre-aggregation can buy.
  auto sketch = MakeCorrelatedF2(bench::F2BenchOpts(0.20, kYRange), 3);
  RunCoalesced(state, sketch, BurstyStream());
}
BENCHMARK(BM_BurstyF2InsertCoalesced);

void BM_ChurnF2InsertBatched(benchmark::State& state) {
  // Rotating working set: per-key state keeps going cold — a stress on the
  // columnar path's per-level scans rather than on coalescing.
  auto sketch = MakeCorrelatedF2(bench::F2BenchOpts(0.20, kYRange), 3);
  RunBatched(state, sketch, ChurnStream());
}
BENCHMARK(BM_ChurnF2InsertBatched);

void BM_ShardedZipfF2Ingest(benchmark::State& state) {
  // End-to-end driver on the Zipf stream; Arg = writer_coalesce_slots
  // (0 = coalescing off). Aggregate wall-clock throughput, as in
  // bench_sharded_ingest.
  const auto opts = bench::F2BenchOpts(0.20, kYRange);
  AmsF2SketchFactory factory(AmsDimsFor(opts.eps, 1e-6, 4), /*seed=*/1);
  const std::vector<Tuple>& stream = ZipfStream();
  ShardedDriverOptions dopts;
  dopts.shards = 2;
  dopts.batch_size = kBatch;
  dopts.writer_coalesce_slots = static_cast<size_t>(state.range(0));
  for (auto _ : state) {
    state.PauseTiming();  // thread spawn/join stays out of the measurement
    {
      ShardedDriver<CorrelatedF2Sketch> driver(
          dopts, [&] { return CorrelatedF2Sketch(opts, factory); });
      state.ResumeTiming();
      driver.InsertBatch(stream);
      driver.Flush();
      state.PauseTiming();
    }
    state.ResumeTiming();
  }
  state.SetItemsProcessed(state.iterations() *
                          static_cast<int64_t>(stream.size()));
}
BENCHMARK(BM_ShardedZipfF2Ingest)
    ->Arg(0)
    ->Arg(static_cast<int64_t>(kCoalesceSlots))
    ->UseRealTime();

}  // namespace

BENCHMARK_MAIN();
