// Sharded-driver ingest throughput: one logical stream hash-partitioned
// across S shard summaries, each with its own ingest thread (see
// src/driver/sharded_driver.h). items_per_second is *aggregate wall-clock*
// throughput (UseRealTime: the work happens on the shard threads, so the
// main thread's CPU time would be meaningless), which is the number that
// should scale with S on a multi-core host. On a single-core host the
// sharded configurations only add queue overhead — compare S=4 vs S=1 on a
// machine with >= S cores to see the scaling the driver exists for.
#include <benchmark/benchmark.h>

#include <vector>

#include "bench/bench_util.h"
#include "src/core/correlated_f0.h"
#include "src/core/correlated_fk.h"
#include "src/driver/sharded_driver.h"
#include "src/stream/generators.h"

namespace {

using namespace castream;

constexpr uint64_t kYRange = 1000000;
constexpr size_t kStreamLen = 1 << 20;

CorrelatedSketchOptions F2Opts() { return bench::F2BenchOpts(0.20, kYRange); }

const std::vector<Tuple>& FixedStream() {
  static const auto* stream = new std::vector<Tuple>(
      bench::LogWorkload("uniform", 2,
                         UniformStream(kStreamLen, 500001, kYRange, 2)));
  return *stream;
}

void BM_ShardedF2Ingest(benchmark::State& state) {
  const auto opts = F2Opts();
  AmsF2SketchFactory factory(AmsDimsFor(opts.eps, 1e-6, 4), /*seed=*/1);
  const std::vector<Tuple>& stream = FixedStream();
  ShardedDriverOptions dopts;
  dopts.shards = static_cast<uint32_t>(state.range(0));
  dopts.batch_size = 4096;
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
BENCHMARK(BM_ShardedF2Ingest)->Arg(1)->Arg(2)->Arg(4)->UseRealTime();

void BM_ShardedF0Ingest(benchmark::State& state) {
  CorrelatedF0Options opts;
  opts.eps = 0.1;
  opts.x_domain = 1000000;
  opts.repetitions_override = 3;
  const std::vector<Tuple>& stream = FixedStream();
  ShardedDriverOptions dopts;
  dopts.shards = static_cast<uint32_t>(state.range(0));
  dopts.batch_size = 4096;
  for (auto _ : state) {
    state.PauseTiming();
    {
      ShardedDriver<CorrelatedF0Sketch> driver(
          dopts, [&] { return CorrelatedF0Sketch(opts, 15); });
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
BENCHMARK(BM_ShardedF0Ingest)->Arg(1)->Arg(4)->UseRealTime();

void BM_ShardedF2MergedQuery(benchmark::State& state) {
  // Query-path cost: flush + merge all shards + one point query.
  const auto opts = F2Opts();
  AmsF2SketchFactory factory(AmsDimsFor(opts.eps, 1e-6, 4), /*seed=*/3);
  ShardedDriverOptions dopts;
  dopts.shards = static_cast<uint32_t>(state.range(0));
  ShardedDriver<CorrelatedF2Sketch> driver(
      dopts, [&] { return CorrelatedF2Sketch(opts, factory); });
  driver.InsertBatch(FixedStream());
  driver.Flush();
  bench::CutoffWalk walk;
  for (auto _ : state) {
    auto r = driver.Query(walk.Next(kYRange));
    benchmark::DoNotOptimize(r);
  }
}
BENCHMARK(BM_ShardedF2MergedQuery)->Arg(4)->UseRealTime();

}  // namespace

BENCHMARK_MAIN();
