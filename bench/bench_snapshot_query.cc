// Query serving on the sharded driver: blocking vs snapshot, quiescent and
// under concurrent ingest (see src/driver/sharded_driver.h).
//
// What the four benchmarks measure (items_per_second = queries/s, real
// time — the work crosses threads):
//   * BM_BlockingQueryQuiescent / BM_SnapshotQueryQuiescent: repeated
//     queries with no ingest in between. Both paths hit the epoch-keyed
//     merge cache, so these are the steady-state serving rates (the
//     blocking path still pays a queue-quiescence round trip per call).
//   * BM_BlockingQueryUnderIngest / BM_SnapshotQueryUnderIngest: a
//     background writer pumps tuples the whole time. The blocking path
//     must drain the queues on every query (quiescing the writer); the
//     snapshot path merges published shard snapshots and never waits on
//     the queues — the gap between these two is the reason the snapshot
//     path exists. The under-ingest runs also report the writer's
//     sustained tuples/s as the "ingest_tps" counter, so one run shows
//     both sides of the latency-vs-throughput trade.
#include <benchmark/benchmark.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstdint>
#include <memory>
#include <span>
#include <thread>
#include <vector>

#include "bench/bench_util.h"
#include "src/core/correlated_fk.h"
#include "src/driver/sharded_driver.h"
#include "src/stream/generators.h"

namespace {

using namespace castream;

constexpr uint64_t kYRange = 1 << 16;
constexpr size_t kStreamLen = 1 << 18;
constexpr QueryOptions kSnapshot{.mode = QueryMode::kSnapshot};

CorrelatedSketchOptions F2Opts() { return bench::F2BenchOpts(0.20, kYRange); }

const std::vector<Tuple>& FixedStream() {
  static const auto* stream = new std::vector<Tuple>(
      bench::LogWorkload("uniform", 11,
                         UniformStream(kStreamLen, 100001, kYRange, 11)));
  return *stream;
}

ShardedDriverOptions DriverOpts(int64_t shards) {
  ShardedDriverOptions dopts;
  dopts.shards = static_cast<uint32_t>(shards);
  dopts.batch_size = 2048;
  dopts.snapshot_interval_batches = 4;
  return dopts;
}

std::unique_ptr<ShardedDriver<CorrelatedF2Sketch>> MakeLoadedDriver(
    int64_t shards, uint64_t seed) {
  const auto opts = F2Opts();
  AmsF2SketchFactory factory(AmsDimsFor(opts.eps, 1e-6, 4), seed);
  auto driver = std::make_unique<ShardedDriver<CorrelatedF2Sketch>>(
      DriverOpts(shards), [opts, factory] {
        return CorrelatedF2Sketch(opts, factory);
      });
  driver->InsertBatch(FixedStream());
  driver->Flush();
  return driver;
}

// A writer thread that pumps the fixed stream in a loop until stopped,
// counting what it pushed. Paced to a fixed chunk-per-sleep rhythm rather
// than saturating: an unthrottled writer never leaves the queues empty, so
// the blocking path's WaitIdle could starve unboundedly on few-core hosts —
// real, but useless as a regression reference. The pacing keeps ingest
// sustained (the snapshot path still re-merges on nearly every query) while
// bounding how long a quiescing query can be held off.
class BackgroundWriter {
 public:
  explicit BackgroundWriter(ShardedDriver<CorrelatedF2Sketch>& driver)
      : thread_([this, &driver] {
          auto writer = driver.MakeWriter();
          const auto& stream = FixedStream();
          size_t pos = 0;
          while (!stop_.load(std::memory_order_relaxed)) {
            const size_t take = std::min<size_t>(1024, stream.size() - pos);
            writer.InsertBatch(
                std::span<const Tuple>(stream.data() + pos, take));
            pushed_.fetch_add(take, std::memory_order_relaxed);
            pos = (pos + take) % stream.size();
            std::this_thread::sleep_for(std::chrono::milliseconds(2));
          }
          writer.Flush();
        }) {}

  ~BackgroundWriter() {
    stop_.store(true, std::memory_order_relaxed);
    thread_.join();
  }

  uint64_t pushed() const { return pushed_.load(std::memory_order_relaxed); }

 private:
  std::atomic<bool> stop_{false};
  std::atomic<uint64_t> pushed_{0};
  std::thread thread_;
};

void BM_BlockingQueryQuiescent(benchmark::State& state) {
  auto driver = MakeLoadedDriver(state.range(0), /*seed=*/21);
  // Prime the merge cache: the steady state being measured is the cached
  // serving rate, not the one-off first merge (which would otherwise land
  // in whichever calibration round Google Benchmark happens to time).
  benchmark::DoNotOptimize(driver->Query(0));
  bench::CutoffWalk walk;
  for (auto _ : state) {
    auto r = driver->Query(walk.Next(kYRange));
    benchmark::DoNotOptimize(r);
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_BlockingQueryQuiescent)->Arg(4)->UseRealTime();

void BM_SnapshotQueryQuiescent(benchmark::State& state) {
  auto driver = MakeLoadedDriver(state.range(0), /*seed=*/22);
  benchmark::DoNotOptimize(driver->Query(0, kSnapshot));  // prime (as above)
  bench::CutoffWalk walk;
  for (auto _ : state) {
    auto r = driver->Query(walk.Next(kYRange), kSnapshot);
    benchmark::DoNotOptimize(r);
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_SnapshotQueryQuiescent)->Arg(4)->UseRealTime();

void BM_BlockingQueryUnderIngest(benchmark::State& state) {
  auto driver = MakeLoadedDriver(state.range(0), /*seed=*/23);
  benchmark::DoNotOptimize(driver->Query(0));  // prime (see above)
  BackgroundWriter writer(*driver);
  bench::CutoffWalk walk;
  const uint64_t pushed_before = writer.pushed();
  for (auto _ : state) {
    auto r = driver->Query(walk.Next(kYRange));
    benchmark::DoNotOptimize(r);
  }
  state.counters["ingest_tps"] = benchmark::Counter(
      static_cast<double>(writer.pushed() - pushed_before),
      benchmark::Counter::kIsRate);
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_BlockingQueryUnderIngest)->Arg(4)->UseRealTime();

void BM_SnapshotQueryUnderIngest(benchmark::State& state) {
  auto driver = MakeLoadedDriver(state.range(0), /*seed=*/24);
  benchmark::DoNotOptimize(driver->Query(0, kSnapshot));  // prime (as above)
  BackgroundWriter writer(*driver);
  bench::CutoffWalk walk;
  const uint64_t pushed_before = writer.pushed();
  for (auto _ : state) {
    auto r = driver->Query(walk.Next(kYRange), kSnapshot);
    benchmark::DoNotOptimize(r);
  }
  state.counters["ingest_tps"] = benchmark::Counter(
      static_cast<double>(writer.pushed() - pushed_before),
      benchmark::Counter::kIsRate);
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_SnapshotQueryUnderIngest)->Arg(4)->UseRealTime();

}  // namespace

BENCHMARK_MAIN();
