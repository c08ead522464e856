// Sliding-window aggregation over an out-of-order sensor stream — the
// asynchronous-streams application of Section 1.1.
//
// Sensors timestamp readings at the source, but network retries deliver
// them out of order. A synchronous sliding-window summary (Datar et al.)
// breaks under reordering; the correlated-aggregate reduction does not: we
// store (sensor, mirrored timestamp) and every window query becomes a
// prefix query with a query-time cutoff.
#include <algorithm>
#include <chrono>
#include <cstdio>
#include <thread>
#include <vector>

#include "src/castream.h"

int main() {
  using namespace castream;

  constexpr uint64_t kHorizon = (1 << 20) - 1;  // timestamp domain
  CorrelatedSketchOptions opts;
  opts.eps = 0.15;
  opts.delta = 0.05;
  opts.y_max = kHorizon;
  opts.f_max_hint = 1e12;

  AsyncSlidingWindow<AmsF2SketchFactory> window(
      opts, AmsF2SketchFactory(AmsDimsFor(opts.eps / 2.0, BucketGamma(opts), 4),
                               /*seed=*/5),
      kHorizon);

  // Generate readings in true time order, then deliver them shuffled within
  // a 5000-tick jitter horizon (late and early arrivals interleaved).
  Xoshiro256 rng(6);
  std::vector<std::pair<uint64_t, uint64_t>> deliveries;  // (sensor, t)
  const int kReadings = 250000;
  for (int i = 0; i < kReadings; ++i) {
    const uint64_t t = static_cast<uint64_t>(i) * kHorizon / kReadings;
    uint64_t sensor = rng.NextBounded(3000);
    if (t > kHorizon / 2 && rng.NextBounded(10) == 0) {
      sensor = 77;  // one sensor goes chatty in the second half
    }
    deliveries.emplace_back(sensor, t);
  }
  // Local shuffle = bounded asynchrony.
  for (size_t i = 0; i + 1 < deliveries.size(); ++i) {
    const size_t j = i + rng.NextBounded(std::min<size_t>(
                             5000, deliveries.size() - i));
    std::swap(deliveries[i], deliveries[j]);
  }

  uint64_t delivered_out_of_order = 0;
  uint64_t prev_t = 0;
  for (const auto& [sensor, t] : deliveries) {
    delivered_out_of_order += (t < prev_t);
    prev_t = t;
    if (!window.Observe(sensor, t).ok()) return 1;
  }
  std::printf("ingested %d readings, %llu of them out of timestamp order "
              "(%.0f%%)\n",
              kReadings,
              static_cast<unsigned long long>(delivered_out_of_order),
              100.0 * delivered_out_of_order / kReadings);
  std::printf("summary size: %zu tuple-equivalents\n\n",
              window.StoredTuplesEquivalent());

  // Window queries at the current watermark, widths chosen interactively.
  std::printf("%-24s %-18s\n", "window (ticks)", "F2 estimate");
  for (uint64_t w : {kHorizon / 16, kHorizon / 4, kHorizon / 2}) {
    auto r = window.QueryWindow(kHorizon, w);
    std::printf("%-24llu %-18.0f\n", static_cast<unsigned long long>(w),
                r.ok() ? r.value() : -1.0);
  }
  std::printf("\nF2 over the recent half is inflated by sensor 77's burst — "
              "the skew shows up\nonly in windows covering the second half, "
              "exactly what a traffic inspector needs.\n");

  // The same workload, served: a ShardedAsyncWindow spreads ingest across
  // shard threads and answers *while* data is arriving. Snapshot queries
  // read the published shard snapshots — no queue quiescing — so a dashboard
  // polling the window never stalls the collectors; blocking queries flush
  // first and are exact as of the call.
  std::printf("\n== sharded + non-blocking serving ==\n");
  ShardedDriverOptions dopts;
  dopts.shards = 4;
  dopts.batch_size = 512;
  dopts.snapshot_interval_batches = 4;
  ShardedAsyncWindow<AmsF2SketchFactory> sharded(
      opts, AmsF2SketchFactory(AmsDimsFor(opts.eps / 2.0, BucketGamma(opts), 4),
                               /*seed=*/5),
      kHorizon, dopts);

  std::thread collector([&sharded, &deliveries] {
    auto observer = sharded.MakeObserver();
    for (const auto& [sensor, t] : deliveries) {
      if (!observer.Observe(sensor, t).ok()) return;
    }
    observer.Flush();
  });
  // Poll mid-ingest: every answer is a valid (possibly slightly stale)
  // whole-stream answer over a recent batch boundary. Readings arrive in
  // rough time order, so the suffix aggregate (everything so far) is the
  // number a live dashboard would watch grow; a recent-window query would
  // stay empty until delivery reaches that window.
  for (int probe = 0; probe < 3; ++probe) {
    std::this_thread::sleep_for(std::chrono::milliseconds(20));
    auto r = sharded.QuerySince(0, {.mode = QueryMode::kSnapshot});
    std::printf("mid-ingest snapshot F2(all readings) ~ %-12.0f "
                "(tuples ingested so far: %llu)\n",
                r.ok() ? r.value().estimate : -1.0,
                static_cast<unsigned long long>(
                    sharded.driver().tuples_processed()));
  }
  collector.join();
  sharded.Flush();

  std::printf("%-24s %-18s %-18s\n", "window (ticks)", "blocking F2",
              "snapshot F2");
  for (uint64_t w : {kHorizon / 16, kHorizon / 4, kHorizon / 2}) {
    auto blocking = sharded.QueryWindow(kHorizon, w);
    auto snapshot =
        sharded.QueryWindow(kHorizon, w, {.mode = QueryMode::kSnapshot});
    std::printf("%-24llu %-18.0f %-18.0f\n",
                static_cast<unsigned long long>(w),
                blocking.ok() ? blocking.value().estimate : -1.0,
                snapshot.ok() ? snapshot.value().estimate : -1.0);
  }
  std::printf("post-flush blocking and snapshot answers are identical; "
              "shard epochs:");
  for (uint64_t e : sharded.driver().ShardEpochs()) {
    std::printf(" %llu", static_cast<unsigned long long>(e));
  }
  std::printf(", shard merges performed: %llu\n",
              static_cast<unsigned long long>(
                  sharded.driver().shard_merges_performed()));
  return 0;
}
