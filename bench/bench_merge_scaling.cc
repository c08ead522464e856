// Re-merge cost of the query-path merge tree as the shard count grows, on
// the steady-state workload the engine exists for — queries interleaved
// with churn confined to one shard.
//
// Each iteration flips the hot slot between two pre-built snapshot variants
// (no sketch building inside the timed loop), bumps its epoch, and merges:
// the tree re-merges only the log2(S) root path. items_per_second =
// queries/s; the merges_per_query counter reports MergeFrom calls per query
// (log2(S)), which is the scaling claim in a form immune to machine noise.
//
// The copy and merge costs behind every re-merge are measured on their own
// on shard-sized state (uniform f2 shards that serialize to ~3.5 MB, the
// served benchmark's publish size):
// BM_CloneShardSummary is one publish copy (items/s = clones/s) and
// BM_MergeTwoShardSnapshots one cold merge-tree node, a copy of the left
// snapshot merged with the right one (items/s = merges/s).
#include <benchmark/benchmark.h>

#include <cstdint>
#include <memory>
#include <span>
#include <vector>

#include "bench/workload.h"
#include "src/core/any_summary.h"
#include "src/core/correlated_fk.h"
#include "src/driver/merge_cache.h"

namespace {

using namespace castream;

constexpr uint64_t kYRange = 1 << 16;
constexpr size_t kTuplesPerShard = 1024;

CorrelatedSketchOptions F2Opts() { return bench::F2BenchOpts(0.20, kYRange); }

std::shared_ptr<const CorrelatedF2Sketch> MakeSnapshot(
    const CorrelatedSketchOptions& opts, const AmsF2SketchFactory& factory,
    uint64_t stream_seed) {
  CorrelatedF2Sketch sketch(opts, factory);
  for (const Tuple& t :
       bench::MakeUniformStream(kTuplesPerShard, 100000, kYRange,
                                stream_seed)) {
    sketch.Insert(t.x, t.y);
  }
  return std::make_shared<const CorrelatedF2Sketch>(std::move(sketch));
}

void BM_TreeChurnRemerge(benchmark::State& state) {
  const size_t shards = static_cast<size_t>(state.range(0));
  const auto opts = F2Opts();
  // One factory (seed-fixed hash families) keeps every snapshot mergeable.
  AmsF2SketchFactory factory(AmsDimsFor(opts.eps, 1e-6, 4), /*seed=*/31);

  std::vector<std::shared_ptr<const CorrelatedF2Sketch>> snaps;
  std::vector<uint64_t> epochs(shards, 1);
  for (size_t s = 0; s < shards; ++s) {
    snaps.push_back(MakeSnapshot(opts, factory, 100 + s));
  }
  // The hot slot alternates between two variants so every query sees a real
  // epoch change without paying sketch construction in the timed loop.
  const auto variant_a = snaps[0];
  const auto variant_b = MakeSnapshot(opts, factory, 99);

  MergeCache<CorrelatedF2Sketch> cache(
      [opts, factory] { return CorrelatedF2Sketch(opts, factory); });
  // Prime: the one-off full build is not the steady state being measured.
  benchmark::DoNotOptimize(cache.Merge(snaps, epochs));

  const uint64_t merges_before = cache.merges_performed();
  bool flip = false;
  for (auto _ : state) {
    snaps[0] = (flip = !flip) ? variant_b : variant_a;
    ++epochs[0];
    auto r = cache.Merge(snaps, epochs);
    benchmark::DoNotOptimize(r);
  }
  state.counters["merges_per_query"] =
      state.iterations() > 0
          ? static_cast<double>(cache.merges_performed() - merges_before) /
                static_cast<double>(state.iterations())
          : 0.0;
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_TreeChurnRemerge)->Arg(8)->Arg(64)->Arg(256);

/// \brief A shard's f2 summary after 2^18 uniform arrivals, configured
/// like the served benchmark's (eps 0.25, y over [0, 2^20)).
AnySummary MakeShardSummary(uint64_t stream_seed) {
  constexpr size_t kShardTuples = 1 << 18;
  SummaryOptions o;
  o.eps = 0.25;
  o.delta = 0.05;
  o.y_max = (uint64_t{1} << 20) - 1;
  o.f_max_hint = 1e12;
  AnySummary s = MakeSummary("f2", o, /*seed=*/41).value();
  const auto stream = bench::MakeUniformStream(kShardTuples, uint64_t{1} << 24,
                                               o.y_max + 1, stream_seed);
  s.InsertBatch(std::span<const Tuple>(stream));
  return s;
}

void BM_CloneShardSummary(benchmark::State& state) {
  const AnySummary shard = MakeShardSummary(7);
  for (auto _ : state) {
    AnySummary copy = shard.Clone();
    benchmark::DoNotOptimize(copy);
  }
  state.counters["state_bytes"] = static_cast<double>(shard.SizeBytes());
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_CloneShardSummary);

void BM_MergeTwoShardSnapshots(benchmark::State& state) {
  const AnySummary left = MakeShardSummary(7);
  const AnySummary right = MakeShardSummary(8);
  for (auto _ : state) {
    AnySummary merged = SummaryDeepCopy(left);
    if (!merged.MergeFrom(right).ok()) {
      state.SkipWithError("MergeFrom failed");
      break;
    }
    benchmark::DoNotOptimize(merged);
  }
  state.counters["state_bytes"] = static_cast<double>(left.SizeBytes());
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_MergeTwoShardSnapshots);

}  // namespace

BENCHMARK_MAIN();
