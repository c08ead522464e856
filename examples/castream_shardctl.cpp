// castream_shardctl — cross-process sharding on the Unified Summary API.
//
// The paper's summaries are mergeable by construction, and the wire format
// (src/io) makes them durable, so one logical stream can be summarized by N
// *separate processes* and reduced afterwards:
//
//   # each worker ingests its x-partition of the stream and writes a blob
//   castream_shardctl worker --kind f2 --shards 3 --shard 0 --out s0.bin
//   castream_shardctl worker --kind f2 --shards 3 --shard 1 --out s1.bin
//   castream_shardctl worker --kind f2 --shards 3 --shard 2 --out s2.bin
//   # the reducer deserializes + merges the blobs and answers queries;
//   # --verify rebuilds the same partition+merge in one process and asserts
//   # bit-for-bit equality (blobs must be passed in shard order)
//   castream_shardctl reduce --kind f2 --verify s0.bin s1.bin s2.bin
//
// All workers and the reducer must agree on --kind, --seed (the hash
// families; identity is by value, so separate processes are fine) and the
// stream parameters. The demo stream is deterministic from --stream-seed,
// which is what lets --verify compare the cross-process result against
// single-process work bit-for-bit: the oracle partitions the stream with
// the same x-hash, feeds S summaries serially, and merges them — exactly
// what the workers + reducer did, minus the wire — so any deviation is a
// serialization bug, not sketch noise. A second, approximate check compares
// against one plain summary of the whole stream (per-shard bucket-closing
// decisions legitimately differ there, so agreement is within the (eps,
// delta) guarantee, not exact). Real deployments replace the generator
// with their sources and keep everything else. Partitioning is by item
// identifier x — the same split ShardedDriver uses in-process — under
// which all supported aggregates decompose exactly.
//
// ci/shardctl_demo.sh runs this end to end for every registered kind (it
// enumerates `castream_shardctl kinds`, so new summaries join the drill
// automatically); the CI cross-compiler job feeds gcc-written blobs to a
// clang-built reducer.
#include <chrono>
#include <cinttypes>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <system_error>
#include <sstream>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "src/core/any_summary.h"
#include "src/driver/sharded_driver.h"
#include "src/hash/hash_family.h"
#include "src/io/decoder.h"
#include "src/stream/generators.h"
#include "src/stream/types.h"

namespace {

using namespace castream;

// The driver's default partition seed: a worker fleet and an in-process
// ShardedDriver split one stream identically.
const uint64_t kPartitionSeed = ShardedDriverOptions{}.shard_seed;

struct Args {
  std::string mode;
  std::string kind = "f2";
  uint32_t shards = 3;
  uint32_t shard = 0;
  uint64_t summary_seed = 42;
  uint64_t stream_seed = 7;
  uint64_t count = 60000;
  uint64_t x_domain = 2000;
  uint64_t y_max = 65535;
  std::string out;
  bool verify = false;
  std::vector<std::string> inputs;
};

void Usage() {
  // The kinds line comes from the registry, so a newly registered summary
  // type shows up here without edits.
  std::fprintf(
      stderr,
      "usage:\n"
      "  castream_shardctl kinds\n"
      "  castream_shardctl worker --kind K --shards N --shard I --out FILE\n"
      "                           [--seed S] [--stream-seed S] [--count N]\n"
      "                           [--x-domain D] [--y-max Y]\n"
      "  castream_shardctl reduce --kind K [--verify] [stream flags] "
      "BLOB...\n"
      "  castream_shardctl stats --kind K [--shards N] [stream flags]\n"
      "kinds: %s\n"
      "stats: ingest the demo stream through an in-process ShardedDriver\n"
      "       and serve non-blocking snapshot queries while it runs,\n"
      "       then report shard epochs / merge reuse and check that the\n"
      "       post-flush snapshot answers equal the blocking ones.\n",
      SummaryRegistry::KindNamesForDisplay(" | ").c_str());
}

bool ParseArgs(int argc, char** argv, Args* args) {
  if (argc < 2) return false;
  args->mode = argv[1];
  for (int i = 2; i < argc; ++i) {
    const std::string flag = argv[i];
    auto next = [&](uint64_t* out) {
      if (i + 1 >= argc) return false;
      *out = std::strtoull(argv[++i], nullptr, 10);
      return true;
    };
    if (flag == "--verify") {
      args->verify = true;
    } else if (flag == "--kind" && i + 1 < argc) {
      args->kind = argv[++i];
    } else if (flag == "--out" && i + 1 < argc) {
      args->out = argv[++i];
    } else if (flag == "--shards") {
      uint64_t v = 0;
      if (!next(&v) || v == 0) return false;
      args->shards = static_cast<uint32_t>(v);
    } else if (flag == "--shard") {
      uint64_t v = 0;
      if (!next(&v)) return false;
      args->shard = static_cast<uint32_t>(v);
    } else if (flag == "--seed") {
      if (!next(&args->summary_seed)) return false;
    } else if (flag == "--stream-seed") {
      if (!next(&args->stream_seed)) return false;
    } else if (flag == "--count") {
      if (!next(&args->count)) return false;
    } else if (flag == "--x-domain") {
      if (!next(&args->x_domain)) return false;
    } else if (flag == "--y-max") {
      if (!next(&args->y_max)) return false;
    } else if (flag.rfind("--", 0) == 0) {
      std::fprintf(stderr, "unknown flag: %s\n", flag.c_str());
      return false;
    } else {
      args->inputs.push_back(flag);
    }
  }
  return true;
}

SummaryOptions OptionsFor(const Args& args) {
  SummaryOptions opts;
  opts.eps = 0.25;
  opts.delta = 0.1;
  opts.y_max = args.y_max;
  opts.f_max_hint = 1e9;
  opts.x_domain = args.x_domain;
  opts.phi_eps = 0.05;
  return opts;
}

uint32_t PartitionOf(uint64_t x, uint32_t shards) {
  return static_cast<uint32_t>(MixHash64(x, kPartitionSeed) % shards);
}

std::vector<uint64_t> CutoffLadder(uint64_t y_max) {
  std::vector<uint64_t> cutoffs{0, 1};
  for (uint64_t c = 2; c < y_max; c *= 4) cutoffs.push_back(c - 1);
  cutoffs.push_back(y_max / 2);
  cutoffs.push_back(y_max);
  return cutoffs;
}

Result<AnySummary> IngestStream(const Args& args, bool only_my_shard) {
  CASTREAM_ASSIGN_OR_RETURN(AnySummary summary,
                            MakeSummary(args.kind, OptionsFor(args),
                                        args.summary_seed));
  UniformGenerator gen(args.x_domain, args.y_max, args.stream_seed);
  std::vector<Tuple> batch;
  batch.reserve(4096);
  uint64_t taken = 0;
  for (uint64_t i = 0; i < args.count; ++i) {
    const Tuple t = gen.Next();
    if (only_my_shard && PartitionOf(t.x, args.shards) != args.shard) {
      continue;
    }
    batch.push_back(t);
    ++taken;
    if (batch.size() == batch.capacity()) {
      summary.InsertBatch(batch);
      batch.clear();
    }
  }
  summary.InsertBatch(batch);
  std::fprintf(stderr, "ingested %" PRIu64 "/%" PRIu64 " tuples (%s)\n",
               taken, args.count, args.kind.c_str());
  return summary;
}

/// \brief The exact oracle for --verify: partition the stream with the same
/// x-hash the workers used, feed one summary per shard serially, merge in
/// shard order — everything the worker fleet did, in one process, with no
/// wire in between.
Result<AnySummary> ShardedOracle(const Args& args) {
  std::vector<AnySummary> shards;
  std::vector<std::vector<Tuple>> buffers(args.shards);
  for (uint32_t s = 0; s < args.shards; ++s) {
    CASTREAM_ASSIGN_OR_RETURN(AnySummary summary,
                              MakeSummary(args.kind, OptionsFor(args),
                                          args.summary_seed));
    shards.push_back(std::move(summary));
    buffers[s].reserve(4096);
  }
  UniformGenerator gen(args.x_domain, args.y_max, args.stream_seed);
  for (uint64_t i = 0; i < args.count; ++i) {
    const Tuple t = gen.Next();
    const uint32_t s = PartitionOf(t.x, args.shards);
    buffers[s].push_back(t);
    if (buffers[s].size() == buffers[s].capacity()) {
      shards[s].InsertBatch(buffers[s]);
      buffers[s].clear();
    }
  }
  CASTREAM_ASSIGN_OR_RETURN(AnySummary merged,
                            MakeSummary(args.kind, OptionsFor(args),
                                        args.summary_seed));
  for (uint32_t s = 0; s < args.shards; ++s) {
    shards[s].InsertBatch(buffers[s]);
    CASTREAM_RETURN_NOT_OK(merged.MergeFrom(shards[s]));
  }
  return merged;
}

int RunWorker(const Args& args) {
  if (args.out.empty() || args.shard >= args.shards) {
    Usage();
    return 2;
  }
  auto summary = IngestStream(args, /*only_my_shard=*/true);
  if (!summary.ok()) {
    std::fprintf(stderr, "worker: %s\n", summary.status().ToString().c_str());
    return 1;
  }
  std::string blob;
  if (Status st = summary.value().Serialize(&blob); !st.ok()) {
    std::fprintf(stderr, "worker: %s\n", st.ToString().c_str());
    return 1;
  }
  // Write, flush, close, and re-measure: a short write (disk full, quota)
  // that slips through as a partial blob would surface later as a confusing
  // decode error at the reducer — or worse, not at all if the reducer is
  // lenient. Fail here, loudly, with a nonzero exit.
  std::ofstream out(args.out, std::ios::binary | std::ios::trunc);
  if (!out.is_open()) {
    std::fprintf(stderr, "worker: cannot open %s for writing\n",
                 args.out.c_str());
    return 1;
  }
  out.write(blob.data(), static_cast<std::streamsize>(blob.size()));
  out.flush();
  if (!out.good()) {
    std::fprintf(stderr, "worker: short write to %s (%zu bytes expected)\n",
                 args.out.c_str(), blob.size());
    return 1;
  }
  out.close();
  if (out.fail()) {
    std::fprintf(stderr, "worker: closing %s failed; blob may be truncated\n",
                 args.out.c_str());
    return 1;
  }
  std::error_code ec;
  const auto on_disk = std::filesystem::file_size(args.out, ec);
  if (ec || on_disk != blob.size()) {
    std::fprintf(stderr,
                 "worker: %s holds %llu bytes, expected %zu — short write\n",
                 args.out.c_str(),
                 static_cast<unsigned long long>(ec ? 0 : on_disk),
                 blob.size());
    return 1;
  }
  std::printf("shard %u/%u: wrote %zu-byte %s blob to %s\n", args.shard,
              args.shards, blob.size(), args.kind.c_str(), args.out.c_str());
  return 0;
}

int RunReduce(const Args& args) {
  if (args.inputs.empty()) {
    Usage();
    return 2;
  }
  auto merged = MakeSummary(args.kind, OptionsFor(args), args.summary_seed);
  if (!merged.ok()) {
    std::fprintf(stderr, "reduce: %s\n", merged.status().ToString().c_str());
    return 1;
  }
  for (const std::string& path : args.inputs) {
    // Size-verified read: stat the file, read exactly that many bytes, and
    // require the stream to deliver all of them. rdbuf()-style slurping can
    // stop early on a transient error without tripping failbit in a way
    // that is distinguishable here, which risks merging a silently
    // truncated shard. (Deserialize would catch it too via the envelope
    // length, but the I/O layer should not rely on the codec for that.)
    std::error_code ec;
    const auto expect = std::filesystem::file_size(path, ec);
    if (ec) {
      std::fprintf(stderr, "reduce: cannot stat %s: %s\n", path.c_str(),
                   ec.message().c_str());
      return 1;
    }
    std::ifstream in(path, std::ios::binary);
    if (!in.is_open()) {
      std::fprintf(stderr, "reduce: cannot open %s\n", path.c_str());
      return 1;
    }
    std::string blob(static_cast<size_t>(expect), '\0');
    in.read(blob.data(), static_cast<std::streamsize>(blob.size()));
    const auto got = in.gcount();
    if (got < 0 || static_cast<uintmax_t>(got) != expect) {
      std::fprintf(stderr,
                   "reduce: short read on %s: got %lld of %llu bytes\n",
                   path.c_str(), static_cast<long long>(got),
                   static_cast<unsigned long long>(expect));
      return 1;
    }
    auto shard = AnySummary::Deserialize(io::BytesOf(blob));
    if (!shard.ok()) {
      std::fprintf(stderr, "reduce: %s: %s\n", path.c_str(),
                   shard.status().ToString().c_str());
      return 1;
    }
    if (Status st = merged.value().MergeFrom(shard.value()); !st.ok()) {
      std::fprintf(stderr, "reduce: merging %s: %s\n", path.c_str(),
                   st.ToString().c_str());
      return 1;
    }
    std::fprintf(stderr, "merged %s (%zu bytes, kind %s)\n", path.c_str(),
                 blob.size(),
                 std::string(SummaryKindName(shard.value().kind())).c_str());
  }

  for (uint64_t c : CutoffLadder(args.y_max)) {
    const auto q = merged.value().Query(c);
    if (q.ok()) {
      std::printf("cutoff %10" PRIu64 "  estimate %.6f\n", c, q.value());
    } else {
      std::printf("cutoff %10" PRIu64 "  %s\n", c,
                  q.status().ToString().c_str());
    }
  }

  if (!args.verify) return 0;

  // Exact check: the same partition + serial ingest + merge, done in one
  // process. The union-of-summaries guarantee (Section 2) says the merge is
  // a summary of the whole stream, and the wire format must add nothing, so
  // every answer matches bit-for-bit or serialization is broken.
  auto oracle = ShardedOracle(args);
  if (!oracle.ok()) {
    std::fprintf(stderr, "verify: %s\n", oracle.status().ToString().c_str());
    return 1;
  }
  for (uint64_t c : CutoffLadder(args.y_max)) {
    const auto qa = oracle.value().Query(c);
    const auto qb = merged.value().Query(c);
    if (qa.ok() != qb.ok() || (qa.ok() && qa.value() != qb.value())) {
      std::fprintf(stderr,
                   "VERIFY FAILED at cutoff %" PRIu64
                   ": single-process partition+merge %s vs merged blobs %s\n",
                   c, qa.ok() ? std::to_string(qa.value()).c_str() : "error",
                   qb.ok() ? std::to_string(qb.value()).c_str() : "error");
      return 1;
    }
  }
  if (args.kind == "hh" || args.kind == "chh_mg" || args.kind == "chh_fast") {
    const auto ha = oracle.value().QueryHeavyHitters(args.y_max, 0.05);
    const auto hb = merged.value().QueryHeavyHitters(args.y_max, 0.05);
    if (ha.ok() != hb.ok() ||
        (ha.ok() && ha.value().size() != hb.value().size())) {
      std::fprintf(stderr, "VERIFY FAILED: heavy-hitter sets differ\n");
      return 1;
    }
    if (ha.ok()) {
      for (size_t i = 0; i < ha.value().size(); ++i) {
        if (ha.value()[i].item != hb.value()[i].item ||
            ha.value()[i].estimated_frequency !=
                hb.value()[i].estimated_frequency) {
          std::fprintf(stderr, "VERIFY FAILED: heavy hitter %zu differs\n", i);
          return 1;
        }
      }
    }
  }

  // Sanity check: one plain summary over the interleaved stream. Per-shard
  // bucket-closing decisions legitimately differ from the partitioned run,
  // so this agrees within the accuracy guarantee, not exactly.
  auto plain = IngestStream(args, /*only_my_shard=*/false);
  if (!plain.ok()) {
    std::fprintf(stderr, "verify: %s\n", plain.status().ToString().c_str());
    return 1;
  }
  const double eps = OptionsFor(args).eps;
  for (uint64_t c : CutoffLadder(args.y_max)) {
    const auto qa = plain.value().Query(c);
    const auto qb = merged.value().Query(c);
    if (!qa.ok() || !qb.ok()) continue;  // FAIL regions may differ slightly
    const double tolerance = 2.0 * eps * std::max(1.0, qa.value()) + 10.0;
    if (std::abs(qa.value() - qb.value()) > tolerance) {
      std::fprintf(stderr,
                   "VERIFY FAILED at cutoff %" PRIu64
                   ": merged blobs %.3f vs plain single summary %.3f "
                   "(outside 2*eps)\n",
                   c, qb.value(), qa.value());
      return 1;
    }
  }
  std::printf("VERIFIED: merged %zu blobs == single-process partition+merge "
              "(exact) and ~= plain ingest (within 2*eps) [%s, %" PRIu64
              " tuples]\n",
              args.inputs.size(), args.kind.c_str(), args.count);
  return 0;
}

/// \brief In-process serving demo on the unified Summary API: one
/// ShardedDriver<AnySummary> (any registry kind) ingesting the demo stream
/// on a writer thread while the main thread polls snapshot-mode Query — the
/// non-blocking path a live dashboard would use — then a final consistency
/// check that post-flush snapshot answers equal blocking ones bit-for-bit.
int RunStats(const Args& args) {
  constexpr QueryOptions kSnapshot{.mode = QueryMode::kSnapshot};
  // Validate the kind up front so a typo fails with a clear message
  // instead of inside the driver's factory.
  if (auto probe = MakeSummary(args.kind, OptionsFor(args), args.summary_seed);
      !probe.ok()) {
    std::fprintf(stderr, "stats: %s\n", probe.status().ToString().c_str());
    return 1;
  }
  ShardedDriverOptions dopts;
  dopts.shards = args.shards;
  dopts.batch_size = 1024;
  dopts.snapshot_interval_batches = 4;
  ShardedDriver<AnySummary> driver(dopts, [&args] {
    auto summary = MakeSummary(args.kind, OptionsFor(args), args.summary_seed);
    return std::move(summary).value();
  });

  std::thread producer([&driver, &args] {
    auto writer = driver.MakeWriter();
    UniformGenerator gen(args.x_domain, args.y_max, args.stream_seed);
    for (uint64_t i = 0; i < args.count; ++i) writer.Insert(gen.Next());
    writer.Flush();
  });
  for (int probe = 0; probe < 5; ++probe) {
    std::this_thread::sleep_for(std::chrono::milliseconds(10));
    const auto q = driver.Query(args.y_max, kSnapshot);
    std::printf("mid-ingest snapshot estimate %-14.3f (tuples ingested %10"
                PRIu64 ", merges %" PRIu64 ")\n",
                q.ok() ? q.value().estimate : -1.0, driver.tuples_processed(),
                driver.shard_merges_performed());
  }
  producer.join();
  driver.Flush();

  for (uint64_t c : CutoffLadder(args.y_max)) {
    const auto snapshot = driver.Query(c, kSnapshot);
    const auto blocking = driver.Query(c);
    if (snapshot.ok() != blocking.ok() ||
        (snapshot.ok() &&
         snapshot.value().estimate != blocking.value().estimate)) {
      std::fprintf(
          stderr,
          "STATS FAILED at cutoff %" PRIu64 ": snapshot %s vs blocking %s\n",
          c,
          snapshot.ok() ? std::to_string(snapshot.value().estimate).c_str()
                        : "error",
          blocking.ok() ? std::to_string(blocking.value().estimate).c_str()
                        : "error");
      return 1;
    }
    if (snapshot.ok()) {
      std::printf("cutoff %10" PRIu64 "  estimate %.6f (snapshot == "
                  "blocking)\n", c, snapshot.value().estimate);
    }
  }
  const uint64_t merges_settled = driver.shard_merges_performed();
  (void)driver.Query(args.y_max);  // cache hit: must add zero merges
  const uint64_t repeat_added =
      driver.shard_merges_performed() - merges_settled;
  std::printf("shard epochs:");
  for (uint64_t e : driver.ShardEpochs()) {
    std::printf(" %" PRIu64, e);
  }
  std::printf("\ntuples %" PRIu64 ", shard merges %" PRIu64
              " (repeat query added %" PRIu64 ")\n",
              driver.tuples_processed(), driver.shard_merges_performed(),
              repeat_added);
  if (repeat_added != 0) {
    std::fprintf(stderr,
                 "STATS FAILED: repeat query re-merged %" PRIu64
                 " shards; the epoch-keyed merge cache is broken\n",
                 repeat_added);
    return 1;
  }
  std::printf("STATS OK: non-blocking snapshot serving matched the blocking "
              "path for kind %s\n", args.kind.c_str());
  return 0;
}

int RunKinds() {
  for (const auto& entry : SummaryRegistry::Entries()) {
    std::printf("%-8s (wire tag %u)\n", std::string(entry.name).c_str(),
                static_cast<uint32_t>(entry.kind));
  }
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  Args args;
  if (!ParseArgs(argc, argv, &args)) {
    Usage();
    return 2;
  }
  if (args.mode == "kinds") return RunKinds();
  if (args.mode == "worker") return RunWorker(args);
  if (args.mode == "reduce") return RunReduce(args);
  if (args.mode == "stats") return RunStats(args);
  Usage();
  return 2;
}
