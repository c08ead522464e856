// The non-blocking query path of ShardedDriver (label: concurrency).
//
// Contracts pinned here:
//   * Snapshot-mode Query never blocks on the writer queues or the live
//     shard summaries: with an ingest thread wedged mid-batch and a shard queue
//     held at capacity (a writer stuck in backpressure), snapshot queries
//     still complete and answer from the last published snapshots.
//   * Under concurrent multi-writer ingest every snapshot answer is a valid
//     stream-prefix answer: bounded below by the last-flush oracle and
//     above by the post-WaitIdle oracle (a counting summary makes both
//     bounds exact).
//   * Shard snapshot epochs are monotone non-decreasing.
//   * After Flush() + WaitIdle(), snapshot-mode Query == blocking Query
//     bit-for-bit, for concrete summaries and for the type-erased
//     AnySummary.
#include <atomic>
#include <condition_variable>
#include <cstdint>
#include <memory>
#include <mutex>
#include <span>
#include <thread>
#include <vector>

#include <gtest/gtest.h>

#include "src/core/any_summary.h"
#include "src/core/correlated_fk.h"
#include "src/driver/sharded_driver.h"
#include "src/stream/types.h"
#include "tests/test_util.h"

namespace castream {
namespace {

using test::TestRng;
using test::UniformStream;

constexpr QueryOptions kSnapshot{.mode = QueryMode::kSnapshot};

// Minimal ShardableSummary: counts tuples. Monotone, exact, and cheap, so
// prefix-validity bounds are equalities on it.
struct CountSummary {
  uint64_t count = 0;

  void InsertBatch(std::span<const Tuple> batch) { count += batch.size(); }
  void InsertBatch(std::span<const WeightedTuple> batch) {
    count += batch.size();
  }
  [[nodiscard]] Status MergeFrom(const CountSummary& other) {
    count += other.count;
    return Status::OK();
  }
  [[nodiscard]] Result<double> Query(uint64_t) const {
    return static_cast<double>(count);
  }
};

// A CountSummary whose InsertBatch blocks while the test holds its gate
// closed — the tool for wedging an ingest thread mid-batch. Copies (the
// driver's snapshots) share the test-owned gate but never wait on it:
// only ingest does.
struct GateState {
  std::mutex mu;
  std::condition_variable cv;
  bool open = true;
};

struct GatedSummary {
  GateState* gate = nullptr;
  uint64_t count = 0;

  void InsertBatch(std::span<const Tuple> batch) {
    std::unique_lock<std::mutex> lock(gate->mu);
    gate->cv.wait(lock, [this] { return gate->open; });
    count += batch.size();
  }
  void InsertBatch(std::span<const WeightedTuple> batch) {
    std::unique_lock<std::mutex> lock(gate->mu);
    gate->cv.wait(lock, [this] { return gate->open; });
    count += batch.size();
  }
  [[nodiscard]] Status MergeFrom(const GatedSummary& other) {
    count += other.count;
    return Status::OK();
  }
  [[nodiscard]] Result<double> Query(uint64_t) const {
    return static_cast<double>(count);
  }
};

void SetGate(GateState& gate, bool open) {
  {
    std::lock_guard<std::mutex> lock(gate.mu);
    gate.open = open;
  }
  gate.cv.notify_all();
}

TEST(SnapshotQueryTest, DoesNotBlockOnFullQueuesOrWedgedIngest) {
  GateState gate;
  ShardedDriverOptions dopts;
  dopts.shards = 1;
  dopts.batch_size = 1;
  dopts.queue_capacity = 1;
  dopts.snapshot_interval_batches = 1;
  ShardedDriver<GatedSummary> driver(dopts,
                                     [&] { return GatedSummary{&gate}; });

  for (uint64_t i = 0; i < 5; ++i) driver.Insert(i, i);
  driver.Flush();
  ASSERT_EQ(driver.tuples_processed(), 5u);
  auto before = driver.Query(0, kSnapshot);
  ASSERT_TRUE(before.ok());
  EXPECT_EQ(before.value().estimate, 5.0);
  const uint64_t epoch_before = driver.shard_epoch(0);

  // Wedge the ingest thread mid-batch and fill the queue behind it: the
  // first push is popped and blocks inside InsertBatch (holding the shard's
  // summary lock), the second sits in the queue at capacity, the third
  // blocks the writer thread in backpressure.
  SetGate(gate, false);
  std::thread writer([&driver] {
    auto w = driver.MakeWriter();
    for (uint64_t i = 0; i < 3; ++i) w.Insert(100 + i, i);
    w.Flush();
  });
  // Give the writer time to reach the blocked state; the assertions below
  // hold at any point of that progression, so this is not load-bearing.
  std::this_thread::sleep_for(std::chrono::milliseconds(50));
  EXPECT_EQ(driver.tuples_processed(), 5u);

  // The snapshot path must answer from the published snapshots without
  // touching the queue or the wedged summary: if it blocked on either,
  // this call (and the test) would hang.
  for (int i = 0; i < 3; ++i) {
    auto during = driver.Query(0, kSnapshot);
    ASSERT_TRUE(during.ok());
    EXPECT_EQ(during.value().estimate, 5.0);
    EXPECT_EQ(driver.shard_epoch(0), epoch_before);
  }

  SetGate(gate, true);
  writer.join();
  driver.Flush();
  auto after_snapshot = driver.Query(0, kSnapshot);
  auto after_blocking = driver.Query(0);
  ASSERT_TRUE(after_snapshot.ok());
  ASSERT_TRUE(after_blocking.ok());
  EXPECT_EQ(after_snapshot.value().estimate, 8.0);
  EXPECT_EQ(after_blocking.value().estimate, 8.0);
  EXPECT_GT(driver.shard_epoch(0), epoch_before);
}

TEST(SnapshotQueryTest, BoundedByFlushAndFinalOraclesUnderMultiWriterIngest) {
  constexpr uint32_t kShards = 3;
  constexpr int kWriters = 4;
  constexpr uint64_t kPerWriterPhase1 = 4000;
  constexpr uint64_t kPerWriterPhase2 = 6000;

  ShardedDriverOptions dopts;
  dopts.shards = kShards;
  dopts.batch_size = 64;
  dopts.queue_capacity = 4;
  dopts.snapshot_interval_batches = 2;
  ShardedDriver<CountSummary> driver(dopts, [] { return CountSummary{}; });

  auto run_writers = [&](uint64_t per_writer, uint64_t seed_base) {
    std::vector<std::thread> writers;
    for (int w = 0; w < kWriters; ++w) {
      writers.emplace_back([&driver, per_writer, seed_base, w] {
        Xoshiro256 rng = TestRng(seed_base + static_cast<uint64_t>(w));
        auto writer = driver.MakeWriter();
        for (uint64_t i = 0; i < per_writer; ++i) {
          writer.Insert(rng.NextBounded(1 << 16), rng.NextBounded(1 << 10));
        }
        writer.Flush();
      });
    }
    return writers;
  };

  // Phase 1: establish the last-flush oracle.
  for (auto& t : run_writers(kPerWriterPhase1, 100)) t.join();
  driver.Flush();
  const double lower = driver.Query(0, kSnapshot).value().estimate;
  EXPECT_EQ(lower, static_cast<double>(kWriters * kPerWriterPhase1));

  // Phase 2: query concurrently with ingest. Every answer must be a valid
  // stream-prefix count — at least the flushed prefix, at most everything
  // the writers will ever push — and epochs must be monotone.
  const double upper =
      static_cast<double>(kWriters * (kPerWriterPhase1 + kPerWriterPhase2));
  std::vector<uint64_t> last_epochs = driver.ShardEpochs();
  {
    auto writers = run_writers(kPerWriterPhase2, 200);
    for (int probe = 0; probe < 50; ++probe) {
      auto q = driver.Query(0, kSnapshot);
      ASSERT_TRUE(q.ok());
      EXPECT_GE(q.value().estimate, lower);
      EXPECT_LE(q.value().estimate, upper);
      std::vector<uint64_t> epochs = driver.ShardEpochs();
      for (uint32_t s = 0; s < kShards; ++s) {
        EXPECT_GE(epochs[s], last_epochs[s]) << "shard " << s;
      }
      last_epochs = std::move(epochs);
    }
    for (auto& t : writers) t.join();
  }

  // Post-WaitIdle oracle: both paths converge on the exact total.
  driver.Flush();
  driver.WaitIdle();
  auto snapshot = driver.Query(0, kSnapshot);
  auto blocking = driver.Query(0);
  ASSERT_TRUE(snapshot.ok());
  ASSERT_TRUE(blocking.ok());
  EXPECT_EQ(snapshot.value().estimate, upper);
  EXPECT_EQ(blocking.value().estimate, upper);
  EXPECT_EQ(driver.tuples_processed(),
            static_cast<uint64_t>(kWriters) *
                (kPerWriterPhase1 + kPerWriterPhase2));
}

TEST(SnapshotQueryTest, IdleShardsArePublishedWithoutFlush) {
  // Data ingested before any snapshot query (and never Flush()ed) must not
  // stay invisible: interval publication only runs while batches flow, so
  // the snapshot path itself publishes idle shards' unpublished tails.
  ShardedDriverOptions dopts;
  dopts.shards = 3;
  dopts.batch_size = 16;
  dopts.snapshot_interval_batches = 1000000;  // interval never fires
  ShardedDriver<CountSummary> driver(dopts, [] { return CountSummary{}; });

  auto writer = driver.MakeWriter();
  for (uint64_t i = 0; i < 999; ++i) writer.Insert(i, i);
  writer.Flush();        // hand buffers to the queues (no snapshot publish)
  driver.WaitIdle();     // drain; workers now idle, nothing published yet

  auto first = driver.Query(0, kSnapshot);
  ASSERT_TRUE(first.ok());
  EXPECT_EQ(first.value().estimate, 999.0);
  // And a shard that stays idle keeps answering its full tail.
  auto second = driver.Query(0, kSnapshot);
  ASSERT_TRUE(second.ok());
  EXPECT_EQ(second.value().estimate, 999.0);
}

std::vector<uint64_t> CutoffLadder(uint64_t y_max) {
  std::vector<uint64_t> cutoffs{0, 1, y_max / 3, y_max / 2, y_max};
  for (uint64_t c = 2; c < y_max; c *= 2) cutoffs.push_back(c - 1);
  return cutoffs;
}

TEST(SnapshotQueryTest, PostFlushSnapshotEqualsBlockingQueryBitForBit) {
  CorrelatedSketchOptions opts;
  opts.eps = 0.25;
  opts.delta = 0.1;
  opts.y_max = (uint64_t{1} << 13) - 1;
  opts.f_max_hint = 1e9;
  opts.conditions = AggregateConditions::ForFk(2.0);
  AmsF2SketchFactory factory(AmsDimsFor(opts.eps, 1e-4, 4), /*seed=*/51);
  const auto stream = UniformStream(25000, 700, opts.y_max, 21);

  ShardedDriverOptions dopts;
  dopts.shards = 4;
  dopts.batch_size = 256;
  dopts.snapshot_interval_batches = 3;
  ShardedDriver<CorrelatedF2Sketch> driver(
      dopts, [&] { return CorrelatedF2Sketch(opts, factory); });
  driver.InsertBatch(stream);
  driver.Flush();

  for (uint64_t c : CutoffLadder(opts.y_max)) {
    const auto snapshot = driver.Query(c, kSnapshot);
    const auto blocking = driver.Query(c);
    ASSERT_EQ(snapshot.ok(), blocking.ok()) << "c=" << c;
    if (snapshot.ok()) {
      ASSERT_EQ(snapshot.value().estimate, blocking.value().estimate)
          << "c=" << c;
    }
  }

  // The merged summary itself (blocking Summarize) agrees too.
  auto merged = driver.Summarize();
  ASSERT_TRUE(merged.ok());
  for (uint64_t c : CutoffLadder(opts.y_max)) {
    const auto from_value = merged.value()->Query(c);
    const auto from_snapshot = driver.Query(c, kSnapshot);
    ASSERT_EQ(from_value.ok(), from_snapshot.ok()) << "c=" << c;
    if (from_value.ok()) {
      ASSERT_EQ(from_value.value(), from_snapshot.value().estimate)
          << "c=" << c;
    }
  }
}

TEST(SnapshotQueryTest, AnySummaryDriverServesSnapshots) {
  SummaryOptions opts;
  opts.eps = 0.25;
  opts.delta = 0.1;
  opts.y_max = (uint64_t{1} << 12) - 1;
  opts.f_max_hint = 1e9;
  const auto stream = UniformStream(12000, 900, opts.y_max, 33);

  ShardedDriverOptions dopts;
  dopts.shards = 3;
  dopts.batch_size = 128;
  dopts.snapshot_interval_batches = 2;
  ShardedDriver<AnySummary> driver(dopts, [&] {
    auto summary = MakeSummary("f2", opts, /*seed=*/77);
    EXPECT_TRUE(summary.ok());
    return std::move(summary).value();
  });

  // Snapshot answers are served mid-ingest (no flush) ...
  std::thread writer([&driver, &stream] {
    auto w = driver.MakeWriter();
    w.InsertBatch(stream);
    w.Flush();
  });
  for (int probe = 0; probe < 10; ++probe) {
    auto q = driver.Query(opts.y_max, kSnapshot);
    ASSERT_TRUE(q.ok());
    EXPECT_GE(q.value().estimate, 0.0);
  }
  writer.join();

  // ... and equal the blocking path bit-for-bit once flushed.
  driver.Flush();
  for (uint64_t c : CutoffLadder(opts.y_max)) {
    const auto snapshot = driver.Query(c, kSnapshot);
    const auto blocking = driver.Query(c);
    ASSERT_EQ(snapshot.ok(), blocking.ok()) << "c=" << c;
    if (snapshot.ok()) {
      ASSERT_EQ(snapshot.value().estimate, blocking.value().estimate)
          << "c=" << c;
    }
  }
  uint64_t epochs_total = 0;
  for (uint64_t e : driver.ShardEpochs()) epochs_total += e;
  EXPECT_GT(epochs_total, 0u);
}

}  // namespace
}  // namespace castream
