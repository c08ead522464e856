// Multi-writer stress for the sharded driver: several producer threads with
// their own Writer handles feeding one driver concurrently. This tier exists
// for the TSan CI job (`ctest -L concurrency`) — the assertions are chosen
// so any cross-thread interleaving passes, and the sanitizer does the work
// of proving there is no data race behind them.
//
// One deterministic anchor rides along: with evictions configured away, the
// CorrelatedF0 state is a pure min-y map — commutative in arrival order —
// so even the nondeterministic multi-writer interleaving must produce
// answers bit-for-bit equal to a single-threaded reference.
#include <cstdint>
#include <span>
#include <thread>
#include <vector>

#include <gtest/gtest.h>

#include "src/common/math_util.h"
#include "src/core/correlated_f0.h"
#include "src/core/correlated_fk.h"
#include "src/core/exact_correlated.h"
#include "src/driver/sharded_driver.h"
#include "src/stream/generators.h"
#include "src/stream/types.h"
#include "tests/test_util.h"

namespace castream {
namespace {

// Runs `writers` threads, each pushing its interleaved slice of the stream
// through its own Writer handle, then waits for full quiescence.
template <typename Summary>
void FeedConcurrently(ShardedDriver<Summary>& driver,
                      const std::vector<Tuple>& stream, uint32_t writers) {
  std::vector<std::thread> threads;
  threads.reserve(writers);
  for (uint32_t w = 0; w < writers; ++w) {
    threads.emplace_back([&driver, &stream, w, writers] {
      auto writer = driver.MakeWriter();
      for (size_t i = w; i < stream.size(); i += writers) {
        writer.Insert(stream[i]);
      }
      writer.Flush();
    });
  }
  for (auto& t : threads) t.join();
  driver.WaitIdle();
}

TEST(ShardedConcurrencyTest, MultiWriterF0MatchesSingleThreadedReference) {
  // No evictions (alpha = 400 >> 300 distinct ids): level state is the min-y
  // map of sampled ids, which is arrival-order-commutative, so the
  // multi-writer result is deterministic and must equal the reference.
  CorrelatedF0Options opts;
  opts.eps = 0.1;
  opts.delta = 0.2;
  opts.x_domain = 4095;
  const uint64_t y_max = (uint64_t{1} << 12) - 1;
  const auto stream = UniformStream(40000, 300, y_max, 21);

  CorrelatedF0Sketch reference(opts, 50);
  for (const Tuple& t : stream) reference.Insert(t.x, t.y);

  ShardedDriverOptions dopts;
  dopts.shards = 4;
  dopts.batch_size = 128;
  dopts.queue_capacity = 4;
  ShardedDriver<CorrelatedF0Sketch> driver(
      dopts, [&] { return CorrelatedF0Sketch(opts, 50); });
  FeedConcurrently(driver, stream, /*writers=*/4);
  EXPECT_EQ(driver.tuples_processed(), stream.size());

  auto merged = driver.Summarize();
  ASSERT_TRUE(merged.ok());
  EXPECT_EQ(reference.StoredTuplesEquivalent(),
            merged.value()->StoredTuplesEquivalent());
  for (uint64_t c : {uint64_t{0}, uint64_t{100}, y_max / 2, y_max}) {
    const auto ra = reference.Query(c);
    const auto rb = merged.value()->Query(c);
    ASSERT_EQ(ra.ok(), rb.ok()) << "c=" << c;
    if (ra.ok()) {
      ASSERT_EQ(ra.value(), rb.value()) << "c=" << c;
    }
  }
}

TEST(ShardedConcurrencyTest, MultiWriterF2StressStaysAccurate) {
  // The interleaving (and so bucket-closing timing) is scheduling-dependent;
  // every interleaving is a valid stream order, so the (eps, delta) band
  // around the exact truth must hold regardless. The band is deliberately
  // generous — this test's job is to race threads, not to measure accuracy.
  CorrelatedSketchOptions opts;
  opts.eps = 0.2;
  opts.delta = 0.1;
  opts.y_max = (uint64_t{1} << 14) - 1;
  opts.f_max_hint = 1e9;
  opts.conditions = AggregateConditions::ForFk(2.0);
  AmsF2SketchFactory factory(AmsDimsFor(opts.eps, 1e-4, 4), /*seed=*/51);
  const auto stream = UniformStream(40000, 600, opts.y_max, 23);

  ExactCorrelatedAggregate truth(AggregateKind::kF2);
  for (const Tuple& t : stream) truth.Insert(t.x, t.y);

  ShardedDriverOptions dopts;
  dopts.shards = 2;
  dopts.batch_size = 64;   // small batches => many queue handoffs
  dopts.queue_capacity = 2;  // exercise writer backpressure
  ShardedDriver<CorrelatedF2Sketch> driver(
      dopts, [&] { return CorrelatedF2Sketch(opts, factory); });
  FeedConcurrently(driver, stream, /*writers=*/4);
  EXPECT_EQ(driver.tuples_processed(), stream.size());

  auto r = driver.Query(opts.y_max);
  ASSERT_TRUE(r.ok());
  EXPECT_TRUE(
      WithinRelativeError(r.value().estimate, truth.Query(opts.y_max), 0.5))
      << "est=" << r.value().estimate << " truth=" << truth.Query(opts.y_max);
}

TEST(ShardedConcurrencyTest, ConcurrentWritersDuringMerges) {
  // Merged snapshots taken while writers are still pushing: the snapshot
  // covers some prefix-closed set of acknowledged batches; afterwards a
  // final flush must account for every tuple.
  CorrelatedF0Options opts;
  opts.eps = 0.2;
  opts.delta = 0.25;
  opts.x_domain = 8191;
  const uint64_t y_max = (uint64_t{1} << 12) - 1;
  const auto stream = UniformStream(30000, 5000, y_max, 29);

  ShardedDriverOptions dopts;
  dopts.shards = 3;
  dopts.batch_size = 97;
  ShardedDriver<CorrelatedF0Sketch> driver(
      dopts, [&] { return CorrelatedF0Sketch(opts, 52); });

  std::vector<std::thread> threads;
  for (uint32_t w = 0; w < 3; ++w) {
    threads.emplace_back([&driver, &stream, w] {
      auto writer = driver.MakeWriter();
      for (size_t i = w; i < stream.size(); i += 3) writer.Insert(stream[i]);
      writer.Flush();
    });
  }
  // Race a few merges against the writers; each must succeed on whatever
  // consistent shard states it observes.
  for (int i = 0; i < 3; ++i) {
    auto snapshot = driver.Summarize();
    ASSERT_TRUE(snapshot.ok());
  }
  for (auto& t : threads) t.join();
  driver.WaitIdle();
  EXPECT_EQ(driver.tuples_processed(), stream.size());
  auto final_merge = driver.Summarize();
  ASSERT_TRUE(final_merge.ok());
  ASSERT_TRUE(final_merge.value()->Query(y_max).ok());
}

TEST(ShardedConcurrencyTest, DestructorDrainsDefaultWriterBacklog) {
  // Backpressure config plus an un-flushed tail of inserts: the destructor
  // must flush the driver-owned writer, drain the queues, and join cleanly.
  CorrelatedF0Options opts;
  opts.eps = 0.2;
  opts.delta = 0.25;
  opts.x_domain = 1023;
  const uint64_t y_max = 255;
  const auto stream = UniformStream(10000, 800, y_max, 31);
  ShardedDriverOptions dopts;
  dopts.shards = 4;
  dopts.batch_size = 16;
  dopts.queue_capacity = 1;
  {
    ShardedDriver<CorrelatedF0Sketch> driver(
        dopts, [&] { return CorrelatedF0Sketch(opts, 53); });
    driver.InsertBatch(std::span<const Tuple>(stream));
    // No Flush: ~batch_size tuples per shard stay buffered on purpose.
  }
  SUCCEED();  // reaching here without deadlock/sanitizer report is the test
}

}  // namespace
}  // namespace castream
