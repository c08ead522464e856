// Copy-on-write bucket counters: a copied sketch shares its counter cells
// (CounterMatrix) and, while sparse, its exact entries (CowVector) until one
// side writes. These tests pin the two halves of that contract.
//
//   * Independence: whatever one copy does afterwards — insert, merge,
//     decode — the other copy's state is bit-for-bit what it would be had
//     the copy never been taken, in both directions, for every linear
//     sketch that stores a CounterMatrix (AMS-F2, CountSketch, Count-Min),
//     sparse (10 items) and dense (2000 items) alike.
//     The reference for "never copied" is an independent sketch fed the
//     same operations.
//   * Concurrency: a snapshot read and merged on one thread while the owner
//     keeps writing the live summary that shares its cells. This file is in
//     the concurrency tier, so the TSan job proves the reference count
//     orders those accesses.
#include <atomic>
#include <cstdint>
#include <memory>
#include <mutex>
#include <span>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include <gtest/gtest.h>

#include "src/core/correlated_fk.h"
#include "src/driver/merge_cache.h"
#include "src/driver/sharded_driver.h"
#include "src/io/decoder.h"
#include "src/io/encoder.h"
#include "src/sketch/count_min.h"
#include "src/sketch/count_sketch.h"
#include "src/sketch/counter_matrix.h"
#include "src/sketch/cow_vector.h"
#include "src/stream/types.h"
#include "tests/test_util.h"

namespace castream {
namespace {

using test::TestRng;
using test::TreeOrderFold;

// ---- CounterMatrix itself --------------------------------------------------

TEST(CounterMatrixTest, CopySharesUntilFirstWrite) {
  CounterMatrix a(2, 4);
  a.MutableCells()[5] = 7;
  CounterMatrix b = a;
  EXPECT_TRUE(b.SharesCellsWith(a));
  EXPECT_EQ(b.at(1, 1), 7);

  b.MutableCells()[5] += 1;
  EXPECT_FALSE(b.SharesCellsWith(a));
  EXPECT_EQ(a.at(1, 1), 7);
  EXPECT_EQ(b.at(1, 1), 8);

  // The sole owner writes in place: no further copy.
  const int64_t* before = b.cells();
  b.MutableCells()[0] = 3;
  EXPECT_EQ(b.cells(), before);
  // Logical size regardless of sharing.
  EXPECT_EQ(a.SizeBytes(), 8 * sizeof(int64_t));
}

TEST(CounterMatrixTest, AddIntoSharedCellsLeavesTheSharerAlone) {
  CounterMatrix a(2, 3);
  CounterMatrix other(2, 3);
  for (int i = 0; i < 6; ++i) {
    a.MutableCells()[i] = i;
    other.MutableCells()[i] = 10 * i;
  }
  CounterMatrix sum = a;
  sum.AddFrom(other);
  EXPECT_FALSE(sum.SharesCellsWith(a));
  for (uint32_t r = 0; r < 2; ++r) {
    for (uint32_t c = 0; c < 3; ++c) {
      const int64_t v = r * 3 + c;
      EXPECT_EQ(a.at(r, c), v);
      EXPECT_EQ(sum.at(r, c), 11 * v);
    }
  }
  // Adding a matrix to a copy of itself doubles the copy only.
  CounterMatrix twice = a;
  twice.AddFrom(a);
  EXPECT_EQ(twice.at(1, 2), 10);
  EXPECT_EQ(a.at(1, 2), 5);
  // Sharer dropped: the survivor adds in place.
  CounterMatrix solo = a;
  a = CounterMatrix(1, 1);
  const int64_t* before = solo.cells();
  solo.AddFrom(other);
  EXPECT_EQ(solo.cells(), before);
  EXPECT_EQ(solo.at(1, 2), 55);
}

// ---- CowVector itself ------------------------------------------------------

TEST(CowVectorTest, CopySharesUntilFirstWrite) {
  CowVector<int64_t> a;
  EXPECT_TRUE(a.empty());
  EXPECT_EQ(a.MutableData(), nullptr);
  for (int64_t v : {1, 2, 3}) a.push_back(v);
  CowVector<int64_t> b = a;
  EXPECT_TRUE(b.SharesStorageWith(a));

  b.MutableData()[1] = 20;
  EXPECT_FALSE(b.SharesStorageWith(a));
  EXPECT_EQ(a[1], 2);
  EXPECT_EQ(b[1], 20);
  EXPECT_EQ(b.size(), 3u);

  // The sole owner writes in place: no further copy.
  const int64_t* before = b.begin();
  b.MutableData()[0] = 10;
  EXPECT_EQ(b.begin(), before);
  EXPECT_EQ(b[0], 10);
}

TEST(CowVectorTest, AppendAndClearLeaveTheSharerAlone) {
  CowVector<int64_t> a;
  a.reserve(8);  // room to append without growing
  for (int64_t v = 0; v < 4; ++v) a.push_back(v);

  CowVector<int64_t> appended = a;
  appended.push_back(4);
  EXPECT_FALSE(appended.SharesStorageWith(a));
  EXPECT_EQ(a.size(), 4u);
  EXPECT_EQ(appended.size(), 5u);
  EXPECT_EQ(appended[4], 4);

  CowVector<int64_t> cleared = a;
  cleared.clear();
  EXPECT_TRUE(cleared.empty());
  EXPECT_EQ(a.size(), 4u);

  // Growth past capacity keeps every element, in order.
  for (int64_t v = 4; v < 100; ++v) a.push_back(v);
  ASSERT_EQ(a.size(), 100u);
  int64_t expected = 0;
  for (int64_t v : a) EXPECT_EQ(v, expected++);
}

// ---- Sketch-level independence ---------------------------------------------

template <typename F, typename S>
std::string EncodeState(const F& factory, const S& sketch) {
  std::string out;
  io::Encoder enc(&out);
  factory.EncodeSketch(enc, sketch);
  return out;
}

template <typename F>
auto DecodeState(const F& factory, const std::string& bytes) {
  io::Decoder dec(io::BytesOf(bytes));
  auto decoded = factory.DecodeSketch(dec);
  EXPECT_TRUE(decoded.ok());
  return std::move(decoded).value();
}

struct AmsTraits {
  using Factory = AmsF2SketchFactory;
  using Sketch = AmsF2Sketch;
  static constexpr bool kHasWireFormat = true;
  static Factory MakeFactory() { return Factory(SketchDims{4, 64}, 7); }
  static void Insert(Sketch& s, uint64_t x, int64_t w) { s.Insert(x, w); }
  static std::string State(const Factory& f, const Sketch& s) {
    return EncodeState(f, s);
  }
};

struct CountSketchTraits {
  using Factory = CountSketchFactory;
  using Sketch = CountSketch;
  static constexpr bool kHasWireFormat = true;
  static Factory MakeFactory() { return Factory(SketchDims{3, 64}, 8); }
  static void Insert(Sketch& s, uint64_t x, int64_t w) { s.Insert(x, w); }
  static std::string State(const Factory& f, const Sketch& s) {
    return EncodeState(f, s);
  }
};

struct CountMinTraits {
  using Factory = CountMinSketchFactory;
  using Sketch = CountMinSketch;
  static constexpr bool kHasWireFormat = false;
  static Factory MakeFactory() { return Factory(SketchDims{3, 64}, 9); }
  static void Insert(Sketch& s, uint64_t x, int64_t w) {
    ASSERT_TRUE(s.Insert(x, w).ok());
  }
  // No wire format: every item's estimate plus the total pins every cell
  // any query can observe.
  static std::string State(const Factory&, const Sketch& s) {
    std::string out = std::to_string(s.TotalWeight());
    for (uint64_t x = 0; x < 4096; ++x) {
      out += ',' + std::to_string(s.EstimateFrequency(x));
    }
    return out;
  }
};

// (x, w) pairs over `distinct` items; 2000 distinct items densify every
// sketch here, 10 keep the AMS and CountSketch ones sparse.
std::vector<std::pair<uint64_t, int64_t>> Ops(size_t distinct, uint64_t seed) {
  Xoshiro256 rng = TestRng(seed);
  std::vector<std::pair<uint64_t, int64_t>> ops;
  for (size_t i = 0; i < 3 * distinct; ++i) {
    ops.emplace_back(rng.NextBounded(distinct),
                     1 + static_cast<int64_t>(rng.NextBounded(3)));
  }
  return ops;
}

template <typename Traits>
class CounterSharingTest : public ::testing::Test {
 protected:
  using Sketch = typename Traits::Sketch;

  void Feed(Sketch& s, const std::vector<std::pair<uint64_t, int64_t>>& ops) {
    for (const auto& [x, w] : ops) Traits::Insert(s, x, w);
  }
  Sketch Fresh(const std::vector<std::pair<uint64_t, int64_t>>& ops) {
    Sketch s = factory_.Create();
    Feed(s, ops);
    return s;
  }
  Sketch Fresh(const std::vector<std::pair<uint64_t, int64_t>>& a,
               const std::vector<std::pair<uint64_t, int64_t>>& b) {
    Sketch s = Fresh(a);
    Feed(s, b);
    return s;
  }
  std::string State(const Sketch& s) { return Traits::State(factory_, s); }

  typename Traits::Factory factory_ = Traits::MakeFactory();
};

using SketchTypes =
    ::testing::Types<AmsTraits, CountSketchTraits, CountMinTraits>;
TYPED_TEST_SUITE(CounterSharingTest, SketchTypes);

TYPED_TEST(CounterSharingTest, InsertsNeverLeakAcrossACopy) {
  for (size_t distinct : {size_t{10}, size_t{2000}}) {
    const auto first = Ops(distinct, 1);
    const auto second = Ops(distinct, 2);
    const std::string before = this->State(this->Fresh(first));
    const std::string after = this->State(this->Fresh(first, second));

    auto original = this->Fresh(first);
    auto copy = original;
    this->Feed(copy, second);
    EXPECT_EQ(this->State(original), before) << distinct;
    EXPECT_EQ(this->State(copy), after) << distinct;

    auto copy2 = original;
    this->Feed(original, second);
    EXPECT_EQ(this->State(copy2), before) << distinct;
    EXPECT_EQ(this->State(original), after) << distinct;
  }
}

TYPED_TEST(CounterSharingTest, MergesNeverLeakAcrossACopy) {
  for (size_t distinct : {size_t{10}, size_t{2000}}) {
    const auto first = Ops(distinct, 3);
    const auto second = Ops(distinct, 4);
    const auto other = this->Fresh(second);
    const std::string before = this->State(this->Fresh(first));
    // Reference: a sketch that was never copied merges in place.
    auto reference = this->Fresh(first);
    ASSERT_TRUE(reference.MergeFrom(other).ok());
    const std::string merged = this->State(reference);

    auto original = this->Fresh(first);
    auto copy = original;
    ASSERT_TRUE(copy.MergeFrom(other).ok());
    EXPECT_EQ(this->State(original), before) << distinct;
    EXPECT_EQ(this->State(copy), merged) << distinct;

    auto copy2 = original;
    ASSERT_TRUE(original.MergeFrom(other).ok());
    EXPECT_EQ(this->State(copy2), before) << distinct;
    EXPECT_EQ(this->State(original), merged) << distinct;

    // Merging into an empty sketch adopts the other side's cells (dense)
    // or replays its entries (sparse); later writes on either side stay on
    // that side.
    auto adopted = this->factory_.Create();
    ASSERT_TRUE(adopted.MergeFrom(copy2).ok());
    EXPECT_EQ(this->State(adopted), before) << distinct;
    this->Feed(adopted, second);
    EXPECT_EQ(this->State(copy2), before) << distinct;
    this->Feed(copy2, second);
    EXPECT_EQ(this->State(adopted), this->State(copy2)) << distinct;
    EXPECT_EQ(this->State(adopted), this->State(this->Fresh(first, second)))
        << distinct;
  }
}

TYPED_TEST(CounterSharingTest, DecodedSketchesCopyIndependently) {
  if constexpr (TypeParam::kHasWireFormat) {
    for (size_t distinct : {size_t{10}, size_t{2000}}) {
      const auto first = Ops(distinct, 5);
      const auto second = Ops(distinct, 6);
      const std::string before = this->State(this->Fresh(first));
      const std::string after = this->State(this->Fresh(first, second));

      auto decoded = DecodeState(this->factory_, before);
      auto copy = decoded;
      this->Feed(copy, second);
      EXPECT_EQ(this->State(decoded), before) << distinct;
      EXPECT_EQ(this->State(copy), after) << distinct;

      auto copy2 = decoded;
      this->Feed(decoded, second);
      EXPECT_EQ(this->State(copy2), before) << distinct;
      EXPECT_EQ(this->State(decoded), after) << distinct;
    }
  } else {
    GTEST_SKIP() << "no wire format";
  }
}

// ---- Summary-level sharing -------------------------------------------------

CorrelatedSketchOptions FrameworkOptions() {
  CorrelatedSketchOptions opts;
  opts.eps = 0.25;
  opts.delta = 0.1;
  opts.y_max = (uint64_t{1} << 14) - 1;
  opts.f_max_hint = 1e9;
  return opts;
}

CorrelatedF2Sketch MakeF2() { return MakeCorrelatedF2(FrameworkOptions(), 17); }

std::vector<Tuple> MakeStream(size_t n, uint64_t seed) {
  Xoshiro256 rng = TestRng(seed);
  std::vector<Tuple> stream;
  stream.reserve(n);
  for (size_t i = 0; i < n; ++i) {
    stream.push_back(Tuple{rng.NextBounded(50000),
                           rng.NextBounded(FrameworkOptions().y_max + 1)});
  }
  return stream;
}

template <typename S>
std::string Bytes(const S& s) {
  std::string out;
  EXPECT_TRUE(s.Serialize(&out).ok());
  return out;
}

// A fresh, unshared copy: decode allocates its own cells, so an oracle
// built from these cannot be affected by sharing.
std::shared_ptr<const CorrelatedF2Sketch> Unshared(
    const CorrelatedF2Sketch& s) {
  auto decoded = CorrelatedF2Sketch::Deserialize(io::BytesOf(Bytes(s)));
  EXPECT_TRUE(decoded.ok());
  return std::make_shared<const CorrelatedF2Sketch>(
      std::move(decoded).value());
}

TEST(SummaryCopyTest, CopyAfterLargeBatchIngestsLikeTheOriginal) {
  // The copy starts with empty batch staging; the original keeps buffers
  // sized by its last batch. Neither may change what further batches do.
  const auto big = MakeStream(200000, 31);
  CorrelatedF2Sketch original = MakeF2();
  original.InsertBatch(std::span<const Tuple>(big));
  CorrelatedF2Sketch copy = original;
  ASSERT_EQ(Bytes(copy), Bytes(original));
  for (uint64_t seed = 40; seed < 44; ++seed) {
    const auto more = MakeStream(size_t{1} << (10 + seed - 40), seed);
    original.InsertBatch(std::span<const Tuple>(more));
    copy.InsertBatch(std::span<const Tuple>(more));
    ASSERT_EQ(Bytes(copy), Bytes(original)) << seed;
  }
}

TEST(SummaryCopyTest, MergeTreeNodesSharingLeafCellsMatchTreeOrderFold) {
  // Three live shards; each round publishes copies of them (sharing cells
  // with the live summaries), merges through MergeCache (nodes share cells
  // with their leaves), then keeps ingesting into the live summaries. Every
  // root must match the tree-order fold of unshared decoded leaves, and an
  // earlier root must not change while later rounds write.
  constexpr size_t kShards = 3;
  std::vector<CorrelatedF2Sketch> live(kShards, MakeF2());
  MergeCache<CorrelatedF2Sketch> cache([] { return MakeF2(); });
  std::vector<std::shared_ptr<const CorrelatedF2Sketch>> snaps(kShards);
  std::vector<uint64_t> epochs(kShards, 0);
  std::shared_ptr<const CorrelatedF2Sketch> earlier_root;
  std::string earlier_bytes;
  for (uint64_t round = 0; round < 4; ++round) {
    for (size_t s = 0; s < kShards; ++s) {
      // Round 0 fills every shard; later rounds touch only some, so
      // unchanged leaves keep their memoized nodes.
      if (round > 0 && (round + s) % 2 == 0) continue;
      const auto part = MakeStream(6000, 100 * round + s);
      live[s].InsertBatch(std::span<const Tuple>(part));
      snaps[s] = std::make_shared<const CorrelatedF2Sketch>(live[s]);
      ++epochs[s];
    }
    auto root = cache.Merge(snaps, epochs);
    ASSERT_TRUE(root.ok());
    std::vector<std::shared_ptr<const CorrelatedF2Sketch>> oracle_leaves;
    for (const auto& snap : snaps) oracle_leaves.push_back(Unshared(*snap));
    const auto oracle = TreeOrderFold(oracle_leaves);
    ASSERT_EQ(Bytes(*root.value()), Bytes(*oracle)) << round;
    if (earlier_root != nullptr) {
      ASSERT_EQ(Bytes(*earlier_root), earlier_bytes) << round;
    }
    earlier_root = root.value();
    earlier_bytes = Bytes(*earlier_root);
  }
}

TEST(CounterSharingConcurrencyTest, SnapshotReadWhileOwnerWrites) {
  // The owner publishes a copy of its live summary and keeps inserting
  // while a reader takes the snapshot, serializes, queries and merges it,
  // then drops it. Each snapshot must read exactly as it did when
  // published. After the drop the owner's writes to buckets only the two of
  // them shared happen in place, and nothing but the reference count orders
  // the reader's reads before those writes: the owner learns of the drop
  // through a relaxed counter, which creates no happens-before edge.
  CorrelatedF2Sketch live = MakeF2();
  CorrelatedF2Sketch other = MakeF2();
  other.InsertBatch(std::span<const Tuple>(MakeStream(5000, 7)));
  struct Published {
    std::shared_ptr<const CorrelatedF2Sketch> snap;
    std::string bytes;
  };
  std::mutex mu;
  Published slot;  // guarded by mu
  std::atomic<bool> done{false};
  std::atomic<int> dropped{0};

  std::thread reader([&] {
    while (!done.load()) {
      Published p;
      {
        std::lock_guard<std::mutex> lock(mu);
        p = std::exchange(slot, Published{});
      }
      if (p.snap == nullptr) {
        std::this_thread::yield();
        continue;
      }
      {
        EXPECT_EQ(Bytes(*p.snap), p.bytes);
        CorrelatedF2Sketch merged = *p.snap;
        EXPECT_TRUE(merged.MergeFrom(other).ok());
        EXPECT_TRUE(merged.Query(FrameworkOptions().y_max).ok());
        CorrelatedF2Sketch adopted = MakeF2();
        EXPECT_TRUE(adopted.MergeFrom(*p.snap).ok());
        EXPECT_TRUE(adopted.Query(FrameworkOptions().y_max / 2).ok());
        p = Published{};  // the last reference to this snapshot's cells
      }
      dropped.fetch_add(1, std::memory_order_relaxed);
    }
  });
  const auto stream = MakeStream(60000, 9);
  constexpr size_t kBatch = 2000;
  constexpr size_t kOverlap = 64;  // inserted while the reader reads
  int published = 0;
  for (size_t pos = 0; pos + kBatch <= stream.size(); pos += kBatch) {
    live.InsertBatch(
        std::span<const Tuple>(stream.data() + pos, kBatch - kOverlap));
    Published p{std::make_shared<const CorrelatedF2Sketch>(live), ""};
    p.bytes = Bytes(*p.snap);
    {
      std::lock_guard<std::mutex> lock(mu);
      slot = std::move(p);
    }
    ++published;
    live.InsertBatch(std::span<const Tuple>(
        stream.data() + pos + kBatch - kOverlap, kOverlap));
    while (dropped.load(std::memory_order_relaxed) < published) {
      std::this_thread::yield();
    }
  }
  done.store(true);
  reader.join();
  EXPECT_EQ(dropped.load(), published);
  CorrelatedF2Sketch reference = MakeF2();
  reference.InsertBatch(std::span<const Tuple>(stream));
  EXPECT_EQ(Bytes(live), Bytes(reference));
}

TEST(CounterSharingConcurrencyTest, DriverSnapshotQueriesBesideIngest) {
  // The production path: the shard worker publishes copies that share cells
  // with its live summary while a query thread merges them.
  ShardedDriverOptions dopts;
  dopts.shards = 2;
  dopts.batch_size = 256;
  dopts.snapshot_interval_batches = 2;
  ShardedDriver<CorrelatedF2Sketch> driver(dopts, [] { return MakeF2(); });
  const auto stream = MakeStream(60000, 11);
  std::atomic<bool> done{false};
  std::thread reader([&] {
    const QueryOptions snapshot{.mode = QueryMode::kSnapshot};
    while (!done.load()) {
      auto merged = driver.Summarize(snapshot);
      ASSERT_TRUE(merged.ok());
      CorrelatedF2Sketch copy = *merged.value();
      ASSERT_TRUE(copy.MergeFrom(*merged.value()).ok());
      (void)copy.Query(FrameworkOptions().y_max);
    }
  });
  auto writer = driver.MakeWriter();
  for (const Tuple& t : stream) writer.Insert(t);
  writer.Flush();
  driver.WaitIdle();
  done.store(true);
  reader.join();

  // Everything published: the merged answer is the tree-order fold of the
  // shard summaries.
  auto merged = driver.Summarize();
  ASSERT_TRUE(merged.ok());
  std::vector<std::vector<Tuple>> parts(driver.shard_count());
  for (const Tuple& t : stream) parts[driver.ShardOf(t.x)].push_back(t);
  std::vector<std::shared_ptr<const CorrelatedF2Sketch>> leaves;
  for (const auto& part : parts) {
    CorrelatedF2Sketch s = MakeF2();
    s.InsertBatch(std::span<const Tuple>(part));
    leaves.push_back(Unshared(s));
  }
  EXPECT_EQ(Bytes(*merged.value()), Bytes(*TreeOrderFold(leaves)));
}

}  // namespace
}  // namespace castream
