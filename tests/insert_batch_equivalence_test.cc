// InsertBatch is documented as *exactly* equivalent to one-at-a-time
// insertion in batch order — not "approximately as accurate": the batched
// path pre-hashes and routes level-major, but must reproduce every split,
// close, and discard decision bit-for-bit. These tests feed one permuted
// stream to a sequential summary and to a batched twin (uneven batch sizes,
// including empty and singleton batches) and require identical structure
// (byte-identical serialized state for the f2 and hh summaries) and
// identical query answers across a cutoff ladder, for every summary type.
#include <cstdint>
#include <span>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "src/core/correlated_f0.h"
#include "src/core/correlated_fk.h"
#include "src/core/correlated_heavy_hitters.h"
#include "src/stream/generators.h"
#include "src/stream/types.h"
#include "tests/test_util.h"

namespace castream {
namespace {

using test::TestRng;

std::vector<Tuple> MakeStream(size_t n, uint64_t x_domain, uint64_t y_max,
                              uint64_t seed) {
  Xoshiro256 rng = TestRng(seed);
  std::vector<Tuple> stream;
  stream.reserve(n);
  for (size_t i = 0; i < n; ++i) {
    // Skew x so heavy hitters exist; y uniform so every level sees traffic.
    const uint64_t x = (rng.NextBounded(4) == 0)
                           ? rng.NextBounded(8)
                           : 100 + rng.NextBounded(x_domain);
    stream.push_back(Tuple{x, rng.NextBounded(y_max + 1)});
  }
  // Deterministic Fisher-Yates permutation.
  for (size_t i = stream.size(); i > 1; --i) {
    std::swap(stream[i - 1], stream[rng.NextBounded(i)]);
  }
  return stream;
}

// Zipf(1.1)-ordered, duplicate-heavy stream: x drawn Zipfian so a handful
// of identifiers dominate, y quantized to `y_card` distinct values so whole
// (x, y) pairs repeat, plus occasional bursts of back-to-back identical
// tuples. This is the trace shape the columnar router's per-level threshold
// gates see in production, and the worst case for any batching bug that
// depends on rows being distinct.
std::vector<Tuple> MakeZipfStream(size_t n, uint64_t x_domain, uint64_t y_max,
                                  uint64_t y_card, uint64_t seed) {
  Xoshiro256 rng = TestRng(seed);
  ZipfDistribution zipf(x_domain, 1.1);
  const uint64_t y_step = y_max / (y_card - 1);
  std::vector<Tuple> stream;
  stream.reserve(n);
  while (stream.size() < n) {
    const Tuple t{zipf.Sample(rng),
                  std::min(rng.NextBounded(y_card) * y_step, y_max)};
    // 1-in-4 tuples arrive as a burst of identical copies.
    const size_t burst = rng.NextBounded(4) == 0 ? 1 + rng.NextBounded(6) : 1;
    for (size_t b = 0; b < burst && stream.size() < n; ++b) {
      stream.push_back(t);
    }
  }
  return stream;
}

// Weighted turnstile-ish stream on the same duplicate-heavy shape; weights
// in {0..5} (zero-weight rows are documented no-ops on every weighted path
// and must stay no-ops under batching).
std::vector<WeightedTuple> MakeWeightedStream(size_t n, uint64_t x_domain,
                                              uint64_t y_max, uint64_t y_card,
                                              uint64_t seed) {
  Xoshiro256 rng = TestRng(seed);
  const auto base = MakeZipfStream(n, x_domain, y_max, y_card, seed + 1);
  std::vector<WeightedTuple> stream;
  stream.reserve(n);
  for (const Tuple& t : base) {
    stream.push_back(
        WeightedTuple{t.x, t.y, static_cast<int64_t>(rng.NextBounded(6))});
  }
  return stream;
}

// Feeds the stream through InsertBatch with deliberately uneven batch sizes
// (empty batches included) to exercise every chunk boundary. Works for both
// Tuple and WeightedTuple streams.
template <typename S, typename T>
void FeedBatched(S& sketch, const std::vector<T>& stream) {
  static constexpr size_t kSizes[] = {1, 3, 0, 64, 257, 8, 1024, 5};
  size_t pos = 0;
  size_t turn = 0;
  while (pos < stream.size()) {
    const size_t want = kSizes[turn++ % std::size(kSizes)];
    const size_t take = std::min(want, stream.size() - pos);
    sketch.InsertBatch(std::span<const T>(stream.data() + pos, take));
    pos += take;
  }
}

std::vector<uint64_t> CutoffLadder(uint64_t y_max, uint64_t seed) {
  std::vector<uint64_t> cutoffs{0, 1, y_max};
  for (uint64_t c = 2; c < y_max; c *= 2) cutoffs.push_back(c - 1);
  Xoshiro256 rng = TestRng(seed);
  for (int i = 0; i < 8; ++i) cutoffs.push_back(rng.NextBounded(y_max + 1));
  return cutoffs;
}

template <typename S>
void ExpectIdenticalScalarQueries(const S& sequential, const S& batched,
                                  uint64_t y_max) {
  for (uint64_t c : CutoffLadder(y_max, 77)) {
    const Result<double> ra = sequential.Query(c);
    const Result<double> rb = batched.Query(c);
    ASSERT_EQ(ra.ok(), rb.ok()) << "c=" << c;
    if (ra.ok()) {
      ASSERT_EQ(ra.value(), rb.value()) << "c=" << c;
    }
  }
}

// Serialized-bytes equality for the kinds with a wire format: pins every
// bucket cell, check counter, close flag and free-list slot, not just the
// thresholds, bucket counts and answers compared elsewhere.
template <typename S>
void ExpectIdenticalBytes(const S& sequential, const S& batched) {
  std::string a;
  std::string b;
  ASSERT_TRUE(sequential.Serialize(&a).ok());
  ASSERT_TRUE(batched.Serialize(&b).ok());
  ASSERT_EQ(a.size(), b.size());
  ASSERT_TRUE(a == b) << "serialized summaries differ";
}

template <typename S>
void ExpectIdenticalStructure(const S& sequential, const S& batched) {
  if constexpr (requires(std::string* out) { sequential.Serialize(out); }) {
    ExpectIdenticalBytes(sequential, batched);
  }
  ASSERT_EQ(sequential.tuples_inserted(), batched.tuples_inserted());
  ASSERT_TRUE(sequential.ValidateInvariants().ok());
  ASSERT_TRUE(batched.ValidateInvariants().ok());
  for (uint32_t l = 0; l <= sequential.max_level(); ++l) {
    ASSERT_EQ(sequential.LevelThreshold(l), batched.LevelThreshold(l))
        << "level " << l;
    ASSERT_EQ(sequential.StoredBuckets(l), batched.StoredBuckets(l))
        << "level " << l;
  }
  ASSERT_EQ(sequential.StoredTuplesEquivalent(),
            batched.StoredTuplesEquivalent());
}

CorrelatedSketchOptions FrameworkOptions() {
  CorrelatedSketchOptions opts;
  opts.eps = 0.25;
  opts.delta = 0.1;
  opts.y_max = (uint64_t{1} << 14) - 1;
  opts.f_max_hint = 1e9;
  return opts;
}

TEST(InsertBatchEquivalenceTest, CorrelatedF2AmsSketch) {
  const auto opts = FrameworkOptions();
  auto sequential = MakeCorrelatedF2(opts, 42);
  auto batched = MakeCorrelatedF2(opts, 42);
  const auto stream = MakeStream(30000, 600, opts.y_max, 7);
  for (const Tuple& t : stream) sequential.Insert(t.x, t.y);
  FeedBatched(batched, stream);
  ExpectIdenticalStructure(sequential, batched);
  ExpectIdenticalScalarQueries(sequential, batched, opts.y_max);
}

TEST(InsertBatchEquivalenceTest, CorrelatedExactSketch) {
  // The exact-bucket framework has no Prehash, covering the plain-item
  // instantiation of the batched routing.
  auto opts = FrameworkOptions();
  opts.f_max_hint = 1e7;
  auto sequential = MakeCorrelatedExact(opts, AggregateKind::kF2);
  auto batched = MakeCorrelatedExact(opts, AggregateKind::kF2);
  const auto stream = MakeStream(20000, 400, opts.y_max, 8);
  for (const Tuple& t : stream) sequential.Insert(t.x, t.y);
  FeedBatched(batched, stream);
  ExpectIdenticalStructure(sequential, batched);
  ExpectIdenticalScalarQueries(sequential, batched, opts.y_max);
}

TEST(InsertBatchEquivalenceTest, CorrelatedFkSketch) {
  // Fk forces est_check_interval >= 8, covering the deferred-check counter
  // (and its split-path pre-charge) under batching.
  auto opts = FrameworkOptions();
  opts.f_max_hint = 1e7;
  FkSketchOptions fk;
  fk.levels = 8;
  fk.width = 64;
  fk.depth = 2;
  fk.candidates = 16;
  fk.kmv_k = 16;
  auto sequential = MakeCorrelatedFk(opts, 3.0, 43, fk);
  auto batched = MakeCorrelatedFk(opts, 3.0, 43, fk);
  const auto stream = MakeStream(6000, 300, opts.y_max, 9);
  for (const Tuple& t : stream) sequential.Insert(t.x, t.y);
  FeedBatched(batched, stream);
  ExpectIdenticalStructure(sequential, batched);
  ExpectIdenticalScalarQueries(sequential, batched, opts.y_max);
}

TEST(InsertBatchEquivalenceTest, CorrelatedF0Sketch) {
  CorrelatedF0Options opts;
  opts.eps = 0.2;
  opts.delta = 0.2;
  opts.x_domain = 4095;
  CorrelatedF0Sketch sequential(opts, 44);
  CorrelatedF0Sketch batched(opts, 44);
  const uint64_t y_max = (uint64_t{1} << 12) - 1;
  const auto stream = MakeStream(20000, 3000, y_max, 10);
  for (const Tuple& t : stream) sequential.Insert(t.x, t.y);
  FeedBatched(batched, stream);
  ASSERT_EQ(sequential.StoredTuplesEquivalent(),
            batched.StoredTuplesEquivalent());
  ExpectIdenticalScalarQueries(sequential, batched, y_max);
}

TEST(InsertBatchEquivalenceTest, CorrelatedRaritySketch) {
  CorrelatedF0Options opts;
  opts.eps = 0.25;
  opts.delta = 0.25;
  opts.x_domain = 2047;
  CorrelatedRaritySketch sequential(opts, 45);
  CorrelatedRaritySketch batched(opts, 45);
  const uint64_t y_max = (uint64_t{1} << 11) - 1;
  const auto stream = MakeStream(12000, 1500, y_max, 11);
  for (const Tuple& t : stream) sequential.Insert(t.x, t.y);
  FeedBatched(batched, stream);
  ExpectIdenticalScalarQueries(sequential, batched, y_max);
}

void ExpectIdenticalHeavyHitterQueries(const CorrelatedF2HeavyHitters& a,
                                       const CorrelatedF2HeavyHitters& b,
                                       uint64_t y_max, uint64_t ladder_seed) {
  ExpectIdenticalBytes(a, b);
  ASSERT_TRUE(a.ValidateInvariants().ok());
  ASSERT_TRUE(b.ValidateInvariants().ok());
  for (uint64_t c : CutoffLadder(y_max, ladder_seed)) {
    const Result<double> fa = a.QueryF2(c);
    const Result<double> fb = b.QueryF2(c);
    ASSERT_EQ(fa.ok(), fb.ok()) << "c=" << c;
    if (fa.ok()) {
      ASSERT_EQ(fa.value(), fb.value()) << "c=" << c;
    }

    const auto ha = a.Query(c, 0.1);
    const auto hb = b.Query(c, 0.1);
    ASSERT_EQ(ha.ok(), hb.ok()) << "c=" << c;
    if (!ha.ok()) continue;
    const auto& va = ha.value();
    const auto& vb = hb.value();
    ASSERT_EQ(va.size(), vb.size()) << "c=" << c;
    for (size_t i = 0; i < va.size(); ++i) {
      ASSERT_EQ(va[i].item, vb[i].item) << "c=" << c;
      ASSERT_EQ(va[i].estimated_frequency, vb[i].estimated_frequency);
      ASSERT_EQ(va[i].estimated_f2_share, vb[i].estimated_f2_share);
    }
  }
}

TEST(InsertBatchEquivalenceTest, CorrelatedF2HeavyHitters) {
  auto opts = FrameworkOptions();
  opts.f_max_hint = 1e8;
  CorrelatedF2HeavyHitters sequential(opts, 0.05, 46);
  CorrelatedF2HeavyHitters batched(opts, 0.05, 46);
  const auto stream = MakeStream(20000, 500, opts.y_max, 12);
  for (const Tuple& t : stream) sequential.Insert(t.x, t.y);
  FeedBatched(batched, stream);
  ExpectIdenticalHeavyHitterQueries(sequential, batched, opts.y_max, 78);
}

// ---------------------------------------------------------------------------
// Zipf(1.1)-ordered, duplicate-heavy streams. Repeated (x, y) pairs keep the
// same rows landing in the same buckets, which is exactly where the columnar
// router's per-level threshold gates could diverge from sequential order if
// the skip or the per-row re-check were approximate.
// ---------------------------------------------------------------------------

TEST(InsertBatchEquivalenceTest, ZipfDuplicateHeavyF2AmsSketch) {
  const auto opts = FrameworkOptions();
  auto sequential = MakeCorrelatedF2(opts, 52);
  auto batched = MakeCorrelatedF2(opts, 52);
  const auto stream = MakeZipfStream(30000, 2000, opts.y_max, 16, 21);
  for (const Tuple& t : stream) sequential.Insert(t.x, t.y);
  FeedBatched(batched, stream);
  ExpectIdenticalStructure(sequential, batched);
  ExpectIdenticalScalarQueries(sequential, batched, opts.y_max);
}

TEST(InsertBatchEquivalenceTest, ZipfDuplicateHeavyF0Sketch) {
  CorrelatedF0Options opts;
  opts.eps = 0.2;
  opts.delta = 0.2;
  opts.x_domain = 4095;
  CorrelatedF0Sketch sequential(opts, 53);
  CorrelatedF0Sketch batched(opts, 53);
  const uint64_t y_max = (uint64_t{1} << 12) - 1;
  const auto stream = MakeZipfStream(20000, 3000, y_max, 16, 22);
  for (const Tuple& t : stream) sequential.Insert(t.x, t.y);
  FeedBatched(batched, stream);
  ASSERT_EQ(sequential.StoredTuplesEquivalent(),
            batched.StoredTuplesEquivalent());
  ExpectIdenticalScalarQueries(sequential, batched, y_max);
}

TEST(InsertBatchEquivalenceTest, ZipfDuplicateHeavyRaritySketch) {
  CorrelatedF0Options opts;
  opts.eps = 0.25;
  opts.delta = 0.25;
  opts.x_domain = 2047;
  CorrelatedRaritySketch sequential(opts, 54);
  CorrelatedRaritySketch batched(opts, 54);
  const uint64_t y_max = (uint64_t{1} << 11) - 1;
  const auto stream = MakeZipfStream(12000, 1500, y_max, 16, 23);
  for (const Tuple& t : stream) sequential.Insert(t.x, t.y);
  FeedBatched(batched, stream);
  ExpectIdenticalScalarQueries(sequential, batched, y_max);
}

TEST(InsertBatchEquivalenceTest, ZipfDuplicateHeavyF2HeavyHitters) {
  auto opts = FrameworkOptions();
  opts.f_max_hint = 1e8;
  CorrelatedF2HeavyHitters sequential(opts, 0.05, 55);
  CorrelatedF2HeavyHitters batched(opts, 0.05, 55);
  const auto stream = MakeZipfStream(20000, 1000, opts.y_max, 16, 24);
  for (const Tuple& t : stream) sequential.Insert(t.x, t.y);
  FeedBatched(batched, stream);
  ExpectIdenticalHeavyHitterQueries(sequential, batched, opts.y_max, 79);
}

// ---------------------------------------------------------------------------
// Weighted batches, as emitted by the hot-key coalescing front end: the
// weighted columnar InsertBatch must match sequential weighted Insert calls
// in batch order, bit-for-bit. For the sampling kinds (F0 / rarity) a
// weight is a multiplicity — sequential baseline Insert(x, y, count) — and
// zero-weight rows are no-ops on both paths.
// ---------------------------------------------------------------------------

TEST(InsertBatchEquivalenceTest, WeightedBatchesF2AmsSketch) {
  const auto opts = FrameworkOptions();
  auto sequential = MakeCorrelatedF2(opts, 56);
  auto batched = MakeCorrelatedF2(opts, 56);
  const auto stream = MakeWeightedStream(30000, 2000, opts.y_max, 16, 25);
  for (const WeightedTuple& t : stream) sequential.Insert(t.x, t.y, t.weight);
  FeedBatched(batched, stream);
  ExpectIdenticalStructure(sequential, batched);
  ExpectIdenticalScalarQueries(sequential, batched, opts.y_max);
}

TEST(InsertBatchEquivalenceTest, WeightedBatchesF0Sketch) {
  CorrelatedF0Options opts;
  opts.eps = 0.2;
  opts.delta = 0.2;
  opts.x_domain = 4095;
  CorrelatedF0Sketch sequential(opts, 57);
  CorrelatedF0Sketch batched(opts, 57);
  const uint64_t y_max = (uint64_t{1} << 12) - 1;
  const auto stream = MakeWeightedStream(20000, 3000, y_max, 16, 26);
  for (const WeightedTuple& t : stream) {
    sequential.Insert(t.x, t.y, static_cast<uint64_t>(t.weight));
  }
  FeedBatched(batched, stream);
  ASSERT_EQ(sequential.StoredTuplesEquivalent(),
            batched.StoredTuplesEquivalent());
  ExpectIdenticalScalarQueries(sequential, batched, y_max);
}

TEST(InsertBatchEquivalenceTest, WeightedBatchesRaritySketch) {
  CorrelatedF0Options opts;
  opts.eps = 0.25;
  opts.delta = 0.25;
  opts.x_domain = 2047;
  CorrelatedRaritySketch sequential(opts, 58);
  CorrelatedRaritySketch batched(opts, 58);
  const uint64_t y_max = (uint64_t{1} << 11) - 1;
  const auto stream = MakeWeightedStream(12000, 1500, y_max, 16, 27);
  for (const WeightedTuple& t : stream) {
    sequential.Insert(t.x, t.y, static_cast<uint64_t>(t.weight));
  }
  FeedBatched(batched, stream);
  ExpectIdenticalScalarQueries(sequential, batched, y_max);
}

TEST(InsertBatchEquivalenceTest, WeightedBatchesF2HeavyHitters) {
  auto opts = FrameworkOptions();
  opts.f_max_hint = 1e8;
  CorrelatedF2HeavyHitters sequential(opts, 0.05, 59);
  CorrelatedF2HeavyHitters batched(opts, 0.05, 59);
  const auto stream = MakeWeightedStream(20000, 1000, opts.y_max, 16, 28);
  for (const WeightedTuple& t : stream) sequential.Insert(t.x, t.y, t.weight);
  FeedBatched(batched, stream);
  ExpectIdenticalHeavyHitterQueries(sequential, batched, opts.y_max, 80);
}

TEST(InsertBatchEquivalenceTest, WeightedMultiplicityEqualsRepeatedInserts) {
  // The F0 contract behind coalescing: Insert(x, y, k) must land exactly
  // like k adjacent unit inserts of (x, y), including the second-smallest-y
  // tracking the rarity sketch reads.
  CorrelatedF0Options opts;
  opts.eps = 0.2;
  opts.delta = 0.2;
  opts.x_domain = 4095;
  CorrelatedRaritySketch repeated(opts, 60);
  CorrelatedRaritySketch weighted(opts, 60);
  const uint64_t y_max = (uint64_t{1} << 12) - 1;
  Xoshiro256 rng = TestRng(29);
  for (size_t i = 0; i < 4000; ++i) {
    const uint64_t x = rng.NextBounded(3000);
    const uint64_t y = rng.NextBounded(y_max + 1);
    const uint64_t k = 1 + rng.NextBounded(5);
    for (uint64_t r = 0; r < k; ++r) repeated.Insert(x, y);
    weighted.Insert(x, y, k);
  }
  ExpectIdenticalScalarQueries(repeated, weighted, y_max);
}

TEST(InsertBatchEquivalenceTest, EmptyAndInitializerListBatches) {
  auto opts = FrameworkOptions();
  auto sketch = MakeCorrelatedF2(opts, 47);
  sketch.InsertBatch({});
  sketch.InsertBatch({Tuple{3, 5}, Tuple{3, 5}, Tuple{9, 2}});
  EXPECT_EQ(sketch.tuples_inserted(), 3u);
  auto r = sketch.Query(opts.y_max);
  ASSERT_TRUE(r.ok());
  EXPECT_DOUBLE_EQ(r.value(), 5.0);  // frequencies {3: 2, 9: 1} -> 4 + 1
}

}  // namespace
}  // namespace castream
