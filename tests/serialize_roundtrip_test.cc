// The wire-format contract (ISSUE 4 acceptance): Deserialize(Serialize(s))
// answers every query bit-for-bit identically to s, for the f2/f0/rarity/hh durable
// summary types, including the never-split / virtual-root state, post-merge
// states, and empty summaries. A deserialized peer must also merge into a
// live summary through the ordinary value-based family checks, and continued
// ingest after a round trip must stay bit-for-bit equivalent (the format
// captures the full evolving state, not just a query snapshot).
#include <cstdint>
#include <span>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "src/core/correlated_f0.h"
#include "src/core/correlated_fk.h"
#include "src/core/correlated_heavy_hitters.h"
#include "src/io/decoder.h"
#include "src/stream/types.h"
#include "tests/test_util.h"

namespace castream {
namespace {

using test::SkewedStream;
using test::TestRng;

std::vector<uint64_t> CutoffLadder(uint64_t y_max, uint64_t seed) {
  std::vector<uint64_t> cutoffs{0, 1, y_max};
  for (uint64_t c = 2; c < y_max; c *= 2) cutoffs.push_back(c - 1);
  Xoshiro256 rng = TestRng(seed);
  for (int i = 0; i < 8; ++i) cutoffs.push_back(rng.NextBounded(y_max + 1));
  return cutoffs;
}

template <typename Summary>
void ExpectIdenticalScalarQueries(const Summary& expected,
                                  const Summary& actual, uint64_t y_max) {
  for (uint64_t c : CutoffLadder(y_max, 99)) {
    const Result<double> ra = expected.Query(c);
    const Result<double> rb = actual.Query(c);
    ASSERT_EQ(ra.ok(), rb.ok()) << "c=" << c;
    if (ra.ok()) {
      ASSERT_EQ(ra.value(), rb.value()) << "c=" << c;
    }
  }
}

template <typename Summary>
Summary RoundTrip(const Summary& s) {
  std::string blob;
  Status st = s.Serialize(&blob);
  EXPECT_TRUE(st.ok()) << st.ToString();
  Result<Summary> back = Summary::Deserialize(io::BytesOf(blob));
  EXPECT_TRUE(back.ok()) << back.status().ToString();
  // Determinism: re-serializing the decoded summary reproduces the bytes
  // (the format is a pure function of the summary state).
  std::string blob2;
  st = back.value().Serialize(&blob2);
  EXPECT_TRUE(st.ok()) << st.ToString();
  EXPECT_EQ(blob, blob2);
  return std::move(back).value();
}

CorrelatedSketchOptions FrameworkOptions() {
  CorrelatedSketchOptions opts;
  opts.eps = 0.25;
  opts.delta = 0.1;
  opts.y_max = (uint64_t{1} << 14) - 1;
  opts.f_max_hint = 1e9;
  opts.conditions = AggregateConditions::ForFk(2.0);
  return opts;
}

TEST(SerializeRoundtripTest, F2QueryIdenticalAfterRoundTrip) {
  const auto opts = FrameworkOptions();
  AmsF2SketchFactory factory(AmsDimsFor(opts.eps, 1e-4, 4), /*seed=*/42);
  CorrelatedF2Sketch sketch(opts, factory);
  const auto stream = SkewedStream(30000, 600, opts.y_max, 7);
  sketch.InsertBatch(stream);

  const CorrelatedF2Sketch back = RoundTrip(sketch);
  ASSERT_TRUE(back.ValidateInvariants().ok());
  EXPECT_EQ(sketch.tuples_inserted(), back.tuples_inserted());
  EXPECT_EQ(sketch.TotalStoredBuckets(), back.TotalStoredBuckets());
  EXPECT_EQ(sketch.VirtualRootLevels(), back.VirtualRootLevels());
  EXPECT_EQ(sketch.SizeBytes(), back.SizeBytes());
  ExpectIdenticalScalarQueries(sketch, back, opts.y_max);
}

TEST(SerializeRoundtripTest, F2VirtualRootAndNeverSplitStates) {
  const auto opts = FrameworkOptions();
  AmsF2SketchFactory factory(AmsDimsFor(opts.eps, 1e-4, 4), /*seed=*/43);

  // Empty summary: every level is still virtual.
  CorrelatedF2Sketch empty(opts, factory);
  ExpectIdenticalScalarQueries(empty, RoundTrip(empty), opts.y_max);

  // A handful of inserts: level 0 populated, the virtual suffix intact.
  CorrelatedF2Sketch small(opts, factory);
  for (uint64_t i = 0; i < 50; ++i) small.Insert(i % 7, (i * 37) % 1000);
  ASSERT_GT(small.VirtualRootLevels(), 0u);
  const CorrelatedF2Sketch back = RoundTrip(small);
  EXPECT_EQ(small.VirtualRootLevels(), back.VirtualRootLevels());
  ExpectIdenticalScalarQueries(small, back, opts.y_max);
}

TEST(SerializeRoundtripTest, F2ContinuedIngestAfterRoundTripIsIdentical) {
  const auto opts = FrameworkOptions();
  AmsF2SketchFactory factory(AmsDimsFor(opts.eps, 1e-4, 4), /*seed=*/44);
  CorrelatedF2Sketch original(opts, factory);
  const auto stream = SkewedStream(20000, 500, opts.y_max, 8);
  const size_t half = stream.size() / 2;
  original.InsertBatch(std::span<const Tuple>(stream.data(), half));

  CorrelatedF2Sketch resumed = RoundTrip(original);
  original.InsertBatch(
      std::span<const Tuple>(stream.data() + half, stream.size() - half));
  resumed.InsertBatch(
      std::span<const Tuple>(stream.data() + half, stream.size() - half));
  ASSERT_TRUE(resumed.ValidateInvariants().ok());
  EXPECT_EQ(original.TotalStoredBuckets(), resumed.TotalStoredBuckets());
  ExpectIdenticalScalarQueries(original, resumed, opts.y_max);
}

TEST(SerializeRoundtripTest, F2DeserializedPeerMergesLikeTheOriginal) {
  const auto opts = FrameworkOptions();
  AmsF2SketchFactory factory(AmsDimsFor(opts.eps, 1e-4, 4), /*seed=*/45);
  const auto stream_a = SkewedStream(15000, 500, opts.y_max, 9);
  const auto stream_b = SkewedStream(15000, 500, opts.y_max, 10);

  CorrelatedF2Sketch a(opts, factory);
  a.InsertBatch(stream_a);
  CorrelatedF2Sketch b(opts, factory);
  b.InsertBatch(stream_b);

  CorrelatedF2Sketch merged_direct(opts, factory);
  ASSERT_TRUE(merged_direct.MergeFrom(a).ok());
  ASSERT_TRUE(merged_direct.MergeFrom(b).ok());

  // Merge a *deserialized* peer instead of the live one.
  CorrelatedF2Sketch merged_via_wire(opts, factory);
  ASSERT_TRUE(merged_via_wire.MergeFrom(a).ok());
  const CorrelatedF2Sketch b_wire = RoundTrip(b);
  ASSERT_TRUE(merged_via_wire.MergeFrom(b_wire).ok());
  ExpectIdenticalScalarQueries(merged_direct, merged_via_wire, opts.y_max);

  // And the merged state itself round-trips.
  ExpectIdenticalScalarQueries(merged_direct, RoundTrip(merged_direct),
                               opts.y_max);
}

TEST(SerializeRoundtripTest, F2MismatchedFamilyStillFailsAfterWire) {
  const auto opts = FrameworkOptions();
  AmsF2SketchFactory factory_a(AmsDimsFor(opts.eps, 1e-4, 4), /*seed=*/46);
  AmsF2SketchFactory factory_b(AmsDimsFor(opts.eps, 1e-4, 4), /*seed=*/47);
  CorrelatedF2Sketch a(opts, factory_a);
  CorrelatedF2Sketch b(opts, factory_b);
  const CorrelatedF2Sketch b_wire = RoundTrip(b);
  Status st = a.MergeFrom(b_wire);
  EXPECT_EQ(st.code(), Status::Code::kPreconditionFailed);
}

TEST(SerializeRoundtripTest, F0QueryIdenticalAfterRoundTrip) {
  CorrelatedF0Options opts;
  opts.eps = 0.2;
  opts.delta = 0.2;
  opts.x_domain = 4095;
  const uint64_t y_max = (uint64_t{1} << 12) - 1;
  CorrelatedF0Sketch sketch(opts, /*seed=*/48);
  const auto stream = SkewedStream(20000, 3000, y_max, 11);
  sketch.InsertBatch(stream);

  const CorrelatedF0Sketch back = RoundTrip(sketch);
  EXPECT_EQ(sketch.StoredTuplesEquivalent(), back.StoredTuplesEquivalent());
  ExpectIdenticalScalarQueries(sketch, back, y_max);

  // Empty round trip.
  CorrelatedF0Sketch empty(opts, /*seed=*/49);
  ExpectIdenticalScalarQueries(empty, RoundTrip(empty), y_max);
}

TEST(SerializeRoundtripTest, F0DeserializedPeerMergesLikeTheOriginal) {
  CorrelatedF0Options opts;
  opts.eps = 0.25;
  opts.delta = 0.25;
  opts.x_domain = 2047;
  const uint64_t y_max = (uint64_t{1} << 11) - 1;
  const auto stream_a = SkewedStream(8000, 1500, y_max, 12);
  const auto stream_b = SkewedStream(8000, 1500, y_max, 13);

  CorrelatedF0Sketch a(opts, /*seed=*/50);
  a.InsertBatch(stream_a);
  CorrelatedF0Sketch b(opts, /*seed=*/50);
  b.InsertBatch(stream_b);

  CorrelatedF0Sketch merged_direct(opts, /*seed=*/50);
  ASSERT_TRUE(merged_direct.MergeFrom(a).ok());
  ASSERT_TRUE(merged_direct.MergeFrom(b).ok());

  CorrelatedF0Sketch merged_via_wire(opts, /*seed=*/50);
  ASSERT_TRUE(merged_via_wire.MergeFrom(a).ok());
  const CorrelatedF0Sketch b_wire = RoundTrip(b);
  ASSERT_TRUE(merged_via_wire.MergeFrom(b_wire).ok());
  ExpectIdenticalScalarQueries(merged_direct, merged_via_wire, y_max);

  // Different seeds must still be rejected after a round trip.
  CorrelatedF0Sketch other_seed(opts, /*seed=*/51);
  Status st = other_seed.MergeFrom(b_wire);
  EXPECT_EQ(st.code(), Status::Code::kPreconditionFailed);
}

TEST(SerializeRoundtripTest, RarityQueryIdenticalAfterRoundTrip) {
  CorrelatedF0Options opts;
  opts.eps = 0.25;
  opts.delta = 0.25;
  opts.x_domain = 2047;
  const uint64_t y_max = (uint64_t{1} << 11) - 1;
  CorrelatedRaritySketch sketch(opts, /*seed=*/52);
  const auto stream = SkewedStream(12000, 1500, y_max, 14);
  sketch.InsertBatch(stream);

  const CorrelatedRaritySketch back = RoundTrip(sketch);
  ExpectIdenticalScalarQueries(sketch, back, y_max);
  for (uint64_t c : CutoffLadder(y_max, 103)) {
    const auto da = sketch.QueryDistinct(c);
    const auto db = back.QueryDistinct(c);
    ASSERT_EQ(da.ok(), db.ok()) << "c=" << c;
    if (da.ok()) {
      ASSERT_EQ(da.value(), db.value()) << "c=" << c;
    }
  }
}

TEST(SerializeRoundtripTest, HeavyHittersQueryIdenticalAfterRoundTrip) {
  auto opts = FrameworkOptions();
  opts.f_max_hint = 1e8;
  CorrelatedF2HeavyHitters sketch(opts, 0.05, /*seed=*/53);
  const auto stream = SkewedStream(20000, 500, opts.y_max, 15);
  sketch.InsertBatch(stream);

  const CorrelatedF2HeavyHitters back = RoundTrip(sketch);
  ASSERT_TRUE(back.ValidateInvariants().ok());
  EXPECT_EQ(sketch.SizeBytes(), back.SizeBytes());
  for (uint64_t c : CutoffLadder(opts.y_max, 104)) {
    const auto fa = sketch.QueryF2(c);
    const auto fb = back.QueryF2(c);
    ASSERT_EQ(fa.ok(), fb.ok()) << "c=" << c;
    if (fa.ok()) {
      ASSERT_EQ(fa.value(), fb.value()) << "c=" << c;
    }
    const auto ha = sketch.Query(c, 0.1);
    const auto hb = back.Query(c, 0.1);
    ASSERT_EQ(ha.ok(), hb.ok()) << "c=" << c;
    if (!ha.ok()) continue;
    ASSERT_EQ(ha.value().size(), hb.value().size()) << "c=" << c;
    for (size_t i = 0; i < ha.value().size(); ++i) {
      ASSERT_EQ(ha.value()[i].item, hb.value()[i].item) << "c=" << c;
      ASSERT_EQ(ha.value()[i].estimated_frequency,
                hb.value()[i].estimated_frequency);
      ASSERT_EQ(ha.value()[i].estimated_f2_share,
                hb.value()[i].estimated_f2_share);
    }
  }
}

TEST(SerializeRoundtripTest, HeavyHittersDeserializedPeerMerges) {
  auto opts = FrameworkOptions();
  opts.f_max_hint = 1e8;
  const auto stream_a = SkewedStream(10000, 500, opts.y_max, 16);
  const auto stream_b = SkewedStream(10000, 500, opts.y_max, 17);
  CorrelatedF2HeavyHitters a(opts, 0.05, /*seed=*/54);
  a.InsertBatch(stream_a);
  CorrelatedF2HeavyHitters b(opts, 0.05, /*seed=*/54);
  b.InsertBatch(stream_b);

  CorrelatedF2HeavyHitters merged_direct(opts, 0.05, /*seed=*/54);
  ASSERT_TRUE(merged_direct.MergeFrom(a).ok());
  ASSERT_TRUE(merged_direct.MergeFrom(b).ok());

  CorrelatedF2HeavyHitters merged_via_wire(opts, 0.05, /*seed=*/54);
  ASSERT_TRUE(merged_via_wire.MergeFrom(a).ok());
  const CorrelatedF2HeavyHitters b_wire = RoundTrip(b);
  ASSERT_TRUE(merged_via_wire.MergeFrom(b_wire).ok());
  for (uint64_t c : CutoffLadder(opts.y_max, 105)) {
    const auto fa = merged_direct.QueryF2(c);
    const auto fb = merged_via_wire.QueryF2(c);
    ASSERT_EQ(fa.ok(), fb.ok()) << "c=" << c;
    if (fa.ok()) {
      ASSERT_EQ(fa.value(), fb.value()) << "c=" << c;
    }
  }
}

TEST(SerializeRoundtripTest, WrongKindIsPreconditionFailed) {
  const auto opts = FrameworkOptions();
  AmsF2SketchFactory factory(AmsDimsFor(opts.eps, 1e-4, 4), /*seed=*/55);
  CorrelatedF2Sketch sketch(opts, factory);
  std::string blob;
  ASSERT_TRUE(sketch.Serialize(&blob).ok());
  auto as_f0 = CorrelatedF0Sketch::Deserialize(io::BytesOf(blob));
  ASSERT_FALSE(as_f0.ok());
  EXPECT_EQ(as_f0.status().code(), Status::Code::kPreconditionFailed);
}

}  // namespace
}  // namespace castream
