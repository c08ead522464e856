// The type-erased Unified Summary API: AnySummary must behave exactly like
// the concrete summary it wraps (it holds one, so answers are bit-for-bit),
// the SummaryRegistry must build and deserialize every kind by tag or name,
// and ShardedDriver<AnySummary> must work unchanged — including serializing
// per-shard blobs whose deserialized merge equals the driver's own merge.
#include <cstdint>
#include <span>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "src/core/any_summary.h"
#include "src/driver/sharded_driver.h"
#include "src/io/decoder.h"
#include "src/stream/types.h"
#include "tests/test_util.h"

namespace castream {
namespace {

using test::UniformStream;

SummaryOptions SmallOptions() {
  SummaryOptions opts;
  opts.eps = 0.25;
  opts.delta = 0.2;
  opts.y_max = (uint64_t{1} << 12) - 1;
  opts.f_max_hint = 1e8;
  opts.x_domain = 4095;
  return opts;
}

const char* const kKindNames[] = {"f2", "f0", "rarity", "hh", "chh_mg",
                                  "chh_fast"};

// Answer-level equality over a cutoff ladder: the scalar queries, plus the
// hitter lists over a phi ladder for the kinds that answer them (hh,
// chh_mg, chh_fast; the others must fail the same way on both sides).
void ExpectSameAnswers(const AnySummary& a, const AnySummary& b,
                       uint64_t y_max, const std::string& what) {
  for (uint64_t c : {uint64_t{0}, uint64_t{100}, y_max / 2, y_max}) {
    const auto qa = a.Query(c);
    const auto qb = b.Query(c);
    ASSERT_EQ(qa.ok(), qb.ok()) << what << " c=" << c;
    if (qa.ok()) {
      EXPECT_EQ(qa.value(), qb.value()) << what << " c=" << c;
    }
    for (double phi : {0.01, 0.1}) {
      const auto ha = a.QueryHeavyHitters(c, phi);
      const auto hb = b.QueryHeavyHitters(c, phi);
      ASSERT_EQ(ha.ok(), hb.ok()) << what << " c=" << c;
      if (!ha.ok()) continue;
      ASSERT_EQ(ha.value().size(), hb.value().size())
          << what << " c=" << c << " phi=" << phi;
      for (size_t i = 0; i < ha.value().size(); ++i) {
        EXPECT_EQ(ha.value()[i].item, hb.value()[i].item) << what;
        EXPECT_EQ(ha.value()[i].estimated_frequency,
                  hb.value()[i].estimated_frequency) << what;
        EXPECT_EQ(ha.value()[i].estimated_f2_share,
                  hb.value()[i].estimated_f2_share) << what;
      }
    }
  }
}

TEST(AnySummaryTest, RegistryCoversEveryKindByTagAndName) {
  EXPECT_EQ(SummaryRegistry::Entries().size(), 6u);
  for (const char* name : kKindNames) {
    const auto* by_name = SummaryRegistry::FindByName(name);
    ASSERT_NE(by_name, nullptr) << name;
    EXPECT_EQ(SummaryRegistry::Find(by_name->kind), by_name);
    EXPECT_EQ(SummaryKindName(by_name->kind), name);
    auto parsed = SummaryKindFromName(name);
    ASSERT_TRUE(parsed.ok());
    EXPECT_EQ(parsed.value(), by_name->kind);
  }
  EXPECT_EQ(SummaryRegistry::FindByName("nope"), nullptr);
  EXPECT_FALSE(SummaryKindFromName("nope").ok());
  EXPECT_FALSE(MakeSummary("nope", SummaryOptions{}, 1).ok());
}

TEST(AnySummaryTest, EveryKindIngestsQueriesRoundTripsAndMergesWithEmpty) {
  const auto opts = SmallOptions();
  const auto stream = UniformStream(8000, opts.x_domain + 1, opts.y_max, 21);
  for (const char* name : kKindNames) {
    auto made = MakeSummary(name, opts, /*seed=*/77);
    ASSERT_TRUE(made.ok()) << name;
    AnySummary summary = std::move(made).value();
    ASSERT_TRUE(summary.has_value());
    EXPECT_EQ(SummaryKindName(summary.kind()), name);
    summary.InsertBatch(stream);
    summary.Insert(stream[0]);
    EXPECT_GT(summary.SizeBytes(), 0u);

    std::string blob;
    ASSERT_TRUE(summary.Serialize(&blob).ok()) << name;
    auto back = AnySummary::Deserialize(io::BytesOf(blob));
    ASSERT_TRUE(back.ok()) << name << ": " << back.status().ToString();
    EXPECT_EQ(back.value().kind(), summary.kind());
    ExpectSameAnswers(summary, back.value(), opts.y_max,
                      std::string(name) + " round trip");

    // Merging an empty summary, in either direction, changes no answer.
    // This identity is what lets the merge tree alias a never-published
    // slot instead of merging a fresh summary in its place. It is
    // answer-level, not byte-level: f2 merged into a fresh summary may
    // keep fewer buckets.
    AnySummary x_then_empty = summary.Clone();
    ASSERT_TRUE(
        x_then_empty.MergeFrom(MakeSummary(name, opts, 77).value()).ok())
        << name;
    ExpectSameAnswers(summary, x_then_empty, opts.y_max,
                      std::string(name) + " x.MergeFrom(empty)");
    AnySummary empty_then_x = MakeSummary(name, opts, 77).value();
    ASSERT_TRUE(empty_then_x.MergeFrom(summary).ok()) << name;
    ExpectSameAnswers(summary, empty_then_x, opts.y_max,
                      std::string(name) + " empty.MergeFrom(x)");
  }
}

TEST(AnySummaryTest, WrapsAreBitForBitTheConcreteSummary) {
  const auto opts = SmallOptions();
  const auto stream = UniformStream(6000, opts.x_domain + 1, opts.y_max, 22);

  // Same construction path (MakeSummary uses MakeCorrelatedF2 under the
  // hood), same seed, same stream: answers must be identical, not close.
  CorrelatedSketchOptions fopts;
  fopts.eps = opts.eps;
  fopts.delta = opts.delta;
  fopts.y_max = opts.y_max;
  fopts.f_max_hint = opts.f_max_hint;
  CorrelatedF2Sketch concrete = MakeCorrelatedF2(fopts, /*seed=*/33);
  concrete.InsertBatch(stream);

  auto made = MakeSummary(SummaryKind::kCorrelatedF2, opts, /*seed=*/33);
  ASSERT_TRUE(made.ok());
  AnySummary erased = std::move(made).value();
  erased.InsertBatch(stream);

  ASSERT_NE(erased.TryAs<CorrelatedF2Sketch>(), nullptr);
  EXPECT_EQ(erased.TryAs<CorrelatedF0Sketch>(), nullptr);
  for (uint64_t c : {uint64_t{0}, uint64_t{512}, opts.y_max}) {
    const auto qa = concrete.Query(c);
    const auto qb = erased.Query(c);
    ASSERT_EQ(qa.ok(), qb.ok()) << "c=" << c;
    if (qa.ok()) {
      EXPECT_EQ(qa.value(), qb.value()) << "c=" << c;
    }
  }
}

TEST(AnySummaryTest, HeavyHitterQueriesDispatch) {
  const auto opts = SmallOptions();
  auto f2 = MakeSummary("f2", opts, 1);
  ASSERT_TRUE(f2.ok());
  EXPECT_EQ(f2.value().QueryHeavyHitters(10, 0.1).status().code(),
            Status::Code::kNotSupported);

  auto hh = MakeSummary("hh", opts, 1);
  ASSERT_TRUE(hh.ok());
  AnySummary summary = std::move(hh).value();
  std::vector<Tuple> heavy(4000, Tuple{7, 5});
  summary.InsertBatch(heavy);
  auto hits = summary.QueryHeavyHitters(opts.y_max, 0.5);
  ASSERT_TRUE(hits.ok()) << hits.status().ToString();
  ASSERT_EQ(hits.value().size(), 1u);
  EXPECT_EQ(hits.value()[0].item, 7u);
}

TEST(AnySummaryTest, MergeChecksKindsAndEmptiness) {
  const auto opts = SmallOptions();
  AnySummary f2 = std::move(MakeSummary("f2", opts, 1)).value();
  AnySummary f0 = std::move(MakeSummary("f0", opts, 1)).value();
  EXPECT_EQ(f2.MergeFrom(f0).code(), Status::Code::kPreconditionFailed);

  AnySummary empty;
  EXPECT_FALSE(empty.has_value());
  EXPECT_EQ(f2.MergeFrom(empty).code(), Status::Code::kInvalidArgument);
  EXPECT_EQ(empty.Query(1).status().code(), Status::Code::kInvalidArgument);
  std::string blob;
  EXPECT_EQ(empty.Serialize(&blob).code(), Status::Code::kInvalidArgument);

  AnySummary f2b = std::move(MakeSummary("f2", opts, 1)).value();
  f2b.Insert(1, 2);
  EXPECT_TRUE(f2.MergeFrom(f2b).ok());
  // Same kind, different seed: the concrete family check still fires.
  AnySummary f2c = std::move(MakeSummary("f2", opts, 2)).value();
  EXPECT_EQ(f2.MergeFrom(f2c).code(), Status::Code::kPreconditionFailed);

  // CompatibleWith runs exactly these checks without merging anything.
  EXPECT_EQ(f2.CompatibleWith(f0).code(), Status::Code::kPreconditionFailed);
  EXPECT_EQ(f2.CompatibleWith(empty).code(), Status::Code::kInvalidArgument);
  EXPECT_EQ(empty.CompatibleWith(f2).code(), Status::Code::kInvalidArgument);
  EXPECT_TRUE(f2.CompatibleWith(f2b).ok());
  EXPECT_EQ(f2.CompatibleWith(f2c).code(), Status::Code::kPreconditionFailed);
}

TEST(AnySummaryTest, CompatibleWithAgreesWithMergeForEveryKind) {
  // For every kind, against a peer with the same configuration, another
  // seed, and other options: CompatibleWith returns what MergeFrom would,
  // and leaves the summary untouched.
  const auto opts = SmallOptions();
  auto other_opts = opts;
  other_opts.eps = 0.1;
  other_opts.phi_eps = 0.02;
  other_opts.chh_y_eps = 0.02;
  const auto stream = UniformStream(2000, opts.x_domain + 1, opts.y_max, 23);
  int rejected = 0;
  for (const char* name : kKindNames) {
    SCOPED_TRACE(name);
    AnySummary base = std::move(MakeSummary(name, opts, 1)).value();
    base.InsertBatch(std::span<const Tuple>(stream));
    std::string before;
    ASSERT_TRUE(base.Serialize(&before).ok());
    struct Peer {
      const SummaryOptions* opts;
      uint64_t seed;
    };
    const Peer peers[] = {{&opts, 1}, {&opts, 2}, {&other_opts, 1}};
    for (const Peer& p : peers) {
      AnySummary peer = std::move(MakeSummary(name, *p.opts, p.seed)).value();
      peer.InsertBatch(std::span<const Tuple>(stream));
      AnySummary target = base.Clone();
      const Status st = base.CompatibleWith(peer);
      EXPECT_EQ(st.code(), target.MergeFrom(peer).code())
          << "seed " << p.seed;
      rejected += st.ok() ? 0 : 1;
    }
    std::string after;
    ASSERT_TRUE(base.Serialize(&after).ok());
    EXPECT_EQ(after, before);
  }
  // Every kind rejects the other options; the seeded kinds the other seed.
  EXPECT_EQ(rejected, 6 + 4);
}

TEST(AnySummaryTest, ShardedDriverRunsOnAnySummaryAndShipsShardBlobs) {
  const auto opts = SmallOptions();
  const auto stream = UniformStream(12000, opts.x_domain + 1, opts.y_max, 23);
  for (const char* name : kKindNames) {
    auto make = [&] {
      return std::move(MakeSummary(name, opts, /*seed=*/88)).value();
    };
    ShardedDriverOptions dopts;
    dopts.shards = 3;
    dopts.batch_size = 256;
    ShardedDriver<AnySummary> driver(dopts, make);
    driver.InsertBatch(stream);
    driver.Flush();

    // Cross-process path, in miniature: serialize every shard, deserialize
    // the blobs, merge — must equal the driver's own in-process merge.
    AnySummary from_blobs = make();
    for (uint32_t s = 0; s < driver.shard_count(); ++s) {
      std::string blob;
      ASSERT_TRUE(driver.SerializeShard(s, &blob).ok()) << name;
      auto shard = AnySummary::Deserialize(io::BytesOf(blob));
      ASSERT_TRUE(shard.ok()) << name << ": " << shard.status().ToString();
      ASSERT_TRUE(from_blobs.MergeFrom(shard.value()).ok()) << name;
    }
    auto merged = driver.Summarize();
    ASSERT_TRUE(merged.ok()) << name;
    for (uint64_t c : {uint64_t{0}, uint64_t{777}, opts.y_max}) {
      const auto qa = merged.value()->Query(c);
      const auto qb = from_blobs.Query(c);
      ASSERT_EQ(qa.ok(), qb.ok()) << name << " c=" << c;
      if (qa.ok()) {
        EXPECT_EQ(qa.value(), qb.value()) << name << " c=" << c;
      }
    }
  }
}

}  // namespace
}  // namespace castream
