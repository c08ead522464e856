// Wire-format compatibility gate (ISSUE 4 satellite): the checked-in blobs
// under tests/golden/ were written by the version-1 encoders over a fixed,
// fully deterministic stream. This suite deserializes them and requires the
// answers — and the bytes a fresh encode produces — to match a summary
// built live over the same stream. If this test breaks, the wire format (or
// the summaries' deterministic behavior) changed: bump the format version
// in src/io/format.h knowingly and regenerate the fixtures with
//   CASTREAM_REGEN_GOLDEN=1 ./golden_compat_test
// (the directory comes from the CASTREAM_GOLDEN_DIR compile definition).
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <iterator>
#include <sstream>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "src/core/any_summary.h"
#include "src/io/decoder.h"
#include "src/io/format.h"
#include "src/stream/types.h"
#include "tests/test_util.h"

#ifndef CASTREAM_GOLDEN_DIR
#define CASTREAM_GOLDEN_DIR "tests/golden"
#endif

namespace castream {
namespace {

// Fixture parameters are frozen: changing any of them invalidates the
// checked-in blobs just as surely as a format change would.
SummaryOptions GoldenOptions() {
  SummaryOptions opts;
  opts.eps = 0.5;         // coarse on purpose: fixtures stay tens of KB
  opts.delta = 0.25;
  opts.y_max = 1023;
  opts.f_max_hint = 1e3;  // few levels; enough splits to exercise the trees
  opts.x_domain = 1023;
  opts.phi_eps = 0.25;
  opts.max_candidates = 8;
  return opts;
}

constexpr uint64_t kGoldenSeed = 20260728;
constexpr size_t kGoldenStreamLen = 1000;

std::vector<Tuple> GoldenStream() {
  Xoshiro256 rng(kGoldenSeed);
  std::vector<Tuple> stream;
  stream.reserve(kGoldenStreamLen);
  for (size_t i = 0; i < kGoldenStreamLen; ++i) {
    const uint64_t x = (rng.NextBounded(5) == 0) ? rng.NextBounded(4)
                                                 : rng.NextBounded(500);
    stream.push_back(Tuple{x, rng.NextBounded(1024)});
  }
  return stream;
}

AnySummary BuildGoldenSummary(const std::string& kind) {
  auto made = MakeSummary(kind, GoldenOptions(), /*seed=*/kGoldenSeed);
  EXPECT_TRUE(made.ok());
  AnySummary summary = std::move(made).value();
  summary.InsertBatch(GoldenStream());
  return summary;
}

std::string FixturePath(const std::string& kind) {
  return std::string(CASTREAM_GOLDEN_DIR) + "/golden_" + kind + "_v1.bin";
}

bool RegenRequested() {
  const char* env = std::getenv("CASTREAM_REGEN_GOLDEN");
  return env != nullptr && env[0] != '\0' && env[0] != '0';
}

// Kinds come from the registry, so adding a summary kind automatically
// demands a fixture for it (the missing-file ASSERT below names the regen
// command). The wire-tag regression test further down pins each kind's
// numeric tag independently of this list's order.
std::vector<std::string> RegistryKindNames() {
  std::vector<std::string> names;
  for (const auto& entry : SummaryRegistry::Entries()) {
    names.emplace_back(entry.name);
  }
  return names;
}

std::string ReadFixture(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  EXPECT_TRUE(in.good())
      << "missing golden fixture " << path
      << " — regenerate with CASTREAM_REGEN_GOLDEN=1 and commit it";
  std::ostringstream buf;
  buf << in.rdbuf();
  return buf.str();
}

TEST(GoldenCompatTest, CheckedInBlobsStillDecodeAndAnswer) {
  if (RegenRequested()) {
    for (const std::string& kind : RegistryKindNames()) {
      AnySummary summary = BuildGoldenSummary(kind);
      std::string blob;
      ASSERT_TRUE(summary.Serialize(&blob).ok()) << kind;
      std::ofstream out(FixturePath(kind), std::ios::binary);
      ASSERT_TRUE(out.good()) << FixturePath(kind);
      out.write(blob.data(), static_cast<std::streamsize>(blob.size()));
      ASSERT_TRUE(out.good()) << FixturePath(kind);
      std::printf("regenerated %s (%zu bytes)\n", FixturePath(kind).c_str(),
                  blob.size());
    }
    GTEST_SKIP() << "fixtures regenerated, not checked";
  }

  for (const std::string& kind : RegistryKindNames()) {
    const std::string golden = ReadFixture(FixturePath(kind));
    if (golden.empty()) continue;  // ReadFixture already failed the test

    auto decoded = AnySummary::Deserialize(io::BytesOf(golden));
    ASSERT_TRUE(decoded.ok())
        << kind << ": golden blob no longer decodes ("
        << decoded.status().ToString()
        << ") — the wire format changed; bump the version in "
           "src/io/format.h and regenerate knowingly";
    EXPECT_EQ(SummaryKindName(decoded.value().kind()), kind);

    // Answers from the golden blob must equal a live rebuild bit-for-bit.
    AnySummary live = BuildGoldenSummary(kind);
    for (uint64_t c = 0; c <= 1023; c += 73) {
      const auto qa = live.Query(c);
      const auto qb = decoded.value().Query(c);
      ASSERT_EQ(qa.ok(), qb.ok()) << kind << " c=" << c;
      if (qa.ok()) {
        EXPECT_EQ(qa.value(), qb.value()) << kind << " c=" << c;
      }
    }

    // And a fresh encode reproduces the committed bytes exactly: the writer
    // is as frozen as the reader. A mismatch here with passing answers
    // means the encoder changed silently — still a version-bump event.
    std::string reencoded;
    ASSERT_TRUE(live.Serialize(&reencoded).ok()) << kind;
    EXPECT_EQ(reencoded, golden)
        << kind
        << ": serialization output changed for identical input; bump the "
           "format version and regenerate the fixtures";
  }
}

// ISSUE 10 satellite: the SummaryKind wire tags are pinned for all time.
// This table is deliberately hardcoded — it must NOT be derived from the
// enum, the registry, or anything else that a renumbering would also move.
// Each committed fixture's header must carry exactly the tag its filename
// promises, read straight out of bytes [4, 8) of the blob.
struct PinnedTag {
  const char* name;
  uint32_t tag;
};
constexpr PinnedTag kPinnedWireTags[] = {
    {"f2", 1}, {"f0", 2},     {"rarity", 3},
    {"hh", 4}, {"chh_mg", 5}, {"chh_fast", 6},
};

TEST(GoldenCompatTest, CommittedHeadersCarryPinnedWireTags) {
  if (RegenRequested()) GTEST_SKIP() << "regen run; tags checked next run";
  // The pinned table and the registry must cover the same kinds: a kind in
  // the registry but absent here has no frozen tag, and a stale row here
  // would keep a retired name alive.
  EXPECT_EQ(std::size(kPinnedWireTags), SummaryRegistry::Entries().size());
  for (const auto& pinned : kPinnedWireTags) {
    const std::string golden = ReadFixture(FixturePath(pinned.name));
    if (golden.empty()) continue;
    ASSERT_GE(golden.size(), 20u) << pinned.name;

    // Raw little-endian u32 at offset 4 — no decoder in the loop, so a
    // renumbered enum cannot mask itself.
    const auto* bytes = reinterpret_cast<const unsigned char*>(golden.data());
    const uint32_t raw_tag = static_cast<uint32_t>(bytes[4]) |
                             static_cast<uint32_t>(bytes[5]) << 8 |
                             static_cast<uint32_t>(bytes[6]) << 16 |
                             static_cast<uint32_t>(bytes[7]) << 24;
    EXPECT_EQ(raw_tag, pinned.tag)
        << pinned.name
        << ": committed header carries a different tag than the pinned "
           "wire-tag table in src/io/format.h — tags may never be renumbered";

    // And the live enum agrees with the committed bytes.
    auto peeked = io::PeekKind(io::BytesOf(golden));
    ASSERT_TRUE(peeked.ok()) << pinned.name;
    EXPECT_EQ(static_cast<uint32_t>(peeked.value()), pinned.tag)
        << pinned.name;
    EXPECT_EQ(SummaryKindName(peeked.value()), pinned.name);
  }
}

}  // namespace
}  // namespace castream
