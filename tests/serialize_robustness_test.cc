// Hostile-input behavior of Deserialize (ISSUE 4 satellite): truncated,
// bit-flipped, wrong-magic, wrong-version, and count-inflated payloads must
// come back as InvalidArgument / PreconditionFailed — never a crash, hang,
// or unbounded allocation (decoded allocations are capped by the bytes the
// blob actually contains; see io::Decoder::ReadCount). The CI ASan+UBSan
// job runs this suite, so any out-of-bounds read or UB on these paths
// fails loudly.
#include <cstdint>
#include <span>
#include <string>
#include <utility>
#include <vector>

#include <gtest/gtest.h>

#include "src/core/any_summary.h"
#include "src/io/decoder.h"
#include "src/io/encoder.h"
#include "src/io/format.h"
#include "src/stream/types.h"
#include "tests/test_util.h"

namespace castream {
namespace {

SummaryOptions SmallOptions() {
  // Deliberately coarse: the suite decodes thousands of tampered variants
  // of each blob, so blobs must stay small for the suite to stay fast.
  SummaryOptions opts;
  opts.eps = 0.5;
  opts.delta = 0.25;
  opts.y_max = 1023;
  opts.f_max_hint = 1e3;
  opts.x_domain = 1023;
  opts.phi_eps = 0.25;
  opts.max_candidates = 8;
  return opts;
}

std::string BuildBlob(const std::string& kind) {
  auto made = MakeSummary(kind, SmallOptions(), /*seed=*/31);
  EXPECT_TRUE(made.ok());
  AnySummary summary = std::move(made).value();
  Xoshiro256 rng(5);
  std::vector<Tuple> stream;
  for (int i = 0; i < 1500; ++i) {
    stream.push_back(Tuple{rng.NextBounded(400), rng.NextBounded(1024)});
  }
  summary.InsertBatch(stream);
  std::string blob;
  EXPECT_TRUE(summary.Serialize(&blob).ok());
  return blob;
}

// A tampered blob must either decode (the flip hit semantically-neutral or
// still-valid data) or fail with the documented error codes. It must never
// crash — that part is enforced by simply running, and by ASan/UBSan in CI.
void ExpectSafeOutcome(const std::string& blob, const char* what) {
  auto result = AnySummary::Deserialize(io::BytesOf(blob));
  if (result.ok()) return;
  const Status::Code code = result.status().code();
  EXPECT_TRUE(code == Status::Code::kInvalidArgument ||
              code == Status::Code::kPreconditionFailed)
      << what << ": unexpected error " << result.status().ToString();
}

// Every registered kind gets the full hostile treatment: a kind that ships
// in the registry but dodges this suite would ship an unfuzzed decoder.
std::vector<std::string> RegistryKindNames() {
  std::vector<std::string> names;
  for (const auto& entry : SummaryRegistry::Entries()) {
    names.emplace_back(entry.name);
  }
  return names;
}

// Cuts the blob to n bytes and rewrites the envelope's body length to
// match, so the cut is found inside the body, not by the envelope check.
void ExpectTruncationRejected(const std::string& blob, size_t n,
                              const std::string& what) {
  ASSERT_LT(n, blob.size());
  ASSERT_GE(n, 20u);
  std::string cut(blob.data(), n);
  std::string length;
  io::Encoder(&length).PutU64(n - 20);
  cut.replace(12, 8, length);
  auto result = AnySummary::Deserialize(io::BytesOf(cut));
  ASSERT_FALSE(result.ok()) << what << " truncated to " << n;
  EXPECT_EQ(result.status().code(), Status::Code::kInvalidArgument)
      << what << " truncated to " << n << ": " << result.status().ToString();
}

TEST(SerializeRobustnessTest, EveryTruncationIsRejectedCleanly) {
  for (const std::string& kind : RegistryKindNames()) {
    const std::string blob = BuildBlob(kind);
    ASSERT_GT(blob.size(), 64u);
    std::vector<size_t> lengths;
    for (size_t n = 0; n < 64 && n < blob.size(); ++n) lengths.push_back(n);
    for (size_t n = 64; n < blob.size(); n += 509) lengths.push_back(n);
    lengths.push_back(blob.size() - 1);
    for (size_t n : lengths) {
      auto result = AnySummary::Deserialize(
          io::BytesOf(std::string(blob.data(), n)));
      ASSERT_FALSE(result.ok()) << kind << " truncated to " << n;
      EXPECT_EQ(result.status().code(), Status::Code::kInvalidArgument)
          << kind << " truncated to " << n << ": "
          << result.status().ToString();
      // A plain cut fails the envelope's length check before the body is
      // read; with the length rewritten, the same cut reaches the body.
      if (n >= 20) ExpectTruncationRejected(blob, n, kind);
    }
  }
}

// Dimensions of a dense counter sketch, and where its cells sit in a blob.
struct DenseSketchAt {
  uint32_t depth = 0;
  uint32_t width = 0;
  size_t cells = 0;  // offset of the first counter cell
};

// The family dimensions that open the f2 body (AMS) or the hh body (AMS,
// then CountSketch): u64 seed, u32 depth, u32 width each, right after the
// 20-byte envelope header.
std::vector<std::pair<uint32_t, uint32_t>> FamilyDims(const std::string& blob,
                                                      int families) {
  io::Decoder dec(io::BytesOf(blob));
  std::span<const std::byte> header;
  EXPECT_TRUE(dec.ReadBytes(20, &header).ok());
  std::vector<std::pair<uint32_t, uint32_t>> dims;
  for (int f = 0; f < families; ++f) {
    uint64_t seed = 0;
    uint32_t depth = 0, width = 0;
    EXPECT_TRUE(dec.ReadU64(&seed).ok());
    EXPECT_TRUE(dec.ReadU32(&depth).ok());
    EXPECT_TRUE(dec.ReadU32(&width).ok());
    dims.emplace_back(depth, width);
  }
  if (families == 2) {  // hh: the candidate budget follows the families
    uint32_t max_candidates = 0;
    EXPECT_TRUE(dec.ReadU32(&max_candidates).ok());
  }
  return dims;
}

// Every dense sketch of the given dimensions in the body: mode byte 1,
// u32 depth, u32 width, then depth * width i64 cells.
std::vector<DenseSketchAt> FindDenseSketches(
    const std::string& blob,
    const std::vector<std::pair<uint32_t, uint32_t>>& dims) {
  std::vector<DenseSketchAt> found;
  const auto u32_at = [&blob](size_t at) {
    const std::string word = blob.substr(at, 4);
    uint32_t v = 0;
    io::Decoder dec(io::BytesOf(word));
    EXPECT_TRUE(dec.ReadU32(&v).ok());
    return v;
  };
  for (size_t at = 20; at + 9 <= blob.size(); ++at) {
    if (blob[at] != '\x01') continue;
    for (const auto& [depth, width] : dims) {
      const size_t cells = at + 9;
      if (u32_at(at + 1) != depth || u32_at(at + 5) != width ||
          cells + size_t{depth} * width * 8 > blob.size()) {
        continue;
      }
      found.push_back(DenseSketchAt{depth, width, cells});
      at = cells + size_t{depth} * width * 8 - 1;
      break;
    }
  }
  return found;
}

TEST(SerializeRobustnessTest, TruncationInsideDenseRowsIsRejected) {
  // The counter matrix of a dense sketch is read as one span behind one
  // bounds check, so cut the blob at every byte of the sketch header and
  // one whole row, and on both sides of every row boundary, each time with
  // an envelope that declares the cut length.
  for (const auto& [kind, families] :
       {std::pair<std::string, int>{"f2", 1}, {"hh", 2}}) {
    const std::string blob = BuildBlob(kind);
    const std::vector<DenseSketchAt> dense =
        FindDenseSketches(blob, FamilyDims(blob, families));
    // f2: two dense buckets; hh: at least one bucket's AMS and CountSketch.
    ASSERT_GE(dense.size(), 2u) << kind << " has too few dense sketches";
    for (size_t s = 0; s < 2; ++s) {
      const DenseSketchAt& d = dense[s];
      const size_t row_bytes = size_t{d.width} * 8;
      const std::string what = kind + " dense sketch " + std::to_string(s);
      for (size_t n = d.cells - 9; n <= d.cells + row_bytes; ++n) {
        ExpectTruncationRejected(blob, n, what);
      }
      for (uint32_t row = 1; row <= d.depth; ++row) {
        const size_t boundary = d.cells + row * row_bytes;
        ExpectTruncationRejected(blob, boundary - 1, what);
        if (boundary < blob.size()) {
          ExpectTruncationRejected(blob, boundary, what);
        }
        if (boundary + 1 < blob.size()) {
          ExpectTruncationRejected(blob, boundary + 1, what);
        }
      }
    }
  }
}

TEST(SerializeRobustnessTest, DenseDimensionsBeyondTheBlobAllocateNothing) {
  // A family (and a dense sketch) declaring 256 x 2^26 counters — 128 GiB
  // of cells — inside a blob of a few KB. The decoder must reject the
  // matrix from the bytes remaining before it allocates it; without that
  // check the allocation itself throws.
  std::string blob = BuildBlob("f2");
  const std::vector<DenseSketchAt> dense =
      FindDenseSketches(blob, FamilyDims(blob, 1));
  ASSERT_FALSE(dense.empty());
  const auto put_u32 = [&blob](size_t at, uint32_t v) {
    std::string word;
    io::Encoder(&word).PutU32(v);
    blob.replace(at, 4, word);
  };
  const uint32_t depth = 256, width = uint32_t{1} << 26;
  put_u32(20 + 8, depth);  // the family, after its u64 seed
  put_u32(20 + 12, width);
  put_u32(dense[0].cells - 8, depth);  // the first dense sketch
  put_u32(dense[0].cells - 4, width);
  auto result = AnySummary::Deserialize(io::BytesOf(blob));
  ASSERT_FALSE(result.ok());
  EXPECT_EQ(result.status().code(), Status::Code::kInvalidArgument);
  EXPECT_NE(result.status().message().find("declared counter matrix"),
            std::string::npos)
      << result.status().ToString();
}

TEST(SerializeRobustnessTest, TrailingGarbageIsRejected) {
  for (const std::string& kind : RegistryKindNames()) {
    std::string blob = BuildBlob(kind);
    blob.push_back('\0');
    auto result = AnySummary::Deserialize(io::BytesOf(blob));
    ASSERT_FALSE(result.ok()) << kind;
    EXPECT_EQ(result.status().code(), Status::Code::kInvalidArgument) << kind;
  }
}

TEST(SerializeRobustnessTest, BitFlipsNeverCrashOrMisclassify) {
  for (const std::string& kind : RegistryKindNames()) {
    const std::string blob = BuildBlob(kind);
    // Every bit of the header and early body, then strided samples across
    // the rest (sketch payloads are large and mostly counter cells; flipping
    // every bit of every blob would dominate the suite's runtime — Debug and
    // sanitizer builds run this too — without adding coverage).
    std::vector<size_t> positions;
    for (size_t i = 0; i < 256 && i < blob.size(); ++i) positions.push_back(i);
    for (size_t i = 256; i < blob.size(); i += 997) positions.push_back(i);
    for (size_t pos : positions) {
      for (int bit = 0; bit < 8; ++bit) {
        std::string tampered = blob;
        tampered[pos] = static_cast<char>(tampered[pos] ^ (1 << bit));
        ExpectSafeOutcome(tampered,
                          (kind + " flip byte " +
                           std::to_string(pos))
                              .c_str());
      }
    }
  }
}

TEST(SerializeRobustnessTest, WrongMagicAndVersionAreInvalidArgument) {
  for (const std::string& kind : RegistryKindNames()) {
    std::string blob = BuildBlob(kind);
    {
      std::string bad = blob;
      bad[0] = 'X';
      auto result = AnySummary::Deserialize(io::BytesOf(bad));
      ASSERT_FALSE(result.ok());
      EXPECT_EQ(result.status().code(), Status::Code::kInvalidArgument);
    }
    {
      // Version lives at bytes [8, 12) of the envelope.
      std::string bad = blob;
      bad[8] = 99;
      auto result = AnySummary::Deserialize(io::BytesOf(bad));
      ASSERT_FALSE(result.ok()) << kind;
      EXPECT_EQ(result.status().code(), Status::Code::kInvalidArgument)
          << kind << ": " << result.status().ToString();
    }
    {
      // An unregistered kind tag at bytes [4, 8).
      std::string bad = blob;
      bad[4] = 0x7f;
      auto result = AnySummary::Deserialize(io::BytesOf(bad));
      ASSERT_FALSE(result.ok()) << kind;
      EXPECT_EQ(result.status().code(), Status::Code::kInvalidArgument)
          << kind;
    }
  }
}

TEST(SerializeRobustnessTest, InflatedCountsCannotDriveAllocations) {
  // Saturate every 32-bit word of the body in turn: wherever a count field
  // sits, a 0xFFFFFFFF claim must be rejected by the remaining-bytes cap,
  // not trusted by a reserve call. (Words that are not counts become
  // ordinary corruption, which must also be safe.)
  for (const std::string& kind : RegistryKindNames()) {
    const std::string blob = BuildBlob(kind);
    const size_t body_start = 20;  // after magic/kind/version/length
    std::vector<size_t> offsets;
    for (size_t off = body_start; off + 4 <= blob.size() && off < 512;
         off += 4) {
      offsets.push_back(off);
    }
    for (size_t off = 512; off + 4 <= blob.size(); off += 1021) {
      offsets.push_back(off);
    }
    for (size_t off : offsets) {
      std::string tampered = blob;
      tampered[off] = '\xff';
      tampered[off + 1] = '\xff';
      tampered[off + 2] = '\xff';
      tampered[off + 3] = '\xff';
      ExpectSafeOutcome(tampered, (kind + " saturate word at " +
                                   std::to_string(off))
                                      .c_str());
    }
  }
}

TEST(SerializeRobustnessTest, ReadCountZeroMinBytesStillCapsByRemaining) {
  // Regression: min_bytes_each == 0 must degrade to the weakest cap (1 byte
  // per element), never to "no cap" — a division by zero there would be UB,
  // and skipping the check would let a hostile 4-byte count drive a
  // multi-gigabyte reserve. Payload: count = 2^32-1 with 4 bytes behind it.
  std::string payload;
  payload.append("\xff\xff\xff\xff", 4);  // declared count
  payload.append("abcd", 4);              // only 4 bytes actually remain
  io::Decoder decoder(io::BytesOf(payload));
  uint32_t count = 0;
  Status status = decoder.ReadCount(&count, /*min_bytes_each=*/0);
  ASSERT_FALSE(status.ok());
  EXPECT_EQ(status.code(), Status::Code::kInvalidArgument);
}

TEST(SerializeRobustnessTest, ReadCountBoundaryAcceptsExactFit) {
  // count * min_bytes_each == remaining is the largest claim a blob can
  // back; it must be accepted, and one element more must be rejected.
  {
    std::string payload;
    payload.append("\x03\x00\x00\x00", 4);  // count = 3
    payload.append(12, 'x');                // 3 elements * 4 bytes each
    io::Decoder decoder(io::BytesOf(payload));
    uint32_t count = 0;
    ASSERT_TRUE(decoder.ReadCount(&count, /*min_bytes_each=*/4).ok());
    EXPECT_EQ(count, 3u);
  }
  {
    std::string payload;
    payload.append("\x04\x00\x00\x00", 4);  // count = 4, one too many
    payload.append(12, 'x');
    io::Decoder decoder(io::BytesOf(payload));
    uint32_t count = 0;
    Status status = decoder.ReadCount(&count, /*min_bytes_each=*/4);
    ASSERT_FALSE(status.ok());
    EXPECT_EQ(status.code(), Status::Code::kInvalidArgument);
  }
}

TEST(SerializeRobustnessTest, ReadCountZeroElementsAlwaysFits) {
  // A zero count is valid even with nothing behind it (empty collections
  // serialize to just the count word).
  std::string payload("\x00\x00\x00\x00", 4);
  io::Decoder decoder(io::BytesOf(payload));
  uint32_t count = 99;
  ASSERT_TRUE(decoder.ReadCount(&count, /*min_bytes_each=*/0).ok());
  EXPECT_EQ(count, 0u);
  EXPECT_TRUE(decoder.Done());
}

std::string ChhEnvelope(SummaryKind kind, const std::string& body) {
  std::string out;
  io::Encoder enc(&out);
  const uint32_t version = kind == SummaryKind::kCorrelatedNestedMisraGries
                               ? io::kCorrelatedNestedMisraGriesVersion
                               : io::kCorrelatedFastChhVersion;
  const size_t patch = io::BeginEnvelope(enc, kind, version);
  enc.PutBytes(io::BytesOf(body));
  io::EndEnvelope(enc, patch);
  return out;
}

void ExpectInvalidArgument(const std::string& blob, const char* what) {
  auto result = AnySummary::Deserialize(io::BytesOf(blob));
  ASSERT_FALSE(result.ok()) << what;
  EXPECT_EQ(result.status().code(), Status::Code::kInvalidArgument) << what;
}

TEST(SerializeRobustnessTest, ChhSaturatedTableCountsAreRejected) {
  // Hand-built chh_mg / chh_fast bodies whose count words lie: a saturated
  // primary-entry count, a saturated nested-table count inside an otherwise
  // valid entry, and a nested count that fits the remaining bytes but
  // exceeds the declared capacity. All must fail the ReadCount remaining-
  // bytes cap or the capacity check — never drive an allocation.
  {
    std::string body;
    io::Encoder enc(&body);
    enc.PutU32(8);            // k1
    enc.PutU32(40);           // k2
    enc.PutU64(1000);         // total weight
    enc.PutU64(0);            // primary decrements
    enc.PutU32(0xffffffffu);  // primary entry count: 2^32-1 claimed
    for (int i = 0; i < 8; ++i) enc.PutU64(1);  // 64 bytes actually behind it
    ExpectInvalidArgument(
        ChhEnvelope(SummaryKind::kCorrelatedNestedMisraGries, body),
        "chh_mg saturated primary count");
  }
  {
    std::string body;
    io::Encoder enc(&body);
    enc.PutU32(8);
    enc.PutU32(40);
    enc.PutU64(1000);
    enc.PutU64(0);
    enc.PutU32(1);            // one primary entry...
    enc.PutU64(7);            // x
    enc.PutU64(5);            // count
    enc.PutU64(0);            // nested loss
    enc.PutU32(0xffffffffu);  // ...whose nested table claims 2^32-1 rows
    enc.PutU64(1);
    enc.PutU64(1);
    ExpectInvalidArgument(
        ChhEnvelope(SummaryKind::kCorrelatedNestedMisraGries, body),
        "chh_mg saturated nested count");
  }
  {
    // 41 nested rows with the bytes to back them, against k2 = 40: the
    // remaining-bytes cap passes, so only the capacity check can save us.
    std::string body;
    io::Encoder enc(&body);
    enc.PutU32(8);
    enc.PutU32(40);
    enc.PutU64(1000);
    enc.PutU64(0);
    enc.PutU32(1);
    enc.PutU64(7);    // x
    enc.PutU64(100);  // count
    enc.PutU64(0);    // nested loss
    enc.PutU32(41);
    for (uint64_t y = 0; y < 41; ++y) {
      enc.PutU64(y);
      enc.PutU64(1);
    }
    ExpectInvalidArgument(
        ChhEnvelope(SummaryKind::kCorrelatedNestedMisraGries, body),
        "chh_mg nested count above capacity");
  }
  {
    std::string body;
    io::Encoder enc(&body);
    enc.PutU32(8);            // k1
    enc.PutU32(40);           // k2
    enc.PutU64(1000);         // total weight
    enc.PutU64(0);            // primary decrements
    enc.PutU32(0xffffffffu);  // primary entry count: 2^32-1 claimed
    for (int i = 0; i < 8; ++i) enc.PutU64(1);
    ExpectInvalidArgument(ChhEnvelope(SummaryKind::kCorrelatedFastChh, body),
                          "chh_fast saturated primary count");
  }
  {
    std::string body;
    io::Encoder enc(&body);
    enc.PutU32(8);
    enc.PutU32(40);
    enc.PutU64(1000);
    enc.PutU64(0);
    enc.PutU32(1);
    enc.PutU64(7);            // x
    enc.PutU64(5);            // count
    enc.PutU32(0xffffffffu);  // slot count: 2^32-1 claimed
    enc.PutU64(1);
    enc.PutU64(1);
    enc.PutU64(0);
    ExpectInvalidArgument(ChhEnvelope(SummaryKind::kCorrelatedFastChh, body),
                          "chh_fast saturated slot count");
  }
  {
    // A live fast-CHH entry always retains at least one Space-Saving slot;
    // a zero-slot entry is corruption even though every count word fits.
    std::string body;
    io::Encoder enc(&body);
    enc.PutU32(8);
    enc.PutU32(40);
    enc.PutU64(1000);
    enc.PutU64(0);
    enc.PutU32(1);
    enc.PutU64(7);  // x
    enc.PutU64(5);  // count
    enc.PutU32(0);  // slot count: zero
    ExpectInvalidArgument(ChhEnvelope(SummaryKind::kCorrelatedFastChh, body),
                          "chh_fast zero-slot entry");
  }
}

TEST(SerializeRobustnessTest, EmptyAndTinySpans) {
  auto empty = AnySummary::Deserialize(std::span<const std::byte>{});
  ASSERT_FALSE(empty.ok());
  EXPECT_EQ(empty.status().code(), Status::Code::kInvalidArgument);
  for (size_t n = 1; n <= 20; ++n) {
    std::string junk(n, '\x5a');
    auto result = AnySummary::Deserialize(io::BytesOf(junk));
    ASSERT_FALSE(result.ok()) << n;
    EXPECT_EQ(result.status().code(), Status::Code::kInvalidArgument) << n;
  }
}

}  // namespace
}  // namespace castream
