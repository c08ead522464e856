// Hostile-input behavior of the service payload codecs (ISSUE 9
// satellite): every-prefix truncations, bit flips, saturated count words,
// and trailing garbage against DecodeQuery / DecodeAck / DecodeAnswer /
// DecodeEpochAnnex / SplitPublishPayload must come back as InvalidArgument
// or PreconditionFailed — never a crash, hang, or unbounded allocation.
// These are the bytes a reducer accepts from the network *before* any
// session/epoch trust is established, so they get the same treatment as
// the summary blobs in serialize_robustness_test; the CI ASan+UBSan job
// runs this suite, so any out-of-bounds read or UB on these paths fails
// loudly.
#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

#include <gtest/gtest.h>

#include "src/core/any_summary.h"
#include "src/io/decoder.h"
#include "src/net/frame.h"
#include "src/service/protocol.h"
#include "src/stream/types.h"
#include "tests/test_util.h"

namespace castream {
namespace {

using service::DecodeAck;
using service::DecodeAnswer;
using service::DecodeEpochAnnex;
using service::DecodeQuery;
using service::EncodeAck;
using service::EncodeAnswer;
using service::EncodeEpochAnnex;
using service::EncodeQuery;
using service::EpochEntry;
using service::ServedAnswer;
using service::SplitPublishPayload;

bool IsCleanRejection(const Status& status) {
  return status.code() == Status::Code::kInvalidArgument ||
         status.code() == Status::Code::kPreconditionFailed;
}

// Each codec's decode entry point behind one signature, so the tampering
// loops below can run identically against all of them.
Status TryDecodeQuery(const std::string& payload) {
  uint64_t cutoff = 0;
  return DecodeQuery(io::BytesOf(payload), &cutoff);
}

Status TryDecodeAck(const std::string& payload) {
  net::AckCode code = net::AckCode::kRejected;
  uint64_t stored = 0;
  return DecodeAck(io::BytesOf(payload), &code, &stored);
}

Status TryDecodeAnswer(const std::string& payload) {
  ServedAnswer answer;
  return DecodeAnswer(io::BytesOf(payload), &answer);
}

Status TryDecodeAnnex(const std::string& payload) {
  std::vector<EpochEntry> entries;
  return DecodeEpochAnnex(io::BytesOf(payload), &entries);
}

Status TrySplit(const std::string& payload) {
  std::span<const std::byte> blob, annex;
  return SplitPublishPayload(io::BytesOf(payload), &blob, &annex);
}

struct Codec {
  const char* name;
  Status (*decode)(const std::string& payload);
};

std::vector<EpochEntry> DemoEpochs() {
  return {{0, 0, 12}, {0, 1, 12}, {1, 0, 9}, {7, 3, 1}};
}

ServedAnswer OkAnswer() {
  ServedAnswer answer;
  answer.status = Status::OK();
  answer.estimate = 12345.6789;
  answer.epochs = DemoEpochs();
  return answer;
}

ServedAnswer ErrorAnswer() {
  ServedAnswer answer;
  answer.status = Status::QueryOutOfRange("cutoff 9000 is in a FAIL region");
  answer.epochs = DemoEpochs();
  return answer;
}

// One intact sample payload per codec, used as the tampering substrate.
// Both DecodeAnswer branches (ok and error) are covered as separate
// "codecs" — they take different decode paths through the payload.
std::string SampleFor(const Codec& codec) {
  std::string payload;
  const std::string name = codec.name;
  if (name == "query") {
    EncodeQuery(0x0123456789abcdefull, &payload);
  } else if (name == "ack") {
    EncodeAck(net::AckCode::kDuplicate, 77, &payload);
  } else if (name == "answer_ok") {
    EncodeAnswer(OkAnswer(), &payload);
  } else if (name == "answer_error") {
    EncodeAnswer(ErrorAnswer(), &payload);
  } else {
    EXPECT_EQ(name, "annex");
    EncodeEpochAnnex(DemoEpochs(), &payload);
  }
  EXPECT_FALSE(payload.empty());
  return payload;
}

const Codec kCodecs[] = {
    {"query", TryDecodeQuery},          {"ack", TryDecodeAck},
    {"answer_ok", TryDecodeAnswer},     {"answer_error", TryDecodeAnswer},
    {"annex", TryDecodeAnnex},
};

TEST(ProtocolRobustnessTest, RoundTripsDecodeExactly) {
  // Sanity for everything below: the untampered payloads decode, and the
  // decoded values equal what was encoded.
  {
    std::string payload;
    EncodeQuery(42, &payload);
    uint64_t cutoff = 0;
    ASSERT_TRUE(DecodeQuery(io::BytesOf(payload), &cutoff).ok());
    EXPECT_EQ(cutoff, 42u);
  }
  {
    std::string payload;
    EncodeAck(net::AckCode::kAccepted, 9, &payload);
    net::AckCode code = net::AckCode::kRejected;
    uint64_t stored = 0;
    ASSERT_TRUE(DecodeAck(io::BytesOf(payload), &code, &stored).ok());
    EXPECT_EQ(code, net::AckCode::kAccepted);
    EXPECT_EQ(stored, 9u);
  }
  {
    std::string payload;
    EncodeAnswer(OkAnswer(), &payload);
    ServedAnswer decoded;
    ASSERT_TRUE(DecodeAnswer(io::BytesOf(payload), &decoded).ok());
    EXPECT_TRUE(decoded.status.ok());
    EXPECT_EQ(decoded.estimate, OkAnswer().estimate);
    ASSERT_EQ(decoded.epochs.size(), DemoEpochs().size());
    EXPECT_EQ(decoded.epochs[3].worker, 7u);
    EXPECT_EQ(decoded.epochs[3].epoch, 1u);
  }
  {
    std::string payload;
    EncodeAnswer(ErrorAnswer(), &payload);
    ServedAnswer decoded;
    ASSERT_TRUE(DecodeAnswer(io::BytesOf(payload), &decoded).ok());
    EXPECT_EQ(decoded.status.code(), Status::Code::kQueryOutOfRange);
    EXPECT_EQ(decoded.status.message(),
              ErrorAnswer().status.message());
    EXPECT_EQ(decoded.epochs.size(), DemoEpochs().size());
  }
  {
    std::string payload;
    EncodeEpochAnnex(DemoEpochs(), &payload);
    std::vector<EpochEntry> decoded;
    ASSERT_TRUE(DecodeEpochAnnex(io::BytesOf(payload), &decoded).ok());
    ASSERT_EQ(decoded.size(), DemoEpochs().size());
    EXPECT_EQ(decoded[2].worker, 1u);
    EXPECT_EQ(decoded[2].epoch, 9u);
  }
}

TEST(ProtocolRobustnessTest, EveryTruncationIsRejectedCleanly) {
  // Service payloads are small (tens to hundreds of bytes), so unlike the
  // summary-blob suite there is no need to stride: every prefix of every
  // payload is tried.
  for (const Codec& codec : kCodecs) {
    const std::string payload = SampleFor(codec);
    for (size_t n = 0; n < payload.size(); ++n) {
      const Status status = codec.decode(std::string(payload.data(), n));
      ASSERT_FALSE(status.ok()) << codec.name << " truncated to " << n;
      EXPECT_TRUE(IsCleanRejection(status))
          << codec.name << " truncated to " << n << ": "
          << status.ToString();
    }
  }
}

TEST(ProtocolRobustnessTest, TrailingGarbageIsRejected) {
  // The decoders are strict whole-span consumers: a single appended byte —
  // even a zero — must fail, or concatenation-based smuggling (a second
  // payload pasted after the first) would go unnoticed.
  for (const Codec& codec : kCodecs) {
    for (const char extra : {'\0', '\x5a'}) {
      std::string payload = SampleFor(codec);
      payload.push_back(extra);
      const Status status = codec.decode(payload);
      ASSERT_FALSE(status.ok()) << codec.name;
      EXPECT_EQ(status.code(), Status::Code::kInvalidArgument) << codec.name;
    }
  }
}

TEST(ProtocolRobustnessTest, BitFlipsNeverCrashOrMisclassify) {
  // A flipped bit may land on semantically-neutral bytes (an epoch value,
  // the estimate's mantissa) and still decode — that is fine. What it must
  // never do is crash, read out of bounds (ASan enforces), or fail with
  // anything but the documented rejection codes.
  for (const Codec& codec : kCodecs) {
    const std::string payload = SampleFor(codec);
    for (size_t pos = 0; pos < payload.size(); ++pos) {
      for (int bit = 0; bit < 8; ++bit) {
        std::string tampered = payload;
        tampered[pos] = static_cast<char>(tampered[pos] ^ (1 << bit));
        const Status status = codec.decode(tampered);
        if (status.ok()) continue;
        EXPECT_TRUE(IsCleanRejection(status))
            << codec.name << " flip bit " << bit << " of byte " << pos
            << ": " << status.ToString();
      }
    }
  }
}

TEST(ProtocolRobustnessTest, SaturatedCountWordsCannotDriveAllocations) {
  // Overwrite every aligned 32-bit word with 0xFFFFFFFF: wherever a count
  // field sits (the answer's message length and epoch count, the annex's
  // entry count), the claim must be rejected by the remaining-bytes cap
  // (io::Decoder::ReadCount), never trusted by a reserve call.
  for (const Codec& codec : kCodecs) {
    const std::string payload = SampleFor(codec);
    for (size_t off = 0; off + 4 <= payload.size(); ++off) {
      std::string tampered = payload;
      for (size_t k = 0; k < 4; ++k) tampered[off + k] = '\xff';
      const Status status = codec.decode(tampered);
      if (status.ok()) continue;
      EXPECT_TRUE(IsCleanRejection(status))
          << codec.name << " saturate word at " << off << ": "
          << status.ToString();
    }
  }
}

TEST(ProtocolRobustnessTest, EmptyAndTinyPayloadsAreRejected) {
  for (const Codec& codec : kCodecs) {
    EXPECT_FALSE(codec.decode(std::string()).ok()) << codec.name;
    for (size_t n = 1; n <= 8; ++n) {
      const Status status = codec.decode(std::string(n, '\x5a'));
      if (status.ok()) {
        // The one shape junk can legitimately take: any 8 bytes are a
        // valid query cutoff.
        EXPECT_TRUE(std::string_view(codec.name) == "query" && n == 8)
            << codec.name << " accepted " << n << " junk bytes";
        continue;
      }
      EXPECT_TRUE(IsCleanRejection(status)) << codec.name;
    }
  }
}

TEST(ProtocolRobustnessTest, AckRejectsUnknownCodes) {
  std::string payload;
  EncodeAck(net::AckCode::kRejected, 5, &payload);
  // Walk the code byte through every value past the last defined enumerator.
  for (int raw = static_cast<int>(net::AckCode::kRejected) + 1; raw < 256;
       raw += 37) {
    std::string tampered = payload;
    tampered[0] = static_cast<char>(raw);
    const Status status = TryDecodeAck(tampered);
    ASSERT_FALSE(status.ok()) << "ack code " << raw;
    EXPECT_EQ(status.code(), Status::Code::kInvalidArgument);
  }
}

TEST(ProtocolRobustnessTest, AnswerRejectsBadOkFlagAndSmuggledOkStatus) {
  {
    // ok flag must be exactly 0 or 1.
    std::string payload;
    EncodeAnswer(OkAnswer(), &payload);
    payload[0] = 2;
    EXPECT_EQ(TryDecodeAnswer(payload).code(),
              Status::Code::kInvalidArgument);
  }
  {
    // An error-branch reply whose status code decodes to kOk is
    // contradictory (an OK answer ships an estimate, not a message) and
    // must be rejected, not surfaced as a success with no estimate.
    std::string payload;
    EncodeAnswer(ErrorAnswer(), &payload);
    // Wire layout: u8 ok, then u32 code.
    payload[1] = payload[2] = payload[3] = payload[4] = 0;
    const Status status = TryDecodeAnswer(payload);
    ASSERT_FALSE(status.ok());
    EXPECT_EQ(status.code(), Status::Code::kInvalidArgument);
  }
  {
    // Unknown status codes collapse to Internal rather than failing: a
    // newer peer's taxonomy must not make an older client drop the answer.
    std::string payload;
    EncodeAnswer(ErrorAnswer(), &payload);
    payload[1] = '\x63';
    payload[2] = payload[3] = payload[4] = 0;
    ServedAnswer decoded;
    ASSERT_TRUE(DecodeAnswer(io::BytesOf(payload), &decoded).ok());
    EXPECT_EQ(decoded.status.code(), Status::Code::kInternal);
  }
}

TEST(ProtocolRobustnessTest, AnnexRejectsWrongMagic) {
  std::string payload;
  EncodeEpochAnnex(DemoEpochs(), &payload);
  for (size_t pos = 0; pos < 4; ++pos) {
    std::string tampered = payload;
    tampered[pos] = static_cast<char>(tampered[pos] ^ 0x01);
    const Status status = TryDecodeAnnex(tampered);
    ASSERT_FALSE(status.ok()) << "magic byte " << pos;
    EXPECT_EQ(status.code(), Status::Code::kInvalidArgument);
  }
}

TEST(ProtocolRobustnessTest, EmptyAnnexRoundTrips) {
  // A relay with downstream entries always encodes some, but the codec's
  // zero-entry form must still be well-defined: 8 bytes, decodes to empty.
  std::string payload;
  EncodeEpochAnnex({}, &payload);
  EXPECT_EQ(payload.size(), 8u);
  std::vector<EpochEntry> decoded{{1, 2, 3}};
  ASSERT_TRUE(DecodeEpochAnnex(io::BytesOf(payload), &decoded).ok());
  EXPECT_TRUE(decoded.empty());
}

// --- SplitPublishPayload: the boundary finder runs on a real blob --------

std::string RealBlob(const char* kind = "f2") {
  SummaryOptions opts;
  opts.eps = 0.5;
  opts.delta = 0.25;
  opts.y_max = 1023;
  opts.f_max_hint = 1e3;
  opts.x_domain = 1023;
  opts.phi_eps = 0.25;
  opts.max_candidates = 8;
  auto made = MakeSummary(kind, opts, /*seed=*/31);
  EXPECT_TRUE(made.ok());
  AnySummary summary = std::move(made).value();
  Xoshiro256 rng(5);
  std::vector<Tuple> stream;
  for (int i = 0; i < 500; ++i) {
    stream.push_back(Tuple{rng.NextBounded(400), rng.NextBounded(1024)});
  }
  summary.InsertBatch(stream);
  std::string blob;
  EXPECT_TRUE(summary.Serialize(&blob).ok());
  return blob;
}

TEST(ProtocolRobustnessTest, SplitFindsTheBlobAnnexBoundary) {
  const std::string blob = RealBlob();
  {
    // No annex: the whole payload is the blob, the annex span is empty.
    std::span<const std::byte> b, a;
    ASSERT_TRUE(SplitPublishPayload(io::BytesOf(blob), &b, &a).ok());
    EXPECT_EQ(b.size(), blob.size());
    EXPECT_TRUE(a.empty());
  }
  {
    std::string payload = blob;
    EncodeEpochAnnex(DemoEpochs(), &payload);
    std::span<const std::byte> b, a;
    ASSERT_TRUE(SplitPublishPayload(io::BytesOf(payload), &b, &a).ok());
    EXPECT_EQ(b.size(), blob.size());
    EXPECT_EQ(a.size(), payload.size() - blob.size());
    // The pieces survive the split intact: the blob deserializes, the
    // annex decodes to what was encoded.
    EXPECT_TRUE(AnySummary::Deserialize(b).ok());
    std::vector<EpochEntry> entries;
    ASSERT_TRUE(DecodeEpochAnnex(a, &entries).ok());
    EXPECT_EQ(entries.size(), DemoEpochs().size());
  }
}

TEST(ProtocolRobustnessTest, ChhBlobsSplitAndSurviveHostileEnvelopes) {
  // The publish path carries whatever kind a worker was launched with; the
  // counter-based CHH blobs (nested tables, variable-length entries) must
  // get the same boundary-finding and hostile-envelope treatment as f2.
  for (const char* kind : {"chh_mg", "chh_fast"}) {
    const std::string blob = RealBlob(kind);
    {
      std::string payload = blob;
      EncodeEpochAnnex(DemoEpochs(), &payload);
      std::span<const std::byte> b, a;
      ASSERT_TRUE(SplitPublishPayload(io::BytesOf(payload), &b, &a).ok())
          << kind;
      EXPECT_EQ(b.size(), blob.size()) << kind;
      EXPECT_TRUE(AnySummary::Deserialize(b).ok()) << kind;
      std::vector<EpochEntry> entries;
      ASSERT_TRUE(DecodeEpochAnnex(a, &entries).ok()) << kind;
      EXPECT_EQ(entries.size(), DemoEpochs().size()) << kind;
    }
    for (size_t n = 0; n < blob.size(); ++n) {
      const Status status = TrySplit(std::string(blob.data(), n));
      ASSERT_FALSE(status.ok()) << kind << " truncated to " << n;
      EXPECT_EQ(status.code(), Status::Code::kInvalidArgument)
          << kind << " truncated to " << n;
    }
    for (size_t pos = 0; pos < 20; ++pos) {
      for (int bit = 0; bit < 8; ++bit) {
        std::string tampered = blob;
        tampered[pos] = static_cast<char>(tampered[pos] ^ (1 << bit));
        const Status status = TrySplit(tampered);
        if (status.ok()) continue;
        EXPECT_TRUE(IsCleanRejection(status))
            << kind << " flip bit " << bit << " of byte " << pos << ": "
            << status.ToString();
      }
    }
  }
}

TEST(ProtocolRobustnessTest, SplitRejectsHostileEnvelopes) {
  const std::string blob = RealBlob();
  // Every prefix shorter than the 20-byte envelope, and every prefix that
  // cuts into the body (the length field then exceeds the payload).
  for (size_t n = 0; n < blob.size(); ++n) {
    const Status status = TrySplit(std::string(blob.data(), n));
    ASSERT_FALSE(status.ok()) << "truncated to " << n;
    EXPECT_EQ(status.code(), Status::Code::kInvalidArgument)
        << "truncated to " << n << ": " << status.ToString();
  }
  {
    // Wrong leading magic: not a CAST blob at all.
    std::string tampered = blob;
    tampered[0] = 'X';
    EXPECT_EQ(TrySplit(tampered).code(), Status::Code::kInvalidArgument);
  }
  {
    // Saturated length field (bytes [12, 20) of the envelope): claims a
    // body far past the end of the payload.
    std::string tampered = blob;
    for (size_t k = 12; k < 20; ++k) tampered[k] = '\xff';
    EXPECT_EQ(TrySplit(tampered).code(), Status::Code::kInvalidArgument);
  }
  // Bit flips across the envelope: the split either still finds a
  // boundary (flips in kind/version are the Deserialize call's problem,
  // by design) or rejects cleanly — never crashes or reads past the span.
  for (size_t pos = 0; pos < 20; ++pos) {
    for (int bit = 0; bit < 8; ++bit) {
      std::string tampered = blob;
      tampered[pos] = static_cast<char>(tampered[pos] ^ (1 << bit));
      const Status status = TrySplit(tampered);
      if (status.ok()) continue;
      EXPECT_TRUE(IsCleanRejection(status))
          << "flip bit " << bit << " of byte " << pos << ": "
          << status.ToString();
    }
  }
}

}  // namespace
}  // namespace castream
