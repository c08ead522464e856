// The wire codec's two paths must write and read the same bytes. On a
// little-endian host io::Encoder / io::Decoder move whole words with memcpy
// and compile the portable byte loops (io::detail::StoreLE / LoadLE) out,
// so no CI host runs those loops through the codec. This suite runs them
// directly, against literal little-endian byte strings and against the
// word path, and decodes from odd offsets so the ASan+UBSan job would catch
// a load through a misaligned pointer cast.
#include <cstddef>
#include <cstdint>
#include <limits>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "src/io/decoder.h"
#include "src/io/encoder.h"
#include "src/io/little_endian.h"

namespace castream {
namespace {

// Values with a known little-endian spelling.
struct Case64 {
  uint64_t value;
  std::string bytes;
};

std::vector<Case64> Cases64() {
  return {
      {0, std::string(8, '\0')},
      {1, std::string("\x01\0\0\0\0\0\0\0", 8)},
      {static_cast<uint64_t>(int64_t{-1}), std::string(8, '\xff')},
      {static_cast<uint64_t>(std::numeric_limits<int64_t>::min()),
       std::string("\0\0\0\0\0\0\0\x80", 8)},
      {std::numeric_limits<uint64_t>::max(), std::string(8, '\xff')},
      {0x0102030405060708u, std::string("\x08\x07\x06\x05\x04\x03\x02\x01", 8)},
  };
}

std::string StoreLE64(uint64_t v) {
  std::string out(8, '\0');
  io::detail::StoreLE(v, out.data());
  return out;
}

TEST(CodecByteOrderTest, PortableStoreMatchesLiteralBytes) {
  for (const Case64& c : Cases64()) {
    EXPECT_EQ(StoreLE64(c.value), c.bytes) << c.value;
    std::string out(8, '\0');
    io::detail::StoreLE(static_cast<int64_t>(c.value), out.data());
    EXPECT_EQ(out, c.bytes) << c.value;
  }
  std::string out(4, '\0');
  io::detail::StoreLE(uint32_t{0x01020304u}, out.data());
  EXPECT_EQ(out, std::string("\x04\x03\x02\x01", 4));
  io::detail::StoreLE(int32_t{-1}, out.data());
  EXPECT_EQ(out, std::string(4, '\xff'));
  io::detail::StoreLE(std::numeric_limits<int32_t>::min(), out.data());
  EXPECT_EQ(out, std::string("\0\0\0\x80", 4));
}

TEST(CodecByteOrderTest, WordPathWritesThePortableBytes) {
  for (const Case64& c : Cases64()) {
    std::string out;
    io::Encoder enc(&out);
    enc.PutU64(c.value);
    enc.PutI64(static_cast<int64_t>(c.value));
    enc.PutU32(static_cast<uint32_t>(c.value));
    enc.PutI32(static_cast<int32_t>(static_cast<uint32_t>(c.value)));
    std::string want = c.bytes + c.bytes + c.bytes.substr(0, 4) +
                       c.bytes.substr(0, 4);
    EXPECT_EQ(out, want) << c.value;
  }
}

TEST(CodecByteOrderTest, SpansWriteTheSameBytesAsSingleValues) {
  std::vector<int64_t> i64;
  std::vector<uint64_t> u64;
  for (const Case64& c : Cases64()) {
    i64.push_back(static_cast<int64_t>(c.value));
    u64.push_back(c.value);
  }
  const std::vector<int32_t> i32 = {0, 1, -1,
                                    std::numeric_limits<int32_t>::min(),
                                    0x01020304};
  std::string spans;
  io::Encoder span_enc(&spans);
  span_enc.PutI64Span(i64);
  span_enc.PutU64Span(u64);
  span_enc.PutI32Span(i32);
  span_enc.PutI64Span({});  // an empty run writes nothing

  std::string singles;
  io::Encoder single_enc(&singles);
  for (int64_t v : i64) single_enc.PutI64(v);
  for (uint64_t v : u64) single_enc.PutU64(v);
  for (int32_t v : i32) single_enc.PutI32(v);
  EXPECT_EQ(spans, singles);

  std::string portable;
  for (int64_t v : i64) portable += StoreLE64(static_cast<uint64_t>(v));
  for (uint64_t v : u64) portable += StoreLE64(v);
  for (int32_t v : i32) {
    std::string four(4, '\0');
    io::detail::StoreLE(v, four.data());
    portable += four;
  }
  EXPECT_EQ(spans, portable);
}

TEST(CodecByteOrderTest, PatchU64WritesLittleEndian) {
  std::string out(12, '\0');
  io::Encoder enc(&out);
  enc.PatchU64(3, 0x0102030405060708u);
  EXPECT_EQ(out, std::string("\0\0\0\x08\x07\x06\x05\x04\x03\x02\x01\0", 12));
}

TEST(CodecByteOrderTest, LoadsMatchAtEveryOffset) {
  // Offsets 0..7 put every value at every alignment modulo 8.
  for (size_t offset = 0; offset < 8; ++offset) {
    for (const Case64& c : Cases64()) {
      std::string buf(offset, '\x5a');
      buf += c.bytes;
      buf += c.bytes;
      const std::span<const std::byte> bytes = io::BytesOf(buf);
      const std::byte* at = bytes.data() + offset;
      EXPECT_EQ(io::detail::LoadLE<uint64_t>(at), c.value);
      EXPECT_EQ(io::detail::LoadLE<int64_t>(at), static_cast<int64_t>(c.value));
      EXPECT_EQ(io::detail::LoadLE<uint32_t>(at),
                static_cast<uint32_t>(c.value));

      io::Decoder dec(bytes);
      std::span<const std::byte> skipped;
      ASSERT_TRUE(dec.ReadBytes(offset, &skipped).ok());
      uint64_t u = 0;
      int64_t i = 0;
      ASSERT_TRUE(dec.ReadU64(&u).ok());
      ASSERT_TRUE(dec.ReadI64(&i).ok());
      EXPECT_EQ(u, c.value) << "offset " << offset;
      EXPECT_EQ(i, static_cast<int64_t>(c.value)) << "offset " << offset;
      EXPECT_TRUE(dec.Done());

      io::Decoder dec32(bytes);
      ASSERT_TRUE(dec32.ReadBytes(offset, &skipped).ok());
      uint32_t lo = 0, hi = 0;
      int32_t lo_signed = 0;
      ASSERT_TRUE(dec32.ReadU32(&lo).ok());
      ASSERT_TRUE(dec32.ReadU32(&hi).ok());
      ASSERT_TRUE(dec32.ReadI32(&lo_signed).ok());
      EXPECT_EQ((uint64_t{hi} << 32) | lo, c.value) << "offset " << offset;
      EXPECT_EQ(lo_signed, static_cast<int32_t>(lo));
    }
  }
}

TEST(CodecByteOrderTest, SpanReadsMatchAtEveryOffset) {
  std::string body;
  std::vector<uint64_t> want;
  for (const Case64& c : Cases64()) {
    body += c.bytes;
    want.push_back(c.value);
  }
  for (size_t offset = 0; offset < 8; ++offset) {
    std::string buf = std::string(offset, '\x5a') + body;
    io::Decoder dec(io::BytesOf(buf));
    std::span<const std::byte> skipped;
    ASSERT_TRUE(dec.ReadBytes(offset, &skipped).ok());
    std::vector<uint64_t> u(want.size() / 2);
    std::vector<int64_t> i(want.size() - u.size());
    ASSERT_TRUE(dec.ReadU64Span(u).ok());
    ASSERT_TRUE(dec.ReadI64Span(i).ok());
    ASSERT_TRUE(dec.ReadI64Span({}).ok());
    EXPECT_TRUE(dec.Done());
    for (size_t k = 0; k < u.size(); ++k) EXPECT_EQ(u[k], want[k]);
    for (size_t k = 0; k < i.size(); ++k) {
      EXPECT_EQ(i[k], static_cast<int64_t>(want[u.size() + k]));
    }

    io::Decoder dec32(io::BytesOf(buf));
    ASSERT_TRUE(dec32.ReadBytes(offset, &skipped).ok());
    std::vector<int32_t> words(2 * want.size());
    ASSERT_TRUE(dec32.ReadI32Span(words).ok());
    for (size_t k = 0; k < words.size(); ++k) {
      EXPECT_EQ(words[k], io::detail::LoadLE<int32_t>(
                              io::BytesOf(buf).data() + offset + 4 * k));
    }
  }
}

TEST(CodecByteOrderTest, ShortSpanReadFailsAndConsumesNothing) {
  const std::string buf(8 * 3 + 5, '\x11');
  io::Decoder dec(io::BytesOf(buf));
  std::vector<int64_t> four(4, 7);
  const Status status = dec.ReadI64Span(four);
  ASSERT_FALSE(status.ok());
  EXPECT_EQ(status.code(), Status::Code::kInvalidArgument);
  EXPECT_EQ(dec.remaining(), buf.size());
  std::vector<int64_t> three(3);
  EXPECT_TRUE(dec.ReadI64Span(three).ok());
  EXPECT_EQ(dec.remaining(), 5u);
  uint64_t u = 0;
  EXPECT_FALSE(dec.ReadU64(&u).ok());
  uint32_t w = 0;
  EXPECT_TRUE(dec.ReadU32(&w).ok());
  EXPECT_EQ(w, 0x11111111u);
}

}  // namespace
}  // namespace castream
