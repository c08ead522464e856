// Binary wire-format writer for durable summaries (the Unified Summary API).
//
// Every multi-byte integer is little-endian two's complement, so blobs are
// identical across compilers and architectures (the CI cross-reads
// gcc-written blobs in the clang build). On a little-endian host that is
// the in-memory representation, so a value or a whole row of counters is
// appended with one memcpy; on any other host the portable byte loops in
// io::detail (StoreLE / LoadLE) write the same bytes one at a time. Doubles
// never appear on the wire: every format in src/ serializes integer state
// and recomputes derived floating-point values on decode, which is what
// makes Deserialize(Serialize(s)) answer queries bit-for-bit like s.
#ifndef CASTREAM_IO_ENCODER_H_
#define CASTREAM_IO_ENCODER_H_

#include <bit>
#include <cstddef>
#include <cstdint>
#include <span>
#include <string>

#include "src/io/little_endian.h"

namespace castream::io {

/// \brief Appends little-endian fixed-width values to a caller-owned string.
///
/// Encoding cannot fail (short of std::bad_alloc), so the writer API returns
/// void; all error handling lives on the Decoder side.
class Encoder {
 public:
  explicit Encoder(std::string* out) : out_(out) {}

  void PutU8(uint8_t v) { out_->push_back(static_cast<char>(v)); }
  void PutU32(uint32_t v) { Put(std::span<const uint32_t>(&v, 1)); }
  void PutU64(uint64_t v) { Put(std::span<const uint64_t>(&v, 1)); }

  /// \brief Two's-complement little-endian, matching Decoder::ReadI64.
  void PutI64(int64_t v) { PutU64(static_cast<uint64_t>(v)); }

  /// \brief Signed 32-bit value (node indices, -1 sentinels).
  void PutI32(int32_t v) { PutU32(static_cast<uint32_t>(v)); }

  /// \brief A run of values with no length prefix: the same bytes as one
  /// PutI64 (PutU64, PutI32) per element, appended in one step.
  void PutI64Span(std::span<const int64_t> v) { Put(v); }
  void PutU64Span(std::span<const uint64_t> v) { Put(v); }
  void PutI32Span(std::span<const int32_t> v) { Put(v); }

  void PutBytes(std::span<const std::byte> bytes) {
    out_->append(reinterpret_cast<const char*>(bytes.data()), bytes.size());
  }

  /// \brief Current size of the output; offsets from here feed PatchU64.
  size_t size() const { return out_->size(); }

  /// \brief Overwrites 8 bytes at `offset` with v (little-endian). Used to
  /// back-patch the envelope's body-length field once the body is encoded.
  void PatchU64(size_t offset, uint64_t v) {
    detail::StoreLE(v, out_->data() + offset);
  }

 private:
  template <detail::WireInt T>
  void Put(std::span<const T> v) {
    if constexpr (std::endian::native == std::endian::little) {
      out_->append(reinterpret_cast<const char*>(v.data()), v.size_bytes());
    } else {
      const size_t at = out_->size();
      out_->resize(at + v.size_bytes());
      char* dst = out_->data() + at;
      for (const T x : v) {
        detail::StoreLE(x, dst);
        dst += sizeof(T);
      }
    }
  }

  std::string* out_;
};

}  // namespace castream::io

#endif  // CASTREAM_IO_ENCODER_H_
