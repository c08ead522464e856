// Checked binary reader for the summary wire format (see encoder.h).
//
// Every read validates remaining length and returns Status instead of
// crashing: a truncated, bit-flipped, or adversarial blob must surface
// InvalidArgument from Deserialize, never UB or an allocation explosion.
// Count fields are therefore read through ReadCount, which caps the declared
// element count by the bytes actually remaining — a 4-byte count can claim
// 2^32 entries, but it cannot make the decoder reserve more memory than the
// blob could possibly back.
#ifndef CASTREAM_IO_DECODER_H_
#define CASTREAM_IO_DECODER_H_

#include <bit>
#include <cstddef>
#include <cstdint>
#include <cstring>
#include <span>
#include <string>

#include "src/common/status.h"
#include "src/io/little_endian.h"

namespace castream::io {

/// \brief Sequential little-endian reader over a borrowed byte span.
class Decoder {
 public:
  explicit Decoder(std::span<const std::byte> bytes) : bytes_(bytes) {}

  size_t remaining() const { return bytes_.size() - pos_; }
  bool Done() const { return pos_ == bytes_.size(); }

  [[nodiscard]] Status ReadU8(uint8_t* v) {
    if (remaining() < 1) return Truncated("u8");
    *v = static_cast<uint8_t>(bytes_[pos_++]);
    return Status::OK();
  }

  [[nodiscard]] Status ReadU32(uint32_t* v) {
    return Read(std::span<uint32_t>(v, 1), "u32");
  }

  [[nodiscard]] Status ReadU64(uint64_t* v) {
    return Read(std::span<uint64_t>(v, 1), "u64");
  }

  [[nodiscard]] Status ReadI64(int64_t* v) {
    uint64_t u = 0;
    CASTREAM_RETURN_NOT_OK(ReadU64(&u));
    *v = static_cast<int64_t>(u);
    return Status::OK();
  }

  [[nodiscard]] Status ReadI32(int32_t* v) {
    uint32_t u = 0;
    CASTREAM_RETURN_NOT_OK(ReadU32(&u));
    *v = static_cast<int32_t>(u);
    return Status::OK();
  }

  /// \brief Fills `out` with the next out.size() values (the encoder's
  /// PutI64Span etc.), after one bounds check for the whole run. On failure
  /// nothing is consumed.
  [[nodiscard]] Status ReadI64Span(std::span<int64_t> out) {
    return Read(out, "i64 span");
  }
  [[nodiscard]] Status ReadU64Span(std::span<uint64_t> out) {
    return Read(out, "u64 span");
  }
  [[nodiscard]] Status ReadI32Span(std::span<int32_t> out) {
    return Read(out, "i32 span");
  }

  /// \brief Reads a u32 element count and caps it by the bytes remaining:
  /// each element will consume at least `min_bytes_each` (>= 1), so a count
  /// exceeding remaining()/min_bytes_each proves the blob corrupt before any
  /// allocation sized by it happens.
  ///
  /// `min_bytes_each == 0` is treated as 1, never as "no cap": the whole
  /// point of this method is that a 4-byte count field cannot drive an
  /// allocation larger than the payload could possibly back, and a zero
  /// divisor would disable exactly that guarantee. Callers should still
  /// pass their true per-element floor — a tighter floor rejects corrupt
  /// blobs earlier — but a careless 0 degrades to the weakest cap, not to
  /// an unchecked count.
  [[nodiscard]] Status ReadCount(uint32_t* count, size_t min_bytes_each) {
    uint32_t n = 0;
    CASTREAM_RETURN_NOT_OK(ReadU32(&n));
    if (min_bytes_each == 0) min_bytes_each = 1;
    if (n > remaining() / min_bytes_each) {
      return Status::InvalidArgument(
          "decode: declared element count exceeds the bytes remaining in "
          "the payload (truncated or corrupt blob)");
    }
    *count = n;
    return Status::OK();
  }

  /// \brief Borrows the next n bytes without copying.
  [[nodiscard]] Status ReadBytes(size_t n, std::span<const std::byte>* out) {
    if (remaining() < n) return Truncated("bytes");
    *out = bytes_.subspan(pos_, n);
    pos_ += n;
    return Status::OK();
  }

 private:
  // Loads go through memcpy (or the byte loop), never a pointer cast: the
  // bytes sit at any offset of the blob, so they may be unaligned.
  template <detail::WireInt T>
  [[nodiscard]] Status Read(std::span<T> out, const char* what) {
    if (remaining() / sizeof(T) < out.size()) return Truncated(what);
    const std::byte* src = bytes_.data() + pos_;
    if constexpr (std::endian::native == std::endian::little) {
      if (!out.empty()) std::memcpy(out.data(), src, out.size_bytes());
    } else {
      for (T& x : out) {
        x = detail::LoadLE<T>(src);
        src += sizeof(T);
      }
    }
    pos_ += out.size_bytes();
    return Status::OK();
  }

  static Status Truncated(const char* what) {
    return Status::InvalidArgument(
        std::string("decode: payload truncated while reading ") + what);
  }

  std::span<const std::byte> bytes_;
  size_t pos_ = 0;
};

/// \brief Convenience view of a serialized string as the byte span
/// Deserialize expects.
inline std::span<const std::byte> BytesOf(const std::string& s) {
  return std::span<const std::byte>(
      reinterpret_cast<const std::byte*>(s.data()), s.size());
}

}  // namespace castream::io

#endif  // CASTREAM_IO_DECODER_H_
