// Portable little-endian byte loops shared by the wire codec (encoder.h,
// decoder.h). On a little-endian host the codec moves whole words with
// memcpy and these loops are compiled out; they are the only path on a
// big-endian host, so tests/codec_byte_order_test.cc checks them directly
// against the word path and against literal byte strings.
#ifndef CASTREAM_IO_LITTLE_ENDIAN_H_
#define CASTREAM_IO_LITTLE_ENDIAN_H_

#include <concepts>
#include <cstddef>
#include <cstdint>
#include <type_traits>

namespace castream::io {

namespace detail {

/// \brief The fixed-width integers the wire carries.
template <typename T>
concept WireInt = std::same_as<T, uint32_t> || std::same_as<T, uint64_t> ||
                  std::same_as<T, int32_t> || std::same_as<T, int64_t>;

/// \brief Portable little-endian store of one value into sizeof(T) bytes
/// at `out`, one byte at a time. The word path must write exactly these
/// bytes; it is the only path on a big-endian host.
template <WireInt T>
void StoreLE(T v, char* out) {
  const auto u = static_cast<std::make_unsigned_t<T>>(v);
  for (size_t i = 0; i < sizeof(T); ++i) {
    out[i] = static_cast<char>((u >> (8 * i)) & 0xff);
  }
}

/// \brief Portable little-endian load of sizeof(T) bytes at `in`, one byte
/// at a time (no alignment requirement).
template <WireInt T>
T LoadLE(const std::byte* in) {
  std::make_unsigned_t<T> u = 0;
  for (size_t i = 0; i < sizeof(T); ++i) {
    u |= static_cast<std::make_unsigned_t<T>>(static_cast<uint8_t>(in[i]))
         << (8 * i);
  }
  return static_cast<T>(u);
}

}  // namespace detail

}  // namespace castream::io

#endif  // CASTREAM_IO_LITTLE_ENDIAN_H_
