#include "src/net/frame.h"

#include <array>

#include "src/io/decoder.h"
#include "src/io/encoder.h"

namespace castream::net {

void EncodeFrameHeader(const FrameHeader& header, std::string* out) {
  io::Encoder enc(out);
  enc.PutU32(kFrameMagic);
  enc.PutU32(static_cast<uint32_t>(header.type));
  enc.PutU32(header.worker);
  enc.PutU32(header.shard);
  enc.PutU64(header.session);
  enc.PutU64(header.epoch);
  enc.PutU64(header.payload_bytes);
}

Status DecodeFrameHeader(std::span<const std::byte> bytes,
                         FrameHeader* header) {
  io::Decoder dec(bytes);
  uint32_t magic = 0;
  uint32_t type = 0;
  CASTREAM_RETURN_NOT_OK(dec.ReadU32(&magic));
  if (magic != kFrameMagic) {
    return Status::InvalidArgument(
        "frame: bad magic (not a CASF service frame)");
  }
  CASTREAM_RETURN_NOT_OK(dec.ReadU32(&type));
  if (type < static_cast<uint32_t>(FrameType::kPublish) ||
      type > static_cast<uint32_t>(FrameType::kQueryReply)) {
    return Status::InvalidArgument("frame: unknown frame type " +
                                   std::to_string(type));
  }
  header->type = static_cast<FrameType>(type);
  CASTREAM_RETURN_NOT_OK(dec.ReadU32(&header->worker));
  CASTREAM_RETURN_NOT_OK(dec.ReadU32(&header->shard));
  CASTREAM_RETURN_NOT_OK(dec.ReadU64(&header->session));
  CASTREAM_RETURN_NOT_OK(dec.ReadU64(&header->epoch));
  CASTREAM_RETURN_NOT_OK(dec.ReadU64(&header->payload_bytes));
  if (header->payload_bytes > kMaxPayloadBytes) {
    return Status::InvalidArgument(
        "frame: declared payload length exceeds the frame cap (corrupt or "
        "hostile header)");
  }
  return Status::OK();
}

Status WriteFrame(Socket& socket, FrameHeader header,
                  std::string_view payload) {
  header.payload_bytes = payload.size();
  std::string head;
  EncodeFrameHeader(header, &head);
  // One send path: header and payload leave through the same gathering
  // send, so they can't be torn by an error between two writes, and the
  // payload (megabytes for a dense shard blob) is never copied.
  return WriteFull(socket, io::BytesOf(head),
                   std::span<const std::byte>(
                       reinterpret_cast<const std::byte*>(payload.data()),
                       payload.size()));
}

Result<std::optional<Frame>> ReadFrame(Socket& socket) {
  std::array<std::byte, kFrameHeaderBytes> header_bytes;
  CASTREAM_ASSIGN_OR_RETURN(
      bool got_header,
      ReadFull(socket, std::span<std::byte>(header_bytes)));
  if (!got_header) return std::optional<Frame>(std::nullopt);

  Frame frame;
  CASTREAM_RETURN_NOT_OK(
      DecodeFrameHeader(std::span<const std::byte>(header_bytes),
                        &frame.header));
  frame.payload.resize(frame.header.payload_bytes);
  if (!frame.payload.empty()) {
    CASTREAM_ASSIGN_OR_RETURN(
        bool got_payload,
        ReadFull(socket,
                 std::span<std::byte>(
                     reinterpret_cast<std::byte*>(frame.payload.data()),
                     frame.payload.size())));
    if (!got_payload) {
      return Status::InvalidArgument(
          "frame: peer closed after the header but before the payload");
    }
  }
  return std::optional<Frame>(std::move(frame));
}

}  // namespace castream::net
