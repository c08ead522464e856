// Minimal RAII TCP sockets for the continuous aggregation service.
//
// Everything here is loopback/LAN plumbing with the same error discipline
// as the rest of the library: fallible calls return Status/Result, short
// reads and writes are loud errors (never silent truncation), and the one
// *retryable* failure class — the peer is not there right now (connect
// refused, connection reset, peer closed) — is distinguished as
// Status::Unavailable so reconnect-with-backoff loops can key on the code
// instead of parsing messages. Deterministic failures (bad address, EOF in
// the middle of a frame) stay InvalidArgument/Internal and are never
// retried.
#ifndef CASTREAM_NET_SOCKET_H_
#define CASTREAM_NET_SOCKET_H_

#include <chrono>
#include <cstddef>
#include <cstdint>
#include <optional>
#include <span>
#include <string>
#include <utility>

#include "src/common/result.h"
#include "src/common/status.h"

namespace castream::net {

/// \brief Owning file-descriptor handle (move-only; closes on destruction).
class Socket {
 public:
  Socket() = default;
  explicit Socket(int fd) : fd_(fd) {}
  ~Socket() { Close(); }

  Socket(Socket&& other) noexcept : fd_(std::exchange(other.fd_, -1)) {}
  Socket& operator=(Socket&& other) noexcept {
    if (this != &other) {
      Close();
      fd_ = std::exchange(other.fd_, -1);
    }
    return *this;
  }
  Socket(const Socket&) = delete;
  Socket& operator=(const Socket&) = delete;

  int fd() const { return fd_; }
  bool valid() const { return fd_ >= 0; }
  void Close();

  /// \brief Half-closes the read side: a peer (or owner thread) blocked in
  /// recv on this socket drains what already arrived and then sees EOF.
  /// This is the graceful-shutdown primitive — in-flight bytes are still
  /// delivered, only *future* traffic is cut off.
  void ShutdownRead();

  /// \brief Bounds every subsequent ReadFull wait, so a reader on a wedged
  /// peer fails with Unavailable instead of blocking forever.
  Status SetReadTimeout(std::chrono::milliseconds timeout);

  /// \brief Best-effort liveness probe: true iff the peer has closed or
  /// reset the connection (a FIN/RST is pending). Never blocks and never
  /// consumes data (non-blocking MSG_PEEK); an invalid socket counts as
  /// disconnected. Callers that cache per-connection state (the
  /// publisher's "already acked" set) must check this before trusting the
  /// cache — otherwise the cache can outlive the connection it was learned
  /// on and suppress the very write that would have exposed the dead peer.
  bool LooksDisconnected() const;

 private:
  int fd_ = -1;
};

/// \brief Connects to host:port once. Refused/unreachable -> Unavailable
/// (the peer may simply not be up yet); a malformed host -> InvalidArgument.
Result<Socket> TcpConnect(const std::string& host, uint16_t port);

/// \brief Writes all of `bytes`, then all of `more`, or fails. Both spans
/// go out through one gathering send per attempt, so a frame's header and
/// payload need no joined copy. A short write is retried from where it
/// stopped; a failed send (peer gone) is Unavailable — the caller must treat
/// the connection as dead.
Status WriteFull(Socket& socket, std::span<const std::byte> bytes,
                 std::span<const std::byte> more = {});

/// \brief Reads exactly out.size() bytes or fails. EOF *before the first
/// byte* returns false (a clean close between frames); EOF or an error
/// mid-span is a loud failure (a partial frame is never handed upward).
Result<bool> ReadFull(Socket& socket, std::span<std::byte> out);

/// \brief Listening socket bound to 127.0.0.1 with SO_REUSEADDR (a
/// restarted reducer rebinds its old port immediately).
class Listener {
 public:
  /// \brief Binds and listens; port 0 picks an ephemeral port (read it back
  /// via port()).
  static Result<Listener> Bind(uint16_t port);

  Listener(Listener&&) noexcept = default;
  Listener& operator=(Listener&&) noexcept = default;

  uint16_t port() const { return port_; }

  /// \brief Accepts one connection, waiting at most `timeout` (poll-based,
  /// so a shutdown flag can be rechecked on a cadence). nullopt on timeout.
  Result<std::optional<Socket>> Accept(std::chrono::milliseconds timeout);

  void Close() { socket_.Close(); }

 private:
  Listener(Socket socket, uint16_t port)
      : socket_(std::move(socket)), port_(port) {}

  Socket socket_;
  uint16_t port_ = 0;
};

}  // namespace castream::net

#endif  // CASTREAM_NET_SOCKET_H_
