#include "src/net/socket.h"

#include <arpa/inet.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <poll.h>
#include <sys/socket.h>
#include <sys/time.h>
#include <sys/uio.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <cstring>

namespace castream::net {

namespace {

std::string Errno(const char* what) {
  return std::string(what) + ": " + std::strerror(errno);
}

/// \brief EINTR-proof close; fd may already be gone (that is fine).
void CloseFd(int fd) {
  if (fd >= 0) ::close(fd);
}

}  // namespace

void Socket::Close() {
  CloseFd(fd_);
  fd_ = -1;
}

void Socket::ShutdownRead() {
  if (fd_ >= 0) ::shutdown(fd_, SHUT_RD);
}

Status Socket::SetReadTimeout(std::chrono::milliseconds timeout) {
  struct timeval tv;
  tv.tv_sec = static_cast<time_t>(timeout.count() / 1000);
  tv.tv_usec = static_cast<suseconds_t>((timeout.count() % 1000) * 1000);
  if (::setsockopt(fd_, SOL_SOCKET, SO_RCVTIMEO, &tv, sizeof(tv)) != 0) {
    return Status::Internal(Errno("setsockopt(SO_RCVTIMEO)"));
  }
  return Status::OK();
}

bool Socket::LooksDisconnected() const {
  if (fd_ < 0) return true;
  char byte = 0;
  while (true) {
    const ssize_t n = ::recv(fd_, &byte, 1, MSG_PEEK | MSG_DONTWAIT);
    if (n > 0) return false;  // data pending (e.g. an unread ack): alive
    if (n == 0) return true;  // orderly FIN from the peer
    if (errno == EINTR) continue;
    // EAGAIN/EWOULDBLOCK: nothing to read, connection open. Anything
    // else (ECONNRESET, ...) means the connection is gone.
    return errno != EAGAIN && errno != EWOULDBLOCK;
  }
}

Result<Socket> TcpConnect(const std::string& host, uint16_t port) {
  struct sockaddr_in addr;
  std::memset(&addr, 0, sizeof(addr));
  addr.sin_family = AF_INET;
  addr.sin_port = htons(port);
  if (::inet_pton(AF_INET, host.c_str(), &addr.sin_addr) != 1) {
    return Status::InvalidArgument("TcpConnect: not an IPv4 address: " + host);
  }
  int fd = ::socket(AF_INET, SOCK_STREAM, 0);
  if (fd < 0) return Status::Internal(Errno("socket"));
  Socket socket(fd);
  if (::connect(fd, reinterpret_cast<struct sockaddr*>(&addr),
                sizeof(addr)) != 0) {
    // Refused / unreachable / timed out: the peer is not there *right now*
    // — the retryable class reconnect loops are built on.
    return Status::Unavailable(Errno("connect"));
  }
  // The service protocol is small frames with request/response turnarounds;
  // Nagle would add 40ms stalls to every publish ack. Best-effort.
  int one = 1;
  (void)::setsockopt(fd, IPPROTO_TCP, TCP_NODELAY, &one, sizeof(one));
  return socket;
}

Status WriteFull(Socket& socket, std::span<const std::byte> bytes,
                 std::span<const std::byte> more) {
  struct iovec iov[2];
  iov[0].iov_base = const_cast<std::byte*>(bytes.data());
  iov[0].iov_len = bytes.size();
  iov[1].iov_base = const_cast<std::byte*>(more.data());
  iov[1].iov_len = more.size();
  struct msghdr msg;
  std::memset(&msg, 0, sizeof(msg));
  msg.msg_iov = iov;
  msg.msg_iovlen = 2;
  while (true) {
    while (msg.msg_iovlen > 0 && msg.msg_iov[0].iov_len == 0) {
      ++msg.msg_iov;  // this span is done (or was empty)
      --msg.msg_iovlen;
    }
    if (msg.msg_iovlen == 0) break;
    // MSG_NOSIGNAL: a dead peer must surface as EPIPE, not kill the
    // process with SIGPIPE.
    const ssize_t n = ::sendmsg(socket.fd(), &msg, MSG_NOSIGNAL);
    if (n < 0) {
      if (errno == EINTR) continue;
      return Status::Unavailable(Errno("sendmsg"));
    }
    // A short write resumes where it stopped, possibly mid-span.
    size_t sent = static_cast<size_t>(n);
    for (struct iovec* v = msg.msg_iov; sent > 0; ++v) {
      const size_t step = std::min(sent, v->iov_len);
      v->iov_base = static_cast<char*>(v->iov_base) + step;
      v->iov_len -= step;
      sent -= step;
    }
  }
  return Status::OK();
}

Result<bool> ReadFull(Socket& socket, std::span<std::byte> out) {
  size_t got = 0;
  while (got < out.size()) {
    const ssize_t n =
        ::recv(socket.fd(), out.data() + got, out.size() - got, 0);
    if (n < 0) {
      if (errno == EINTR) continue;
      return Status::Unavailable(Errno("recv"));
    }
    if (n == 0) {
      if (got == 0) return false;  // clean EOF at a frame boundary
      return Status::InvalidArgument(
          "net: peer closed the connection mid-frame (partial frame "
          "discarded)");
    }
    got += static_cast<size_t>(n);
  }
  return true;
}

Result<Listener> Listener::Bind(uint16_t port) {
  int fd = ::socket(AF_INET, SOCK_STREAM, 0);
  if (fd < 0) return Status::Internal(Errno("socket"));
  Socket socket(fd);
  int one = 1;
  if (::setsockopt(fd, SOL_SOCKET, SO_REUSEADDR, &one, sizeof(one)) != 0) {
    return Status::Internal(Errno("setsockopt(SO_REUSEADDR)"));
  }
  struct sockaddr_in addr;
  std::memset(&addr, 0, sizeof(addr));
  addr.sin_family = AF_INET;
  addr.sin_port = htons(port);
  addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
  if (::bind(fd, reinterpret_cast<struct sockaddr*>(&addr), sizeof(addr)) !=
      0) {
    return Status::Unavailable(Errno("bind"));
  }
  if (::listen(fd, 64) != 0) return Status::Internal(Errno("listen"));
  socklen_t len = sizeof(addr);
  if (::getsockname(fd, reinterpret_cast<struct sockaddr*>(&addr), &len) !=
      0) {
    return Status::Internal(Errno("getsockname"));
  }
  return Listener(std::move(socket), ntohs(addr.sin_port));
}

Result<std::optional<Socket>> Listener::Accept(
    std::chrono::milliseconds timeout) {
  struct pollfd pfd;
  pfd.fd = socket_.fd();
  pfd.events = POLLIN;
  pfd.revents = 0;
  const int ready = ::poll(&pfd, 1, static_cast<int>(timeout.count()));
  if (ready < 0) {
    if (errno == EINTR) return std::optional<Socket>(std::nullopt);
    return Status::Internal(Errno("poll"));
  }
  if (ready == 0) return std::optional<Socket>(std::nullopt);
  const int fd = ::accept(socket_.fd(), nullptr, nullptr);
  if (fd < 0) {
    if (errno == EINTR || errno == ECONNABORTED) {
      return std::optional<Socket>(std::nullopt);
    }
    return Status::Internal(Errno("accept"));
  }
  int one = 1;
  (void)::setsockopt(fd, IPPROTO_TCP, TCP_NODELAY, &one, sizeof(one));
  return std::optional<Socket>(Socket(fd));
}

}  // namespace castream::net
