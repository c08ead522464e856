// CASF frames over a real loopback connection: WriteFrame sends the header
// and the payload with one gathering send and resumes short writes, so a
// payload many times the socket's send buffer must arrive whole and in
// order, and an empty payload must still make a frame.
#include <netinet/in.h>
#include <sys/socket.h>

#include <chrono>
#include <cstddef>
#include <cstdint>
#include <optional>
#include <string>
#include <thread>

#include <gtest/gtest.h>

#include "src/net/frame.h"
#include "src/net/socket.h"

namespace castream {
namespace {

struct Connection {
  net::Listener listener;
  net::Socket client;
  net::Socket server;
};

Connection Connect() {
  auto listener = net::Listener::Bind(0);
  EXPECT_TRUE(listener.ok());
  auto client = net::TcpConnect("127.0.0.1", listener.value().port());
  EXPECT_TRUE(client.ok());
  auto accepted = listener.value().Accept(std::chrono::seconds(5));
  EXPECT_TRUE(accepted.ok() && accepted.value().has_value());
  return Connection{std::move(listener).value(), std::move(client).value(),
                    std::move(*accepted.value())};
}

int SendBufferBytes(const net::Socket& socket) {
  int bytes = 0;
  socklen_t len = sizeof(bytes);
  EXPECT_EQ(::getsockopt(socket.fd(), SOL_SOCKET, SO_SNDBUF, &bytes, &len), 0);
  return bytes;
}

TEST(NetFrameTest, FrameLargerThanTheSendBufferRoundTrips) {
  Connection conn = Connect();
  // Pin the send buffer, so the payload needs many sends.
  const int send_buffer = 64 << 10;
  ASSERT_EQ(::setsockopt(conn.client.fd(), SOL_SOCKET, SO_SNDBUF,
                         &send_buffer, sizeof(send_buffer)),
            0);
  std::string payload(3 * 1000 * 1000 + 7, '\0');
  for (size_t i = 0; i < payload.size(); ++i) {
    payload[i] = static_cast<char>((i * 2654435761u) >> 13);
  }
  ASSERT_GT(payload.size(), 10u * static_cast<size_t>(
                                      SendBufferBytes(conn.client)));

  net::FrameHeader header;
  header.type = net::FrameType::kPublish;
  header.worker = 3;
  header.shard = 1;
  header.session = 0x0102030405060708u;
  header.epoch = 42;
  Status write_status;
  std::thread writer([&] {
    write_status = net::WriteFrame(conn.client, header, payload);
    if (write_status.ok()) {
      write_status = net::WriteFrame(conn.client, header, std::string());
    }
  });
  auto first = net::ReadFrame(conn.server);
  auto second = net::ReadFrame(conn.server);
  writer.join();
  ASSERT_TRUE(write_status.ok()) << write_status.ToString();

  ASSERT_TRUE(first.ok()) << first.status().ToString();
  ASSERT_TRUE(first.value().has_value());
  const net::Frame& frame = *first.value();
  EXPECT_EQ(frame.header.type, net::FrameType::kPublish);
  EXPECT_EQ(frame.header.worker, 3u);
  EXPECT_EQ(frame.header.shard, 1u);
  EXPECT_EQ(frame.header.session, 0x0102030405060708u);
  EXPECT_EQ(frame.header.epoch, 42u);
  EXPECT_EQ(frame.header.payload_bytes, payload.size());
  EXPECT_TRUE(frame.payload == payload);

  ASSERT_TRUE(second.ok()) << second.status().ToString();
  ASSERT_TRUE(second.value().has_value());
  EXPECT_EQ(second.value()->header.payload_bytes, 0u);
  EXPECT_TRUE(second.value()->payload.empty());

  // Closing the writing end now reads as a clean end of stream.
  conn.client.Close();
  auto eof = net::ReadFrame(conn.server);
  ASSERT_TRUE(eof.ok());
  EXPECT_FALSE(eof.value().has_value());
}

}  // namespace
}  // namespace castream
