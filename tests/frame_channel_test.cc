// Frame transport robustness suite: round-trips over socketpairs, torn
// I/O (1-byte chunks on both directions), truncation at every byte of a
// frame followed by peer death, corrupted CRC/magic/length fields,
// partial frames surviving Recv timeouts, duplicate frame delivery, the
// connect/accept timeout paths for Unix-domain and TCP listeners, and
// close-on-exec on every socket handed out.
#include "net/frame_channel.h"

#include <gtest/gtest.h>

#include <fcntl.h>
#include <sys/socket.h>
#include <unistd.h>

#include <chrono>
#include <cstdint>
#include <string>
#include <thread>
#include <vector>

namespace moqo {
namespace net {
namespace {

std::vector<uint8_t> Payload(size_t n, uint8_t salt = 0) {
  std::vector<uint8_t> bytes(n);
  for (size_t i = 0; i < n; ++i) {
    bytes[i] = static_cast<uint8_t>((i * 31 + salt) & 0xff);
  }
  return bytes;
}

std::string TempSocketPath(const char* tag) {
  return "/tmp/moqo-frame-test-" + std::to_string(getpid()) + "-" + tag +
         ".sock";
}

TEST(FrameChannelTest, PairRoundTripsPayloads) {
  FrameChannel a, b;
  ASSERT_TRUE(FrameChannel::Pair(&a, &b));
  for (size_t size : {size_t{1}, size_t{13}, size_t{4096}}) {
    std::vector<uint8_t> sent = Payload(size, static_cast<uint8_t>(size));
    ASSERT_EQ(a.Send(sent), IoStatus::kOk);
    std::vector<uint8_t> got;
    ASSERT_EQ(b.Recv(&got, 1000), IoStatus::kOk);
    EXPECT_EQ(got, sent);
  }
}

TEST(FrameChannelTest, EmptyPayloadRoundTrips) {
  FrameChannel a, b;
  ASSERT_TRUE(FrameChannel::Pair(&a, &b));
  ASSERT_EQ(a.Send({}), IoStatus::kOk);
  std::vector<uint8_t> got{1, 2, 3};
  ASSERT_EQ(b.Recv(&got, 1000), IoStatus::kOk);
  EXPECT_TRUE(got.empty());
}

// The worst-case torn transport: every syscall moves exactly one byte, in
// both directions. Frames must still arrive intact and in order.
TEST(FrameChannelTest, OneByteIoChunksReassemble) {
  FrameChannel a, b;
  ASSERT_TRUE(FrameChannel::Pair(&a, &b));
  a.set_io_chunk_limit(1);
  b.set_io_chunk_limit(1);
  std::vector<uint8_t> first = Payload(100, 1);
  std::vector<uint8_t> second = Payload(57, 2);
  ASSERT_EQ(a.Send(first), IoStatus::kOk);
  ASSERT_EQ(a.Send(second), IoStatus::kOk);
  std::vector<uint8_t> got;
  ASSERT_EQ(b.Recv(&got, 2000), IoStatus::kOk);
  EXPECT_EQ(got, first);
  ASSERT_EQ(b.Recv(&got, 2000), IoStatus::kOk);
  EXPECT_EQ(got, second);
}

// A peer killed mid-write leaves a prefix of a frame on the stream. For
// every possible cut point: a cut before any byte arrived is a clean
// close (kClosed); a cut after at least one byte is a torn frame
// (kError). The receiver must never deliver a partial payload.
TEST(FrameChannelTest, TruncationAtEveryByteThenDeathNeverDelivers) {
  std::vector<uint8_t> frame = FrameBytes(Payload(16, 3));
  for (size_t cut = 0; cut <= frame.size(); ++cut) {
    FrameChannel sender, receiver;
    ASSERT_TRUE(FrameChannel::Pair(&sender, &receiver));
    if (cut > 0) {
      ASSERT_EQ(::send(sender.fd(), frame.data(), cut, MSG_NOSIGNAL),
                static_cast<ssize_t>(cut));
    }
    sender.Close();  // the kill -9
    std::vector<uint8_t> got;
    IoStatus status = receiver.Recv(&got, 1000);
    if (cut == frame.size()) {
      EXPECT_EQ(status, IoStatus::kOk) << "cut=" << cut;
      EXPECT_EQ(got, Payload(16, 3));
    } else if (cut == 0) {
      EXPECT_EQ(status, IoStatus::kClosed) << "cut=" << cut;
    } else {
      EXPECT_EQ(status, IoStatus::kError) << "cut=" << cut;
      EXPECT_TRUE(got.empty()) << "cut=" << cut;
    }
  }
}

TEST(FrameChannelTest, CorruptPayloadFailsCrc) {
  std::vector<uint8_t> frame = FrameBytes(Payload(32, 4));
  frame[kFrameHeaderBytes + 7] ^= 0x40;
  FrameChannel sender, receiver;
  ASSERT_TRUE(FrameChannel::Pair(&sender, &receiver));
  ASSERT_EQ(::send(sender.fd(), frame.data(), frame.size(), MSG_NOSIGNAL),
            static_cast<ssize_t>(frame.size()));
  std::vector<uint8_t> got;
  EXPECT_EQ(receiver.Recv(&got, 1000), IoStatus::kError);
  EXPECT_NE(receiver.last_error().find("CRC"), std::string::npos);
}

// The error strings are per-direction state: a failing Send() must not
// clobber the receive-direction diagnostic another thread may be reading
// (under the one-sender + one-receiver contract the two directions run
// concurrently, so a shared string would also be a data race — the TSan
// variant of the next test exercises exactly that interleaving).
TEST(FrameChannelTest, SendFailureDoesNotClobberReceiveError) {
  std::vector<uint8_t> frame = FrameBytes(Payload(32, 9));
  frame[kFrameHeaderBytes + 3] ^= 0x10;  // corrupt one payload byte
  FrameChannel sender, receiver;
  ASSERT_TRUE(FrameChannel::Pair(&sender, &receiver));
  ASSERT_EQ(::send(sender.fd(), frame.data(), frame.size(), MSG_NOSIGNAL),
            static_cast<ssize_t>(frame.size()));
  std::vector<uint8_t> got;
  ASSERT_EQ(receiver.Recv(&got, 1000), IoStatus::kError);
  ASSERT_NE(receiver.last_error().find("CRC"), std::string::npos);

  // Now fail a send on the same channel: the receive diagnostic survives
  // and the send failure is reported through its own accessor.
  sender.Close();
  receiver.Close();
  EXPECT_EQ(receiver.Send(Payload(4, 1)), IoStatus::kError);
  EXPECT_NE(receiver.send_error().find("send"), std::string::npos);
  EXPECT_NE(receiver.last_error().find("CRC"), std::string::npos)
      << "Send() overwrote the receive-direction error";
}

// One thread hammers Send() into a dead peer while the other drives
// Recv() to an error: with a single shared error string this is a
// write-write race TSan flags; with per-direction strings it is clean.
TEST(FrameChannelTest, ConcurrentSendAndRecvErrorsDoNotRace) {
  FrameChannel a, b;
  ASSERT_TRUE(FrameChannel::Pair(&a, &b));
  b.Shutdown();  // both directions die; fd stays valid on both sides
  std::thread sender([&a] {
    for (int i = 0; i < 100; ++i) {
      a.Send(Payload(16, static_cast<uint8_t>(i)));
    }
  });
  std::vector<uint8_t> got;
  for (int i = 0; i < 100; ++i) {
    a.Recv(&got, 10);
  }
  sender.join();
  // Each direction reports its own failure.
  EXPECT_FALSE(a.last_error().empty());
  EXPECT_FALSE(a.send_error().empty());
}

TEST(FrameChannelTest, BadMagicAndOversizedLengthAreErrors) {
  {
    std::vector<uint8_t> frame = FrameBytes(Payload(8, 5));
    frame[0] ^= 0xff;  // magic
    FrameChannel sender, receiver;
    ASSERT_TRUE(FrameChannel::Pair(&sender, &receiver));
    ASSERT_EQ(::send(sender.fd(), frame.data(), frame.size(), MSG_NOSIGNAL),
              static_cast<ssize_t>(frame.size()));
    std::vector<uint8_t> got;
    EXPECT_EQ(receiver.Recv(&got, 1000), IoStatus::kError);
    EXPECT_NE(receiver.last_error().find("magic"), std::string::npos);
  }
  {
    std::vector<uint8_t> frame = FrameBytes(Payload(8, 6));
    frame[7] = 0xff;  // length field high byte: > kMaxFramePayload
    FrameChannel sender, receiver;
    ASSERT_TRUE(FrameChannel::Pair(&sender, &receiver));
    ASSERT_EQ(::send(sender.fd(), frame.data(), frame.size(), MSG_NOSIGNAL),
              static_cast<ssize_t>(frame.size()));
    std::vector<uint8_t> got;
    EXPECT_EQ(receiver.Recv(&got, 1000), IoStatus::kError);
    EXPECT_NE(receiver.last_error().find("exceeds"), std::string::npos);
  }
}

// The same frame delivered twice is two identical receptions — the
// transport is deliberately dumb about duplicates; idempotency lives in
// the protocol layer (duplicate request ids are rejected there).
TEST(FrameChannelTest, DuplicateFrameDeliversTwice) {
  FrameChannel a, b;
  ASSERT_TRUE(FrameChannel::Pair(&a, &b));
  std::vector<uint8_t> frame = FrameBytes(Payload(24, 7));
  for (int i = 0; i < 2; ++i) {
    ASSERT_EQ(::send(a.fd(), frame.data(), frame.size(), MSG_NOSIGNAL),
              static_cast<ssize_t>(frame.size()));
  }
  std::vector<uint8_t> first, second;
  ASSERT_EQ(b.Recv(&first, 1000), IoStatus::kOk);
  ASSERT_EQ(b.Recv(&second, 1000), IoStatus::kOk);
  EXPECT_EQ(first, second);
  EXPECT_EQ(first, Payload(24, 7));
}

TEST(FrameChannelTest, RecvTimesOutThenCompletes) {
  FrameChannel a, b;
  ASSERT_TRUE(FrameChannel::Pair(&a, &b));
  std::vector<uint8_t> got;
  EXPECT_EQ(b.Recv(&got, 30), IoStatus::kTimeout);
  ASSERT_EQ(a.Send(Payload(10, 8)), IoStatus::kOk);
  EXPECT_EQ(b.Recv(&got, 1000), IoStatus::kOk);
  EXPECT_EQ(got, Payload(10, 8));
}

// A frame split across Recv calls: the first call times out holding a
// partial frame, the rest arrives later, and the reassembled payload is
// delivered intact by the next call.
TEST(FrameChannelTest, PartialFrameSurvivesTimeoutBoundary) {
  FrameChannel a, b;
  ASSERT_TRUE(FrameChannel::Pair(&a, &b));
  std::vector<uint8_t> frame = FrameBytes(Payload(64, 9));
  size_t half = frame.size() / 2;
  ASSERT_EQ(::send(a.fd(), frame.data(), half, MSG_NOSIGNAL),
            static_cast<ssize_t>(half));
  std::vector<uint8_t> got;
  EXPECT_EQ(b.Recv(&got, 50), IoStatus::kTimeout);
  ASSERT_EQ(::send(a.fd(), frame.data() + half, frame.size() - half,
                   MSG_NOSIGNAL),
            static_cast<ssize_t>(frame.size() - half));
  EXPECT_EQ(b.Recv(&got, 1000), IoStatus::kOk);
  EXPECT_EQ(got, Payload(64, 9));
}

TEST(FrameChannelTest, OversizedSendIsRefusedLocally) {
  FrameChannel a, b;
  ASSERT_TRUE(FrameChannel::Pair(&a, &b));
  std::vector<uint8_t> huge(kMaxFramePayload + 1, 0);
  EXPECT_EQ(a.Send(huge), IoStatus::kError);
}

TEST(FrameChannelTest, SendAndRecvOnClosedChannelError) {
  FrameChannel channel;
  EXPECT_EQ(channel.Send({1}), IoStatus::kError);
  std::vector<uint8_t> got;
  EXPECT_EQ(channel.Recv(&got, 10), IoStatus::kError);
}

// Cross-thread teardown: Shutdown() from one thread wakes another thread
// blocked in Recv() on the same channel (kClosed at a frame boundary),
// without invalidating the fd under it — the pattern RemoteShard uses to
// stop its receiver.
TEST(FrameChannelTest, ShutdownUnblocksAConcurrentReceiver) {
  FrameChannel a, b;
  ASSERT_TRUE(FrameChannel::Pair(&a, &b));
  IoStatus seen = IoStatus::kOk;
  std::thread receiver([&] {
    std::vector<uint8_t> got;
    seen = a.Recv(&got, /*timeout_ms=*/-1);  // blocks until shutdown
  });
  std::this_thread::sleep_for(std::chrono::milliseconds(50));
  a.Shutdown();
  receiver.join();
  EXPECT_EQ(seen, IoStatus::kClosed);
  EXPECT_TRUE(a.connected());  // fd still owned; Close is the owner's job
  EXPECT_EQ(a.Send({1}), IoStatus::kClosed);
  a.Close();
  EXPECT_FALSE(a.connected());
}

TEST(FrameListenerTest, UnixListenerAcceptsAndRoundTrips) {
  std::string path = TempSocketPath("unix");
  std::string error;
  auto listener = FrameListener::ListenUnix(path, &error);
  ASSERT_TRUE(listener.has_value()) << error;
  std::thread client([&] {
    auto channel = ConnectUnix(path, 2000);
    ASSERT_TRUE(channel.has_value());
    ASSERT_EQ(channel->Send(Payload(20, 10)), IoStatus::kOk);
  });
  auto accepted = listener->Accept(2000);
  ASSERT_TRUE(accepted.has_value()) << listener->last_error();
  std::vector<uint8_t> got;
  EXPECT_EQ(accepted->Recv(&got, 2000), IoStatus::kOk);
  EXPECT_EQ(got, Payload(20, 10));
  client.join();
}

TEST(FrameListenerTest, AcceptTimesOutWithoutClient) {
  std::string path = TempSocketPath("accept-timeout");
  std::string error;
  auto listener = FrameListener::ListenUnix(path, &error);
  ASSERT_TRUE(listener.has_value()) << error;
  EXPECT_FALSE(listener->Accept(50).has_value());
  EXPECT_NE(listener->last_error().find("timed out"), std::string::npos);
}

TEST(FrameListenerTest, ConnectToMissingUnixSocketFails) {
  std::string error;
  auto channel =
      ConnectUnix(TempSocketPath("nonexistent"), 200, &error);
  EXPECT_FALSE(channel.has_value());
  EXPECT_FALSE(error.empty());
}

TEST(FrameListenerTest, TcpEphemeralPortRoundTrips) {
  std::string error;
  auto listener = FrameListener::ListenTcp(0, &error);
  ASSERT_TRUE(listener.has_value()) << error;
  ASSERT_NE(listener->port(), 0);
  std::thread client([&] {
    auto channel = ConnectTcp("127.0.0.1", listener->port(), 2000, nullptr);
    ASSERT_TRUE(channel.has_value());
    ASSERT_EQ(channel->Send(Payload(33, 11)), IoStatus::kOk);
    std::vector<uint8_t> echo;
    ASSERT_EQ(channel->Recv(&echo, 2000), IoStatus::kOk);
    EXPECT_EQ(echo, Payload(5, 12));
  });
  auto accepted = listener->Accept(2000);
  ASSERT_TRUE(accepted.has_value()) << listener->last_error();
  std::vector<uint8_t> got;
  EXPECT_EQ(accepted->Recv(&got, 2000), IoStatus::kOk);
  EXPECT_EQ(got, Payload(33, 11));
  EXPECT_EQ(accepted->Send(Payload(5, 12)), IoStatus::kOk);
  client.join();
}

bool CloseOnExec(int fd) { return (::fcntl(fd, F_GETFD) & FD_CLOEXEC) != 0; }

// A shardd child spawned later must not inherit the parent's sockets to
// other shards: every fd FrameChannel hands out is close-on-exec.
TEST(FrameChannelTest, SocketsAreCloseOnExec) {
  FrameChannel a, b;
  ASSERT_TRUE(FrameChannel::Pair(&a, &b));
  EXPECT_TRUE(CloseOnExec(a.fd()));
  EXPECT_TRUE(CloseOnExec(b.fd()));

  std::string path = TempSocketPath("cloexec");
  std::string error;
  auto unix_listener = FrameListener::ListenUnix(path, &error);
  ASSERT_TRUE(unix_listener.has_value()) << error;
  auto unix_client = ConnectUnix(path, 2000, &error);
  ASSERT_TRUE(unix_client.has_value()) << error;
  auto unix_server = unix_listener->Accept(2000);
  ASSERT_TRUE(unix_server.has_value()) << unix_listener->last_error();
  EXPECT_TRUE(CloseOnExec(unix_client->fd()));
  EXPECT_TRUE(CloseOnExec(unix_server->fd()));

  auto tcp_listener = FrameListener::ListenTcp(0, &error);
  ASSERT_TRUE(tcp_listener.has_value()) << error;
  auto tcp_client =
      ConnectTcp("127.0.0.1", tcp_listener->port(), 2000, &error);
  ASSERT_TRUE(tcp_client.has_value()) << error;
  EXPECT_TRUE(CloseOnExec(tcp_client->fd()));
}

}  // namespace
}  // namespace net
}  // namespace moqo
