#include "net/frame_channel.h"

#include <arpa/inet.h>
#include <errno.h>
#include <fcntl.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <poll.h>
#include <string.h>
#include <sys/socket.h>
#include <sys/un.h>
#include <time.h>
#include <unistd.h>

#include <algorithm>
#include <cstring>

#include "core/checkpoint.h"

namespace moqo {
namespace net {

namespace {

/// Monotonic milliseconds for timeout deadlines.
int64_t NowMillis() {
  struct timespec ts;
  clock_gettime(CLOCK_MONOTONIC, &ts);
  return static_cast<int64_t>(ts.tv_sec) * 1000 + ts.tv_nsec / 1000000;
}

/// Milliseconds left until `deadline_ms` (-1 means never): the poll()
/// argument for the next wait.
int RemainingMs(int64_t deadline_ms) {
  if (deadline_ms < 0) return -1;
  int64_t left = deadline_ms - NowMillis();
  if (left <= 0) return 0;
  if (left > 1000000) return 1000000;
  return static_cast<int>(left);
}

int64_t DeadlineFrom(int timeout_ms) {
  return timeout_ms < 0 ? -1 : NowMillis() + timeout_ms;
}

void PutU32(std::vector<uint8_t>* out, uint32_t v) {
  for (int i = 0; i < 4; ++i) {
    out->push_back(static_cast<uint8_t>(v >> (8 * i)));
  }
}

uint32_t GetU32(const uint8_t* p) {
  uint32_t v = 0;
  for (int i = 0; i < 4; ++i) v |= static_cast<uint32_t>(p[i]) << (8 * i);
  return v;
}

/// Marks `fd` (non-)blocking; returns false on fcntl failure.
bool SetNonBlocking(int fd, bool nonblocking) {
  int flags = fcntl(fd, F_GETFL, 0);
  if (flags < 0) return false;
  if (nonblocking) {
    flags |= O_NONBLOCK;
  } else {
    flags &= ~O_NONBLOCK;
  }
  return fcntl(fd, F_SETFL, flags) >= 0;
}

std::string Errno(const std::string& what) {
  return what + ": " + std::strerror(errno);
}

void SetError(std::string* error, const std::string& message) {
  if (error != nullptr) *error = message;
}

}  // namespace

std::vector<uint8_t> FrameBytes(const std::vector<uint8_t>& payload) {
  std::vector<uint8_t> frame;
  frame.reserve(kFrameHeaderBytes + payload.size());
  PutU32(&frame, kFrameMagic);
  PutU32(&frame, static_cast<uint32_t>(payload.size()));
  PutU32(&frame, Crc32(payload));
  frame.insert(frame.end(), payload.begin(), payload.end());
  return frame;
}

FrameChannel& FrameChannel::operator=(FrameChannel&& other) noexcept {
  if (this != &other) {
    Close();
    fd_ = other.fd_;
    other.fd_ = -1;
    chunk_limit_ = other.chunk_limit_;
    rx_error_ = std::move(other.rx_error_);
    tx_error_ = std::move(other.tx_error_);
    rx_ = std::move(other.rx_);
    rx_payload_len_ = other.rx_payload_len_;
    rx_crc_ = other.rx_crc_;
    rx_have_header_ = other.rx_have_header_;
  }
  return *this;
}

void FrameChannel::Close() {
  if (fd_ >= 0) {
    ::close(fd_);
    fd_ = -1;
  }
}

void FrameChannel::Shutdown() {
  // Deliberately leaves fd_ untouched: concurrent Send()/Recv() may be
  // mid-syscall on it (see header).
  if (fd_ >= 0) ::shutdown(fd_, SHUT_RDWR);
}

IoStatus FrameChannel::Send(const std::vector<uint8_t>& payload) {
  if (fd_ < 0) {
    tx_error_ = "send on closed channel";
    return IoStatus::kError;
  }
  if (payload.size() > kMaxFramePayload) {
    tx_error_ = "frame payload exceeds kMaxFramePayload";
    return IoStatus::kError;
  }
  std::vector<uint8_t> frame = FrameBytes(payload);
  size_t sent = 0;
  while (sent < frame.size()) {
    size_t chunk = frame.size() - sent;
    if (chunk_limit_ > 0) chunk = std::min(chunk, chunk_limit_);
    // MSG_NOSIGNAL: a peer killed mid-stream must surface as EPIPE, not
    // take the whole router process down with SIGPIPE.
    ssize_t n = ::send(fd_, frame.data() + sent, chunk, MSG_NOSIGNAL);
    if (n < 0) {
      if (errno == EINTR) continue;
      tx_error_ = Errno("send");
      return (errno == EPIPE || errno == ECONNRESET) ? IoStatus::kClosed
                                                     : IoStatus::kError;
    }
    sent += static_cast<size_t>(n);
  }
  return IoStatus::kOk;
}

IoStatus FrameChannel::FillRx(size_t want, int timeout_ms) {
  struct pollfd pfd;
  pfd.fd = fd_;
  pfd.events = POLLIN;
  int ready = ::poll(&pfd, 1, timeout_ms);
  if (ready < 0) {
    if (errno == EINTR) return IoStatus::kTimeout;  // caller re-loops
    rx_error_ = Errno("poll");
    return IoStatus::kError;
  }
  if (ready == 0) return IoStatus::kTimeout;
  size_t chunk = want;
  if (chunk_limit_ > 0) chunk = std::min(chunk, chunk_limit_);
  size_t old = rx_.size();
  rx_.resize(old + chunk);
  ssize_t n = ::recv(fd_, rx_.data() + old, chunk, 0);
  if (n < 0) {
    rx_.resize(old);
    if (errno == EINTR || errno == EAGAIN || errno == EWOULDBLOCK) {
      return IoStatus::kTimeout;
    }
    rx_error_ = Errno("recv");
    return IoStatus::kError;
  }
  if (n == 0) {
    rx_.resize(old);
    if (old == 0) {
      rx_error_ = "peer closed at frame boundary";
      return IoStatus::kClosed;
    }
    // EOF with a partial frame buffered: the peer died (or was killed)
    // mid-write. Never deliver the torn prefix.
    rx_error_ = "peer closed mid-frame (" + std::to_string(old) +
                " bytes of a partial frame buffered)";
    return IoStatus::kError;
  }
  rx_.resize(old + static_cast<size_t>(n));
  return IoStatus::kOk;
}

IoStatus FrameChannel::Recv(std::vector<uint8_t>* payload, int timeout_ms) {
  if (fd_ < 0) {
    rx_error_ = "recv on closed channel";
    return IoStatus::kError;
  }
  const int64_t deadline = DeadlineFrom(timeout_ms);
  for (;;) {
    // Phase 1: assemble the header.
    if (!rx_have_header_) {
      if (rx_.size() < kFrameHeaderBytes) {
        IoStatus st =
            FillRx(kFrameHeaderBytes - rx_.size(), RemainingMs(deadline));
        if (st == IoStatus::kTimeout && RemainingMs(deadline) == 0) return st;
        if (st != IoStatus::kOk && st != IoStatus::kTimeout) return st;
        continue;
      }
      uint32_t magic = GetU32(rx_.data());
      rx_payload_len_ = GetU32(rx_.data() + 4);
      rx_crc_ = GetU32(rx_.data() + 8);
      if (magic != kFrameMagic) {
        rx_error_ = "bad frame magic";
        return IoStatus::kError;
      }
      if (rx_payload_len_ > kMaxFramePayload) {
        rx_error_ = "frame length " + std::to_string(rx_payload_len_) +
                    " exceeds limit";
        return IoStatus::kError;
      }
      rx_have_header_ = true;
      rx_.reserve(kFrameHeaderBytes + rx_payload_len_);
    }
    // Phase 2: assemble the payload.
    size_t total = kFrameHeaderBytes + rx_payload_len_;
    if (rx_.size() < total) {
      IoStatus st = FillRx(total - rx_.size(), RemainingMs(deadline));
      if (st == IoStatus::kTimeout && RemainingMs(deadline) == 0) return st;
      if (st != IoStatus::kOk && st != IoStatus::kTimeout) return st;
      continue;
    }
    payload->assign(rx_.begin() + static_cast<long>(kFrameHeaderBytes),
                    rx_.end());
    rx_.clear();
    rx_have_header_ = false;
    if (Crc32(*payload) != rx_crc_) {
      payload->clear();
      rx_error_ = "frame CRC mismatch";
      return IoStatus::kError;
    }
    return IoStatus::kOk;
  }
}

bool FrameChannel::Pair(FrameChannel* a, FrameChannel* b) {
  int fds[2];
  if (::socketpair(AF_UNIX, SOCK_STREAM | SOCK_CLOEXEC, 0, fds) != 0) {
    return false;
  }
  *a = FrameChannel(fds[0]);
  *b = FrameChannel(fds[1]);
  return true;
}

FrameListener& FrameListener::operator=(FrameListener&& other) noexcept {
  if (this != &other) {
    Close();
    fd_ = other.fd_;
    other.fd_ = -1;
    port_ = other.port_;
    path_ = std::move(other.path_);
    other.path_.clear();
    last_error_ = std::move(other.last_error_);
  }
  return *this;
}

void FrameListener::Close() {
  if (fd_ >= 0) {
    ::close(fd_);
    fd_ = -1;
  }
  if (!path_.empty()) {
    ::unlink(path_.c_str());
    path_.clear();
  }
}

std::optional<FrameListener> FrameListener::ListenUnix(
    const std::string& path, std::string* error) {
  struct sockaddr_un addr;
  std::memset(&addr, 0, sizeof(addr));
  if (path.size() >= sizeof(addr.sun_path)) {
    SetError(error, "unix socket path too long: " + path);
    return std::nullopt;
  }
  int fd = ::socket(AF_UNIX, SOCK_STREAM | SOCK_CLOEXEC, 0);
  if (fd < 0) {
    SetError(error, Errno("socket"));
    return std::nullopt;
  }
  ::unlink(path.c_str());  // stale socket from a previous (killed) run
  addr.sun_family = AF_UNIX;
  std::memcpy(addr.sun_path, path.c_str(), path.size());
  if (::bind(fd, reinterpret_cast<struct sockaddr*>(&addr), sizeof(addr)) !=
          0 ||
      ::listen(fd, 8) != 0) {
    SetError(error, Errno("bind/listen " + path));
    ::close(fd);
    return std::nullopt;
  }
  FrameListener listener;
  listener.fd_ = fd;
  listener.path_ = path;
  return listener;
}

std::optional<FrameListener> FrameListener::ListenTcp(uint16_t port,
                                                      std::string* error) {
  int fd = ::socket(AF_INET, SOCK_STREAM | SOCK_CLOEXEC, 0);
  if (fd < 0) {
    SetError(error, Errno("socket"));
    return std::nullopt;
  }
  int one = 1;
  ::setsockopt(fd, SOL_SOCKET, SO_REUSEADDR, &one, sizeof(one));
  struct sockaddr_in addr;
  std::memset(&addr, 0, sizeof(addr));
  addr.sin_family = AF_INET;
  addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
  addr.sin_port = htons(port);
  if (::bind(fd, reinterpret_cast<struct sockaddr*>(&addr), sizeof(addr)) !=
          0 ||
      ::listen(fd, 8) != 0) {
    SetError(error, Errno("bind/listen port " + std::to_string(port)));
    ::close(fd);
    return std::nullopt;
  }
  socklen_t len = sizeof(addr);
  if (::getsockname(fd, reinterpret_cast<struct sockaddr*>(&addr), &len) !=
      0) {
    SetError(error, Errno("getsockname"));
    ::close(fd);
    return std::nullopt;
  }
  FrameListener listener;
  listener.fd_ = fd;
  listener.port_ = ntohs(addr.sin_port);
  return listener;
}

std::optional<FrameChannel> FrameListener::Accept(int timeout_ms) {
  if (fd_ < 0) {
    last_error_ = "accept on closed listener";
    return std::nullopt;
  }
  const int64_t deadline = DeadlineFrom(timeout_ms);
  for (;;) {
    struct pollfd pfd;
    pfd.fd = fd_;
    pfd.events = POLLIN;
    int ready = ::poll(&pfd, 1, RemainingMs(deadline));
    if (ready < 0) {
      if (errno == EINTR) continue;
      last_error_ = Errno("poll");
      return std::nullopt;
    }
    if (ready == 0) {
      last_error_ = "accept timed out";
      return std::nullopt;
    }
    int fd = ::accept4(fd_, nullptr, nullptr, SOCK_CLOEXEC);
    if (fd < 0) {
      if (errno == EINTR || errno == EAGAIN || errno == EWOULDBLOCK) {
        continue;
      }
      last_error_ = Errno("accept");
      return std::nullopt;
    }
    return FrameChannel(fd);
  }
}

namespace {

/// Shared tail of the connect helpers: non-blocking connect on `fd` to
/// `addr`, waiting up to `timeout_ms` for completion.
std::optional<FrameChannel> ConnectWithTimeout(int fd,
                                               const struct sockaddr* addr,
                                               socklen_t addr_len,
                                               int timeout_ms,
                                               const std::string& target,
                                               std::string* error) {
  if (!SetNonBlocking(fd, true)) {
    SetError(error, Errno("fcntl " + target));
    ::close(fd);
    return std::nullopt;
  }
  int rc = ::connect(fd, addr, addr_len);
  if (rc != 0 && errno != EINPROGRESS && errno != EAGAIN) {
    SetError(error, Errno("connect " + target));
    ::close(fd);
    return std::nullopt;
  }
  if (rc != 0) {
    const int64_t deadline = DeadlineFrom(timeout_ms);
    for (;;) {
      struct pollfd pfd;
      pfd.fd = fd;
      pfd.events = POLLOUT;
      int ready = ::poll(&pfd, 1, RemainingMs(deadline));
      if (ready < 0 && errno == EINTR) continue;
      if (ready <= 0) {
        SetError(error, "connect " + target + " timed out");
        ::close(fd);
        return std::nullopt;
      }
      int so_error = 0;
      socklen_t len = sizeof(so_error);
      if (::getsockopt(fd, SOL_SOCKET, SO_ERROR, &so_error, &len) != 0 ||
          so_error != 0) {
        SetError(error, "connect " + target + ": " +
                            std::strerror(so_error != 0 ? so_error : errno));
        ::close(fd);
        return std::nullopt;
      }
      break;
    }
  }
  if (!SetNonBlocking(fd, false)) {
    SetError(error, Errno("fcntl " + target));
    ::close(fd);
    return std::nullopt;
  }
  return FrameChannel(fd);
}

}  // namespace

std::optional<FrameChannel> ConnectUnix(const std::string& path,
                                        int timeout_ms, std::string* error) {
  struct sockaddr_un addr;
  std::memset(&addr, 0, sizeof(addr));
  if (path.size() >= sizeof(addr.sun_path)) {
    SetError(error, "unix socket path too long: " + path);
    return std::nullopt;
  }
  int fd = ::socket(AF_UNIX, SOCK_STREAM | SOCK_CLOEXEC, 0);
  if (fd < 0) {
    SetError(error, Errno("socket"));
    return std::nullopt;
  }
  addr.sun_family = AF_UNIX;
  std::memcpy(addr.sun_path, path.c_str(), path.size());
  return ConnectWithTimeout(fd, reinterpret_cast<struct sockaddr*>(&addr),
                            sizeof(addr), timeout_ms, path, error);
}

std::optional<FrameChannel> ConnectTcp(const std::string& host,
                                       uint16_t port, int timeout_ms,
                                       std::string* error) {
  struct sockaddr_in addr;
  std::memset(&addr, 0, sizeof(addr));
  addr.sin_family = AF_INET;
  addr.sin_port = htons(port);
  if (::inet_pton(AF_INET, host.c_str(), &addr.sin_addr) != 1) {
    SetError(error, "unparsable IPv4 address: " + host);
    return std::nullopt;
  }
  int fd = ::socket(AF_INET, SOCK_STREAM | SOCK_CLOEXEC, 0);
  if (fd < 0) {
    SetError(error, Errno("socket"));
    return std::nullopt;
  }
  int one = 1;
  // Frames are small request/response messages; never batch them.
  ::setsockopt(fd, IPPROTO_TCP, TCP_NODELAY, &one, sizeof(one));
  return ConnectWithTimeout(fd, reinterpret_cast<struct sockaddr*>(&addr),
                            sizeof(addr), timeout_ms,
                            host + ":" + std::to_string(port), error);
}

}  // namespace net
}  // namespace moqo
