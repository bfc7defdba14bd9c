// Frame transport: length-prefixed, CRC-checked byte frames over stream
// sockets (Unix-domain or loopback/remote TCP).
//
// This is the process-boundary substrate under the sharded service: the
// wire format (service/wire.h) defines *what* a task looks like in bytes,
// and a FrameChannel moves those byte strings between processes without
// tearing them. Each frame on the stream is
//
//   u32 magic ("MOQF")  u32 payload length  u32 CRC32(payload)  payload
//
// with all header fields little-endian. The CRC is verified before a frame
// is handed to the caller, so a flipped bit anywhere in the payload
// surfaces as kError at the transport — the layers above never parse
// corrupt bytes. (Wire task frames carry their own CRC too; the two checks
// guard different failure domains: the socket path here, storage and
// re-framing there.)
//
// Robustness contract:
//   * Send() and Recv() are partial-I/O-safe: short reads and short writes
//     (including the 1-byte-at-a-time worst case) are looped to completion,
//     and EINTR is retried. A test hook (set_io_chunk_limit) forces the
//     torn-I/O paths deterministically.
//   * Recv() keeps incremental state across calls: a frame that arrives
//     half inside one timeout window and half in the next is reassembled,
//     never dropped or misparsed.
//   * A peer that closes at a frame boundary yields kClosed; a close in
//     the middle of a frame — the signature of a killed process — yields
//     kError. Both mean "dead" to the failover machinery; the distinction
//     matters only for diagnostics.
//   * Recv() and Accept()/Connect take millisecond timeouts (-1 = block),
//     so a supervisor can bound how long a silent shard is trusted.
//   * Every socket is created close-on-exec, so a spawned shardd child
//     never inherits the parent's sockets to other shards (an inherited
//     copy would keep a killed shard's connection from reaching EOF).
//
// Thread-safety: one concurrent sender plus one concurrent receiver per
// channel is supported — the two directions share no mutable state, down
// to the error strings (last_error() is the receive direction's,
// send_error() the send direction's). Multiple concurrent senders or
// receivers must be serialized by the caller; RemoteShard's send_mu_ is
// the canonical example.
#ifndef MOQO_NET_FRAME_CHANNEL_H_
#define MOQO_NET_FRAME_CHANNEL_H_

#include <cstddef>
#include <cstdint>
#include <optional>
#include <string>
#include <utility>
#include <vector>

namespace moqo {
namespace net {

/// First bytes of every frame header ("MOQF" little-endian).
inline constexpr uint32_t kFrameMagic = 0x46514f4du;

/// Refuse frames larger than this (a corrupt length field must not turn
/// into a multi-gigabyte allocation).
inline constexpr uint32_t kMaxFramePayload = 64u * 1024u * 1024u;

/// Frame header size: magic + length + CRC.
inline constexpr size_t kFrameHeaderBytes = 12;

/// Outcome of one transport operation.
enum class IoStatus {
  kOk,
  /// The timeout elapsed first. Recv() keeps any partial frame buffered;
  /// calling it again resumes where it left off.
  kTimeout,
  /// The peer closed cleanly at a frame boundary.
  kClosed,
  /// Transport failure: syscall error, EOF mid-frame (a killed peer), bad
  /// magic, oversized length, or CRC mismatch. See last_error().
  kError,
};

/// Serializes `payload` into header + payload frame bytes. Exposed so
/// tests can hand-craft torn or corrupted frames byte by byte.
std::vector<uint8_t> FrameBytes(const std::vector<uint8_t>& payload);

/// One framed stream connection. Move-only; owns (and closes) its fd.
class FrameChannel {
 public:
  /// Wraps a connected stream socket fd, taking ownership.
  explicit FrameChannel(int fd) : fd_(fd) {}
  FrameChannel() = default;
  ~FrameChannel() { Close(); }

  FrameChannel(FrameChannel&& other) noexcept { *this = std::move(other); }
  FrameChannel& operator=(FrameChannel&& other) noexcept;
  FrameChannel(const FrameChannel&) = delete;
  FrameChannel& operator=(const FrameChannel&) = delete;

  /// Writes one frame, looping over short writes. Returns kClosed if the
  /// peer is gone (EPIPE/ECONNRESET — never a SIGPIPE), kError on other
  /// failures or an unconnected channel.
  IoStatus Send(const std::vector<uint8_t>& payload);

  /// Reads one frame into `*payload`, waiting up to `timeout_ms`
  /// (-1 = indefinitely) for it to complete. Partial frames survive a
  /// kTimeout return and are completed by later calls. On kOk the payload
  /// has passed its CRC check.
  IoStatus Recv(std::vector<uint8_t>* payload, int timeout_ms);

  /// Closes the fd (idempotent). A blocked peer sees EOF. Not safe to
  /// call while another thread is inside Send()/Recv() on this channel —
  /// use Shutdown() for that (see below), and Close() after the other
  /// thread is joined.
  void Close();

  /// Shuts the socket down both ways without closing the fd: a thread
  /// blocked in Recv() (here or in the peer process) wakes with
  /// kClosed/kError, and later Send()s fail. Unlike Close() this is safe
  /// to call concurrently with Send()/Recv() on the same channel — the fd
  /// stays valid (no reuse hazard) and no channel state is written — so
  /// it is the way one thread unblocks another's receive loop during
  /// teardown. Idempotent.
  void Shutdown();

  bool connected() const { return fd_ >= 0; }
  int fd() const { return fd_; }

  /// Human-readable reason of the last receive-direction kError/kClosed
  /// (Recv() and frame parsing). Owned by the receiver thread: a
  /// concurrent Send() failure never clobbers it.
  const std::string& last_error() const { return rx_error_; }

  /// Human-readable reason of the last Send() kError/kClosed. Owned by
  /// the sender thread, symmetric to last_error().
  const std::string& send_error() const { return tx_error_; }

  /// Test hook: caps every read/write syscall at `limit` bytes (0 =
  /// unlimited), forcing the partial-I/O reassembly paths.
  void set_io_chunk_limit(size_t limit) { chunk_limit_ = limit; }

  /// A connected socketpair of channels (for tests and in-process use).
  /// Returns false on syscall failure.
  static bool Pair(FrameChannel* a, FrameChannel* b);

 private:
  /// Appends up to `want` more bytes to rx_. Returns kOk if some arrived.
  IoStatus FillRx(size_t want, int timeout_ms);

  int fd_ = -1;
  size_t chunk_limit_ = 0;
  /// Per-direction error state: rx_error_ is written only under Recv()
  /// (receiver thread), tx_error_ only under Send() (sender thread). One
  /// merged string here would be the channel's only cross-direction write
  /// — a data race under the one-sender + one-receiver contract.
  std::string rx_error_;
  std::string tx_error_;
  /// Reassembly buffer of the frame currently being received: header
  /// first, then header + payload. Reset after each completed frame.
  std::vector<uint8_t> rx_;
  /// Parsed from the header once rx_ holds kFrameHeaderBytes.
  uint32_t rx_payload_len_ = 0;
  uint32_t rx_crc_ = 0;
  bool rx_have_header_ = false;
};

/// A listening socket producing FrameChannels. Move-only. A Unix-domain
/// listener unlinks its socket path on destruction.
class FrameListener {
 public:
  FrameListener() = default;
  ~FrameListener() { Close(); }
  FrameListener(FrameListener&& other) noexcept { *this = std::move(other); }
  FrameListener& operator=(FrameListener&& other) noexcept;
  FrameListener(const FrameListener&) = delete;
  FrameListener& operator=(const FrameListener&) = delete;

  /// Listens on a Unix-domain socket at `path` (unlinked first if stale).
  static std::optional<FrameListener> ListenUnix(const std::string& path,
                                                 std::string* error);

  /// Listens on loopback TCP `port` (0 = kernel-assigned; see port()).
  static std::optional<FrameListener> ListenTcp(uint16_t port,
                                                std::string* error);

  /// Accepts one connection, waiting up to `timeout_ms` (-1 = block).
  /// Returns std::nullopt on timeout or error (see last_error()).
  std::optional<FrameChannel> Accept(int timeout_ms);

  void Close();

  bool listening() const { return fd_ >= 0; }
  /// Bound TCP port (0 for Unix-domain listeners).
  uint16_t port() const { return port_; }
  const std::string& path() const { return path_; }
  const std::string& last_error() const { return last_error_; }

 private:
  int fd_ = -1;
  uint16_t port_ = 0;
  std::string path_;
  std::string last_error_;
};

/// Connects to a Unix-domain socket, waiting up to `timeout_ms` for the
/// connection to be accepted. Returns std::nullopt (with a reason in
/// `*error` if non-null) on failure or timeout.
std::optional<FrameChannel> ConnectUnix(const std::string& path,
                                        int timeout_ms,
                                        std::string* error = nullptr);

/// Connects to `host:port` over TCP with a connect timeout.
std::optional<FrameChannel> ConnectTcp(const std::string& host,
                                       uint16_t port, int timeout_ms,
                                       std::string* error = nullptr);

}  // namespace net
}  // namespace moqo

#endif  // MOQO_NET_FRAME_CHANNEL_H_
