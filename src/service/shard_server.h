// Server half of the cross-process shard transport: one process hosting
// one OnlineScheduler behind a frame channel.
//
// A ShardServer serves one connection at a time. Serve() owns the
// conversation end to end: it decodes protocol messages (shard_protocol.h)
// off the channel, turns kSubmit frames into fresh-task Submit() or —
// when the frame carries a mid-run checkpoint — Resume() on its local
// scheduler, and streams completions back as kResult/kTaskError messages
// tagged with the originating request id. Between messages it pumps: any
// task future that became ready is flushed, queued snapshot messages are
// sent, and a kPing heartbeat goes out when the connection would otherwise
// be silent, so the supervisor on the far side can distinguish "busy" from
// "dead" by clock alone.
//
// Recovery state: when the scheduler's snapshot cadence is enabled
// (OnlineConfig::snapshot_every), every periodic TaskSnapshot is encoded
// as a kSnapshot message and shipped to the router, which retains the
// latest frame per task as the state it replays onto surviving shards if
// this process dies. The sink runs on scheduler worker threads and only
// encodes + enqueues; all socket writes happen on the Serve() thread, so
// the channel never sees two concurrent senders.
//
// Serve() returns true after an orderly kShutdown handshake (drain, flush
// every result, kBye) and false when the connection died first — the
// process exit codes of shardd (shard_server_main.cc) mirror this.
#ifndef MOQO_SERVICE_SHARD_SERVER_H_
#define MOQO_SERVICE_SHARD_SERVER_H_

#include <cstdint>
#include <future>
#include <map>
#include <memory>
#include <vector>

#include "common/thread_annotations.h"
#include "net/frame_channel.h"
#include "service/batch_optimizer.h"
#include "service/online_scheduler.h"

namespace moqo {

/// Configuration for one ShardServer instance.
struct ShardServerConfig {
  /// Configuration of the scheduler hosted behind the connection. Set
  /// snapshot_every > 0 to ship periodic recovery snapshots; the server
  /// installs its own snapshot_sink (any caller-provided sink is
  /// replaced).
  OnlineConfig scheduler;
  /// Recv timeout of the serve loop: how often pending results, queued
  /// snapshots, and the heartbeat are pumped while no request arrives.
  int pump_interval_ms = 20;
  /// A kPing goes out whenever nothing else was sent for this long.
  int heartbeat_ms = 500;
};

/// See file header.
class ShardServer {
 public:
  ShardServer(ShardServerConfig config, OptimizerFactory make_optimizer);

  ShardServer(const ShardServer&) = delete;
  ShardServer& operator=(const ShardServer&) = delete;

  /// Serves `channel` until the peer shuts the conversation down (true)
  /// or the transport dies (false). Creates a fresh scheduler per call;
  /// a server object can serve sequential connections.
  bool Serve(net::FrameChannel* channel);

 private:
  /// One admitted task the server still owes a reply for.
  struct PendingReply {
    uint64_t request_id = 0;
    std::future<BatchTaskResult> future;
  };

  /// State shared between the serve loop and the scheduler worker threads
  /// that publish snapshots.
  struct SnapshotState {
    Mutex mu;
    /// scheduler submission index -> request id, for stamping snapshots.
    std::map<size_t, uint64_t> request_ids GUARDED_BY(mu);
    /// Encoded kSnapshot messages awaiting the serve-loop sender.
    std::vector<std::vector<uint8_t>> outbox GUARDED_BY(mu);
  };

  /// Handles one decoded request. Returns false when the reply could not
  /// be sent (transport death).
  bool HandleSubmit(net::FrameChannel* channel, OnlineScheduler* scheduler,
                    SnapshotState* snapshots, uint64_t request_id,
                    const std::vector<uint8_t>& body);
  bool HandleSuspend(net::FrameChannel* channel, OnlineScheduler* scheduler,
                     SnapshotState* snapshots, uint64_t request_id);
  /// Flushes ready futures, queued snapshots, and — if the connection has
  /// been silent past the heartbeat — a kPing. False on transport death.
  bool Pump(net::FrameChannel* channel, SnapshotState* snapshots,
            bool force_heartbeat);

  /// Sends one protocol message, stamping last_send_millis_.
  bool SendMessage(net::FrameChannel* channel, uint8_t type,
                   uint64_t request_id, std::vector<uint8_t> body);

  ShardServerConfig config_;
  OptimizerFactory make_optimizer_;

  /// Serve()-local state, members only to keep the handlers' signatures
  /// readable; no cross-connection state survives in them.
  std::map<size_t, PendingReply> pending_;
  std::map<uint64_t, size_t> index_by_request_;
  int64_t last_send_millis_ = 0;
};

}  // namespace moqo

#endif  // MOQO_SERVICE_SHARD_SERVER_H_
