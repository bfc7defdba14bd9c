// Client half of the cross-process shard transport: the Shard
// implementation the router uses when the scheduler lives in another
// process.
//
// A RemoteShard owns one frame channel to a shard server and a receiver
// thread that continuously drains the server's reply stream. Submit() and
// Resume() encode the task as a wire frame, send it as a kSubmit message,
// and register a pending slot holding the submitter's promise plus the
// freshest recovery frame for the task (the submit frame at first, then
// each kSnapshot the server ships back). The receiver fulfills promises as
// kResult/kTaskError messages arrive, so futures handed out by Submit()
// behave exactly like a local shard's — including across a failover.
//
// Death detection: a mid-frame EOF (killed process), a receive error, or
// prolonged silence (the server heartbeats; see
// RemoteShardConfig::silence_timeout_ms) marks the shard dead, fires the
// death callback once, and leaves every unfinished task recoverable:
// TakeOrphans() yields (frame, promise) pairs the router replays onto
// surviving shards (ShardRouter::FailShard). Promises are never failed by
// death itself — only by abandonment, with the shard's label and the
// task's route context in the error text.
//
// Threading: the public surface is called under the router's mutex (one
// caller at a time) but is internally locked regardless; the receiver
// thread is the only other actor and never sends, so the channel's
// one-sender/one-receiver contract holds. The death callback runs on the
// receiver thread and must only hand off (the supervisor enqueues and
// returns) — calling back into this shard or the router from it deadlocks.
#ifndef MOQO_SERVICE_REMOTE_SHARD_H_
#define MOQO_SERVICE_REMOTE_SHARD_H_

#include <cstdint>
#include <functional>
#include <future>
#include <map>
#include <optional>
#include <string>
#include <thread>
#include <vector>

#include "common/thread_annotations.h"
#include "net/frame_channel.h"
#include "service/shard.h"
#include "service/shard_protocol.h"

namespace moqo {

/// Configuration for one RemoteShard connection.
struct RemoteShardConfig {
  /// Receiver poll granularity (also bounds death-detection latency on
  /// silence).
  int recv_poll_ms = 50;
  /// The shard is declared dead after this much silence from the server,
  /// whose heartbeat cadence must be comfortably shorter. 0 disables the
  /// silence check (socket death still detects).
  int silence_timeout_ms = 5000;
  /// Bound on rendezvous waits: Suspend() waiting for kSuspended, Stop()
  /// waiting for the kBye handshake.
  int op_timeout_ms = 10000;
};

/// See file header.
class RemoteShard : public Shard {
 public:
  /// Takes ownership of a connected channel to a shard server.
  RemoteShard(RemoteShardConfig config, net::FrameChannel channel);

  /// Stops the receiver and fails any promise still unclaimed (tasks
  /// neither finished nor taken as orphans) descriptively.
  ~RemoteShard() override;

  /// Invoked exactly once, from the receiver thread, when the shard is
  /// declared dead. Conventionally set before Start(); taking mu_ anyway
  /// keeps a late setter from racing the receiver reading the callback.
  void set_death_callback(std::function<void(RemoteShard*)> callback)
      EXCLUDES(mu_);

  /// Diagnostic label ("shard 3 (pid 12345)") stamped into every error
  /// this shard raises. Conventionally set before Start(); guarded like
  /// the death callback because the receiver thread reads it.
  void set_label(std::string label) EXCLUDES(mu_);

  void Start() override EXCLUDES(mu_);
  std::optional<std::future<BatchTaskResult>> Submit(
      const BatchTask& task) override EXCLUDES(mu_, send_mu_);
  void Drain() override EXCLUDES(mu_);
  BatchReport Stop() override EXCLUDES(mu_, send_mu_);
  std::optional<SuspendedTask> Suspend(size_t submission_index) override
      EXCLUDES(mu_, send_mu_);
  bool Resume(SuspendedTask& task) override EXCLUDES(mu_, send_mu_);
  /// `snapshots` counts kSnapshot messages applied (recovery frames
  /// refreshed).
  ShardStats stats() const override EXCLUDES(mu_);
  bool alive() const override EXCLUDES(mu_);
  std::vector<OrphanTask> TakeOrphans() override EXCLUDES(mu_);

 private:
  /// One task submitted over this connection, by local index.
  struct Pending {
    uint64_t request_id = 0;
    /// Fulfills the future handed out by Submit() (or carried in by
    /// Resume()). Moved out when the task finishes, is suspended away, or
    /// becomes an orphan.
    std::promise<BatchTaskResult> promise;
    /// Freshest recovery frame: the submit frame, superseded by each
    /// snapshot.
    std::vector<uint8_t> frame;
    bool done = false;
    /// Suspended away, orphaned away, or rejected — no longer this
    /// shard's to finish.
    bool migrated = false;
    /// Valid once done: the decoded result for the Stop() report.
    BatchTaskResult result;
  };

  void ReceiverLoop() EXCLUDES(mu_);
  /// Declares the shard dead (idempotent) and wakes every waiter. The
  /// death callback fires outside the lock, on the receiver thread.
  void MarkDead(const std::string& reason) EXCLUDES(mu_);
  /// Sends one protocol message. False if the transport refused it (the
  /// shard is then marked dead by the receiver or here). Never called
  /// with mu_ held: send_mu_ sits strictly outside mu_ in the lock order,
  /// and a blocked send must not stall the receiver.
  bool SendRequest(uint8_t type, uint64_t request_id,
                   std::vector<uint8_t> body) EXCLUDES(mu_, send_mu_);
  /// Common Submit()/Resume() path: register a pending entry, then ship
  /// the task frame. On a refused send `*promise` is handed back intact.
  bool SubmitFrame(std::vector<uint8_t> frame,
                   std::promise<BatchTaskResult>* promise)
      EXCLUDES(mu_, send_mu_);
  /// Receiver-side message dispatch. `lock` holds mu_ (waiters are
  /// notified through it).
  void HandleMessage(MutexLock& lock, Message&& message) REQUIRES(mu_);

  RemoteShardConfig config_;
  /// Two independent directions by contract: exactly one sender at a time
  /// (serialized by send_mu_) and the receiver thread; FrameChannel keeps
  /// per-direction state, so the halves share nothing.
  net::FrameChannel channel_;

  mutable Mutex mu_;
  /// Serializes senders (router thread vs. destructor).
  Mutex send_mu_;
  CondVar cv_;
  /// Started once under mu_ in Start(), joined by Stop()/the destructor
  /// without the lock (joining under mu_ would deadlock the receiver).
  std::thread receiver_;
  std::function<void(RemoteShard*)> death_callback_ GUARDED_BY(mu_);
  std::string label_ GUARDED_BY(mu_) = "remote shard";
  std::vector<Pending> pending_ GUARDED_BY(mu_);
  /// request id -> local index. Lookup only — never iterated, so its
  /// unordered cousin would be safe too; std::map keeps failover frame
  /// recovery order deterministic anyway.
  std::map<uint64_t, size_t> index_by_request_ GUARDED_BY(mu_);
  uint64_t next_request_id_ GUARDED_BY(mu_) = 1;
  /// Unfinished tasks this shard still owes results for.
  size_t open_ GUARDED_BY(mu_) = 0;
  size_t snapshots_received_ GUARDED_BY(mu_) = 0;
  /// Rendezvous slot of the (single, router-serialized) Suspend() in
  /// flight.
  uint64_t suspend_request_ GUARDED_BY(mu_) = 0;
  std::optional<SuspendedTask> suspend_result_ GUARDED_BY(mu_);
  bool suspend_failed_ GUARDED_BY(mu_) = false;
  bool started_ GUARDED_BY(mu_) = false;
  bool stopping_ GUARDED_BY(mu_) = false;
  bool bye_received_ GUARDED_BY(mu_) = false;
  bool dead_ GUARDED_BY(mu_) = false;
  std::string death_reason_ GUARDED_BY(mu_);
};

}  // namespace moqo

#endif  // MOQO_SERVICE_REMOTE_SHARD_H_
