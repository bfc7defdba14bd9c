// The shard abstraction behind ShardRouter: one scheduler's worth of
// capacity addressed through a uniform Submit/Suspend/Resume/Drain/Stop
// surface, regardless of where the scheduler actually runs.
//
// Two implementations exist. LocalShard (below) wraps an in-process
// OnlineScheduler one-to-one — the original sharding mode, still the
// default. RemoteShard (service/remote_shard.h) speaks the same surface
// over a frame channel to a shard server in another process. The router
// mixes both behind one consistent-hash ring and cannot tell them apart —
// which is the point: every migration already round-trips the wire format,
// so whether the destination is a function call or a socket away changes
// only who performs the decode.
//
// Failure surface: an in-process shard cannot die, so LocalShard::alive()
// is constant true and TakeOrphans() is empty. A remote shard dies with
// its process; the router then calls TakeOrphans() to recover the last
// known wire frame of every task that was in flight there — each paired
// with the promise feeding the original Submit() future — and replays
// them onto surviving shards (ShardRouter::FailShard).
#ifndef MOQO_SERVICE_SHARD_H_
#define MOQO_SERVICE_SHARD_H_

#include <cstdint>
#include <future>
#include <memory>
#include <optional>
#include <utility>
#include <vector>

#include "service/batch_optimizer.h"
#include "service/online_scheduler.h"

namespace moqo {

/// One in-flight task recovered from a dead shard: the freshest wire frame
/// the router-side ever held for it (the submit frame, superseded by each
/// periodic checkpoint snapshot the shard shipped back) plus the promise
/// feeding the original Submit() future. Replaying the frame elsewhere
/// re-runs only the steps after the last snapshot; the checkpoint restores
/// bitwise, so iteration-bounded results are unaffected by the failover.
struct OrphanTask {
  /// The task's submission index on the dead shard (the router's Entry
  /// records the same index, which is how the two are matched back up).
  size_t local_index = 0;
  /// The dead connection's request id (diagnostics).
  uint64_t request_id = 0;
  /// EncodeWireTask() bytes: the submit frame or the latest snapshot.
  std::vector<uint8_t> frame;
  /// Fulfills the future returned by the original Submit().
  std::promise<BatchTaskResult> promise;
};

/// One shard of a sharded service. Mirrors the OnlineScheduler lifecycle
/// contract: Start() idempotent, Stop() at most once, Submit/Suspend/
/// Resume/Drain thread-safe. Calls arrive serialized by the router's
/// mutex, but implementations must not require that.
class Shard {
 public:
  virtual ~Shard() = default;

  virtual void Start() = 0;

  /// Admits one fresh task. std::nullopt on rejection (full kReject
  /// window, shard stopping, or — remote — the connection is down).
  virtual std::optional<std::future<BatchTaskResult>> Submit(
      const BatchTask& task) = 0;

  /// Blocks until every admitted task completed (or, remote, the
  /// connection died — futures then fail rather than hang).
  virtual void Drain() = 0;

  /// Drains and shuts the shard down, returning its report over all local
  /// submissions in local submission order. At most once.
  virtual BatchReport Stop() = 0;

  /// Drains one unfinished task off the shard mid-run. std::nullopt if it
  /// already finished, the index is invalid, or the shard is unreachable.
  virtual std::optional<SuspendedTask> Suspend(size_t submission_index) = 0;

  /// Re-admits a suspended task (possibly from another shard). False —
  /// leaving `task` intact for a retry elsewhere — on refusal.
  virtual bool Resume(SuspendedTask& task) = 0;

  /// Counter snapshot. A successful Submit()/Resume() makes the task's
  /// local index stats().submitted - 1 (the router relies on this under
  /// its own mutex).
  virtual ShardStats stats() const = 0;

  /// False once the shard's process/connection is known dead. A dead
  /// shard rejects all work; its recovery state is TakeOrphans().
  virtual bool alive() const = 0;

  /// Recovers the in-flight tasks of a dead shard (empty while alive, and
  /// always empty for in-process shards). Each orphan's promise is moved
  /// out, so the caller owns delivery from here on.
  virtual std::vector<OrphanTask> TakeOrphans() { return {}; }
};

/// The in-process shard: a thin forwarding wrapper around an owned
/// OnlineScheduler.
class LocalShard : public Shard {
 public:
  LocalShard(OnlineConfig config, OptimizerFactory make_optimizer)
      : scheduler_(std::make_unique<OnlineScheduler>(
            std::move(config), std::move(make_optimizer))) {}

  void Start() override { scheduler_->Start(); }
  std::optional<std::future<BatchTaskResult>> Submit(
      const BatchTask& task) override {
    return scheduler_->Submit(task);
  }
  void Drain() override { scheduler_->Drain(); }
  BatchReport Stop() override { return scheduler_->Stop(); }
  std::optional<SuspendedTask> Suspend(size_t submission_index) override {
    return scheduler_->Suspend(submission_index);
  }
  bool Resume(SuspendedTask& task) override {
    return scheduler_->Resume(task);
  }
  ShardStats stats() const override { return scheduler_->stats(); }
  bool alive() const override { return true; }

  OnlineScheduler* scheduler() { return scheduler_.get(); }

 private:
  std::unique_ptr<OnlineScheduler> scheduler_;
};

}  // namespace moqo

#endif  // MOQO_SERVICE_SHARD_H_
