// Consistent-hash shard router: the online service scaled across N
// scheduler shards behind one Submit/Drain/Stop + futures front door.
//
// A ShardRouter owns a set of shards — in-process schedulers (LocalShard)
// and/or connections to shard server processes (RemoteShard), mixed freely
// behind the Shard interface (service/shard.h) — and places every
// submitted query on a consistent-hash ring: each shard contributes
// `virtual_nodes` points keyed by its stable shard id, and a query lands
// on the first point at or after its RouteKey (service/wire.h). Placement
// therefore depends only on the query content, the seed, and the current
// membership — never on submission order — and changing membership moves
// only the keys between the departed/arrived shard's points and their
// predecessors, not the whole keyspace.
//
// Elasticity: AddShard()/RemoveShard() change membership while the service
// runs. The router re-derives every in-flight task's owner and migrates
// the ones whose owner changed: Suspend() drains the task (a portable
// session checkpoint plus its unexpired deadline remainder) off the old
// shard, the task is round-tripped through the wire format — for a remote
// destination the frame really does cross a socket — and Resume() lands
// it on the new owner. The future handed out by the original Submit() is
// untouched throughout and delivers the final result from whichever shard
// finishes the task.
//
// Failover: a remote shard's process can die. FailShard() — driven by the
// supervisor (service/shard_supervisor.h) when death is detected — takes
// the shard out of the ring, recovers every in-flight task's last known
// wire frame (the submit frame, superseded by each periodic checkpoint
// snapshot the shard shipped back), and replays them onto surviving
// shards. The original Submit() futures keep delivering; replay re-runs
// only the steps after the last snapshot, and checkpoints restore bitwise,
// so iteration-bounded results are unaffected by the failure.
//
// Determinism contract (inherited from the schedulers underneath): every
// task owns an Rng seeded from its submission, so shard placement,
// rebalancing, and failover affect only timing. Iteration-bounded tasks
// produce frontiers bitwise identical to an unsharded OnlineScheduler
// reference — across any shard count, any AddShard/RemoveShard schedule,
// and any kill schedule — which tests/shard_router_test.cc and
// tests/shard_supervisor_test.cc gate on every run.
//
// Thread-safety: Submit/Drain/AddShard/RemoveShard/FailShard/observers may
// be called concurrently from any thread (one router mutex serializes
// them; worker threads inside the shards never take it). Start() and
// Stop() follow the OnlineScheduler contract: at most once each. Do NOT
// call FailShard() from a RemoteShard death callback — it stops the dead
// shard, which joins the thread the callback runs on; hand off to another
// thread (the supervisor's monitor does exactly this).
#ifndef MOQO_SERVICE_SHARD_ROUTER_H_
#define MOQO_SERVICE_SHARD_ROUTER_H_

#include <cstdint>
#include <future>
#include <map>
#include <memory>
#include <optional>
#include <vector>

#include "common/thread_annotations.h"
#include "service/batch_optimizer.h"
#include "service/online_scheduler.h"
#include "service/shard.h"

namespace moqo {

/// Configuration for one ShardRouter instance.
struct ShardRouterConfig {
  /// Configuration applied to every local shard (thread count, metrics,
  /// policy, admission window). Keep retain_frontiers = true if the Stop()
  /// report should carry frontiers for reference comparison.
  OnlineConfig shard;
  /// In-process shards created up front (clamped to >= 0; 0 makes sense
  /// only when remote shards are added before the first Submit()).
  int num_shards = 2;
  /// Ring points per shard (clamped to >= 1). More points smooth the key
  /// distribution; 64 keeps the worst shard within a few percent of fair
  /// share for realistic shard counts.
  int virtual_nodes = 64;
};

/// Counter snapshot of a ShardRouter; all counts are cumulative since
/// construction except `shards`.
struct ShardRouterStats {
  /// Current member shards (dead-but-not-yet-failed-over ones included
  /// until FailShard removes them).
  size_t shards = 0;
  /// Successful Submit() calls.
  size_t submitted = 0;
  /// In-flight tasks moved between shards by membership changes and
  /// failovers.
  size_t migrations = 0;
  /// The subset of `migrations` that carried a non-empty mid-run session
  /// checkpoint across the wire (the rest were still queued, fresh).
  size_t checkpointed_migrations = 0;
  /// Shards taken out by FailShard().
  size_t failed_shards = 0;
  /// In-flight tasks replayed onto survivors by FailShard().
  size_t failover_replayed = 0;
  /// The subset of `failover_replayed` whose recovery frame carried a
  /// mid-run checkpoint snapshot (the rest replayed from scratch).
  size_t failover_checkpointed = 0;
  /// Sum of the already-executed step counts carried by replayed recovery
  /// frames: work the failover did NOT re-run thanks to snapshots.
  int64_t failover_resume_steps = 0;
};

/// A sharded online optimization service. See file header.
class ShardRouter {
 public:
  ShardRouter(ShardRouterConfig config, OptimizerFactory make_optimizer);

  /// Stops the router (draining all shards) if Stop() was not called.
  ~ShardRouter();

  ShardRouter(const ShardRouter&) = delete;
  ShardRouter& operator=(const ShardRouter&) = delete;

  /// Starts every shard's workers. Idempotent; called implicitly by
  /// Drain() and by membership changes (a rebalance needs live
  /// destinations to Resume() onto).
  void Start() EXCLUDES(mu_);

  /// Routes the task to its ring owner and admits it there. A dead (not
  /// yet failed-over) owner is skipped: the task lands on the next live
  /// shard along the ring instead. Returns the shard's future for the
  /// result, or std::nullopt if no live shard accepted it (full window
  /// under kReject, empty membership, or the router is stopping). Under
  /// kBlock a full local owner window blocks the caller — and any
  /// concurrent membership change — until the owner frees a slot.
  std::optional<std::future<BatchTaskResult>> Submit(const BatchTask& task)
      EXCLUDES(mu_);

  /// Blocks until every admitted task on every shard has completed (dead
  /// shards are skipped; their tasks complete elsewhere after FailShard).
  void Drain() EXCLUDES(mu_);

  /// Drains, stops every shard, and returns one report over all router
  /// submissions in router submission order: task i is the i-th successful
  /// Submit(), with its result taken from the shard that finished it
  /// (migrated-away stub slots are skipped, so `migrated_tasks` is 0;
  /// stats().migrations counts the router's rebalance + failover hops).
  /// After Stop() every Submit() is rejected; the router cannot be
  /// restarted.
  BatchReport Stop() EXCLUDES(mu_);

  /// Adds an in-process shard, rebalancing in-flight tasks whose ring
  /// owner changed onto it via suspend → wire round-trip → resume. Starts
  /// the router if it was not running. Returns the new shard's stable id,
  /// or size_t(-1) — changing nothing — once the router is stopped.
  size_t AddShard() EXCLUDES(mu_);

  /// As above with a caller-built shard (how a supervisor wires in a
  /// RemoteShard). The shard is Start()ed before it joins the ring.
  size_t AddShard(std::unique_ptr<Shard> shard) EXCLUDES(mu_);

  /// Removes shard `shard_id`, first migrating its in-flight tasks to
  /// their new ring owners (a task whose new owner refuses it finishes on
  /// the departing shard before retirement — never dropped), then
  /// stopping it and retiring its report (finished results keep being
  /// served from the retired report by Stop()). Returns false — changing
  /// nothing — for an unknown id, the last shard, or a stopped router.
  /// Starts the router if it was not running.
  bool RemoveShard(size_t shard_id) EXCLUDES(mu_);

  /// Fails shard `shard_id` over: takes it off the ring, recovers its
  /// in-flight tasks' last known wire frames, and replays each onto a
  /// surviving live shard — the original Submit() futures keep
  /// delivering. A task whose frame cannot be decoded, or that no
  /// survivor accepts, fails its future with the shard id and route key
  /// in the error. Returns false for an unknown id or a stopped router.
  /// Never call from a shard's death callback (see file header).
  bool FailShard(size_t shard_id) EXCLUDES(mu_);

  /// The shard id `task` currently routes to (for tests and placement
  /// diagnostics; Submit() recomputes this under the same lock). Returns
  /// size_t(-1) once the router is stopped.
  size_t ShardFor(const BatchTask& task) const EXCLUDES(mu_);

  /// Counters read under one lock acquisition.
  ShardRouterStats stats() const EXCLUDES(mu_);

  /// stats().failed_shards; perfbench/service.cc still reads it.
  size_t failed_shards() const EXCLUDES(mu_) {
    return stats().failed_shards;
  }

  const ShardRouterConfig& config() const { return config_; }

 private:
  /// One router submission: its placement key and where it currently
  /// lives (shard id + that shard's submission index).
  struct Entry {
    uint64_t key = 0;
    /// Canonical query fingerprint the key was derived from; seed-
    /// independent, printed next to the key in failover/migration errors
    /// so operators can correlate failures across seeds of one shape.
    uint64_t fingerprint = 0;
    size_t shard_id = 0;
    size_t local_index = 0;
  };

  /// One ring point; shard ids are stable across membership changes.
  struct RingPoint {
    uint64_t hash = 0;
    size_t shard_id = 0;
    bool operator<(const RingPoint& other) const {
      if (hash != other.hash) return hash < other.hash;
      return shard_id < other.shard_id;
    }
  };

  void StartLocked() REQUIRES(mu_);
  /// Recomputes ring_ from the current shards_ membership.
  void RebuildRingLocked() REQUIRES(mu_);
  /// Ring owner of `key`; requires a non-empty ring.
  size_t OwnerLocked(uint64_t key) const REQUIRES(mu_);
  /// First live shard at or after `key` on the ring; size_t(-1) if none.
  size_t LiveOwnerLocked(uint64_t key) const REQUIRES(mu_);
  /// Re-derives every in-flight entry's owner and migrates the moved ones.
  void RebalanceLocked() REQUIRES(mu_);
  /// Moves one entry off `source` (the shard it currently lives on, which
  /// RemoveShard may have already taken out of shards_) to `to_shard` via
  /// suspend → wire → resume. Returns false if the task had already
  /// finished on its current shard (nothing to move). A task is never
  /// lost: if the destination refuses, it is resumed back onto `source`.
  bool MigrateLocked(Shard* source, Entry* entry, size_t to_shard)
      REQUIRES(mu_);
  size_t AddShardLocked(std::unique_ptr<Shard> shard) REQUIRES(mu_);

  ShardRouterConfig config_;
  OptimizerFactory make_optimizer_;
  /// Epoch of the Stop() report's wall clock: construction time.
  Stopwatch epoch_;

  mutable Mutex mu_;
  /// Member shards by stable id (std::map: membership iteration order is
  /// part of the determinism contract — Start/Drain/Stop and failover
  /// replay walk shards in id order everywhere, in every process).
  std::map<size_t, std::unique_ptr<Shard>> shards_ GUARDED_BY(mu_);
  /// Final reports of removed/failed (and, after Stop(), all) shards.
  std::map<size_t, BatchReport> retired_ GUARDED_BY(mu_);
  std::vector<RingPoint> ring_ GUARDED_BY(mu_);
  /// Router submission i is entries_[i].
  std::vector<Entry> entries_ GUARDED_BY(mu_);
  size_t next_shard_id_ GUARDED_BY(mu_) = 0;
  /// The cumulative counters; stats() fills in `shards` and `submitted`.
  ShardRouterStats stats_ GUARDED_BY(mu_);
  /// Peak member count, for the report's num_threads.
  size_t peak_shards_ GUARDED_BY(mu_) = 0;
  bool started_ GUARDED_BY(mu_) = false;
  bool stopped_ GUARDED_BY(mu_) = false;
};

}  // namespace moqo

#endif  // MOQO_SERVICE_SHARD_ROUTER_H_
