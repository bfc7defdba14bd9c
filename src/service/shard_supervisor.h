// Shard supervisor: spawns shard server processes, wires them into a
// ShardRouter as RemoteShards, and drives failover when one dies.
//
// SpawnShard() launches one `shardd` (shard_server_main.cc) child via
// posix_spawn, listening on a fresh Unix-domain socket; connects to it
// (retrying until the child's listener is up, bailing out if the child
// exits first); wraps the connection in a RemoteShard; and adds it to the
// router's ring. From then on the shard is indistinguishable from a local
// one to every router caller.
//
// Failure path: the RemoteShard's receiver detects death (mid-frame EOF
// from a killed process, a transport error, or heartbeat silence) and
// fires its death callback — which only enqueues the shard onto the
// supervisor's monitor queue, because the receiver thread must not drive
// failover itself (ShardRouter::FailShard stops the dead shard, which
// joins that very thread). The monitor thread dequeues, reaps the child
// process, and calls FailShard: in-flight tasks replay from their last
// checkpoint snapshot onto surviving shards while the original Submit()
// futures keep delivering.
//
// Lifetime: the supervisor must outlive nothing — destroy it before or
// after the router, but stop the router's use of spawned shards first
// (router Stop()/destruction closes the connections; the supervisor
// destructor then reaps any children still around, SIGKILLing ones that
// survived a dirty shutdown). The monitor never dereferences a shard
// pointer after enqueue — it is a map key only — so a shard destroyed by
// router Stop() racing a death notification is benign.
#ifndef MOQO_SERVICE_SHARD_SUPERVISOR_H_
#define MOQO_SERVICE_SHARD_SUPERVISOR_H_

#include <sys/types.h>

#include <cstdint>
#include <deque>
#include <map>
#include <string>
#include <thread>
#include <vector>

#include "common/thread_annotations.h"
#include "service/remote_shard.h"
#include "service/shard_router.h"

namespace moqo {

/// Configuration for one ShardSupervisor.
struct ShardSupervisorConfig {
  /// Path of the shardd binary to spawn.
  std::string server_binary;
  /// Extra argv entries passed to every child after --socket=...
  /// (e.g. "--iterations=20", "--snapshot-every=4").
  std::vector<std::string> server_args;
  /// Directory for the per-shard Unix-domain sockets.
  std::string socket_dir = "/tmp";
  /// Bound on waiting for a freshly spawned child to accept the
  /// connection.
  int connect_timeout_ms = 10000;
  /// Transport configuration of every spawned shard's RemoteShard.
  RemoteShardConfig remote;
};

/// Counter snapshot of a ShardSupervisor, cumulative since construction.
struct ShardSupervisorStats {
  /// Children spawned (including exited ones).
  size_t spawned = 0;
  /// Completed failovers (FailShard returned).
  size_t failovers = 0;
};

/// See file header.
class ShardSupervisor {
 public:
  /// `router` must outlive every SpawnShard()ed shard's membership; the
  /// supervisor keeps a reference for FailShard only.
  ShardSupervisor(ShardSupervisorConfig config, ShardRouter* router);

  /// Stops the monitor and reaps every child this supervisor spawned
  /// (SIGKILL for ones still running). Stop the router's use of the
  /// shards first.
  ~ShardSupervisor();

  ShardSupervisor(const ShardSupervisor&) = delete;
  ShardSupervisor& operator=(const ShardSupervisor&) = delete;

  /// Spawns one shard process, connects, and adds it to the router.
  /// Returns the router shard id, or size_t(-1) if the spawn, the
  /// connection, or the router registration failed (the child is killed
  /// and reaped on any failure).
  size_t SpawnShard() EXCLUDES(mu_);

  /// Sends `signal` to the child behind router shard `shard_id` (test
  /// hook: SIGKILL simulates a crash; failover then proceeds through the
  /// normal detection path). False for an unknown or already-reaped id.
  bool KillShard(size_t shard_id, int signal) EXCLUDES(mu_);

  /// Pid of the child behind `shard_id`, or -1 if unknown.
  pid_t ShardPid(size_t shard_id) const EXCLUDES(mu_);

  /// Blocks until at least `count` failovers completed (FailShard
  /// returned) or `timeout_ms` elapsed. Returns whether the count was
  /// reached.
  bool WaitForFailovers(size_t count, int timeout_ms) EXCLUDES(mu_);

  /// Counters read under one lock acquisition.
  ShardSupervisorStats stats() const EXCLUDES(mu_);

 private:
  struct ChildInfo {
    pid_t pid = -1;
    /// Router shard id; size_t(-1) until registration completes.
    size_t shard_id = static_cast<size_t>(-1);
    bool reaped = false;
  };

  void MonitorLoop() EXCLUDES(mu_);
  /// Reaps `pid` (SIGKILL first if `force`), idempotently.
  void ReapLocked(ChildInfo* info, bool force) REQUIRES(mu_);

  ShardSupervisorConfig config_;
  ShardRouter* router_;

  mutable Mutex mu_;
  CondVar cv_;
  /// Started by the constructor, joined by the destructor after stop_ is
  /// set; never touched in between, so it needs no guard.
  std::thread monitor_;
  /// Shards whose death callback fired, awaiting failover. Pointers are
  /// map keys only — never dereferenced (see file header).
  std::deque<RemoteShard*> dead_ GUARDED_BY(mu_);
  std::map<RemoteShard*, ChildInfo> children_ GUARDED_BY(mu_);
  uint64_t next_socket_seq_ GUARDED_BY(mu_) = 0;
  ShardSupervisorStats stats_ GUARDED_BY(mu_);
  bool stop_ GUARDED_BY(mu_) = false;
};

}  // namespace moqo

#endif  // MOQO_SERVICE_SHARD_SUPERVISOR_H_
