// Wire format for shipping optimization tasks between service shards.
//
// A wire frame is a self-describing byte string carrying everything a
// shard needs to run (or continue) one optimization task: the full query
// (catalog + join graph, rebuilt value-for-value on the receiving side),
// the task configuration (seed, original deadline window), the unexpired
// deadline remainder and accumulated runtime of a mid-run task, and
// optionally an OptimizerSession checkpoint of its mid-run state. It is
// what the in-process ShardRouter (service/shard_router.h) round-trips on
// every rebalance, and what a cross-process transport would put on the
// socket unchanged.
//
// Framing reuses the checkpoint substrate (core/checkpoint.h): fixed-width
// little-endian primitives behind CheckpointWriter/Reader, a magic/version
// header, and — because wire frames cross process and machine boundaries
// where corruption is a when, not an if — a CRC32 trailer over the whole
// body. DecodeWireTask() verifies the CRC before parsing, validates every
// field range, and requires full buffer consumption: a frame with trailing
// bytes after a well-formed payload is rejected as corrupt, never
// silently accepted.
//
// Determinism: the frame stores doubles bit-exactly and the decoder
// rebuilds the query through the same value types, so a session checkpoint
// restored against the rebuilt query continues bitwise identically to one
// that never crossed the wire (gated by tests/wire_test.cc and
// tests/shard_server_test.cc).
#ifndef MOQO_SERVICE_WIRE_H_
#define MOQO_SERVICE_WIRE_H_

#include <cstdint>
#include <future>
#include <string>
#include <vector>

#include "core/checkpoint.h"
#include "service/batch_optimizer.h"
#include "service/online_scheduler.h"

namespace moqo {

/// First bytes of every wire frame ("MOQW" little-endian).
inline constexpr uint32_t kWireMagic = 0x57514f4du;

/// Bumped whenever the frame layout changes; DecodeWireTask() rejects
/// other versions. Version 2 added the canonical query fingerprint after
/// the seed, so per-shard frontier caches reuse the router's
/// canonicalization instead of recomputing it.
inline constexpr uint32_t kWireVersion = 2;

/// One optimization task in transportable form: everything a SuspendedTask
/// carries except the promise, which is the submitter-side reply channel
/// and never crosses the wire (a transport pairs a decoded frame with its
/// own reply path; in-process, ToSuspendedTask() re-attaches the original
/// promise).
struct WireTask {
  /// The query (rebuilt from the frame on decode) + seed + the task's
  /// original deadline window.
  BatchTask task;
  /// True if the task runs under a wall-clock deadline.
  bool had_deadline = false;
  /// Unexpired window at suspension time (the full window for a task that
  /// never ran), re-armed by OnlineScheduler::Resume().
  int64_t remaining_micros = 0;
  /// Slice time accumulated before the hop, carried into the destination's
  /// accounting.
  double optimize_millis = 0.0;
  /// Steps executed before the hop (also inside the checkpoint; exposed
  /// for logs).
  int64_t steps = 0;
  /// OptimizerSession::Checkpoint() of the mid-run state; empty if the
  /// task never ran a slice, in which case the destination begins the
  /// session from scratch with the task's own seed.
  std::vector<uint8_t> checkpoint;
};

/// Wraps a fresh, not-yet-admitted task (full deadline window remaining,
/// no checkpoint).
WireTask MakeWireTask(const BatchTask& task);

/// Wraps a task drained off a scheduler by Suspend(). Copies everything
/// except the promise, which stays with the caller.
WireTask MakeWireTask(const SuspendedTask& task);

/// Wraps a periodic checkpoint snapshot of a still-running task (the
/// recovery state a supervisor replays after a shard death).
WireTask MakeWireTask(const TaskSnapshot& snapshot);

/// Serializes `task` into a framed byte string:
/// magic, version, query, seed, deadline, remainder, accounting,
/// checkpoint bytes, CRC32 trailer over everything before it.
std::vector<uint8_t> EncodeWireTask(const WireTask& task);

/// Mirrors EncodeWireTask. Returns false — leaving `out` untouched — on
/// any malformation: short frame, CRC mismatch, wrong magic or version,
/// invalid query records, out-of-range fields, a payload that reads past
/// the frame, or trailing bytes after the payload (the frame must be
/// consumed exactly). The embedded session checkpoint is opaque here; it
/// is validated against the rebuilt query by OptimizerSession::Restore()
/// at resume time.
bool DecodeWireTask(const std::vector<uint8_t>& frame, WireTask* out);

/// As above, additionally reporting *why* a frame was rejected ("CRC
/// mismatch", "invalid query record", …) so failover diagnostics can name
/// the failure next to the shard id / route key context the caller adds.
/// `why` is untouched on success and may be null.
bool DecodeWireTask(const std::vector<uint8_t>& frame, WireTask* out,
                    std::string* why);

/// Rebuilds a scheduler-resumable task from a decoded frame plus the
/// reply channel (in-process: the promise carried out of Suspend(); a
/// cross-process transport would mint a promise whose future it forwards
/// back over its own connection).
SuspendedTask ToSuspendedTask(WireTask&& wire,
                              std::promise<BatchTaskResult> promise);

/// The task's canonical query fingerprint: returns the stamped
/// BatchTask::fingerprint when present, computing QueryFingerprint(query)
/// otherwise. Layers that already paid for canonicalization (the router on
/// Submit, the wire decoder) stamp the field so everything downstream hits
/// the cached value.
uint64_t FingerprintOf(const BatchTask& task);

/// Derives the placement key from the layered identity: a seed-mixed
/// finalization of the canonical fingerprint (fingerprint ⊕ seed). Same
/// (query shape, seed) always lands on the same key — and therefore the
/// same consistent-hash shard — across processes and runs, while repeats
/// of one shape under different seeds still spread over the ring.
uint64_t DeriveRouteKey(uint64_t fingerprint, uint64_t seed);

/// Stable 64-bit placement key of a task:
/// DeriveRouteKey(FingerprintOf(task), task.seed). Identical across
/// processes and runs, so every router instance agrees where a task
/// lives — the property consistent hashing needs.
uint64_t RouteKey(const BatchTask& task);

/// Renders a route key the way every diagnostic message spells it
/// ("0x" + 16 hex digits), so failover errors and logs agree.
std::string RouteKeyString(uint64_t key);

/// Serializes a task result — the shard-to-router half of the transport —
/// as checkpoint-substrate fields: counters, flags, and the frontier's
/// cost vectors bit-exactly. `index` is scheduler-local and deliberately
/// not carried: the receiving side re-stamps its own submission index.
void EncodeTaskResult(CheckpointWriter* writer,
                      const BatchTaskResult& result);

/// Mirrors EncodeTaskResult. Returns false (clearing nothing) on a
/// truncated record, an oversized frontier, or out-of-range fields.
bool DecodeTaskResult(CheckpointReader* reader, BatchTaskResult* out);

}  // namespace moqo

#endif  // MOQO_SERVICE_WIRE_H_
