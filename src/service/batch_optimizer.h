// Batch vocabulary of the optimization service: the task and result
// records, the aggregated report, and the blocking reference run.
// OnlineScheduler (service/online_scheduler.h) is the scheduler that
// serves tasks; RunBlocking() below is the plain sequential loop whose
// frontiers every scheduler, shard layout and transport is checked against.
//
// Determinism contract: every task owns an independent Rng seeded from
// (master seed, task index), its own PlanFactory, and its own
// OptimizerSession, so a task's result frontier depends only on its seed
// and configuration — never on the number of worker threads or on how the
// scheduler interleaves tasks. Iteration-bounded tasks therefore yield
// bitwise-identical per-task frontiers under RunBlocking() and under any
// scheduler configuration (wall-clock deadlines are inherently
// load-dependent).
//
// Deadline contract: a task with a deadline never runs its optimizer past
// it, and its result records whether the session completed its configured
// work inside the window (BatchTaskResult::deadline_hit).
#ifndef MOQO_SERVICE_BATCH_OPTIMIZER_H_
#define MOQO_SERVICE_BATCH_OPTIMIZER_H_

#include <cstdint>
#include <functional>
#include <memory>
#include <string>
#include <vector>

#include "core/optimizer.h"
#include "cost/cost_model.h"
#include "cost/cost_vector.h"
#include "query/generator.h"
#include "query/query.h"

namespace moqo {

/// Creates the Optimizer used for a task. Optimizer objects are stateless
/// (all per-run state lives in the OptimizerSession they mint), so the
/// factory may hand out a shared instance or a fresh one per call — the
/// service only uses it to open one session per task.
using OptimizerFactory = std::function<std::unique_ptr<Optimizer>()>;

/// One optimization request in a batch.
struct BatchTask {
  QueryPtr query;
  /// Seed of the task's private Rng.
  uint64_t seed = 0;
  /// Wall-clock optimization window in microseconds; 0 = unbounded.
  int64_t deadline_micros = 0;
  /// Canonical query fingerprint (core/query_fingerprint.h), stamped once
  /// by whichever layer computes it first (router Submit, wire decode) so
  /// downstream layers — shard placement, the frontier cache — reuse it
  /// instead of re-canonicalizing. 0 = not yet computed (0 is not a
  /// reachable FNV-1a output for any non-degenerate query, and
  /// FingerprintOf() recomputes on demand either way).
  uint64_t fingerprint = 0;
};

/// Cost metrics every task is optimized under unless a scheduler is
/// configured otherwise (OnlineConfig::metrics); RunBlocking() always uses
/// them.
std::vector<Metric> DefaultServiceMetrics();

/// Per-task outcome.
struct BatchTaskResult {
  int index = -1;
  /// Result frontier in canonical (lexicographic) order, so two results can
  /// be compared bitwise.
  std::vector<CostVector> frontier;
  /// Time the task's optimizer actually ran, in milliseconds. On a
  /// scheduler this sums the task's slices, excluding time spent waiting
  /// for its next turn.
  double optimize_millis = 0.0;
  /// Completion latency since admission (>= optimize_millis when the task
  /// waited between slices).
  double elapsed_millis = 0.0;
  /// Milliseconds since scheduler start when the task was admitted (its
  /// Submit() time); 0 under RunBlocking().
  double admit_millis = 0.0;
  /// Session steps executed since Begin().
  int64_t steps = 0;
  /// True if the task ran under a wall-clock deadline.
  bool had_deadline = false;
  /// True if the task had a deadline and its session completed its
  /// configured work (Done) before that deadline expired — the headline
  /// service-level metric aggregated into BatchReport::deadline_hit_rate.
  /// A gave-up session (see below) never hits, even inside the window.
  bool deadline_hit = false;
  /// True if the session stopped without completing its configured work
  /// (OptimizerSession::GaveUp — e.g. DP abandoning an oversized query or
  /// an expired mid-lattice budget). Such a run reports an empty frontier
  /// and must not be counted as a deadline hit.
  bool gave_up = false;
  /// True if the task was drained off this scheduler by Suspend() and
  /// finished (or will finish) on whichever scheduler resumed it. The slot
  /// keeps only the pre-migration step/time counters and is excluded from
  /// report aggregation; the destination scheduler reports the final
  /// result, and the original Submit() future delivers it.
  bool migrated = false;
  /// True if the result was served from the scheduler's FrontierCache
  /// (exact hit: same fingerprint and seed as a completed run) without
  /// opening a session. Such a slot reports zero steps and ~zero latency;
  /// its frontier is the cached producer's canonical frontier.
  bool served_from_cache = false;
};

/// Aggregated outcome of one batch run.
struct BatchReport {
  std::vector<BatchTaskResult> tasks;
  int num_threads = 0;
  double wall_millis = 0.0;
  /// Sum / mean / max of per-task frontier sizes.
  size_t total_frontier = 0;
  double mean_frontier = 0.0;
  size_t max_frontier = 0;

  /// p50 / p95 of per-task optimize_millis (0 for an empty report).
  double p50_optimize_millis = 0.0;
  double p95_optimize_millis = 0.0;

  /// Tasks that ran under a wall-clock deadline, and how many of those
  /// completed their configured work inside it.
  size_t deadline_tasks = 0;
  size_t deadline_hits = 0;
  /// deadline_hits / deadline_tasks; 1.0 (vacuously) when no task had a
  /// deadline.
  double deadline_hit_rate = 1.0;
  /// Tasks suspended off this scheduler mid-run (their slots are excluded
  /// from every aggregate above).
  size_t migrated_tasks = 0;
  /// Tasks answered from the frontier cache without running a session.
  size_t cache_served_tasks = 0;

  /// Recomputes the aggregate fields (frontier totals, percentiles) from
  /// `tasks`. Every producer of a report calls this last.
  void Aggregate();

  /// Human-readable multi-line summary.
  std::string Summary() const;
};

/// Nearest-rank percentile of `values`, q in [0, 1]; 0 when empty.
/// Exposed for tests and report code.
double Percentile(std::vector<double> values, double q);

/// Element-wise equality of two canonical frontiers — the determinism
/// check behind every "bitwise identical" verdict. Exposed for tests and
/// bench code.
bool BitwiseEqual(const std::vector<CostVector>& a,
                  const std::vector<CostVector>& b);

/// Comparison of a parallel run against a single-thread reference run.
struct BatchComparison {
  /// reference wall-clock / parallel wall-clock.
  double speedup = 0.0;
  /// True if every task's frontier is bitwise identical to the reference.
  bool identical = true;
  /// Worst / mean multiplicative epsilon indicator (alpha error) of the
  /// parallel frontiers measured against the reference frontiers; 1.0 means
  /// exact agreement in approximation quality.
  double max_alpha = 1.0;
  double mean_alpha = 1.0;
};

/// The blocking reference: runs every task to completion on the calling
/// thread, one after another, by driving a session with RunSession() under
/// DefaultServiceMetrics(). Each task's deadline starts when that task
/// starts. Task i of the returned report corresponds to tasks[i].
BatchReport RunBlocking(const std::vector<BatchTask>& tasks,
                        const OptimizerFactory& make_optimizer);

/// Records how a finished session ended into `result`: the canonical form
/// of `plans` (the session's final Frontier()), the executed steps,
/// gave_up, and deadline_hit. `result->had_deadline` must already be set,
/// and `expired` is the deadline sampled right after the last step — not
/// later, so that post-processing cannot turn a completion just inside
/// the window into a miss. Shared by RunBlocking() and OnlineScheduler.
void RecordOutcome(const OptimizerSession& session,
                   const std::vector<PlanPtr>& plans, bool expired,
                   BatchTaskResult* result);

/// Generates `n` batch tasks with queries drawn from `base` and per-task
/// seeds fanned out from `master_seed`; all tasks share `deadline_micros`.
std::vector<BatchTask> GenerateBatch(int n, const GeneratorConfig& base,
                                     uint64_t master_seed,
                                     int64_t deadline_micros);

/// Extracts the cost vectors of `plans` in canonical lexicographic order.
std::vector<CostVector> CanonicalFrontier(const std::vector<PlanPtr>& plans);

/// Compares a parallel report against its single-thread reference
/// (reports must stem from the same task list).
BatchComparison CompareToReference(const BatchReport& reference,
                                   const BatchReport& parallel);

}  // namespace moqo

#endif  // MOQO_SERVICE_BATCH_OPTIMIZER_H_
