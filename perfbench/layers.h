// Per-layer measurements of traced runs, shared by every workload.
//
// The RMQ layers are measured on a replica of RmqSession::DoStep built
// from public functions, with a span around each phase; the transport
// layers (fingerprint, wire frame, protocol envelope, socket) are timed
// after the run on the workload's own tasks and mid-run snapshots.
#ifndef MOQO_PERFBENCH_LAYERS_H_
#define MOQO_PERFBENCH_LAYERS_H_

#include <cstdint>
#include <vector>

#include "bench_util.h"
#include "service/batch_optimizer.h"
#include "service/wire.h"

namespace moqo {
namespace perfbench {

/// Replica counters, summed over every replica run of one traced run.
struct ReplicaTotals {
  int64_t iterations = 0;
  int64_t climb_steps = 0;
  int64_t plans_examined = 0;
  int64_t plans_built = 0;
  int64_t inserted = 0;
  int64_t cache_sets = 0;
  int64_t cache_plans = 0;
  int runs = 0;
};

/// One replica run: time to K iterations and the final frontier.
struct ReplicaRun {
  int64_t ttk_ns = 0;
  std::vector<CostVector> frontier;
};

/// Runs q.k iterations of RMQ as RmqSession::DoStep does — RandomPlan ->
/// ParetoClimb -> ApproximateFrontiers(RmqAlphaFor(i)) -> PlanCache::Lookup
/// — recording one span per phase under an "rmq.iteration" span. With the
/// same seed its frontier must equal the session's bitwise.
ReplicaRun RunReplica(const QueryUnderTest& q, Tracer* tracer,
                      int64_t request, ReplicaTotals* totals);

/// NaiveClimb time over ParetoClimb time, climbing the same 3 random plans
/// per query; every NaiveClimb is capped by a 2 s deadline.
double NaiveClimbRatio(const std::vector<const QueryUnderTest*>& queries,
                       Tracer* tracer);

/// Fills the plan.*, climb.* (but naive_ratio), approx.*, cache.lookup_us,
/// cache.sets, cache.plans and rmq.coverage scalars from the replica spans.
void RecordRmqLayers(const Tracer& tracer, const ReplicaTotals& totals,
                     RunRecord* record);

/// Session checkpoint of `q` after `steps` iterations (a mid-run snapshot).
std::vector<uint8_t> MidRunCheckpoint(const QueryUnderTest& q, int steps);

/// Times the fingerprint, wire, protocol and socket layers on `tasks`
/// (submit frames) and `snapshots` (mid-run frames) and fills the
/// fingerprint.*, wire.*, proto.* and net.* scalars.
void MeasureTransportLayers(std::vector<BatchTask> tasks,
                            const std::vector<WireTask>& snapshots,
                            Tracer* tracer, RunRecord* record);

}  // namespace perfbench
}  // namespace moqo

#endif  // MOQO_PERFBENCH_LAYERS_H_
