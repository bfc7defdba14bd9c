// The four workloads of moqo_bench (see perfbench/README.md for why each
// exists). Each runs in its own process and fills one RunRecord.
#ifndef MOQO_PERFBENCH_WORKLOADS_H_
#define MOQO_PERFBENCH_WORKLOADS_H_

#include "bench_util.h"

namespace moqo {
namespace perfbench {

/// anytime_large / anytime_small: one RmqSession per query, K iterations
/// on one thread in a closed loop, repetitions interleaved across queries.
RunRecord RunAnytime(const RunOptions& options);

/// service_local / service_remote: an open-loop Poisson phase (latency)
/// followed by a closed-loop phase (saturation throughput).
RunRecord RunService(const RunOptions& options);

}  // namespace perfbench
}  // namespace moqo

#endif  // MOQO_PERFBENCH_WORKLOADS_H_
