// Multiplexing throughput: M iteration-bounded queries served as
// interleaved optimizer sessions on N worker threads, M >> N.
//
// Run to completion one after another, a query admitted behind the batch
// waits for every query ahead of it before making any progress.
// OnlineScheduler instead steps all M sessions round-robin at slice
// granularity: every query starts optimizing almost immediately and
// per-query completion latency is bounded by total_work / threads instead
// of queue position. Because each task's step sequence depends only on its
// own seed, the per-task frontiers must stay bitwise identical to the
// blocking reference (RunBlocking) — the session-API determinism contract,
// verified end to end here.
//
//   $ ./bench/multiplex_throughput [--queries=64] [--tables=8]
//         [--iterations=40] [--threads=8] [--steps-per-slice=1]
//         [--seed=2016] [--min-speedup=0] [--json=out.json]
//
// Prints the blocking reference, a closed batch on one scheduler thread,
// and a closed batch on N threads, with per-query completion-latency
// percentiles (measured from admission), then a PASS/FAIL verdict on
// bitwise-identical frontiers everywhere. The work here is compute-bound,
// so wall-clock speedup tracks the physical cores available; pass
// --min-speedup to additionally gate the verdict on it when the host has
// the cores (e.g. --min-speedup=3 on 8 cores).
#include <cstdio>
#include <fstream>
#include <memory>
#include <string>
#include <vector>

#include "bench_report.h"
#include "common/flags.h"
#include "core/rmq.h"
#include "service/batch_optimizer.h"
#include "service/online_scheduler.h"

using namespace moqo;

namespace {

struct LatencyStats {
  double p50 = 0.0;
  double p95 = 0.0;
  double max = 0.0;
};

LatencyStats Latencies(const BatchReport& report) {
  std::vector<double> elapsed;
  elapsed.reserve(report.tasks.size());
  LatencyStats stats;
  for (const BatchTaskResult& task : report.tasks) {
    elapsed.push_back(task.elapsed_millis);
    stats.max = std::max(stats.max, task.elapsed_millis);
  }
  stats.p50 = Percentile(elapsed, 0.50);
  stats.p95 = Percentile(elapsed, 0.95);
  return stats;
}

void PrintRow(const char* label, const BatchReport& report,
              const BatchComparison& cmp) {
  LatencyStats lat = Latencies(report);
  std::printf("%-22s %8d %12.1f %9.2fx %10s %11.1f %11.1f %11.1f\n", label,
              report.num_threads, report.wall_millis, cmp.speedup,
              cmp.identical ? "yes" : "NO", lat.p50, lat.p95, lat.max);
}

}  // namespace

int main(int argc, char** argv) {
  Flags flags(argc, argv);
  const int queries = static_cast<int>(flags.GetInt("queries", 64));
  const int tables = static_cast<int>(flags.GetInt("tables", 8));
  const int iterations = static_cast<int>(flags.GetInt("iterations", 40));
  const int threads = static_cast<int>(flags.GetInt("threads", 8));
  const int steps_per_slice =
      static_cast<int>(flags.GetInt("steps-per-slice", 1));
  const uint64_t seed = static_cast<uint64_t>(flags.GetInt("seed", 2016));
  const double min_speedup = flags.GetDouble("min-speedup", 0.0);
  const std::string json_path = flags.GetString("json", "");

  // Iteration-bounded tasks without wall-clock deadlines: the determinism
  // contract only holds when no budget can cut a step short.
  GeneratorConfig generator;
  generator.num_tables = tables;
  std::vector<BatchTask> tasks =
      GenerateBatch(queries, generator, seed, /*deadline_micros=*/0);

  OptimizerFactory make_rmq = [iterations] {
    RmqConfig config;
    config.max_iterations = iterations;
    return std::make_unique<Rmq>(config);
  };

  std::printf(
      "multiplex_throughput: %d queries x %d tables, %d RMQ iterations, "
      "%d steps/slice\n\n",
      queries, tables, iterations, steps_per_slice);
  std::printf("%-22s %8s %12s %10s %10s %11s %11s %11s\n", "mode", "threads",
              "wall_ms", "speedup", "identical", "lat_p50_ms", "lat_p95_ms",
              "lat_max_ms");

  // Blocking reference: the ground truth for both frontier bits and wall
  // clock.
  BatchReport reference = RunBlocking(tasks, make_rmq);
  PrintRow("blocking reference", reference,
           CompareToReference(reference, reference));

  // A closed batch on `n` scheduler threads: admit every task up front,
  // then Stop() starts the workers and runs the backlog dry.
  const auto run_closed_batch = [&](int n) {
    OnlineConfig config;
    config.num_threads = n;
    config.steps_per_slice = steps_per_slice;
    OnlineScheduler service(config, make_rmq);
    for (const BatchTask& task : tasks) service.Submit(task);
    return service.Stop();
  };

  // One scheduler thread: pure multiplexing overhead, same bits.
  BatchReport coop_single = run_closed_batch(1);
  BatchComparison cmp_single = CompareToReference(reference, coop_single);
  PrintRow("multiplexed", coop_single, cmp_single);

  // N scheduler threads: M sessions multiplexed over the pool.
  BatchReport coop_multi = run_closed_batch(threads);
  BatchComparison cmp_multi = CompareToReference(reference, coop_multi);
  PrintRow("multiplexed", coop_multi, cmp_multi);

  const bool identical = cmp_single.identical && cmp_multi.identical;
  const bool pass = identical && cmp_multi.speedup >= min_speedup;
  std::printf(
      "\n%s: %.2fx speedup at %d threads, frontiers %s vs blocking "
      "reference\n",
      pass ? "PASS" : "FAIL", cmp_multi.speedup, threads,
      identical ? "bitwise identical" : "DIVERGED");

  if (!json_path.empty()) {
    LatencyStats lat = Latencies(coop_multi);
    std::ofstream out(json_path);
    bench::JsonWriter w(out);
    bench::BeginReport(&w, "multiplex_throughput");
    w.BeginObject("config");
    w.Field("queries", queries);
    w.Field("tables", tables);
    w.Field("iterations", iterations);
    w.Field("threads", threads);
    w.Field("steps_per_slice", steps_per_slice);
    w.Field("seed", static_cast<int64_t>(seed));
    w.Field("min_speedup", min_speedup);
    w.EndObject();
    w.BeginObject("metrics");
    w.Field("blocking_wall_ms", reference.wall_millis);
    w.Field("coop_single_wall_ms", coop_single.wall_millis);
    w.Field("coop_multi_wall_ms", coop_multi.wall_millis);
    w.Field("coop_multi_speedup", cmp_multi.speedup);
    w.Field("coop_multi_qps",
            coop_multi.wall_millis > 0.0
                ? 1000.0 * queries / coop_multi.wall_millis
                : 0.0);
    w.Field("lat_p50_ms", lat.p50);
    w.Field("lat_p95_ms", lat.p95);
    w.Field("lat_max_ms", lat.max);
    w.EndObject();
    w.BeginObject("gates");
    w.Field("frontiers_identical", identical);
    w.EndObject();
    w.Field("pass", pass);
    w.EndObject();
    out << "\n";
    std::printf("wrote %s\n", json_path.c_str());
  }
  return pass ? 0 : 1;
}
