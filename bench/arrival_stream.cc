// Online arrival stream: open-loop Poisson-ish admissions against the
// online scheduler, FIFO vs EDF, reporting per-query completion latency
// and the deadline-hit rate — the service-level payoff of deadline-aware
// scheduling that a closed batch cannot express.
//
// Workload shape (skewed on purpose): a stream of loose-deadline queries
// arrives first at an offered load well above capacity, building a
// backlog; a late burst of tight-deadline queries then arrives behind it.
// FIFO serves the backlog in admission order, so the tight burst waits out
// the whole queue and misses its windows; EDF lets the burst overtake at
// slice granularity and hit. All work is iteration-bounded and every
// inter-arrival gap and seed comes from one master seed, so the plan
// search itself is deterministic: every query that hits its deadline must
// produce a frontier bitwise identical to a no-deadline blocking
// single-thread reference run, which the bench verifies.
//
//   $ ./bench/arrival_stream [--queries=32] [--tables=6] [--iterations=20]
//         [--threads=2] [--steps-per-slice=1] [--utilization=4]
//         [--seed=2016] [--migrate-every=0] [--json=out.json]
//
// Deadline windows are calibrated against the measured per-query cost on
// this machine (tight = half the expected FIFO backlog delay, loose = far
// beyond total work), so the FIFO-miss / EDF-hit margins hold on any
// hardware and build type. Exits 0 iff EDF's deadline-hit rate is >= FIFO's
// and all hit-query frontiers match the reference bitwise.
//
// With --migrate-every=N > 0, a third run replays the same arrival stream
// deadline-free against *two* scheduler instances and, at every N-th
// submission, checkpoints in-flight tasks off the primary (Suspend) and
// re-admits them to the secondary (Resume) — the in-process stand-in for
// migrating sessions between worker processes. Because every task is
// iteration-bounded and migration must be invisible, the run gates on
// every frontier (migrated or not) being bitwise identical to the
// uninterrupted blocking reference, and on at least one migration having
// actually happened.
#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <fstream>
#include <future>
#include <memory>
#include <thread>
#include <vector>

#include "bench_report.h"
#include "common/flags.h"
#include "common/rng.h"
#include "core/rmq.h"
#include "service/batch_optimizer.h"
#include "service/online_scheduler.h"

using namespace moqo;

namespace {

struct PolicyOutcome {
  const char* name = "";
  BatchReport report;
  double p50_latency_ms = 0.0;
  double p95_latency_ms = 0.0;
  /// True if every deadline-hitting query's frontier is bitwise identical
  /// to the no-deadline blocking reference.
  bool hits_match_reference = true;
};

void PrintRow(const PolicyOutcome& outcome) {
  const BatchReport& report = outcome.report;
  std::printf("%-6s %8zu %10zu/%-6zu %9.1f%% %12.1f %12.1f %10.1f %10s\n",
              outcome.name, report.tasks.size(), report.deadline_hits,
              report.deadline_tasks, 100.0 * report.deadline_hit_rate,
              outcome.p50_latency_ms, outcome.p95_latency_ms,
              report.wall_millis,
              outcome.hits_match_reference ? "yes" : "NO");
}

}  // namespace

int main(int argc, char** argv) {
  Flags flags(argc, argv);
  const int queries = static_cast<int>(flags.GetInt("queries", 32));
  const int tables = static_cast<int>(flags.GetInt("tables", 6));
  const int iterations = static_cast<int>(flags.GetInt("iterations", 20));
  const int threads = static_cast<int>(flags.GetInt("threads", 2));
  const int steps_per_slice =
      static_cast<int>(flags.GetInt("steps-per-slice", 1));
  const double utilization = flags.GetDouble("utilization", 4.0);
  const uint64_t seed = static_cast<uint64_t>(flags.GetInt("seed", 2016));
  const int64_t migrate_every = flags.GetInt("migrate-every", 0);
  const std::string json_path = flags.GetString("json", "");

  const int tight = std::max(2, queries / 8);
  const int loose = std::max(1, queries - tight);

  GeneratorConfig generator;
  generator.num_tables = tables;
  std::vector<BatchTask> tasks =
      GenerateBatch(loose + tight, generator, seed, /*deadline_micros=*/0);

  OptimizerFactory make_rmq = [iterations] {
    RmqConfig config;
    config.max_iterations = iterations;
    return std::make_unique<Rmq>(config);
  };

  // Warm up, then measure: the blocking no-deadline single-thread run is
  // both the bitwise reference and the per-query cost calibration.
  RunBlocking(GenerateBatch(2, generator, seed ^ 0xabcdef, 0), make_rmq);
  Stopwatch calib_watch;
  BatchReport reference = RunBlocking(tasks, make_rmq);
  const double per_query_ms =
      calib_watch.ElapsedMillis() / static_cast<double>(loose + tight);

  // Deadline windows and arrivals scale with the measured cost. The loose
  // stream arrives at `utilization`x capacity, so by the time the tight
  // burst lands the FIFO backlog delay is about
  // loose * c * (1 - 1/utilization) / threads; the tight window is half
  // that (a guaranteed FIFO miss with 2x margin) and still several times
  // the burst's own EDF service time (a guaranteed EDF hit).
  const double fifo_backlog_delay_ms = loose * per_query_ms *
                                       (1.0 - 1.0 / utilization) /
                                       static_cast<double>(threads);
  const int64_t tight_window_us =
      static_cast<int64_t>(0.5 * fifo_backlog_delay_ms * 1000.0);
  const int64_t loose_window_us =
      static_cast<int64_t>(300.0 * per_query_ms * 1000.0);
  const double mean_gap_ms =
      per_query_ms / (utilization * static_cast<double>(threads));

  for (size_t i = 0; i < tasks.size(); ++i) {
    tasks[i].deadline_micros =
        i < static_cast<size_t>(loose) ? loose_window_us : tight_window_us;
  }

  // Open-loop Poisson-ish arrival offsets, fixed across both policy runs.
  Rng arrival_rng(CombineSeed(seed, 0x41525256ull));
  std::vector<double> arrival_ms(tasks.size());
  double clock_ms = 0.0;
  for (size_t i = 0; i < tasks.size(); ++i) {
    clock_ms += -mean_gap_ms * std::log(1.0 - arrival_rng.Uniform01());
    arrival_ms[i] = clock_ms;
  }

  std::printf(
      "arrival_stream: %d loose + %d tight queries x %d tables, %d RMQ "
      "iterations, %d thread(s), %.2fx offered load\n"
      "calibration: %.2f ms/query -> tight window %.1f ms, loose window "
      "%.1f ms, mean gap %.2f ms\n\n",
      loose, tight, tables, iterations, threads, utilization, per_query_ms,
      tight_window_us / 1000.0, loose_window_us / 1000.0, mean_gap_ms);
  std::printf("%-6s %8s %17s %10s %12s %12s %10s %10s\n", "policy", "done",
              "deadline_hits", "hit_rate", "lat_p50_ms", "lat_p95_ms",
              "wall_ms", "identical");

  // Open-loop pacing shared by every run, so the FIFO, EDF, and migration
  // runs see the same arrival schedule.
  const auto pace_to_arrival = [&arrival_ms](size_t i,
                                             const Stopwatch& wall) {
    double wait_ms = arrival_ms[i] - wall.ElapsedMillis();
    if (wait_ms > 0.0) {
      std::this_thread::sleep_for(
          std::chrono::microseconds(static_cast<int64_t>(wait_ms * 1000)));
    }
  };

  const auto run_policy = [&](const char* name, SchedulingPolicy policy) {
    OnlineConfig config;
    config.num_threads = threads;
    config.steps_per_slice = steps_per_slice;
    config.policy = policy;
    OnlineScheduler service(config, make_rmq);
    service.Start();
    Stopwatch wall;
    for (size_t i = 0; i < tasks.size(); ++i) {
      pace_to_arrival(i, wall);
      service.Submit(tasks[i]);
    }
    service.Drain();

    PolicyOutcome outcome;
    outcome.name = name;
    outcome.report = service.Stop();
    std::vector<double> latencies;
    latencies.reserve(outcome.report.tasks.size());
    for (const BatchTaskResult& task : outcome.report.tasks) {
      latencies.push_back(task.elapsed_millis);
      if (task.deadline_hit &&
          !BitwiseEqual(task.frontier,
                        reference.tasks[static_cast<size_t>(task.index)]
                            .frontier)) {
        outcome.hits_match_reference = false;
      }
    }
    outcome.p50_latency_ms = Percentile(latencies, 0.50);
    outcome.p95_latency_ms = Percentile(latencies, 0.95);
    PrintRow(outcome);
    return outcome;
  };

  PolicyOutcome fifo = run_policy("fifo", SchedulingPolicy::kFifo);
  PolicyOutcome edf =
      run_policy("edf", SchedulingPolicy::kEarliestDeadlineFirst);

  // Migration mode: same arrival stream, deadline-free (every task must
  // complete its full iteration budget), tasks checkpointed off the
  // primary scheduler and resumed on a second instance mid-run. Migration
  // must be invisible: all frontiers bitwise equal to the reference.
  size_t migrations_attempted = 0;
  size_t migrations_done = 0;
  bool migrate_identical = true;
  bool migrate_pass = true;
  if (migrate_every > 0) {
    OnlineConfig config;
    config.num_threads = threads;
    config.steps_per_slice = steps_per_slice;
    OnlineScheduler primary(config, make_rmq);
    OnlineScheduler secondary(config, make_rmq);
    primary.Start();
    secondary.Start();

    std::vector<std::future<BatchTaskResult>> tickets;
    tickets.reserve(tasks.size());
    Stopwatch wall;
    for (size_t i = 0; i < tasks.size(); ++i) {
      pace_to_arrival(i, wall);
      BatchTask task = tasks[i];
      task.deadline_micros = 0;
      auto ticket = primary.Submit(task);
      if (!ticket.has_value()) {
        migrate_pass = false;
        break;
      }
      tickets.push_back(std::move(*ticket));
      if ((i + 1) % static_cast<size_t>(migrate_every) != 0) continue;
      // Migrate the submission just admitted (usually still queued) and
      // one from the middle of the backlog (usually mid-run), covering
      // both the fresh-session and the restored-checkpoint paths. A
      // nullopt suspension means the task already finished — fine.
      for (size_t victim : {i, i / 2}) {
        ++migrations_attempted;
        std::optional<SuspendedTask> suspended = primary.Suspend(victim);
        if (!suspended.has_value()) continue;
        if (secondary.Resume(*suspended)) {
          ++migrations_done;
        } else {
          migrate_pass = false;
        }
      }
    }
    primary.Drain();
    secondary.Drain();
    for (size_t i = 0; i < tickets.size(); ++i) {
      try {
        BatchTaskResult result = tickets[i].get();
        if (!BitwiseEqual(result.frontier, reference.tasks[i].frontier)) {
          migrate_identical = false;
        }
      } catch (const std::exception&) {
        // A rejected Resume() abandoned this task's SuspendedTask, which
        // fails the promise with a descriptive std::runtime_error; record
        // the failure instead of crashing before the FAIL line and the
        // JSON report are written.
        migrate_identical = false;
      }
    }
    BatchReport primary_report = primary.Stop();
    secondary.Stop();
    migrate_pass = migrate_pass && migrate_identical &&
                   migrations_done > 0 &&
                   tickets.size() == tasks.size() &&
                   primary_report.migrated_tasks == migrations_done;
    std::printf(
        "\nmigration: %zu/%zu suspend attempts resumed on the second "
        "instance, frontiers %s vs reference -> %s\n",
        migrations_done, migrations_attempted,
        migrate_identical ? "bitwise identical" : "DIVERGED",
        migrate_pass ? "ok" : "FAIL");
  }

  const bool identical =
      fifo.hits_match_reference && edf.hits_match_reference;
  const bool pass = identical &&
                    edf.report.deadline_hit_rate >=
                        fifo.report.deadline_hit_rate &&
                    migrate_pass;
  std::printf(
      "\n%s: EDF hit rate %.1f%% vs FIFO %.1f%%, hit-query frontiers %s vs "
      "blocking reference\n",
      pass ? "PASS" : "FAIL", 100.0 * edf.report.deadline_hit_rate,
      100.0 * fifo.report.deadline_hit_rate,
      identical ? "bitwise identical" : "DIVERGED");

  if (!json_path.empty()) {
    std::ofstream out(json_path);
    bench::JsonWriter w(out);
    bench::BeginReport(&w, "arrival_stream");
    w.BeginObject("config");
    w.Field("queries", queries);
    w.Field("loose", loose);
    w.Field("tight", tight);
    w.Field("tables", tables);
    w.Field("iterations", iterations);
    w.Field("threads", threads);
    w.Field("utilization", utilization);
    w.Field("seed", static_cast<int64_t>(seed));
    if (migrate_every > 0) w.Field("migrate_every", migrate_every);
    w.EndObject();
    w.BeginObject("metrics");
    w.Field("per_query_ms", per_query_ms);
    w.Field("tight_window_ms", tight_window_us / 1000.0);
    w.Field("loose_window_ms", loose_window_us / 1000.0);
    const PolicyOutcome* outcomes[] = {&fifo, &edf};
    for (const PolicyOutcome* o : outcomes) {
      w.BeginObject(o->name);
      w.Field("deadline_hits", o->report.deadline_hits);
      w.Field("deadline_tasks", o->report.deadline_tasks);
      w.Field("deadline_hit_rate", o->report.deadline_hit_rate);
      w.Field("lat_p50_ms", o->p50_latency_ms);
      w.Field("lat_p95_ms", o->p95_latency_ms);
      w.Field("wall_ms", o->report.wall_millis);
      w.EndObject();
    }
    if (migrate_every > 0) {
      w.Field("migrations_attempted", migrations_attempted);
      w.Field("migrations_done", migrations_done);
    }
    w.EndObject();
    w.BeginObject("gates");
    w.Field("hit_frontiers_identical", identical);
    if (migrate_every > 0) {
      w.Field("migrated_frontiers_identical", migrate_identical);
    }
    w.EndObject();
    w.Field("pass", pass);
    w.EndObject();
    out << "\n";
    std::printf("wrote %s\n", json_path.c_str());
  }
  return pass ? 0 : 1;
}
