// Tests for the online deadline-aware optimization service: admission
// while workers are running, drain/stop semantics, back-pressure, the
// determinism contract across policies and thread counts, and EDF beating
// FIFO on deadline-hit-rate for a skewed workload.
#include "service/online_scheduler.h"

#include <gtest/gtest.h>

#include <atomic>
#include <future>
#include <memory>
#include <mutex>
#include <stdexcept>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "baselines/dp.h"
#include "core/rmq.h"
#include "service/batch_optimizer.h"

namespace moqo {
namespace {

OptimizerFactory RmqFactory(int max_iterations) {
  return [max_iterations] {
    RmqConfig config;
    config.max_iterations = max_iterations;
    return std::make_unique<Rmq>(config);
  };
}

/// True if every cost vector of `subset` appears bitwise in `superset`.
bool ContainsAll(const std::vector<CostVector>& superset,
                 const std::vector<CostVector>& subset) {
  for (const CostVector& want : subset) {
    bool found = false;
    for (const CostVector& have : superset) {
      if (BitwiseEqual({have}, {want})) {
        found = true;
        break;
      }
    }
    if (!found) return false;
  }
  return true;
}

std::vector<BatchTask> SmallBatch(int n, int tables,
                                  int64_t deadline_micros = 0,
                                  uint64_t master_seed = 2016) {
  GeneratorConfig generator;
  generator.num_tables = tables;
  return GenerateBatch(n, generator, master_seed, deadline_micros);
}

// A closed batch: admit every task up front, then let Stop() start the
// workers and run the backlog dry.
BatchReport RunClosedBatch(const OnlineConfig& config,
                           OptimizerFactory make_optimizer,
                           const std::vector<BatchTask>& tasks) {
  OnlineScheduler service(config, std::move(make_optimizer));
  for (const BatchTask& task : tasks) {
    EXPECT_TRUE(service.Submit(task).has_value());
  }
  return service.Stop();
}

// The acceptance contract of the online service: tasks submitted while the
// workers are already running produce frontiers bitwise identical to a
// single-thread blocking reference, for every scheduling policy, at 1, 2,
// and 8 threads. Only timing may depend on policy and thread count.
TEST(OnlineSchedulerTest, SubmitWhileRunningMatchesBlockingReference) {
  std::vector<BatchTask> tasks = SmallBatch(10, 6);

  BatchReport reference = RunBlocking(tasks, RmqFactory(20));

  const SchedulingPolicy policies[] = {
      SchedulingPolicy::kFifo, SchedulingPolicy::kEarliestDeadlineFirst,
      SchedulingPolicy::kSlackWeighted};
  for (SchedulingPolicy policy : policies) {
    for (int threads : {1, 2, 8}) {
      OnlineConfig config;
      config.num_threads = threads;
      config.steps_per_slice = 2;
      config.policy = policy;
      OnlineScheduler service(config, RmqFactory(20));
      service.Start();

      std::vector<std::future<BatchTaskResult>> tickets;
      for (const BatchTask& task : tasks) {
        auto ticket = service.Submit(task);
        ASSERT_TRUE(ticket.has_value());
        tickets.push_back(std::move(*ticket));
      }
      BatchReport report = service.Stop();

      ASSERT_EQ(report.tasks.size(), tasks.size());
      BatchComparison cmp = CompareToReference(reference, report);
      EXPECT_TRUE(cmp.identical)
          << "policy " << static_cast<int>(policy) << " at " << threads
          << " threads diverged from the blocking reference";
      for (size_t i = 0; i < tickets.size(); ++i) {
        BatchTaskResult ticket_result = tickets[i].get();
        EXPECT_EQ(ticket_result.index, static_cast<int>(i));
        EXPECT_TRUE(BitwiseEqual(ticket_result.frontier,
                                 report.tasks[i].frontier));
        EXPECT_EQ(report.tasks[i].steps, 20);
      }
    }
  }
}

// Submissions are legal before Start(): they build a backlog the workers
// drain once started, and the service accepts more work after a Drain().
TEST(OnlineSchedulerTest, SubmitBeforeStartBuildsBacklogAndDrains) {
  std::vector<BatchTask> tasks = SmallBatch(6, 5);
  OnlineConfig config;
  config.num_threads = 2;
  OnlineScheduler service(config, RmqFactory(8));

  for (int i = 0; i < 4; ++i) {
    ASSERT_TRUE(service.Submit(tasks[static_cast<size_t>(i)]).has_value());
  }
  ShardStats stats = service.stats();
  EXPECT_EQ(stats.open, 4u);
  EXPECT_EQ(stats.submitted, 4u);

  service.Drain();  // implicitly starts the workers
  EXPECT_EQ(service.stats().open, 0u);

  // The drained service keeps serving: admit two more tasks.
  ASSERT_TRUE(service.Submit(tasks[4]).has_value());
  ASSERT_TRUE(service.Submit(tasks[5]).has_value());
  BatchReport report = service.Stop();

  ASSERT_EQ(report.tasks.size(), 6u);
  for (size_t i = 0; i < report.tasks.size(); ++i) {
    EXPECT_EQ(report.tasks[i].index, static_cast<int>(i));
    EXPECT_FALSE(report.tasks[i].frontier.empty());
  }
}

// A closed batch multiplexed over a pool reproduces the blocking reference
// bitwise, and the report keeps the per-slice accounting: every task ran
// its full iteration budget, and latency since admission covers the
// (sliced) optimize time.
TEST(OnlineSchedulerTest, ClosedBatchMatchesBlockingReference) {
  std::vector<BatchTask> tasks = SmallBatch(8, 6);
  BatchReport reference = RunBlocking(tasks, RmqFactory(25));

  OnlineConfig config;
  config.num_threads = 4;
  config.steps_per_slice = 3;
  BatchReport multiplexed = RunClosedBatch(config, RmqFactory(25), tasks);

  ASSERT_EQ(multiplexed.tasks.size(), tasks.size());
  BatchComparison cmp = CompareToReference(reference, multiplexed);
  EXPECT_TRUE(cmp.identical);
  EXPECT_DOUBLE_EQ(cmp.max_alpha, 1.0);
  for (const BatchTaskResult& task : multiplexed.tasks) {
    EXPECT_FALSE(task.frontier.empty());
    EXPECT_EQ(task.steps, 25);
    EXPECT_GE(task.elapsed_millis, task.optimize_millis);
  }
}

TEST(OnlineSchedulerTest, ClosedBatchDeterministicAcrossThreadsAndSliceSizes) {
  std::vector<BatchTask> tasks = SmallBatch(6, 6);

  OnlineConfig narrow;
  narrow.num_threads = 1;
  narrow.steps_per_slice = 1;
  BatchReport a = RunClosedBatch(narrow, RmqFactory(15), tasks);

  OnlineConfig wide;
  wide.num_threads = 8;
  wide.steps_per_slice = 4;
  BatchReport b = RunClosedBatch(wide, RmqFactory(15), tasks);

  BatchComparison cmp = CompareToReference(a, b);
  EXPECT_TRUE(cmp.identical);
}

TEST(OnlineSchedulerTest, EmptyClosedBatchReturnsEmptyReport) {
  OnlineConfig config;
  config.num_threads = 4;
  BatchReport report = RunClosedBatch(config, RmqFactory(5), {});
  EXPECT_TRUE(report.tasks.empty());
  EXPECT_EQ(report.total_frontier, 0u);
  EXPECT_EQ(report.num_threads, 4);
}

// A deadline-bounded task with an unbounded optimizer must be finalized
// once its wall-clock window (started at admission) expires.
TEST(OnlineSchedulerTest, ClosedBatchHonorsTaskDeadlines) {
  constexpr int64_t kDeadlineMicros = 100 * 1000;
  std::vector<BatchTask> tasks = SmallBatch(4, 18, kDeadlineMicros);
  OnlineConfig config;
  config.num_threads = 2;
  Stopwatch watch;
  BatchReport report =
      RunClosedBatch(config, RmqFactory(/*max_iterations=*/0), tasks);
  EXPECT_LT(watch.ElapsedMillis(), 5000.0);
  ASSERT_EQ(report.tasks.size(), 4u);
  for (const BatchTaskResult& task : report.tasks) {
    EXPECT_TRUE(task.had_deadline);
    EXPECT_GT(task.elapsed_millis, 0.0);
  }
}

// The headline scheduling claim: on a skewed workload — a backlog of
// loose-deadline queries admitted ahead of a burst of tight-deadline ones —
// EDF completes strictly more deadline windows than FIFO. Work and
// deadlines are calibrated against a blocking run on this machine, so the
// structural argument (FIFO serves the tight burst after 20 loose tasks,
// EDF serves it first) holds under sanitizers and on loaded runners.
TEST(OnlineSchedulerTest, EdfBeatsFifoOnSkewedDeadlineWorkload) {
  constexpr int kIterations = 20;
  constexpr int kLoose = 20;
  constexpr int kTight = 6;

  // Warm up (cold caches would inflate the calibration), then measure the
  // per-task cost of this workload on this machine.
  RunBlocking(SmallBatch(2, 6), RmqFactory(kIterations));
  Stopwatch calib_watch;
  RunBlocking(SmallBatch(4, 6), RmqFactory(kIterations));
  const double per_task_millis = calib_watch.ElapsedMillis() / 4.0;
  const auto scaled = [per_task_millis](double factor) {
    return static_cast<int64_t>(factor * per_task_millis * 1000.0);
  };

  // Loose tasks can wait out the whole backlog (300x one task); tight
  // tasks can survive the tight burst itself (12x > 6 tasks) but not the
  // loose backlog (12x < 20 tasks).
  std::vector<BatchTask> workload =
      SmallBatch(kLoose, 6, scaled(300.0), /*master_seed=*/7);
  std::vector<BatchTask> tight =
      SmallBatch(kTight, 6, scaled(12.0), /*master_seed=*/8);
  workload.insert(workload.end(), tight.begin(), tight.end());

  const auto run_policy = [&](SchedulingPolicy policy) {
    OnlineConfig config;
    config.num_threads = 1;
    // Run-to-completion slices: FIFO then serves strictly in admission
    // order, making the structural miss/hit argument exact.
    config.steps_per_slice = kIterations;
    config.policy = policy;
    return RunClosedBatch(config, RmqFactory(kIterations), workload);
  };

  BatchReport fifo = run_policy(SchedulingPolicy::kFifo);
  BatchReport edf = run_policy(SchedulingPolicy::kEarliestDeadlineFirst);

  ASSERT_EQ(fifo.deadline_tasks, static_cast<size_t>(kLoose + kTight));
  ASSERT_EQ(edf.deadline_tasks, static_cast<size_t>(kLoose + kTight));
  EXPECT_GT(edf.deadline_hits, fifo.deadline_hits)
      << "EDF should rescue the tight-deadline burst that FIFO starves "
      << "(per-task cost " << per_task_millis << " ms)";
  EXPECT_GT(edf.deadline_hit_rate, fifo.deadline_hit_rate);
}

// A full admission window under kReject bounces submissions instead of
// blocking; a completed task frees its slot.
TEST(OnlineSchedulerTest, RejectPolicyBoundsOpenQueries) {
  std::vector<BatchTask> tasks = SmallBatch(4, 5);
  OnlineConfig config;
  config.num_threads = 2;
  config.max_open = 2;
  config.admission = AdmissionPolicy::kReject;
  OnlineScheduler service(config, RmqFactory(5));

  // Workers not started yet: admitted tasks stay open, so the window
  // fills deterministically.
  EXPECT_TRUE(service.Submit(tasks[0]).has_value());
  EXPECT_TRUE(service.Submit(tasks[1]).has_value());
  EXPECT_FALSE(service.Submit(tasks[2]).has_value());
  EXPECT_EQ(service.stats().open, 2u);

  service.Drain();
  EXPECT_TRUE(service.Submit(tasks[3]).has_value());
  BatchReport report = service.Stop();
  ASSERT_EQ(report.tasks.size(), 3u);  // the rejected task was never admitted
  for (const BatchTaskResult& task : report.tasks) {
    EXPECT_FALSE(task.frontier.empty());
  }
}

// Under kBlock a full window stalls the submitter until a slot frees up;
// every submission is eventually admitted.
TEST(OnlineSchedulerTest, BlockPolicyAdmitsOnceSlotsFree) {
  std::vector<BatchTask> tasks = SmallBatch(4, 5);
  OnlineConfig config;
  config.num_threads = 1;
  config.max_open = 1;
  config.admission = AdmissionPolicy::kBlock;
  OnlineScheduler service(config, RmqFactory(5));
  service.Start();

  std::vector<std::future<BatchTaskResult>> tickets;
  for (const BatchTask& task : tasks) {
    auto ticket = service.Submit(task);  // blocks while the window is full
    ASSERT_TRUE(ticket.has_value());
    tickets.push_back(std::move(*ticket));
  }
  BatchReport report = service.Stop();
  ASSERT_EQ(report.tasks.size(), 4u);
  for (auto& ticket : tickets) {
    EXPECT_FALSE(ticket.get().frontier.empty());
  }
}

// Deadline bookkeeping: an unbounded session under a deadline is finalized
// as a miss; a bounded session under a generous deadline is a hit.
TEST(OnlineSchedulerTest, DeadlineHitFlagsAndRates) {
  OnlineConfig config;
  config.num_threads = 2;
  config.policy = SchedulingPolicy::kEarliestDeadlineFirst;

  {
    // max_iterations = 0: never Done, so the 50 ms window must expire.
    OnlineScheduler service(config, RmqFactory(/*max_iterations=*/0));
    for (const BatchTask& task : SmallBatch(3, 10, /*deadline_micros=*/
                                            50 * 1000)) {
      service.Submit(task);
    }
    BatchReport report = service.Stop();
    ASSERT_EQ(report.tasks.size(), 3u);
    EXPECT_EQ(report.deadline_tasks, 3u);
    EXPECT_EQ(report.deadline_hits, 0u);
    EXPECT_DOUBLE_EQ(report.deadline_hit_rate, 0.0);
    for (const BatchTaskResult& task : report.tasks) {
      EXPECT_TRUE(task.had_deadline);
      EXPECT_FALSE(task.deadline_hit);
      EXPECT_GE(task.elapsed_millis, 0.0);
    }
  }
  {
    // 10 iterations inside a 60 s window: every deadline is hit.
    OnlineScheduler service(config, RmqFactory(10));
    for (const BatchTask& task : SmallBatch(3, 5, /*deadline_micros=*/
                                            60 * 1000 * 1000)) {
      service.Submit(task);
    }
    BatchReport report = service.Stop();
    EXPECT_EQ(report.deadline_tasks, 3u);
    EXPECT_EQ(report.deadline_hits, 3u);
    EXPECT_DOUBLE_EQ(report.deadline_hit_rate, 1.0);
  }
}

// retain_frontiers = false bounds a long-lived service's memory: each
// frontier is delivered through its future only, while the Stop() report
// keeps the scalar metrics and deadline aggregates.
TEST(OnlineSchedulerTest, RetainFrontiersOffDropsReportFrontiers) {
  OnlineConfig config;
  config.num_threads = 2;
  config.retain_frontiers = false;
  OnlineScheduler service(config, RmqFactory(8));
  service.Start();

  std::vector<std::future<BatchTaskResult>> tickets;
  for (const BatchTask& task : SmallBatch(3, 5, /*deadline_micros=*/
                                          60 * 1000 * 1000)) {
    auto ticket = service.Submit(task);
    ASSERT_TRUE(ticket.has_value());
    tickets.push_back(std::move(*ticket));
  }
  for (auto& ticket : tickets) {
    EXPECT_FALSE(ticket.get().frontier.empty());
  }
  BatchReport report = service.Stop();
  ASSERT_EQ(report.tasks.size(), 3u);
  EXPECT_EQ(report.total_frontier, 0u);
  EXPECT_EQ(report.deadline_hits, 3u);
  for (const BatchTaskResult& task : report.tasks) {
    EXPECT_TRUE(task.frontier.empty());
    EXPECT_GT(task.steps, 0);
  }
}

TEST(OnlineSchedulerTest, StopRejectsFurtherSubmissions) {
  OnlineConfig config;
  config.num_threads = 1;
  OnlineScheduler service(config, RmqFactory(5));
  BatchReport report = service.Stop();  // never started, nothing admitted
  EXPECT_TRUE(report.tasks.empty());
  EXPECT_DOUBLE_EQ(report.deadline_hit_rate, 1.0);
  EXPECT_FALSE(service.Submit(SmallBatch(1, 5)[0]).has_value());
}

// A DP task on an oversized query gives up immediately: Done, empty
// frontier, wall-clock window wide open. It must be finalized as a miss,
// never a hit — regression for the gave-up/deadline_hit bug.
TEST(OnlineSchedulerTest, GaveUpDpTaskIsNeverADeadlineHit) {
  OnlineConfig config;
  config.num_threads = 1;
  OnlineScheduler service(config, [] {
    return std::make_unique<DpOptimizer>();  // max_tables = 20
  });
  GeneratorConfig generator;
  generator.num_tables = 25;
  std::vector<BatchTask> tasks =
      GenerateBatch(1, generator, /*master_seed=*/5, /*deadline_micros=*/
                    60 * 1000 * 1000);
  auto ticket = service.Submit(tasks[0]);
  ASSERT_TRUE(ticket.has_value());
  BatchReport report = service.Stop();

  BatchTaskResult result = ticket->get();
  EXPECT_TRUE(result.gave_up);
  EXPECT_TRUE(result.frontier.empty());
  EXPECT_TRUE(result.had_deadline);
  EXPECT_FALSE(result.deadline_hit);
  EXPECT_EQ(report.deadline_tasks, 1u);
  EXPECT_EQ(report.deadline_hits, 0u);
  EXPECT_DOUBLE_EQ(report.deadline_hit_rate, 0.0);
}

// Migration correctness: tasks suspended off one scheduler instance and
// resumed on another mid-run must still produce frontiers bitwise
// identical to the blocking single-thread reference, delivered through
// the *original* Submit() futures.
TEST(OnlineSchedulerTest, SuspendResumeMigrationMatchesBlockingReference) {
  std::vector<BatchTask> tasks = SmallBatch(8, 6);

  BatchReport reference = RunBlocking(tasks, RmqFactory(20));

  OnlineConfig config;
  config.num_threads = 2;
  OnlineScheduler source(config, RmqFactory(20));
  OnlineScheduler destination(config, RmqFactory(20));
  source.Start();
  destination.Start();

  std::vector<std::future<BatchTaskResult>> tickets;
  size_t migrated = 0;
  for (size_t i = 0; i < tasks.size(); ++i) {
    auto ticket = source.Submit(tasks[i]);
    ASSERT_TRUE(ticket.has_value());
    tickets.push_back(std::move(*ticket));
    // Migrate every second submission right away: the workers race us, so
    // the suspension lands pre-Begin, mid-run, or not at all (finished) —
    // all three must preserve the result.
    if (i % 2 == 1) {
      auto suspended = source.Suspend(i);
      if (suspended.has_value()) {
        ASSERT_TRUE(destination.Resume(*suspended));
        ++migrated;
      }
    }
  }
  source.Drain();
  destination.Drain();

  for (size_t i = 0; i < tickets.size(); ++i) {
    BatchTaskResult result = tickets[i].get();
    EXPECT_EQ(result.steps, 20);
    EXPECT_TRUE(BitwiseEqual(result.frontier, reference.tasks[i].frontier))
        << "task " << i << " diverged after migration";
  }
  BatchReport source_report = source.Stop();
  BatchReport destination_report = destination.Stop();
  EXPECT_EQ(source_report.migrated_tasks, migrated);
  EXPECT_EQ(destination_report.tasks.size(), migrated);
  EXPECT_EQ(source_report.tasks.size(), tasks.size());
}

// A pre-Start backlog task has never run a slice; suspending it yields an
// empty checkpoint and resuming it (even into the same scheduler) begins
// the session from scratch with its original seed.
TEST(OnlineSchedulerTest, SuspendFromBacklogAndResumeIntoSameScheduler) {
  std::vector<BatchTask> tasks = SmallBatch(2, 5);
  BatchReport reference = RunBlocking(tasks, RmqFactory(8));

  OnlineConfig config;
  config.num_threads = 1;
  OnlineScheduler service(config, RmqFactory(8));
  auto ticket0 = service.Submit(tasks[0]);
  auto ticket1 = service.Submit(tasks[1]);
  ASSERT_TRUE(ticket0.has_value() && ticket1.has_value());

  // Workers are not running: the suspension must find the task queued.
  auto suspended = service.Suspend(0);
  ASSERT_TRUE(suspended.has_value());
  EXPECT_TRUE(suspended->checkpoint.empty());
  EXPECT_EQ(suspended->steps, 0);
  EXPECT_EQ(service.stats().open, 1u);
  // Double-suspension is refused.
  EXPECT_FALSE(service.Suspend(0).has_value());

  // A never-started scheduler refuses the re-admission (no worker would
  // ever run it); the task stays intact and resumable once it is running.
  EXPECT_FALSE(service.Resume(*suspended));
  EXPECT_FALSE(suspended->consumed());
  service.Start();
  ASSERT_TRUE(service.Resume(*suspended));
  service.Drain();
  EXPECT_TRUE(BitwiseEqual(ticket0->get().frontier,
                           reference.tasks[0].frontier));
  EXPECT_TRUE(BitwiseEqual(ticket1->get().frontier,
                           reference.tasks[1].frontier));
  BatchReport report = service.Stop();
  // Three slots: two submissions plus the re-admission; slot 0 is a stub.
  ASSERT_EQ(report.tasks.size(), 3u);
  EXPECT_TRUE(report.tasks[0].migrated);
  EXPECT_EQ(report.migrated_tasks, 1u);
}

// Suspending an already-completed task reports nullopt, and a suspension
// releases the admission-window slot (back-pressure accounting).
TEST(OnlineSchedulerTest, SuspendReleasesWindowSlotAndRefusesFinished) {
  std::vector<BatchTask> tasks = SmallBatch(3, 5);
  OnlineConfig config;
  config.num_threads = 1;
  config.max_open = 2;
  config.admission = AdmissionPolicy::kReject;
  OnlineScheduler service(config, RmqFactory(6));

  // Pre-Start: fill the window, then make room by suspending.
  ASSERT_TRUE(service.Submit(tasks[0]).has_value());
  ASSERT_TRUE(service.Submit(tasks[1]).has_value());
  EXPECT_FALSE(service.Submit(tasks[2]).has_value());
  auto suspended = service.Suspend(1);
  ASSERT_TRUE(suspended.has_value());
  EXPECT_EQ(service.stats().open, 1u);
  auto ticket = service.Submit(tasks[2]);
  ASSERT_TRUE(ticket.has_value());

  service.Drain();
  // Every admitted task has finished; suspension is now impossible.
  EXPECT_FALSE(service.Suspend(0).has_value());
  EXPECT_FALSE(service.Suspend(2).has_value());
  EXPECT_FALSE(service.Suspend(99).has_value());
  ASSERT_TRUE(service.Resume(*suspended));
  // A consumed SuspendedTask is refused: re-admitting it would duplicate
  // the task with a moved-from promise.
  EXPECT_FALSE(service.Resume(*suspended));
  service.Drain();
  BatchReport report = service.Stop();
  EXPECT_EQ(report.migrated_tasks, 1u);
}

// An abandoned migration must surface as an explicit error at the
// submitter: dropping a SuspendedTask without Resume() fails the original
// Submit() future with a descriptive exception (not a bare broken
// promise), and the source scheduler's Drain()/Stop() complete without
// waiting on the migrated-away slot.
TEST(OnlineSchedulerTest, AbandonedSuspensionFailsFutureDescriptively) {
  std::vector<BatchTask> tasks = SmallBatch(2, 5);
  OnlineConfig config;
  config.num_threads = 1;
  OnlineScheduler service(config, RmqFactory(6));
  auto ticket0 = service.Submit(tasks[0]);
  auto ticket1 = service.Submit(tasks[1]);
  ASSERT_TRUE(ticket0.has_value() && ticket1.has_value());

  {
    auto suspended = service.Suspend(0);
    ASSERT_TRUE(suspended.has_value());
    // Dropped here without Resume() — the task is lost in transit.
  }
  try {
    ticket0->get();
    FAIL() << "an abandoned task delivered a result";
  } catch (const std::runtime_error& error) {
    EXPECT_NE(std::string(error.what()).find("Resume"), std::string::npos)
        << "unhelpful abandonment message: " << error.what();
  } catch (const std::future_error&) {
    FAIL() << "abandonment surfaced as a bare broken promise";
  }

  // The suspension released its slot, so draining the remaining work must
  // not hang on the task that migrated away and died.
  service.Drain();
  EXPECT_EQ(ticket1->get().steps, 6);
  BatchReport report = service.Stop();
  EXPECT_EQ(report.migrated_tasks, 1u);
}

// Move-assigning over a live SuspendedTask abandons the overwritten task
// the same way destruction does.
TEST(OnlineSchedulerTest, MoveAssignAbandonsOverwrittenSuspension) {
  std::vector<BatchTask> tasks = SmallBatch(2, 5);
  OnlineConfig config;
  config.num_threads = 1;
  OnlineScheduler service(config, RmqFactory(6));
  auto ticket0 = service.Submit(tasks[0]);
  auto ticket1 = service.Submit(tasks[1]);
  ASSERT_TRUE(ticket0.has_value() && ticket1.has_value());
  auto first = service.Suspend(0);
  auto second = service.Suspend(1);
  ASSERT_TRUE(first.has_value() && second.has_value());

  *first = std::move(*second);  // task 0's promise must fail descriptively
  EXPECT_THROW(ticket0->get(), std::runtime_error);

  service.Start();
  ASSERT_TRUE(service.Resume(*first));  // holds task 1 now
  service.Drain();
  EXPECT_EQ(ticket1->get().steps, 6);
  service.Stop();
}

// The SuspendedTask consumed flag is the single-owner hand-off contract
// in miniature: a fresh suspension is unconsumed; a successful Resume()
// consumes it (a second Resume() is refused instead of admitting a
// duplicate with a moved-from promise); and MarkConsumed() — the
// transport path, where the promise is moved into a rebuilt task — keeps
// the destructor from failing the moved-away future, which must stay
// deliverable by its new owner.
TEST(OnlineSchedulerTest, ConsumedFlagTracksPromiseOwnership) {
  std::vector<BatchTask> tasks = SmallBatch(2, 5);
  OnlineConfig config;
  config.num_threads = 1;
  OnlineScheduler service(config, RmqFactory(6));
  auto ticket0 = service.Submit(tasks[0]);
  auto ticket1 = service.Submit(tasks[1]);
  ASSERT_TRUE(ticket0.has_value() && ticket1.has_value());

  // Suspend both from the pre-Start backlog — deterministic; once the
  // single worker is running it could finish task 1 before a later
  // Suspend(1) lands.
  auto suspended = service.Suspend(0);
  auto shipped = service.Suspend(1);
  ASSERT_TRUE(suspended.has_value());
  ASSERT_TRUE(shipped.has_value());
  EXPECT_FALSE(suspended->consumed());

  service.Start();
  ASSERT_TRUE(service.Resume(*suspended));
  EXPECT_TRUE(suspended->consumed());
  EXPECT_FALSE(service.Resume(*suspended))
      << "a consumed task was admitted twice";

  // Transport path: the promise moves into a rebuilt task (here, stood in
  // by a bare promise); MarkConsumed() tells the husk it no longer owns
  // the future, so dropping it must not fail the ticket.
  std::promise<BatchTaskResult> rebuilt = std::move(shipped->promise);
  shipped->MarkConsumed();
  EXPECT_TRUE(shipped->consumed());
  shipped.reset();  // destructor must leave the moved-away promise alone
  BatchTaskResult stub;
  stub.index = 1;
  stub.steps = 77;
  rebuilt.set_value(std::move(stub));
  EXPECT_EQ(ticket1->get().steps, 77);

  service.Drain();
  EXPECT_EQ(ticket0->get().steps, 6);
  service.Stop();
}

// A migration destination must be live: Resume() on a never-started or
// stopped scheduler returns false and leaves the task untouched, so the
// caller can land it on a running instance instead of parking it where no
// worker will ever pick it up.
TEST(OnlineSchedulerTest, ResumeRequiresRunningScheduler) {
  std::vector<BatchTask> tasks = SmallBatch(1, 5);
  OnlineConfig config;
  config.num_threads = 1;
  OnlineScheduler source(config, RmqFactory(6));
  auto ticket = source.Submit(tasks[0]);
  ASSERT_TRUE(ticket.has_value());
  auto suspended = source.Suspend(0);
  ASSERT_TRUE(suspended.has_value());

  OnlineScheduler never_started(config, RmqFactory(6));
  EXPECT_FALSE(never_started.Resume(*suspended));
  EXPECT_FALSE(suspended->consumed());

  OnlineScheduler stopped(config, RmqFactory(6));
  stopped.Stop();
  EXPECT_FALSE(stopped.Resume(*suspended));
  EXPECT_FALSE(suspended->consumed());

  // The same object still lands on a running scheduler, and the original
  // future delivers from there.
  OnlineScheduler running(config, RmqFactory(6));
  running.Start();
  ASSERT_TRUE(running.Resume(*suspended));
  running.Drain();
  EXPECT_EQ(ticket->get().steps, 6);
  running.Stop();
  source.Stop();
}

// Stress the suspension hand-off under load (the TSan tier runs this):
// a migrator thread ping-pongs tasks between two live schedulers while
// their workers are mid-slice; every future must still deliver the
// blocking reference bitwise.
TEST(OnlineSchedulerTest, ConcurrentSuspendResumeUnderLoadIsRaceFree) {
  constexpr int kTasks = 12;
  std::vector<BatchTask> tasks = SmallBatch(kTasks, 6);
  BatchReport reference = RunBlocking(tasks, RmqFactory(30));

  OnlineConfig config;
  config.num_threads = 4;
  config.steps_per_slice = 1;
  OnlineScheduler ping(config, RmqFactory(30));
  OnlineScheduler pong(config, RmqFactory(30));
  ping.Start();
  pong.Start();

  std::vector<std::future<BatchTaskResult>> tickets;
  for (const BatchTask& task : tasks) {
    auto ticket = ping.Submit(task);
    ASSERT_TRUE(ticket.has_value());
    tickets.push_back(std::move(*ticket));
  }

  // Hop every task once ping -> pong while the workers are running, and
  // hop the even ones straight back pong -> ping.
  std::thread migrator([&] {
    for (size_t i = 0; i < kTasks; ++i) {
      auto suspended = ping.Suspend(i);
      if (!suspended.has_value()) continue;
      ASSERT_TRUE(pong.Resume(*suspended));
      if (i % 2 == 0) {
        // Its index on pong is pong's latest submission.
        auto back = pong.Suspend(pong.stats().submitted - 1);
        if (back.has_value()) {
          ASSERT_TRUE(ping.Resume(*back));
        }
      }
    }
  });
  migrator.join();
  ping.Drain();
  pong.Drain();

  for (size_t i = 0; i < tickets.size(); ++i) {
    BatchTaskResult result = tickets[i].get();
    EXPECT_EQ(result.steps, 30);
    EXPECT_TRUE(BitwiseEqual(result.frontier, reference.tasks[i].frontier))
        << "task " << i << " diverged after ping-pong migration";
  }
  ping.Stop();
  pong.Stop();
}

// Periodic checkpoint snapshots (the failover recovery substrate): with a
// cadence set, every live task is checkpointed every K slices and pushed
// through the sink; the snapshots are observable (stats().snapshots), carry
// a restorable mid-run state, and never perturb results.
TEST(OnlineSchedulerTest, PeriodicSnapshotsAreObservableAndHarmless) {
  std::vector<BatchTask> tasks = SmallBatch(6, 6);
  BatchReport reference = RunBlocking(tasks, RmqFactory(30));

  std::mutex mu;
  std::vector<TaskSnapshot> collected;
  OnlineConfig config;
  config.num_threads = 2;
  config.steps_per_slice = 2;  // many slice boundaries per task
  config.snapshot_every = 2;
  config.snapshot_sink = [&](TaskSnapshot&& snapshot) {
    std::lock_guard<std::mutex> lock(mu);
    collected.push_back(std::move(snapshot));
  };
  OnlineScheduler service(config, RmqFactory(30));
  service.Start();
  std::vector<std::future<BatchTaskResult>> tickets;
  for (const BatchTask& task : tasks) {
    auto ticket = service.Submit(task);
    ASSERT_TRUE(ticket.has_value());
    tickets.push_back(std::move(*ticket));
  }
  service.Drain();
  for (size_t i = 0; i < tickets.size(); ++i) {
    EXPECT_TRUE(
        BitwiseEqual(tickets[i].get().frontier, reference.tasks[i].frontier))
        << "task " << i << " perturbed by snapshotting";
  }
  service.Stop();

  std::lock_guard<std::mutex> lock(mu);
  EXPECT_GT(collected.size(), 0u);
  EXPECT_EQ(service.stats().snapshots, collected.size());
  for (const TaskSnapshot& snapshot : collected) {
    EXPECT_LT(snapshot.submission_index, tasks.size());
    EXPECT_FALSE(snapshot.checkpoint.empty());
    EXPECT_GT(snapshot.steps, 0);
    EXPECT_LT(snapshot.steps, 30);  // mid-run, never a finished task
    ASSERT_NE(snapshot.task.query, nullptr);
    EXPECT_EQ(snapshot.task.query->NumTables(), 6);
  }
  // 30 iterations at 2 steps/slice and a cadence of 2 is ~7 snapshots per
  // task; demand at least a few to prove the cadence repeats.
  EXPECT_GE(collected.size(), tasks.size());
}

// Snapshots stay off by default: a sink without a cadence never fires.
TEST(OnlineSchedulerTest, SnapshotsAreOffByDefault) {
  std::atomic<size_t> fired{0};
  OnlineConfig config;
  config.num_threads = 2;
  config.snapshot_sink = [&](TaskSnapshot&&) { ++fired; };
  OnlineScheduler service(config, RmqFactory(12));
  service.Start();
  std::vector<BatchTask> tasks = SmallBatch(3, 5);
  for (const BatchTask& task : tasks) {
    ASSERT_TRUE(service.Submit(task).has_value());
  }
  service.Drain();
  service.Stop();
  EXPECT_EQ(fired.load(), 0u);
  EXPECT_EQ(service.stats().snapshots, 0u);
}

// Destruction without an explicit Stop() drains admitted work so that no
// promise is broken and no worker leaks.
TEST(OnlineSchedulerTest, DestructorDrainsAdmittedTasks) {
  std::future<BatchTaskResult> ticket;
  {
    OnlineConfig config;
    config.num_threads = 2;
    OnlineScheduler service(config, RmqFactory(8));
    service.Start();
    auto maybe = service.Submit(SmallBatch(1, 5)[0]);
    ASSERT_TRUE(maybe.has_value());
    ticket = std::move(*maybe);
  }
  BatchTaskResult result = ticket.get();  // fulfilled, not broken
  EXPECT_FALSE(result.frontier.empty());
}

// Frontier cache, exact-hit path: resubmitting a completed (query, seed)
// is answered from the cache without a session — the future resolves with
// a bitwise-identical frontier, zero steps, and the served_from_cache
// marker, and the report counts it.
TEST(OnlineSchedulerTest, ExactCacheHitServesBitwiseIdenticalFrontier) {
  std::vector<BatchTask> tasks = SmallBatch(4, 6);
  auto cache = std::make_shared<FrontierCache>();
  OnlineConfig config;
  config.num_threads = 2;
  config.frontier_cache = cache;
  OnlineScheduler service(config, RmqFactory(20));
  service.Start();

  std::vector<std::future<BatchTaskResult>> cold;
  for (const BatchTask& task : tasks) {
    auto ticket = service.Submit(task);
    ASSERT_TRUE(ticket.has_value());
    cold.push_back(std::move(*ticket));
  }
  service.Drain();  // all completions inserted before the resubmits
  std::vector<BatchTaskResult> cold_results;
  for (auto& ticket : cold) cold_results.push_back(ticket.get());

  std::vector<std::future<BatchTaskResult>> repeat;
  for (const BatchTask& task : tasks) {
    auto ticket = service.Submit(task);
    ASSERT_TRUE(ticket.has_value());
    repeat.push_back(std::move(*ticket));
  }
  for (size_t i = 0; i < repeat.size(); ++i) {
    BatchTaskResult result = repeat[i].get();
    EXPECT_TRUE(result.served_from_cache) << "task " << i;
    EXPECT_EQ(result.steps, 0) << "task " << i;
    EXPECT_FALSE(result.gave_up);
    EXPECT_TRUE(BitwiseEqual(result.frontier, cold_results[i].frontier))
        << "cached frontier for task " << i << " diverged";
  }
  BatchReport report = service.Stop();
  EXPECT_EQ(report.cache_served_tasks, tasks.size());
  ASSERT_EQ(report.tasks.size(), 2 * tasks.size());

  FrontierCacheStats stats = cache->stats();
  EXPECT_EQ(stats.exact_hits, tasks.size());
  EXPECT_EQ(stats.inserts, tasks.size());
  EXPECT_EQ(stats.entries, tasks.size());
}

// Frontier cache, warm-hit path: the same query under a different seed
// runs a full session (no shortcut, no determinism change — warm plans
// only widen the reported frontier) and its completion replaces the
// cache entry, so the newest seed then exact-hits.
TEST(OnlineSchedulerTest, WarmCacheHitRunsFullSessionAndReplacesEntry) {
  BatchTask task = SmallBatch(1, 6)[0];
  auto cache = std::make_shared<FrontierCache>();
  OnlineConfig config;
  config.num_threads = 1;
  config.frontier_cache = cache;
  OnlineScheduler service(config, RmqFactory(20));
  service.Start();

  ASSERT_TRUE(service.Submit(task).has_value());
  service.Drain();

  BatchTask reseeded = task;
  reseeded.seed = task.seed + 1;
  auto warm_ticket = service.Submit(reseeded);
  ASSERT_TRUE(warm_ticket.has_value());
  service.Drain();
  BatchTaskResult warm = warm_ticket->get();
  EXPECT_FALSE(warm.served_from_cache);
  EXPECT_EQ(warm.steps, 20);  // a real run, not a shortcut
  EXPECT_FALSE(warm.frontier.empty());
  // No quality loss: every point of a cold run of the same reseeded task
  // reappears bitwise in the warm-started frontier.
  BatchReport cold = RunBlocking({reseeded}, RmqFactory(20));
  ASSERT_EQ(cold.tasks.size(), 1u);
  EXPECT_FALSE(cold.tasks[0].frontier.empty());
  EXPECT_TRUE(ContainsAll(warm.frontier, cold.tasks[0].frontier));

  FrontierCacheStats stats = cache->stats();
  EXPECT_EQ(stats.warm_hits, 1u);
  EXPECT_EQ(stats.exact_hits, 0u);
  EXPECT_EQ(stats.inserts, 2u);   // completion replaced the entry
  EXPECT_EQ(stats.entries, 1u);   // one fingerprint, newest seed wins

  // The replacement now exact-hits for the new seed.
  auto repeat = service.Submit(reseeded);
  ASSERT_TRUE(repeat.has_value());
  BatchTaskResult repeated = repeat->get();
  EXPECT_TRUE(repeated.served_from_cache);
  EXPECT_TRUE(BitwiseEqual(repeated.frontier, warm.frontier));
  service.Stop();
}

// Without a cache configured, repeats run cold: nothing is served from
// cache and results still match the blocking reference.
TEST(OnlineSchedulerTest, CacheOffLeavesRepeatsCold) {
  std::vector<BatchTask> tasks = SmallBatch(2, 5);
  OnlineConfig config;
  config.num_threads = 2;
  OnlineScheduler service(config, RmqFactory(12));
  service.Start();
  for (int round = 0; round < 2; ++round) {
    for (const BatchTask& task : tasks) {
      ASSERT_TRUE(service.Submit(task).has_value());
    }
    service.Drain();
  }
  BatchReport report = service.Stop();
  EXPECT_EQ(report.cache_served_tasks, 0u);
  ASSERT_EQ(report.tasks.size(), 4u);
  for (const BatchTaskResult& result : report.tasks) {
    EXPECT_FALSE(result.served_from_cache);
    EXPECT_EQ(result.steps, 12);
  }
}

}  // namespace
}  // namespace moqo
