// Supervised process-per-shard failover, against real shardd children
// (path injected as MOQO_SHARDD_PATH): spawn, mixed local/remote routing,
// clean shutdown, and the headline gate — kill -9 a shard mid-stream and
// every original future still delivers a frontier bitwise identical to an
// unperturbed single-threaded reference.
#include "service/shard_supervisor.h"

#include <signal.h>

#include <gtest/gtest.h>

#include <future>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "common/deadline.h"
#include "core/rmq.h"
#include "service/batch_optimizer.h"
#include "service/shard_router.h"

namespace moqo {
namespace {

constexpr int kIterations = 40;

OptimizerFactory RmqFactory(int max_iterations) {
  return [max_iterations] {
    RmqConfig config;
    config.max_iterations = max_iterations;
    return std::make_unique<Rmq>(config);
  };
}

std::vector<BatchTask> SmallBatch(int n, int tables,
                                  uint64_t master_seed = 2016) {
  GeneratorConfig generator;
  generator.num_tables = tables;
  return GenerateBatch(n, generator, master_seed, /*deadline_micros=*/0);
}

ShardSupervisorConfig SupervisorConfig() {
  ShardSupervisorConfig config;
  config.server_binary = MOQO_SHARDD_PATH;
  config.server_args = {"--iterations=" + std::to_string(kIterations),
                        "--steps-per-slice=2", "--snapshot-every=2",
                        "--threads=2", "--heartbeat-ms=100"};
  // Generous: slow sanitizer runs must not fake a death.
  config.remote.silence_timeout_ms = 20000;
  config.remote.op_timeout_ms = 20000;
  return config;
}

TEST(ShardSupervisorTest, MixedLocalAndRemoteShardsMatchReference) {
  std::vector<BatchTask> tasks = SmallBatch(10, 6);
  BatchReport reference = RunBlocking(tasks, RmqFactory(kIterations));

  ShardRouterConfig router_config;
  router_config.num_shards = 1;
  router_config.shard.num_threads = 2;
  ShardRouter router(router_config, RmqFactory(kIterations));
  router.Start();
  ShardSupervisor supervisor(SupervisorConfig(), &router);
  size_t first = supervisor.SpawnShard();
  size_t second = supervisor.SpawnShard();
  ASSERT_NE(first, static_cast<size_t>(-1));
  ASSERT_NE(second, static_cast<size_t>(-1));
  EXPECT_EQ(supervisor.stats().spawned, 2u);
  EXPECT_GT(supervisor.ShardPid(first), 0);
  EXPECT_EQ(router.stats().shards, 3u);

  std::vector<std::future<BatchTaskResult>> tickets;
  for (const BatchTask& task : tasks) {
    auto ticket = router.Submit(task);
    ASSERT_TRUE(ticket.has_value());
    tickets.push_back(std::move(*ticket));
  }
  router.Drain();
  for (size_t i = 0; i < tickets.size(); ++i) {
    EXPECT_TRUE(
        BitwiseEqual(tickets[i].get().frontier, reference.tasks[i].frontier))
        << "task " << i << " diverged in the mixed deployment";
  }
  BatchReport report = router.Stop();
  EXPECT_EQ(report.tasks.size(), tasks.size());
  EXPECT_EQ(supervisor.stats().failovers, 0u);
}

// The headline gate: kill -9 one shard process with tasks in flight. The
// supervisor detects the death, replays from the last snapshots onto the
// survivors, and every ORIGINAL future delivers bitwise-identically.
TEST(ShardSupervisorTest, Kill9MidStreamFailsOverBitwiseIdentically) {
  std::vector<BatchTask> tasks = SmallBatch(12, 6);
  BatchReport reference = RunBlocking(tasks, RmqFactory(kIterations));

  ShardRouterConfig router_config;
  router_config.num_shards = 1;  // one local survivor is always present
  router_config.shard.num_threads = 2;
  ShardRouter router(router_config, RmqFactory(kIterations));
  router.Start();
  ShardSupervisor supervisor(SupervisorConfig(), &router);
  size_t remote_a = supervisor.SpawnShard();
  size_t remote_b = supervisor.SpawnShard();
  ASSERT_NE(remote_a, static_cast<size_t>(-1));
  ASSERT_NE(remote_b, static_cast<size_t>(-1));

  // Pick a victim that will own work; fall back to remote_a if the ring
  // sends every task to the other shards (unlikely but legal).
  size_t victim = remote_a;
  for (const BatchTask& task : tasks) {
    size_t owner = router.ShardFor(task);
    if (owner == remote_a || owner == remote_b) {
      victim = owner;
      break;
    }
  }

  std::vector<std::future<BatchTaskResult>> tickets;
  for (const BatchTask& task : tasks) {
    auto ticket = router.Submit(task);
    ASSERT_TRUE(ticket.has_value());
    tickets.push_back(std::move(*ticket));
  }
  Stopwatch since_kill;
  ASSERT_TRUE(supervisor.KillShard(victim, SIGKILL));
  ASSERT_TRUE(supervisor.WaitForFailovers(1, /*timeout_ms=*/30000))
      << "death of the killed shard was never failed over";
  // The mid-frame EOF of the killed process, not heartbeat silence (20 s
  // here), must be what detects the death.
  EXPECT_LT(since_kill.ElapsedMillis(), 5000.0)
      << "failover waited for the silence timeout instead of the EOF";

  router.Drain();
  for (size_t i = 0; i < tickets.size(); ++i) {
    BatchTaskResult result = tickets[i].get();
    EXPECT_EQ(result.steps, kIterations);
    EXPECT_TRUE(BitwiseEqual(result.frontier, reference.tasks[i].frontier))
        << "task " << i << " diverged across the kill -9 failover";
  }
  // The kill landed right after the submit burst, so the victim still
  // held in-flight work that had to replay. Every replay is a migration,
  // and a replay resumes executed steps exactly when its recovery frame
  // carried a snapshot.
  ShardRouterStats stats = router.stats();
  EXPECT_EQ(stats.failed_shards, 1u);
  EXPECT_EQ(supervisor.stats().failovers, 1u);
  EXPECT_GT(stats.failover_replayed, 0u);
  EXPECT_LE(stats.failover_checkpointed, stats.failover_replayed);
  EXPECT_LE(stats.failover_replayed, stats.migrations);
  EXPECT_LE(stats.failover_checkpointed, stats.checkpointed_migrations);
  EXPECT_EQ(stats.failover_resume_steps > 0, stats.failover_checkpointed > 0);
  BatchReport report = router.Stop();
  EXPECT_EQ(report.tasks.size(), tasks.size());
}

// No survivor: killing the only shard fails every in-flight future with
// the failover context (shard id, route key) instead of a bare
// broken_promise.
TEST(ShardSupervisorTest, KillWithoutSurvivorFailsFuturesWithContext) {
  std::vector<BatchTask> tasks = SmallBatch(4, 6);

  ShardRouterConfig router_config;
  router_config.num_shards = 0;  // remote-only deployment
  router_config.shard.num_threads = 2;
  ShardRouter router(router_config, RmqFactory(kIterations));
  router.Start();
  ShardSupervisor supervisor(SupervisorConfig(), &router);
  size_t only = supervisor.SpawnShard();
  ASSERT_NE(only, static_cast<size_t>(-1));

  std::vector<std::future<BatchTaskResult>> tickets;
  for (const BatchTask& task : tasks) {
    auto ticket = router.Submit(task);
    ASSERT_TRUE(ticket.has_value());
    tickets.push_back(std::move(*ticket));
  }
  ASSERT_TRUE(supervisor.KillShard(only, SIGKILL));
  ASSERT_TRUE(supervisor.WaitForFailovers(1, /*timeout_ms=*/30000));

  size_t contextual_failures = 0;
  for (auto& ticket : tickets) {
    try {
      ticket.get();
      // A task that finished before the kill legitimately has a result.
    } catch (const std::runtime_error& e) {
      std::string what = e.what();
      EXPECT_NE(what.find("failover from shard"), std::string::npos) << what;
      EXPECT_NE(what.find("route key 0x"), std::string::npos) << what;
      EXPECT_NE(what.find("fingerprint 0x"), std::string::npos) << what;
      ++contextual_failures;
    }
  }
  EXPECT_GT(contextual_failures, 0u)
      << "the kill landed mid-stream; some futures must report the loss";
  router.Stop();
}

}  // namespace
}  // namespace moqo
