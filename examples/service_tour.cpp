// Service tour: one workload through every way the optimization service
// runs it, each stage checked bit for bit against the blocking reference.
//
//   $ ./examples/service_tour
//
//  1. Blocking reference: RunBlocking() optimizes each query in turn on
//     the calling thread.
//  2. OnlineScheduler on 4 threads: half the queries queue up before
//     Start(), the rest are submitted while the workers run, and one
//     in-flight query is suspended and resumed on a standby scheduler
//     (live migration); its original future still delivers.
//  3. ShardRouter over local shards: AddShard() grows the fleet
//     mid-stream, rebalancing in-flight queries through the wire format.
//  4. Supervised failover: a ShardSupervisor spawns one real `shardd`
//     process next to a local shard and kill -9s it mid-stream; its
//     in-flight queries replay on the survivor from their last snapshot.
//
// Same seeds and iteration budgets give the same frontiers under any
// thread count, policy, migration, shard layout or failover, so the tour
// exits non-zero on any frontier divergence or lost future.
#include <signal.h>

#include <chrono>
#include <future>
#include <iostream>
#include <memory>
#include <optional>
#include <string>
#include <thread>
#include <vector>

#include "core/rmq.h"
#include "service/batch_optimizer.h"
#include "service/online_scheduler.h"
#include "service/shard_router.h"
#include "service/shard_supervisor.h"

using namespace moqo;

namespace {

constexpr int kIterations = 40;

// Waits (bounded) for every ticket and compares it with the reference.
bool Check(const char* stage,
           std::vector<std::future<BatchTaskResult>>* tickets,
           const BatchReport& reference) {
  size_t identical = 0;
  for (size_t i = 0; i < tickets->size(); ++i) {
    std::future<BatchTaskResult>& ticket = (*tickets)[i];
    if (ticket.wait_for(std::chrono::seconds(60)) !=
        std::future_status::ready) {
      std::cout << "  query " << i << ": LOST (no result after 60 s)\n";
      continue;
    }
    try {
      if (BitwiseEqual(ticket.get().frontier, reference.tasks[i].frontier)) {
        ++identical;
      } else {
        std::cout << "  query " << i << ": DIVERGED\n";
      }
    } catch (const std::exception& e) {
      std::cout << "  query " << i << ": LOST (" << e.what() << ")\n";
    }
  }
  const bool ok = identical == tickets->size();
  std::cout << stage << ": " << identical << "/" << tickets->size()
            << " frontiers bitwise identical to the reference\n\n";
  return ok;
}

}  // namespace

int main() {
  // Sixteen 6-table queries, each bounded to kIterations RMQ iterations.
  // Even queries also get a generous 2 s window, so the reports show
  // deadline hits; the iteration budget, not the clock, ends every query.
  GeneratorConfig generator;
  generator.num_tables = 6;
  std::vector<BatchTask> workload =
      GenerateBatch(/*n=*/16, generator, /*master_seed=*/2016,
                    /*deadline_micros=*/0);
  for (size_t i = 0; i < workload.size(); i += 2) {
    workload[i].deadline_micros = 2 * 1000 * 1000;
  }
  const size_t half = workload.size() / 2;
  OptimizerFactory make_rmq = [] {
    RmqConfig config;
    config.max_iterations = kIterations;
    return std::make_unique<Rmq>(config);
  };
  bool ok = true;

  // 1. The bitwise yardstick.
  BatchReport reference = RunBlocking(workload, make_rmq);
  std::cout << "blocking reference: " << reference.Summary() << "\n";

  // 2. One scheduler, plus a standby to migrate to.
  {
    OnlineConfig config;
    config.num_threads = 4;
    config.steps_per_slice = 2;
    OnlineScheduler service(config, make_rmq);
    OnlineScheduler standby(config, make_rmq);
    standby.Start();
    std::vector<std::future<BatchTaskResult>> tickets;
    for (size_t i = 0; i < workload.size(); ++i) {
      if (i == half) service.Start();  // the first half was a backlog
      auto ticket = service.Submit(workload[i]);
      if (!ticket) {
        std::cerr << "query " << i << " rejected\n";
        return 1;
      }
      tickets.push_back(std::move(*ticket));
    }
    // Round-robin slices keep every query in flight for a while, so the
    // first one is suspended mid-run.
    std::optional<SuspendedTask> moved = service.Suspend(0);
    if (moved) {
      if (!standby.Resume(*moved)) {
        std::cerr << "standby rejected the migrated query\n";
        return 1;
      }
      std::cout << "query 0 migrated to the standby after " << moved->steps
                << " steps\n";
    }
    ok &= Check("online scheduler", &tickets, reference);
    std::cout << service.Stop().Summary();
    standby.Stop();
  }

  // 3. Two local shards; a third joins halfway through the stream.
  {
    ShardRouterConfig config;
    config.num_shards = 2;
    config.shard.num_threads = 2;
    config.shard.steps_per_slice = 2;
    ShardRouter router(config, make_rmq);
    router.Start();
    std::vector<std::future<BatchTaskResult>> tickets;
    for (size_t i = 0; i < workload.size(); ++i) {
      auto ticket = router.Submit(workload[i]);
      if (!ticket) {
        std::cerr << "query " << i << " rejected\n";
        return 1;
      }
      tickets.push_back(std::move(*ticket));
      if (i + 1 == half) {
        size_t added = router.AddShard();
        std::cout << "shard " << added << " added, "
                  << router.stats().migrations
                  << " in-flight quer(ies) rebalanced\n";
      }
    }
    ok &= Check("sharded router", &tickets, reference);
    router.Stop();
  }

  // 4. One local shard plus one supervised shardd process, killed with
  //    queries in flight.
  {
    ShardRouterConfig config;
    config.num_shards = 1;
    config.shard.num_threads = 2;
    config.shard.steps_per_slice = 2;
    ShardRouter router(config, make_rmq);
    router.Start();
    ShardSupervisorConfig supervision;
    supervision.server_binary = MOQO_SHARDD_PATH;
    supervision.server_args = {"--iterations=" + std::to_string(kIterations),
                               "--steps-per-slice=2", "--snapshot-every=2",
                               "--heartbeat-ms=100"};
    ShardSupervisor supervisor(supervision, &router);
    const size_t remote = supervisor.SpawnShard();
    if (remote == static_cast<size_t>(-1)) {
      std::cerr << "could not spawn a shard process\n";
      return 1;
    }
    std::vector<std::future<BatchTaskResult>> tickets;
    for (size_t i = 0; i < workload.size(); ++i) {
      auto ticket = router.Submit(workload[i]);
      if (!ticket) {
        std::cerr << "query " << i << " rejected\n";
        return 1;
      }
      tickets.push_back(std::move(*ticket));
      std::this_thread::sleep_for(std::chrono::milliseconds(2));
      if (i + 1 == half) {
        std::cout << "kill -9 shardd pid " << supervisor.ShardPid(remote)
                  << "\n";
        supervisor.KillShard(remote, SIGKILL);
        if (!supervisor.WaitForFailovers(1, /*timeout_ms=*/30000)) {
          std::cerr << "failover never completed\n";
          return 1;
        }
        ShardRouterStats stats = router.stats();
        std::cout << "failover: " << stats.failover_replayed
                  << " quer(ies) replayed, " << stats.failover_checkpointed
                  << " from mid-run snapshots\n";
      }
    }
    ok &= Check("supervised failover", &tickets, reference);
    router.Stop();
  }

  std::cout << (ok ? "every stage matched the blocking reference\n"
                   : "FAILURE\n");
  return ok ? 0 : 1;
}
