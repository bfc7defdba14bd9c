// Repeat-traffic stream: Zipf-distributed arrivals over a pool of query
// shapes against the online scheduler, with and without the frontier
// cache — the service-level payoff of canonical query identity.
//
// Real optimizer traffic is heavily repetitive: dashboards and prepared
// statements re-issue the same join shapes far more often than they issue
// new ones. The bench replays one such stream twice from the same master
// seed — a cache-off baseline, then a cache-on run — and gates on
//
//   * every cache-served (exact-hit) frontier being bitwise identical to
//     the frontier the cache-off baseline computed for that submission;
//   * no quality loss anywhere: every baseline frontier point reappears
//     in the cache-on result (warm-started runs may only widen it);
//   * the cache hit rate clearing --min-hit-rate under Zipf(s) arrivals;
//   * the p50 completion latency of repeat submissions collapsing
//     strictly below the cache-off baseline's.
//
// Most submissions reuse their shape's pinned seed (repeats — exact-hit
// candidates); every --reseed-every-th submission draws a fresh seed for
// its shape, exercising the warm-start path and the replace-on-complete
// cache policy.
//
//   $ ./bench/repeat_traffic [--shapes=8] [--requests=96] [--tables=6]
//         [--iterations=20] [--threads=2] [--zipf-s=1.0]
//         [--reseed-every=9] [--utilization=0.5] [--cache-mb=64]
//         [--min-hit-rate=0.25] [--seed=2016] [--json=out.json]
#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <fstream>
#include <memory>
#include <set>
#include <thread>
#include <utility>
#include <vector>

#include "bench_report.h"
#include "common/flags.h"
#include "common/rng.h"
#include "core/rmq.h"
#include "service/batch_optimizer.h"
#include "service/frontier_cache.h"
#include "service/online_scheduler.h"

using namespace moqo;

namespace {

/// True if every cost vector of `subset` appears (bitwise) in `superset`.
bool ContainsAll(const std::vector<CostVector>& superset,
                 const std::vector<CostVector>& subset) {
  for (const CostVector& want : subset) {
    bool found = false;
    for (const CostVector& have : superset) {
      if (have.size() != want.size()) continue;
      bool equal = true;
      for (int m = 0; m < want.size(); ++m) {
        if (have[m] != want[m]) {
          equal = false;
          break;
        }
      }
      if (equal) {
        found = true;
        break;
      }
    }
    if (!found) return false;
  }
  return true;
}

}  // namespace

int main(int argc, char** argv) {
  Flags flags(argc, argv);
  const int shapes = static_cast<int>(flags.GetInt("shapes", 8));
  const int requests = static_cast<int>(flags.GetInt("requests", 96));
  const int tables = static_cast<int>(flags.GetInt("tables", 6));
  const int iterations = static_cast<int>(flags.GetInt("iterations", 20));
  const int threads = static_cast<int>(flags.GetInt("threads", 2));
  const double zipf_s = flags.GetDouble("zipf-s", 1.0);
  const int64_t reseed_every = flags.GetInt("reseed-every", 9);
  // Below 1.0 on purpose: completions must land between arrivals for
  // repeats to find their shape already cached; an overloaded stream
  // front-loads every lookup before the first insert.
  const double utilization = flags.GetDouble("utilization", 0.5);
  const int cache_mb = static_cast<int>(flags.GetInt("cache-mb", 64));
  const double min_hit_rate = flags.GetDouble("min-hit-rate", 0.25);
  const uint64_t seed = static_cast<uint64_t>(flags.GetInt("seed", 2016));
  const std::string json_path = flags.GetString("json", "");

  GeneratorConfig generator;
  generator.num_tables = tables;
  // The shape pool: distinct queries, each with a pinned per-shape seed.
  std::vector<BatchTask> pool =
      GenerateBatch(shapes, generator, seed, /*deadline_micros=*/0);

  OptimizerFactory make_rmq = [iterations] {
    RmqConfig config;
    config.max_iterations = iterations;
    return std::make_unique<Rmq>(config);
  };

  // Zipf(s) over shape ranks: request i draws shape k with probability
  // proportional to 1/(k+1)^s — the head shapes dominate the stream.
  std::vector<double> cumulative(static_cast<size_t>(shapes));
  double total = 0.0;
  for (int k = 0; k < shapes; ++k) {
    total += 1.0 / std::pow(static_cast<double>(k + 1), zipf_s);
    cumulative[static_cast<size_t>(k)] = total;
  }
  Rng stream_rng(CombineSeed(seed, 0x7a697066ull /* "zipf" */));
  std::vector<BatchTask> stream;
  std::vector<bool> is_repeat;  // (shape, seed) pair seen earlier
  // True until the shape's first reseeded submission: only these requests
  // can be served from an entry no warm-started completion has widened,
  // so only they gate on bitwise equality with the cache-off baseline.
  std::vector<bool> is_pure;
  std::vector<bool> reseeded_yet(static_cast<size_t>(shapes), false);
  stream.reserve(static_cast<size_t>(requests));
  std::set<std::pair<int, uint64_t>> seen;
  for (int i = 0; i < requests; ++i) {
    const double draw = stream_rng.Uniform01() * total;
    int shape = 0;
    while (shape + 1 < shapes &&
           cumulative[static_cast<size_t>(shape)] < draw) {
      ++shape;
    }
    BatchTask task = pool[static_cast<size_t>(shape)];
    if (reseed_every > 0 && (i + 1) % reseed_every == 0) {
      // A fresh seed for a known shape: a warm-start candidate.
      task.seed = CombineSeed(task.seed, static_cast<uint64_t>(i) + 1);
      reseeded_yet[static_cast<size_t>(shape)] = true;
    }
    is_pure.push_back(!reseeded_yet[static_cast<size_t>(shape)]);
    is_repeat.push_back(!seen.insert({shape, task.seed}).second);
    stream.push_back(std::move(task));
  }

  // Warm up, then calibrate per-query cost for the arrival pacing.
  RunBlocking(GenerateBatch(2, generator, seed ^ 0xabcdef, 0), make_rmq);
  Stopwatch calib_watch;
  RunBlocking(pool, make_rmq);
  const double per_query_ms =
      calib_watch.ElapsedMillis() / static_cast<double>(shapes);
  const double mean_gap_ms =
      per_query_ms / (utilization * static_cast<double>(threads));

  // Open-loop exponential inter-arrival gaps, identical in both runs.
  Rng arrival_rng(CombineSeed(seed, 0x41525256ull));
  std::vector<double> arrival_ms(stream.size());
  double clock_ms = 0.0;
  for (size_t i = 0; i < stream.size(); ++i) {
    clock_ms += -mean_gap_ms * std::log(1.0 - arrival_rng.Uniform01());
    arrival_ms[i] = clock_ms;
  }

  const auto run_stream = [&](std::shared_ptr<FrontierCache> cache) {
    OnlineConfig config;
    config.num_threads = threads;
    config.frontier_cache = std::move(cache);
    OnlineScheduler service(config, make_rmq);
    service.Start();
    Stopwatch wall;
    for (size_t i = 0; i < stream.size(); ++i) {
      const double wait_ms = arrival_ms[i] - wall.ElapsedMillis();
      if (wait_ms > 0.0) {
        std::this_thread::sleep_for(std::chrono::microseconds(
            static_cast<int64_t>(wait_ms * 1000.0)));
      }
      service.Submit(stream[i]);
    }
    service.Drain();
    return service.Stop();
  };

  std::printf(
      "repeat_traffic: %d requests over %d shapes x %d tables, Zipf "
      "s=%.2f, %d RMQ iterations, %d thread(s), reseed every %lld\n"
      "calibration: %.2f ms/query, mean arrival gap %.2f ms\n\n",
      requests, shapes, tables, zipf_s, iterations, threads,
      static_cast<long long>(reseed_every), per_query_ms, mean_gap_ms);

  BatchReport baseline = run_stream(nullptr);
  auto cache = std::make_shared<FrontierCache>([cache_mb] {
    FrontierCacheConfig config;
    config.max_bytes = static_cast<size_t>(cache_mb) << 20;
    return config;
  }());
  BatchReport cached = run_stream(cache);
  const FrontierCacheStats stats = cache->stats();

  // Latency percentiles, overall and over the repeat submissions only.
  std::vector<double> base_all, base_repeat, cached_all, cached_repeat;
  for (size_t i = 0; i < stream.size(); ++i) {
    base_all.push_back(baseline.tasks[i].elapsed_millis);
    cached_all.push_back(cached.tasks[i].elapsed_millis);
    if (is_repeat[i]) {
      base_repeat.push_back(baseline.tasks[i].elapsed_millis);
      cached_repeat.push_back(cached.tasks[i].elapsed_millis);
    }
  }
  const double p50_repeat_base = Percentile(base_repeat, 0.50);
  const double p50_repeat_cached = Percentile(cached_repeat, 0.50);
  const double p50_all_base = Percentile(base_all, 0.50);
  const double p50_all_cached = Percentile(cached_all, 0.50);

  // Correctness gates against the cache-off baseline. Once a shape has
  // seen a reseeded (warm-started) completion its cache entry may be
  // legitimately wider than the cold frontier, so bitwise equality is
  // demanded only of exact hits served before that — every other request
  // still gates on containment (never lose a baseline point).
  bool exact_identical = true;
  bool no_quality_loss = true;
  size_t exact_served = 0;
  size_t pure_exact_served = 0;
  for (size_t i = 0; i < stream.size(); ++i) {
    const std::vector<CostVector>& base = baseline.tasks[i].frontier;
    const std::vector<CostVector>& got = cached.tasks[i].frontier;
    if (cached.tasks[i].served_from_cache) {
      ++exact_served;
      if (is_pure[i]) {
        ++pure_exact_served;
        if (!BitwiseEqual(got, base)) exact_identical = false;
      }
    }
    // Warm-started runs may widen the frontier but never lose a point.
    if (!ContainsAll(got, base)) no_quality_loss = false;
  }

  const double hit_rate =
      stats.lookups == 0
          ? 0.0
          : static_cast<double>(stats.hits()) /
                static_cast<double>(stats.lookups);
  const bool hit_rate_ok = stats.hits() > 0 && hit_rate >= min_hit_rate;
  const bool latency_collapsed = p50_repeat_cached < p50_repeat_base;
  const bool accounting_ok =
      cached.cache_served_tasks == exact_served &&
      stats.exact_hits == exact_served;
  const bool pass = exact_identical && no_quality_loss && hit_rate_ok &&
                    latency_collapsed && accounting_ok;

  std::printf("%-10s %10s %12s %12s %12s\n", "run", "done", "p50_all_ms",
              "p50_rep_ms", "cache_hits");
  std::printf("%-10s %10zu %12.3f %12.3f %12s\n", "cache-off",
              baseline.tasks.size(), p50_all_base, p50_repeat_base, "-");
  std::printf("%-10s %10zu %12.3f %12.3f %9zu/%zu\n", "cache-on",
              cached.tasks.size(), p50_all_cached, p50_repeat_cached,
              stats.hits(), stats.lookups);
  std::printf(
      "\ncache: %zu exact + %zu warm hits, %zu misses (hit rate %.1f%%), "
      "%zu inserts, %zu evictions, %zu bytes\n",
      stats.exact_hits, stats.warm_hits, stats.misses, 100.0 * hit_rate,
      stats.inserts, stats.evictions, stats.bytes);
  std::printf(
      "%s: %zu pre-reseed exact frontiers %s, quality %s, hit rate "
      "%.1f%% (min %.1f%%), repeat p50 %.3f ms vs %.3f ms cache-off\n",
      pass ? "PASS" : "FAIL", pure_exact_served,
      exact_identical ? "bitwise identical" : "DIVERGED",
      no_quality_loss ? "preserved" : "LOST POINTS", 100.0 * hit_rate,
      100.0 * min_hit_rate, p50_repeat_cached, p50_repeat_base);

  if (!json_path.empty()) {
    std::ofstream out(json_path);
    bench::JsonWriter w(out);
    bench::BeginReport(&w, "repeat_traffic");
    w.BeginObject("config");
    w.Field("shapes", shapes);
    w.Field("requests", requests);
    w.Field("tables", tables);
    w.Field("iterations", iterations);
    w.Field("threads", threads);
    w.Field("zipf_s", zipf_s);
    w.Field("reseed_every", reseed_every);
    w.Field("utilization", utilization);
    w.Field("cache_mb", cache_mb);
    w.Field("min_hit_rate", min_hit_rate);
    w.Field("seed", static_cast<int64_t>(seed));
    w.EndObject();
    w.BeginObject("metrics");
    w.Field("per_query_ms", per_query_ms);
    w.Field("hit_rate", hit_rate);
    w.Field("exact_hits", stats.exact_hits);
    w.Field("warm_hits", stats.warm_hits);
    w.Field("misses", stats.misses);
    w.Field("inserts", stats.inserts);
    w.Field("evictions", stats.evictions);
    w.Field("cache_bytes", stats.bytes);
    w.Field("cache_served_tasks", cached.cache_served_tasks);
    w.Field("pure_exact_served", pure_exact_served);
    w.Field("p50_all_ms_cache_off", p50_all_base);
    w.Field("p50_all_ms_cache_on", p50_all_cached);
    w.Field("p50_repeat_ms_cache_off", p50_repeat_base);
    w.Field("p50_repeat_ms_cache_on", p50_repeat_cached);
    w.Field("wall_ms_cache_off", baseline.wall_millis);
    w.Field("wall_ms_cache_on", cached.wall_millis);
    w.EndObject();
    w.BeginObject("gates");
    w.Field("exact_frontiers_identical", exact_identical);
    w.Field("no_quality_loss", no_quality_loss);
    w.Field("hit_rate_above_min", hit_rate_ok);
    w.Field("repeat_p50_collapsed", latency_collapsed);
    w.Field("accounting_consistent", accounting_ok);
    w.EndObject();
    w.Field("pass", pass);
    w.EndObject();
    out << "\n";
    std::printf("wrote %s\n", json_path.c_str());
  }
  return pass ? 0 : 1;
}
