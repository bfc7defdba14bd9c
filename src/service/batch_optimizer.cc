#include "service/batch_optimizer.h"

#include <algorithm>
#include <cmath>
#include <sstream>
#include <utility>

#include "common/deadline.h"
#include "pareto/epsilon_indicator.h"
#include "plan/plan_factory.h"

namespace moqo {

namespace {

bool LexLess(const CostVector& a, const CostVector& b) {
  for (int i = 0; i < a.size() && i < b.size(); ++i) {
    if (a[i] != b[i]) return a[i] < b[i];
  }
  return a.size() < b.size();
}

}  // namespace

bool BitwiseEqual(const std::vector<CostVector>& a,
                  const std::vector<CostVector>& b) {
  if (a.size() != b.size()) return false;
  for (size_t i = 0; i < a.size(); ++i) {
    if (a[i].size() != b[i].size()) return false;
    for (int j = 0; j < a[i].size(); ++j) {
      if (a[i][j] != b[i][j]) return false;
    }
  }
  return true;
}

std::vector<CostVector> CanonicalFrontier(const std::vector<PlanPtr>& plans) {
  std::vector<CostVector> frontier;
  frontier.reserve(plans.size());
  for (const PlanPtr& plan : plans) frontier.push_back(plan->cost());
  std::sort(frontier.begin(), frontier.end(), LexLess);
  return frontier;
}

std::vector<Metric> DefaultServiceMetrics() {
  return {Metric::kTime, Metric::kBuffer};
}

void RecordOutcome(const OptimizerSession& session,
                   const std::vector<PlanPtr>& plans, bool expired,
                   BatchTaskResult* result) {
  result->frontier = CanonicalFrontier(plans);
  result->steps = session.session_stats().steps;
  result->gave_up = session.GaveUp();
  // A gave-up session (e.g. DP abandoning an oversized query) is Done with
  // nothing to show; completing the window with no result is not a hit.
  result->deadline_hit = result->had_deadline && session.Done() &&
                         !result->gave_up && !expired;
}

BatchReport RunBlocking(const std::vector<BatchTask>& tasks,
                        const OptimizerFactory& make_optimizer) {
  BatchReport report;
  report.num_threads = 1;
  report.tasks.reserve(tasks.size());
  Stopwatch wall;
  CostModel model(DefaultServiceMetrics());
  for (const BatchTask& task : tasks) {
    BatchTaskResult result;
    result.index = static_cast<int>(report.tasks.size());
    result.had_deadline = task.deadline_micros > 0;
    Stopwatch watch;
    Rng rng(task.seed);
    PlanFactory factory(task.query, &model);
    Deadline deadline = result.had_deadline
                            ? Deadline::AfterMicros(task.deadline_micros)
                            : Deadline();
    std::unique_ptr<OptimizerSession> session = make_optimizer()->NewSession();
    session->Begin(&factory, &rng);
    std::vector<PlanPtr> plans = RunSession(session.get(), deadline);
    const bool expired = deadline.Expired();
    result.optimize_millis = watch.ElapsedMillis();
    RecordOutcome(*session, plans, expired, &result);
    result.elapsed_millis = watch.ElapsedMillis();
    report.tasks.push_back(std::move(result));
  }
  report.wall_millis = wall.ElapsedMillis();
  report.Aggregate();
  return report;
}

double Percentile(std::vector<double> values, double q) {
  if (values.empty()) return 0.0;
  std::sort(values.begin(), values.end());
  q = std::min(1.0, std::max(0.0, q));
  // Nearest-rank: the smallest value such that at least q of the sample is
  // at or below it.
  size_t rank = static_cast<size_t>(
      std::ceil(q * static_cast<double>(values.size())));
  if (rank > 0) --rank;
  return values[rank];
}

void BatchReport::Aggregate() {
  total_frontier = 0;
  max_frontier = 0;
  deadline_tasks = 0;
  deadline_hits = 0;
  migrated_tasks = 0;
  cache_served_tasks = 0;
  size_t counted = 0;
  std::vector<double> optimize_times;
  optimize_times.reserve(tasks.size());
  for (const BatchTaskResult& task : tasks) {
    if (task.migrated) {
      // The task finished elsewhere; whatever scheduler resumed it reports
      // it. Counting the stub slot here would dilute every aggregate.
      ++migrated_tasks;
      continue;
    }
    ++counted;
    if (task.served_from_cache) ++cache_served_tasks;
    total_frontier += task.frontier.size();
    max_frontier = std::max(max_frontier, task.frontier.size());
    optimize_times.push_back(task.optimize_millis);
    if (task.had_deadline) {
      ++deadline_tasks;
      // Belt and braces: producers already clear deadline_hit for gave-up
      // runs, but an aggregate must never count one as a hit.
      if (task.deadline_hit && !task.gave_up) ++deadline_hits;
    }
  }
  mean_frontier = counted == 0 ? 0.0
                               : static_cast<double>(total_frontier) /
                                     static_cast<double>(counted);
  p50_optimize_millis = Percentile(optimize_times, 0.50);
  p95_optimize_millis = Percentile(optimize_times, 0.95);
  deadline_hit_rate = deadline_tasks == 0
                          ? 1.0
                          : static_cast<double>(deadline_hits) /
                                static_cast<double>(deadline_tasks);
}

std::string BatchReport::Summary() const {
  std::ostringstream out;
  out << "batch: " << tasks.size() << " tasks on " << num_threads
      << " thread(s), wall " << wall_millis << " ms\n"
      << "frontiers: total " << total_frontier << ", mean " << mean_frontier
      << ", max " << max_frontier << "\n"
      << "optimize_millis: p50 " << p50_optimize_millis << ", p95 "
      << p95_optimize_millis << "\n";
  if (deadline_tasks > 0) {
    out << "deadlines: " << deadline_hits << "/" << deadline_tasks
        << " hit (" << 100.0 * deadline_hit_rate << "%)\n";
  }
  if (migrated_tasks > 0) {
    out << "migrated away: " << migrated_tasks << " task(s)\n";
  }
  if (cache_served_tasks > 0) {
    out << "cache-served: " << cache_served_tasks << " task(s)\n";
  }
  return out.str();
}

std::vector<BatchTask> GenerateBatch(int n, const GeneratorConfig& base,
                                     uint64_t master_seed,
                                     int64_t deadline_micros) {
  std::vector<BatchTask> tasks;
  tasks.reserve(static_cast<size_t>(std::max(0, n)));
  for (int i = 0; i < n; ++i) {
    BatchTask task;
    // Queries and optimizer runs get independent seed streams so that
    // changing one never perturbs the other.
    Rng query_rng(CombineSeed(master_seed, static_cast<uint64_t>(i), 1));
    task.query = GenerateQuery(base, &query_rng);
    task.seed = CombineSeed(master_seed, static_cast<uint64_t>(i), 2);
    task.deadline_micros = deadline_micros;
    tasks.push_back(std::move(task));
  }
  return tasks;
}

BatchComparison CompareToReference(const BatchReport& reference,
                                   const BatchReport& parallel) {
  BatchComparison cmp;
  cmp.speedup = parallel.wall_millis > 0.0
                    ? reference.wall_millis / parallel.wall_millis
                    : 0.0;
  size_t n = std::min(reference.tasks.size(), parallel.tasks.size());
  cmp.identical = reference.tasks.size() == parallel.tasks.size();
  double alpha_sum = 0.0;
  for (size_t i = 0; i < n; ++i) {
    const std::vector<CostVector>& ref = reference.tasks[i].frontier;
    const std::vector<CostVector>& par = parallel.tasks[i].frontier;
    if (!BitwiseEqual(ref, par)) cmp.identical = false;
    double alpha = AlphaError(par, ref);
    cmp.max_alpha = std::max(cmp.max_alpha, alpha);
    alpha_sum += alpha;
  }
  cmp.mean_alpha = n > 0 ? alpha_sum / static_cast<double>(n) : 1.0;
  return cmp;
}

}  // namespace moqo
