#include "bench_util.h"

#include <sys/resource.h>

#include <algorithm>
#include <atomic>
#include <exception>
#include <fstream>
#include <mutex>
#include <thread>

#include "baselines/dp.h"
#include "bench_report.h"
#include "core/rmq.h"
#include "pareto/epsilon_indicator.h"
#include "plan/plan_factory.h"
#include "service/batch_optimizer.h"

namespace moqo {
namespace perfbench {

int64_t Tracer::TotalNs(const std::string& name) const {
  int64_t total = 0;
  for (const Span& span : spans_) {
    if (name == span.name) total += span.end_ns - span.start_ns;
  }
  return total;
}

bool Tracer::WriteChromeJson(const std::string& path) const {
  std::ofstream out(path);
  if (!out) return false;
  const int64_t origin = spans_.empty() ? 0 : spans_.front().start_ns;
  bench::JsonWriter w(out);
  w.BeginObject();
  w.Field("displayTimeUnit", "ms");
  w.BeginArray("traceEvents");
  for (size_t i = 0; i < spans_.size(); ++i) {
    const Span& span = spans_[i];
    w.BeginObject();
    w.Field("name", span.name);
    w.Field("cat", "moqo");
    w.Field("ph", "X");
    w.Field("pid", 1);
    // Requests overlap in time, so each gets its own track; spans outside
    // any request share track 0.
    w.Field("tid", span.request + 1);
    w.Field("ts", NsToUs(span.start_ns - origin));
    w.Field("dur", NsToUs(span.end_ns - span.start_ns));
    w.BeginObject("args");
    w.Field("id", i);
    w.Field("parent", span.parent);
    w.Field("request", span.request);
    w.EndObject();
    w.EndObject();
  }
  w.EndArray();
  w.EndObject();
  out << "\n";
  return static_cast<bool>(out);
}

double PeakRssMb() {
  std::ifstream status("/proc/self/status");
  std::string key;
  while (status >> key) {
    if (key == "VmHWM:") {
      double kb = 0.0;
      status >> kb;
      return kb / 1024.0;
    }
  }
  return 0.0;
}

double ChildrenPeakRssMb() {
  struct rusage usage {};
  if (getrusage(RUSAGE_CHILDREN, &usage) != 0) return 0.0;
  return static_cast<double>(usage.ru_maxrss) / 1024.0;
}

void ParallelFor(size_t n, int threads,
                 const std::function<void(size_t)>& fn) {
  std::atomic<size_t> next{0};
  std::exception_ptr error;
  std::mutex error_mu;
  auto worker = [&] {
    for (size_t i = next++; i < n; i = next++) {
      try {
        fn(i);
      } catch (...) {
        std::lock_guard<std::mutex> lock(error_mu);
        if (!error) error = std::current_exception();
      }
    }
  };
  std::vector<std::thread> pool;
  const size_t count = std::min(n, static_cast<size_t>(std::max(1, threads)));
  for (size_t t = 0; t < count; ++t) pool.emplace_back(worker);
  for (std::thread& thread : pool) thread.join();
  if (error) std::rethrow_exception(error);
}

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

std::vector<CostVector> ColdFrontier(const QueryUnderTest& q) {
  PlanFactory factory(q.query, q.model.get());
  Rng rng(q.seed);
  RmqConfig config;
  config.max_iterations = q.k;
  RmqSession session(config);
  session.Begin(&factory, &rng);
  return CanonicalFrontier(RunSession(&session, Deadline()));
}

std::vector<CostVector> DpReference(const QueryPtr& query,
                                    const CostModel& model) {
  PlanFactory factory(query, &model);
  Rng rng(0);
  DpConfig config;
  config.alpha = 1.01;
  DpSession session(config);
  session.Begin(&factory, &rng);
  // Plans of different output formats are never pruned against each
  // other inside DP, so the raw frontier may hold cross-format dominated
  // vectors; the reference is the Pareto frontier of costs alone.
  return ParetoFilter(CanonicalFrontier(RunSession(&session, Deadline())));
}

}  // namespace perfbench
}  // namespace moqo
