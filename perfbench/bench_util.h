// Shared plumbing of moqo_bench: run options, the raw run record every
// workload fills, the span tracer, and small timing/process helpers.
//
// moqo_bench measures; it computes no percentiles, medians or means over
// repetitions. It writes the raw record as JSON and perfbench/run.py
// derives every reported metric from it (perfbench/benchstats.py), so the
// statistics rules live in one place and are unit-tested there.
#ifndef MOQO_PERFBENCH_BENCH_UTIL_H_
#define MOQO_PERFBENCH_BENCH_UTIL_H_

#include <chrono>
#include <cstdint>
#include <functional>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "cost/cost_model.h"
#include "cost/cost_vector.h"
#include "query/query.h"

namespace moqo {
namespace perfbench {

/// Monotonic nanoseconds (steady clock). Stopwatch (common/deadline.h)
/// times whole sections; spans, request latencies and per-call layer
/// timings need nanosecond timestamps on one clock shared across objects.
inline int64_t NowNs() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

inline double NsToMs(int64_t ns) { return static_cast<double>(ns) / 1e6; }
inline double NsToUs(int64_t ns) { return static_cast<double>(ns) / 1e3; }

/// Command-line options of one moqo_bench run.
struct RunOptions {
  std::string workload;
  uint64_t seed = 2016;
  double seconds = 25.0;
  /// Tiny scale for the ctest smoke entry: every workload in a few seconds.
  bool smoke = false;
  /// Chrome trace-event output path; empty for an untraced run.
  std::string trace_path;
  std::string reference_dir;
  /// Directory for shardd's Unix-domain sockets (kept short: sun_path).
  std::string socket_dir;

  bool traced() const { return !trace_path.empty(); }
};

/// Per-query raw data of an anytime workload.
struct QueryRecord {
  std::string name;
  int tables = 0;
  /// Time to finish K iterations, one entry per timed repetition.
  std::vector<double> ttk_ms;
  /// Alpha at n checkpoints evenly spaced from T/8 to T (n = config
  /// "checkpoints"), n entries per timed repetition, repetition-major.
  /// Infinity (no plan yet) is written as JSON null.
  std::vector<double> alpha_ckpt;
};

/// Everything one run measured. Scalars and sample arrays share one
/// namespace each; run.py maps them onto the metric names of
/// BENCHMARK.json.
struct RunRecord {
  /// "anytime" or "service".
  std::string kind;
  std::map<std::string, double> config;
  /// Seconds per set-up repetition.
  std::vector<double> setup_s;
  int64_t attempted = 0;
  int64_t failed = 0;
  /// Output checks; the run is correct only if all hold.
  std::map<std::string, bool> checks;
  std::map<std::string, double> scalars;
  std::map<std::string, std::vector<double>> samples;
  std::vector<QueryRecord> queries;
  /// Service workloads: alpha of each checked delivery against the cold
  /// blocking run of the same request; alpha_gmean is their clipped
  /// geometric mean.
  std::vector<double> alpha;

  /// Records a check; a check recorded several times holds only if every
  /// recording held.
  void Check(const std::string& name, bool ok) {
    auto it = checks.find(name);
    if (it == checks.end()) {
      checks[name] = ok;
    } else {
      it->second = it->second && ok;
    }
  }
};

/// One optimization problem as the RMQ layers see it: a query, its cost
/// model, the session seed, the iteration cap and (if known) the reference
/// frontier alpha is measured against.
struct QueryUnderTest {
  std::string name;
  QueryPtr query;
  std::shared_ptr<const CostModel> model;
  uint64_t seed = 0;
  int k = 0;
  std::vector<CostVector> reference;
};

/// In-memory span recorder; written as Chrome trace-event JSON at exit.
/// Spans are recorded by the benchmark's own code around calls into the
/// library. Not thread-safe: every workload records from one thread.
class Tracer {
 public:
  struct Span {
    const char* name = "";
    int64_t start_ns = 0;
    int64_t end_ns = 0;
    int parent = -1;
    int64_t request = -1;
  };

  explicit Tracer(bool enabled) : enabled_(enabled) {}

  bool enabled() const { return enabled_; }
  void set_enabled(bool enabled) { enabled_ = enabled; }

  /// Opens a span now; returns its id, or -1 when disabled.
  int Begin(const char* name, int parent = -1, int64_t request = -1) {
    if (!enabled_) return -1;
    spans_.push_back(Span{name, NowNs(), 0, parent, request});
    return static_cast<int>(spans_.size()) - 1;
  }

  /// Closes span `id` now (no-op for -1).
  void End(int id) {
    if (id >= 0) spans_[static_cast<size_t>(id)].end_ns = NowNs();
  }

  /// Records a span whose bounds were timed elsewhere, even while
  /// disabled (the caller decided when it was timed); returns its id.
  int Add(const char* name, int64_t start_ns, int64_t end_ns, int parent,
          int64_t request) {
    spans_.push_back(Span{name, start_ns, end_ns, parent, request});
    return static_cast<int>(spans_.size()) - 1;
  }

  /// Summed duration of every span called `name`, in nanoseconds.
  int64_t TotalNs(const std::string& name) const;

  /// Writes the spans as Chrome trace-event JSON ("X" events; each
  /// request on its own track). Returns false if the file cannot be
  /// written.
  bool WriteChromeJson(const std::string& path) const;

 private:
  bool enabled_;
  std::vector<Span> spans_;
};

/// Opens a span on construction and closes it on destruction.
class ScopedSpan {
 public:
  ScopedSpan(Tracer* tracer, const char* name, int parent = -1,
             int64_t request = -1)
      : tracer_(tracer), id_(tracer->Begin(name, parent, request)) {}
  ~ScopedSpan() { tracer_->End(id_); }
  ScopedSpan(const ScopedSpan&) = delete;
  ScopedSpan& operator=(const ScopedSpan&) = delete;

  int id() const { return id_; }

 private:
  Tracer* tracer_;
  int id_;
};

/// VmHWM of this process, in MB (0 if /proc is unavailable).
double PeakRssMb();

/// Largest ru_maxrss of any reaped child process, in MB.
double ChildrenPeakRssMb();

/// Runs fn(0..n-1) on up to `threads` threads; rethrows the first error.
void ParallelFor(size_t n, int threads, const std::function<void(size_t)>& fn);

/// True if every vector of `subset` appears bitwise in `superset`.
bool ContainsAll(const std::vector<CostVector>& superset,
                 const std::vector<CostVector>& subset);

/// The canonical frontier of a blocking, deadline-free RMQ run of `q`.
std::vector<CostVector> ColdFrontier(const QueryUnderTest& q);

/// Pareto-filtered DP(1.01) frontier: the small-query reference of the
/// paper's Figs. 8-9.
std::vector<CostVector> DpReference(const QueryPtr& query,
                                    const CostModel& model);

}  // namespace perfbench
}  // namespace moqo

#endif  // MOQO_PERFBENCH_BENCH_UTIL_H_
