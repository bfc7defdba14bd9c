// moqo_bench: runs one benchmark workload per process and writes what it
// measured as JSON (schema moqo-bench-v1; perfbench/run.py turns it into
// the metrics of BENCHMARK.json).
//
//   $ moqo_bench --workload=anytime_large --seed=2016 --seconds=25
//         --out=run.json [--trace=trace.json] [--smoke]
//         [--reference-dir=perfbench/reference] [--socket-dir=DIR]
//   $ moqo_bench --write-reference --workload=anytime_small
//         [--reference-dir=perfbench/reference]
//
// Exit codes: 0 after writing the record (check failures are part of the
// record, not of the exit code), 2 on bad arguments, 3 when the run could
// not complete (stale or missing reference, shardd failed to start).
#include <cstdio>
#include <exception>
#include <fstream>
#include <string>

#include "bench_report.h"
#include "common/flags.h"
#include "reference.h"
#include "workloads.h"

using namespace moqo;
using namespace moqo::perfbench;

namespace {

void WriteSamples(bench::JsonWriter* w, const std::string& key,
                  const std::vector<double>& values) {
  w->BeginArray(key);
  for (double v : values) w->Element(v);
  w->EndArray();
}

bool WriteRecord(const RunRecord& record, const RunOptions& options,
                 const std::string& path) {
  std::ofstream out(path);
  bench::JsonWriter w(out);
  bench::BeginReport(&w, "moqo_bench");
  w.BeginObject("config");
  w.Field("workload", options.workload);
  w.Field("kind", record.kind);
  w.Field("seed", static_cast<int64_t>(options.seed));
  w.Field("seconds", options.seconds);
  w.Field("traced", options.traced());
  w.Field("smoke", options.smoke);
  for (const auto& [key, value] : record.config) w.Field(key, value);
  w.EndObject();
  WriteSamples(&w, "setup_s", record.setup_s);
  w.Field("attempted", record.attempted);
  w.Field("failed", record.failed);
  w.BeginObject("checks");
  for (const auto& [name, ok] : record.checks) w.Field(name, ok);
  w.EndObject();
  w.BeginObject("scalars");
  for (const auto& [name, value] : record.scalars) w.Field(name, value);
  w.EndObject();
  w.BeginObject("samples");
  for (const auto& [name, values] : record.samples) {
    WriteSamples(&w, name, values);
  }
  w.EndObject();
  w.BeginArray("queries");
  for (const QueryRecord& q : record.queries) {
    w.BeginObject();
    w.Field("name", q.name);
    w.Field("tables", q.tables);
    WriteSamples(&w, "ttk_ms", q.ttk_ms);
    WriteSamples(&w, "alpha_ckpt", q.alpha_ckpt);
    w.EndObject();
  }
  w.EndArray();
  WriteSamples(&w, "alpha", record.alpha);
  w.EndObject();
  out << "\n";
  return static_cast<bool>(out);
}

}  // namespace

int main(int argc, char** argv) {
  Flags flags(argc, argv);
  RunOptions options;
  options.workload = flags.GetString("workload", "");
  options.seed = static_cast<uint64_t>(flags.GetInt("seed", 2016));
  options.seconds = flags.GetDouble("seconds", 25.0);
  options.smoke = flags.GetBool("smoke", false);
  options.trace_path = flags.GetString("trace", "");
  options.reference_dir =
      flags.GetString("reference-dir", "perfbench/reference");
  options.socket_dir = flags.GetString("socket-dir", ".");
  const std::string out_path = flags.GetString("out", "");

  const bool anytime = options.workload == "anytime_large" ||
                       options.workload == "anytime_small";
  const bool service = options.workload == "service_local" ||
                       options.workload == "service_remote";
  if (!anytime && !service) {
    std::fprintf(stderr,
                 "moqo_bench: --workload must be anytime_large, "
                 "anytime_small, service_local or service_remote\n");
    return 2;
  }
  if (options.seconds <= 0.0) {
    std::fprintf(stderr, "moqo_bench: --seconds must be positive\n");
    return 2;
  }
  try {
    if (flags.Has("write-reference")) {
      if (!anytime) {
        std::fprintf(stderr, "moqo_bench: only anytime workloads have "
                             "references\n");
        return 2;
      }
      for (uint64_t pool_seed : PoolSeeds()) {
        WriteReferenceFile(options.reference_dir,
                           AnytimeSpecFor(options.workload, false), pool_seed);
      }
      return 0;
    }
    if (out_path.empty()) {
      std::fprintf(stderr, "moqo_bench: --out is required\n");
      return 2;
    }
    const RunRecord record =
        anytime ? RunAnytime(options) : RunService(options);
    if (!WriteRecord(record, options, out_path)) {
      std::fprintf(stderr, "moqo_bench: cannot write %s\n", out_path.c_str());
      return 3;
    }
  } catch (const std::exception& e) {
    std::fprintf(stderr, "moqo_bench: %s\n", e.what());
    return 3;
  }
  return 0;
}
