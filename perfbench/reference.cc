#include "reference.h"

#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <map>
#include <sstream>
#include <stdexcept>

#include "core/query_fingerprint.h"
#include "harness/experiment.h"
#include "pareto/epsilon_indicator.h"
#include "plan/plan_factory.h"
#include "service/batch_optimizer.h"

namespace moqo {
namespace perfbench {

namespace {

constexpr const char* kMagic = "moqo-bench-reference";
constexpr int kFormatVersion = 1;
/// RMQ runs unioned into one anytime_large reference.
constexpr int kUnionRuns = 8;

std::string ReferencePath(const std::string& dir, const std::string& workload,
                          uint64_t pool_seed) {
  return dir + "/" + workload + "-" + std::to_string(pool_seed) + ".ref";
}

/// Cost of the left-deep plan joining tables 0..n-1 in order with full
/// scans and large hash joins: any change to the cost model or to the
/// generated statistics changes it.
CostVector CanonicalPlanCost(const QueryPtr& query, const CostModel& model) {
  PlanFactory factory(query, &model);
  PlanPtr plan = factory.MakeScan(0, ScanAlgorithm::kFullScan);
  for (int t = 1; t < query->NumTables(); ++t) {
    plan = factory.MakeJoin(plan, factory.MakeScan(t, ScanAlgorithm::kFullScan),
                            JoinAlgorithm::kHashLarge);
  }
  return plan->cost();
}

std::string HexDouble(double v) {
  char buf[64];
  std::snprintf(buf, sizeof(buf), "%a", v);
  return buf;
}

std::string VectorLine(const CostVector& v) {
  std::string line;
  for (int i = 0; i < v.size(); ++i) {
    if (i > 0) line += ' ';
    line += HexDouble(v[i]);
  }
  return line;
}

CostVector ParseVector(const std::string& text) {
  std::istringstream in(text);
  std::vector<double> values;
  std::string token;
  while (in >> token) {
    char* end = nullptr;
    values.push_back(std::strtod(token.c_str(), &end));
    if (end == token.c_str() || *end != '\0') {
      throw std::runtime_error("bad number in reference: " + token);
    }
  }
  if (values.empty() ||
      values.size() > static_cast<size_t>(CostVector::kMaxMetrics)) {
    throw std::runtime_error("bad cost vector in reference: " + text);
  }
  CostVector v(static_cast<int>(values.size()));
  for (int i = 0; i < v.size(); ++i) v[i] = values[static_cast<size_t>(i)];
  return v;
}

std::string MetricLine(const std::vector<Metric>& metrics) {
  std::string line;
  for (Metric m : metrics) line += (line.empty() ? "" : " ") + ToString(m);
  return line;
}

/// One parsed reference record.
struct StoredReference {
  uint64_t fingerprint = 0;
  std::string metrics;
  CostVector canonical;
  std::vector<CostVector> points;
};

/// Reads "key rest-of-line", requiring `key`.
std::string Expect(std::istream& in, const std::string& key,
                   const std::string& path) {
  std::string line;
  if (!std::getline(in, line) || line.compare(0, key.size() + 1, key + " ")) {
    throw std::runtime_error(path + ": expected '" + key + "', got '" + line +
                             "'");
  }
  return line.substr(key.size() + 1);
}

std::map<std::string, StoredReference> ReadReferenceFile(
    const std::string& path, const std::string& workload) {
  std::ifstream in(path);
  if (!in) {
    throw std::runtime_error("missing reference file " + path +
                             " (regenerate: see perfbench/README.md)");
  }
  if (Expect(in, kMagic, path) != std::to_string(kFormatVersion)) {
    throw std::runtime_error(path + ": unsupported reference version");
  }
  if (Expect(in, "workload", path) != workload) {
    throw std::runtime_error(path + ": reference is for another workload");
  }
  Expect(in, "pool_seed", path);
  Expect(in, "method", path);
  std::map<std::string, StoredReference> out;
  std::string line;
  while (std::getline(in, line)) {
    if (line.empty()) continue;
    if (line.compare(0, 6, "entry ") != 0) {
      throw std::runtime_error(path + ": expected 'entry', got '" + line +
                               "'");
    }
    StoredReference ref;
    const std::string name = line.substr(6);
    ref.fingerprint =
        std::strtoull(Expect(in, "fingerprint", path).c_str(), nullptr, 16);
    ref.metrics = Expect(in, "metrics", path);
    ref.canonical = ParseVector(Expect(in, "canonical", path));
    const long count = std::strtol(Expect(in, "points", path).c_str(),
                                   nullptr, 10);
    for (long i = 0; i < count; ++i) {
      if (!std::getline(in, line)) {
        throw std::runtime_error(path + ": truncated points of " + name);
      }
      ref.points.push_back(ParseVector(line));
    }
    out[name] = std::move(ref);
  }
  return out;
}

}  // namespace

AnytimeSpec AnytimeSpecFor(const std::string& workload, bool smoke) {
  AnytimeSpec spec;
  spec.workload = workload;
  if (workload == "anytime_large") {
    spec.k = 60;
    spec.cells = {{GraphType::kChain, 50},
                  {GraphType::kStar, 50},
                  {GraphType::kChain, 100},
                  {GraphType::kStar, 100}};
    spec.pool_per_cell = 2;
  } else if (workload == "anytime_small") {
    spec.k = 1000;
    spec.cells = {{GraphType::kChain, 8},
                  {GraphType::kStar, 8},
                  {GraphType::kChain, 9},
                  {GraphType::kStar, 9}};
    spec.pool_per_cell = 3;
  } else {
    throw std::runtime_error("not an anytime workload: " + workload);
  }
  spec.per_cell = spec.pool_per_cell;
  if (smoke) {
    spec.k /= 10;
    spec.per_cell = 1;
  }
  return spec;
}

const std::vector<uint64_t>& PoolSeeds() {
  static const std::vector<uint64_t> kSeeds = {2016, 7};
  return kSeeds;
}

uint64_t PoolEntry::Key() const {
  return CombineSeed(pool_seed, static_cast<uint64_t>(cell.graph),
                     static_cast<uint64_t>(cell.tables),
                     static_cast<uint64_t>(index));
}

uint64_t PoolEntry::SessionSeed() const {
  return CombineSeed(Key(), 0x73657373ull /* "sess" */);
}

std::string PoolEntry::Name() const {
  return ToString(cell.graph) + std::to_string(cell.tables) + "-" +
         std::to_string(index) + "@" + std::to_string(pool_seed);
}

std::vector<PoolEntry> PoolEntries(const AnytimeSpec& spec, uint64_t seed) {
  const uint64_t holdout = PoolSeeds()[1];
  const uint64_t pool = seed == holdout ? holdout : PoolSeeds()[0];
  std::vector<PoolEntry> out;
  for (const Cell& cell : spec.cells) {
    for (int i = 0; i < spec.per_cell; ++i) {
      out.push_back(PoolEntry{pool, cell, i});
    }
  }
  return out;
}

QueryPtr PoolQuery(const PoolEntry& entry, std::vector<Metric>* metrics) {
  Rng rng(entry.Key());
  GeneratorConfig config;
  config.num_tables = entry.cell.tables;
  config.graph_type = entry.cell.graph;
  QueryPtr query = GenerateQuery(config, &rng);
  *metrics = SampleMetrics(3, &rng);
  return query;
}

std::vector<LoadedEntry> LoadPool(const std::string& dir,
                                  const AnytimeSpec& spec,
                                  const std::vector<PoolEntry>& entries) {
  std::map<uint64_t, std::map<std::string, StoredReference>> files;
  std::vector<LoadedEntry> out;
  for (const PoolEntry& entry : entries) {
    auto file = files.find(entry.pool_seed);
    if (file == files.end()) {
      const std::string path =
          ReferencePath(dir, spec.workload, entry.pool_seed);
      file = files.emplace(entry.pool_seed,
                           ReadReferenceFile(path, spec.workload))
                 .first;
    }
    auto stored = file->second.find(entry.Name());
    if (stored == file->second.end()) {
      throw std::runtime_error("no reference for " + entry.Name());
    }
    LoadedEntry loaded;
    loaded.entry = entry;
    loaded.query = PoolQuery(entry, &loaded.metrics);
    const CostModel model(loaded.metrics);
    const StoredReference& ref = stored->second;
    if (ref.fingerprint != QueryFingerprint(*loaded.query) ||
        ref.metrics != MetricLine(loaded.metrics) ||
        !BitwiseEqual({ref.canonical},
                      {CanonicalPlanCost(loaded.query, model)})) {
      throw std::runtime_error(
          "stale reference for " + entry.Name() +
          ": the query generator or the cost model changed; regenerate "
          "the references (see perfbench/README.md)");
    }
    loaded.reference = ref.points;
    out.push_back(std::move(loaded));
  }
  return out;
}

void WriteReferenceFile(const std::string& dir, const AnytimeSpec& spec,
                        uint64_t pool_seed) {
  const bool dp = spec.workload == "anytime_small";
  std::ostringstream body;
  body << kMagic << " " << kFormatVersion << "\n"
       << "workload " << spec.workload << "\n"
       << "pool_seed " << pool_seed << "\n";
  if (dp) {
    body << "method dp 1.01\n";
  } else {
    body << "method rmq-union " << kUnionRuns << "x" << spec.k << "\n";
  }
  for (const Cell& cell : spec.cells) {
    for (int i = 0; i < spec.pool_per_cell; ++i) {
      const PoolEntry entry{pool_seed, cell, i};
      std::vector<Metric> metrics;
      QueryPtr query = PoolQuery(entry, &metrics);
      const CostModel model(metrics);
      std::vector<CostVector> points;
      if (dp) {
        points = DpReference(query, model);
      } else {
        std::vector<std::vector<CostVector>> finals;
        for (int run = 0; run < kUnionRuns; ++run) {
          QueryUnderTest q;
          q.query = query;
          q.model = std::make_shared<CostModel>(model);
          // The "ref" salt keeps these seeds disjoint from SessionSeed().
          q.seed = CombineSeed(entry.Key(), 0x726566ull, run);
          q.k = spec.k;
          finals.push_back(ColdFrontier(q));
        }
        points = UnionFrontier(finals);
      }
      std::fprintf(stderr, "reference %s: %zu points\n", entry.Name().c_str(),
                   points.size());
      body << "entry " << entry.Name() << "\n"
           << "fingerprint " << FingerprintString(QueryFingerprint(*query))
           << "\n"
           << "metrics " << MetricLine(metrics) << "\n"
           << "canonical " << VectorLine(CanonicalPlanCost(query, model))
           << "\n"
           << "points " << points.size() << "\n";
      for (const CostVector& p : points) body << VectorLine(p) << "\n";
    }
  }
  const std::string path = ReferencePath(dir, spec.workload, pool_seed);
  std::ofstream out(path);
  out << body.str();
  if (!out) throw std::runtime_error("cannot write " + path);
}

}  // namespace perfbench
}  // namespace moqo
