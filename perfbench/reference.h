// Query pools and committed reference frontiers of the anytime workloads.
//
// Alpha error needs a reference frontier per query, and the references are
// too expensive to compute at set-up: DP(1.01) takes seconds per 9-table
// query and runs out of memory at 12 tables; the union of several RMQ runs
// on a 100-table query takes tens of seconds and ~700 MB per run. So each
// anytime workload runs a fixed pool of queries whose references are
// committed under perfbench/reference/. There are two pools per workload,
// each with `pool_per_cell` queries per (join graph, table count) cell:
// the development pool (seed 2016) serves every run seed except the
// holdout seed 7, which gets the holdout pool.
//
// Why a fixed pool and fixed session seeds: alpha against the reference is
// heavy-tailed in both the query and the RMQ seed (1 to 1e13 on 100-table
// queries), so drawing either from --seed made alpha_gmean differ by 30x
// between seeds and sat_qps by 14 %. With both fixed, --seed only
// permutes the order of the queries within each round.
//
// Every reference records the query fingerprint, the metric list and the
// cost of one fixed canonical plan. Loading re-derives all three and
// throws on any difference, so a generator or cost-model change fails
// loudly instead of scoring against a stale frontier.
#ifndef MOQO_PERFBENCH_REFERENCE_H_
#define MOQO_PERFBENCH_REFERENCE_H_

#include <cstdint>
#include <string>
#include <vector>

#include "bench_util.h"
#include "query/generator.h"

namespace moqo {
namespace perfbench {

/// One (join graph, table count) cell of a workload grid.
struct Cell {
  GraphType graph = GraphType::kChain;
  int tables = 0;
};

/// Shape of one anytime workload.
struct AnytimeSpec {
  std::string workload;
  /// Iterations per query (K).
  int k = 0;
  std::vector<Cell> cells;
  /// Queries per cell in each committed pool.
  int pool_per_cell = 0;
  /// Queries per cell in one run (all of the pool but in smoke runs).
  int per_cell = 0;
};

/// The spec of `workload` ("anytime_large" or "anytime_small"); smoke runs
/// use one query per cell and K/10 iterations.
AnytimeSpec AnytimeSpecFor(const std::string& workload, bool smoke);

/// Seeds the committed pools were generated from: development, holdout.
const std::vector<uint64_t>& PoolSeeds();

/// One pool query: cell + pool seed + index within the cell.
struct PoolEntry {
  uint64_t pool_seed = 0;
  Cell cell;
  int index = 0;

  /// Stable 64-bit identity; seeds every stream derived from this entry.
  uint64_t Key() const;
  /// Seed of the measured RMQ session on this query.
  uint64_t SessionSeed() const;
  /// e.g. "star100-1@2016".
  std::string Name() const;
};

/// The pool entries a run with `seed` uses (see file header).
std::vector<PoolEntry> PoolEntries(const AnytimeSpec& spec, uint64_t seed);

/// Regenerates the entry's query and its (all three) metrics.
QueryPtr PoolQuery(const PoolEntry& entry, std::vector<Metric>* metrics);

/// A pool query with its committed reference frontier.
struct LoadedEntry {
  PoolEntry entry;
  QueryPtr query;
  std::vector<Metric> metrics;
  std::vector<CostVector> reference;
};

/// Regenerates every entry's query and loads its reference from `dir`,
/// validating the reference against the regenerated query. Throws
/// std::runtime_error on a missing, unparsable or stale reference.
std::vector<LoadedEntry> LoadPool(const std::string& dir,
                                  const AnytimeSpec& spec,
                                  const std::vector<PoolEntry>& entries);

/// Computes and writes the reference file of `spec` for `pool_seed`:
/// DP(1.01) for anytime_small; for anytime_large the Pareto union of the
/// final frontiers of 8 RMQ runs of K iterations under seeds disjoint from
/// every measured seed.
void WriteReferenceFile(const std::string& dir, const AnytimeSpec& spec,
                        uint64_t pool_seed);

}  // namespace perfbench
}  // namespace moqo

#endif  // MOQO_PERFBENCH_REFERENCE_H_
