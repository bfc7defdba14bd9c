#include "core/pareto_climb.h"

#include <algorithm>
#include <cassert>
#include <cstdint>

namespace moqo {

namespace {

// Cap on plans kept per output format inside one ParetoStep node.
//
// The paper's complexity analysis (Lemma 2) assumes ParetoStep returns a
// single non-dominated plan per node; keeping wide non-dominated sets per
// node instead makes the recombination cost explode (at width 8 the fast
// climber loses its entire advantage over the naive one). Width 2 per
// output format keeps climbs about 9.5x faster than naive at 50 tables
// (perfbench's climb.naive_ratio metric on anytime_large), at the price
// that a climbing fixed point is no longer guaranteed to be a local
// optimum of the complete neighborhood (RMQ's frontier approximation
// recovers the lost operator variety along the chosen join order, which is
// why end-to-end quality *improves* with the narrower width; see
// bench/ablation_climb).
constexpr int kMaxPerFormat = 2;

// Step-local frontier in struct-of-arrays form: plan handles plus inline
// cost rows (fixed kMaxMetrics stride) and output-format tags, kept in
// lockstep. The set is bounded by kMaxPerFormat plans per OutputFormat, so
// the cost rows fit in a fixed inline array — PruneBetter sweeps flat
// doubles with zero heap traffic per candidate.
struct StepSet {
  static constexpr int kNumFormats = 2;  // kUnsorted, kSorted
  static constexpr int kCapacity = kNumFormats * kMaxPerFormat;

  std::vector<PlanPtr> plans;
  double costs[kCapacity * CostVector::kMaxMetrics];
  std::uint8_t formats[kCapacity];

  double* Row(size_t r) { return costs + r * CostVector::kMaxMetrics; }
};

// Prune of Algorithm 2: keep, per output data representation, a small set
// of mutually non-dominated plans. Rejects `candidate` if an existing plan
// with the same representation weakly dominates it.
//
// Fused one-pass sweep over the former reject pass (same-format plan weakly
// dominates candidate?) and evict pass (candidate strictly dominates
// same-format plan?): same scan order, same comparisons, and a reject
// aborts before any mutation — outcomes are bit-identical to the scalar
// two-pass version. After a reject-free sweep no same-format row weakly
// dominates the candidate, so "strictly dominates" reduces to "weakly
// dominates" (equality would have rejected).
void PruneBetter(StepSet* set, PlanPtr candidate) {
  const CostVector& cost = candidate->cost();
  const int metrics = cost.size();
  const double* cand = cost.data();
  const std::uint8_t fmt = static_cast<std::uint8_t>(candidate->format());
  const size_t n = set->plans.size();

  std::uint8_t keep[StepSet::kCapacity];
  bool any_evicted = false;
  for (size_t r = 0; r < n; ++r) {
    keep[r] = 1;
    if (set->formats[r] != fmt) continue;
    const double* row = set->Row(r);
    const bool reject = AllLanesLE(row, cand);
    const bool evict = AllLanesLE(cand, row);
    if (reject) return;
    if (evict) {
      keep[r] = 0;
      any_evicted = true;
    }
  }

  size_t size = n;
  if (any_evicted) {
    size_t out = 0;
    for (size_t r = 0; r < n; ++r) {
      if (!keep[r]) continue;
      if (out != r) {
        set->plans[out] = std::move(set->plans[r]);
        set->formats[out] = set->formats[r];
        std::copy_n(set->Row(r), CostVector::kMaxMetrics, set->Row(out));
      }
      ++out;
    }
    set->plans.resize(out);
    size = out;
  }

  // Count the cap against the survivors: counting before the erase can
  // treat plans the candidate just evicted as occupying slots, dropping a
  // strictly dominating candidate (and possibly emptying the step result).
  int same_format = 0;
  for (size_t r = 0; r < size; ++r) {
    if (set->formats[r] == fmt) ++same_format;
  }
  if (same_format >= kMaxPerFormat) {
    // Evict the same-format plan with the highest cost sum to make room;
    // keeps the step's working set constant-size.
    size_t worst = size;
    double worst_sum = 0.0;
    for (int i = 0; i < metrics; ++i) worst_sum += cand[i];
    for (size_t r = 0; r < size; ++r) {
      if (set->formats[r] != fmt) continue;
      const double* row = set->Row(r);
      double sum = 0.0;
      for (int i = 0; i < metrics; ++i) sum += row[i];
      if (sum > worst_sum) {
        worst = r;
        worst_sum = sum;
      }
    }
    if (worst == size) return;  // candidate is the worst: drop it
    set->plans.erase(set->plans.begin() + static_cast<std::ptrdiff_t>(worst));
    for (size_t r = worst + 1; r < size; ++r) {
      set->formats[r - 1] = set->formats[r];
      std::copy_n(set->Row(r), CostVector::kMaxMetrics, set->Row(r - 1));
    }
    --size;
  }

  assert(size < static_cast<size_t>(StepSet::kCapacity));
  std::copy_n(cand, CostVector::kMaxMetrics, set->Row(size));
  set->formats[size] = fmt;
  set->plans.push_back(std::move(candidate));
}

}  // namespace

std::vector<PlanPtr> ParetoStep(const PlanPtr& p, PlanFactory* factory,
                                ClimbStats* stats, PlanSpace space) {
  StepSet result;
  if (p->IsJoin()) {
    // Improve sub-plans by recursive calls, then recombine every improved
    // sub-plan pair and apply all root mutations to each combination.
    std::vector<PlanPtr> outer_pareto =
        ParetoStep(p->outer(), factory, stats, space);
    std::vector<PlanPtr> inner_pareto =
        ParetoStep(p->inner(), factory, stats, space);
    for (const PlanPtr& outer : outer_pareto) {
      for (const PlanPtr& inner : inner_pareto) {
        PlanPtr base =
            (outer.get() == p->outer_node() && inner.get() == p->inner_node())
                ? p
                : factory->MakeJoin(outer, inner, p->join_op());
        PruneBetter(&result, base);
        for (PlanPtr& mutated : RootMutations(base, factory, space)) {
          if (stats != nullptr) ++stats->plans_examined;
          PruneBetter(&result, std::move(mutated));
        }
      }
    }
  } else {
    PruneBetter(&result, p);
    for (PlanPtr& mutated : RootMutations(p, factory, space)) {
      if (stats != nullptr) ++stats->plans_examined;
      PruneBetter(&result, std::move(mutated));
    }
  }
  assert(!result.plans.empty());
  return std::move(result.plans);
}

PlanPtr ParetoClimb(const PlanPtr& p, PlanFactory* factory, ClimbStats* stats,
                    const Deadline& deadline, PlanSpace space) {
  PlanPtr current = p;
  bool improving = true;
  while (improving && !deadline.Expired()) {
    improving = false;
    std::vector<PlanPtr> mutations =
        ParetoStep(current, factory, stats, space);
    // Move to the strictly dominating mutation with the lowest cost sum
    // (any strictly dominating neighbor is a valid choice; preferring the
    // cheapest makes progress fastest).
    PlanPtr best;
    for (PlanPtr& m : mutations) {
      if (m->cost().StrictlyDominates(current->cost())) {
        if (best == nullptr || m->cost().Sum() < best->cost().Sum()) {
          best = std::move(m);
        }
      }
    }
    if (best != nullptr) {
      current = std::move(best);
      improving = true;
      if (stats != nullptr) ++stats->steps;
    }
  }
  return current;
}

PlanPtr NaiveClimb(const PlanPtr& p, PlanFactory* factory, ClimbStats* stats,
                   const Deadline& deadline) {
  PlanPtr current = p;
  bool improving = true;
  while (improving && !deadline.Expired()) {
    improving = false;
    std::vector<PlanPtr> neighbors = AllNeighbors(current, factory);
    if (stats != nullptr) {
      stats->plans_examined += static_cast<int64_t>(neighbors.size());
    }
    PlanPtr best;
    for (PlanPtr& m : neighbors) {
      if (m->cost().StrictlyDominates(current->cost())) {
        if (best == nullptr || m->cost().Sum() < best->cost().Sum()) {
          best = std::move(m);
        }
      }
    }
    if (best != nullptr) {
      current = std::move(best);
      improving = true;
      if (stats != nullptr) ++stats->steps;
    }
  }
  return current;
}

bool IsLocalParetoOptimum(const PlanPtr& p, PlanFactory* factory) {
  for (const PlanPtr& neighbor : AllNeighbors(p, factory)) {
    if (neighbor->cost().StrictlyDominates(p->cost())) return false;
  }
  return true;
}

}  // namespace moqo
