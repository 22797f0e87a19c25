// Memory-budget capacity planner: navigates TT-Rec's design space (paper
// Figure 1 / conclusion: "TT-Rec offers a flexible design space between
// memory capacity, training time and model accuracy ... navigated according
// to the desired optimization goal").
//
// Given a dataset's table cardinalities and an embedding-memory budget, the
// planner picks which tables to TT-compress and at what rank, using the
// paper's empirical structure:
//   - compressing the LARGEST tables buys the most memory per unit of
//     accuracy risk (Table 2 / Fig 5: the 7 largest are 99% of capacity);
//   - accuracy saturates in rank (Fig 6), so prefer the highest allowed
//     rank that fits before compressing additional tables;
//   - tables where TT would not actually shrink memory stay dense.
#pragma once

#include <cstdint>
#include <span>
#include <string>
#include <vector>

#include "cache/miss_ratio_curve.h"
#include "data/table_specs.h"
#include "tt/tt_shapes.h"

namespace ttrec {

struct TablePlan {
  int table = 0;        // index into the DatasetSpec
  int64_t rows = 0;
  bool compress = false;
  int64_t rank = 0;     // valid when compress
  int64_t bytes = 0;    // resulting memory for this table
};

struct CapacityPlan {
  std::vector<TablePlan> tables;  // one entry per spec table, spec order
  int64_t total_bytes = 0;
  int64_t dense_bytes = 0;  // all-dense reference
  bool fits = false;        // total_bytes <= budget
  double CompressionRatio() const {
    return total_bytes > 0 ? static_cast<double>(dense_bytes) /
                                 static_cast<double>(total_bytes)
                           : 0.0;
  }
  std::string ToString() const;
};

struct PlannerOptions {
  /// Candidate TT ranks, ascending. The planner prefers the largest that
  /// fits (rank-saturating accuracy, Fig 6).
  std::vector<int64_t> allowed_ranks = {8, 16, 32, 64};
  int num_cores = 3;
};

/// Plans per-table compression so total embedding memory fits
/// `budget_bytes`. If even the most aggressive plan (every shrinkable table
/// at the minimum rank) exceeds the budget, returns that plan with
/// fits == false.
CapacityPlan PlanCapacity(const DatasetSpec& spec, int64_t emb_dim,
                          int64_t budget_bytes,
                          const PlannerOptions& options = {});

/// TT parameter bytes for one table at the given rank (auto factorization).
int64_t TtTableBytes(int64_t rows, int64_t emb_dim, int num_cores,
                     int64_t rank);

/// A capacity plan that splits one budget between TT cores and hot-row
/// caches. `cache_rows[t]` is the planned cache capacity for spec table t
/// (0 for tables the TT plan leaves dense — they serve from the full
/// uncompressed table and need no cache).
struct CacheAwarePlan {
  CapacityPlan tt;
  int64_t cache_budget_bytes = 0;
  std::vector<int64_t> cache_rows;
  /// Traffic-weighted aggregate hit rate the MRCs predict for the
  /// compressed tables at the planned capacities.
  double predicted_hit_rate = 0.0;
  /// Fraction of the budget handed to caches (the swept knob).
  double cache_fraction = 0.0;
  std::string ToString() const;
};

struct CachePlannerOptions {
  PlannerOptions tt;
  /// Candidate budget fractions to hand the cache layer. 0 must be present
  /// (pure-TT fallback when caching buys nothing or the TT plan needs the
  /// whole budget to fit).
  std::vector<double> cache_fractions = {0.0,  0.02, 0.05, 0.1,
                                         0.15, 0.2,  0.3};
  /// Per-table floor when apportioning cache rows.
  int64_t min_cache_rows = 1;
};

/// Splits `budget_bytes` between TT compression and hot-row caches using
/// per-table miss-ratio curves (`mrcs[t]`, one per spec table, e.g. from a
/// profiling run or a historical trace; empty curves mean "no traffic
/// observed" and draw only the floor). For each candidate cache fraction
/// the remainder goes through PlanCapacity; the cache slice is waterfilled
/// (ApportionCacheRows) over the tables that plan compressed. The fraction
/// with the highest predicted traffic-weighted hit rate wins; ties and
/// non-fitting TT plans fall back toward smaller fractions, so the result
/// always fits whenever PlanCapacity alone would.
CacheAwarePlan PlanCapacityWithCache(const DatasetSpec& spec, int64_t emb_dim,
                                     int64_t budget_bytes,
                                     std::span<const MissRatioCurve> mrcs,
                                     const CachePlannerOptions& options = {});

}  // namespace ttrec
