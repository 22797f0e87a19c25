// Global cache budget manager: one byte budget, many tables, self-tuning
// capacities.
//
// The paper sizes every table's cache independently (0.01% of its rows,
// Fig 10b). That heuristic ignores the two quantities that actually decide
// where a cached row pays off: how much traffic a table sees, and how fast
// its hit-rate curve is still climbing at the current capacity. The
// CacheManager closes that loop: it profiles each registered table's
// miss-ratio curve from the frequency counts the cache layer already keeps
// (MissRatioCurve::FromTracker), then waterfills the global byte budget by
// marginal miss reduction — every chunk of bytes goes to the table where it
// removes the most traffic-weighted misses. Because LFU prefix-share curves
// are concave, the greedy chunk allocation is optimal up to one chunk of
// granularity.
//
// Retune() pushes the plan into the live operators through
// CachedTtEmbeddingBag::ResizeCache, which preserves learned hot rows
// across the capacity change. The same waterfilling core
// (ApportionCacheRows) is reused offline by PlanCapacityWithCache to split
// a single budget between TT ranks and cache bytes before training starts.
#pragma once

#include <cstdint>
#include <span>
#include <vector>

#include "cache/cached_tt_embedding.h"
#include "cache/miss_ratio_curve.h"
#include "obs/metrics.h"

namespace ttrec {

struct CacheManagerConfig {
  /// Global cache budget across all registered tables, in bytes (costed via
  /// LfuRowCache::BytesPerRow). Must cover one row — the floor, since
  /// LfuRowCache requires capacity >= 1 — for every registered table at
  /// plan time.
  int64_t budget_bytes = 0;
  /// Waterfilling granularity in rows. 0 = auto: ~1/256 of the budget, so a
  /// plan costs at most a few thousand heap operations regardless of scale.
  int64_t chunk_rows = 0;
};

/// One table's input to the waterfiller.
struct CacheApportionInput {
  MissRatioCurve mrc;
  int64_t max_rows = 0;       // never allocate beyond the table's row count
  int64_t bytes_per_row = 0;  // LfuRowCache::BytesPerRow(emb_dim)
};

/// Splits `budget_bytes` across tables by greedy marginal traffic-weighted
/// miss reduction per byte. Returns one row count per input (>= min_rows,
/// <= max_rows). Tables with empty curves (no observed traffic) receive
/// only the floor. Throws ConfigError when the budget cannot cover the
/// floor for every table.
std::vector<int64_t> ApportionCacheRows(
    std::span<const CacheApportionInput> tables, int64_t budget_bytes,
    int64_t min_rows = 1, int64_t chunk_rows = 0);

struct TableBudget {
  int table_id = 0;
  int64_t rows = 0;
  int64_t bytes = 0;
  /// This table's share of observed traffic across all registered tables.
  double traffic_share = 0.0;
  /// Interpolated MRC hit rate at the allocated capacity.
  double predicted_hit_rate = 0.0;
};

struct ApportionmentPlan {
  std::vector<TableBudget> tables;  // registration order
  int64_t budget_bytes = 0;
  int64_t used_bytes = 0;
  /// Traffic-weighted mean of the per-table predicted hit rates.
  double predicted_aggregate_hit_rate = 0.0;
};

class CacheManager {
 public:
  explicit CacheManager(CacheManagerConfig config);

  /// Registers a cached operator under a stable id (used in metric names:
  /// cache.<id>.mrc.* etc.). The bag must outlive the manager. Ids must be
  /// unique and >= 0.
  void RegisterTable(int table_id, CachedTtEmbeddingBag* bag);

  int num_tables() const { return static_cast<int>(tables_.size()); }

  /// Profiles every table's MRC from its frequency tracker and waterfills
  /// the budget. Pure planning — does not touch the operators.
  ApportionmentPlan Plan() const;

  /// Plan() + ResizeCache on every table whose allocation changed. Returns
  /// the applied plan.
  ApportionmentPlan Retune();

  /// Retune() calls so far.
  int64_t retunes() const { return retunes_; }

  /// Publishes manager gauges/counters (cache.mgr.budget_bytes /
  /// used_bytes / predicted_hit_rate / retunes) and per-table
  /// cache.<id>.rows / bytes / traffic_share / mrc.hit_rate /
  /// mrc.distinct_keys / mrc.total_accesses from the last Plan/Retune.
  /// Idempotent per registry (StatPublisher semantics); a no-op before the
  /// first Plan.
  void CollectStats(obs::MetricRegistry& reg) const;

 private:
  struct Entry {
    int table_id = 0;
    CachedTtEmbeddingBag* bag = nullptr;
  };

  CacheManagerConfig config_;
  std::vector<Entry> tables_;
  int64_t retunes_ = 0;
  ApportionmentPlan last_plan_;
  obs::StatPublisher publisher_;
};

}  // namespace ttrec
