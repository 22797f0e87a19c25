// Online miss-ratio-curve (MRC) estimation from LFU frequency counts.
//
// The paper gives each cached table one knob — a fixed capacity, sized by
// the Fig 10b "0.01% of the table" heuristic. The production question is
// different: given ONE global memory budget and many tables of different
// skew and traffic, how many rows should each table's cache get? Answering
// it needs the whole hit-rate-vs-capacity curve per table, not one point.
//
// Under LFU with bulk refresh (our semi-dynamic cache), the curve has a
// closed form over the observed window: a cache of capacity c holds the c
// most-frequent rows, so
//
//   hit_rate(c) = (sum of the top-c counts) / (total accesses).
//
// MissRatioCurve evaluates that prefix-share exactly on a geometric
// capacity grid (the curve is concave, so a sparse grid plus linear
// interpolation loses little); the CacheManager waterfills over the curves.
// FromTracker reads the counts straight from the existing FreqTracker —
// profiling adds no per-lookup work beyond the tracking the cache already
// does.
#pragma once

#include <cstdint>
#include <vector>

#include "cache/freq_tracker.h"

namespace ttrec {

/// One sampled point: hit rate the table would see with `capacity` cached
/// rows (over the tracked access window).
struct MrcPoint {
  int64_t capacity = 0;
  double hit_rate = 0.0;
};

/// A piecewise-linear hit-rate-vs-capacity curve. Points are strictly
/// increasing in capacity with nondecreasing hit rate (LFU prefix shares
/// are concave); capacity 0 always maps to hit rate 0.
class MissRatioCurve {
 public:
  MissRatioCurve() = default;

  /// Builds the curve from raw access counts (any order). The grid is
  /// geometric with ~`num_points` points, clamped to `max_capacity`, and
  /// always contains the exact saturation point (the number of distinct
  /// keys, where the hit rate reaches 1 over the window) when it is within
  /// range.
  static MissRatioCurve FromCounts(std::vector<int64_t> counts,
                                   int num_points, int64_t max_capacity);

  /// The curve of one table's tracked counts, evaluated up to
  /// `max_capacity` rows (typically the table's row count — no cache can
  /// usefully exceed it) on a 24-point grid: ~2x steps over 1..10^7 rows,
  /// where concavity keeps the interpolation error well under a percent of
  /// hit rate for Zipf-like traffic. Empty for an empty tracker.
  static MissRatioCurve FromTracker(const FreqTracker& tracker,
                                    int64_t max_capacity);

  /// Hit rate at `capacity`, linearly interpolated between grid points and
  /// clamped to the curve's range (0 below the first point's share of
  /// course: capacity 0 -> 0; beyond the last point the curve is flat).
  double HitRateAt(int64_t capacity) const;
  double MissRateAt(int64_t capacity) const { return 1.0 - HitRateAt(capacity); }

  /// Total accesses in the window the curve was estimated from — the
  /// traffic weight aggregate-miss minimization multiplies by.
  int64_t total_accesses() const { return total_accesses_; }
  /// Distinct keys observed (the capacity where the curve saturates at 1).
  int64_t distinct_keys() const { return distinct_keys_; }
  bool empty() const { return points_.empty(); }
  const std::vector<MrcPoint>& points() const { return points_; }

 private:
  std::vector<MrcPoint> points_;  // ascending capacity, capacity >= 1
  int64_t total_accesses_ = 0;
  int64_t distinct_keys_ = 0;
};

}  // namespace ttrec
