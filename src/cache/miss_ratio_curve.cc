#include "cache/miss_ratio_curve.h"

#include <algorithm>
#include <cmath>
#include <functional>
#include <utility>

#include "tensor/check.h"

namespace ttrec {

MissRatioCurve MissRatioCurve::FromCounts(std::vector<int64_t> counts,
                                          int num_points,
                                          int64_t max_capacity) {
  TTREC_CHECK_CONFIG(num_points >= 2,
                     "MissRatioCurve: num_points must be >= 2");
  TTREC_CHECK_CONFIG(max_capacity >= 1,
                     "MissRatioCurve: max_capacity must be >= 1");
  MissRatioCurve curve;
  std::sort(counts.begin(), counts.end(), std::greater<int64_t>());
  // Trailing zero counts carry no information (a key decremented to zero,
  // or a caller passing raw slot arrays) — drop them from the distinct-key
  // tally so saturation lands where the traffic actually ends.
  while (!counts.empty() && counts.back() <= 0) {
    TTREC_CHECK_CONFIG(counts.back() == 0,
                       "MissRatioCurve: negative access count ",
                       counts.back());
    counts.pop_back();
  }
  for (const int64_t c : counts) curve.total_accesses_ += c;
  curve.distinct_keys_ = static_cast<int64_t>(counts.size());
  if (counts.empty() || curve.total_accesses_ <= 0) return curve;

  // Geometric capacity grid from 1 to the saturation point (clamped to
  // max_capacity), always including both endpoints. The prefix-share curve
  // is concave, so chords between geometric samples under-estimate the true
  // hit rate by at most the gap across one ~(ratio)x step — a conservative
  // error the waterfiller can live with.
  const int64_t top =
      std::min<int64_t>(max_capacity, curve.distinct_keys_);
  std::vector<int64_t> grid;
  grid.reserve(static_cast<size_t>(num_points) + 1);
  const double ratio =
      top <= 1 ? 1.0
               : std::pow(static_cast<double>(top),
                          1.0 / static_cast<double>(num_points - 1));
  double c = 1.0;
  for (int i = 0; i < num_points; ++i) {
    const int64_t cap = std::min<int64_t>(
        top, static_cast<int64_t>(std::llround(std::ceil(c - 1e-9))));
    if (grid.empty() || cap > grid.back()) grid.push_back(cap);
    c *= ratio;
  }
  if (grid.back() < top) grid.push_back(top);

  // One pass over the sorted counts evaluates every grid point exactly.
  curve.points_.reserve(grid.size());
  int64_t prefix = 0;
  size_t next = 0;
  for (int64_t i = 0; i < top && next < grid.size(); ++i) {
    prefix += counts[static_cast<size_t>(i)];
    while (next < grid.size() && grid[next] == i + 1) {
      curve.points_.push_back(
          MrcPoint{i + 1, static_cast<double>(prefix) /
                              static_cast<double>(curve.total_accesses_)});
      ++next;
    }
  }
  return curve;
}

double MissRatioCurve::HitRateAt(int64_t capacity) const {
  if (points_.empty() || capacity <= 0) return 0.0;
  if (capacity >= points_.back().capacity) return points_.back().hit_rate;
  // Below the first grid point (capacity 1) the curve runs linearly from
  // the origin; between points, standard linear interpolation.
  const MrcPoint origin{0, 0.0};
  const MrcPoint* lo = &origin;
  for (const MrcPoint& p : points_) {
    if (p.capacity == capacity) return p.hit_rate;
    if (p.capacity > capacity) {
      const double span = static_cast<double>(p.capacity - lo->capacity);
      const double t = static_cast<double>(capacity - lo->capacity) / span;
      return lo->hit_rate + t * (p.hit_rate - lo->hit_rate);
    }
    lo = &p;
  }
  return points_.back().hit_rate;
}

MissRatioCurve MissRatioCurve::FromTracker(const FreqTracker& tracker,
                                           int64_t max_capacity) {
  std::vector<int64_t> counts;
  counts.reserve(static_cast<size_t>(tracker.size()));
  for (const auto& [key, count] : tracker.Items()) counts.push_back(count);
  if (counts.empty()) return MissRatioCurve{};
  return FromCounts(std::move(counts), /*num_points=*/24, max_capacity);
}

}  // namespace ttrec
