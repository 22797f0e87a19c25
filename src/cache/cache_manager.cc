#include "cache/cache_manager.h"

#include <algorithm>
#include <limits>
#include <queue>
#include <string>

#include "tensor/check.h"

namespace ttrec {

std::vector<int64_t> ApportionCacheRows(
    std::span<const CacheApportionInput> tables, int64_t budget_bytes,
    int64_t min_rows, int64_t chunk_rows) {
  TTREC_CHECK_CONFIG(min_rows >= 1, "ApportionCacheRows: min_rows must be "
                                    ">= 1 (LfuRowCache floor)");
  TTREC_CHECK_CONFIG(chunk_rows >= 0,
                     "ApportionCacheRows: chunk_rows must be >= 0");
  if (tables.empty()) return {};

  // Seed every table at the floor; the remainder is waterfilled.
  std::vector<int64_t> rows(tables.size(), 0);
  int64_t remaining = budget_bytes;
  int64_t min_bytes_per_row = std::numeric_limits<int64_t>::max();
  double total_traffic = 0.0;
  for (size_t t = 0; t < tables.size(); ++t) {
    TTREC_CHECK_CONFIG(tables[t].bytes_per_row >= 1,
                       "ApportionCacheRows: bytes_per_row must be >= 1");
    TTREC_CHECK_CONFIG(tables[t].max_rows >= min_rows,
                       "ApportionCacheRows: table ", t, " has max_rows ",
                       tables[t].max_rows, " below the floor ", min_rows);
    rows[t] = min_rows;
    remaining -= min_rows * tables[t].bytes_per_row;
    min_bytes_per_row = std::min(min_bytes_per_row, tables[t].bytes_per_row);
    total_traffic += static_cast<double>(tables[t].mrc.total_accesses());
  }
  TTREC_CHECK_CONFIG(remaining >= 0, "ApportionCacheRows: budget ",
                     budget_bytes, " bytes cannot cover the ", min_rows,
                     "-row floor for ", tables.size(), " tables");

  if (chunk_rows == 0) {
    chunk_rows = std::max<int64_t>(1, remaining / (min_bytes_per_row * 256));
  }

  // Greedy waterfilling: repeatedly hand one chunk of rows to the table
  // with the highest marginal traffic-weighted hit gain per byte. The MRC
  // prefix-share curves are concave, so each table's marginal gain is
  // nonincreasing and the stale-priority trick below (re-push and re-check
  // instead of decrease-key) keeps the heap honest.
  struct Candidate {
    double gain_per_byte;
    size_t table;
    int64_t at_rows;  // allocation the gain was computed at
  };
  const auto cmp = [](const Candidate& a, const Candidate& b) {
    return a.gain_per_byte < b.gain_per_byte;
  };
  std::priority_queue<Candidate, std::vector<Candidate>, decltype(cmp)> heap(
      cmp);

  const auto marginal = [&](size_t t, int64_t at) -> Candidate {
    const CacheApportionInput& in = tables[t];
    const int64_t next = std::min(in.max_rows, at + chunk_rows);
    if (next <= at) return Candidate{-1.0, t, at};
    const double traffic =
        total_traffic > 0.0
            ? static_cast<double>(in.mrc.total_accesses()) / total_traffic
            : 0.0;
    const double gain =
        traffic * (in.mrc.HitRateAt(next) - in.mrc.HitRateAt(at));
    const double cost =
        static_cast<double>((next - at) * in.bytes_per_row);
    return Candidate{gain / cost, t, at};
  };

  for (size_t t = 0; t < tables.size(); ++t) {
    const Candidate c = marginal(t, rows[t]);
    if (c.gain_per_byte > 0.0) heap.push(c);
  }
  while (!heap.empty() && remaining >= min_bytes_per_row) {
    const Candidate c = heap.top();
    heap.pop();
    if (c.at_rows != rows[c.table]) continue;  // stale entry
    const CacheApportionInput& in = tables[c.table];
    int64_t step = std::min(in.max_rows - rows[c.table], chunk_rows);
    step = std::min(step, remaining / in.bytes_per_row);
    if (step <= 0) continue;
    rows[c.table] += step;
    remaining -= step * in.bytes_per_row;
    const Candidate next = marginal(c.table, rows[c.table]);
    if (next.gain_per_byte > 0.0) heap.push(next);
  }
  return rows;
}

CacheManager::CacheManager(CacheManagerConfig config) : config_(config) {
  TTREC_CHECK_CONFIG(config_.budget_bytes >= 1,
                     "CacheManager: budget_bytes must be >= 1");
  TTREC_CHECK_CONFIG(config_.chunk_rows >= 0,
                     "CacheManager: chunk_rows must be >= 0");
}

void CacheManager::RegisterTable(int table_id, CachedTtEmbeddingBag* bag) {
  TTREC_CHECK_CONFIG(table_id >= 0, "CacheManager: table_id must be >= 0");
  TTREC_CHECK_CONFIG(bag != nullptr, "CacheManager: bag must not be null");
  for (const Entry& e : tables_) {
    TTREC_CHECK_CONFIG(e.table_id != table_id,
                       "CacheManager: duplicate table id ", table_id);
  }
  tables_.push_back(Entry{table_id, bag});
}

ApportionmentPlan CacheManager::Plan() const {
  ApportionmentPlan plan;
  plan.budget_bytes = config_.budget_bytes;
  if (tables_.empty()) return plan;

  std::vector<CacheApportionInput> inputs;
  inputs.reserve(tables_.size());
  for (const Entry& e : tables_) {
    CacheApportionInput in;
    in.mrc = MissRatioCurve::FromTracker(e.bag->tracker(), e.bag->num_rows());
    in.max_rows = e.bag->num_rows();
    in.bytes_per_row = LfuRowCache::BytesPerRow(e.bag->emb_dim());
    inputs.push_back(std::move(in));
  }
  const std::vector<int64_t> rows =
      ApportionCacheRows(inputs, config_.budget_bytes, /*min_rows=*/1,
                         config_.chunk_rows);

  double total_traffic = 0.0;
  for (const CacheApportionInput& in : inputs) {
    total_traffic += static_cast<double>(in.mrc.total_accesses());
  }
  plan.tables.reserve(tables_.size());
  double weighted_hit = 0.0;
  for (size_t t = 0; t < tables_.size(); ++t) {
    TableBudget tb;
    tb.table_id = tables_[t].table_id;
    tb.rows = rows[t];
    tb.bytes = rows[t] * inputs[t].bytes_per_row;
    tb.traffic_share =
        total_traffic > 0.0
            ? static_cast<double>(inputs[t].mrc.total_accesses()) /
                  total_traffic
            : 0.0;
    tb.predicted_hit_rate = inputs[t].mrc.HitRateAt(rows[t]);
    plan.used_bytes += tb.bytes;
    weighted_hit += tb.traffic_share * tb.predicted_hit_rate;
    plan.tables.push_back(tb);
  }
  plan.predicted_aggregate_hit_rate = weighted_hit;
  return plan;
}

ApportionmentPlan CacheManager::Retune() {
  ApportionmentPlan plan = Plan();
  for (size_t t = 0; t < tables_.size(); ++t) {
    tables_[t].bag->ResizeCache(plan.tables[t].rows);
  }
  ++retunes_;
  last_plan_ = plan;
  return plan;
}

void CacheManager::CollectStats(obs::MetricRegistry& reg) const {
  publisher_.Counter(reg, "cache.mgr.retunes", retunes_);
  if (last_plan_.tables.empty()) return;
  publisher_.Gauge(reg, "cache.mgr.budget_bytes",
                   static_cast<double>(last_plan_.budget_bytes));
  publisher_.Gauge(reg, "cache.mgr.used_bytes",
                   static_cast<double>(last_plan_.used_bytes));
  publisher_.Gauge(reg, "cache.mgr.predicted_hit_rate",
                   last_plan_.predicted_aggregate_hit_rate);
  for (const TableBudget& tb : last_plan_.tables) {
    const std::string prefix = "cache." + std::to_string(tb.table_id) + ".";
    publisher_.Gauge(reg, prefix + "rows", static_cast<double>(tb.rows));
    publisher_.Gauge(reg, prefix + "bytes", static_cast<double>(tb.bytes));
    publisher_.Gauge(reg, prefix + "traffic_share", tb.traffic_share);
    publisher_.Gauge(reg, prefix + "mrc.predicted_hit_rate",
                     tb.predicted_hit_rate);
  }
  // MRC shape stats come from the live trackers (cheap: size/total reads).
  for (const Entry& e : tables_) {
    const std::string prefix =
        "cache." + std::to_string(e.table_id) + ".mrc.";
    publisher_.Gauge(reg, prefix + "distinct_keys",
                     static_cast<double>(e.bag->tracker().size()));
    publisher_.Gauge(reg, prefix + "total_accesses",
                     static_cast<double>(e.bag->tracker().total()));
  }
}

}  // namespace ttrec
