// Cache autotuning stack: miss-ratio-curve estimation (MissRatioCurve),
// budget waterfilling + live retuning (CacheManager), the capacity-change
// path (LfuRowCache::Resize / CachedTtEmbeddingBag::ResizeCache), the
// cache-aware capacity planner, and the idempotent CollectStats contract
// across every EmbeddingOp implementation.
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <memory>
#include <set>
#include <vector>

#include "baselines/hashed_embedding.h"
#include "baselines/lowrank_embedding.h"
#include "baselines/quantized_embedding.h"
#include "baselines/t3nsor_embedding.h"
#include "cache/cache_manager.h"
#include "cache/cached_tt_embedding.h"
#include "cache/miss_ratio_curve.h"
#include "data/csr_batch.h"
#include "data/skew_shift.h"
#include "dlrm/capacity_planner.h"
#include "dlrm/embedding_adapters.h"
#include "dlrm/embedding_bag.h"
#include "dlrm/model.h"
#include "dlrm/trainer.h"
#include "obs/metrics.h"
#include "tensor/check.h"
#include "tensor/random.h"

namespace ttrec {
namespace {

// ---------------------------------------------------------------------------
// MissRatioCurve
// ---------------------------------------------------------------------------

TEST(MissRatioCurve, ExactPrefixSharesAtGridPoints) {
  // Counts 40, 30, 20, 10 (total 100): hit_rate(c) is the prefix share.
  const MissRatioCurve curve =
      MissRatioCurve::FromCounts({10, 40, 20, 30}, /*num_points=*/16,
                                 /*max_capacity=*/100);
  EXPECT_EQ(curve.total_accesses(), 100);
  EXPECT_EQ(curve.distinct_keys(), 4);
  EXPECT_DOUBLE_EQ(curve.HitRateAt(1), 0.40);
  EXPECT_DOUBLE_EQ(curve.HitRateAt(2), 0.70);
  EXPECT_DOUBLE_EQ(curve.HitRateAt(3), 0.90);
  EXPECT_DOUBLE_EQ(curve.HitRateAt(4), 1.00);
  // Saturated beyond the distinct-key count; zero at zero capacity.
  EXPECT_DOUBLE_EQ(curve.HitRateAt(1000), 1.00);
  EXPECT_DOUBLE_EQ(curve.HitRateAt(0), 0.0);
  EXPECT_DOUBLE_EQ(curve.MissRateAt(2), 0.30);
}

TEST(MissRatioCurve, InterpolatesBetweenGridPointsMonotonically) {
  // 1000 distinct keys with Zipf-ish counts on a sparse grid: the
  // interpolated curve must be nondecreasing and within [0, 1].
  std::vector<int64_t> counts;
  for (int64_t k = 1; k <= 1000; ++k) {
    counts.push_back(1 + 100000 / (k * k));
  }
  const MissRatioCurve curve =
      MissRatioCurve::FromCounts(counts, /*num_points=*/12,
                                 /*max_capacity=*/1000);
  double prev = 0.0;
  for (int64_t c = 0; c <= 1000; c += 7) {
    const double h = curve.HitRateAt(c);
    EXPECT_GE(h, prev - 1e-12) << "capacity " << c;
    EXPECT_LE(h, 1.0 + 1e-12);
    prev = h;
  }
  EXPECT_NEAR(curve.HitRateAt(1000), 1.0, 1e-12);
}

TEST(MissRatioCurve, ClampsGridToMaxCapacity) {
  const MissRatioCurve curve =
      MissRatioCurve::FromCounts({50, 30, 20}, /*num_points=*/8,
                                 /*max_capacity=*/2);
  EXPECT_EQ(curve.points().back().capacity, 2);
  // Beyond max_capacity the curve is flat at its last evaluated share.
  EXPECT_DOUBLE_EQ(curve.HitRateAt(5), 0.8);
}

TEST(MissRatioCurve, RejectsBadInputs) {
  EXPECT_THROW(MissRatioCurve::FromCounts({1}, 1, 10), ConfigError);
  EXPECT_THROW(MissRatioCurve::FromCounts({1}, 8, 0), ConfigError);
  EXPECT_THROW(MissRatioCurve::FromCounts({5, -1}, 8, 10), ConfigError);
  // Zero counts are dropped, not errors.
  const MissRatioCurve curve = MissRatioCurve::FromCounts({5, 0, 0}, 8, 10);
  EXPECT_EQ(curve.distinct_keys(), 1);
  const MissRatioCurve empty = MissRatioCurve::FromCounts({0, 0}, 8, 10);
  EXPECT_TRUE(empty.empty());
  EXPECT_DOUBLE_EQ(empty.HitRateAt(5), 0.0);
}

TEST(MissRatioCurve, FromTrackerMatchesTrackerPrefixShares) {
  FreqTracker t;
  t.Increment(100, 60);
  t.Increment(200, 25);
  t.Increment(300, 10);
  t.Increment(400, 5);
  const MissRatioCurve curve =
      MissRatioCurve::FromTracker(t, /*max_capacity=*/1000);
  EXPECT_EQ(curve.total_accesses(), t.total());
  EXPECT_EQ(curve.distinct_keys(), t.size());
  EXPECT_DOUBLE_EQ(curve.HitRateAt(1), 0.60);
  EXPECT_DOUBLE_EQ(curve.HitRateAt(2), 0.85);
  EXPECT_DOUBLE_EQ(curve.HitRateAt(4), 1.00);
}

TEST(MissRatioCurve, EmptyTrackerGivesEmptyCurve) {
  FreqTracker t;
  const MissRatioCurve curve = MissRatioCurve::FromTracker(t, 100);
  EXPECT_TRUE(curve.empty());
  EXPECT_EQ(curve.total_accesses(), 0);
}

// ---------------------------------------------------------------------------
// ApportionCacheRows (waterfilling)
// ---------------------------------------------------------------------------

/// Brute-force optimal apportionment at row granularity.
std::vector<int64_t> BruteForceApportion(
    const std::vector<CacheApportionInput>& tables, int64_t budget_bytes,
    int64_t min_rows) {
  double total_traffic = 0.0;
  for (const auto& t : tables) {
    total_traffic += static_cast<double>(t.mrc.total_accesses());
  }
  const auto score = [&](const std::vector<int64_t>& rows) {
    double s = 0.0;
    for (size_t t = 0; t < tables.size(); ++t) {
      s += static_cast<double>(tables[t].mrc.total_accesses()) /
           total_traffic * tables[t].mrc.HitRateAt(rows[t]);
    }
    return s;
  };
  std::vector<int64_t> best(tables.size(), min_rows);
  std::vector<int64_t> cur(tables.size(), min_rows);
  double best_score = score(best);
  // Exhaustive over a small instance (2 tables).
  EXPECT_EQ(tables.size(), 2u);
  for (int64_t a = min_rows; a <= tables[0].max_rows; ++a) {
    for (int64_t b = min_rows; b <= tables[1].max_rows; ++b) {
      if (a * tables[0].bytes_per_row + b * tables[1].bytes_per_row >
          budget_bytes) {
        continue;
      }
      cur = {a, b};
      const double s = score(cur);
      if (s > best_score + 1e-12) {
        best_score = s;
        best = cur;
      }
    }
  }
  return best;
}

TEST(CacheManager, WaterfillingMatchesBruteForceOnConcaveCurves) {
  // Two tables, same byte cost: one hot and skewed, one cool and flat.
  std::vector<CacheApportionInput> tables(2);
  tables[0].mrc = MissRatioCurve::FromCounts({80, 40, 20, 10, 5, 3, 2, 1},
                                             /*num_points=*/16, 8);
  tables[0].max_rows = 8;
  tables[0].bytes_per_row = 10;
  tables[1].mrc = MissRatioCurve::FromCounts({6, 5, 4, 3, 2, 1},
                                             /*num_points=*/16, 6);
  tables[1].max_rows = 6;
  tables[1].bytes_per_row = 10;

  const std::vector<int64_t> greedy =
      ApportionCacheRows(tables, /*budget_bytes=*/80, /*min_rows=*/1,
                         /*chunk_rows=*/1);
  const std::vector<int64_t> oracle = BruteForceApportion(tables, 80, 1);

  double total_traffic = 0.0;
  for (const auto& t : tables) {
    total_traffic += static_cast<double>(t.mrc.total_accesses());
  }
  const auto score = [&](const std::vector<int64_t>& rows) {
    double s = 0.0;
    for (size_t t = 0; t < tables.size(); ++t) {
      s += static_cast<double>(tables[t].mrc.total_accesses()) /
           total_traffic * tables[t].mrc.HitRateAt(rows[t]);
    }
    return s;
  };
  // Greedy on concave curves is optimal at matching granularity.
  EXPECT_NEAR(score(greedy), score(oracle), 1e-9)
      << "greedy " << greedy[0] << "/" << greedy[1] << " vs oracle "
      << oracle[0] << "/" << oracle[1];
  // Budget respected.
  EXPECT_LE(greedy[0] * 10 + greedy[1] * 10, 80);
}

TEST(CacheManager, ApportionFavorsTrafficWeight) {
  // Identical curves, but table 0 carries 9x the traffic: it must receive
  // more rows.
  std::vector<CacheApportionInput> tables(2);
  std::vector<int64_t> hot_counts, cold_counts;
  for (int64_t k = 1; k <= 50; ++k) {
    hot_counts.push_back(9 * (100 / k));
    cold_counts.push_back(100 / k);
  }
  tables[0].mrc = MissRatioCurve::FromCounts(hot_counts, 16, 50);
  tables[0].max_rows = 50;
  tables[0].bytes_per_row = 8;
  tables[1].mrc = MissRatioCurve::FromCounts(cold_counts, 16, 50);
  tables[1].max_rows = 50;
  tables[1].bytes_per_row = 8;
  const std::vector<int64_t> rows =
      ApportionCacheRows(tables, /*budget_bytes=*/320, 1, 1);
  EXPECT_GT(rows[0], rows[1]);
}

TEST(CacheManager, ApportionRejectsBudgetBelowFloor) {
  std::vector<CacheApportionInput> tables(2);
  for (auto& t : tables) {
    t.mrc = MissRatioCurve::FromCounts({5, 3}, 8, 10);
    t.max_rows = 10;
    t.bytes_per_row = 100;
  }
  EXPECT_THROW(ApportionCacheRows(tables, /*budget_bytes=*/150, 1, 1),
               ConfigError);
  // Exactly the floor is fine.
  const std::vector<int64_t> rows = ApportionCacheRows(tables, 200, 1, 1);
  EXPECT_EQ(rows[0], 1);
  EXPECT_EQ(rows[1], 1);
}

// ---------------------------------------------------------------------------
// LfuRowCache::Resize + CachedTtEmbeddingBag::ResizeCache
// ---------------------------------------------------------------------------

TEST(CacheResize, LfuResizePreservesStatsAndCountsDrops) {
  LfuRowCache cache(4, 2);
  std::vector<float> vals = {1, 1, 2, 2, 3, 3, 4, 4};
  cache.Populate(std::vector<int64_t>{10, 20, 30, 40}, vals.data());
  cache.CountLookups(/*hits=*/1, /*misses=*/1);
  const int64_t hits_before = cache.hits();
  const int64_t misses_before = cache.misses();

  // Shrink to 2, keeping rows 10, 20.
  std::vector<float> keep_vals = {1, 1, 2, 2};
  cache.Resize(2, std::vector<int64_t>{10, 20}, keep_vals.data());
  EXPECT_EQ(cache.capacity(), 2);
  EXPECT_EQ(cache.size(), 2);
  EXPECT_EQ(cache.hits(), hits_before);
  EXPECT_EQ(cache.misses(), misses_before);
  EXPECT_EQ(cache.evictions(), 2);  // rows 30, 40 dropped
  ASSERT_NE(cache.Peek(10), nullptr);
  EXPECT_EQ(cache.Peek(30), nullptr);

  // Grow back to 5; nothing evicted.
  cache.Resize(5, std::vector<int64_t>{10, 20}, keep_vals.data());
  EXPECT_EQ(cache.capacity(), 5);
  EXPECT_EQ(cache.evictions(), 2);
  EXPECT_THROW(cache.Resize(0, std::vector<int64_t>{}, nullptr), ConfigError);
}

TEST(CacheResize, LfuPeekDoesNotTouchStats) {
  LfuRowCache cache(2, 1);
  std::vector<float> vals = {7, 8};
  cache.Populate(std::vector<int64_t>{1, 2}, vals.data());
  cache.ResetStats();
  ASSERT_NE(cache.Peek(1), nullptr);
  EXPECT_EQ(cache.Peek(99), nullptr);
  EXPECT_EQ(cache.hits(), 0);
  EXPECT_EQ(cache.misses(), 0);
  EXPECT_FLOAT_EQ(cache.Peek(2)[0], 8.0f);
}

CachedTtConfig ManagerCachedConfig(int64_t rows, int64_t capacity) {
  CachedTtConfig cfg;
  cfg.tt.shape = MakeTtShape(rows, 8, 3, 4);
  cfg.cache_capacity = capacity;
  cfg.warmup_iterations = 4;
  cfg.refresh_interval = 2;
  cfg.track_after_warmup = true;
  return cfg;
}

TEST(CacheResize, CachedBagResizePreservesLearnedValues) {
  Rng rng(11);
  CachedTtEmbeddingBag emb(ManagerCachedConfig(64, 4), TtInit::kGaussian,
                           rng);
  // Warm rows 0..3 into the cache.
  std::vector<float> out(static_cast<size_t>(4 * 8));
  CsrBatch hot = CsrBatch::FromIndices({0, 1, 2, 3});
  for (int i = 0; i < 6; ++i) emb.Forward(hot, out.data());
  const float* peeked = emb.cache().Peek(0);
  ASSERT_NE(peeked, nullptr);
  // "Learn" a distinctive value on the cached (uncompressed) row. The
  // const_cast stands in for the training path's writable Find pointer.
  const_cast<float*>(peeked)[0] = 1234.5f;

  // Grow: survivors must carry the learned value, not a re-materialized
  // TT row.
  emb.ResizeCache(8);
  EXPECT_EQ(emb.cache().capacity(), 8);
  EXPECT_EQ(emb.config().cache_capacity, 8);
  EXPECT_EQ(emb.resizes(), 1);
  ASSERT_NE(emb.cache().Peek(0), nullptr);
  EXPECT_FLOAT_EQ(emb.cache().Peek(0)[0], 1234.5f);

  // Shrink keeps the hottest rows (0..3 dominate the tracker).
  emb.ResizeCache(2);
  EXPECT_EQ(emb.cache().capacity(), 2);
  EXPECT_EQ(emb.cache().size(), 2);
  std::set<int64_t> resident;
  for (const int64_t r : emb.cache().CachedRows()) resident.insert(r);
  for (const int64_t r : resident) EXPECT_LT(r, 4);

  // No-op resize does not count.
  emb.ResizeCache(2);
  EXPECT_EQ(emb.resizes(), 2);
  EXPECT_THROW(emb.ResizeCache(0), ConfigError);
  EXPECT_THROW(emb.ResizeCache(1000), ConfigError);  // > num_rows
}

// ---------------------------------------------------------------------------
// CacheManager end to end
// ---------------------------------------------------------------------------

TEST(CacheManager, RegisterValidation) {
  CacheManagerConfig mc;
  mc.budget_bytes = 1 << 20;
  CacheManager mgr(mc);
  Rng rng(5);
  CachedTtEmbeddingBag bag(ManagerCachedConfig(64, 4), TtInit::kGaussian,
                           rng);
  mgr.RegisterTable(0, &bag);
  EXPECT_THROW(mgr.RegisterTable(0, &bag), ConfigError);
  EXPECT_THROW(mgr.RegisterTable(-1, &bag), ConfigError);
  EXPECT_THROW(mgr.RegisterTable(1, nullptr), ConfigError);
  EXPECT_THROW(CacheManager(CacheManagerConfig{}), ConfigError);
}

TEST(CacheManager, RetuneShiftsCapacityTowardTraffic) {
  Rng rng(7);
  CachedTtEmbeddingBag hot(ManagerCachedConfig(128, 4), TtInit::kGaussian,
                           rng);
  CachedTtEmbeddingBag cold(ManagerCachedConfig(128, 4), TtInit::kGaussian,
                            rng);

  // Drive heavy skewed traffic into `hot`, a trickle into `cold`.
  std::vector<float> out(static_cast<size_t>(16 * 8));
  Rng traffic(13);
  ZipfSampler zipf(128, 1.3);
  for (int it = 0; it < 30; ++it) {
    std::vector<int64_t> idx;
    for (int i = 0; i < 16; ++i) idx.push_back(zipf.Sample(traffic));
    hot.Forward(CsrBatch::FromIndices(std::move(idx)), out.data());
    cold.Forward(CsrBatch::FromIndices({static_cast<int64_t>(it % 2)}),
                 out.data());
  }

  CacheManagerConfig mc;
  mc.budget_bytes = 64 * LfuRowCache::BytesPerRow(8);
  mc.chunk_rows = 1;
  CacheManager mgr(mc);
  mgr.RegisterTable(0, &hot);
  mgr.RegisterTable(1, &cold);

  const ApportionmentPlan plan = mgr.Retune();
  EXPECT_EQ(mgr.retunes(), 1);
  ASSERT_EQ(plan.tables.size(), 2u);
  EXPECT_GT(plan.tables[0].rows, plan.tables[1].rows);
  EXPECT_GT(plan.tables[0].traffic_share, plan.tables[1].traffic_share);
  EXPECT_LE(plan.used_bytes, plan.budget_bytes);
  EXPECT_GT(plan.predicted_aggregate_hit_rate, 0.0);
  // The live caches were resized to the plan.
  EXPECT_EQ(hot.cache().capacity(), plan.tables[0].rows);
  EXPECT_EQ(cold.cache().capacity(), plan.tables[1].rows);

  // Stats surface per table and are idempotent.
  obs::MetricRegistry reg;
  mgr.CollectStats(reg);
  mgr.CollectStats(reg);
  const obs::StripedCounter* retunes = reg.FindCounter("cache.mgr.retunes");
  ASSERT_NE(retunes, nullptr);
  EXPECT_EQ(retunes->Total(), 1);
  const obs::Gauge* rows0 = reg.FindGauge("cache.0.rows");
  ASSERT_NE(rows0, nullptr);
  EXPECT_DOUBLE_EQ(rows0->Value(),
                   static_cast<double>(plan.tables[0].rows));
  ASSERT_NE(reg.FindGauge("cache.1.traffic_share"), nullptr);
  ASSERT_NE(reg.FindGauge("cache.0.mrc.total_accesses"), nullptr);
}

TEST(CacheManager, TrainerRetunesDuringTraining) {
  Rng rng(23);
  std::vector<std::unique_ptr<EmbeddingOp>> tables;
  tables.push_back(std::make_unique<CachedTtEmbeddingAdapter>(
      ManagerCachedConfig(200, 4), TtInit::kGaussian, rng));
  tables.push_back(std::make_unique<CachedTtEmbeddingAdapter>(
      ManagerCachedConfig(150, 4), TtInit::kGaussian, rng));
  DlrmConfig dc;
  dc.emb_dim = 8;
  dc.bottom_hidden = {16};
  dc.top_hidden = {16};
  auto model = std::make_unique<DlrmModel>(dc, std::move(tables), rng);

  SyntheticCriteoConfig scfg;
  scfg.spec.name = "mgr_tiny";
  scfg.spec.table_rows = {200, 150};
  SyntheticCriteo data(scfg);

  obs::MetricRegistry reg;
  TrainConfig tc;
  tc.iterations = 12;
  tc.batch_size = 16;
  tc.eval_batches = 0;
  tc.log_every = 0;
  tc.metrics = &reg;
  tc.cache_budget_bytes = 32 * LfuRowCache::BytesPerRow(8);
  tc.cache_retune_interval = 4;
  TrainDlrm(*model, data, tc);

  const obs::StripedCounter* retunes =
      reg.FindCounter("train.cache_retunes");
  ASSERT_NE(retunes, nullptr);
  EXPECT_EQ(retunes->Total(), 3);  // iterations 4, 8, 12
  const obs::StripedCounter* mgr_retunes =
      reg.FindCounter("cache.mgr.retunes");
  ASSERT_NE(mgr_retunes, nullptr);
  EXPECT_EQ(mgr_retunes->Total(), 3);
  // The budget constrains the final capacities.
  int64_t total_rows = 0;
  for (int t = 0; t < model->num_tables(); ++t) {
    CachedTtEmbeddingBag* bag = model->table(t).cached_bag();
    ASSERT_NE(bag, nullptr);
    total_rows += bag->cache().capacity();
  }
  EXPECT_LE(total_rows * LfuRowCache::BytesPerRow(8),
            tc.cache_budget_bytes);

  // Mis-paired knobs are rejected.
  TrainConfig bad = tc;
  bad.cache_retune_interval = 0;
  EXPECT_THROW(TrainDlrm(*model, data, bad), ConfigError);
}

TEST(CacheManager, AutotuneBeatsStaticSplitOnSkewShift) {
  // Miniature version of bench/cache_autotune: two tables whose traffic
  // swaps at the phase boundary. Equal static split vs managed budget.
  const auto run = [](bool autotune) {
    Rng rng(31);
    CachedTtConfig c0 = ManagerCachedConfig(256, 16);
    c0.rewarm_period = 10;
    CachedTtEmbeddingBag a(c0, TtInit::kGaussian, rng);
    CachedTtEmbeddingBag b(c0, TtInit::kGaussian, rng);

    SkewShiftConfig sc;
    sc.tables = {{256, 1.2, 8.0}, {256, 1.2, 1.0}};
    sc.lookups_per_iteration = 64;
    sc.phase_length = 40;
    SkewShiftScenario scenario(sc);

    CacheManagerConfig mc;
    mc.budget_bytes = 32 * LfuRowCache::BytesPerRow(8);
    mc.chunk_rows = 1;
    CacheManager mgr(mc);
    mgr.RegisterTable(0, &a);
    mgr.RegisterTable(1, &b);

    std::vector<float> out;
    for (int it = 0; it < 80; ++it) {
      const std::vector<CsrBatch> batches = scenario.NextBatch();
      out.resize(static_cast<size_t>(batches[0].num_bags() * 8));
      a.Forward(batches[0], out.data());
      out.resize(static_cast<size_t>(batches[1].num_bags() * 8));
      b.Forward(batches[1], out.data());
      if (autotune && (it + 1) % 10 == 0) mgr.Retune();
    }
    const int64_t hits = a.cache().hits() + b.cache().hits();
    const int64_t misses = a.cache().misses() + b.cache().misses();
    return static_cast<double>(misses) / static_cast<double>(hits + misses);
  };
  const double static_miss = run(false);
  const double tuned_miss = run(true);
  EXPECT_LT(tuned_miss, static_miss);
}

// ---------------------------------------------------------------------------
// Cache-aware capacity planner
// ---------------------------------------------------------------------------

TEST(CacheManager, PlanCapacityWithCacheSplitsBudget) {
  DatasetSpec spec;
  spec.name = "planner_cache";
  spec.table_rows = {100000, 60000, 400};
  const int64_t emb_dim = 16;

  // Skewed traffic on the two big (compressible) tables.
  std::vector<int64_t> counts;
  for (int64_t k = 1; k <= 2000; ++k) counts.push_back(1 + 200000 / k);
  std::vector<MissRatioCurve> mrcs(3);
  mrcs[0] = MissRatioCurve::FromCounts(counts, 24, 100000);
  mrcs[1] = MissRatioCurve::FromCounts(counts, 24, 60000);
  // Table 2 sees no traffic.

  const int64_t budget = 2 * 1024 * 1024;
  // Named options object: the defaulted temporary trips gcc's
  // -Wmaybe-uninitialized under -Werror at -O2 and above.
  const CachePlannerOptions defaults;
  const CacheAwarePlan plan =
      PlanCapacityWithCache(spec, emb_dim, budget, mrcs, defaults);
  EXPECT_TRUE(plan.tt.fits);
  // Combined footprint respects the budget.
  EXPECT_LE(plan.tt.total_bytes + plan.cache_budget_bytes, budget);
  ASSERT_EQ(plan.cache_rows.size(), 3u);
  // Dense tables get no cache.
  for (size_t t = 0; t < plan.cache_rows.size(); ++t) {
    if (!plan.tt.tables[t].compress) {
      EXPECT_EQ(plan.cache_rows[t], 0);
    }
  }
  // With strongly skewed traffic, some nonzero cache fraction should win
  // over pure TT (predicted hit rate > 0 implies rows were allocated).
  EXPECT_GT(plan.predicted_hit_rate, 0.0);
  int64_t cached_rows = 0;
  for (const int64_t r : plan.cache_rows) cached_rows += r;
  EXPECT_GT(cached_rows, 0);

  // A pure-TT sanity point: fraction list {0.0} must reproduce
  // PlanCapacity exactly.
  CachePlannerOptions opts;
  opts.cache_fractions = {0.0};
  const CacheAwarePlan pure =
      PlanCapacityWithCache(spec, emb_dim, budget, mrcs, opts);
  const CapacityPlan reference = PlanCapacity(spec, emb_dim, budget);
  EXPECT_EQ(pure.tt.total_bytes, reference.total_bytes);
  EXPECT_EQ(pure.cache_budget_bytes, 0);

  // Validation: MRC count mismatch and missing 0 fraction.
  const std::vector<MissRatioCurve> short_mrcs(2);
  EXPECT_THROW(
      PlanCapacityWithCache(spec, emb_dim, budget, short_mrcs, defaults),
      ConfigError);
  CachePlannerOptions bad;
  bad.cache_fractions = {0.1};
  EXPECT_THROW(PlanCapacityWithCache(spec, emb_dim, budget, mrcs, bad),
               ConfigError);
}

// ---------------------------------------------------------------------------
// Idempotent CollectStats across every EmbeddingOp implementation
// ---------------------------------------------------------------------------

/// Collects twice into one registry; every counter and gauge must match a
/// single collection into a fresh registry (the repeated-collection
/// double-count regression).
void ExpectIdempotentCollection(const EmbeddingOp& op) {
  obs::MetricRegistry once;
  op.CollectStats(once);
  obs::MetricRegistry twice;
  op.CollectStats(twice);
  op.CollectStats(twice);
  const obs::MetricsSnapshot a = once.Snapshot();
  const obs::MetricsSnapshot b = twice.Snapshot();
  ASSERT_EQ(a.counters.size(), b.counters.size()) << op.Name();
  for (size_t i = 0; i < a.counters.size(); ++i) {
    EXPECT_EQ(a.counters[i].first, b.counters[i].first) << op.Name();
    EXPECT_EQ(a.counters[i].second, b.counters[i].second)
        << op.Name() << " counter " << a.counters[i].first;
  }
  ASSERT_EQ(a.gauges.size(), b.gauges.size()) << op.Name();
  for (size_t i = 0; i < a.gauges.size(); ++i) {
    EXPECT_EQ(a.gauges[i].first, b.gauges[i].first) << op.Name();
    EXPECT_DOUBLE_EQ(a.gauges[i].second, b.gauges[i].second)
        << op.Name() << " gauge " << a.gauges[i].first;
  }
}

TEST(CacheManager, CollectStatsIsIdempotentForEveryOperator) {
  Rng rng(41);
  std::vector<std::unique_ptr<EmbeddingOp>> ops;
  ops.push_back(std::make_unique<DenseEmbeddingBag>(
      64, 8, PoolingMode::kSum, DenseEmbeddingInit::UniformScaled(), rng));
  TtEmbeddingConfig tcfg;
  tcfg.shape = MakeTtShape(64, 8, 3, 4);
  ops.push_back(
      std::make_unique<TtEmbeddingAdapter>(tcfg, TtInit::kGaussian, rng));
  ops.push_back(std::make_unique<CachedTtEmbeddingAdapter>(
      ManagerCachedConfig(64, 4), TtInit::kGaussian, rng));
  ops.push_back(std::make_unique<LowRankEmbeddingBag>(64, 8, 4,
                                                      PoolingMode::kSum,
                                                      rng));
  ops.push_back(std::make_unique<HashedEmbeddingBag>(64, 16, 8,
                                                     PoolingMode::kSum,
                                                     rng));
  {
    Tensor table({64, 8});
    for (int64_t i = 0; i < table.numel(); ++i) {
      table.data()[i] = static_cast<float>(i % 7) - 3.0f;
    }
    ops.push_back(std::make_unique<QuantizedEmbeddingBag>(
        table, /*bits=*/8, PoolingMode::kSum));
  }
  ops.push_back(
      std::make_unique<T3nsorEmbeddingBag>(tcfg, TtInit::kGaussian, rng));

  std::vector<float> out(static_cast<size_t>(4 * 8));
  const CsrBatch batch = CsrBatch::FromIndices({0, 3, 9, 2});
  for (auto& op : ops) {
    op->Forward(batch, out.data());
    ExpectIdempotentCollection(*op);
  }

  // Aggregation across tables into one registry still works: emb.tables
  // counts each operator exactly once even after repeated collections.
  obs::MetricRegistry agg;
  for (auto& op : ops) op->CollectStats(agg);
  for (auto& op : ops) op->CollectStats(agg);
  const obs::StripedCounter* n = agg.FindCounter("emb.tables");
  ASSERT_NE(n, nullptr);
  EXPECT_EQ(n->Total(), static_cast<int64_t>(ops.size()));
}

TEST(CacheManager, CachedStatsExactAfterMoreTrafficAndRecollection) {
  // The registry must track the live totals across interleaved traffic and
  // collections: collect, run more lookups, collect again — the counter
  // equals the operator's current total, not a double-counted sum.
  Rng rng(43);
  CachedTtEmbeddingBag emb(ManagerCachedConfig(64, 4), TtInit::kGaussian,
                           rng);
  std::vector<float> out(static_cast<size_t>(4 * 8));
  const CsrBatch batch = CsrBatch::FromIndices({0, 1, 2, 3});
  obs::MetricRegistry reg;
  for (int round = 0; round < 3; ++round) {
    emb.Forward(batch, out.data());
    emb.CollectStats(reg);
    const obs::StripedCounter* hits = reg.FindCounter("cache.hits");
    const obs::StripedCounter* misses = reg.FindCounter("cache.misses");
    ASSERT_NE(hits, nullptr);
    ASSERT_NE(misses, nullptr);
    EXPECT_EQ(hits->Total(), emb.cache().hits()) << "round " << round;
    EXPECT_EQ(misses->Total(), emb.cache().misses()) << "round " << round;
  }
  // A fresh registry still receives the full cumulative totals (the
  // serving snapshot pattern).
  obs::MetricRegistry fresh;
  emb.CollectStats(fresh);
  EXPECT_EQ(fresh.FindCounter("cache.hits")->Total(), emb.cache().hits());
  EXPECT_EQ(fresh.FindCounter("cache.misses")->Total(),
            emb.cache().misses());
}

}  // namespace
}  // namespace ttrec
