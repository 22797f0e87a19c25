// Cache module: frequency tracker properties, LFU row cache, and the hybrid
// cached TT embedding (partition correctness, warm-up semantics, gradient
// routing).
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <set>
#include <span>
#include <sstream>
#include <string>
#include <thread>
#include <unordered_map>
#include <vector>

#include "cache/cached_tt_embedding.h"
#include "cache/freq_tracker.h"
#include "cache/lfu_cache.h"
#include "obs/metrics.h"
#include "simd_tiers.h"
#include "tensor/check.h"
#include "tensor/serialize.h"

namespace ttrec {
namespace {

TEST(FreqTracker, CountsAndTotals) {
  FreqTracker t(16);
  t.Increment(5);
  t.Increment(5);
  t.Increment(9, 3);
  EXPECT_EQ(t.Count(5), 2);
  EXPECT_EQ(t.Count(9), 3);
  EXPECT_EQ(t.Count(42), 0);
  EXPECT_EQ(t.size(), 2);
  EXPECT_EQ(t.total(), 5);
}

TEST(FreqTracker, GrowsPastInitialCapacity) {
  FreqTracker t(16);
  for (int64_t k = 0; k < 10000; ++k) t.Increment(k * 131071);
  EXPECT_EQ(t.size(), 10000);
  for (int64_t k = 0; k < 10000; k += 997) {
    EXPECT_EQ(t.Count(k * 131071), 1);
  }
}

TEST(FreqTracker, TopKOrderingWithTies) {
  FreqTracker t;
  t.Increment(1, 10);
  t.Increment(2, 30);
  t.Increment(3, 10);
  t.Increment(4, 20);
  const auto top = t.TopK(3);
  ASSERT_EQ(top.size(), 3u);
  EXPECT_EQ(top[0], 2);
  EXPECT_EQ(top[1], 4);
  EXPECT_EQ(top[2], 1);  // tie with 3 broken by smaller key
  EXPECT_EQ(t.TopK(100).size(), 4u);  // clamped to size
  EXPECT_TRUE(t.TopK(0).empty());
}

TEST(FreqTracker, TopKMatchesExactCountsUnderSkewedStream) {
  FreqTracker t;
  Rng rng(3);
  ZipfSampler zipf(5000, 1.3);
  std::unordered_map<int64_t, int64_t> oracle;
  for (int i = 0; i < 50000; ++i) {
    const int64_t k = zipf.Sample(rng);
    t.Increment(k);
    ++oracle[k];
  }
  for (const auto& [k, v] : oracle) EXPECT_EQ(t.Count(k), v);
  // Top-20 counts are exactly the oracle's top-20 counts.
  auto top = t.TopK(20);
  std::vector<int64_t> oracle_counts;
  for (const auto& [k, v] : oracle) oracle_counts.push_back(v);
  std::sort(oracle_counts.rbegin(), oracle_counts.rend());
  for (size_t i = 0; i < top.size(); ++i) {
    EXPECT_EQ(t.Count(top[i]), oracle_counts[i]);
  }
}

TEST(FreqTracker, ClearAndDecay) {
  FreqTracker t;
  t.Increment(1, 10);
  t.Increment(2, 3);
  t.Decay(0.5);
  EXPECT_EQ(t.Count(1), 5);
  EXPECT_EQ(t.Count(2), 1);
  EXPECT_EQ(t.total(), 6);
  t.Clear();
  EXPECT_EQ(t.size(), 0);
  EXPECT_EQ(t.Count(1), 0);
  EXPECT_THROW(t.Decay(1.0), ConfigError);
  EXPECT_THROW(t.Increment(-1), IndexError);
}

TEST(LfuRowCache, PopulateFindUpdate) {
  LfuRowCache cache(4, 3);
  std::vector<int64_t> rows = {10, 20, 30};
  std::vector<float> vals = {1, 2, 3, 4, 5, 6, 7, 8, 9};
  cache.Populate(rows, vals.data());
  EXPECT_EQ(cache.size(), 3);
  ASSERT_NE(cache.Peek(20), nullptr);
  EXPECT_FLOAT_EQ(cache.Peek(20)[0], 4.0f);
  EXPECT_EQ(cache.Peek(99), nullptr);

  // Gradient + SGD on a cached row.
  float* g = cache.GradFor(cache.Peek(20));
  ASSERT_NE(g, nullptr);
  g[0] = 1.0f;
  cache.ApplySgd(0.5f);
  EXPECT_FLOAT_EQ(cache.Peek(20)[0], 3.5f);
  // Gradient cleared after SGD.
  EXPECT_FLOAT_EQ(cache.GradFor(cache.Peek(20))[0], 0.0f);
}

TEST(LfuRowCache, RepopulateDiscardsOldContents) {
  LfuRowCache cache(2, 2);
  std::vector<float> v1 = {1, 1, 2, 2};
  cache.Populate(std::vector<int64_t>{5, 6}, v1.data());
  std::vector<float> v2 = {9, 9};
  cache.Populate(std::vector<int64_t>{7}, v2.data());
  EXPECT_EQ(cache.Peek(5), nullptr);  // evicted, learned weights discarded
  EXPECT_EQ(cache.Peek(6), nullptr);
  ASSERT_NE(cache.Peek(7), nullptr);
  EXPECT_EQ(cache.size(), 1);
}

TEST(LfuRowCache, PopulateBeyondCapacityThrows) {
  // Regression: Populate used to silently truncate an oversized row set
  // (keeping the first `capacity` rows) while resetting stats as if fully
  // populated — a capacity-planning bug visible only as low hit rates.
  LfuRowCache cache(2, 1);
  std::vector<float> vals = {1, 2, 3};
  EXPECT_THROW(cache.Populate(std::vector<int64_t>{1, 2, 3}, vals.data()),
               ConfigError);
  // Exactly-capacity populations still work.
  cache.Populate(std::vector<int64_t>{1, 2}, vals.data());
  EXPECT_EQ(cache.size(), 2);
}

TEST(FreqTracker, DecayDropsDeadKeysAndShrinks) {
  // Regression: Decay used to floor counts in place and keep dead slots
  // occupied — size() never shrank, and repeated decay cycles ratcheted the
  // load factor until Grow() doubled the table over tombstones.
  FreqTracker t(16);
  for (int64_t k = 0; k < 100; ++k) t.Increment(k, 1);
  EXPECT_EQ(t.size(), 100);
  t.Decay(0.5);  // floor(0.5) == 0 for every key
  EXPECT_EQ(t.size(), 0);
  EXPECT_EQ(t.total(), 0);
  for (int64_t k = 0; k < 100; ++k) EXPECT_EQ(t.Count(k), 0);
  // Survivors keep decayed counts; dead keys are really gone (re-inserting
  // one starts from scratch).
  t.Increment(7, 10);
  t.Increment(8, 1);
  t.Decay(0.5);
  EXPECT_EQ(t.size(), 1);
  EXPECT_EQ(t.Count(7), 5);
  EXPECT_EQ(t.Count(8), 0);
  t.Increment(8, 2);
  EXPECT_EQ(t.Count(8), 2);
}

TEST(FreqTracker, RepeatedDecayDoesNotRatchetLoadFactor) {
  // Many insert+decay cycles over disjoint key ranges: with tombstones this
  // kept growing the table; with the rebuild the tracker returns to empty
  // after every full decay.
  FreqTracker t(16);
  for (int iter = 0; iter < 50; ++iter) {
    for (int64_t k = 0; k < 64; ++k) t.Increment(iter * 1000 + k, 1);
    t.Decay(0.25);
    EXPECT_EQ(t.size(), 0) << "cycle " << iter;
  }
}

TEST(LfuRowCache, RejectsDuplicatesAndBadConfig) {
  LfuRowCache cache(4, 2);
  std::vector<float> vals = {1, 2, 3, 4};
  EXPECT_THROW(cache.Populate(std::vector<int64_t>{3, 3}, vals.data()),
               ConfigError);
  EXPECT_THROW(LfuRowCache(0, 2), ConfigError);
  EXPECT_THROW(LfuRowCache(2, 0), ConfigError);
}

TEST(LfuRowCache, HitRateAccounting) {
  LfuRowCache cache(2, 1);
  std::vector<float> vals = {1, 2};
  cache.Populate(std::vector<int64_t>{1, 2}, vals.data());
  cache.ResetStats();
  // A forward probes with Peek and counts its call's lookups once.
  int64_t hits = 0;
  for (const int64_t row : {1, 2, 3, 4}) hits += cache.Peek(row) != nullptr;
  cache.CountLookups(hits, 4 - hits);
  EXPECT_EQ(cache.hits(), 2);
  EXPECT_EQ(cache.misses(), 2);
  EXPECT_DOUBLE_EQ(cache.HitRate(), 0.5);
  cache.ResetStats();
  EXPECT_DOUBLE_EQ(cache.HitRate(), 0.0);
}

// ---------------------------------------------------------------------------
// CachedTtEmbeddingBag
// ---------------------------------------------------------------------------

CachedTtConfig SmallCachedConfig(int64_t capacity = 8,
                                 int64_t warmup = 4,
                                 int64_t refresh = 2) {
  CachedTtConfig cfg;
  cfg.tt.shape = MakeTtShape(64, 8, 3, 4);
  cfg.tt.block_size = 16;
  cfg.cache_capacity = capacity;
  cfg.warmup_iterations = warmup;
  cfg.refresh_interval = refresh;
  return cfg;
}

CsrBatch SkewedBatch(Rng& rng, int64_t bags, int64_t hot_rows = 4,
                     double hot_prob = 0.8) {
  std::vector<int64_t> idx;
  for (int64_t i = 0; i < bags; ++i) {
    idx.push_back(rng.Bernoulli(hot_prob) ? rng.RandInt(hot_rows)
                                          : hot_rows + rng.RandInt(60 - hot_rows));
  }
  return CsrBatch::FromIndices(std::move(idx));
}

TEST(CachedTtEmbeddingBag, MatchesPureTtWhileCacheCold) {
  // Before the first refresh (iteration 0), everything goes through TT, so
  // output must equal a plain TtEmbeddingBag with identical init.
  Rng r1(42), r2(42);
  CachedTtConfig cfg = SmallCachedConfig();
  CachedTtEmbeddingBag cached(cfg, TtInit::kGaussian, r1);
  TtEmbeddingConfig plain_cfg = cfg.tt;
  TtEmbeddingBag plain(plain_cfg, TtInit::kGaussian, r2);

  CsrBatch batch = CsrBatch::FromIndices({1, 5, 1, 33});
  std::vector<float> a(static_cast<size_t>(4 * 8)), b(a.size());
  cached.Forward(batch, a.data());
  plain.Forward(batch, b.data());
  for (size_t i = 0; i < a.size(); ++i) EXPECT_NEAR(a[i], b[i], 1e-5f);
}

TEST(CachedTtEmbeddingBag, CacheServesHotRowsAfterWarmup) {
  Rng rng(7);
  CachedTtEmbeddingBag emb(SmallCachedConfig(/*capacity=*/4, /*warmup=*/6,
                                             /*refresh=*/2),
                           TtInit::kGaussian, rng);
  Rng data_rng(99);
  std::vector<float> out(static_cast<size_t>(32 * 8));
  for (int iter = 0; iter < 10; ++iter) {
    CsrBatch batch = SkewedBatch(data_rng, 32);
    emb.Forward(batch, out.data());
  }
  EXPECT_TRUE(emb.warmed_up());
  // The 4 hot rows dominate accesses, so the cache should hold them.
  const auto cached_rows = emb.cache().CachedRows();
  std::set<int64_t> cached_set(cached_rows.begin(), cached_rows.end());
  for (int64_t hot = 0; hot < 4; ++hot) {
    EXPECT_TRUE(cached_set.contains(hot)) << "hot row " << hot;
  }
  emb.ResetStats();
  CsrBatch batch = SkewedBatch(data_rng, 64);
  emb.Forward(batch, std::vector<float>(static_cast<size_t>(64 * 8)).data());
  EXPECT_GT(emb.HitRate(), 0.5);
}

TEST(CachedTtEmbeddingBag, ForwardValueUnchangedAtRefreshBoundary) {
  // Refresh populates the cache FROM the TT cores, so the hybrid output is
  // identical to the pure-TT output immediately after a refresh.
  Rng r1(5), r2(5);
  CachedTtConfig cfg = SmallCachedConfig(/*capacity=*/8, /*warmup=*/2,
                                         /*refresh=*/1);
  CachedTtEmbeddingBag cached(cfg, TtInit::kGaussian, r1);
  TtEmbeddingBag plain(cfg.tt, TtInit::kGaussian, r2);

  CsrBatch warm = CsrBatch::FromIndices({3, 3, 9, 9, 3});
  std::vector<float> out(static_cast<size_t>(5 * 8)), ref(out.size());
  for (int i = 0; i < 3; ++i) cached.Forward(warm, out.data());
  // No SGD applied: TT cores unchanged, cache mirrors them.
  plain.Forward(warm, ref.data());
  for (size_t i = 0; i < out.size(); ++i) EXPECT_NEAR(out[i], ref[i], 1e-5f);
}

TEST(CachedTtEmbeddingBag, GradientsRouteToCacheForHits) {
  Rng rng(11);
  CachedTtConfig cfg = SmallCachedConfig(/*capacity=*/2, /*warmup=*/1,
                                         /*refresh=*/1);
  CachedTtEmbeddingBag emb(cfg, TtInit::kGaussian, rng);

  // Warm up on rows {0, 1} so they get cached.
  CsrBatch warm = CsrBatch::FromIndices({0, 1, 0, 1});
  std::vector<float> out(static_cast<size_t>(4 * 8));
  emb.Forward(warm, out.data());
  emb.Forward(warm, out.data());
  ASSERT_NE(emb.cache().Peek(0), nullptr);

  // Record cached value, train one step on row 0 only.
  std::vector<float> before(emb.cache().Peek(0), emb.cache().Peek(0) + 8);
  std::vector<Tensor> cores_before;
  for (int k = 0; k < 3; ++k) cores_before.push_back(emb.tt().cores().core(k));

  CsrBatch hit_only = CsrBatch::FromIndices({0});
  std::vector<float> o1(8), g1(8, 1.0f);
  emb.Forward(hit_only, o1.data());
  emb.Backward(hit_only, g1.data());
  emb.ApplySgd(0.25f);

  // Cached row moved by -lr * grad; TT cores untouched.
  const float* after = emb.cache().Peek(0);
  ASSERT_NE(after, nullptr);
  for (int j = 0; j < 8; ++j) {
    EXPECT_NEAR(after[j], before[static_cast<size_t>(j)] - 0.25f, 1e-5f);
  }
  for (int k = 0; k < 3; ++k) {
    EXPECT_LT(MaxAbsDiff(emb.tt().cores().core(k),
                         cores_before[static_cast<size_t>(k)]),
              1e-7);
  }
}

TEST(CachedTtEmbeddingBag, MissesTrainTtCores) {
  Rng rng(13);
  CachedTtConfig cfg = SmallCachedConfig(/*capacity=*/2, /*warmup=*/1,
                                         /*refresh=*/1);
  CachedTtEmbeddingBag emb(cfg, TtInit::kGaussian, rng);
  CsrBatch warm = CsrBatch::FromIndices({0, 1});
  std::vector<float> out(static_cast<size_t>(2 * 8));
  emb.Forward(warm, out.data());
  emb.Forward(warm, out.data());

  std::vector<Tensor> cores_before;
  for (int k = 0; k < 3; ++k) cores_before.push_back(emb.tt().cores().core(k));

  CsrBatch miss_only = CsrBatch::FromIndices({50});
  std::vector<float> o(8), g(8, 1.0f);
  emb.Forward(miss_only, o.data());
  emb.Backward(miss_only, g.data());
  emb.ApplySgd(0.1f);
  double moved = 0.0;
  for (int k = 0; k < 3; ++k) {
    moved += MaxAbsDiff(emb.tt().cores().core(k),
                        cores_before[static_cast<size_t>(k)]);
  }
  EXPECT_GT(moved, 1e-6);
}

TEST(CachedTtEmbeddingBag, MeanPoolingUsesOriginalBagSize) {
  Rng rng(17);
  CachedTtConfig cfg = SmallCachedConfig(/*capacity=*/1, /*warmup=*/1,
                                         /*refresh=*/1);
  cfg.tt.pooling = PoolingMode::kMean;
  CachedTtEmbeddingBag emb(cfg, TtInit::kGaussian, rng);
  // Cache row 0, then pool a bag of {0 (hit), 40 (miss)}: mean must divide
  // both contributions by 2.
  CsrBatch warm = CsrBatch::FromIndices({0, 0});
  std::vector<float> out2(static_cast<size_t>(2 * 8));
  emb.Forward(warm, out2.data());
  emb.Forward(warm, out2.data());
  ASSERT_NE(emb.cache().Peek(0), nullptr);

  CsrBatch mixed;
  mixed.indices = {0, 40};
  mixed.offsets = {0, 2};
  std::vector<float> out(8);
  emb.Forward(mixed, out.data());

  std::vector<float> r0(8), r40(8);
  emb.tt().cores().MaterializeRow(0, r0.data());
  emb.tt().cores().MaterializeRow(40, r40.data());
  for (int j = 0; j < 8; ++j) {
    EXPECT_NEAR(out[static_cast<size_t>(j)],
                0.5f * (r0[static_cast<size_t>(j)] +
                        r40[static_cast<size_t>(j)]),
                1e-5f);
  }
}

TEST(CachedTtEmbeddingBag, PeriodicRewarmAdaptsToPhaseShift) {
  // Phase 1 hits rows {0..3}; after the phase shifts to rows {50..53}, a
  // re-warming cache adapts while a frozen one keeps the stale set (the
  // paper's optional periodic warm-up, Fig 4).
  auto run = [&](int64_t rewarm_period) {
    Rng rng(21);
    CachedTtConfig cfg = SmallCachedConfig(/*capacity=*/4, /*warmup=*/4,
                                           /*refresh=*/2);
    cfg.rewarm_period = rewarm_period;
    CachedTtEmbeddingBag emb(cfg, TtInit::kGaussian, rng);
    std::vector<float> out(static_cast<size_t>(8 * 8));
    auto phase_batch = [](int64_t base) {
      std::vector<int64_t> idx;
      for (int64_t i = 0; i < 8; ++i) idx.push_back(base + i % 4);
      return CsrBatch::FromIndices(std::move(idx));
    };
    for (int iter = 0; iter < 10; ++iter) {
      emb.Forward(phase_batch(0), out.data());  // phase 1
    }
    for (int iter = 0; iter < 40; ++iter) {
      emb.Forward(phase_batch(50), out.data());  // phase 2
    }
    return emb.cache().CachedRows();
  };

  const auto frozen = run(0);
  std::set<int64_t> frozen_set(frozen.begin(), frozen.end());
  for (int64_t r = 0; r < 4; ++r) EXPECT_TRUE(frozen_set.contains(r));

  const auto rewarmed = run(/*rewarm_period=*/8);
  std::set<int64_t> rewarmed_set(rewarmed.begin(), rewarmed.end());
  int hot_phase2 = 0;
  for (int64_t r = 50; r < 54; ++r) {
    if (rewarmed_set.contains(r)) ++hot_phase2;
  }
  EXPECT_GE(hot_phase2, 3) << "re-warm should adopt the new hot set";
}

TEST(CachedTtEmbeddingBag, RejectsBadConfig) {
  Rng rng(1);
  CachedTtConfig cfg = SmallCachedConfig();
  cfg.cache_capacity = 0;
  EXPECT_THROW(CachedTtEmbeddingBag(cfg, TtInit::kGaussian, rng), ConfigError);
  cfg = SmallCachedConfig();
  cfg.refresh_interval = 0;
  EXPECT_THROW(CachedTtEmbeddingBag(cfg, TtInit::kGaussian, rng), ConfigError);
}

TEST(CachedTtEmbeddingBag, MemoryIncludesCacheAndCores) {
  Rng rng(2);
  CachedTtEmbeddingBag emb(SmallCachedConfig(), TtInit::kGaussian, rng);
  EXPECT_GT(emb.MemoryBytes(), emb.tt().MemoryBytes());
}

TEST(FreqTracker, RejectsBadDecayFactors) {
  FreqTracker t;
  t.Increment(1, 10);
  EXPECT_THROW(t.Decay(-0.5), ConfigError);
  EXPECT_THROW(t.Decay(1.0), ConfigError);
  EXPECT_THROW(t.Decay(2.0), ConfigError);
  // A rejected decay neither touches the counts nor counts as a rebuild.
  EXPECT_EQ(t.Count(1), 10);
  EXPECT_EQ(t.decay_rebuilds(), 0);
  t.Decay(0.0);
  EXPECT_EQ(t.decay_rebuilds(), 1);
  EXPECT_EQ(t.size(), 0);
}

TEST(FreqTracker, NegativeDeltasValidateBeforeMutating) {
  FreqTracker t;
  t.Increment(5, 3);
  // Underflowing decrement: rejected, count untouched.
  EXPECT_THROW(t.Increment(5, -4), ConfigError);
  EXPECT_EQ(t.Count(5), 3);
  EXPECT_EQ(t.total(), 3);
  // Inserting a new key with a negative count is equally invalid.
  EXPECT_THROW(t.Increment(7, -1), ConfigError);
  EXPECT_EQ(t.Count(7), 0);
  EXPECT_EQ(t.size(), 1);
  // Decrement to exactly zero: the key stays (count 0) until Decay drops it.
  t.Increment(5, -3);
  EXPECT_EQ(t.Count(5), 0);
  EXPECT_EQ(t.total(), 0);
  EXPECT_EQ(t.size(), 1);
  t.Decay(0.5);
  EXPECT_EQ(t.size(), 0);
}

TEST(LfuRowCache, ThrowingPopulateLeavesCacheServable) {
  // Strong exception guarantee: a Populate that throws (duplicate or
  // negative row id) must leave the previous contents fully intact — the
  // serving path may still be reading them.
  LfuRowCache cache(4, 2);
  std::vector<float> vals = {1, 1, 2, 2};
  cache.Populate(std::vector<int64_t>{10, 20}, vals.data());
  const int64_t evictions_before = cache.evictions();
  const int64_t populates_before = cache.populates();

  std::vector<float> bad_vals = {9, 9, 8, 8};
  EXPECT_THROW(cache.Populate(std::vector<int64_t>{30, 30}, bad_vals.data()),
               ConfigError);
  EXPECT_THROW(cache.Populate(std::vector<int64_t>{30, -1}, bad_vals.data()),
               IndexError);

  // Old contents, capacity, and bookkeeping all unchanged.
  EXPECT_EQ(cache.size(), 2);
  ASSERT_NE(cache.Peek(10), nullptr);
  EXPECT_FLOAT_EQ(cache.Peek(10)[0], 1.0f);
  ASSERT_NE(cache.Peek(20), nullptr);
  EXPECT_FLOAT_EQ(cache.Peek(20)[0], 2.0f);
  EXPECT_EQ(cache.Peek(30), nullptr);
  EXPECT_EQ(cache.evictions(), evictions_before);
  EXPECT_EQ(cache.populates(), populates_before);

  // And a valid Populate afterwards still works.
  cache.Populate(std::vector<int64_t>{30, 40}, bad_vals.data());
  EXPECT_EQ(cache.size(), 2);
  ASSERT_NE(cache.Peek(30), nullptr);
}

TEST(CachedTtEmbeddingBag, RewarmWithUnalignedWarmupAndTrackingModes) {
  // warmup_iterations (5) deliberately NOT divisible by refresh_interval
  // (2): the freeze refresh at the warm-up boundary must still happen, and
  // the periodic re-warm cadence anchors on the warm-up end, not on a
  // refresh multiple. Exercised with tracking both frozen and continuous
  // after warm-up — the re-warm window must adopt the new phase either way.
  struct Outcome {
    int64_t refreshes;
    int64_t decay_rebuilds;
    std::set<int64_t> cached;
  };
  auto run = [](bool track_after_warmup) {
    Rng rng(29);
    CachedTtConfig cfg = SmallCachedConfig(/*capacity=*/4, /*warmup=*/5,
                                           /*refresh=*/2);
    cfg.rewarm_period = 7;
    cfg.track_after_warmup = track_after_warmup;
    CachedTtEmbeddingBag emb(cfg, TtInit::kGaussian, rng);
    std::vector<float> out(static_cast<size_t>(8 * 8));
    auto phase_batch = [](int64_t base) {
      std::vector<int64_t> idx;
      for (int64_t i = 0; i < 8; ++i) idx.push_back(base + i % 4);
      return CsrBatch::FromIndices(std::move(idx));
    };
    // Phase 1 (iterations 0..5): refreshes at it 2 and 4 (cadence), then
    // the freeze at it 5 even though 5 % 2 != 0.
    for (int it = 0; it < 6; ++it) emb.Forward(phase_batch(0), out.data());
    EXPECT_TRUE(emb.warmed_up());
    EXPECT_EQ(emb.refreshes(), 3);
    {
      const auto rows = emb.cache().CachedRows();
      const std::set<int64_t> set(rows.begin(), rows.end());
      EXPECT_EQ(set, (std::set<int64_t>{0, 1, 2, 3}));
    }
    // Phase 2 (iterations 6..30): decays at it 12, 19, 26 (every 7 past
    // the warm-up end), re-warm refreshes when the re-tracking windows
    // close at it 17 and 24 (the 31 window never completes).
    for (int it = 0; it < 25; ++it) emb.Forward(phase_batch(50), out.data());
    const auto rows = emb.cache().CachedRows();
    return Outcome{emb.refreshes(), emb.tracker().decay_rebuilds(),
                   std::set<int64_t>(rows.begin(), rows.end())};
  };

  for (const bool track : {false, true}) {
    const Outcome o = run(track);
    EXPECT_EQ(o.refreshes, 5) << "track_after_warmup=" << track;
    EXPECT_EQ(o.decay_rebuilds, 3) << "track_after_warmup=" << track;
    EXPECT_EQ(o.cached, (std::set<int64_t>{50, 51, 52, 53}))
        << "track_after_warmup=" << track;
  }
}

// ---------------------------------------------------------------------------
// Incremental Insert/Erase (the lookahead-prefetch admission path)
// ---------------------------------------------------------------------------

TEST(LfuRowCache, InsertEraseFuzzMatchesReferenceMap) {
  constexpr int64_t kCap = 16, kDim = 4, kRows = 100;
  LfuRowCache cache(kCap, kDim);
  std::unordered_map<int64_t, std::vector<float>> ref;
  Rng rng(0xF022);

  const auto vec_for = [](int64_t row) {
    std::vector<float> v(kDim);
    for (int64_t d = 0; d < kDim; ++d) {
      v[static_cast<size_t>(d)] = static_cast<float>(row * 10 + d);
    }
    return v;
  };

  for (int step = 0; step < 3000; ++step) {
    const int64_t row = rng.RandInt(kRows);
    if (ref.contains(row)) {
      cache.Erase(row);
      ref.erase(row);
    } else if (static_cast<int64_t>(ref.size()) < kCap) {
      const std::vector<float> v = vec_for(row);
      cache.Insert(row, v.data());
      ref.emplace(row, v);
    }
    ASSERT_EQ(cache.size(), static_cast<int64_t>(ref.size()));
    // Every resident is found at its slot: slots are contiguous, so the
    // probe for the row in slot s lands s vectors past slot 0's. Erase
    // moves the last slot into the hole and keeps the moved row's map cell
    // on record instead of probing for it; a stale cell shows here.
    const std::vector<int64_t> slots = cache.CachedRows();
    for (size_t slot = 0; slot < slots.size(); ++slot) {
      const float* got = cache.Peek(slots[slot]);
      ASSERT_EQ(got, cache.Peek(slots[0]) + slot * kDim)
          << "row " << slots[slot] << " at step " << step;
      const std::vector<float>& want = ref.at(slots[slot]);
      ASSERT_EQ(std::vector<float>(got, got + kDim), want);
    }
    if (step % 100 == 0) {
      for (int64_t probe = 0; probe < kRows; ++probe) {
        ASSERT_EQ(cache.Contains(probe), ref.contains(probe))
            << "row " << probe << " at step " << step;
      }
    }
  }
  EXPECT_GT(cache.evictions(), 0);  // Erase counts as eviction
}

TEST(LfuRowCache, GradForNamesTheSlotAProbeFound) {
  LfuRowCache cache(/*capacity=*/4, /*emb_dim=*/2);
  const std::vector<float> values = {1, 2, 3, 4};
  cache.Populate(std::vector<int64_t>{5, 9}, values.data());
  const float* v9 = cache.Peek(9);
  float* g9 = cache.GradFor(v9);
  ASSERT_NE(g9, nullptr);
  g9[0] = 1.0f;
  g9[1] = -1.0f;
  cache.ApplySgd(0.5f);
  EXPECT_EQ(cache.Peek(9)[0], 2.5f);
  EXPECT_EQ(cache.Peek(9)[1], 4.5f);
  EXPECT_EQ(cache.Peek(5)[0], 1.0f);
  EXPECT_EQ(cache.Peek(5)[1], 2.0f);
  // A miss, mid-vector, or a free slot past the residents: no slot.
  EXPECT_EQ(cache.GradFor(cache.Peek(7)), nullptr);
  EXPECT_EQ(cache.GradFor(v9 + 1), nullptr);
  EXPECT_EQ(cache.GradFor(v9 + 2), nullptr);
}

TEST(LfuRowCache, InsertAndEraseValidateBeforeMutation) {
  LfuRowCache cache(2, 4);
  const std::vector<float> v(4, 1.0f);
  cache.Insert(5, v.data());
  EXPECT_THROW(cache.Insert(5, v.data()), ConfigError);   // already resident
  EXPECT_THROW(cache.Insert(-1, v.data()), IndexError);   // negative id
  cache.Insert(9, v.data());
  EXPECT_THROW(cache.Insert(7, v.data()), ConfigError);   // full
  EXPECT_THROW(cache.Erase(7), ConfigError);              // not resident
  EXPECT_EQ(cache.size(), 2);
  EXPECT_TRUE(cache.Contains(5));
  EXPECT_TRUE(cache.Contains(9));
}

TEST(LfuRowCache, EraseKeepsSurvivorsValuesGradsAndAdagradState) {
  // Adagrad math is slot-independent, so a cache that held {10,20,30} and
  // erased 10 must update {20,30} exactly like a cache that only ever held
  // {20,30} with the same gradient history — which is only true if Erase's
  // slot compaction carries values, grads, AND adagrad state along.
  constexpr int64_t kDim = 4;
  const auto grad_fill = [](LfuRowCache& c, int64_t row, float g) {
    float* grad = c.GradFor(c.Peek(row));
    ASSERT_NE(grad, nullptr);
    for (int64_t d = 0; d < kDim; ++d) grad[d] = g;
  };
  const std::vector<float> base(kDim, 1.0f);

  LfuRowCache a(3, kDim);
  for (const int64_t r : {10, 20, 30}) a.Insert(r, base.data());
  grad_fill(a, 10, 5.0f);
  grad_fill(a, 20, 2.0f);
  grad_fill(a, 30, 3.0f);
  a.ApplyAdagrad(0.1f);
  a.Erase(10);
  grad_fill(a, 20, 2.0f);
  grad_fill(a, 30, 3.0f);
  a.ApplyAdagrad(0.1f);

  LfuRowCache b(3, kDim);
  for (const int64_t r : {20, 30}) b.Insert(r, base.data());
  grad_fill(b, 20, 2.0f);
  grad_fill(b, 30, 3.0f);
  b.ApplyAdagrad(0.1f);
  grad_fill(b, 20, 2.0f);
  grad_fill(b, 30, 3.0f);
  b.ApplyAdagrad(0.1f);

  for (const int64_t r : {20, 30}) {
    const float* va = a.Peek(r);
    const float* vb = b.Peek(r);
    for (int64_t d = 0; d < kDim; ++d) EXPECT_EQ(va[d], vb[d]) << "row " << r;
  }
}

// ---------------------------------------------------------------------------
// CachedTtEmbeddingBag::PrefetchRows
// ---------------------------------------------------------------------------

/// PrefetchRows over a window of one plan: the single-plan prefetch.
int64_t PrefetchOne(CachedTtEmbeddingBag& emb, std::span<const int64_t> plan) {
  return emb.PrefetchRows({&plan, 1});
}

TEST(CachedTtEmbeddingBag, PrefetchAdmitsPlannedRowsDeterministically) {
  Rng rng(33);
  // warmup 0: the cache is frozen from the start, so no refresh can undo
  // what prefetch admitted.
  CachedTtEmbeddingBag emb(SmallCachedConfig(/*capacity=*/4, /*warmup=*/0),
                           TtInit::kGaussian, rng);
  const int64_t evictions0 = emb.cache().evictions();
  const std::vector<int64_t> plan = {1, 5, 9, 3, 5, 1};  // dups welcome
  EXPECT_EQ(PrefetchOne(emb, plan), 4);
  for (const int64_t r : {1, 3, 5, 9}) EXPECT_TRUE(emb.cache().Contains(r));
  EXPECT_EQ(PrefetchOne(emb, plan), 0);  // idempotent on a satisfied plan
  EXPECT_EQ(emb.prefetch_calls(), 2);
  EXPECT_EQ(emb.prefetch_inserts(), 4);
  EXPECT_EQ(emb.cache().evictions() - evictions0, 0);

  // Full cache: planned residents {1,3} are protected; the other residents
  // {5,9} are the victims (tracker is empty, ties break on row id) — and a
  // plan bigger than the freed room admits in sorted row order.
  EXPECT_EQ(PrefetchOne(emb, std::vector<int64_t>{1, 3, 20, 21, 22}), 2);
  const auto rows = emb.cache().CachedRows();
  EXPECT_EQ(std::set<int64_t>(rows.begin(), rows.end()),
            (std::set<int64_t>{1, 3, 20, 21}));
  EXPECT_EQ(emb.cache().evictions() - evictions0, 2);
}

TEST(CachedTtEmbeddingBag, PrefetchEvictsInCountThenRowOrder) {
  // Victims leave in ascending (tracker count, row id) order, and Erase
  // moves the last slot into each hole, so the erase order fixes the slot
  // order that checkpoints serialize. Residents 10..15 fill slots in row
  // order; the forward below gives 12 a count of 2 and 10, 14 a count of 1.
  Rng rng(21);
  CachedTtConfig cfg = SmallCachedConfig(/*capacity=*/6, /*warmup=*/0);
  cfg.track_after_warmup = true;
  CachedTtEmbeddingBag emb(cfg, TtInit::kGaussian, rng);
  ASSERT_EQ(PrefetchOne(emb, std::vector<int64_t>{10, 11, 12, 13, 14, 15}),
            6);
  std::vector<float> out(4 * 8);
  emb.Forward(CsrBatch::FromIndices({12, 12, 14, 10}), out.data());
  ASSERT_EQ(emb.tracker().Count(12), 2);

  // Four victims: 11, 13, 15 (count 0, by row id), then 10 (count 1, and
  // 10 < 14). Slots: [10 11 12 13 14 15] -> erase 11 -> [10 15 12 13 14]
  // -> erase 13 -> [10 15 12 14] -> erase 15 -> [10 14 12] -> erase 10 ->
  // [12 14], then the admissions append in row order.
  EXPECT_EQ(PrefetchOne(emb, std::vector<int64_t>{20, 21, 22, 23}), 4);
  EXPECT_EQ(emb.cache().CachedRows(),
            (std::vector<int64_t>{12, 14, 20, 21, 22, 23}));
}

TEST(CachedTtEmbeddingBag, PrefetchEvictionOrderHoldsForLargeVictimSets) {
  // Half of 64 residents leave, with counts 0..4 full of ties — enough that
  // selecting the victims alone leaves them out of order. The expected
  // slots replay the erasures in (count, row) order on a copy.
  Rng rng(22);
  CachedTtConfig cfg = SmallCachedConfig(/*capacity=*/64, /*warmup=*/0);
  cfg.tt.shape = MakeTtShape(/*num_rows=*/1000, /*emb_dim=*/8,
                             /*num_cores=*/3, /*rank=*/4);
  cfg.track_after_warmup = true;
  CachedTtEmbeddingBag emb(cfg, TtInit::kGaussian, rng);
  std::vector<int64_t> residents;
  for (int64_t r = 0; r < 64; ++r) residents.push_back(r);
  ASSERT_EQ(PrefetchOne(emb, residents), 64);
  std::vector<int64_t> touched;
  for (const int64_t r : residents) {
    for (int64_t k = 0; k < (r * 7) % 5; ++k) touched.push_back(r);
  }
  std::vector<float> out(touched.size() * 8);
  emb.Forward(CsrBatch::FromIndices(touched), out.data());

  std::vector<std::pair<int64_t, int64_t>> by_count;  // (count, row)
  for (const int64_t r : residents) by_count.emplace_back((r * 7) % 5, r);
  std::sort(by_count.begin(), by_count.end());
  std::vector<int64_t> expected = emb.cache().CachedRows();
  for (size_t v = 0; v < 32; ++v) {
    const auto hole =
        std::find(expected.begin(), expected.end(), by_count[v].second);
    *hole = expected.back();
    expected.pop_back();
  }
  std::vector<int64_t> plan;
  for (int64_t r = 500; r < 532; ++r) plan.push_back(r);
  expected.insert(expected.end(), plan.begin(), plan.end());

  EXPECT_EQ(PrefetchOne(emb, plan), 32);
  EXPECT_EQ(emb.cache().CachedRows(), expected);
}

TEST(CachedTtEmbeddingBag, PrefetchEvictionsPublishOnce) {
  // cache.evictions is the one count of rows that left the cache; no second
  // counter repeats the prefetch's share of it.
  Rng rng(8);
  CachedTtEmbeddingBag emb(SmallCachedConfig(/*capacity=*/4, /*warmup=*/0),
                           TtInit::kGaussian, rng);
  PrefetchOne(emb, std::vector<int64_t>{1, 2, 3, 4});
  obs::MetricRegistry reg;
  const auto evictions_published = [&] {
    emb.CollectStats(reg);
    int64_t total = 0;
    for (const char* name : {"cache.evictions", "cache.prefetch_evictions"}) {
      if (const obs::StripedCounter* c = reg.FindCounter(name)) {
        total += c->Total();
      }
    }
    return total;
  };
  const int64_t before = evictions_published();
  EXPECT_EQ(PrefetchOne(emb, std::vector<int64_t>{10, 11, 12}), 3);
  EXPECT_EQ(evictions_published() - before, 3);
}

TEST(CachedTtEmbeddingBag, PrefetchedRowsServeAsExactCacheHits) {
  Rng r1(42), r2(42);
  CachedTtConfig cfg = SmallCachedConfig(/*capacity=*/4, /*warmup=*/0);
  CachedTtEmbeddingBag emb(cfg, TtInit::kGaussian, r1);
  TtEmbeddingBag plain(cfg.tt, TtInit::kGaussian, r2);

  PrefetchOne(emb, std::vector<int64_t>{20, 21});
  emb.ResetStats();
  CsrBatch batch = CsrBatch::FromIndices({20, 21});
  std::vector<float> a(static_cast<size_t>(2 * 8)), b(a.size());
  emb.Forward(batch, a.data());
  plain.ForwardInference(batch, b.data());
  EXPECT_EQ(emb.cache().hits(), 2);
  EXPECT_EQ(emb.cache().misses(), 0);
  // The prefetched vectors were decoded by the kernel the pure-TT forward
  // runs, so the hit path reproduces its output bit for bit.
  EXPECT_EQ(a, b);
}

TEST(CachedTtEmbeddingBag, PrefetchValidatesBeforeMutatingAndSkipsTracker) {
  Rng rng(5);
  CachedTtEmbeddingBag emb(SmallCachedConfig(/*capacity=*/4, /*warmup=*/0),
                           TtInit::kGaussian, rng);
  EXPECT_THROW(PrefetchOne(emb, std::vector<int64_t>{2, 999}), IndexError);
  EXPECT_EQ(emb.cache().size(), 0);
  EXPECT_EQ(emb.prefetch_inserts(), 0);

  PrefetchOne(emb, std::vector<int64_t>{7});
  // Prefetch is a hint about the future, not an observed access.
  EXPECT_EQ(emb.tracker().Count(7), 0);
}

TEST(CachedTtEmbeddingBag, ForwardAndBackwardCountEachLookupOnce) {
  // The backward revisits the forward's lookups to route gradients; only
  // the forward counts them as hits or misses.
  Rng rng(9);
  CachedTtEmbeddingBag emb(SmallCachedConfig(/*capacity=*/4, /*warmup=*/0),
                           TtInit::kGaussian, rng);
  PrefetchOne(emb, std::vector<int64_t>{3, 5});
  const CsrBatch batch = CsrBatch::FromIndices({3, 5, 7});
  std::vector<float> out(static_cast<size_t>(3 * emb.emb_dim()));
  emb.Forward(batch, out.data());
  const std::vector<float> grad(out.size(), 1.0f);
  emb.Backward(batch, grad.data());
  EXPECT_EQ(emb.cache().hits(), 2);
  EXPECT_EQ(emb.cache().misses(), 1);
}

// --- The lookahead window: Belady's rule inside it -------------------------

/// Views `plans` as one PrefetchRows window, in order.
std::vector<std::span<const int64_t>> Window(
    const std::vector<std::vector<int64_t>>& plans) {
  return std::vector<std::span<const int64_t>>(plans.begin(), plans.end());
}

TEST(CachedTtEmbeddingBag, WindowPrefetchAdmitsInNextUseOrder) {
  // Missing rows admit by plan, then by row id within a plan; the first
  // plan's rows come first even when a later plan lists smaller ids, and a
  // row listed twice admits once, at its soonest use.
  Rng rng(12);
  CachedTtEmbeddingBag emb(SmallCachedConfig(/*capacity=*/6, /*warmup=*/0),
                           TtInit::kGaussian, rng);
  const std::vector<std::vector<int64_t>> plans = {
      {10, 30}, {5, 10, 20}, {1, 2, 40}};
  EXPECT_EQ(emb.PrefetchRows(Window(plans)), 6);
  EXPECT_EQ(emb.cache().CachedRows(),
            (std::vector<int64_t>{10, 30, 5, 20, 1, 2}));
  EXPECT_EQ(emb.prefetch_skips(), 1);  // 40, the farthest use
  EXPECT_EQ(emb.prefetch_calls(), 1);
}

TEST(CachedTtEmbeddingBag, WindowPrefetchSkipsAndCountsRowsThatDoNotFit) {
  Rng rng(13);
  CachedTtEmbeddingBag emb(SmallCachedConfig(/*capacity=*/4, /*warmup=*/0),
                           TtInit::kGaussian, rng);
  const std::vector<std::vector<int64_t>> full = {{1, 2}, {3, 4}, {5, 6}};
  EXPECT_EQ(emb.PrefetchRows(Window(full)), 4);
  EXPECT_EQ(emb.prefetch_skips(), 2);

  // Every resident is in the window, so nothing can leave; the two rows
  // that did not fit are retried and skipped again.
  EXPECT_EQ(emb.PrefetchRows(Window(full)), 0);
  EXPECT_EQ(emb.cache().evictions(), 0);
  EXPECT_EQ(emb.prefetch_skips(), 4);

  // The window moves on: 1 and 2 are behind it and make room. Slots:
  // [1 2 3 4] -> erase 1 -> [4 2 3] -> erase 2 -> [4 3], then 5 and 6.
  const std::vector<std::vector<int64_t>> next = {{3, 4}, {5, 6}};
  EXPECT_EQ(emb.PrefetchRows(Window(next)), 2);
  EXPECT_EQ(emb.cache().CachedRows(), (std::vector<int64_t>{4, 3, 5, 6}));
  EXPECT_EQ(emb.cache().evictions(), 2);
  EXPECT_EQ(emb.prefetch_skips(), 4);

  obs::MetricRegistry reg;
  emb.CollectStats(reg);
  ASSERT_NE(reg.FindCounter("cache.prefetch_skips"), nullptr);
  EXPECT_EQ(reg.FindCounter("cache.prefetch_skips")->Total(), 4);
  EXPECT_EQ(reg.FindCounter("cache.prefetch_inserts")->Total(), 6);
}

TEST(CachedTtEmbeddingBag, WindowPrefetchNeverEvictsWindowRows) {
  // Random windows of three plans over a cache too small for them: no row
  // of any window plan leaves, every eviction is needed, and the residents
  // stay a set. With tracking on, counts move between calls.
  for (const bool track_after_warmup : {false, true}) {
    SCOPED_TRACE(track_after_warmup ? "tracking" : "frozen");
    Rng rng(14);
    CachedTtConfig cfg = SmallCachedConfig(/*capacity=*/24, /*warmup=*/0);
    cfg.tt.shape = MakeTtShape(/*num_rows=*/400, /*emb_dim=*/8,
                               /*num_cores=*/3, /*rank=*/4);
    cfg.track_after_warmup = track_after_warmup;
    CachedTtEmbeddingBag emb(cfg, TtInit::kGaussian, rng);
    Rng data(15);
    std::vector<std::vector<int64_t>> plans;
    std::vector<float> out;
    for (int step = 0; step < 60; ++step) {
      std::vector<int64_t> plan;
      // A narrow hot set first, then a wide one.
      const int64_t span = step < 30 ? 60 : 400;
      for (int i = 0; i < 12; ++i) plan.push_back(data.RandInt(span));
      std::sort(plan.begin(), plan.end());
      plans.push_back(plan);
      if (plans.size() > 3) plans.erase(plans.begin());

      const std::vector<int64_t> before = emb.cache().CachedRows();
      const int64_t evictions0 = emb.cache().evictions();
      const int64_t skips0 = emb.prefetch_skips();
      const int64_t admitted = emb.PrefetchRows(Window(plans));
      const std::vector<int64_t> resident = emb.cache().CachedRows();
      const std::set<int64_t> after(resident.begin(), resident.end());
      ASSERT_EQ(static_cast<int64_t>(after.size()), emb.cache().size());
      std::set<int64_t> wanted;
      for (const auto& p : plans) wanted.insert(p.begin(), p.end());
      for (const int64_t row : before) {
        if (wanted.count(row) > 0) {
          ASSERT_TRUE(after.count(row) > 0)
              << "step " << step << " row " << row;
        }
      }
      int64_t missing = 0;
      for (const int64_t row : wanted) {
        if (std::find(before.begin(), before.end(), row) == before.end()) {
          ++missing;
        }
      }
      const int64_t evicted = emb.cache().evictions() - evictions0;
      const int64_t free0 =
          emb.cache().capacity() - static_cast<int64_t>(before.size());
      EXPECT_EQ(evicted, std::max<int64_t>(0, admitted - free0));
      EXPECT_EQ(admitted + emb.prefetch_skips() - skips0, missing);

      // The plan about to train runs.
      const CsrBatch batch = CsrBatch::FromIndices(plans.front());
      out.resize(static_cast<size_t>(batch.num_bags() * emb.emb_dim()));
      emb.Forward(batch, out.data());
    }
    EXPECT_GT(emb.prefetch_skips(), 0);
    EXPECT_GT(emb.cache().evictions(), 0);
  }
}

TEST(CachedTtEmbeddingBag, OnePlanWindowMatchesSinglePlanPrefetch) {
  // A replay of the single-plan prefetch on a second LfuRowCache: dedup
  // into sorted order, evict the `need` coldest residents outside the plan
  // in ascending (tracker count, row id) order, admit in row order while
  // room lasts. Slot order and values must match after every call, with
  // the tracker frozen after warm-up and with counts that keep moving, and
  // with plans that arrive unsorted and with duplicates.
  for (const bool track_after_warmup : {false, true}) {
    SCOPED_TRACE(track_after_warmup ? "tracking" : "frozen");
    Rng rng(16);
    CachedTtConfig cfg = SmallCachedConfig(/*capacity=*/20, /*warmup=*/3,
                                           /*refresh=*/1);
    cfg.tt.shape = MakeTtShape(/*num_rows=*/300, /*emb_dim=*/8,
                               /*num_cores=*/3, /*rank=*/4);
    cfg.track_after_warmup = track_after_warmup;
    CachedTtEmbeddingBag emb(cfg, TtInit::kGaussian, rng);
    LfuRowCache ref(cfg.cache_capacity, emb.emb_dim());
    const int64_t N = emb.emb_dim();

    const auto ref_prefetch = [&](std::vector<int64_t> wanted) {
      std::sort(wanted.begin(), wanted.end());
      wanted.erase(std::unique(wanted.begin(), wanted.end()), wanted.end());
      std::vector<int64_t> missing;
      for (const int64_t row : wanted) {
        if (!ref.Contains(row)) missing.push_back(row);
      }
      if (missing.empty()) return int64_t{0};
      const int64_t need = static_cast<int64_t>(missing.size()) -
                           (ref.capacity() - ref.size());
      if (need > 0) {
        std::vector<std::pair<int64_t, int64_t>> victims;
        for (const int64_t row : ref.CachedRows()) {
          if (!std::binary_search(wanted.begin(), wanted.end(), row)) {
            victims.emplace_back(emb.tracker().Count(row), row);
          }
        }
        std::sort(victims.begin(), victims.end());
        const size_t leave =
            std::min(static_cast<size_t>(need), victims.size());
        for (size_t v = 0; v < leave; ++v) ref.Erase(victims[v].second);
      }
      missing.resize(std::min(missing.size(),
                              static_cast<size_t>(ref.capacity() - ref.size())));
      std::vector<float> values(missing.size() * static_cast<size_t>(N));
      emb.tt().LookupRows(missing, values.data());
      for (size_t i = 0; i < missing.size(); ++i) {
        ref.Insert(missing[i], values.data() + i * static_cast<size_t>(N));
      }
      return static_cast<int64_t>(missing.size());
    };
    // A warm-up refresh replaces the residents; the replay starts over
    // from what it left.
    const auto resync = [&] {
      const std::vector<int64_t> rows = emb.cache().CachedRows();
      std::vector<float> values;
      for (const int64_t row : rows) {
        const float* v = emb.cache().Peek(row);
        values.insert(values.end(), v, v + N);
      }
      ref.Populate(rows, values.data());
    };

    Rng data(17);
    std::vector<float> out;
    for (int step = 0; step < 80; ++step) {
      SCOPED_TRACE("step " + std::to_string(step));
      std::vector<int64_t> plan;
      const int64_t n = 4 + data.RandInt(24);  // up to past the capacity
      for (int64_t i = 0; i < n; ++i) plan.push_back(data.RandInt(120));
      const int64_t expected = ref_prefetch(plan);
      ASSERT_EQ(PrefetchOne(emb, plan), expected);
      ASSERT_EQ(emb.cache().CachedRows(), ref.CachedRows());
      for (const int64_t row : ref.CachedRows()) {
        const float* got = emb.cache().Peek(row);
        const float* want = ref.Peek(row);
        ASSERT_EQ(std::vector<float>(got, got + N),
                  std::vector<float>(want, want + N))
            << "row " << row;
      }
      std::vector<int64_t> touched;
      for (int i = 0; i < 16; ++i) touched.push_back(data.RandInt(120));
      const CsrBatch batch = CsrBatch::FromIndices(touched);
      out.resize(static_cast<size_t>(batch.num_bags() * N));
      const int64_t refreshes = emb.refreshes();
      emb.Forward(batch, out.data());
      if (emb.refreshes() != refreshes) resync();
    }
    EXPECT_EQ(emb.refreshes(), 3);
  }
}

/// A replay of PrefetchRows' window rule on a second LfuRowCache, which it
/// asks for residency and the tracker for counts, where PrefetchRows keeps
/// bitmaps and an order. Next-use order: by plan, then by row id; each row
/// once, at its soonest use. Victims: residents outside the window, in
/// ascending (tracker count, row id) order.
class WindowReplay {
 public:
  explicit WindowReplay(const CachedTtEmbeddingBag& emb)
      : emb_(emb), ref_(emb.cache().capacity(), emb.emb_dim()) {}

  int64_t Prefetch(const std::vector<std::vector<int64_t>>& plans) {
    for (const int64_t row : ref_.CachedRows()) {
      if (counted_.contains(row) && emb_.tracker().Count(row) == 0) {
        ++residents_uncounted_;
      }
    }
    std::set<int64_t> wanted;
    std::vector<int64_t> missing;
    for (std::vector<int64_t> plan : plans) {
      std::sort(plan.begin(), plan.end());
      for (const int64_t row : plan) {
        if (wanted.insert(row).second && !ref_.Contains(row)) {
          missing.push_back(row);
        }
      }
    }
    const int64_t need = static_cast<int64_t>(missing.size()) -
                         (ref_.capacity() - ref_.size());
    if (need > 0) {
      std::vector<std::pair<int64_t, int64_t>> victims;
      for (const int64_t row : ref_.CachedRows()) {
        if (wanted.count(row) == 0) {
          victims.emplace_back(emb_.tracker().Count(row), row);
        }
      }
      std::sort(victims.begin(), victims.end());
      const size_t leave = std::min(static_cast<size_t>(need), victims.size());
      for (size_t v = 0; v < leave; ++v) {
        ++(victims[v].first > 0 ? counted_victims_ : uncounted_victims_);
        ref_.Erase(victims[v].second);
      }
    }
    const auto room = static_cast<size_t>(ref_.capacity() - ref_.size());
    missing.resize(std::min(missing.size(), room));
    const size_t N = static_cast<size_t>(emb_.emb_dim());
    std::vector<float> values(missing.size() * N);
    emb_.tt().LookupRows(missing, values.data());
    for (size_t i = 0; i < missing.size(); ++i) {
      ref_.Insert(missing[i], values.data() + i * N);
    }
    counted_.clear();
    for (const int64_t row : ref_.CachedRows()) {
      if (emb_.tracker().Count(row) > 0) counted_.insert(row);
    }
    return static_cast<int64_t>(missing.size());
  }

  /// Starts over from the residents the operator holds now: after a
  /// refresh, resize or load replaced them without a prefetch.
  void Resync() {
    const std::vector<int64_t> rows = emb_.cache().CachedRows();
    std::vector<float> values;
    for (const int64_t row : rows) {
      const float* v = emb_.cache().Peek(row);
      values.insert(values.end(), v, v + emb_.emb_dim());
    }
    ref_.Resize(emb_.cache().capacity(), rows, values.data());
    counted_.clear();
  }

  /// Slot order and values equal the operator's.
  void ExpectMatches() const {
    ASSERT_EQ(emb_.cache().CachedRows(), ref_.CachedRows());
    const int64_t N = emb_.emb_dim();
    for (const int64_t row : ref_.CachedRows()) {
      const float* got = emb_.cache().Peek(row);
      const float* want = ref_.Peek(row);
      ASSERT_EQ(std::vector<float>(got, got + N),
                std::vector<float>(want, want + N))
          << "row " << row;
    }
  }

  int64_t uncounted_victims() const { return uncounted_victims_; }
  int64_t counted_victims() const { return counted_victims_; }
  /// Residents whose count was above 0 after one call and 0 at the next.
  int64_t residents_uncounted() const { return residents_uncounted_; }

 private:
  const CachedTtEmbeddingBag& emb_;
  LfuRowCache ref_;
  std::set<int64_t> counted_;
  int64_t uncounted_victims_ = 0;
  int64_t counted_victims_ = 0;
  int64_t residents_uncounted_ = 0;
};

TEST(CachedTtEmbeddingBag, WindowPrefetchMatchesReplayThroughResizeAndLoad) {
  // PrefetchRows keeps its own residency bitmap. A replay of the window
  // rule on a second LfuRowCache asks that cache instead, and both must
  // agree on slot order and values after every call: through warm-up
  // refreshes, ResizeCache growing and shrinking, and LoadState, each of
  // which replaces the residents without a prefetch.
  for (const bool track_after_warmup : {false, true}) {
    SCOPED_TRACE(track_after_warmup ? "tracking" : "frozen");
    Rng rng(18);
    CachedTtConfig cfg = SmallCachedConfig(/*capacity=*/20, /*warmup=*/4,
                                           /*refresh=*/2);
    cfg.tt.shape = MakeTtShape(/*num_rows=*/300, /*emb_dim=*/8,
                               /*num_cores=*/3, /*rank=*/4);
    cfg.track_after_warmup = track_after_warmup;
    CachedTtEmbeddingBag emb(cfg, TtInit::kGaussian, rng);
    WindowReplay replay(emb);
    const int64_t N = emb.emb_dim();

    Rng data(19);
    std::vector<std::vector<int64_t>> plans;
    std::string saved;
    std::vector<float> out;
    for (int step = 0; step < 100; ++step) {
      SCOPED_TRACE("step " + std::to_string(step));
      if (step == 20) {
        std::ostringstream os;
        BinaryWriter w(os);
        emb.SaveState(w);
        saved = os.str();
      }
      if (step == 30 || step == 50 || step == 60) {
        emb.ResizeCache(step == 30 ? 32 : step == 50 ? 12 : 24);
        replay.Resync();
      }
      if (step == 70) {
        std::istringstream is(saved);
        BinaryReader r(is);
        emb.LoadState(r);
        replay.Resync();
      }
      std::vector<int64_t> plan;
      const int64_t n = 4 + data.RandInt(12);
      for (int64_t i = 0; i < n; ++i) plan.push_back(data.RandInt(90));
      plans.push_back(plan);
      if (plans.size() > 3) plans.erase(plans.begin());

      const int64_t expected = replay.Prefetch(plans);
      ASSERT_EQ(emb.PrefetchRows(Window(plans)), expected);
      ASSERT_NO_FATAL_FAILURE(replay.ExpectMatches());

      const CsrBatch batch = CsrBatch::FromIndices(plans.front());
      out.resize(static_cast<size_t>(batch.num_bags() * N));
      const int64_t refreshes = emb.refreshes();
      emb.Forward(batch, out.data());
      if (emb.refreshes() != refreshes) replay.Resync();
    }
    EXPECT_EQ(emb.refreshes(), 2);
    EXPECT_EQ(emb.resizes(), 3);
    EXPECT_GT(emb.cache().evictions(), 0);
  }
}

TEST(CachedTtEmbeddingBag, WindowPrefetchMatchesReplayThroughDecayAndTracking) {
  // PrefetchRows takes its first victims from a bitmap scan of the
  // residents whose tracker count is 0 and the rest from a (count, row)
  // order of the counted ones, split by one "count > 0" bit per row. Each
  // rewarm halves the counts and drops the rows it takes to 0, so counted
  // residents become uncounted; the re-tracking windows, and every step
  // under track_after_warmup, count rows again. The replay asks the
  // tracker itself, and slot order and values must agree after every call.
  for (const bool track_after_warmup : {false, true}) {
    SCOPED_TRACE(track_after_warmup ? "tracking" : "frozen");
    Rng rng(20);
    CachedTtConfig cfg = SmallCachedConfig(/*capacity=*/20, /*warmup=*/4,
                                           /*refresh=*/2);
    cfg.tt.shape = MakeTtShape(/*num_rows=*/300, /*emb_dim=*/8,
                               /*num_cores=*/3, /*rank=*/4);
    cfg.track_after_warmup = track_after_warmup;
    cfg.rewarm_period = 12;
    CachedTtEmbeddingBag emb(cfg, TtInit::kGaussian, rng);
    WindowReplay replay(emb);
    const int64_t N = emb.emb_dim();

    Rng data(21);
    std::vector<std::vector<int64_t>> plans;
    std::vector<float> out;
    for (int step = 0; step < 120; ++step) {
      SCOPED_TRACE("step " + std::to_string(step));
      std::vector<int64_t> plan;
      const int64_t n = 4 + data.RandInt(12);
      // Hot rows keep counts through the decays; cold rows are seen
      // rarely, so a decay takes many of their counts back to 0.
      for (int64_t i = 0; i < n; ++i) {
        plan.push_back(data.Bernoulli(0.5) ? data.RandInt(40)
                                           : data.RandInt(300));
      }
      plans.push_back(plan);
      if (plans.size() > 3) plans.erase(plans.begin());

      const int64_t expected = replay.Prefetch(plans);
      ASSERT_EQ(emb.PrefetchRows(Window(plans)), expected);
      ASSERT_NO_FATAL_FAILURE(replay.ExpectMatches());

      // The step looks up every other row of its plan, so some admitted
      // rows stay uncounted under tracking too.
      std::vector<int64_t> looked_up;
      for (size_t i = 0; i < plans.front().size(); i += 2) {
        looked_up.push_back(plans.front()[i]);
      }
      const CsrBatch batch = CsrBatch::FromIndices(std::move(looked_up));
      out.resize(static_cast<size_t>(batch.num_bags() * N));
      const int64_t refreshes = emb.refreshes();
      emb.Forward(batch, out.data());
      if (emb.refreshes() != refreshes) replay.Resync();
    }
    EXPECT_GE(emb.tracker().decay_rebuilds(), 9);
    EXPECT_GT(replay.residents_uncounted(), 0);
    EXPECT_GT(replay.uncounted_victims(), 0);
    EXPECT_GT(replay.counted_victims(), 0);
  }
}

TEST(CachedTtEmbeddingBag, HitsPlusMissesEqualLookupsUnderConcurrentReaders) {
  // The forwards probe every lookup with Peek and add each call's hits and
  // misses once. The totals stay exact: after Forward, hits are the
  // lookups of resident rows and hits + misses all lookups; after
  // concurrent ForwardInference callers, the same sums over every call.
  Rng rng(22);
  CachedTtConfig cfg = SmallCachedConfig(/*capacity=*/16, /*warmup=*/0);
  cfg.tt.shape = MakeTtShape(/*num_rows=*/300, /*emb_dim=*/8,
                             /*num_cores=*/3, /*rank=*/4);
  CachedTtEmbeddingBag emb(cfg, TtInit::kGaussian, rng);
  std::vector<int64_t> hot(16);
  for (size_t i = 0; i < hot.size(); ++i) hot[i] = static_cast<int64_t>(3 * i);
  ASSERT_EQ(PrefetchOne(emb, hot), 16);

  Rng data(23);
  std::vector<CsrBatch> batches;
  int64_t lookups = 0, resident = 0;
  for (int b = 0; b < 8; ++b) {
    std::vector<int64_t> idx;
    for (int i = 0; i < 40; ++i) idx.push_back(data.RandInt(60));
    for (const int64_t row : idx) resident += emb.cache().Contains(row);
    lookups += static_cast<int64_t>(idx.size());
    batches.push_back(CsrBatch::FromIndices(std::move(idx)));
  }
  ASSERT_GT(resident, 0);
  ASSERT_LT(resident, lookups);

  emb.ResetStats();
  std::vector<float> out;
  for (const CsrBatch& batch : batches) {
    out.resize(static_cast<size_t>(batch.num_bags() * emb.emb_dim()));
    emb.Forward(batch, out.data());
  }
  EXPECT_EQ(emb.cache().hits(), resident);
  EXPECT_EQ(emb.cache().hits() + emb.cache().misses(), lookups);

  emb.ResetStats();
  constexpr int kReaders = 4, kRounds = 10;
  const CachedTtEmbeddingBag& frozen = emb;
  std::vector<std::thread> readers;
  for (int t = 0; t < kReaders; ++t) {
    readers.emplace_back([&] {
      std::vector<float> o;
      for (int round = 0; round < kRounds; ++round) {
        for (const CsrBatch& batch : batches) {
          o.resize(static_cast<size_t>(batch.num_bags() * frozen.emb_dim()));
          frozen.ForwardInference(batch, o.data());
        }
      }
    });
  }
  for (std::thread& t : readers) t.join();
  EXPECT_EQ(emb.cache().hits(), kReaders * kRounds * resident);
  EXPECT_EQ(emb.cache().hits() + emb.cache().misses(),
            kReaders * kRounds * lookups);
  EXPECT_DOUBLE_EQ(emb.HitRate(), static_cast<double>(resident) / lookups);
}

TEST(CachedTtEmbeddingBag, BackwardFollowsARowThatEraseMoved) {
  // Erase fills the hole with the last slot's row. The backward takes each
  // hit's gradient slot from the partition's probe of the cache, which
  // must name the moved row's new slot: SGD at lr 1 then moves every row
  // by its own gradient and no other.
  Rng rng(19);
  CachedTtEmbeddingBag emb(SmallCachedConfig(/*capacity=*/4, /*warmup=*/0),
                           TtInit::kGaussian, rng);
  ASSERT_EQ(PrefetchOne(emb, std::vector<int64_t>{1, 2, 3, 4}), 4);
  // 1 and 3 lie outside the window and 1 leaves first: 4 moves from the
  // last slot into its hole. Slots: [1 2 3 4] -> [4 2 3], then 10.
  const std::vector<std::vector<int64_t>> window = {{2, 4, 10}};
  ASSERT_EQ(emb.PrefetchRows(Window(window)), 1);
  ASSERT_EQ(emb.cache().CachedRows(), (std::vector<int64_t>{4, 2, 3, 10}));

  const int64_t N = emb.emb_dim();
  const auto value = [&](int64_t row) {
    const float* v = emb.cache().Peek(row);
    return std::vector<float>(v, v + N);
  };
  const std::vector<int64_t> lookups = {4, 10, 2};
  std::vector<std::vector<float>> before;
  for (const int64_t row : lookups) before.push_back(value(row));
  const std::vector<float> untouched = value(3);

  const CsrBatch batch = CsrBatch::FromIndices(lookups);
  std::vector<float> out(lookups.size() * static_cast<size_t>(N));
  emb.Forward(batch, out.data());
  std::vector<float> grad(out.size());
  for (size_t i = 0; i < grad.size(); ++i) {
    grad[i] = 0.25f * static_cast<float>(i / static_cast<size_t>(N) + 1) +
              0.01f * static_cast<float>(i % static_cast<size_t>(N));
  }
  emb.Backward(batch, grad.data());
  emb.ApplySgd(1.0f);
  for (size_t b = 0; b < lookups.size(); ++b) {
    std::vector<float> want = before[b];
    for (int64_t j = 0; j < N; ++j) {
      want[static_cast<size_t>(j)] -= grad[b * static_cast<size_t>(N) +
                                           static_cast<size_t>(j)];
    }
    EXPECT_EQ(value(lookups[b]), want) << "row " << lookups[b];
  }
  EXPECT_EQ(value(3), untouched);
}

// ---------------------------------------------------------------------------
// Cache admission decodes through the staged TT kernel, in every SIMD tier
// ---------------------------------------------------------------------------

/// Expects every resident row of `emb` to equal TtCores::MaterializeRow bit
/// for bit. Valid while no optimizer step has touched the cached values.
void ExpectResidentsMatchMaterializeRow(const CachedTtEmbeddingBag& emb,
                                        const char* stage) {
  SCOPED_TRACE(stage);
  std::vector<float> ref(static_cast<size_t>(emb.emb_dim()));
  for (const int64_t row : emb.cache().CachedRows()) {
    emb.tt().cores().MaterializeRow(row, ref.data());
    const float* got = emb.cache().Peek(row);
    ASSERT_NE(got, nullptr);
    EXPECT_EQ(std::vector<float>(got, got + emb.emb_dim()), ref)
        << "row " << row;
  }
}

TEST(CachedTtAdmissionTiers, AdmittedRowsMatchMaterializeRowInEveryTier) {
  // The shape of the cached tables in train_cached_shift (rank 32,
  // emb_dim 16), with blocks small enough that every admission spans
  // several of them.
  TierGuard tier_guard;
  for (SimdTier tier : TestableTiers()) {
    SetSimdTier(tier);
    SCOPED_TRACE(std::string("tier=") + SimdTierName(tier));
    CachedTtConfig cfg;
    cfg.tt.shape = MakeTtShape(/*num_rows=*/3000, /*emb_dim=*/16,
                               /*num_cores=*/3, /*rank=*/32);
    cfg.tt.block_size = 24;
    cfg.cache_capacity = 64;
    cfg.warmup_iterations = 2;
    cfg.refresh_interval = 1;
    Rng rng(77);
    CachedTtEmbeddingBag emb(cfg, TtInit::kGaussian, rng);

    // Warm-up: iterations 1 and 2 refresh the cache from the tracker.
    Rng data(5);
    std::vector<float> out;
    for (int it = 0; it < 3; ++it) {
      std::vector<int64_t> idx;
      // Rows from 2800 up stay untracked, so the plan below is all new.
      for (int i = 0; i < 200; ++i) idx.push_back(data.RandInt(2800));
      const CsrBatch batch = CsrBatch::FromIndices(std::move(idx));
      out.resize(static_cast<size_t>(batch.num_bags() * emb.emb_dim()));
      emb.Forward(batch, out.data());
    }
    ASSERT_EQ(emb.refreshes(), 2);
    ExpectResidentsMatchMaterializeRow(emb, "RefreshCache");

    std::vector<int64_t> plan;
    for (int64_t r = 2900; r < 2940; ++r) plan.push_back(r);
    ASSERT_EQ(PrefetchOne(emb, plan), 40);
    ExpectResidentsMatchMaterializeRow(emb, "PrefetchRows");

    // Growing past the resident set admits tracker rows the cache never
    // held; shrinking keeps a subset.
    emb.ResizeCache(160);
    ASSERT_EQ(emb.cache().size(), 160);
    ExpectResidentsMatchMaterializeRow(emb, "ResizeCache grow");
    emb.ResizeCache(48);
    ExpectResidentsMatchMaterializeRow(emb, "ResizeCache shrink");
  }
}

}  // namespace
}  // namespace ttrec
