// Sharded serving tests (src/shard/ + the InferenceServer integration):
// the ShardPlan partitioner (coverage, determinism, LPT packing, row-range
// boundaries, serialization, capacity-planner input), the bitwise identity
// property — router fan-out/join logits == single-process const forward,
// across strategies x shard counts x batches with empty bags, duplicate
// ids, per-lookup weights, and out-of-range ids under kClampToZero — the
// sharded InferenceServer (per-shard metrics, topology snapshot), the
// coordinated two-phase hot-swap under a live hammer, and generation-metric
// retention. Suites all match the `Shard*` TSan CI filter.
#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <cstring>
#include <memory>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "data/criteo_synth.h"
#include "dlrm/capacity_planner.h"
#include "dlrm/embedding_adapters.h"
#include "dlrm/embedding_bag.h"
#include "dlrm/model.h"
#include "serve/inference_server.h"
#include "serve/inference_session.h"
#include "serve/micro_batcher.h"
#include "serve/serve_errors.h"
#include "shard/embedding_shard.h"
#include "shard/shard_plan.h"
#include "shard/shard_router.h"
#include "tensor/check.h"
#include "tensor/serialize.h"
#include "tt/tt_shapes.h"

namespace ttrec {
namespace {

using shard::BuildShards;
using shard::MakeShardPlan;
using shard::PartitionStrategy;
using shard::ShardPiece;
using shard::ShardPlan;
using shard::ShardRouter;

// ---------------------------------------------------------------------------
// ShardPlan: the partitioner
// ---------------------------------------------------------------------------

TEST(ShardPlan, TableStrategyPacksByBytesLpt) {
  const std::vector<int64_t> rows = {100, 200, 300, 400};
  const std::vector<int64_t> bytes = {100, 80, 60, 10};
  const ShardPlan plan =
      MakeShardPlan(rows, bytes, PartitionStrategy::kTable, 2);

  EXPECT_EQ(plan.num_shards(), 2);
  EXPECT_EQ(plan.num_tables(), 4);
  for (int t = 0; t < 4; ++t) {
    ASSERT_TRUE(plan.single_owner(t));
    EXPECT_EQ(plan.table_pieces(t)[0].rows(), rows[static_cast<size_t>(t)]);
  }
  // LPT: 100 -> s0, 80 -> s1, 60 -> s1 (80 < 100), 10 -> s0 (100 < 140).
  EXPECT_EQ(plan.table_pieces(0)[0].shard, 0);
  EXPECT_EQ(plan.table_pieces(1)[0].shard, 1);
  EXPECT_EQ(plan.table_pieces(2)[0].shard, 1);
  EXPECT_EQ(plan.table_pieces(3)[0].shard, 0);
  EXPECT_EQ(plan.shard_bytes(0), 110);
  EXPECT_EQ(plan.shard_bytes(1), 140);
}

TEST(ShardPlan, RowRangeCoversEveryRowExactlyOnce) {
  const std::vector<int64_t> rows = {100, 7, 1};
  const std::vector<int64_t> bytes = {1000, 70, 10};
  for (int num_shards : {1, 2, 4, 7}) {
    const ShardPlan plan =
        MakeShardPlan(rows, bytes, PartitionStrategy::kRowRange, num_shards);
    for (int t = 0; t < plan.num_tables(); ++t) {
      // Walking PieceFor over every row must visit contiguous, ascending
      // shard pieces that tile [0, rows).
      int64_t covered = 0;
      for (const ShardPiece& p : plan.table_pieces(t)) {
        EXPECT_EQ(p.row_begin, covered);
        EXPECT_GT(p.rows(), 0);
        covered = p.row_end;
        for (int64_t r = p.row_begin; r < p.row_end; ++r) {
          EXPECT_EQ(&plan.PieceFor(t, r), &p);
        }
      }
      EXPECT_EQ(covered, rows[static_cast<size_t>(t)]);
      // More shards than rows: empty slices are skipped, never emitted.
      EXPECT_LE(plan.table_pieces(t).size(),
                static_cast<size_t>(
                    std::min<int64_t>(num_shards,
                                      rows[static_cast<size_t>(t)])));
    }
    EXPECT_THROW(plan.PieceFor(0, rows[0]), IndexError);
    EXPECT_THROW(plan.PieceFor(0, -1), IndexError);
  }
}

TEST(ShardPlan, DeterministicForIdenticalInputs) {
  const std::vector<int64_t> rows = {512, 64, 2048, 64};
  const std::vector<int64_t> bytes = {4096, 512, 512, 512};
  for (PartitionStrategy s :
       {PartitionStrategy::kTable, PartitionStrategy::kRowRange}) {
    const ShardPlan a = MakeShardPlan(rows, bytes, s, 3);
    const ShardPlan b = MakeShardPlan(rows, bytes, s, 3);
    ASSERT_EQ(a.pieces().size(), b.pieces().size());
    for (size_t i = 0; i < a.pieces().size(); ++i) {
      EXPECT_EQ(a.pieces()[i].table, b.pieces()[i].table);
      EXPECT_EQ(a.pieces()[i].shard, b.pieces()[i].shard);
      EXPECT_EQ(a.pieces()[i].row_begin, b.pieces()[i].row_begin);
      EXPECT_EQ(a.pieces()[i].row_end, b.pieces()[i].row_end);
      EXPECT_EQ(a.pieces()[i].bytes, b.pieces()[i].bytes);
    }
  }
}

TEST(ShardPlan, SaveLoadRoundTrips) {
  const ShardPlan plan = MakeShardPlan({300, 50}, {3000, 500},
                                       PartitionStrategy::kRowRange, 4);
  std::stringstream ss;
  BinaryWriter w(ss);
  plan.Save(w);
  w.Finish();

  BinaryReader r(ss);
  const ShardPlan loaded = ShardPlan::Load(r);
  r.Finish();

  EXPECT_EQ(loaded.strategy(), plan.strategy());
  EXPECT_EQ(loaded.num_shards(), plan.num_shards());
  EXPECT_EQ(loaded.ToString(), plan.ToString());
  ASSERT_EQ(loaded.pieces().size(), plan.pieces().size());
  for (size_t i = 0; i < plan.pieces().size(); ++i) {
    EXPECT_EQ(loaded.pieces()[i].shard, plan.pieces()[i].shard);
    EXPECT_EQ(loaded.pieces()[i].row_begin, plan.pieces()[i].row_begin);
  }
}

TEST(ShardPlan, RejectsGapsOverlapsAndDuplicateShards) {
  // Gap: rows [0, 10) with a piece covering only [0, 5).
  EXPECT_THROW(ShardPlan(PartitionStrategy::kRowRange, 2,
                         {ShardPiece{0, 0, 0, 5, 1}}, {10}),
               ConfigError);
  // Overlap.
  EXPECT_THROW(ShardPlan(PartitionStrategy::kRowRange, 2,
                         {ShardPiece{0, 0, 0, 6, 1}, ShardPiece{0, 1, 5, 10, 1}},
                         {10}),
               ConfigError);
  // Two pieces of one table on one shard.
  EXPECT_THROW(ShardPlan(PartitionStrategy::kRowRange, 2,
                         {ShardPiece{0, 0, 0, 5, 1}, ShardPiece{0, 0, 5, 10, 1}},
                         {10}),
               ConfigError);
  // Shard id outside the fleet.
  EXPECT_THROW(ShardPlan(PartitionStrategy::kRowRange, 2,
                         {ShardPiece{0, 2, 0, 10, 1}}, {10}),
               ConfigError);
}

TEST(ShardPlan, CapacityPlannerBytesDrivePlacement) {
  DatasetSpec spec;
  spec.name = "shard_capacity";
  spec.table_rows = {2000000, 4000, 2000, 1000};
  const int64_t emb_dim = 16;
  const int64_t budget = 8LL << 20;
  const PlannerOptions options;

  const CapacityPlan cap = PlanCapacity(spec, emb_dim, budget, options);
  const ShardPlan plan = shard::MakeShardPlanFromCapacity(
      spec, emb_dim, budget, PartitionStrategy::kTable, 2, options);

  // Placement is driven by the planner's per-table byte estimates: the
  // plan's total resident bytes are exactly the capacity plan's total.
  int64_t plan_bytes = 0;
  for (int s = 0; s < plan.num_shards(); ++s) plan_bytes += plan.shard_bytes(s);
  EXPECT_EQ(plan_bytes, cap.total_bytes);
  EXPECT_EQ(plan.num_tables(), static_cast<int>(spec.table_rows.size()));
  // The 2M-row table must have been TT-compressed to fit the budget; its
  // piece packs by the compressed footprint, not 2M * emb_dim * 4.
  EXPECT_TRUE(cap.tables[0].compress);
  EXPECT_EQ(plan.table_pieces(0)[0].bytes, cap.tables[0].bytes);
}

TEST(ShardPlan, ToStringListsEveryShard) {
  const ShardPlan plan =
      MakeShardPlan({100}, {400}, PartitionStrategy::kRowRange, 3);
  const std::string dump = plan.ToString();
  EXPECT_NE(dump.find("shard plan: row partition"), std::string::npos);
  EXPECT_NE(dump.find("shard 0:"), std::string::npos);
  EXPECT_NE(dump.find("shard 2:"), std::string::npos);
}

// ---------------------------------------------------------------------------
// Bitwise identity: sharded fan-out/join == single-process forward
// ---------------------------------------------------------------------------

/// Mixed-operator model under kClampToZero: dense kSum, dense kMean, TT,
/// and cached-TT with mean pooling — every PoolPrefetchedRows
/// implementation in the tree takes part in the identity check.
std::shared_ptr<const DlrmModel> BuildMixedModel(const DatasetSpec& spec,
                                                 Rng& rng) {
  DlrmConfig cfg;
  cfg.emb_dim = 8;
  cfg.bottom_hidden = {16};
  cfg.top_hidden = {16};
  cfg.index_policy = IndexPolicy::kClampToZero;
  std::vector<std::unique_ptr<EmbeddingOp>> tables;
  tables.push_back(std::make_unique<DenseEmbeddingBag>(
      spec.table_rows[0], cfg.emb_dim, PoolingMode::kSum,
      DenseEmbeddingInit::UniformScaled(), rng));
  tables.push_back(std::make_unique<DenseEmbeddingBag>(
      spec.table_rows[1], cfg.emb_dim, PoolingMode::kMean,
      DenseEmbeddingInit::UniformScaled(), rng));
  TtEmbeddingConfig tt;
  tt.shape = MakeTtShape(spec.table_rows[2], cfg.emb_dim, 3, 4);
  tables.push_back(
      std::make_unique<TtEmbeddingAdapter>(tt, TtInit::kSampledGaussian, rng));
  CachedTtConfig cached;
  cached.tt.shape = MakeTtShape(spec.table_rows[3], cfg.emb_dim, 3, 4);
  cached.tt.pooling = PoolingMode::kMean;
  cached.cache_capacity = 32;
  cached.warmup_iterations = 1;
  cached.refresh_interval = 2;
  tables.push_back(std::make_unique<CachedTtEmbeddingAdapter>(
      cached, TtInit::kSampledGaussian, rng));
  auto model = std::make_unique<DlrmModel>(cfg, std::move(tables), rng);

  // Populate (and stop refreshing) the LFU cache through the training-path
  // forward, so the identity check exercises both the hit and miss paths of
  // the cached table.
  SyntheticCriteoConfig warm_cfg;
  warm_cfg.spec = spec;
  warm_cfg.seed = 17;
  SyntheticCriteo warm(warm_cfg);
  std::vector<float> logits(32);
  for (int i = 0; i < 6; ++i) {
    model->PredictLogits(warm.NextBatch(32), logits.data());
  }
  return std::shared_ptr<const DlrmModel>(std::move(model));
}

DatasetSpec MixedSpec() {
  DatasetSpec spec;
  spec.name = "shard_identity";
  spec.num_dense = 13;
  spec.table_rows = {120, 97, 260, 200};
  return spec;
}

/// A batch exercising every routing edge case at once: empty bags,
/// duplicate ids inside a bag, per-lookup weights, and (table 1) an
/// out-of-range id the kClampToZero sanitize pass must absorb.
MiniBatch EdgeCaseBatch(const SyntheticCriteo& data) {
  MiniBatch batch = data.EvalBatch(6, 5);
  CsrBatch& t0 = batch.sparse[0];
  t0.indices = {5, 5, 7, 0, 3, 119, 119, 119};
  t0.offsets = {0, 2, 2, 5, 5, 8, 8};  // bags 1, 3, 5 empty; dups in 0 and 4
  t0.weights = {0.5f, 1.5f, 1.0f, -2.0f, 0.25f, 3.0f, 1.0f, 0.125f};
  CsrBatch& t1 = batch.sparse[1];
  t1.indices = {0, 96, 500, 42, 13, 13};  // 500 is out of range: clamped
  t1.offsets = {0, 2, 3, 3, 4, 6, 6};
  t1.weights.clear();
  return batch;
}

TEST(ShardIdentity, RouterMatchesSingleProcessBitwise) {
  Rng rng(211);
  const DatasetSpec spec = MixedSpec();
  std::shared_ptr<const DlrmModel> model = BuildMixedModel(spec, rng);

  SyntheticCriteoConfig data_cfg;
  data_cfg.spec = spec;
  data_cfg.seed = 23;
  SyntheticCriteo data(data_cfg);

  std::vector<MiniBatch> batches;
  batches.push_back(data.EvalBatch(1, 2));
  batches.push_back(data.EvalBatch(5, 3));
  batches.push_back(data.EvalBatch(32, 4));
  batches.push_back(EdgeCaseBatch(data));

  InferenceScratch ref_scratch;
  for (const PartitionStrategy strategy :
       {PartitionStrategy::kTable, PartitionStrategy::kRowRange}) {
    for (const int num_shards : {1, 2, 4, 7}) {
      auto plan = std::make_shared<const ShardPlan>(
          shard::MakeShardPlanForModel(*model, strategy, num_shards));
      ShardRouter router(model, plan, BuildShards(model, plan));
      for (size_t bi = 0; bi < batches.size(); ++bi) {
        const MiniBatch& batch = batches[bi];
        const size_t B = static_cast<size_t>(batch.batch_size());
        std::vector<float> ref(B, 0.0f), out(B, -1.0f);
        model->PredictLogits(batch, ref.data(), ref_scratch);
        router.Run(batch, out.data());
        EXPECT_EQ(std::memcmp(ref.data(), out.data(), B * sizeof(float)), 0)
            << shard::ToString(strategy) << " x " << num_shards
            << " shards, batch " << bi << ": sharded logits diverge";

        // Telemetry bookkeeping: every lookup was routed exactly once.
        int64_t routed = 0;
        for (const int64_t n : router.last_shard_lookups()) routed += n;
        int64_t expected = 0;
        for (const CsrBatch& cb : batch.sparse) expected += cb.num_lookups();
        EXPECT_EQ(routed, expected);
      }
    }
  }
}

TEST(ShardIdentity, ExpiredDeadlineThrowsTyped) {
  Rng rng(223);
  const DatasetSpec spec = MixedSpec();
  std::shared_ptr<const DlrmModel> model = BuildMixedModel(spec, rng);
  SyntheticCriteoConfig data_cfg;
  data_cfg.spec = spec;
  SyntheticCriteo data(data_cfg);

  auto plan = std::make_shared<const ShardPlan>(
      shard::MakeShardPlanForModel(*model, PartitionStrategy::kRowRange, 2));
  ShardRouter router(model, plan, BuildShards(model, plan));
  const MiniBatch batch = data.EvalBatch(4);
  std::vector<float> out(4);
  EXPECT_THROW(router.Run(batch, out.data(),
                          std::chrono::steady_clock::now() -
                              std::chrono::milliseconds(1)),
               serve::DeadlineExceeded);
}

// ---------------------------------------------------------------------------
// Sharded InferenceServer
// ---------------------------------------------------------------------------

serve::InferenceRequest CopyRequest(const serve::InferenceRequest& r) {
  serve::InferenceRequest copy;
  copy.dense = r.dense;
  copy.sparse = r.sparse;
  copy.deadline = r.deadline;
  return copy;
}

std::vector<float> Reference(const DlrmModel& model,
                             const std::vector<serve::InferenceRequest>& reqs) {
  std::vector<float> ref(reqs.size());
  serve::InferenceSession session(model);
  for (size_t i = 0; i < reqs.size(); ++i) {
    MiniBatch one;
    one.dense = reqs[i].dense;
    one.sparse = reqs[i].sparse;
    one.labels.assign(1, 0.0f);
    session.Run(one, &ref[i]);
  }
  return ref;
}

TEST(ShardServer, ServesBitwiseIdenticalLogitsWithTopologyMetrics) {
  Rng rng(229);
  const DatasetSpec spec = MixedSpec();
  std::shared_ptr<const DlrmModel> model = BuildMixedModel(spec, rng);
  SyntheticCriteoConfig data_cfg;
  data_cfg.spec = spec;
  SyntheticCriteo data(data_cfg);

  const std::vector<serve::InferenceRequest> reqs =
      serve::SplitSamples(data.EvalBatch(16));
  const std::vector<float> ref = Reference(*model, reqs);

  serve::InferenceServerConfig cfg;
  cfg.governor.enabled = false;
  cfg.num_shards = 4;
  cfg.partition = PartitionStrategy::kRowRange;
  serve::InferenceServer server(model, cfg);

  ASSERT_NE(server.shard_plan(), nullptr);
  EXPECT_EQ(server.shard_plan()->num_shards(), 4);

  for (size_t i = 0; i < reqs.size(); ++i) {
    const serve::InferenceResult res =
        server.Submit(CopyRequest(reqs[i])).get();
    ASSERT_EQ(res.logits.size(), 1u);
    EXPECT_EQ(res.logits[0], ref[i]) << "request " << i;
  }
  server.Shutdown();

  const serve::ServeMetricsSnapshot snap = server.SnapshotWithCacheStats();
  EXPECT_EQ(snap.requests_ok, static_cast<int64_t>(reqs.size()));
  EXPECT_EQ(snap.num_shards, 4);
  EXPECT_EQ(snap.partition, "row");
  ASSERT_EQ(snap.shards.size(), 4u);
  int64_t lookups = 0;
  for (const serve::ShardSnapshot& s : snap.shards) lookups += s.lookups;
  EXPECT_GT(lookups, 0);
  EXPECT_NE(server.MetricsJson().find("\"sharding\""), std::string::npos);
}

TEST(ShardServer, UnshardedSnapshotHasNoShardingBlock) {
  Rng rng(233);
  const DatasetSpec spec = MixedSpec();
  std::shared_ptr<const DlrmModel> model = BuildMixedModel(spec, rng);
  serve::InferenceServerConfig cfg;
  cfg.governor.enabled = false;
  serve::InferenceServer server(model, cfg);
  EXPECT_EQ(server.shard_plan(), nullptr);
  EXPECT_EQ(server.MetricsJson().find("\"sharding\""), std::string::npos);
  server.Shutdown();
}

// ---------------------------------------------------------------------------
// Coordinated two-phase hot-swap
// ---------------------------------------------------------------------------

TEST(ShardSwap, HammerFourShardsEveryResponseOneGeneration) {
  Rng rng_a(239), rng_b(241);
  const DatasetSpec spec = MixedSpec();
  std::shared_ptr<const DlrmModel> a = BuildMixedModel(spec, rng_a);
  std::shared_ptr<const DlrmModel> b = BuildMixedModel(spec, rng_b);
  SyntheticCriteoConfig data_cfg;
  data_cfg.spec = spec;
  SyntheticCriteo data(data_cfg);

  const std::vector<serve::InferenceRequest> reqs =
      serve::SplitSamples(data.EvalBatch(8));
  const std::vector<float> ref_a = Reference(*a, reqs);
  const std::vector<float> ref_b = Reference(*b, reqs);

  serve::InferenceServerConfig cfg;
  cfg.max_batch_size = 8;
  cfg.governor.enabled = false;
  cfg.num_shards = 4;
  cfg.partition = PartitionStrategy::kRowRange;
  serve::InferenceServer server(a, cfg);

  std::atomic<bool> stop{false};
  std::thread swapper([&] {
    int i = 0;
    while (!stop.load()) {
      server.SwapModel(++i % 2 == 0 ? a : b);
      std::this_thread::sleep_for(std::chrono::milliseconds(10));
    }
  });

  constexpr int kProducers = 4;
  constexpr int kPerProducer = 50;
  std::atomic<int64_t> torn{0};
  std::vector<std::thread> producers;
  for (int p = 0; p < kProducers; ++p) {
    producers.emplace_back([&, p] {
      for (int i = 0; i < kPerProducer; ++i) {
        const size_t idx =
            static_cast<size_t>(p * kPerProducer + i) % reqs.size();
        const serve::InferenceResult res =
            server.Submit(CopyRequest(reqs[idx])).get();
        ASSERT_EQ(res.logits.size(), 1u);
        // Bitwise one fleet or the other: a logit matching neither means a
        // micro-batch fanned out over a torn mixed-generation fleet.
        if (res.logits[0] != ref_a[idx] && res.logits[0] != ref_b[idx]) {
          torn.fetch_add(1);
        }
        ASSERT_GE(res.model_generation, 1u);
        std::this_thread::sleep_for(std::chrono::milliseconds(1));
      }
    });
  }
  for (std::thread& t : producers) t.join();
  stop.store(true);
  swapper.join();

  EXPECT_EQ(torn.load(), 0);
  const serve::ServeMetricsSnapshot snap = server.SnapshotWithCacheStats();
  EXPECT_EQ(snap.requests_ok, int64_t{kProducers} * kPerProducer);
  EXPECT_EQ(snap.requests_failed, 0);  // typed outcomes only, no drops
  EXPECT_GT(snap.swaps_ok, 2);
  // With retention off (the default), per-generation counters partition the
  // total exactly, and every successful swap prepared a standby per shard.
  int64_t by_generation = 0;
  for (const auto& g : snap.generations) by_generation += g.requests_ok;
  EXPECT_EQ(by_generation, snap.requests_ok);
  ASSERT_EQ(snap.shards.size(), 4u);
  for (const serve::ShardSnapshot& s : snap.shards) {
    EXPECT_EQ(s.swaps_prepared, snap.swaps_ok);
  }
  server.Shutdown();
}

TEST(ShardSwap, RejectedPrepareKeepsIncumbentFleet) {
  Rng rng_a(251), rng_c(257);
  const DatasetSpec spec = MixedSpec();
  std::shared_ptr<const DlrmModel> a = BuildMixedModel(spec, rng_a);
  DatasetSpec other = spec;
  other.table_rows[0] += 8;  // row-count mismatch: swap must be rejected
  std::shared_ptr<const DlrmModel> c = BuildMixedModel(other, rng_c);
  SyntheticCriteoConfig data_cfg;
  data_cfg.spec = spec;
  SyntheticCriteo data(data_cfg);

  const std::vector<serve::InferenceRequest> reqs =
      serve::SplitSamples(data.EvalBatch(2));
  const std::vector<float> ref_a = Reference(*a, reqs);

  serve::InferenceServerConfig cfg;
  cfg.governor.enabled = false;
  cfg.num_shards = 2;
  serve::InferenceServer server(a, cfg);

  EXPECT_THROW(server.SwapModel(c), ConfigError);
  EXPECT_EQ(server.generation(), 1u);
  const serve::InferenceResult res = server.Submit(CopyRequest(reqs[0])).get();
  EXPECT_EQ(res.model_generation, 1u);
  EXPECT_EQ(res.logits[0], ref_a[0]);  // incumbent fleet untouched
  server.Shutdown();

  const serve::ServeMetricsSnapshot snap = server.SnapshotWithCacheStats();
  EXPECT_EQ(snap.swaps_rejected, 1);
  EXPECT_EQ(snap.swaps_ok, 0);
  for (const serve::ShardSnapshot& s : snap.shards) {
    EXPECT_EQ(s.swaps_prepared, 0);  // a rejected prepare is never counted
  }
}

// ---------------------------------------------------------------------------
// Generation-metric retention (the MetricsJson unbounded-growth fix)
// ---------------------------------------------------------------------------

TEST(ShardGenMetrics, RetentionPrunesRetiredGenerations) {
  serve::ServeMetrics m;
  m.SetGenerationRetention(2);
  for (uint64_t g = 1; g <= 5; ++g) {
    m.Generation(g)->ok.Add(static_cast<int64_t>(g));
    if (g > 1) m.RecordSwapOk(g);
  }
  const serve::ServeMetricsSnapshot snap = m.Snapshot();
  ASSERT_EQ(snap.generations.size(), 2u);
  EXPECT_EQ(snap.generations[0].generation, 4u);
  EXPECT_EQ(snap.generations[0].requests_ok, 4);
  EXPECT_EQ(snap.generations[1].generation, 5u);
  EXPECT_EQ(snap.generations[1].requests_ok, 5);
}

TEST(ShardGenMetrics, ZeroRetentionKeepsEveryGeneration) {
  serve::ServeMetrics m;  // retention defaults to 0 = unbounded
  for (uint64_t g = 1; g <= 5; ++g) {
    m.Generation(g)->ok.Add(1);
    if (g > 1) m.RecordSwapOk(g);
  }
  EXPECT_EQ(m.Snapshot().generations.size(), 5u);
}

TEST(ShardGenMetrics, PrunedBlockStaysRecordableForLaggingConsumers) {
  serve::ServeMetrics m;
  m.SetGenerationRetention(1);
  std::shared_ptr<serve::ServeMetrics::GenerationBlock> lagging =
      m.Generation(1);
  m.RecordSwapOk(2);   // generation 1 pruned from reporting
  m.Generation(2)->ok.Add(1);  // a consumer re-pins onto the new generation
  lagging->ok.Add(7);  // a consumer mid-batch on gen 1 — must not crash
  const serve::ServeMetricsSnapshot snap = m.Snapshot();
  ASSERT_EQ(snap.generations.size(), 1u);
  EXPECT_EQ(snap.generations[0].generation, 2u);
}

TEST(ShardGenMetrics, ServerPrunesRetiredBlocksFromMetricsJson) {
  Rng rng(263);
  const DatasetSpec spec = MixedSpec();
  std::shared_ptr<const DlrmModel> model = BuildMixedModel(spec, rng);
  SyntheticCriteoConfig data_cfg;
  data_cfg.spec = spec;
  SyntheticCriteo data(data_cfg);
  const std::vector<serve::InferenceRequest> reqs =
      serve::SplitSamples(data.EvalBatch(6));

  serve::InferenceServerConfig cfg;
  cfg.governor.enabled = false;
  cfg.keep_generation_metrics = 1;
  serve::InferenceServer server(model, cfg);
  for (int swap = 0; swap < 3; ++swap) {
    server.Submit(CopyRequest(reqs[static_cast<size_t>(swap)])).get();
    server.SwapModel(model);
  }
  server.Submit(CopyRequest(reqs[3])).get();
  server.Shutdown();

  const serve::ServeMetricsSnapshot snap = server.SnapshotWithCacheStats();
  EXPECT_EQ(snap.requests_ok, 4);
  ASSERT_EQ(snap.generations.size(), 1u);  // only the serving generation
  EXPECT_EQ(snap.generations[0].generation, 4u);
}

}  // namespace
}  // namespace ttrec
