// End-to-end DLRM tests: dense embedding bag correctness, model wiring,
// training actually learns the planted teacher, TT-Rec and cached TT-Rec
// drop-in equivalence of interfaces, determinism.
#include <gtest/gtest.h>

#include <cmath>

#include "dlrm/embedding_adapters.h"
#include "dlrm/embedding_bag.h"
#include "dlrm/loss.h"
#include "dlrm/model.h"
#include "dlrm/trainer.h"
#include "tensor/check.h"

namespace ttrec {
namespace {

TEST(DenseEmbeddingBag, ForwardGatherAndPool) {
  Tensor table({4, 2}, {1, 2, 3, 4, 5, 6, 7, 8});
  DenseEmbeddingBag emb(std::move(table), PoolingMode::kSum);
  CsrBatch batch;
  batch.indices = {0, 2, 3};
  batch.offsets = {0, 2, 3};
  std::vector<float> out(4);
  emb.Forward(batch, out.data());
  EXPECT_FLOAT_EQ(out[0], 6.0f);   // rows 0 + 2
  EXPECT_FLOAT_EQ(out[1], 8.0f);
  EXPECT_FLOAT_EQ(out[2], 7.0f);   // row 3
  EXPECT_FLOAT_EQ(out[3], 8.0f);
}

TEST(DenseEmbeddingBag, MeanPoolingAndWeights) {
  Tensor table({3, 1}, {1, 2, 4});
  DenseEmbeddingBag emb(std::move(table), PoolingMode::kMean);
  CsrBatch batch;
  batch.indices = {0, 1, 2};
  batch.offsets = {0, 3};
  batch.weights = {1.0f, 1.0f, 4.0f};
  std::vector<float> out(1);
  emb.Forward(batch, out.data());
  EXPECT_FLOAT_EQ(out[0], (1.0f + 2.0f + 16.0f) / 3.0f);
}

TEST(DenseEmbeddingBag, BackwardAccumulatesSparseAndSgdApplies) {
  Tensor table({5, 2});
  DenseEmbeddingBag emb(std::move(table), PoolingMode::kSum);
  CsrBatch batch;
  batch.indices = {1, 1, 4};
  batch.offsets = {0, 2, 3};
  std::vector<float> g = {1.0f, 2.0f, 3.0f, 4.0f};
  emb.Backward(batch, g.data());
  // Only rows 1 and 4 touched; row 1 accumulated twice.
  EXPECT_EQ(emb.sparse_grads().size(), 2u);
  EXPECT_FLOAT_EQ(emb.sparse_grads().at(1)[0], 2.0f);
  EXPECT_FLOAT_EQ(emb.sparse_grads().at(4)[1], 4.0f);
  emb.ApplySgd(1.0f);
  EXPECT_FLOAT_EQ(emb.table().at({1, 0}), -2.0f);
  EXPECT_FLOAT_EQ(emb.table().at({4, 1}), -4.0f);
  EXPECT_FLOAT_EQ(emb.table().at({0, 0}), 0.0f);  // untouched
  EXPECT_TRUE(emb.sparse_grads().empty());
}

TEST(DenseEmbeddingBag, InitDistributions) {
  Rng rng(3);
  DenseEmbeddingBag uni(10000, 4, PoolingMode::kSum,
                        DenseEmbeddingInit::UniformScaled(), rng);
  const double bound = 1.0 / std::sqrt(10000.0);
  for (int64_t i = 0; i < uni.table().numel(); ++i) {
    EXPECT_LE(std::abs(uni.table()[i]), bound);
  }
  DenseEmbeddingBag gauss(10000, 4, PoolingMode::kSum,
                          DenseEmbeddingInit::MatchedGaussian(10000), rng);
  double var = 0.0;
  for (int64_t i = 0; i < gauss.table().numel(); ++i) {
    var += static_cast<double>(gauss.table()[i]) * gauss.table()[i];
  }
  var /= static_cast<double>(gauss.table().numel());
  EXPECT_NEAR(var / (1.0 / (3.0 * 10000.0)), 1.0, 0.15);
}

// ---------------------------------------------------------------------------
// Full model
// ---------------------------------------------------------------------------

DlrmConfig TinyDlrmConfig() {
  DlrmConfig cfg;
  cfg.emb_dim = 8;
  cfg.bottom_hidden = {16};
  cfg.top_hidden = {16};
  return cfg;
}

SyntheticCriteoConfig TinyDataConfig(int num_tables = 4) {
  SyntheticCriteoConfig cfg;
  cfg.spec.name = "tiny";
  cfg.spec.num_dense = 13;
  cfg.spec.table_rows.assign(static_cast<size_t>(num_tables), 200);
  cfg.zipf_exponent = 1.05;
  cfg.teacher_scale = 4.0;
  cfg.seed = 7;
  return cfg;
}

std::vector<std::unique_ptr<EmbeddingOp>> DenseTables(
    const DatasetSpec& spec, int64_t emb_dim, Rng& rng) {
  std::vector<std::unique_ptr<EmbeddingOp>> tables;
  for (int64_t rows : spec.table_rows) {
    tables.push_back(std::make_unique<DenseEmbeddingBag>(
        rows, emb_dim, PoolingMode::kSum,
        DenseEmbeddingInit::UniformScaled(), rng));
  }
  return tables;
}

TEST(DlrmModel, ForwardShapesAndDeterminism) {
  Rng rng(11);
  SyntheticCriteo data(TinyDataConfig());
  DlrmModel model(TinyDlrmConfig(),
                  DenseTables(data.config().spec, 8, rng), rng);
  MiniBatch batch = data.EvalBatch(16);
  std::vector<float> l1(16), l2(16);
  model.PredictLogits(batch, l1.data());
  model.PredictLogits(batch, l2.data());
  EXPECT_EQ(l1, l2);
}

TEST(DlrmModel, TrainingLearnsPlantedTeacher) {
  Rng rng(13);
  SyntheticCriteo data(TinyDataConfig());
  DlrmModel model(TinyDlrmConfig(),
                  DenseTables(data.config().spec, 8, rng), rng);
  TrainConfig tc;
  tc.iterations = 300;
  tc.batch_size = 64;
  tc.lr = 0.1f;
  tc.eval_batches = 2;
  tc.eval_batch_size = 512;
  const TrainResult result = TrainDlrm(model, data, tc);
  // The planted teacher is learnable: accuracy well above chance and AUC
  // clearly above 0.5. (Labels are stochastic, so ceilings are < 1.)
  EXPECT_GT(result.final_eval.accuracy, 0.62);
  EXPECT_GT(result.final_eval.auc, 0.65);
  // Loss decreased from the start.
  ASSERT_GE(result.loss_history.size(), 2u);
  EXPECT_LT(result.loss_history.back(), result.loss_history.front());
}

TEST(DlrmModel, TtRecTrainsComparablyToBaseline) {
  // The headline accuracy claim at small scale: TT-compressed tables reach
  // accuracy close to the dense baseline on the same data.
  SyntheticCriteoConfig dc = TinyDataConfig();
  TrainConfig tc;
  tc.iterations = 250;
  tc.batch_size = 64;
  tc.lr = 0.1f;
  tc.eval_batches = 2;
  tc.eval_batch_size = 512;

  Rng rng_a(21);
  SyntheticCriteo data_a(dc);
  DlrmModel baseline(TinyDlrmConfig(), DenseTables(dc.spec, 8, rng_a), rng_a);
  const TrainResult rb = TrainDlrm(baseline, data_a, tc);

  Rng rng_b(21);
  SyntheticCriteo data_b(dc);
  std::vector<std::unique_ptr<EmbeddingOp>> tt_tables;
  for (int64_t rows : dc.spec.table_rows) {
    TtEmbeddingConfig tcfg;
    tcfg.shape = MakeTtShape(rows, 8, 3, 8);
    tt_tables.push_back(std::make_unique<TtEmbeddingAdapter>(
        tcfg, TtInit::kSampledGaussian, rng_b));
  }
  DlrmModel ttrec(TinyDlrmConfig(), std::move(tt_tables), rng_b);
  const TrainResult rt = TrainDlrm(ttrec, data_b, tc);

  EXPECT_GT(rt.final_eval.accuracy, rb.final_eval.accuracy - 0.05);
  // And it is actually smaller.
  EXPECT_LT(ttrec.EmbeddingMemoryBytes(), baseline.EmbeddingMemoryBytes());
}

TEST(DlrmModel, CachedTtRecTrainsAndHitsCache) {
  SyntheticCriteoConfig dc = TinyDataConfig();
  dc.zipf_exponent = 1.3;
  Rng rng(31);
  SyntheticCriteo data(dc);
  std::vector<std::unique_ptr<EmbeddingOp>> tables;
  std::vector<CachedTtEmbeddingAdapter*> raw;
  for (int64_t rows : dc.spec.table_rows) {
    CachedTtConfig ccfg;
    ccfg.tt.shape = MakeTtShape(rows, 8, 3, 4);
    ccfg.cache_capacity = 16;
    ccfg.warmup_iterations = 20;
    ccfg.refresh_interval = 10;
    auto t = std::make_unique<CachedTtEmbeddingAdapter>(
        ccfg, TtInit::kSampledGaussian, rng);
    raw.push_back(t.get());
    tables.push_back(std::move(t));
  }
  DlrmModel model(TinyDlrmConfig(), std::move(tables), rng);
  TrainConfig tc;
  tc.iterations = 120;
  tc.batch_size = 64;
  tc.lr = 0.1f;
  tc.eval_batches = 1;
  tc.eval_batch_size = 256;
  const TrainResult r = TrainDlrm(model, data, tc);
  EXPECT_GT(r.final_eval.accuracy, 0.55);
  for (auto* t : raw) {
    EXPECT_TRUE(t->op().warmed_up());
    EXPECT_GT(t->op().HitRate(), 0.05) << "Zipf-hot rows should hit";
  }
}

TEST(DlrmModel, EvaluateLeavesCacheWarmUpAlone) {
  // Held-out batches run the const forward: they must not advance a cached
  // table's warm-up clock, feed its frequency tracker or trigger a refresh.
  Rng rng(33);
  SyntheticCriteo data(TinyDataConfig(1));
  CachedTtConfig ccfg;
  ccfg.tt.shape = MakeTtShape(200, 8, 3, 4);
  ccfg.cache_capacity = 16;
  ccfg.warmup_iterations = 10;
  ccfg.refresh_interval = 2;
  auto table = std::make_unique<CachedTtEmbeddingAdapter>(
      ccfg, TtInit::kSampledGaussian, rng);
  const CachedTtEmbeddingBag& cached = table->op();
  std::vector<std::unique_ptr<EmbeddingOp>> tables;
  tables.push_back(std::move(table));
  DlrmModel model(TinyDlrmConfig(), std::move(tables), rng);
  for (int step = 0; step < 3; ++step) {
    (void)model.TrainStep(data.NextBatch(32), 0.1f);
  }
  ASSERT_EQ(cached.iteration(), 3);
  const int64_t refreshes = cached.refreshes();

  std::vector<MiniBatch> held_out;
  for (uint64_t seed = 1; seed <= 4; ++seed) {
    held_out.push_back(data.EvalBatch(64, seed));
  }
  const EvalMetrics m = model.Evaluate(held_out);
  EXPECT_EQ(cached.iteration(), 3);
  EXPECT_EQ(cached.refreshes(), refreshes);

  // The metrics are those of the const forward's logits.
  EvalMetrics want;
  want.auc = 0.0;
  InferenceScratch scratch;
  for (const MiniBatch& b : held_out) {
    std::vector<float> logits(static_cast<size_t>(b.batch_size()));
    model.PredictLogits(b, logits.data(), scratch);
    want.loss += BceWithLogits(logits, b.labels, nullptr);
    want.accuracy += BinaryAccuracy(logits, b.labels);
    want.auc += AucRoc(logits, b.labels);
  }
  EXPECT_EQ(m.loss, want.loss / 4.0);
  EXPECT_EQ(m.accuracy, want.accuracy / 4.0);
  EXPECT_EQ(m.auc, want.auc / 4.0);
}

TEST(DlrmModel, Validation) {
  Rng rng(41);
  SyntheticCriteo data(TinyDataConfig());
  // emb_dim mismatch between table and model.
  std::vector<std::unique_ptr<EmbeddingOp>> tables;
  tables.push_back(std::make_unique<DenseEmbeddingBag>(
      100, 4, PoolingMode::kSum, DenseEmbeddingInit::UniformScaled(), rng));
  EXPECT_THROW(DlrmModel(TinyDlrmConfig(), std::move(tables), rng),
               ConfigError);
  // Batch with wrong table count.
  DlrmModel model(TinyDlrmConfig(),
                  DenseTables(TinyDataConfig().spec, 8, rng), rng);
  MiniBatch bad = data.EvalBatch(4);
  bad.sparse.pop_back();
  std::vector<float> logits(4);
  EXPECT_THROW(model.PredictLogits(bad, logits.data()), ShapeError);
}

TEST(MakeBaselineDlrm, BuildsAllTables) {
  Rng rng(51);
  DlrmConfig cfg = TinyDlrmConfig();
  const DatasetSpec spec = KaggleSpec().Scaled(100000);
  auto model = MakeBaselineDlrm(cfg, spec, rng);
  EXPECT_EQ(model->num_tables(), 26);
  EXPECT_EQ(model->EmbeddingMemoryBytes(),
            spec.TotalEmbeddingParams(cfg.emb_dim) * 4);
}

TEST(Trainer, RecordsTimeAndHistory) {
  Rng rng(61);
  SyntheticCriteo data(TinyDataConfig(2));
  DlrmModel model(TinyDlrmConfig(),
                  DenseTables(data.config().spec, 8, rng), rng);
  TrainConfig tc;
  tc.iterations = 20;
  tc.batch_size = 16;
  tc.log_every = 5;
  tc.eval_batches = 1;
  tc.eval_batch_size = 64;
  const TrainResult r = TrainDlrm(model, data, tc);
  EXPECT_EQ(r.iterations, 20);
  EXPECT_EQ(r.loss_history.size(), 4u);
  EXPECT_GT(r.train_seconds, 0.0);
  EXPECT_GT(r.MsPerIteration(), 0.0);
}

}  // namespace
}  // namespace ttrec
