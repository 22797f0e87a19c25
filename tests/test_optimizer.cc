// Adagrad support across the stack: exact update rules on TT cores / dense
// tables / MLP layers / cached rows, optimizer plumbing through DlrmModel
// and the trainer, and the unsupported-operator error path.
#include <gtest/gtest.h>

#include <cmath>

#include "baselines/lowrank_embedding.h"
#include "cache/cached_tt_embedding.h"
#include "dlrm/embedding_adapters.h"
#include "dlrm/embedding_bag.h"
#include "dlrm/model.h"
#include "dlrm/optimizer.h"
#include "dlrm/trainer.h"
#include "tensor/check.h"

namespace ttrec {
namespace {

TEST(OptimizerConfig, Factories) {
  const OptimizerConfig sgd = OptimizerConfig::Sgd(0.5f);
  EXPECT_EQ(sgd.kind, OptimizerConfig::Kind::kSgd);
  EXPECT_FLOAT_EQ(sgd.lr, 0.5f);
  const OptimizerConfig ada = OptimizerConfig::Adagrad(0.1f, 1e-6f);
  EXPECT_EQ(ada.kind, OptimizerConfig::Kind::kAdagrad);
  EXPECT_FLOAT_EQ(ada.eps, 1e-6f);
}

TEST(OptimizerConfig, NameRoundTrip) {
  EXPECT_EQ(OptimizerKindFromName("sgd"), OptimizerConfig::Kind::kSgd);
  EXPECT_EQ(OptimizerKindFromName("adagrad"),
            OptimizerConfig::Kind::kAdagrad);
  EXPECT_STREQ(OptimizerName(OptimizerConfig::Kind::kAdagrad), "adagrad");
  EXPECT_THROW(OptimizerKindFromName("adam"), ConfigError);
}

TEST(TtAdagrad, FirstStepMatchesClosedForm) {
  Rng rng(1);
  TtEmbeddingConfig cfg;
  cfg.shape = MakeTtShape(60, 8, 3, 2);
  TtEmbeddingBag emb(cfg, TtInit::kGaussian, rng);

  CsrBatch batch = CsrBatch::FromIndices({7});
  std::vector<float> out(8), g(8, 1.0f);
  emb.Forward(batch, out.data());
  emb.Backward(batch, g.data());

  std::vector<Tensor> before, grads;
  for (int k = 0; k < 3; ++k) {
    before.push_back(emb.cores().core(k));
    grads.push_back(emb.core_grad(k));
  }
  const float lr = 0.1f, eps = 1e-8f;
  emb.ApplyAdagrad(lr, eps);
  // First step: state == g^2, so w' = w - lr * g / (|g| + eps) == w - lr *
  // sign(g), elementwise (where g != 0).
  for (int k = 0; k < 3; ++k) {
    const Tensor& after = emb.cores().core(k);
    for (int64_t i = 0; i < after.numel(); ++i) {
      const float gv = grads[static_cast<size_t>(k)][i];
      const float expected =
          before[static_cast<size_t>(k)][i] -
          (gv == 0.0f ? 0.0f
                      : lr * gv / (std::abs(gv) + eps));
      EXPECT_NEAR(after[i], expected, 1e-6f) << "core " << k << " i " << i;
    }
    EXPECT_EQ(emb.core_grad(k).Norm(), 0.0);  // grads cleared
  }
}

TEST(TtAdagrad, AccumulatorShrinksLaterSteps) {
  Rng rng(2);
  TtEmbeddingConfig cfg;
  cfg.shape = MakeTtShape(60, 8, 3, 2);
  TtEmbeddingBag emb(cfg, TtInit::kGaussian, rng);
  CsrBatch batch = CsrBatch::FromIndices({3});
  std::vector<float> out(8), g(8, 1.0f);

  auto step_delta = [&]() {
    emb.Forward(batch, out.data());
    emb.Backward(batch, g.data());
    const Tensor before = emb.cores().core(1);
    emb.ApplyAdagrad(0.1f);
    return MaxAbsDiff(before, emb.cores().core(1));
  };
  const double d1 = step_delta();
  // Drive several steps with consistent gradients; step sizes must shrink.
  double dn = d1;
  for (int i = 0; i < 5; ++i) dn = step_delta();
  EXPECT_LT(dn, d1);
  EXPECT_THROW(emb.ApplyAdagrad(0.1f, 0.0f), ConfigError);
}

TEST(DenseRowwiseAdagrad, MatchesManualComputation) {
  Tensor table({4, 2});
  table.Fill(1.0f);
  DenseEmbeddingBag emb(std::move(table), PoolingMode::kSum);
  CsrBatch batch = CsrBatch::FromIndices({2});
  std::vector<float> g = {3.0f, 4.0f};
  emb.Backward(batch, g.data());
  const float lr = 0.1f, eps = 1e-8f;
  emb.ApplyUpdate(OptimizerConfig::Adagrad(lr, eps));
  // Row accumulator = mean(g^2) = (9 + 16) / 2 = 12.5.
  const float scale = lr / (std::sqrt(12.5f) + eps);
  EXPECT_NEAR(emb.table().at({2, 0}), 1.0f - scale * 3.0f, 1e-6f);
  EXPECT_NEAR(emb.table().at({2, 1}), 1.0f - scale * 4.0f, 1e-6f);
  // Untouched rows unchanged.
  EXPECT_FLOAT_EQ(emb.table().at({0, 0}), 1.0f);
  // Second step on the same row uses the accumulated state (smaller step).
  emb.Backward(batch, g.data());
  const float before = emb.table().at({2, 0});
  emb.ApplyUpdate(OptimizerConfig::Adagrad(lr, eps));
  const float second_delta = before - emb.table().at({2, 0});
  EXPECT_LT(second_delta, scale * 3.0f);
  EXPECT_GT(second_delta, 0.0f);
}

TEST(MlpAdagrad, ConvergesOnRegression) {
  Rng rng(3);
  Mlp mlp({4, 16, 2}, /*final_relu=*/false, rng);
  std::vector<float> x(32), target(16);
  FillUniform(rng, x, -1, 1);
  FillUniform(rng, target, -1, 1);
  double first = -1, last = -1;
  for (int step = 0; step < 300; ++step) {
    std::vector<float> y(16), dy(16);
    mlp.Forward(x.data(), 8, y.data());
    double loss = 0;
    for (size_t i = 0; i < y.size(); ++i) {
      const float d = y[i] - target[i];
      loss += 0.5 * d * d;
      dy[i] = d;
    }
    if (step == 0) first = loss;
    last = loss;
    mlp.Backward(dy.data(), 8, nullptr);
    mlp.ApplyAdagrad(0.1f);
  }
  EXPECT_LT(last, 0.05 * first);
}

TEST(CacheAdagrad, UpdatesCachedRowsAndResetsOnPopulate) {
  LfuRowCache cache(2, 2);
  std::vector<float> vals = {1, 1, 2, 2};
  cache.Populate(std::vector<int64_t>{5, 6}, vals.data());
  float* g = cache.GradFor(cache.Peek(5));
  g[0] = 2.0f;
  cache.ApplyAdagrad(0.1f);
  EXPECT_NEAR(cache.Peek(5)[0], 1.0f - 0.1f, 1e-5f);  // sign step
  // Second identical gradient: smaller step.
  cache.GradFor(cache.Peek(5))[0] = 2.0f;
  const float before = cache.Peek(5)[0];
  cache.ApplyAdagrad(0.1f);
  EXPECT_LT(before - cache.Peek(5)[0], 0.1f);
  // Repopulate clears the accumulator: a fresh row steps at full size again.
  cache.Populate(std::vector<int64_t>{7}, vals.data());
  cache.GradFor(cache.Peek(7))[0] = 2.0f;
  const float fresh_before = cache.Peek(7)[0];
  cache.ApplyAdagrad(0.1f);
  EXPECT_NEAR(fresh_before - cache.Peek(7)[0], 0.1f, 1e-5f);
}

TEST(EmbeddingOpAdapters, RouteAdagrad) {
  Rng rng(4);
  TtEmbeddingConfig tcfg;
  tcfg.shape = MakeTtShape(60, 8, 3, 2);
  TtEmbeddingAdapter tt(tcfg, TtInit::kGaussian, rng);
  CsrBatch batch = CsrBatch::FromIndices({1});
  std::vector<float> out(8), g(8, 1.0f);
  tt.Forward(batch, out.data());
  tt.Backward(batch, g.data());
  const Tensor before = tt.tt().cores().core(0);
  tt.ApplyUpdate(OptimizerConfig::Adagrad(0.1f));
  EXPECT_GT(MaxAbsDiff(before, tt.tt().cores().core(0)), 1e-4);
}

TEST(EmbeddingOpAdapters, UnsupportedOperatorThrows) {
  Rng rng(5);
  LowRankEmbeddingBag lowrank(16, 4, 2, PoolingMode::kSum, rng);
  EXPECT_NO_THROW(lowrank.ApplyUpdate(OptimizerConfig::Sgd(0.1f)));
  EXPECT_THROW(lowrank.ApplyUpdate(OptimizerConfig::Adagrad(0.1f)),
               ConfigError);
}

TEST(Trainer, AdagradTrainsEndToEnd) {
  SyntheticCriteoConfig dc;
  dc.spec.name = "tiny";
  dc.spec.table_rows.assign(4, 200);
  dc.teacher_scale = 4.0;
  dc.seed = 7;
  SyntheticCriteo data(dc);

  DlrmConfig mc;
  mc.emb_dim = 8;
  mc.bottom_hidden = {16};
  mc.top_hidden = {16};
  Rng rng(6);
  std::vector<std::unique_ptr<EmbeddingOp>> tables;
  for (int64_t rows : dc.spec.table_rows) {
    TtEmbeddingConfig tcfg;
    tcfg.shape = MakeTtShape(rows, 8, 3, 4);
    tables.push_back(std::make_unique<TtEmbeddingAdapter>(
        tcfg, TtInit::kSampledGaussian, rng));
  }
  DlrmModel model(mc, std::move(tables), rng);

  TrainConfig tc;
  tc.iterations = 250;
  tc.batch_size = 64;
  tc.lr = 0.05f;
  tc.optimizer = OptimizerConfig::Kind::kAdagrad;
  tc.eval_batches = 2;
  tc.eval_batch_size = 512;
  const TrainResult r = TrainDlrm(model, data, tc);
  EXPECT_GT(r.final_eval.accuracy, 0.60);
  EXPECT_GT(r.final_eval.auc, 0.62);
  ASSERT_GE(r.loss_history.size(), 2u);
  EXPECT_LT(r.loss_history.back(), r.loss_history.front());
}

}  // namespace
}  // namespace ttrec
