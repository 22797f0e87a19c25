// Interface-conformance property suite: every EmbeddingOp implementation
// must satisfy the same contracts — forward determinism, weight/pooling
// semantics, output overwrite (not accumulate), index validation, and (for
// trainable ops) loss reduction under its optimizer.
#include <gtest/gtest.h>

#include <cstring>
#include <functional>
#include <memory>
#include <ostream>
#include <string>

#include "baselines/hashed_embedding.h"
#include "baselines/lowrank_embedding.h"
#include "baselines/t3nsor_embedding.h"
#include "cache/cached_tt_embedding.h"
#include "dlrm/embedding_adapters.h"
#include "dlrm/embedding_bag.h"
#include "tensor/check.h"

namespace ttrec {
namespace {

constexpr int64_t kRows = 60;
constexpr int64_t kDim = 8;

struct OpFactory {
  std::string name;
  bool trainable;
  bool pools_prefetched_rows;  // implements PoolPrefetchedRows
  std::function<std::unique_ptr<EmbeddingOp>(uint64_t seed,
                                             PoolingMode pooling)>
      build;

  std::unique_ptr<EmbeddingOp> make(
      uint64_t seed, PoolingMode pooling = PoolingMode::kSum) const {
    return build(seed, pooling);
  }
};

// gtest_discover_tests puts the printed parameter into each CTest name. The
// default printer dumps the struct's bytes, addresses included, so the names
// would change with every build; print the family name instead.
void PrintTo(const OpFactory& f, std::ostream* os) { *os << f.name; }

std::vector<OpFactory> AllFactories() {
  std::vector<OpFactory> fs;
  fs.push_back({"dense", true, true,
                [](uint64_t seed,
                   PoolingMode pooling) -> std::unique_ptr<EmbeddingOp> {
                  Rng rng(seed);
                  return std::make_unique<DenseEmbeddingBag>(
                      kRows, kDim, pooling,
                      DenseEmbeddingInit::UniformScaled(), rng);
                }});
  fs.push_back({"tt", true, true,
                [](uint64_t seed,
                   PoolingMode pooling) -> std::unique_ptr<EmbeddingOp> {
                  Rng rng(seed);
                  TtEmbeddingConfig cfg;
                  cfg.shape = MakeTtShape(kRows, kDim, 3, 4);
                  cfg.pooling = pooling;
                  return std::make_unique<TtEmbeddingAdapter>(
                      cfg, TtInit::kGaussian, rng);
                }});
  fs.push_back({"tt_dedup", true, true,
                [](uint64_t seed,
                   PoolingMode pooling) -> std::unique_ptr<EmbeddingOp> {
                  Rng rng(seed);
                  TtEmbeddingConfig cfg;
                  cfg.shape = MakeTtShape(kRows, kDim, 3, 4);
                  cfg.pooling = pooling;
                  cfg.deduplicate = true;
                  return std::make_unique<TtEmbeddingAdapter>(
                      cfg, TtInit::kGaussian, rng);
                }});
  fs.push_back({"cached_tt", true, true,
                [](uint64_t seed,
                   PoolingMode pooling) -> std::unique_ptr<EmbeddingOp> {
                  Rng rng(seed);
                  CachedTtConfig cfg;
                  cfg.tt.shape = MakeTtShape(kRows, kDim, 3, 4);
                  cfg.tt.pooling = pooling;
                  cfg.cache_capacity = 8;
                  cfg.warmup_iterations = 2;
                  cfg.refresh_interval = 1;
                  return std::make_unique<CachedTtEmbeddingAdapter>(
                      cfg, TtInit::kGaussian, rng);
                }});
  fs.push_back({"t3nsor", true, false,
                [](uint64_t seed,
                   PoolingMode pooling) -> std::unique_ptr<EmbeddingOp> {
                  Rng rng(seed);
                  TtEmbeddingConfig cfg;
                  cfg.shape = MakeTtShape(kRows, kDim, 3, 4);
                  cfg.pooling = pooling;
                  return std::make_unique<T3nsorEmbeddingBag>(
                      cfg, TtInit::kGaussian, rng);
                }});
  fs.push_back({"hashed", true, false,
                [](uint64_t seed,
                   PoolingMode pooling) -> std::unique_ptr<EmbeddingOp> {
                  Rng rng(seed);
                  return std::make_unique<HashedEmbeddingBag>(
                      kRows, 16, kDim, pooling, rng);
                }});
  fs.push_back({"lowrank", true, false,
                [](uint64_t seed,
                   PoolingMode pooling) -> std::unique_ptr<EmbeddingOp> {
                  Rng rng(seed);
                  return std::make_unique<LowRankEmbeddingBag>(
                      kRows, kDim, 3, pooling, rng);
                }});
  return fs;
}

class EmbeddingConformance : public ::testing::TestWithParam<OpFactory> {};

TEST_P(EmbeddingConformance, ReportsGeometryAndPositiveMemory) {
  auto op = GetParam().make(1);
  EXPECT_EQ(op->num_rows(), kRows);
  EXPECT_EQ(op->emb_dim(), kDim);
  EXPECT_GT(op->MemoryBytes(), 0);
  EXPECT_FALSE(op->Name().empty());
}

TEST_P(EmbeddingConformance, ForwardOverwritesOutput) {
  auto op = GetParam().make(2);
  CsrBatch batch = CsrBatch::FromIndices({1, 2});
  std::vector<float> a(static_cast<size_t>(2 * kDim), 123.0f);
  std::vector<float> b(static_cast<size_t>(2 * kDim), -777.0f);
  op->Forward(batch, a.data());
  op->Forward(batch, b.data());
  for (size_t i = 0; i < a.size(); ++i) {
    EXPECT_EQ(a[i], b[i]) << GetParam().name << " output " << i;
  }
}

TEST_P(EmbeddingConformance, EmptyBagsYieldZeros) {
  auto op = GetParam().make(3);
  CsrBatch batch;
  batch.indices = {5};
  batch.offsets = {0, 0, 1, 1};  // bags 0 and 2 empty
  std::vector<float> out(static_cast<size_t>(3 * kDim), 9.0f);
  op->Forward(batch, out.data());
  for (int64_t j = 0; j < kDim; ++j) {
    EXPECT_EQ(out[static_cast<size_t>(j)], 0.0f) << GetParam().name;
    EXPECT_EQ(out[static_cast<size_t>(2 * kDim + j)], 0.0f)
        << GetParam().name;
  }
}

TEST_P(EmbeddingConformance, WeightsScaleLinearly) {
  auto op = GetParam().make(4);
  CsrBatch unweighted = CsrBatch::FromIndices({7});
  CsrBatch weighted = unweighted;
  weighted.weights = {2.5f};
  std::vector<float> a(static_cast<size_t>(kDim)), b(a.size());
  op->Forward(unweighted, a.data());
  op->Forward(weighted, b.data());
  for (size_t i = 0; i < a.size(); ++i) {
    EXPECT_NEAR(b[i], 2.5f * a[i], 1e-4f) << GetParam().name;
  }
}

TEST_P(EmbeddingConformance, RejectsOutOfRangeIndices) {
  auto op = GetParam().make(5);
  std::vector<float> out(static_cast<size_t>(kDim));
  CsrBatch too_big = CsrBatch::FromIndices({kRows});
  EXPECT_THROW(op->Forward(too_big, out.data()), IndexError)
      << GetParam().name;
  CsrBatch negative = CsrBatch::FromIndices({-1});
  EXPECT_THROW(op->Forward(negative, out.data()), IndexError)
      << GetParam().name;
}

TEST_P(EmbeddingConformance, SgdTrainingReducesRegressionLoss) {
  if (!GetParam().trainable) GTEST_SKIP();
  auto op = GetParam().make(6);
  CsrBatch batch = CsrBatch::FromIndices({11, 23});
  std::vector<float> target(static_cast<size_t>(2 * kDim));
  Rng trng(9);
  for (float& x : target) x = static_cast<float>(trng.Uniform(-0.3, 0.3));
  std::vector<float> out(target.size()), grad(target.size());
  double first = -1, last = -1;
  for (int step = 0; step < 250; ++step) {
    op->Forward(batch, out.data());
    double loss = 0;
    for (size_t i = 0; i < out.size(); ++i) {
      const float d = out[i] - target[i];
      loss += 0.5 * d * d;
      grad[i] = d;
    }
    if (step == 0) first = loss;
    last = loss;
    op->Backward(batch, grad.data());
    op->ApplySgd(0.3f);
  }
  EXPECT_LT(last, 0.05 * first + 1e-9) << GetParam().name;
}

void ExpectBitwiseEqual(const std::vector<float>& want,
                        const std::vector<float>& got, const char* what) {
  ASSERT_EQ(want.size(), got.size()) << what;
  for (size_t i = 0; i < want.size(); ++i) {
    ASSERT_EQ(std::memcmp(&want[i], &got[i], sizeof(float)), 0)
        << what << " differs at " << i << ": " << want[i] << " vs "
        << got[i];
  }
}

// Training and serving run one pooling path per family: Forward,
// ForwardInference and PoolPrefetchedRows must agree bitwise on a batch
// with duplicate ids and empty bags, under sum and mean pooling, with and
// without weights. Cached TT is compared after its warm-up, with both cache
// hits and misses in the batch; TT with dedup is compared against the
// serving path, which never dedups. The prefetched rows come from one
// single-id ForwardInference per lookup.
TEST_P(EmbeddingConformance, ForwardPathsAgreeBitwise) {
  const CsrBatch warm = CsrBatch::FromIndices({3, 7, 11, 3, 7, 3});
  CsrBatch batch;
  batch.indices = {3, 7, 3, 11, 42, 7, 0, 59, 42, 42, 3};
  batch.offsets = {0, 3, 3, 6, 7, 7, 11};  // bags 1 and 4 empty
  const std::vector<float> weights = {0.5f, -1.25f, 2.0f, 0.75f, 1.5f, -0.5f,
                                      3.0f, 0.25f, -2.0f, 1.0f, 0.125f};
  const size_t out_size = static_cast<size_t>(batch.num_bags() * kDim);
  for (PoolingMode pooling : {PoolingMode::kSum, PoolingMode::kMean}) {
    for (bool weighted : {false, true}) {
      SCOPED_TRACE(std::string(pooling == PoolingMode::kSum ? "sum" : "mean") +
                   (weighted ? ", weighted" : ", unweighted"));
      batch.weights = weighted ? weights : std::vector<float>{};
      auto op = GetParam().make(8, pooling);
      std::vector<float> train(out_size), serve(out_size), pooled(out_size);
      // Past the cached family's warm-up: its cache is frozen from here.
      std::vector<float> warm_out(static_cast<size_t>(warm.num_bags() * kDim));
      for (int i = 0; i < 3; ++i) op->Forward(warm, warm_out.data());
      if (auto* c = dynamic_cast<CachedTtEmbeddingAdapter*>(op.get())) {
        ASSERT_TRUE(c->op().warmed_up());
        ASSERT_TRUE(c->op().cache().Contains(3));    // a hit
        ASSERT_FALSE(c->op().cache().Contains(42));  // a miss
      }
      op->Forward(batch, train.data());
      try {
        op->ForwardInference(batch, serve.data());
      } catch (const ConfigError&) {
        GTEST_SKIP() << GetParam().name << " has no ForwardInference";
      }
      ExpectBitwiseEqual(train, serve, "ForwardInference vs Forward");
      if (!GetParam().pools_prefetched_rows) continue;

      std::vector<float> rows(batch.indices.size() * static_cast<size_t>(kDim));
      for (size_t l = 0; l < batch.indices.size(); ++l) {
        op->ForwardInference(CsrBatch::FromIndices({batch.indices[l]}),
                             rows.data() + l * static_cast<size_t>(kDim));
      }
      op->PoolPrefetchedRows(batch, rows.data(), pooled.data());
      ExpectBitwiseEqual(train, pooled, "PoolPrefetchedRows vs Forward");
    }
  }
}

INSTANTIATE_TEST_SUITE_P(
    AllOps, EmbeddingConformance, ::testing::ValuesIn(AllFactories()),
    [](const ::testing::TestParamInfo<OpFactory>& info) {
      return info.param.name;
    });

}  // namespace
}  // namespace ttrec
