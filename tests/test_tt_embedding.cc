// TtEmbeddingBag: the batched forward must equal scalar materialization;
// the batched backward must equal finite differences; pooling modes,
// per-sample weights, blocking, SGD, and failure injection.
#include <gtest/gtest.h>

#include <cmath>
#include <vector>

#include "data/csr_batch.h"
#include "tensor/check.h"
#include "tt/tt_embedding.h"

namespace ttrec {
namespace {

TtEmbeddingConfig SmallConfig(int num_cores, int64_t rank,
                              int64_t num_rows = 60, int64_t emb_dim = 8) {
  TtEmbeddingConfig cfg;
  cfg.shape = MakeTtShape(num_rows, emb_dim, num_cores, rank);
  cfg.block_size = 7;  // force multi-block paths even on small batches
  return cfg;
}

CsrBatch MixedBatch() {
  // 4 bags: sizes 2, 1, 0, 3 — includes an empty bag and duplicate indices.
  CsrBatch b;
  b.indices = {3, 17, 42, 3, 59, 17};
  b.offsets = {0, 2, 3, 3, 6};
  return b;
}

class TtEmbeddingSweep
    : public ::testing::TestWithParam<std::tuple<int, int64_t>> {};

TEST_P(TtEmbeddingSweep, ForwardMatchesMaterializedRows) {
  const auto [d, rank] = GetParam();
  Rng rng(static_cast<uint64_t>(d * 100 + rank));
  TtEmbeddingBag emb(SmallConfig(d, rank), TtInit::kGaussian, rng);
  CsrBatch batch = MixedBatch();

  std::vector<float> out(static_cast<size_t>(batch.num_bags() * 8), -1.0f);
  emb.Forward(batch, out.data());

  // Oracle: scalar materialization + manual pooling.
  std::vector<float> expected(out.size(), 0.0f);
  std::vector<float> row(8);
  for (int64_t bag = 0; bag < batch.num_bags(); ++bag) {
    for (int64_t l = batch.offsets[static_cast<size_t>(bag)];
         l < batch.offsets[static_cast<size_t>(bag) + 1]; ++l) {
      emb.cores().MaterializeRow(batch.indices[static_cast<size_t>(l)],
                                 row.data());
      for (int64_t j = 0; j < 8; ++j) {
        expected[static_cast<size_t>(bag * 8 + j)] +=
            row[static_cast<size_t>(j)];
      }
    }
  }
  // Exact: each row is bitwise its MaterializeRow, and pooling's
  // unit-weight Axpy adds exactly like the += above.
  for (size_t i = 0; i < out.size(); ++i) {
    EXPECT_EQ(out[i], expected[i]) << "d=" << d << " rank=" << rank;
  }
}

TEST_P(TtEmbeddingSweep, BackwardMatchesFiniteDifferences) {
  const auto [d, rank] = GetParam();
  Rng rng(static_cast<uint64_t>(d * 1000 + rank));
  TtEmbeddingBag emb(SmallConfig(d, rank), TtInit::kGaussian, rng);
  CsrBatch batch = MixedBatch();
  const int64_t n_bags = batch.num_bags();
  const int64_t N = emb.emb_dim();

  // Loss = sum_i g_i * out_i with fixed pseudo-random g.
  std::vector<float> g(static_cast<size_t>(n_bags * N));
  Rng grng(99);
  for (float& x : g) x = static_cast<float>(grng.Uniform(-1.0, 1.0));

  auto loss = [&]() {
    std::vector<float> out(static_cast<size_t>(n_bags * N));
    emb.Forward(batch, out.data());
    double s = 0.0;
    for (size_t i = 0; i < out.size(); ++i) {
      s += static_cast<double>(g[i]) * out[i];
    }
    return s;
  };

  emb.Backward(batch, g.data());

  // Spot-check several entries in every core against central differences.
  const double eps = 1e-3;
  for (int k = 0; k < emb.cores().num_cores(); ++k) {
    Tensor& core = emb.cores().core(k);
    const Tensor& grad = emb.core_grad(k);
    Rng pick(static_cast<uint64_t>(k + 7));
    for (int trial = 0; trial < 6; ++trial) {
      const int64_t idx = pick.RandInt(core.numel());
      const float orig = core[idx];
      core[idx] = orig + static_cast<float>(eps);
      const double lp = loss();
      core[idx] = orig - static_cast<float>(eps);
      const double lm = loss();
      core[idx] = orig;
      const double fd = (lp - lm) / (2.0 * eps);
      EXPECT_NEAR(grad[idx], fd, 5e-2 * (std::abs(fd) + 1.0))
          << "core " << k << " entry " << idx << " d=" << d
          << " rank=" << rank;
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Shapes, TtEmbeddingSweep,
                         ::testing::Combine(::testing::Values(2, 3, 4),
                                            ::testing::Values(1, 2, 8)));

TEST(TtEmbeddingBag, MeanPoolingDividesByBagSize) {
  Rng rng(1);
  TtEmbeddingConfig cfg = SmallConfig(3, 4);
  cfg.pooling = PoolingMode::kMean;
  TtEmbeddingBag emb(cfg, TtInit::kGaussian, rng);

  CsrBatch batch;
  batch.indices = {5, 5, 5, 9};
  batch.offsets = {0, 3, 4};
  std::vector<float> out(static_cast<size_t>(2 * 8));
  emb.Forward(batch, out.data());

  std::vector<float> row5(8), row9(8);
  emb.cores().MaterializeRow(5, row5.data());
  emb.cores().MaterializeRow(9, row9.data());
  for (int64_t j = 0; j < 8; ++j) {
    EXPECT_NEAR(out[static_cast<size_t>(j)], row5[static_cast<size_t>(j)],
                1e-5f);  // mean of 3 identical rows
    EXPECT_NEAR(out[static_cast<size_t>(8 + j)], row9[static_cast<size_t>(j)],
                1e-5f);
  }
}

TEST(TtEmbeddingBag, PerSampleWeightsScaleContributions) {
  Rng rng(2);
  TtEmbeddingBag emb(SmallConfig(3, 4), TtInit::kGaussian, rng);
  CsrBatch batch;
  batch.indices = {10, 20};
  batch.offsets = {0, 2};
  batch.weights = {2.0f, -0.5f};
  std::vector<float> out(8);
  emb.Forward(batch, out.data());

  std::vector<float> r10(8), r20(8);
  emb.cores().MaterializeRow(10, r10.data());
  emb.cores().MaterializeRow(20, r20.data());
  for (int64_t j = 0; j < 8; ++j) {
    EXPECT_NEAR(out[static_cast<size_t>(j)],
                2.0f * r10[static_cast<size_t>(j)] -
                    0.5f * r20[static_cast<size_t>(j)],
                1e-5f);
  }
}

TEST(TtEmbeddingBag, LookupRowsMatchesMaterialization) {
  Rng rng(3);
  TtEmbeddingBag emb(SmallConfig(3, 8), TtInit::kSampledGaussian, rng);
  std::vector<int64_t> idx = {0, 59, 30, 30, 7};
  std::vector<float> out(idx.size() * 8);
  emb.LookupRows(idx, out.data());
  std::vector<float> row(8);
  for (size_t i = 0; i < idx.size(); ++i) {
    emb.cores().MaterializeRow(idx[i], row.data());
    // Same GEMM shapes in the same order: bit for bit.
    EXPECT_EQ(std::vector<float>(out.begin() + static_cast<long>(i * 8),
                                 out.begin() + static_cast<long>(i * 8 + 8)),
              row);
  }
}

TEST(TtEmbeddingBag, DuplicateIndicesAccumulateGradients) {
  Rng rng(66);
  TtEmbeddingBag emb(SmallConfig(2, 2), TtInit::kGaussian, rng);
  // Two bags, both looking up row 7: gradient contributions must add.
  CsrBatch once;
  once.indices = {7};
  once.offsets = {0, 1};
  CsrBatch twice;
  twice.indices = {7, 7};
  twice.offsets = {0, 1, 2};

  std::vector<float> g1(8, 1.0f);
  std::vector<float> g2(16, 1.0f);

  emb.Backward(once, g1.data());
  std::vector<Tensor> single;
  for (int k = 0; k < 2; ++k) single.push_back(emb.core_grad(k));
  emb.ZeroGrad();
  emb.Backward(twice, g2.data());
  for (int k = 0; k < 2; ++k) {
    const Tensor& dbl = emb.core_grad(k);
    for (int64_t i = 0; i < dbl.numel(); ++i) {
      EXPECT_NEAR(dbl[i], 2.0f * single[static_cast<size_t>(k)][i], 1e-5f);
    }
  }
}

TEST(TtEmbeddingBag, ApplySgdMovesAgainstGradientAndClears) {
  Rng rng(77);
  TtEmbeddingBag emb(SmallConfig(3, 2), TtInit::kGaussian, rng);
  CsrBatch batch = CsrBatch::FromIndices({12, 13});
  std::vector<float> out(static_cast<size_t>(2 * 8));
  emb.Forward(batch, out.data());
  std::vector<float> g(out.size(), 1.0f);
  emb.Backward(batch, g.data());

  std::vector<Tensor> before;
  std::vector<Tensor> grads;
  for (int k = 0; k < 3; ++k) {
    before.push_back(emb.cores().core(k));
    grads.push_back(emb.core_grad(k));
  }
  emb.ApplySgd(0.1f);
  for (int k = 0; k < 3; ++k) {
    const Tensor& after = emb.cores().core(k);
    for (int64_t i = 0; i < after.numel(); ++i) {
      EXPECT_NEAR(after[i],
                  before[static_cast<size_t>(k)][i] -
                      0.1f * grads[static_cast<size_t>(k)][i],
                  1e-6f);
    }
    // Gradient cleared.
    EXPECT_EQ(emb.core_grad(k).Norm(), 0.0);
  }
}

TEST(TtEmbeddingBag, SgdReducesQuadraticLoss) {
  // Regression-to-target: train the TT table so one bag matches a target
  // vector; loss must fall monotonically-ish and substantially.
  Rng rng(88);
  TtEmbeddingBag emb(SmallConfig(3, 4), TtInit::kGaussian, rng);
  CsrBatch batch = CsrBatch::FromIndices({21});
  std::vector<float> target(8);
  for (int64_t j = 0; j < 8; ++j) target[static_cast<size_t>(j)] =
      0.1f * static_cast<float>(j) - 0.3f;

  double first = -1.0, last = -1.0;
  std::vector<float> out(8), grad(8);
  for (int step = 0; step < 200; ++step) {
    emb.Forward(batch, out.data());
    double loss = 0.0;
    for (int64_t j = 0; j < 8; ++j) {
      const float d = out[static_cast<size_t>(j)] - target[static_cast<size_t>(j)];
      loss += 0.5 * d * d;
      grad[static_cast<size_t>(j)] = d;
    }
    if (step == 0) first = loss;
    last = loss;
    emb.Backward(batch, grad.data());
    emb.ApplySgd(0.5f);
  }
  EXPECT_LT(last, 1e-3 * first + 1e-8);
}

class DedupEquivalence
    : public ::testing::TestWithParam<std::tuple<int, int64_t, int64_t>> {};

// Deduplicated execution must be numerically equivalent to the plain path
// for forward AND backward, across core counts, ranks, and block sizes —
// including blocks where every lookup is the same row.
TEST_P(DedupEquivalence, ForwardAndBackwardMatchPlainPath) {
  const auto [d, rank, block_size] = GetParam();
  // Heavy-duplication batch: 3 bags over a handful of rows.
  CsrBatch batch;
  batch.indices = {5, 5, 17, 5, 42, 17, 17, 5};
  batch.offsets = {0, 3, 3, 8};
  batch.weights = {1.0f, 0.5f, 2.0f, 1.0f, -1.0f, 0.25f, 1.0f, 3.0f};
  std::vector<float> g(static_cast<size_t>(batch.num_bags() * 8));
  Rng grng(2);
  for (float& x : g) x = static_cast<float>(grng.Uniform(-1.0, 1.0));

  auto run = [&](bool dedup) {
    Rng rng(33);
    TtEmbeddingConfig cfg = SmallConfig(d, rank);
    cfg.block_size = block_size;
    cfg.deduplicate = dedup;
    TtEmbeddingBag emb(cfg, TtInit::kGaussian, rng);
    std::vector<float> out(static_cast<size_t>(batch.num_bags() * 8));
    emb.Forward(batch, out.data());
    emb.Backward(batch, g.data());
    std::vector<Tensor> grads;
    for (int k = 0; k < emb.cores().num_cores(); ++k) {
      grads.push_back(emb.core_grad(k));
    }
    return std::make_pair(out, std::move(grads));
  };

  const auto [out_plain, grads_plain] = run(false);
  const auto [out_dedup, grads_dedup] = run(true);
  for (size_t i = 0; i < out_plain.size(); ++i) {
    EXPECT_NEAR(out_plain[i], out_dedup[i], 1e-5f) << "output " << i;
  }
  ASSERT_EQ(grads_plain.size(), grads_dedup.size());
  for (size_t k = 0; k < grads_plain.size(); ++k) {
    EXPECT_LT(MaxAbsDiff(grads_plain[k], grads_dedup[k]), 1e-5)
        << "core " << k;
  }
}

INSTANTIATE_TEST_SUITE_P(
    Configs, DedupEquivalence,
    ::testing::Combine(::testing::Values(2, 3), ::testing::Values(2, 8),
                       ::testing::Values(1, 3, 64)));

TEST(TtEmbeddingBag, DedupAllSameRow) {
  Rng rng(4);
  TtEmbeddingConfig cfg = SmallConfig(3, 4);
  cfg.deduplicate = true;
  TtEmbeddingBag emb(cfg, TtInit::kGaussian, rng);
  CsrBatch batch;
  batch.indices.assign(20, 9);
  batch.offsets = {0, 20};
  std::vector<float> out(8);
  emb.Forward(batch, out.data());
  std::vector<float> row(8);
  emb.cores().MaterializeRow(9, row.data());
  for (int64_t j = 0; j < 8; ++j) {
    EXPECT_NEAR(out[static_cast<size_t>(j)],
                20.0f * row[static_cast<size_t>(j)], 1e-4f);
  }
}

TEST(TtEmbeddingBag, ValidatesBatch) {
  Rng rng(9);
  TtEmbeddingBag emb(SmallConfig(3, 2), TtInit::kGaussian, rng);
  std::vector<float> out(8);

  CsrBatch bad_index = CsrBatch::FromIndices({60});  // num_rows == 60
  EXPECT_THROW(emb.Forward(bad_index, out.data()), IndexError);

  CsrBatch bad_offsets;
  bad_offsets.indices = {1};
  bad_offsets.offsets = {0, 2};
  EXPECT_THROW(emb.Forward(bad_offsets, out.data()), ShapeError);

  CsrBatch bad_weights = CsrBatch::FromIndices({1, 2});
  bad_weights.weights = {1.0f};
  std::vector<float> out2(16);
  EXPECT_THROW(emb.Forward(bad_weights, out2.data()), ShapeError);

  std::vector<int64_t> neg = {-1};
  EXPECT_THROW(emb.LookupRows(neg, out.data()), IndexError);
}

TEST(TtEmbeddingBag, LargeEmbeddingDimensions) {
  // The paper's motivating case (§5): dims 64-512 blow past accelerator
  // memory uncompressed; TT handles them with the same kernel. Verify
  // correctness at dim 64 and the compression math at paper scale.
  Rng rng(20);
  TtEmbeddingConfig cfg;
  cfg.shape = MakeTtShape(120, 64, 3, 8);
  TtEmbeddingBag emb(cfg, TtInit::kSampledGaussian, rng);
  CsrBatch batch = CsrBatch::FromIndices({0, 77, 119});
  std::vector<float> out(static_cast<size_t>(3 * 64));
  emb.Forward(batch, out.data());
  std::vector<float> row(64);
  for (int64_t i = 0; i < 3; ++i) {
    emb.cores().MaterializeRow(batch.indices[static_cast<size_t>(i)],
                               row.data());
    for (int64_t j = 0; j < 64; ++j) {
      EXPECT_NEAR(out[static_cast<size_t>(i * 64 + j)],
                  row[static_cast<size_t>(j)], 1e-4f);
    }
  }
  // Paper scale: 10M rows x 512 dims = 20 GB dense; TT at rank 32 fits in
  // a few MB.
  const TtShape big = MakeTtShape(10131227, 512, 3, 32);
  EXPECT_GT(big.CompressionRatio(), 1000.0);
  EXPECT_LT(big.TotalParams() * 4, 32 * 1000000);  // < 32 MB
}

TEST(TtEmbeddingBag, EmptyBatchIsNoop) {
  Rng rng(10);
  TtEmbeddingBag emb(SmallConfig(3, 2), TtInit::kGaussian, rng);
  CsrBatch empty;
  empty.offsets = {0};
  std::vector<float> out;
  EXPECT_NO_THROW(emb.Forward(empty, out.data()));
}

TEST(TtEmbeddingBag, StatsCountFlopsAndLookups) {
  Rng rng(11);
  TtEmbeddingBag emb(SmallConfig(3, 4), TtInit::kGaussian, rng);
  CsrBatch batch = MixedBatch();
  std::vector<float> out(static_cast<size_t>(batch.num_bags() * 8));
  emb.Forward(batch, out.data());
  EXPECT_EQ(emb.stats().forward_calls, 1);
  EXPECT_EQ(emb.stats().lookups, batch.num_lookups());
  EXPECT_GT(emb.stats().forward_flops, 0);
  std::vector<float> g(out.size(), 1.0f);
  emb.Backward(batch, g.data());
  EXPECT_EQ(emb.stats().backward_calls, 1);
  EXPECT_GT(emb.stats().backward_flops, emb.stats().forward_flops);
}

TEST(TtEmbeddingBag, WorkspaceIsBoundedByBlockSize) {
  Rng rng(12);
  TtEmbeddingConfig small = SmallConfig(3, 8);
  small.block_size = 4;
  TtEmbeddingConfig large = SmallConfig(3, 8);
  large.block_size = 4096;
  TtEmbeddingBag a(small, TtInit::kGaussian, rng);
  TtEmbeddingBag b(large, TtInit::kGaussian, rng);
  EXPECT_LT(a.WorkspaceBytes(), b.WorkspaceBytes());
}

TEST(TtEmbeddingBag, RejectsBadBlockSize) {
  Rng rng(13);
  TtEmbeddingConfig cfg = SmallConfig(3, 2);
  cfg.block_size = 0;
  EXPECT_THROW(TtEmbeddingBag(cfg, TtInit::kGaussian, rng), ConfigError);
}

}  // namespace
}  // namespace ttrec
