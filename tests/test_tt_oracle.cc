// Independent TT oracle: evaluates Eq. (2) element by element — an explicit
// sum over all rank-index tuples with no GEMM, no reshaping, no shared code
// with the library kernels — and checks MaterializeRow, the batched
// forward, the backward's core gradients, and TT-SVD against it. This
// breaks any possibility of a consistent-but-wrong index convention passing
// the cross-checks.
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <string>
#include <vector>

#include "tt/tt_decompose.h"
#include "tt/tt_embedding.h"

namespace ttrec {
namespace {

// W((i_1,j_1),...,(i_d,j_d)) = sum over (r_1..r_{d-1}) of
//   prod_k G_k[r_{k-1}, i_k, j_k, r_k],   r_0 = r_d = 0.
// Slice storage is [i_k][r_{k-1}][j_k][r_k] (slice-major), so
// G_k entry = Slice(k, i_k)[r_{k-1} * (n_k * R_k) + j_k * R_k + r_k].
double OracleElement(const TtCores& cores, int64_t row, int64_t col) {
  const TtShape& s = cores.shape();
  const int d = s.num_cores();
  const std::vector<int64_t> idig = s.RowDigits(row);

  // Column digits, most significant first.
  std::vector<int64_t> jdig(static_cast<size_t>(d));
  int64_t denom = s.emb_dim;
  int64_t rem = col;
  for (int k = 0; k < d; ++k) {
    denom /= s.col_factors[static_cast<size_t>(k)];
    jdig[static_cast<size_t>(k)] = rem / denom;
    rem %= denom;
  }

  // Iterate all inner rank tuples (r_1..r_{d-1}) via mixed radix.
  int64_t tuples = 1;
  for (int k = 1; k < d; ++k) tuples *= s.ranks[static_cast<size_t>(k)];
  double total = 0.0;
  for (int64_t t = 0; t < tuples; ++t) {
    // Decode the tuple.
    std::vector<int64_t> r(static_cast<size_t>(d) + 1, 0);
    int64_t tt = t;
    for (int k = d - 1; k >= 1; --k) {
      r[static_cast<size_t>(k)] = tt % s.ranks[static_cast<size_t>(k)];
      tt /= s.ranks[static_cast<size_t>(k)];
    }
    double prod = 1.0;
    for (int k = 0; k < d; ++k) {
      const int64_t nk = s.col_factors[static_cast<size_t>(k)];
      const int64_t rk = s.ranks[static_cast<size_t>(k) + 1];
      const float* slice = cores.Slice(k, idig[static_cast<size_t>(k)]);
      prod *= slice[r[static_cast<size_t>(k)] * (nk * rk) +
                    jdig[static_cast<size_t>(k)] * rk +
                    r[static_cast<size_t>(k) + 1]];
    }
    total += prod;
  }
  return total;
}

// Core gradients of L = sum_b <grad_out[b], pooled_b> in double precision,
// pooled_b = sum_{l in b} w_l W(row_l, :). The derivative of W(row, col)
// with respect to G_k[r_{k-1}, i_k, j_k, r_k] is the product of the other
// cores' entries along every rank tuple through (r_{k-1}, r_k), so the same
// explicit tuple sum as OracleElement yields every entry directly. Returns
// one vector per core in core_grad(k)'s slice-major layout.
std::vector<std::vector<double>> OracleCoreGrads(
    const TtCores& cores, const CsrBatch& batch, PoolingMode pooling,
    const std::vector<float>& grad_out) {
  const TtShape& s = cores.shape();
  const int d = s.num_cores();
  std::vector<std::vector<double>> grads(static_cast<size_t>(d));
  for (int k = 0; k < d; ++k) {
    grads[static_cast<size_t>(k)].assign(
        static_cast<size_t>(cores.core(k).numel()), 0.0);
  }
  int64_t tuples = 1;
  for (int k = 1; k < d; ++k) tuples *= s.ranks[static_cast<size_t>(k)];

  for (int64_t b = 0; b < batch.num_bags(); ++b) {
    const int64_t lo = batch.offsets[static_cast<size_t>(b)];
    const int64_t hi = batch.offsets[static_cast<size_t>(b) + 1];
    for (int64_t l = lo; l < hi; ++l) {
      double w = 1.0;
      if (!batch.weights.empty()) {
        w = static_cast<double>(batch.weights[static_cast<size_t>(l)]);
      }
      if (pooling == PoolingMode::kMean) w /= static_cast<double>(hi - lo);
      const std::vector<int64_t> idig =
          s.RowDigits(batch.indices[static_cast<size_t>(l)]);
      for (int64_t col = 0; col < s.emb_dim; ++col) {
        std::vector<int64_t> jdig(static_cast<size_t>(d));
        int64_t denom = s.emb_dim;
        int64_t rem = col;
        for (int k = 0; k < d; ++k) {
          denom /= s.col_factors[static_cast<size_t>(k)];
          jdig[static_cast<size_t>(k)] = rem / denom;
          rem %= denom;
        }
        const double g =
            w * grad_out[static_cast<size_t>(b * s.emb_dim + col)];
        for (int64_t t = 0; t < tuples; ++t) {
          std::vector<int64_t> r(static_cast<size_t>(d) + 1, 0);
          int64_t tt = t;
          for (int k = d - 1; k >= 1; --k) {
            r[static_cast<size_t>(k)] = tt % s.ranks[static_cast<size_t>(k)];
            tt /= s.ranks[static_cast<size_t>(k)];
          }
          // Offset of this tuple's entry in each core, and its value.
          std::vector<int64_t> at(static_cast<size_t>(d));
          std::vector<double> val(static_cast<size_t>(d));
          for (int k = 0; k < d; ++k) {
            const int64_t nk = s.col_factors[static_cast<size_t>(k)];
            const int64_t rk = s.ranks[static_cast<size_t>(k) + 1];
            const int64_t slice_size =
                s.ranks[static_cast<size_t>(k)] * nk * rk;
            at[static_cast<size_t>(k)] =
                idig[static_cast<size_t>(k)] * slice_size +
                r[static_cast<size_t>(k)] * (nk * rk) +
                jdig[static_cast<size_t>(k)] * rk +
                r[static_cast<size_t>(k) + 1];
            val[static_cast<size_t>(k)] =
                cores.core(k).data()[at[static_cast<size_t>(k)]];
          }
          for (int k = 0; k < d; ++k) {
            double others = 1.0;
            for (int m = 0; m < d; ++m) {
              if (m != k) others *= val[static_cast<size_t>(m)];
            }
            grads[static_cast<size_t>(k)]
                 [static_cast<size_t>(at[static_cast<size_t>(k)])] +=
                g * others;
          }
        }
      }
    }
  }
  return grads;
}

class TtOracleSweep
    : public ::testing::TestWithParam<std::tuple<int, int64_t>> {};

TEST_P(TtOracleSweep, MaterializeRowMatchesElementwiseSum) {
  const auto [d, rank] = GetParam();
  TtShape shape = MakeTtShape(48, 8, d, rank);
  TtCores cores(shape);
  Rng rng(static_cast<uint64_t>(d * 31 + rank));
  InitializeTtCoresWithTarget(cores, TtInit::kGaussian, rng, 0.5);

  std::vector<float> row(8);
  for (int64_t r : {int64_t{0}, int64_t{17}, int64_t{47}}) {
    cores.MaterializeRow(r, row.data());
    for (int64_t j = 0; j < 8; ++j) {
      EXPECT_NEAR(row[static_cast<size_t>(j)], OracleElement(cores, r, j),
                  1e-4)
          << "row " << r << " col " << j << " d=" << d << " rank=" << rank;
    }
  }
}

TEST_P(TtOracleSweep, BatchedForwardMatchesElementwiseSum) {
  const auto [d, rank] = GetParam();
  TtShape shape = MakeTtShape(48, 8, d, rank);
  TtEmbeddingConfig cfg;
  cfg.shape = shape;
  cfg.block_size = 3;
  Rng rng(static_cast<uint64_t>(d * 97 + rank));
  TtEmbeddingBag emb(cfg, TtInit::kGaussian, rng);

  CsrBatch batch;
  batch.indices = {5, 40, 5};
  batch.offsets = {0, 2, 3};
  std::vector<float> out(static_cast<size_t>(2 * 8));
  emb.Forward(batch, out.data());
  for (int64_t j = 0; j < 8; ++j) {
    EXPECT_NEAR(out[static_cast<size_t>(j)],
                OracleElement(emb.cores(), 5, j) +
                    OracleElement(emb.cores(), 40, j),
                1e-4);
    EXPECT_NEAR(out[static_cast<size_t>(8 + j)],
                OracleElement(emb.cores(), 5, j), 1e-4);
  }
}

TEST_P(TtOracleSweep, BackwardMatchesElementwiseGradient) {
  const auto [d, rank] = GetParam();
  // block_size 3 cuts the 11 lookups into four blocks, so every slice's
  // bucket spans several blocks. Ids repeat within a block (5 in the first,
  // 47 in the third) and across blocks (5, 17, 40); bags 1 and 4 are empty.
  CsrBatch batch;
  batch.indices = {5, 40, 5, 5, 17, 40, 0, 47, 47, 17, 5};
  batch.offsets = {0, 2, 2, 5, 6, 6, 9, 11};
  const std::vector<float> weights = {0.5f, 1.5f,  -0.75f, 2.0f,
                                      1.0f, 0.25f, -1.25f, 0.8f,
                                      1.2f, -0.6f, 0.9f};
  const int64_t N = 8;
  std::vector<float> grad_out(static_cast<size_t>(batch.num_bags() * N));
  Rng grad_rng(static_cast<uint64_t>(d * 7 + rank));
  for (float& g : grad_out) g = static_cast<float>(grad_rng.Uniform(-1, 1));

  struct Case {
    const char* name;
    bool dedup;
    PoolingMode pooling;
    bool weighted;
  };
  for (const Case& c :
       {Case{"plain_sum", false, PoolingMode::kSum, false},
        Case{"plain_weighted_mean", false, PoolingMode::kMean, true},
        Case{"plain_weighted", false, PoolingMode::kSum, true},
        Case{"plain_mean", false, PoolingMode::kMean, false},
        Case{"dedup_weighted", true, PoolingMode::kSum, true},
        Case{"dedup_weighted_mean", true, PoolingMode::kMean, true}}) {
    SCOPED_TRACE(std::string(c.name) + " d=" + std::to_string(d) +
                 " rank=" + std::to_string(rank));
    TtEmbeddingConfig cfg;
    cfg.shape = MakeTtShape(48, N, d, rank);
    cfg.block_size = 3;
    cfg.deduplicate = c.dedup;
    cfg.pooling = c.pooling;
    Rng rng(static_cast<uint64_t>(d * 131 + rank));
    TtEmbeddingBag emb(cfg, TtInit::kGaussian, rng);
    CsrBatch b = batch;
    if (c.weighted) b.weights = weights;

    std::vector<float> out(grad_out.size());
    emb.Forward(b, out.data());
    emb.Backward(b, grad_out.data());

    const std::vector<std::vector<double>> oracle =
        OracleCoreGrads(emb.cores(), b, c.pooling, grad_out);
    for (int k = 0; k < d; ++k) {
      const Tensor& got = emb.core_grad(k);
      const std::vector<double>& want = oracle[static_cast<size_t>(k)];
      ASSERT_EQ(static_cast<size_t>(got.numel()), want.size());
      for (size_t e = 0; e < want.size(); ++e) {
        EXPECT_NEAR(got.data()[e], want[e],
                    1e-4 * std::max(1.0, std::abs(want[e])))
            << "core " << k << " entry " << e;
      }
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Shapes, TtOracleSweep,
                         ::testing::Combine(::testing::Values(2, 3, 4),
                                            ::testing::Values(1, 2, 4)));

TEST(TtOracle, TtSvdCoresSatisfyElementFormula) {
  Rng rng(99);
  Tensor table({30, 8});
  for (int64_t i = 0; i < table.numel(); ++i) {
    table.data()[i] = static_cast<float>(rng.Uniform(-1, 1));
  }
  const TtCores cores = TtDecompose(table, MakeTtShape(30, 8, 3, 64));
  for (int64_t r : {int64_t{0}, int64_t{13}, int64_t{29}}) {
    for (int64_t j = 0; j < 8; ++j) {
      EXPECT_NEAR(OracleElement(cores, r, j), table.data()[r * 8 + j], 1e-3)
          << r << "," << j;
    }
  }
}

}  // namespace
}  // namespace ttrec
