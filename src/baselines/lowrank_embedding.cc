#include "baselines/lowrank_embedding.h"

#include <cmath>

#include "tensor/check.h"
#include "tensor/gemm.h"

namespace ttrec {

namespace {
int64_t ValidatedRank(int64_t rank) {
  TTREC_CHECK_CONFIG(rank >= 1, "LowRankEmbeddingBag: rank must be >= 1, got ",
                     rank);
  return rank;
}
}  // namespace

LowRankEmbeddingBag::LowRankEmbeddingBag(int64_t num_rows, int64_t emb_dim,
                                         int64_t rank, PoolingMode pooling,
                                         Rng& rng)
    : a_({num_rows, ValidatedRank(rank)}), b_({rank, emb_dim}),
      pooling_(pooling), db_({rank, emb_dim}) {
  // Product variance target 1/(3 * num_rows), split evenly between factors
  // and normalized by the rank-term count (same reasoning as TT init §3.2).
  const double target = 1.0 / (3.0 * static_cast<double>(num_rows));
  const double s = std::pow(target / static_cast<double>(rank), 0.25);
  for (int64_t i = 0; i < a_.numel(); ++i) {
    a_.data()[i] = static_cast<float>(rng.Normal(0.0, s));
  }
  for (int64_t i = 0; i < b_.numel(); ++i) {
    b_.data()[i] = static_cast<float>(rng.Normal(0.0, s));
  }
}

LowRankEmbeddingBag::LowRankEmbeddingBag(Tensor a, Tensor b,
                                         PoolingMode pooling)
    : a_(std::move(a)), b_(std::move(b)), pooling_(pooling),
      db_(b_.shape()) {
  TTREC_CHECK_SHAPE(a_.ndim() == 2 && b_.ndim() == 2 &&
                        a_.dim(1) == b_.dim(0),
                    "LowRankEmbeddingBag: factor shapes incompatible");
}

void LowRankEmbeddingBag::ForwardInference(const CsrBatch& batch,
                                           float* output) const {
  batch.Validate(num_rows());
  const int64_t N = emb_dim();
  const int64_t r = rank();
  const int64_t n_bags = batch.num_bags();
  std::fill(output, output + n_bags * N, 0.0f);
  std::vector<float> row(static_cast<size_t>(N));
  for (int64_t b = 0; b < n_bags; ++b) {
    const int64_t begin = batch.offsets[static_cast<size_t>(b)];
    const int64_t end = batch.offsets[static_cast<size_t>(b) + 1];
    const int64_t bag_size = end - begin;
    float* dst = output + b * N;
    for (int64_t l = begin; l < end; ++l) {
      const float w = batch.LookupWeight(l, bag_size, pooling_);
      const int64_t idx = batch.indices[static_cast<size_t>(l)];
      // row = A[idx] (1 x r) * B (r x N).
      Gemv(Trans::kYes, r, N, 1.0f, b_.data(), N, a_.data() + idx * r, 0.0f,
           row.data());
      for (int64_t j = 0; j < N; ++j) dst[j] += w * row[static_cast<size_t>(j)];
    }
  }
}

void LowRankEmbeddingBag::Backward(const CsrBatch& batch,
                                   const float* grad_output) {
  batch.Validate(num_rows());
  const int64_t N = emb_dim();
  const int64_t r = rank();
  for (int64_t b = 0; b < batch.num_bags(); ++b) {
    const int64_t begin = batch.offsets[static_cast<size_t>(b)];
    const int64_t end = batch.offsets[static_cast<size_t>(b) + 1];
    const int64_t bag_size = end - begin;
    const float* g = grad_output + b * N;
    for (int64_t l = begin; l < end; ++l) {
      const float w = batch.LookupWeight(l, bag_size, pooling_);
      const int64_t idx = batch.indices[static_cast<size_t>(l)];
      // dA[idx] += w * g * B^T  (1 x r).
      auto [it, inserted] =
          da_.try_emplace(idx, std::vector<float>(static_cast<size_t>(r)));
      for (int64_t k = 0; k < r; ++k) {
        float acc = 0.0f;
        const float* bk = b_.data() + k * N;
        for (int64_t j = 0; j < N; ++j) acc += g[j] * bk[j];
        it->second[static_cast<size_t>(k)] += w * acc;
      }
      // dB += w * A[idx]^T * g  (r x N).
      const float* arow = a_.data() + idx * r;
      for (int64_t k = 0; k < r; ++k) {
        const float ak = w * arow[k];
        float* dbk = db_.data() + k * N;
        for (int64_t j = 0; j < N; ++j) dbk[j] += ak * g[j];
      }
    }
  }
}

void LowRankEmbeddingBag::ApplySgd(float lr) {
  const int64_t r = rank();
  for (const auto& [row, grad] : da_) {
    float* dst = a_.data() + row * r;
    for (int64_t k = 0; k < r; ++k) dst[k] -= lr * grad[static_cast<size_t>(k)];
  }
  da_.clear();
  b_.Axpy(-lr, db_);
  db_.Fill(0.0f);
}

}  // namespace ttrec
