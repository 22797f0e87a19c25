#include "dlrm/embedding_bag.h"

#include <cmath>

#include "tensor/check.h"

namespace ttrec {

DenseEmbeddingInit DenseEmbeddingInit::MatchedGaussian(int64_t num_rows) {
  return Gaussian(1.0 / (3.0 * static_cast<double>(num_rows)));
}

DenseEmbeddingBag::DenseEmbeddingBag(int64_t num_rows, int64_t emb_dim,
                                     PoolingMode pooling,
                                     DenseEmbeddingInit init, Rng& rng)
    : table_({num_rows, emb_dim}), pooling_(pooling) {
  switch (init.kind) {
    case DenseEmbeddingInit::Kind::kUniformScaled: {
      const double a = 1.0 / std::sqrt(static_cast<double>(num_rows));
      for (int64_t i = 0; i < table_.numel(); ++i) {
        table_.data()[i] = static_cast<float>(rng.Uniform(-a, a));
      }
      break;
    }
    case DenseEmbeddingInit::Kind::kGaussian: {
      TTREC_CHECK_CONFIG(init.sigma2 > 0.0,
                         "Gaussian init variance must be positive");
      const double s = std::sqrt(init.sigma2);
      for (int64_t i = 0; i < table_.numel(); ++i) {
        table_.data()[i] = static_cast<float>(rng.Normal(0.0, s));
      }
      break;
    }
  }
}

DenseEmbeddingBag::DenseEmbeddingBag(Tensor table, PoolingMode pooling)
    : table_(std::move(table)), pooling_(pooling) {
  TTREC_CHECK_SHAPE(table_.ndim() == 2,
                    "DenseEmbeddingBag: table must be 2-d");
}

void DenseEmbeddingBag::Pool(const CsrBatch& batch, const float* rows,
                             float* output) const {
  batch.Validate(num_rows());
  const int64_t N = emb_dim();
  const int64_t n_bags = batch.num_bags();
  std::fill(output, output + n_bags * N, 0.0f);
  for (int64_t b = 0; b < n_bags; ++b) {
    const int64_t begin = batch.offsets[static_cast<size_t>(b)];
    const int64_t end = batch.offsets[static_cast<size_t>(b) + 1];
    const int64_t bag_size = end - begin;
    float* dst = output + b * N;
    for (int64_t l = begin; l < end; ++l) {
      const float w = batch.LookupWeight(l, bag_size, pooling_);
      const float* src =
          rows != nullptr
              ? rows + l * N
              : table_.data() + batch.indices[static_cast<size_t>(l)] * N;
      for (int64_t j = 0; j < N; ++j) dst[j] += w * src[j];
    }
  }
}

void DenseEmbeddingBag::Backward(const CsrBatch& batch,
                                 const float* grad_output) {
  batch.Validate(num_rows());
  const int64_t N = emb_dim();
  for (int64_t b = 0; b < batch.num_bags(); ++b) {
    const int64_t begin = batch.offsets[static_cast<size_t>(b)];
    const int64_t end = batch.offsets[static_cast<size_t>(b) + 1];
    const int64_t bag_size = end - begin;
    const float* g = grad_output + b * N;
    for (int64_t l = begin; l < end; ++l) {
      const float w = batch.LookupWeight(l, bag_size, pooling_);
      // The row's vector is sized only when the row is new: try_emplace's
      // value argument would be built (and freed) on every lookup.
      auto [it, inserted] =
          grads_.try_emplace(batch.indices[static_cast<size_t>(l)]);
      std::vector<float>& acc = it->second;
      if (inserted) acc.assign(static_cast<size_t>(N), 0.0f);
      for (int64_t j = 0; j < N; ++j) acc[static_cast<size_t>(j)] += w * g[j];
    }
  }
}

void DenseEmbeddingBag::ApplyUpdate(const OptimizerConfig& opt) {
  if (opt.kind == OptimizerConfig::Kind::kSgd) {
    ApplySgd(opt.lr);
    return;
  }
  TTREC_CHECK_CONFIG(opt.eps > 0.0f, "adagrad eps must be positive");
  if (rowwise_adagrad_.empty()) {
    rowwise_adagrad_.assign(static_cast<size_t>(num_rows()), 0.0f);
  }
  const int64_t N = emb_dim();
  for (const auto& [row, grad] : grads_) {
    double sq = 0.0;
    for (int64_t j = 0; j < N; ++j) {
      sq += static_cast<double>(grad[static_cast<size_t>(j)]) *
            grad[static_cast<size_t>(j)];
    }
    float& acc = rowwise_adagrad_[static_cast<size_t>(row)];
    acc += static_cast<float>(sq / static_cast<double>(N));
    const float scale = opt.lr / (std::sqrt(acc) + opt.eps);
    float* dst = table_.data() + row * N;
    for (int64_t j = 0; j < N; ++j) {
      dst[j] -= scale * grad[static_cast<size_t>(j)];
    }
  }
  grads_.clear();
}

void DenseEmbeddingBag::SaveState(BinaryWriter& w) const {
  SaveTensor(w, table_);
}

void DenseEmbeddingBag::LoadState(BinaryReader& r) {
  Tensor t = LoadTensor(r);
  TTREC_CHECK_SHAPE(t.shape() == table_.shape(),
                    "DenseEmbeddingBag::LoadState: table shape mismatch");
  table_ = std::move(t);
  grads_.clear();
}

void DenseEmbeddingBag::SaveOptState(BinaryWriter& w) const {
  w.WriteU32(rowwise_adagrad_.empty() ? 0u : 1u);
  if (!rowwise_adagrad_.empty()) {
    w.WriteFloats(rowwise_adagrad_.data(), rowwise_adagrad_.size());
  }
}

void DenseEmbeddingBag::LoadOptState(BinaryReader& r) {
  const uint32_t present = r.ReadU32();
  if (present == 0) {
    rowwise_adagrad_.clear();
    return;
  }
  TTREC_CHECK_CONFIG(present == 1,
                     "DenseEmbeddingBag::LoadOptState: bad marker");
  rowwise_adagrad_.assign(static_cast<size_t>(num_rows()), 0.0f);
  r.ReadFloats(rowwise_adagrad_.data(), rowwise_adagrad_.size());
}

double DenseEmbeddingBag::GradSqNorm() const {
  double sq = 0.0;
  for (const auto& [row, grad] : grads_) {
    (void)row;
    for (float g : grad) sq += static_cast<double>(g) * g;
  }
  return sq;
}

void DenseEmbeddingBag::ScaleGrads(float scale) {
  for (auto& [row, grad] : grads_) {
    (void)row;
    for (float& g : grad) g *= scale;
  }
}

void DenseEmbeddingBag::ApplySgd(float lr) {
  const int64_t N = emb_dim();
  for (const auto& [row, grad] : grads_) {
    float* dst = table_.data() + row * N;
    for (int64_t j = 0; j < N; ++j) dst[j] -= lr * grad[static_cast<size_t>(j)];
  }
  grads_.clear();
}

}  // namespace ttrec
