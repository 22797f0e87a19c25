// Uncompressed EmbeddingBag — the paper's baseline (PyTorch EmbeddingBag
// semantics: gather rows, pool per bag with optional per-sample weights).
//
// Gradients are kept *sparse* (row -> dense gradient vector): production
// tables have tens of millions of rows and a dense gradient buffer would
// defeat the purpose of the memory comparison.
#pragma once

#include <cstdint>
#include <unordered_map>
#include <vector>

#include "dlrm/embedding_op.h"
#include "tensor/random.h"
#include "tensor/tensor.h"

namespace ttrec {

/// Weight initialization for the dense table — parameterized so the Table 1
/// study (uniform vs assorted Gaussians) is expressible.
struct DenseEmbeddingInit {
  enum class Kind : uint8_t {
    kUniformScaled,  // U(-1/sqrt(M), 1/sqrt(M)) — the DLRM default
    kGaussian,       // N(0, sigma2)
  };
  Kind kind = Kind::kUniformScaled;
  double sigma2 = 1.0;  // only for kGaussian

  static DenseEmbeddingInit UniformScaled() { return {}; }
  static DenseEmbeddingInit Gaussian(double sigma2) {
    return {Kind::kGaussian, sigma2};
  }
  /// N(0, 1/(3 * num_rows)) — the KL-optimal Gaussian match of the scaled
  /// uniform (paper §3.2).
  static DenseEmbeddingInit MatchedGaussian(int64_t num_rows);
};

class DenseEmbeddingBag : public EmbeddingOp {
 public:
  DenseEmbeddingBag(int64_t num_rows, int64_t emb_dim, PoolingMode pooling,
                    DenseEmbeddingInit init, Rng& rng);

  /// Adopts an existing table (e.g. for tests or cache comparisons).
  DenseEmbeddingBag(Tensor table, PoolingMode pooling);

  /// The dense gather/pool has no forward side effects, so training and
  /// serving run the same const loop. Safe for concurrent readers as long
  /// as no thread mutates the table (ApplySgd/ApplyUpdate/LoadState).
  void Forward(const CsrBatch& batch, float* output) override {
    Pool(batch, nullptr, output);
  }
  void ForwardInference(const CsrBatch& batch, float* output) const override {
    Pool(batch, nullptr, output);
  }
  /// The same loop with the row data taken from `rows` (lookup-ordered)
  /// instead of the table — bitwise identical, so the shard router can pool
  /// remotely-fetched rows (see EmbeddingOp).
  void PoolPrefetchedRows(const CsrBatch& batch, const float* rows,
                          float* output) const override {
    Pool(batch, rows, output);
  }
  void Backward(const CsrBatch& batch, const float* grad_output) override;
  void ApplySgd(float lr) override;

  /// Row-wise Adagrad (FBGEMM-style): one accumulator per row updated with
  /// the mean squared gradient of that row; the whole row is scaled by
  /// 1 / (sqrt(acc) + eps). O(1) extra memory per row.
  void ApplyUpdate(const OptimizerConfig& opt) override;

  void SaveState(BinaryWriter& w) const override;
  void LoadState(BinaryReader& r) override;
  void SaveOptState(BinaryWriter& w) const override;
  void LoadOptState(BinaryReader& r) override;

  void ZeroGrad() override { grads_.clear(); }
  double GradSqNorm() const override;
  void ScaleGrads(float scale) override;

  int64_t num_rows() const override { return table_.dim(0); }
  int64_t emb_dim() const override { return table_.dim(1); }
  int64_t MemoryBytes() const override {
    return table_.numel() * static_cast<int64_t>(sizeof(float));
  }
  void CollectStats(obs::MetricRegistry& reg) const override {
    EmbeddingOp::CollectStats(reg);
    stats_publisher().Gauge(reg, "dense.rows",
                            static_cast<double>(num_rows()));
    stats_publisher().Gauge(reg, "dense.grad_rows_pending",
                            static_cast<double>(grads_.size()));
  }
  std::string Name() const override { return "dense_embedding_bag"; }

  Tensor& table() { return table_; }
  const Tensor& table() const { return table_; }

  /// Touched-row gradients accumulated since the last ApplySgd.
  const std::unordered_map<int64_t, std::vector<float>>& sparse_grads() const {
    return grads_;
  }

 private:
  /// The one pooling loop: each lookup's row comes from `rows` (one per
  /// lookup, lookup order) when given, else from the table.
  void Pool(const CsrBatch& batch, const float* rows, float* output) const;

  Tensor table_;  // num_rows x emb_dim
  PoolingMode pooling_;
  std::unordered_map<int64_t, std::vector<float>> grads_;
  std::vector<float> rowwise_adagrad_;  // lazily sized num_rows
};

}  // namespace ttrec
