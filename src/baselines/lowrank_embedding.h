// Two-factor low-rank embedding W ~ A * B (A: rows x r, B: r x dim) — the
// rank-factorization baseline the paper's related work cites (Ghaemmaghami
// et al. 2020). The degenerate d = 2 point of the TT family; included so the
// design-space bench can place it on the memory/accuracy plane next to TT.
#pragma once

#include <cstdint>
#include <string>
#include <unordered_map>
#include <vector>

#include "dlrm/embedding_op.h"
#include "tensor/random.h"
#include "tensor/tensor.h"

namespace ttrec {

class LowRankEmbeddingBag : public EmbeddingOp {
 public:
  LowRankEmbeddingBag(int64_t num_rows, int64_t emb_dim, int64_t rank,
                      PoolingMode pooling, Rng& rng);

  /// Adopts existing factors (e.g. from a truncated SVD of a trained
  /// table): a is rows x rank, b is rank x dim.
  LowRankEmbeddingBag(Tensor a, Tensor b, PoolingMode pooling);

  void Forward(const CsrBatch& batch, float* output) override {
    ForwardInference(batch, output);
  }
  void ForwardInference(const CsrBatch& batch, float* output) const override;
  void Backward(const CsrBatch& batch, const float* grad_output) override;
  void ApplySgd(float lr) override;

  int64_t num_rows() const override { return a_.dim(0); }
  int64_t emb_dim() const override { return b_.dim(1); }
  int64_t rank() const { return b_.dim(0); }
  int64_t MemoryBytes() const override {
    return (a_.numel() + b_.numel()) * static_cast<int64_t>(sizeof(float));
  }
  void CollectStats(obs::MetricRegistry& reg) const override {
    EmbeddingOp::CollectStats(reg);
    stats_publisher().Gauge(reg, "lowrank.rank",
                            static_cast<double>(rank()));
  }
  std::string Name() const override { return "lowrank_embedding_bag"; }

 private:
  Tensor a_;  // rows x rank
  Tensor b_;  // rank x dim
  PoolingMode pooling_;
  std::unordered_map<int64_t, std::vector<float>> da_;  // sparse A grads
  Tensor db_;
};

}  // namespace ttrec
