// Hashing-trick embedding (Weinberger et al. 2009) — the related-work
// baseline the paper contrasts against (§7): multiple rows share a bucket,
// shrinking the table at the cost of collisions (which is where its accuracy
// loss comes from; the design-space bench quantifies that).
#pragma once

#include <cstdint>
#include <string>

#include "dlrm/embedding_bag.h"
#include "dlrm/embedding_op.h"

namespace ttrec {

class HashedEmbeddingBag : public EmbeddingOp {
 public:
  /// `num_rows` is the logical (original) cardinality; `num_buckets` the
  /// physical table size. Compression ratio = num_rows / num_buckets.
  HashedEmbeddingBag(int64_t num_rows, int64_t num_buckets, int64_t emb_dim,
                     PoolingMode pooling, Rng& rng);

  void Forward(const CsrBatch& batch, float* output) override {
    ForwardInference(batch, output);
  }
  void ForwardInference(const CsrBatch& batch, float* output) const override;
  void Backward(const CsrBatch& batch, const float* grad_output) override;
  void ApplySgd(float lr) override { inner_.ApplySgd(lr); }
  void ApplyUpdate(const OptimizerConfig& opt) override {
    inner_.ApplyUpdate(opt);
  }

  int64_t num_rows() const override { return num_rows_; }
  int64_t emb_dim() const override { return inner_.emb_dim(); }
  int64_t num_buckets() const { return inner_.num_rows(); }
  int64_t MemoryBytes() const override { return inner_.MemoryBytes(); }
  void CollectStats(obs::MetricRegistry& reg) const override {
    EmbeddingOp::CollectStats(reg);
    stats_publisher().Gauge(reg, "hashed.buckets",
                            static_cast<double>(num_buckets()));
    stats_publisher().Gauge(reg, "hashed.compression",
                            static_cast<double>(num_rows()) /
                                static_cast<double>(num_buckets()));
  }
  std::string Name() const override { return "hashed_embedding_bag"; }

  /// The bucket a logical row maps to; exposed for collision analysis.
  int64_t Bucket(int64_t row) const;

 private:
  CsrBatch Remap(const CsrBatch& batch) const;

  int64_t num_rows_;
  DenseEmbeddingBag inner_;
};

}  // namespace ttrec
