// T3nsor-style TT embedding (Hrinchuk et al. 2020) — the SOTA comparator of
// paper §6.4 / Figure 8.
//
// T3nsor stores TT cores but *decompresses the entire table on the fly* for
// each lookup batch, so its transient memory footprint during training
// equals the uncompressed table (the paper's square markers in Figure 8)
// and its forward cost scales with the full table rather than the batch.
// TT-Rec's batched per-lookup kernel is the contrast: footprint
// ~ batch_size x emb_dim, roughly #EmbRows/BatchSize smaller.
#pragma once

#include <cstdint>
#include <string>

#include "dlrm/embedding_op.h"
#include "tt/tt_embedding.h"

namespace ttrec {

class T3nsorEmbeddingBag : public EmbeddingOp {
 public:
  T3nsorEmbeddingBag(TtEmbeddingConfig config, TtInit init, Rng& rng);

  /// Materializes the full table, then gathers and pools — the defining
  /// behaviour this baseline reproduces.
  void Forward(const CsrBatch& batch, float* output) override {
    ForwardInference(batch, output);
  }
  void ForwardInference(const CsrBatch& batch, float* output) const override;

  void Backward(const CsrBatch& batch, const float* grad_output) override;
  void ApplySgd(float lr) override;
  void ApplyUpdate(const OptimizerConfig& opt) override {
    if (opt.kind == OptimizerConfig::Kind::kAdagrad) {
      tt_.ApplyAdagrad(opt.lr, opt.eps);
    } else {
      tt_.ApplySgd(opt.lr);
    }
  }

  int64_t num_rows() const override { return tt_.num_rows(); }
  int64_t emb_dim() const override { return tt_.emb_dim(); }
  /// Persistent parameter memory (cores only; the materialized table is
  /// transient — see WorkingSetBytes).
  int64_t MemoryBytes() const override { return tt_.MemoryBytes(); }
  void CollectStats(obs::MetricRegistry& reg) const override {
    EmbeddingOp::CollectStats(reg);
    stats_publisher().Gauge(reg, "t3nsor.working_set_bytes",
                            static_cast<double>(WorkingSetBytes()));
  }
  std::string Name() const override { return "t3nsor_embedding"; }

  /// Peak transient memory of a Forward call: the fully materialized table.
  int64_t WorkingSetBytes() const {
    return num_rows() * emb_dim() * static_cast<int64_t>(sizeof(float));
  }

  TtEmbeddingBag& tt() { return tt_; }

 private:
  TtEmbeddingBag tt_;
  PoolingMode pooling_;
};

}  // namespace ttrec
