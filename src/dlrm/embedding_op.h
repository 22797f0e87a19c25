// The embedding-operator interface every table implementation plugs into
// the DLRM (paper Figure 2: the baseline EmbeddingBag and the TT-Rec block
// are interchangeable drop-ins).
//
// Implementations in this repo: DenseEmbeddingBag (the PyTorch-EmbeddingBag
// baseline), TtEmbeddingAdapter, CachedTtEmbeddingAdapter, and the related-
// work baselines (T3nsor-style TT, hashing trick, low-rank).
#pragma once

#include <cstdint>
#include <string>

#include "data/csr_batch.h"
#include "dlrm/optimizer.h"
#include "obs/metrics.h"
#include "tensor/serialize.h"

namespace ttrec {

class CachedTtEmbeddingBag;

class EmbeddingOp {
 public:
  virtual ~EmbeddingOp() = default;

  /// Pools `batch` into `output` (num_bags x emb_dim, overwritten).
  virtual void Forward(const CsrBatch& batch, float* output) = 0;

  /// Read-only forward for serving and DlrmModel::Evaluate: Forward's
  /// pooling path without its training side effects. Must not mutate any
  /// operator state (no gradient buffers, no iteration counters, no cache
  /// refreshes) and must be safe for concurrent callers. Its output must
  /// be bitwise identical to what Forward pools from the same state, and
  /// whether lookups arrive one request at a time or micro-batched. Every
  /// operator in src/ overrides; the default rejects so an unsupported
  /// operator fails loudly rather than racing.
  virtual void ForwardInference(const CsrBatch& /*batch*/,
                                float* /*output*/) const {
    throw ConfigError(Name() + " does not implement ForwardInference");
  }

  /// Pools pre-fetched rows: `rows` holds one already-decoded emb_dim row
  /// per lookup of `batch`, laid out in lookup order (row l at
  /// rows + l*emb_dim). Writes num_bags x emb_dim into `output`
  /// (overwritten), applying exactly the same weighting/accumulation
  /// arithmetic — in the same order — as ForwardInference would, so pooling
  /// rows fetched remotely (the shard router's split bags, src/shard/) is
  /// bitwise identical to pooling locally. batch.indices are still the
  /// GLOBAL row ids (cached operators key their hit path on them); only the
  /// row DATA comes from `rows`. Const and thread-safe like
  /// ForwardInference; the default rejects.
  virtual void PoolPrefetchedRows(const CsrBatch& /*batch*/,
                                  const float* /*rows*/,
                                  float* /*output*/) const {
    throw ConfigError(Name() + " does not implement PoolPrefetchedRows");
  }

  /// Accumulates parameter gradients given dL/d(output).
  virtual void Backward(const CsrBatch& batch, const float* grad_output) = 0;

  /// params -= lr * grad; clears gradients.
  virtual void ApplySgd(float lr) = 0;

  /// Applies `opt` (SGD or Adagrad). The default handles SGD and rejects
  /// optimizers the operator does not implement; operators with Adagrad
  /// support override.
  virtual void ApplyUpdate(const OptimizerConfig& opt) {
    switch (opt.kind) {
      case OptimizerConfig::Kind::kSgd:
        ApplySgd(opt.lr);
        return;
      case OptimizerConfig::Kind::kAdagrad:
        throw ConfigError(Name() + " does not implement adagrad");
    }
  }

  /// Serializes / restores the operator's learned parameters (not the
  /// optimizer state). Defaults reject; operators that participate in DLRM
  /// checkpoints (dense, TT, cached TT) override. LoadState must be called
  /// on an operator constructed with the same configuration.
  virtual void SaveState(BinaryWriter& /*w*/) const {
    throw ConfigError(Name() + " does not support checkpointing");
  }
  virtual void LoadState(BinaryReader& /*r*/) {
    throw ConfigError(Name() + " does not support checkpointing");
  }

  /// Serializes / restores optimizer state (Adagrad accumulators) so a
  /// resumed run continues the exact optimizer trajectory. The default
  /// writes an empty marker — correct for operators that carry no state
  /// beyond their parameters (pure SGD).
  virtual void SaveOptState(BinaryWriter& w) const { w.WriteU32(0); }
  virtual void LoadOptState(BinaryReader& r) {
    TTREC_CHECK_CONFIG(r.ReadU32() == 0, Name(),
                       ": checkpoint carries optimizer state this operator "
                       "cannot restore");
  }

  // Gradient guards used by the fault-tolerant trainer (skip-batch on
  // non-finite gradients, global-norm clipping). Defaults reject so a
  // guarded run fails loudly on operators that have not implemented them;
  // dense, TT, and cached TT override.

  /// Discards accumulated gradients without applying them (drop a
  /// poisoned batch).
  virtual void ZeroGrad() {
    throw ConfigError(Name() + " does not support gradient guards");
  }
  /// Sum of squares of all accumulated parameter gradients.
  virtual double GradSqNorm() const {
    throw ConfigError(Name() + " does not support gradient guards");
  }
  /// Multiplies all accumulated gradients by `scale` (gradient clipping).
  virtual void ScaleGrads(float /*scale*/) {
    throw ConfigError(Name() + " does not support gradient guards");
  }

  /// Adds this operator's lifetime statistics into `reg`. Implementations
  /// publish into shared metric names ("cache.hits", "tt.lookups", ...), so
  /// collecting a whole model into one registry sums per-table totals for
  /// free; callers that want a point-in-time view collect into a fresh
  /// registry per snapshot. Collection must be idempotent: repeated calls
  /// against the same registry leave every counter at the exact cumulative
  /// total, never double-counted — publish through stats_publisher() (which
  /// tracks a per-registry baseline and adds only the delta) rather than
  /// raw counter().Add of a cumulative value. The default records what
  /// every operator has — its parameter memory and its presence. Overrides
  /// should extend, not replace: call EmbeddingOp::CollectStats(reg) first.
  virtual void CollectStats(obs::MetricRegistry& reg) const {
    stats_publisher_.Counter(reg, "emb.tables", 1);
    stats_publisher_.Gauge(reg, "emb.memory_bytes",
                           static_cast<double>(MemoryBytes()));
  }

  /// Zeroes the resettable statistics CollectStats reports (cache hit/miss
  /// windows and the like). Default no-op: most operators report only
  /// monotone lifetime stats. Replaces the dynamic_cast reach-in the serve
  /// CLI used for cached tables.
  virtual void ResetStats() {}

  virtual int64_t num_rows() const = 0;
  virtual int64_t emb_dim() const = 0;

  /// Parameter memory in bytes (the x-axis of Figures 1/5/8).
  virtual int64_t MemoryBytes() const = 0;

  /// Peak transient working memory of one Forward/Backward call when the
  /// operator's kernels run on `num_threads` pool workers (0 = the current
  /// global ThreadPool) — what a capacity planner adds on top of
  /// MemoryBytes. Default 0: dense and baseline operators pool straight
  /// into the caller's output.
  virtual int64_t WorkspaceBytes(int /*num_threads*/ = 0) const { return 0; }

  /// The cached-TT bag backing this operator, when it has one — the hook
  /// the trainer uses to register tables with the CacheManager for global
  /// cache autotuning. Default nullptr: not cache-backed.
  virtual CachedTtEmbeddingBag* cached_bag() { return nullptr; }

  virtual std::string Name() const = 0;

 protected:
  /// Per-operator publisher for idempotent stat collection (see
  /// CollectStats). Shared by the base default and overrides.
  const obs::StatPublisher& stats_publisher() const {
    return stats_publisher_;
  }

 private:
  obs::StatPublisher stats_publisher_;
};

}  // namespace ttrec
