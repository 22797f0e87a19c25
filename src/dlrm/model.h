// The full DLRM (paper Figure 2): bottom MLP over dense features, one
// embedding operator per categorical table (baseline EmbeddingBag, TT-Rec,
// or cached TT-Rec — freely mixed per table), dot interaction, top MLP,
// BCE-with-logits. Manual backprop end to end, plain SGD (the MLPerf-DLRM
// optimizer).
#pragma once

#include <cstdint>
#include <iosfwd>
#include <limits>
#include <memory>
#include <string>
#include <vector>

#include "data/criteo_synth.h"
#include "dlrm/embedding_op.h"
#include "dlrm/interaction.h"
#include "dlrm/mlp.h"
#include "dlrm/optimizer.h"
#include "tensor/random.h"

namespace ttrec {

struct DlrmConfig {
  int64_t num_dense = 13;
  int64_t emb_dim = 16;
  /// Hidden sizes of the bottom tower; the final layer always maps to
  /// emb_dim (MLPerf Kaggle reference: 512-256-64-16).
  std::vector<int64_t> bottom_hidden = {64, 32};
  /// Hidden sizes of the top tower; a final linear-to-1 layer is appended
  /// (MLPerf Kaggle reference: 512-256-1).
  std::vector<int64_t> top_hidden = {64, 32};
  /// Out-of-range categorical ids: throw (training — a bad id is a data
  /// bug) or clamp to a zero-vector contribution (serving — the request
  /// still completes). Clamped lookups are counted in clamped_lookups().
  IndexPolicy index_policy = IndexPolicy::kThrow;
};

/// Per-step guard limits for the fault-tolerant training loop. The default
/// guard checks nothing and is numerically identical to a bare TrainStep.
struct StepGuard {
  /// Detect non-finite loss (before backward) and non-finite gradients
  /// (before the optimizer step); the offending batch is skipped.
  bool check_non_finite = false;
  /// Global L2 gradient-norm clipping threshold; 0 disables.
  float grad_clip_norm = 0.0f;
  /// Skip the update (before backward) when the batch loss reaches this
  /// value — the trainer's loss-spike detector sets it per step.
  double skip_loss_above = std::numeric_limits<double>::infinity();
};

/// What a guarded training step actually did.
struct StepOutcome {
  double loss = 0.0;
  bool applied = true;            // false: parameters were left untouched
  bool non_finite_loss = false;
  bool non_finite_grad = false;
  bool loss_spike_skipped = false;  // skip_loss_above triggered
  bool clipped = false;
  double grad_norm = 0.0;  // global L2 norm (0 when guards are off)
};

struct EvalMetrics {
  double loss = 0.0;
  double accuracy = 0.0;
  double auc = 0.5;
};

/// The activations of one forward, and its working memory. The const
/// PredictLogits overload and its three stages write into a caller-owned
/// instance: the serving layer keeps one per session, so concurrent
/// inference threads never share mutable buffers, and reusing an instance
/// across calls avoids per-request allocation churn. The training forward
/// writes into one the model owns, which backward then reads.
struct InferenceScratch {
  std::vector<float> bottom_out;                  // B x d
  std::vector<std::vector<float>> bottom_act;     // bottom-MLP hidden layers
  std::vector<std::vector<float>> emb_out;        // per table, B x d
  std::vector<float> inter_out;                   // B x inter_dim
  std::vector<std::vector<float>> top_act;        // top-MLP hidden layers
  std::vector<CsrBatch> sanitized_sparse;         // only under kClampToZero
  /// Lookups rewritten to zero-vectors under IndexPolicy::kClampToZero,
  /// accumulated across calls using this scratch.
  int64_t clamped_lookups = 0;
};

class DlrmModel {
 public:
  /// `tables` supplies one EmbeddingOp per categorical feature; all must
  /// share config.emb_dim.
  DlrmModel(const DlrmConfig& config,
            std::vector<std::unique_ptr<EmbeddingOp>> tables, Rng& rng);

  int num_tables() const { return static_cast<int>(tables_.size()); }
  const DlrmConfig& config() const { return config_; }
  EmbeddingOp& table(int t) { return *tables_[static_cast<size_t>(t)]; }
  const EmbeddingOp& table(int t) const {
    return *tables_[static_cast<size_t>(t)];
  }

  /// Replaces table `t` in place — the post-training compression workflow
  /// (e.g. swap a trained dense table for its TT-SVD or quantized form and
  /// re-evaluate). The replacement must match emb_dim and num_rows.
  void ReplaceTable(int t, std::unique_ptr<EmbeddingOp> op);

  /// The training forward: writes one logit per sample into `logits`. It
  /// runs the dense and tail stages below around each table's mutating
  /// Forward (cache warm-up, frequency tracking, stats), all on the model's
  /// own scratch, whose activations TrainStep's backward then reads.
  void PredictLogits(const MiniBatch& batch, float* logits);

  /// Read-only forward for serving and evaluation: the same stages and
  /// arithmetic as the training forward (the logits are bitwise identical,
  /// also for any micro-batching of the same requests), but const — each
  /// table runs its ForwardInference, so no cache refresh and no table
  /// state mutation. All working memory lives in the caller-owned
  /// `scratch`, so concurrent callers with distinct scratches are safe as
  /// long as nothing mutates the model (no TrainStep / LoadCheckpoint /
  /// ReplaceTable in flight). Table lookups are sharded across the global
  /// ThreadPool, one table per chunk.
  void PredictLogits(const MiniBatch& batch, float* logits,
                     InferenceScratch& scratch) const;

  // Staged const forward — PredictLogits(const) split at the embedding
  // boundary so the shard router (src/shard/) can substitute its fan-out/
  // join for the local table loop, and the training forward its mutating
  // table loop, while both reuse the dense tower, the sanitize pass, and
  // the interaction/top tower unchanged. Calling the three stages in order
  // on one scratch is bitwise identical to PredictLogits(const). Each stage
  // records its dlrm.fwd.* trace span.

  /// Stage 1: shape checks, bottom MLP into scratch.bottom_out, and (under
  /// kClampToZero) the serial sanitize pass into scratch.sanitized_sparse.
  void ForwardDenseInference(const MiniBatch& batch,
                             InferenceScratch& scratch) const;
  /// Stage 2: the table-parallel embedding loop into scratch.emb_out.
  /// Reads scratch.sanitized_sparse when the model clamps (stage 1 must
  /// have run on this scratch).
  void ForwardEmbeddingsInference(const MiniBatch& batch,
                                  InferenceScratch& scratch) const;
  /// Stage 3: dot interaction + top MLP from scratch.{bottom_out,emb_out}.
  void ForwardTailInference(int64_t batch_size, float* logits,
                            InferenceScratch& scratch) const;

  /// The lookup batch table `t` sees in the staged forward: the sanitized
  /// copy in `scratch` when the model clamps, `batch.sparse[t]` otherwise.
  /// Valid after ForwardDenseInference.
  const CsrBatch& SparseForInference(const MiniBatch& batch, int t,
                                     const InferenceScratch& scratch) const {
    return config_.index_policy == IndexPolicy::kClampToZero
               ? scratch.sanitized_sparse[static_cast<size_t>(t)]
               : batch.sparse[static_cast<size_t>(t)];
  }

  /// Forward + backward + SGD step; returns the batch BCE loss.
  double TrainStep(const MiniBatch& batch, float lr);

  /// Forward + backward + optimizer step (SGD or Adagrad applied to MLPs
  /// and every embedding table); returns the batch BCE loss.
  double TrainStep(const MiniBatch& batch, const OptimizerConfig& opt);

  /// TrainStep with fault guards: non-finite loss/gradient detection,
  /// global-norm gradient clipping, and a loss ceiling (spike skip). When
  /// a guard fires the parameters (and optimizer state) are left exactly
  /// as they were — the batch is dropped, gradients discarded. With the
  /// default StepGuard this is bit-identical to TrainStep.
  StepOutcome TrainStepGuarded(const MiniBatch& batch,
                               const OptimizerConfig& opt,
                               const StepGuard& guard);

  /// Metrics on a held-out batch through the const forward: no parameter
  /// updates, and no cache warm-up, frequency tracking or refresh.
  EvalMetrics Evaluate(const MiniBatch& batch) const;

  /// Averaged metrics over several evaluation batches.
  EvalMetrics Evaluate(const std::vector<MiniBatch>& batches) const;

  /// Serializes MLP towers and every table's learned parameters into a
  /// versioned, checksummed checkpoint. Optimizer state is not persisted
  /// (exact resume under SGD; Adagrad restarts its accumulators).
  void SaveCheckpoint(std::ostream& os) const;

  /// Restores a checkpoint into this model; the architecture (table count,
  /// per-table operator type and shape, MLP dims) must match the one that
  /// saved it.
  void LoadCheckpoint(std::istream& is);

  void SaveCheckpointToFile(const std::string& path) const;
  void LoadCheckpointFromFile(const std::string& path);

  /// Writer-level flavors (no magic/trailer) so the model state can embed
  /// inside a larger artifact, e.g. a full-training-state snapshot
  /// (dlrm/checkpoint.h).
  void SaveState(BinaryWriter& w) const;
  void LoadState(BinaryReader& r);

  /// Optimizer state (Adagrad accumulators of both towers and every
  /// table); an empty marker under pure SGD.
  void SaveOptState(BinaryWriter& w) const;
  void LoadOptState(BinaryReader& r);

  /// Discards all pending gradients (towers and tables).
  void ZeroGrad();

  /// Lookups the training forward rewrote to zero-vectors under
  /// IndexPolicy::kClampToZero.
  int64_t clamped_lookups() const { return scratch_.clamped_lookups; }

  int64_t EmbeddingMemoryBytes() const;
  int64_t MlpMemoryBytes() const {
    return bottom_.MemoryBytes() + top_.MemoryBytes();
  }
  int64_t TotalMemoryBytes() const {
    return EmbeddingMemoryBytes() + MlpMemoryBytes();
  }

 private:
  /// The interaction's feature blocks in `s`: the bottom MLP's output, then
  /// every table's.
  std::vector<const float*> Features(const InferenceScratch& s) const;

  DlrmConfig config_;
  std::vector<std::unique_ptr<EmbeddingOp>> tables_;
  Mlp bottom_;
  Mlp top_;
  DotInteraction interaction_;
  InferenceScratch scratch_;  // the training forward's activations
  // The training backward's gradient buffers (grow-only, see tensor/aligned.h).
  std::vector<float> dinter_;              // B x inter_dim
  std::vector<float> dbottom_;             // B x d
  std::vector<std::vector<float>> demb_;   // per table, B x d
};

/// Convenience factory: builds a DLRM over `spec` where every table is an
/// uncompressed DenseEmbeddingBag (the paper's baseline).
std::unique_ptr<DlrmModel> MakeBaselineDlrm(const DlrmConfig& config,
                                            const DatasetSpec& spec, Rng& rng);

}  // namespace ttrec
