// TT-EmbeddingBag: the paper's core operator (§4.1, Algorithms 1 & 2).
//
// One GEMM chain serves every path. A batch of lookups is processed in
// blocks of up to `block_size` lookups. Within a block, for c = 1..d-1, the
// block's units (lookups, or distinct rows under dedup) are counting-sorted
// by digit c, and every touched slice G_c[i] multiplies its stacked bucket
// of P_{c-1} rows in ONE GEMM — the CPU counterpart of the per-stage
// GemmBatchedEx launches in Algorithm 1, grouped by slice (the
// gather-reduce of Tensor Casting). Stacking is bitwise safe because a
// GEMM row's result depends on nothing but its own operands
// (tensor/gemm_kernels.h), so every row equals its one-lookup product.
//
// Forward: blocks execute concurrently on the global ThreadPool and copy
// their rows out of bucket order into lookup order. The rows are then
// pooled into bags with optional per-sample weights (Eq. 6/7); every bag is
// owned by exactly one pooling task and accumulates its lookups in lookup
// order, so pooled outputs are bitwise independent of the thread count.
// Forward, ForwardInference and PoolPrefetchedRows share this one pooling
// path; they differ in the dedup choice, the stats counters, and whether
// the rows are reconstructed or given. LookupRows, the cache's admission
// decode, runs the same blocks without pooling.
//
// Backward (Algorithm 2, Eq. 4/5) recomputes the intermediates through the
// same chain (the paper's default; §4.2's stash trades memory for speed,
// but measured slower here), then runs a per-core gather-reduce. Blocks run
// one after another. In each block, for core c from d-1 down, every touched
// slice takes ONE GEMM over its bucket, sum_l P_l^T D_l = [P]^T [D],
// accumulated straight into the dense per-core gradient, and propagates
// D_{c-1} = D_c G_c[i]^T with one more GEMM per bucket. Slices are
// independent tasks with one writer each, bucket order depends only on the
// batch and `block_size`, and blocks accumulate in block order, so the
// result is bitwise identical for any thread count, and duplicate indices
// within a batch stay well-defined.
//
// Forward and backward scratch lives in one per-thread workspace reused
// across calls and tables, so a steady-state call does not re-allocate (and
// re-fault) its block buffers.
//
// ApplySgd folds the accumulated gradients into the cores (plain SGD, the
// optimizer MLPerf-DLRM uses) and clears them.
#pragma once

#include <cstdint>
#include <memory>
#include <span>
#include <vector>

#include "data/csr_batch.h"
#include "tensor/aligned.h"
#include "tensor/serialize.h"
#include "tensor/tensor.h"
#include "tt/tt_cores.h"
#include "tt/tt_init.h"

namespace ttrec {

struct TtEmbeddingConfig {
  TtShape shape;
  PoolingMode pooling = PoolingMode::kSum;
  /// Max lookups per GEMM-chain block (B in Algorithm 1). Blocks are the
  /// forward's unit of parallelism and bound intermediate memory at
  /// block_size * emb_dim * max_rank floats per in-flight block; within a
  /// block, the lookups that share a core slice share one GEMM. Block
  /// boundaries are a function of this config alone — never of the thread
  /// count — which is what makes dedup grouping and the backward's bucket
  /// and accumulation order reproducible.
  int64_t block_size = 1024;
  /// Deduplicate repeated row indices within each block: the TT chain runs
  /// once per distinct row, lookups copy/aggregate. Wins when pooling
  /// factors are large (the embedding-dominated DLRMs of paper §6.6) or
  /// traffic is Zipf-hot.
  bool deduplicate = false;
};

/// Counters for the memory/compute accounting of Figures 8 and 11.
struct TtEmbeddingStats {
  int64_t forward_calls = 0;
  int64_t backward_calls = 0;
  int64_t lookups = 0;
  int64_t forward_flops = 0;
  int64_t backward_flops = 0;
};

class TtEmbeddingBag {
 public:
  /// Creates the operator and initializes cores with `init`.
  TtEmbeddingBag(TtEmbeddingConfig config, TtInit init, Rng& rng);

  /// Adopts pre-built cores (e.g. from TtDecompose of a trained table).
  TtEmbeddingBag(TtEmbeddingConfig config, TtCores cores);

  int64_t num_rows() const { return cores_.num_rows(); }
  int64_t emb_dim() const { return cores_.emb_dim(); }
  const TtShape& shape() const { return cores_.shape(); }
  const TtEmbeddingConfig& config() const { return config_; }
  TtCores& cores() { return cores_; }
  const TtCores& cores() const { return cores_; }
  const TtEmbeddingStats& stats() const { return stats_; }

  /// Pools the batch into `output` (num_bags x emb_dim, row-major,
  /// overwritten). Validates the batch against num_rows(). Blocks run
  /// concurrently on the global ThreadPool; the result is bitwise identical
  /// for any thread count.
  void Forward(const CsrBatch& batch, float* output);

  /// Read-only forward for serving: Forward's pooling path minus dedup (so
  /// per-lookup results are independent of how requests are batched) and
  /// minus the stats counters; const and thread-safe for concurrent
  /// callers. Serving telemetry lives in serve/ServeMetrics instead.
  void ForwardInference(const CsrBatch& batch, float* output) const;

  /// Pools pre-decoded rows (one emb_dim row per lookup of `batch`, lookup
  /// order) into `output` through the same pooling phase as
  /// ForwardInference, with the decode skipped — bit for bit the same. Lets
  /// the shard router pool rows fetched from remote shards identically to a
  /// local lookup.
  void PoolPrefetchedRows(const CsrBatch& batch, const float* rows,
                          float* output) const;

  /// Reconstructs individual rows without pooling into `out`
  /// (indices.size() x emb_dim). Uses the same GEMM chain; blocks run
  /// concurrently (disjoint output ranges, no accumulation). Bitwise equal
  /// to TtCores::MaterializeRow per row. Const and uncounted in stats(): the
  /// cache decodes its admitted rows here, and those are not TT forward
  /// traffic.
  void LookupRows(std::span<const int64_t> indices, float* out) const;

  /// Accumulates core gradients for `batch` given `grad_output`
  /// (num_bags x emb_dim), recomputing the forward intermediates.
  void Backward(const CsrBatch& batch, const float* grad_output);

  /// cores -= lr * grads; gradients are cleared. Touched slices update in
  /// parallel (each slice is owned by one task — deterministic for any
  /// chunking).
  void ApplySgd(float lr);

  /// Elementwise Adagrad on the TT cores: state += g^2,
  /// core -= lr * g / (sqrt(state) + eps). Only touched slices are visited;
  /// the accumulator persists across steps (allocated lazily, one float per
  /// core parameter). The paper trains with SGD (MLPerf); this is the
  /// production-DLRM optimizer offered as an extension.
  void ApplyAdagrad(float lr, float eps = 1e-8f);

  /// Accumulated gradient of core k (same geometry as the core).
  const Tensor& core_grad(int k) const;

  /// Clears accumulated gradients without applying them.
  void ZeroGrad();

  /// Sum of squares over all accumulated core gradients (touched slices
  /// only — untouched slices are zero).
  double GradSqNorm() const;

  /// Scales all accumulated core gradients (gradient clipping).
  void ScaleGrads(float scale);

  /// Serializes / restores the Adagrad accumulators so a resumed run
  /// continues the exact optimizer trajectory (no-op marker under SGD).
  void SaveOptState(BinaryWriter& w) const;
  void LoadOptState(BinaryReader& r);

  /// Parameter memory (cores only).
  int64_t MemoryBytes() const { return cores_.MemoryBytes(); }
  /// Peak scratch memory of Forward and Backward: one per-thread workspace
  /// per pool thread, each holding one block's digits, dedup grouping,
  /// counting sort, stage products and bucket stacks (shared by forward and
  /// backward), and the backward's D buffers and transposed slice; plus the
  /// round of reconstructed rows the calling thread's workspace holds for
  /// the pooling phase. `num_threads` <= 0 means size for the current
  /// global ThreadPool. The pooling phase's bag and weight per lookup (12
  /// bytes per lookup of the largest batch) scale with the batch, not the
  /// config, and are not counted.
  int64_t WorkspaceBytes(int num_threads = 0) const;

 private:
  struct Workspace;

  /// The calling thread's workspace (see Workspace in the .cc).
  static Workspace& ThreadWorkspace();

  /// Makes lookups [begin, end) of `indices` the block's units in ws — one
  /// per lookup, or one per distinct row when `dedup` — and decodes their
  /// digits. Returns the unit count.
  int64_t SetUnits(std::span<const int64_t> indices, int64_t begin,
                   int64_t end, bool dedup, Workspace& ws) const;

  /// The one TT GEMM chain: for c = 1..last_stage, counting-sorts the
  /// block's units by digit c and multiplies each touched slice's stacked
  /// bucket of P_{c-1} rows in ONE GEMM into P_c (ws.inter[c], bucket
  /// order). Every stacked row is bitwise its own one-lookup product (the
  /// row contract of tensor/gemm_kernels.h). Const — all mutable state is in
  /// `ws`, which is what makes the inference path shareable across threads.
  void ChainBlock(int64_t units, int last_stage, Workspace& ws) const;

  /// P_c of unit u after ChainBlock: its core-0 slice for c = 0.
  const float* ChainRow(int c, int64_t units, int64_t u,
                        const Workspace& ws) const;

  /// Reconstructs lookups [begin, end) of `indices` into `rows_out`
  /// (lookup order, emb_dim stride) through ChainBlock.
  void DecodeBlock(std::span<const int64_t> indices, int64_t begin,
                   int64_t end, bool dedup, float* rows_out,
                   Workspace& ws) const;

  /// The one pooling path of Forward, ForwardInference and
  /// PoolPrefetchedRows: validates the batch and overwrites `output`. Per
  /// round of blocks, phase 1 reconstructs the rows block-parallel (skipped
  /// when `rows` already holds them, one per lookup in lookup order), and
  /// phase 2 pools them bag by bag in lookup order, one owner per bag.
  /// Rounds bound the row buffer; round boundaries never change results.
  void PooledForward(const CsrBatch& batch, const float* rows, float* output,
                     bool dedup) const;

  /// Backward for lookups [begin, end): ChainBlock's recompute, then the
  /// per-core gather-reduce of Algorithm 2, accumulating every touched
  /// slice's gradient into grads_.
  void BackwardBlock(const CsrBatch& batch, const float* grad_output,
                     int64_t begin, int64_t end, Workspace& ws);

  /// Stable counting sort of the block's first `units` units by digit `c`
  /// (read from ws.digits) into ws.order / ws.bucket_start, listing the
  /// nonempty buckets in ws.touched. O(units): only touched slices are
  /// visited.
  void SortUnitsByDigit(int c, int64_t units, Workspace& ws) const;

  void EnsureGrads();

  /// Marks slice `ik` of core `k` as carrying gradient (so ApplySgd and
  /// ZeroGrad touch only dirty slices — O(batch) instead of O(params)).
  void MarkTouched(int k, int64_t ik);

  TtEmbeddingConfig config_;
  TtCores cores_;
  std::vector<Tensor> grads_;          // lazily allocated, one per core
  std::vector<Tensor> adagrad_state_;  // lazily allocated by ApplyAdagrad
  // Dirty-slice tracking: flags (per core, per slice) + compact lists.
  std::vector<std::vector<uint8_t>> touched_flags_;
  std::vector<std::vector<int64_t>> touched_slices_;
  TtEmbeddingStats stats_;

  // prodn_[k] = n_0 * ... * n_k (column-factor prefix products).
  std::vector<int64_t> prodn_;

  int64_t fwd_flops_per_lookup_ = 0;
  int64_t bwd_flops_per_lookup_ = 0;
  // Largest per-unit propagated gradient D_c = prodn_[c] * R_{c+1} over
  // c in [0, d-1] (also bounds every intermediate P_c); sizes the backward
  // D buffers and bucket stacks.
  int64_t max_d_floats_ = 0;
};

}  // namespace ttrec
