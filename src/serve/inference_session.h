// A read-only forward executor bound to a frozen DlrmModel.
//
// One session = one caller at a time: the session owns the InferenceScratch
// so repeated Run calls reuse working memory instead of reallocating.
// Concurrent serving uses one session per consumer thread over the shared
// const model — safe by the PredictLogits-const contract (dlrm/model.h), as
// long as nothing mutates the model (no TrainStep / LoadCheckpoint /
// ReplaceTable) while sessions are live.
#pragma once

#include <cstdint>
#include <vector>

#include "dlrm/model.h"

namespace ttrec::serve {

class InferenceSession {
 public:
  explicit InferenceSession(const DlrmModel& model) : model_(model) {}

  InferenceSession(const InferenceSession&) = delete;
  InferenceSession& operator=(const InferenceSession&) = delete;

  /// Writes one logit per sample into `logits` (batch.batch_size() floats).
  /// Table lookups shard across the global ThreadPool; results are bitwise
  /// identical for any micro-batching of the same samples.
  void Run(const MiniBatch& batch, float* logits) {
    model_.PredictLogits(batch, logits, scratch_);
  }

  std::vector<float> Run(const MiniBatch& batch) {
    std::vector<float> logits(static_cast<size_t>(batch.batch_size()));
    Run(batch, logits.data());
    return logits;
  }

  const DlrmModel& model() const { return model_; }

  /// Upper bound on the transient working memory of one Run call, for
  /// replica capacity planning: every table's kernel workspace on top of
  /// the session-owned scratch. Run shards tables across the pool one
  /// table per chunk (dlrm/model.h), so within a call each table's TT
  /// kernel executes single-threaded — hence WorkspaceBytes(1) per table.
  /// The TT tables one thread runs share that thread's workspace, so the
  /// sum over-counts when several tables land on one thread.
  /// The session scratch itself (MLP activations, per-table outputs) is
  /// sized by the first Run and reused; this estimate reflects its current
  /// allocation.
  int64_t WorkspaceBytesEstimate() const {
    int64_t bytes = 0;
    for (int t = 0; t < model_.num_tables(); ++t) {
      bytes += model_.table(t).WorkspaceBytes(/*num_threads=*/1);
    }
    auto vec_bytes = [](const std::vector<float>& v) {
      return static_cast<int64_t>(v.capacity() * sizeof(float));
    };
    bytes += vec_bytes(scratch_.bottom_out) + vec_bytes(scratch_.inter_out);
    for (const auto& v : scratch_.bottom_act) bytes += vec_bytes(v);
    for (const auto& v : scratch_.emb_out) bytes += vec_bytes(v);
    for (const auto& v : scratch_.top_act) bytes += vec_bytes(v);
    return bytes;
  }

  /// Lookups zeroed under IndexPolicy::kClampToZero since construction.
  int64_t clamped_lookups() const { return scratch_.clamped_lookups; }

 private:
  const DlrmModel& model_;
  InferenceScratch scratch_;
};

}  // namespace ttrec::serve
