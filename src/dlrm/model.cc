#include "dlrm/model.h"

#include <cmath>
#include <fstream>

#include "dlrm/embedding_bag.h"
#include "dlrm/loss.h"
#include "obs/trace.h"
#include "tensor/aligned.h"
#include "tensor/atomic_file.h"
#include "tensor/check.h"
#include "tensor/parallel.h"
#include "tensor/serialize.h"

namespace ttrec {

namespace {

std::vector<int64_t> BottomDims(const DlrmConfig& c) {
  std::vector<int64_t> dims;
  dims.push_back(c.num_dense);
  dims.insert(dims.end(), c.bottom_hidden.begin(), c.bottom_hidden.end());
  dims.push_back(c.emb_dim);
  return dims;
}

std::vector<int64_t> TopDims(const DlrmConfig& c, int64_t inter_dim) {
  std::vector<int64_t> dims;
  dims.push_back(inter_dim);
  dims.insert(dims.end(), c.top_hidden.begin(), c.top_hidden.end());
  dims.push_back(1);
  return dims;
}

/// One table's step of either embedding loop: checks the bag count, sizes
/// `out` and runs `lookup(cb, out)`, re-throwing an IndexError with the
/// table identified — a bare "index out of range" from a 26-table model is
/// undebuggable.
template <typename Lookup>
void LookupTable(int t, const EmbeddingOp& op, const CsrBatch& cb,
                 int64_t batch_size, std::vector<float>& out,
                 Lookup&& lookup) {
  TTREC_CHECK_SHAPE(cb.num_bags() == batch_size, "table ", t, " has ",
                    cb.num_bags(), " bags for batch size ", batch_size);
  out.assign(static_cast<size_t>(batch_size * op.emb_dim()), 0.0f);
  try {
    lookup(cb, out.data());
  } catch (const IndexError& e) {
    throw IndexError("embedding table " + std::to_string(t) + " ('" +
                     op.Name() + "', " + std::to_string(op.num_rows()) +
                     " rows): " + e.what());
  }
}

}  // namespace

DlrmModel::DlrmModel(const DlrmConfig& config,
                     std::vector<std::unique_ptr<EmbeddingOp>> tables,
                     Rng& rng)
    : config_(config),
      tables_(std::move(tables)),
      bottom_(BottomDims(config), /*final_relu=*/true, rng),
      top_(TopDims(config,
                   DotInteraction(static_cast<int>(tables_.size()) + 1,
                                  config.emb_dim)
                       .out_dim()),
           /*final_relu=*/false, rng),
      interaction_(static_cast<int>(tables_.size()) + 1, config.emb_dim) {
  TTREC_CHECK_CONFIG(!tables_.empty(), "DlrmModel: need at least one table");
  for (const auto& t : tables_) {
    TTREC_CHECK_CONFIG(t != nullptr, "DlrmModel: null table");
    TTREC_CHECK_CONFIG(t->emb_dim() == config_.emb_dim,
                       "DlrmModel: table ", t->Name(), " has emb_dim ",
                       t->emb_dim(), ", model expects ", config_.emb_dim);
  }
}

void DlrmModel::PredictLogits(const MiniBatch& batch, float* logits) {
  InferenceScratch& s = scratch_;
  ForwardDenseInference(batch, s);
  {
    TTREC_TRACE_SCOPE("dlrm.fwd.embedding");
    s.emb_out.resize(tables_.size());
    for (int t = 0; t < num_tables(); ++t) {
      EmbeddingOp& op = *tables_[static_cast<size_t>(t)];
      LookupTable(t, op, SparseForInference(batch, t, s), batch.batch_size(),
                  s.emb_out[static_cast<size_t>(t)],
                  [&op](const CsrBatch& cb, float* out) {
                    op.Forward(cb, out);
                  });
    }
  }
  ForwardTailInference(batch.batch_size(), logits, s);
}

void DlrmModel::PredictLogits(const MiniBatch& batch, float* logits,
                              InferenceScratch& s) const {
  ForwardDenseInference(batch, s);
  ForwardEmbeddingsInference(batch, s);
  ForwardTailInference(batch.batch_size(), logits, s);
}

void DlrmModel::ForwardDenseInference(const MiniBatch& batch,
                                      InferenceScratch& s) const {
  TTREC_CHECK_SHAPE(static_cast<int>(batch.sparse.size()) == num_tables(),
                    "MiniBatch has ", batch.sparse.size(),
                    " sparse features, model has ", num_tables(), " tables");
  const int64_t B = batch.batch_size();
  const int64_t d = config_.emb_dim;
  TTREC_CHECK_SHAPE(batch.dense.ndim() == 2 && batch.dense.dim(0) == B &&
                        batch.dense.dim(1) == config_.num_dense,
                    "MiniBatch dense feature shape mismatch");

  {
    TTREC_TRACE_SCOPE("dlrm.fwd.bottom_mlp");
    bottom_.Forward(batch.dense.data(), B, Grow(s.bottom_out, B * d),
                    s.bottom_act);
  }

  // Sanitization happens serially up front so the parallel embedding stage
  // only reads.
  if (config_.index_policy == IndexPolicy::kClampToZero) {
    s.sanitized_sparse.assign(batch.sparse.begin(), batch.sparse.end());
    for (int t = 0; t < num_tables(); ++t) {
      s.clamped_lookups +=
          s.sanitized_sparse[static_cast<size_t>(t)].ApplyIndexPolicy(
              tables_[static_cast<size_t>(t)]->num_rows(),
              IndexPolicy::kClampToZero,
              tables_[static_cast<size_t>(t)]->Name());
    }
  }
}

void DlrmModel::ForwardEmbeddingsInference(const MiniBatch& batch,
                                           InferenceScratch& s) const {
  TTREC_TRACE_SCOPE("dlrm.fwd.embedding");
  // Shard the table lookups across the pool, one table per chunk. Inner
  // kernels (the TT blocks) also call ParallelFor; those nested calls run
  // inline on the worker, so a 26-table model keeps every core busy on
  // coarse table-level work instead of deadlocking.
  s.emb_out.resize(tables_.size());
  ParallelFor(
      num_tables(),
      [&](int64_t t_begin, int64_t t_end) {
        for (int64_t t = t_begin; t < t_end; ++t) {
          const EmbeddingOp& op = *tables_[static_cast<size_t>(t)];
          LookupTable(static_cast<int>(t), op,
                      SparseForInference(batch, static_cast<int>(t), s),
                      batch.batch_size(), s.emb_out[static_cast<size_t>(t)],
                      [&op](const CsrBatch& cb, float* out) {
                        op.ForwardInference(cb, out);
                      });
        }
      },
      /*grain=*/1);
}

void DlrmModel::ForwardTailInference(int64_t batch_size, float* logits,
                                     InferenceScratch& s) const {
  const int64_t B = batch_size;
  {
    TTREC_TRACE_SCOPE("dlrm.fwd.interaction");
    interaction_.Interact(Features(s), B,
                          Grow(s.inter_out, B * interaction_.out_dim()));
  }
  TTREC_TRACE_SCOPE("dlrm.fwd.top_mlp");
  top_.Forward(s.inter_out.data(), B, logits, s.top_act);
}

std::vector<const float*> DlrmModel::Features(
    const InferenceScratch& s) const {
  std::vector<const float*> features;
  features.reserve(tables_.size() + 1);
  features.push_back(s.bottom_out.data());
  for (int t = 0; t < num_tables(); ++t) {
    features.push_back(s.emb_out[static_cast<size_t>(t)].data());
  }
  return features;
}

double DlrmModel::TrainStep(const MiniBatch& batch, float lr) {
  return TrainStep(batch, OptimizerConfig::Sgd(lr));
}

double DlrmModel::TrainStep(const MiniBatch& batch,
                            const OptimizerConfig& opt) {
  return TrainStepGuarded(batch, opt, StepGuard{}).loss;
}

StepOutcome DlrmModel::TrainStepGuarded(const MiniBatch& batch,
                                        const OptimizerConfig& opt,
                                        const StepGuard& guard) {
  const int64_t B = batch.batch_size();
  const int64_t d = config_.emb_dim;
  StepOutcome out;

  std::vector<float> logits(static_cast<size_t>(B));
  PredictLogits(batch, logits.data());
  const InferenceScratch& s = scratch_;

  std::vector<float> dlogits(static_cast<size_t>(B));
  out.loss = BceWithLogits(logits, batch.labels, dlogits.data());

  // Loss guards fire before backward: nothing has been mutated yet, so a
  // skip is free.
  if (guard.check_non_finite && !std::isfinite(out.loss)) {
    out.non_finite_loss = true;
    out.applied = false;
    return out;
  }
  if (out.loss > guard.skip_loss_above) {
    out.loss_spike_skipped = true;
    out.applied = false;
    return out;
  }

  // Backward reads the forward's activations from scratch_ and writes the
  // gradients into the model's grow-only buffers, each overwritten whole.
  // Top MLP.
  float* dinter = Grow(dinter_, B * interaction_.out_dim());
  {
    TTREC_TRACE_SCOPE("dlrm.bwd.top_mlp");
    top_.Backward(s.inter_out.data(), s.top_act, logits.data(),
                  dlogits.data(), B, dinter);
  }

  // Interaction.
  demb_.resize(tables_.size());
  std::vector<float*> grads;
  grads.reserve(tables_.size() + 1);
  grads.push_back(Grow(dbottom_, B * d));
  for (std::vector<float>& g : demb_) grads.push_back(Grow(g, B * d));
  {
    TTREC_TRACE_SCOPE("dlrm.bwd.interaction");
    interaction_.Backward(Features(s), dinter, B, grads);
  }

  // Embeddings and bottom MLP.
  {
    TTREC_TRACE_SCOPE("dlrm.bwd.embedding");
    for (int t = 0; t < num_tables(); ++t) {
      tables_[static_cast<size_t>(t)]->Backward(
          SparseForInference(batch, t, s), grads[static_cast<size_t>(t) + 1]);
    }
  }
  {
    TTREC_TRACE_SCOPE("dlrm.bwd.bottom_mlp");
    bottom_.Backward(batch.dense.data(), s.bottom_act, s.bottom_out.data(),
                     grads[0], B, nullptr);
  }

  // Gradient guards fire after backward but before the optimizer touches
  // any parameter: a poisoned batch is discarded by zeroing the
  // accumulated gradients, leaving parameters and optimizer state intact.
  if (guard.check_non_finite || guard.grad_clip_norm > 0.0f) {
    TTREC_TRACE_SCOPE("dlrm.guards");
    double sq = bottom_.GradSqNorm() + top_.GradSqNorm();
    for (const auto& t : tables_) sq += t->GradSqNorm();
    out.grad_norm = std::sqrt(sq);
    if (guard.check_non_finite && !std::isfinite(out.grad_norm)) {
      out.non_finite_grad = true;
      out.applied = false;
      ZeroGrad();
      return out;
    }
    if (guard.grad_clip_norm > 0.0f &&
        out.grad_norm > static_cast<double>(guard.grad_clip_norm)) {
      const float scale = static_cast<float>(
          static_cast<double>(guard.grad_clip_norm) / out.grad_norm);
      bottom_.ScaleGrads(scale);
      top_.ScaleGrads(scale);
      for (auto& t : tables_) t->ScaleGrads(scale);
      out.clipped = true;
    }
  }

  // Optimizer step.
  TTREC_TRACE_SCOPE("dlrm.optimizer");
  if (opt.kind == OptimizerConfig::Kind::kAdagrad) {
    bottom_.ApplyAdagrad(opt.lr, opt.eps);
    top_.ApplyAdagrad(opt.lr, opt.eps);
  } else {
    bottom_.ApplySgd(opt.lr);
    top_.ApplySgd(opt.lr);
  }
  for (auto& t : tables_) t->ApplyUpdate(opt);
  return out;
}

void DlrmModel::ZeroGrad() {
  bottom_.ZeroGrad();
  top_.ZeroGrad();
  for (auto& t : tables_) t->ZeroGrad();
}

EvalMetrics DlrmModel::Evaluate(const MiniBatch& batch) const {
  InferenceScratch scratch;
  std::vector<float> logits(static_cast<size_t>(batch.batch_size()));
  PredictLogits(batch, logits.data(), scratch);
  EvalMetrics m;
  m.loss = BceWithLogits(logits, batch.labels, nullptr);
  m.accuracy = BinaryAccuracy(logits, batch.labels);
  m.auc = AucRoc(logits, batch.labels);
  return m;
}

EvalMetrics DlrmModel::Evaluate(const std::vector<MiniBatch>& batches) const {
  TTREC_CHECK_CONFIG(!batches.empty(), "Evaluate: no batches");
  EvalMetrics acc;
  acc.auc = 0.0;
  for (const MiniBatch& b : batches) {
    const EvalMetrics m = Evaluate(b);
    acc.loss += m.loss;
    acc.accuracy += m.accuracy;
    acc.auc += m.auc;
  }
  const double n = static_cast<double>(batches.size());
  acc.loss /= n;
  acc.accuracy /= n;
  acc.auc /= n;
  return acc;
}

namespace {
constexpr uint32_t kCheckpointMagic = 0x4D524C44;  // "DLRM"
constexpr uint32_t kCheckpointVersion = 1;
}  // namespace

void DlrmModel::SaveState(BinaryWriter& w) const {
  w.WriteI64(config_.num_dense);
  w.WriteI64(config_.emb_dim);
  w.WriteI64(num_tables());
  bottom_.SaveState(w);
  top_.SaveState(w);
  for (const auto& t : tables_) {
    w.WriteString(t->Name());
    t->SaveState(w);
  }
}

void DlrmModel::LoadState(BinaryReader& r) {
  TTREC_CHECK_CONFIG(r.ReadI64() == config_.num_dense,
                     "LoadCheckpoint: num_dense mismatch");
  TTREC_CHECK_CONFIG(r.ReadI64() == config_.emb_dim,
                     "LoadCheckpoint: emb_dim mismatch");
  TTREC_CHECK_CONFIG(r.ReadI64() == num_tables(),
                     "LoadCheckpoint: table count mismatch");
  bottom_.LoadState(r);
  top_.LoadState(r);
  for (auto& t : tables_) {
    const std::string name = r.ReadString();
    TTREC_CHECK_CONFIG(name == t->Name(), "LoadCheckpoint: table type '",
                       name, "' does not match model's '", t->Name(), "'");
    t->LoadState(r);
  }
}

void DlrmModel::SaveOptState(BinaryWriter& w) const {
  bottom_.SaveOptState(w);
  top_.SaveOptState(w);
  for (const auto& t : tables_) t->SaveOptState(w);
}

void DlrmModel::LoadOptState(BinaryReader& r) {
  bottom_.LoadOptState(r);
  top_.LoadOptState(r);
  for (auto& t : tables_) t->LoadOptState(r);
}

void DlrmModel::SaveCheckpoint(std::ostream& os) const {
  BinaryWriter w(os);
  w.WriteU32(kCheckpointMagic);
  w.WriteU32(kCheckpointVersion);
  SaveState(w);
  w.Finish();
}

void DlrmModel::LoadCheckpoint(std::istream& is) {
  BinaryReader r(is);
  TTREC_CHECK(r.ReadU32() == kCheckpointMagic,
              "LoadCheckpoint: bad magic (not a DLRM checkpoint)");
  const uint32_t version = r.ReadU32();
  TTREC_CHECK(version == kCheckpointVersion,
              "LoadCheckpoint: unsupported version ", version);
  LoadState(r);
  r.Finish();
}

void DlrmModel::SaveCheckpointToFile(const std::string& path) const {
  AtomicWriteFile(path, [this](std::ostream& os) {
    SaveCheckpoint(os);
    os.flush();
    TTREC_CHECK(os.good(), "SaveCheckpointToFile: write failed");
  });
}

void DlrmModel::LoadCheckpointFromFile(const std::string& path) {
  std::ifstream is(path, std::ios::binary);
  TTREC_CHECK(is.is_open(), "LoadCheckpointFromFile: cannot open ", path);
  LoadCheckpoint(is);
}

void DlrmModel::ReplaceTable(int t, std::unique_ptr<EmbeddingOp> op) {
  TTREC_CHECK_INDEX(t >= 0 && t < num_tables(), "ReplaceTable: index ", t,
                    " out of range");
  TTREC_CHECK_CONFIG(op != nullptr, "ReplaceTable: null operator");
  TTREC_CHECK_CONFIG(op->emb_dim() == config_.emb_dim,
                     "ReplaceTable: emb_dim mismatch");
  TTREC_CHECK_CONFIG(
      op->num_rows() == tables_[static_cast<size_t>(t)]->num_rows(),
      "ReplaceTable: num_rows mismatch (", op->num_rows(), " vs ",
      tables_[static_cast<size_t>(t)]->num_rows(), ")");
  tables_[static_cast<size_t>(t)] = std::move(op);
}

int64_t DlrmModel::EmbeddingMemoryBytes() const {
  int64_t total = 0;
  for (const auto& t : tables_) total += t->MemoryBytes();
  return total;
}

std::unique_ptr<DlrmModel> MakeBaselineDlrm(const DlrmConfig& config,
                                            const DatasetSpec& spec,
                                            Rng& rng) {
  std::vector<std::unique_ptr<EmbeddingOp>> tables;
  tables.reserve(spec.table_rows.size());
  for (int64_t rows : spec.table_rows) {
    tables.push_back(std::make_unique<DenseEmbeddingBag>(
        rows, config.emb_dim, PoolingMode::kSum,
        DenseEmbeddingInit::UniformScaled(), rng));
  }
  return std::make_unique<DlrmModel>(config, std::move(tables), rng);
}

}  // namespace ttrec
