#include "probes.h"

#include <algorithm>
#include <limits>
#include <sstream>
#include <stdexcept>

#include "cache/cached_tt_embedding.h"
#include "dlrm/embedding_adapters.h"
#include "dlrm/embedding_bag.h"
#include "dlrm/interaction.h"
#include "dlrm/mlp.h"
#include "serve/inference_server.h"
#include "shard/shard_plan.h"
#include "shard/shard_router.h"
#include "tensor/random.h"
#include "tensor/serialize.h"

namespace perfbench {
namespace {

struct LayerMetric {
  const char* name;
  const char* unit;
};

// Mirrors BENCHMARK.json's per_layer list; README.md maps each metric to
// the end-to-end metric it should move.
constexpr LayerMetric kLayerMetrics[] = {
    {"tensor.gemm_gflops", "GFLOP/s"},
    {"tt.fwd_us", "us"},
    {"tt.bwd_us", "us"},
    {"tt.opt_us", "us"},
    {"tt.bwd_over_fwd", "ratio"},
    {"tt.fwd_gflops", "GFLOP/s"},
    {"tt.bwd_gflops", "GFLOP/s"},
    {"tt.infer_us", "us"},
    {"cache.hit_rate", "fraction"},
    {"cache.fwd_us", "us"},
    {"cache.bwd_us", "us"},
    {"cache.opt_us", "us"},
    {"cache.prefetch_us", "us"},
    {"cache.prefetch_rows", "count"},
    {"cache.evictions", "count"},
    {"data.wait_us", "us"},
    {"dlrm.step_us", "us"},
    {"dlrm.dense_us", "us"},
    {"dlrm.dense_tables_us", "us"},
    {"dlrm.bottom_mlp_us", "us"},
    {"dlrm.interaction_us", "us"},
    {"dlrm.top_mlp_us", "us"},
    {"dlrm.infer_dense_us", "us"},
    {"dlrm.infer_emb_us", "us"},
    {"dlrm.infer_tail_us", "us"},
    {"dlrm.checkpoint_stall_us", "us"},
    {"dlrm.checkpoint_bg_s", "s"},
    {"serve.latency_p99_us", "us"},
    {"serve.queue_wait_p50_us", "us"},
    {"serve.queue_wait_p99_us", "us"},
    {"serve.mean_batch", "count"},
    {"serve.shed_ratio", "fraction"},
    {"serve.deadline_miss_ratio", "fraction"},
    {"serve.to_degraded", "count"},
    {"serve.to_shedding", "count"},
    {"serve.queue_high_water", "count"},
    {"serve.swap_ms", "ms"},
    {"serve.swaps_ok", "count"},
    {"shard.router_us", "us"},
    {"shard.router_overhead", "ratio"},
    {"shard.lookup_imbalance", "ratio"},
    {"loadgen.lateness_p50_us", "us"},
    {"loadgen.lateness_p99_us", "us"},
    {"loadgen.offered_qps", "1/s"},
    {"loadgen.starved", "count"},
    {"obs.latency_p50_us", "us"},
    {"obs.latency_tail_us", "us"},
    {"env.effective_parallelism", "ratio"},
    {"env.pool_threads", "count"},
};
constexpr size_t kNumLayerMetrics = std::size(kLayerMetrics);

/// Median of `reps` timings of `fn` in microseconds, after one untimed
/// warm-up call.
template <typename Fn>
double MedianMicros(int reps, Fn&& fn) {
  fn();
  Samples s;
  for (int i = 0; i < reps; ++i) {
    const int64_t t0 = NowNs();
    fn();
    s.Add(static_cast<double>(NowNs() - t0) / 1e3);
  }
  return s.Percentile(50.0);
}

/// Times every call into `inner_` that does table work and forwards the
/// rest untouched; Name() is the inner one, so checkpoints are unchanged.
class TimedOp final : public ttrec::EmbeddingOp {
 public:
  TimedOp(std::unique_ptr<ttrec::EmbeddingOp> inner, Family family,
          int table, TableProbes& probes)
      : inner_(std::move(inner)),
        family_(family),
        table_(table),
        probes_(probes) {}

  void Forward(const ttrec::CsrBatch& batch, float* output) override {
    const int64_t t0 = NowNs();
    inner_->Forward(batch, output);
    probes_.Record(family_, Phase::kForward, NowNs() - t0);
  }
  void ForwardInference(const ttrec::CsrBatch& batch,
                        float* output) const override {
    const int64_t t0 = NowNs();
    inner_->ForwardInference(batch, output);
    probes_.RecordInference(family_, table_, batch.num_bags(), t0, NowNs());
  }
  void PoolPrefetchedRows(const ttrec::CsrBatch& batch, const float* rows,
                          float* output) const override {
    inner_->PoolPrefetchedRows(batch, rows, output);
  }
  void Backward(const ttrec::CsrBatch& batch,
                const float* grad_output) override {
    const int64_t t0 = NowNs();
    inner_->Backward(batch, grad_output);
    probes_.Record(family_, Phase::kBackward, NowNs() - t0);
  }
  void ApplySgd(float lr) override {
    const int64_t t0 = NowNs();
    inner_->ApplySgd(lr);
    probes_.Record(family_, Phase::kUpdate, NowNs() - t0);
  }
  void ApplyUpdate(const ttrec::OptimizerConfig& opt) override {
    const int64_t t0 = NowNs();
    inner_->ApplyUpdate(opt);
    probes_.Record(family_, Phase::kUpdate, NowNs() - t0);
  }
  void SaveState(ttrec::BinaryWriter& w) const override {
    inner_->SaveState(w);
  }
  void LoadState(ttrec::BinaryReader& r) override { inner_->LoadState(r); }
  void SaveOptState(ttrec::BinaryWriter& w) const override {
    inner_->SaveOptState(w);
  }
  void LoadOptState(ttrec::BinaryReader& r) override {
    inner_->LoadOptState(r);
  }
  void ZeroGrad() override { inner_->ZeroGrad(); }
  double GradSqNorm() const override { return inner_->GradSqNorm(); }
  void ScaleGrads(float scale) override { inner_->ScaleGrads(scale); }
  void CollectStats(ttrec::obs::MetricRegistry& reg) const override {
    inner_->CollectStats(reg);
  }
  void ResetStats() override { inner_->ResetStats(); }
  int64_t num_rows() const override { return inner_->num_rows(); }
  int64_t emb_dim() const override { return inner_->emb_dim(); }
  int64_t MemoryBytes() const override { return inner_->MemoryBytes(); }
  int64_t WorkspaceBytes(int num_threads = 0) const override {
    return inner_->WorkspaceBytes(num_threads);
  }
  ttrec::CachedTtEmbeddingBag* cached_bag() override {
    return inner_->cached_bag();
  }
  std::string Name() const override { return inner_->Name(); }

 private:
  std::unique_ptr<ttrec::EmbeddingOp> inner_;
  Family family_;
  int table_;
  TableProbes& probes_;
};

/// A fresh operator of `op`'s family and configuration holding `op`'s
/// learned state (parameters, cache rows, iteration counter). The copy's
/// own initial weights are overwritten, so it takes the cheap uniform TT
/// init: instrumenting a model, and so a traced hot swap, then costs what
/// an untraced one does.
std::unique_ptr<ttrec::EmbeddingOp> CopyOp(const ttrec::EmbeddingOp& op,
                                           Family* family) {
  ttrec::Rng rng(1);
  std::unique_ptr<ttrec::EmbeddingOp> copy;
  if (const auto* tt = dynamic_cast<const ttrec::TtEmbeddingAdapter*>(&op)) {
    *family = Family::kTt;
    copy = std::make_unique<ttrec::TtEmbeddingAdapter>(
        tt->tt().config(), ttrec::TtInit::kUniform, rng);
  } else if (const auto* cached =
                 dynamic_cast<const ttrec::CachedTtEmbeddingAdapter*>(&op)) {
    *family = Family::kCachedTt;
    copy = std::make_unique<ttrec::CachedTtEmbeddingAdapter>(
        cached->op().config(), ttrec::TtInit::kUniform, rng);
  } else if (dynamic_cast<const ttrec::DenseEmbeddingBag*>(&op) != nullptr) {
    *family = Family::kDense;
    copy = std::make_unique<ttrec::DenseEmbeddingBag>(
        op.num_rows(), op.emb_dim(), ttrec::PoolingMode::kSum,
        ttrec::DenseEmbeddingInit::UniformScaled(), rng);
  } else {
    throw std::logic_error("perfbench: no timed copy for table type " +
                           op.Name());
  }
  std::stringstream bytes;
  ttrec::BinaryWriter w(bytes);
  op.SaveState(w);
  w.Finish();
  ttrec::BinaryReader r(bytes);
  copy->LoadState(r);
  r.Finish();
  return copy;
}

}  // namespace

Ledger::Ledger() : values_(kNumLayerMetrics, 0.0) {}

void Ledger::Set(const std::string& name, double value) {
  for (size_t i = 0; i < kNumLayerMetrics; ++i) {
    if (name == kLayerMetrics[i].name) {
      values_[i] = value;
      return;
    }
  }
  throw std::logic_error("perfbench: unknown per-layer metric " + name);
}

void Ledger::AddTo(Result& result) const {
  for (size_t i = 0; i < kNumLayerMetrics; ++i) {
    result.Metric(kLayerMetrics[i].name, values_[i], kLayerMetrics[i].unit);
  }
}

void TableProbes::Instrument(ttrec::DlrmModel& model) {
  for (int t = 0; t < model.num_tables(); ++t) {
    Family family = Family::kDense;
    std::unique_ptr<ttrec::EmbeddingOp> copy = CopyOp(model.table(t), &family);
    model.ReplaceTable(
        t, std::make_unique<TimedOp>(std::move(copy), family, t, *this));
  }
}

double TableProbes::Seconds(Family f, Phase p) const {
  return static_cast<double>(
             ns_[static_cast<size_t>(f)][static_cast<size_t>(p)].load()) /
         1e9;
}

void TableProbes::Record(Family f, Phase p, int64_t ns) {
  ns_[static_cast<size_t>(f)][static_cast<size_t>(p)].fetch_add(
      ns, std::memory_order_relaxed);
}

void TableProbes::RecordInference(Family f, int table, int64_t bags,
                                  int64_t start_ns, int64_t end_ns) {
  Record(f, Phase::kInfer, end_ns - start_ns);
  if (!logging_.load(std::memory_order_relaxed)) return;
  std::lock_guard<std::mutex> lock(log_mu_);
  log_.push_back(InferCall{start_ns, table, bags});
}

std::vector<InferCall> TableProbes::TakeCallLog() {
  std::lock_guard<std::mutex> lock(log_mu_);
  return std::move(log_);
}

TowerTimes ReplayDenseTowers(const ttrec::DlrmConfig& config, int num_tables,
                             int64_t batch) {
  ttrec::Rng rng(0x70BE5);
  const int64_t d = config.emb_dim;
  ttrec::DotInteraction interaction(num_tables + 1, d);
  std::vector<int64_t> bottom_dims{config.num_dense};
  bottom_dims.insert(bottom_dims.end(), config.bottom_hidden.begin(),
                     config.bottom_hidden.end());
  bottom_dims.push_back(d);
  std::vector<int64_t> top_dims{interaction.out_dim()};
  top_dims.insert(top_dims.end(), config.top_hidden.begin(),
                  config.top_hidden.end());
  top_dims.push_back(1);
  ttrec::Mlp bottom(bottom_dims, /*final_relu=*/true, rng);
  ttrec::Mlp top(top_dims, /*final_relu=*/false, rng);

  const auto random = [&rng](int64_t n) {
    std::vector<float> v(static_cast<size_t>(n));
    ttrec::FillUniform(rng, v, -1.0, 1.0);
    return v;
  };
  const int64_t inter_dim = interaction.out_dim();
  const std::vector<float> x = random(batch * config.num_dense);
  const std::vector<float> dy_bottom = random(batch * d);
  const std::vector<float> dy_inter = random(batch * inter_dim);
  const std::vector<float> dy_top = random(batch);
  std::vector<float> bottom_out(static_cast<size_t>(batch * d));
  std::vector<float> inter_out(static_cast<size_t>(batch * inter_dim));
  std::vector<float> top_out(static_cast<size_t>(batch));
  std::vector<float> dx_top(static_cast<size_t>(batch * inter_dim));
  std::vector<std::vector<float>> features, grads;
  std::vector<const float*> feature_ptrs;
  std::vector<float*> grad_ptrs;
  for (int f = 0; f <= num_tables; ++f) {
    features.push_back(random(batch * d));
    grads.emplace_back(static_cast<size_t>(batch * d));
  }
  for (int f = 0; f <= num_tables; ++f) {
    feature_ptrs.push_back(features[static_cast<size_t>(f)].data());
    grad_ptrs.push_back(grads[static_cast<size_t>(f)].data());
  }

  constexpr int kReps = 9;
  TowerTimes t;
  t.bottom_us = MedianMicros(kReps, [&] {
    bottom.Forward(x.data(), batch, bottom_out.data());
    bottom.Backward(dy_bottom.data(), batch, nullptr);
    bottom.ZeroGrad();
  });
  t.interaction_us = MedianMicros(kReps, [&] {
    interaction.Forward(feature_ptrs, batch, inter_out.data());
    interaction.Backward(dy_inter.data(), batch, grad_ptrs);
  });
  t.top_us = MedianMicros(kReps, [&] {
    top.Forward(inter_out.data(), batch, top_out.data());
    top.Backward(dy_top.data(), batch, dx_top.data());
    top.ZeroGrad();
  });
  return t;
}

InferStageTimes ReplayInferStages(
    const ttrec::DlrmModel& model,
    const std::vector<ttrec::MiniBatch>& batches) {
  ttrec::InferenceScratch staged, whole;
  std::vector<float> logits;
  Samples dense, emb, tail, full;
  const size_t reps = 4 * batches.size();
  for (size_t r = 0; r <= reps; ++r) {
    const ttrec::MiniBatch& b = batches[r % batches.size()];
    logits.resize(static_cast<size_t>(b.batch_size()));
    const int64_t t0 = NowNs();
    model.ForwardDenseInference(b, staged);
    const int64_t t1 = NowNs();
    model.ForwardEmbeddingsInference(b, staged);
    const int64_t t2 = NowNs();
    model.ForwardTailInference(b.batch_size(), logits.data(), staged);
    const int64_t t3 = NowNs();
    model.PredictLogits(b, logits.data(), whole);
    const int64_t t4 = NowNs();
    if (r == 0) continue;  // sizes the scratch buffers
    dense.Add(static_cast<double>(t1 - t0) / 1e3);
    emb.Add(static_cast<double>(t2 - t1) / 1e3);
    tail.Add(static_cast<double>(t3 - t2) / 1e3);
    full.Add(static_cast<double>(t4 - t3) / 1e3);
  }
  return InferStageTimes{dense.Percentile(50.0), emb.Percentile(50.0),
                         tail.Percentile(50.0), full.Percentile(50.0)};
}

RouterTimes ReplayRouter(std::shared_ptr<const ttrec::DlrmModel> model,
                         const std::vector<ttrec::MiniBatch>& batches,
                         int num_shards) {
  auto plan = std::make_shared<const ttrec::shard::ShardPlan>(
      ttrec::shard::MakeShardPlanForModel(
          *model, ttrec::shard::PartitionStrategy::kRowRange, num_shards));
  ttrec::shard::ShardRouter router(model, plan,
                                   ttrec::shard::BuildShards(model, plan));
  std::vector<int64_t> lookups(static_cast<size_t>(num_shards), 0);
  std::vector<float> logits;
  Samples us;
  const size_t reps = 4 * batches.size();
  for (size_t r = 0; r <= reps; ++r) {
    const ttrec::MiniBatch& b = batches[r % batches.size()];
    logits.resize(static_cast<size_t>(b.batch_size()));
    const int64_t t0 = NowNs();
    router.Run(b, logits.data());
    const int64_t t1 = NowNs();
    if (r == 0) continue;
    us.Add(static_cast<double>(t1 - t0) / 1e3);
    const std::vector<int64_t>& per_shard = router.last_shard_lookups();
    for (size_t s = 0; s < lookups.size() && s < per_shard.size(); ++s) {
      lookups[s] += per_shard[s];
    }
  }
  int64_t max = 0, sum = 0;
  for (int64_t n : lookups) {
    max = std::max(max, n);
    sum += n;
  }
  const double mean = static_cast<double>(sum) / num_shards;
  return RouterTimes{us.Percentile(50.0),
                     mean > 0.0 ? static_cast<double>(max) / mean : 0.0};
}

TtMissTimes ReplayCachedTt(ttrec::DlrmModel& model,
                           const ttrec::MiniBatch& batch) {
  TtMissTimes out;
  for (int t = 0; t < model.num_tables(); ++t) {
    ttrec::CachedTtEmbeddingBag* bag = model.table(t).cached_bag();
    if (bag == nullptr) continue;
    const ttrec::CsrBatch& lookups = batch.sparse[static_cast<size_t>(t)];
    ttrec::TtEmbeddingBag& tt = bag->tt();
    const size_t out_floats =
        static_cast<size_t>(lookups.num_bags() * tt.emb_dim());
    std::vector<float> pooled(out_floats), grad(out_floats, 1.0f);
    out.fwd_us += MedianMicros(5, [&] { tt.Forward(lookups, pooled.data()); });
    out.bwd_us += MedianMicros(5, [&] { tt.Backward(lookups, grad.data()); });
    tt.ZeroGrad();
  }
  return out;
}

void TimedSwap(ttrec::serve::InferenceServer& server,
               const std::string& checkpoint, SwapLog& log) {
  const int64_t t0 = NowNs();
  try {
    server.SwapModel(checkpoint);
    ++log.ok;
  } catch (const std::exception& e) {
    ++log.rejected;
    log.last_error = e.what();
  }
  log.ms.Add(static_cast<double>(NowNs() - t0) / 1e6);
}

Samples ReconstructQueueWaits(const std::vector<InferCall>& log,
                              int num_tables, int max_calls_per_table,
                              int64_t samples_per_request,
                              const std::vector<Completed>& completed,
                              int64_t* matched_batches) {
  // Micro-batches: a run of calls closes once every table has pooled the
  // same number of bags. A table called more often than one micro-batch
  // can call it marks a batch that never finished (a shard refused it), so
  // the partial run is dropped.
  struct Batch {
    int64_t start_ns;
    int64_t size;
  };
  std::vector<Batch> batches;
  std::vector<int64_t> bags(static_cast<size_t>(num_tables), 0);
  std::vector<int> calls(static_cast<size_t>(num_tables), 0);
  int64_t start = -1;
  const auto reset = [&] {
    std::fill(bags.begin(), bags.end(), 0);
    std::fill(calls.begin(), calls.end(), 0);
    start = -1;
  };
  for (const InferCall& c : log) {
    const size_t t = static_cast<size_t>(c.table);
    if (calls[t] >= max_calls_per_table) reset();
    if (start < 0) start = c.start_ns;
    bags[t] += c.bags;
    ++calls[t];
    const bool closed =
        bags[0] > 0 && std::all_of(bags.begin(), bags.end(),
                                   [&](int64_t n) { return n == bags[0]; });
    if (closed) {
      batches.push_back(Batch{start, bags[0]});
      reset();
    }
  }

  // Completed requests arrive in FIFO runs of micro_batch /
  // samples_per_request entries with equal micro_batch; each run belongs to
  // the next rebuilt batch of that many samples that started after the
  // run's last Submit and before its first completion.
  constexpr size_t kMaxSkip = 8;
  Samples waits;
  int64_t matched = 0;
  size_t next = 0;
  for (size_t i = 0; i < completed.size();) {
    const int64_t size = completed[i].micro_batch;
    const size_t end =
        i + static_cast<size_t>(std::max<int64_t>(1, size / samples_per_request));
    bool run_ok = end <= completed.size();
    int64_t last_submit = 0;
    int64_t first_done = std::numeric_limits<int64_t>::max();
    for (size_t j = i; run_ok && j < end; ++j) {
      run_ok = completed[j].micro_batch == size;
      last_submit = std::max(last_submit, completed[j].submit_ns);
      first_done = std::min(first_done, completed[j].done_ns);
    }
    if (!run_ok) {
      ++i;
      continue;
    }
    size_t k = next;
    while (k < batches.size() && k < next + kMaxSkip &&
           !(batches[k].size == size && batches[k].start_ns >= last_submit &&
             batches[k].start_ns <= first_done)) {
      ++k;
    }
    if (k < batches.size() && k < next + kMaxSkip) {
      for (size_t j = i; j < end; ++j) {
        waits.Add(static_cast<double>(batches[k].start_ns -
                                      completed[j].submit_ns) /
                  1e3);
      }
      next = k + 1;
      ++matched;
    }
    i = end;
  }
  *matched_batches = matched;
  return waits;
}

}  // namespace perfbench
