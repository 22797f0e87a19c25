#include "dlrm/trainer.h"

#include <chrono>
#include <cmath>
#include <deque>
#include <limits>
#include <memory>
#include <span>
#include <utility>

#include "cache/cache_manager.h"
#include "dlrm/checkpoint.h"
#include "dlrm/train_stages.h"
#include "obs/reporter.h"
#include "obs/trace.h"
#include "tensor/check.h"
#include "tensor/cpu_features.h"
#include "tensor/parallel.h"

namespace ttrec {

namespace {
using Clock = std::chrono::steady_clock;
double Seconds(Clock::time_point a, Clock::time_point b) {
  return std::chrono::duration<double>(b - a).count();
}

/// Bias-corrected EMA of applied batch losses — the loss-spike baseline.
class LossEma {
 public:
  explicit LossEma(double beta) : beta_(beta) {}
  void Observe(double loss) {
    ema_ = beta_ * ema_ + (1.0 - beta_) * loss;
    correction_ *= beta_;
    ++count_;
  }
  int64_t count() const { return count_; }
  double value() const { return ema_ / (1.0 - correction_); }
  void Reset() {
    ema_ = 0.0;
    correction_ = 1.0;
    count_ = 0;
  }

 private:
  double beta_;
  double ema_ = 0.0;
  double correction_ = 1.0;  // beta^count, for bias correction
  int64_t count_ = 0;
};
}  // namespace

void TrainConfig::Validate() const {
  TTREC_CHECK_CONFIG(iterations >= 1, "need >= 1 training iteration");
  TTREC_CHECK_CONFIG(batch_size >= 1, "batch size must be positive");
  TTREC_CHECK_CONFIG(eval_batches >= 0, "eval_batches must be >= 0");
  TTREC_CHECK_CONFIG(eval_batches == 0 || eval_batch_size >= 1,
                     "eval_batch_size must be positive when eval_batches > 0");
  TTREC_CHECK_CONFIG(log_every >= 0, "log_every must be >= 0 (0 = never)");
  TTREC_CHECK_CONFIG(num_threads >= 0,
                     "num_threads must be >= 0 (0 = leave the pool as-is)");
  TTREC_CHECK_CONFIG(
      (cache_budget_bytes > 0) == (cache_retune_interval > 0),
      "cache autotuning needs both cache_budget_bytes and "
      "cache_retune_interval set (or neither)");
  TTREC_CHECK_CONFIG(cache_budget_bytes >= 0,
                     "cache_budget_bytes must be >= 0");
  TTREC_CHECK_CONFIG(cache_retune_interval >= 0,
                     "cache_retune_interval must be >= 0");
  TTREC_CHECK_CONFIG(lookahead_depth >= 0,
                     "lookahead_depth must be >= 0 (0 = synchronous loop)");
  TTREC_CHECK_CONFIG(checkpoint_every >= 0, "checkpoint_every must be >= 0");
  TTREC_CHECK_CONFIG(checkpoint_every == 0 || !checkpoint_dir.empty(),
                     "checkpoint_every > 0 requires checkpoint_dir");
  TTREC_CHECK_CONFIG(checkpoint_keep_last >= 1,
                     "checkpoint_keep_last must be >= 1");
  TTREC_CHECK_CONFIG(!resume || !checkpoint_dir.empty(),
                     "resume requires checkpoint_dir");
  TTREC_CHECK_CONFIG(!async_checkpoint || checkpoint_every > 0,
                     "async_checkpoint requires checkpoint_every > 0");
  TTREC_CHECK_CONFIG(
      fault.on_fault != FaultToleranceConfig::OnFault::kRollback ||
          checkpoint_every > 0,
      "rollback fault policy requires checkpointing (checkpoint_every > 0)");
  TTREC_CHECK_CONFIG(fault.max_rollbacks >= 0, "max_rollbacks must be >= 0");
  TTREC_CHECK_CONFIG(fault.grad_clip_norm >= 0.0f,
                     "grad_clip_norm must be >= 0 (0 disables)");
  TTREC_CHECK_CONFIG(fault.spike_factor >= 0.0,
                     "spike_factor must be >= 0 (0 disables)");
  TTREC_CHECK_CONFIG(fault.spike_warmup >= 0, "spike_warmup must be >= 0");
  TTREC_CHECK_CONFIG(
      fault.spike_ema_beta > 0.0 && fault.spike_ema_beta < 1.0,
      "spike_ema_beta must be in (0, 1)");
  TTREC_CHECK_CONFIG(report_interval_ms >= 0,
                     "report_interval_ms must be >= 0");
}

std::vector<MiniBatch> MakeEvalSet(const BatchSource& data,
                                   const TrainConfig& config) {
  std::vector<MiniBatch> eval;
  eval.reserve(static_cast<size_t>(config.eval_batches));
  for (int64_t i = 0; i < config.eval_batches; ++i) {
    eval.push_back(data.EvalBatch(config.eval_batch_size,
                                  static_cast<uint64_t>(i + 1)));
  }
  return eval;
}

TrainResult TrainDlrm(DlrmModel& model, BatchSource& data,
                      const TrainConfig& config) {
  config.Validate();
  if (config.num_threads > 0) {
    ThreadPool::SetGlobalThreads(config.num_threads);
  }

  OptimizerConfig opt;
  opt.kind = config.optimizer;
  opt.lr = config.lr;
  opt.eps = config.adagrad_eps;

  TrainResult result;
  result.iterations = config.iterations;

  std::unique_ptr<CheckpointManager> ckpt;
  if (config.checkpoint_every > 0 || config.resume) {
    CheckpointManagerConfig cc;
    cc.directory = config.checkpoint_dir;
    cc.keep_last = config.checkpoint_keep_last;
    ckpt = std::make_unique<CheckpointManager>(cc);
  }
  if (config.resume && ckpt != nullptr) {
    const auto t0 = Clock::now();
    SnapshotMeta meta;
    if (ckpt->RestoreLatest(model, data, &meta)) {
      TTREC_CHECK_CONFIG(
          meta.optimizer == OptimizerName(opt.kind),
          "resume: snapshot was trained with '", meta.optimizer,
          "', this run uses '", OptimizerName(opt.kind), "'");
      result.start_iteration = meta.iteration;
    }
    result.checkpoint_seconds += Seconds(t0, Clock::now());
  }

  // Global cache autotuning: one byte budget waterfilled across every
  // cache-backed table, re-apportioned on a fixed cadence.
  std::unique_ptr<CacheManager> cache_mgr;
  if (config.cache_budget_bytes > 0) {
    CacheManagerConfig mc;
    mc.budget_bytes = config.cache_budget_bytes;
    auto mgr = std::make_unique<CacheManager>(mc);
    for (int t = 0; t < model.num_tables(); ++t) {
      if (CachedTtEmbeddingBag* bag = model.table(t).cached_bag()) {
        mgr->RegisterTable(t, bag);
      }
    }
    if (mgr->num_tables() > 0) cache_mgr = std::move(mgr);
  }

  StepGuard guard;
  guard.check_non_finite = config.fault.check_non_finite;
  guard.grad_clip_norm = config.fault.grad_clip_norm;

  LossEma ema(config.fault.spike_ema_beta);
  const int64_t clamped_before = model.clamped_lookups();
  int rollbacks_left = config.fault.max_rollbacks;

  // Observability: publish into the caller's registry when given; a
  // reporter without a registry gets a run-local one. `bump` is for rare
  // events (name lookup each time); the per-iteration metrics cache their
  // references outside the loop.
  obs::MetricRegistry local_registry;
  obs::MetricRegistry* reg = config.metrics;
  const bool want_reporter =
      !config.report_path.empty() && config.report_interval_ms > 0;
  if (reg == nullptr && want_reporter) reg = &local_registry;
  if (reg != nullptr) {
    // Which SIMD kernel tier served this run (0=scalar, 1=avx2, 2=avx512);
    // perf regressions are uninterpretable without it.
    reg->gauge("kernel.simd_tier")
        .Set(static_cast<double>(static_cast<int>(ActiveSimdTier())));
    reg->gauge("train.pipeline.depth")
        .Set(static_cast<double>(config.lookahead_depth));
    reg->gauge("train.pipeline.threaded")
        .Set(config.lookahead_threaded ? 1.0 : 0.0);
  }
  const auto bump = [reg](const char* name, int64_t n = 1) {
    if (reg != nullptr && n != 0) reg->counter(name).Add(n);
  };
  obs::StripedCounter* iterations_c =
      reg != nullptr ? &reg->counter("train.iterations") : nullptr;
  obs::Histogram* step_us_h =
      reg != nullptr ? &reg->histogram("train.step_us") : nullptr;
  obs::Histogram* data_us_h =
      reg != nullptr ? &reg->histogram("train.data_us") : nullptr;
  obs::Histogram* prefetch_us_h =
      reg != nullptr && config.lookahead_depth >= 1
          ? &reg->histogram("train.pipeline.prefetch_us")
          : nullptr;
  std::unique_ptr<obs::PeriodicReporter> reporter;
  if (want_reporter) {
    reporter = std::make_unique<obs::PeriodicReporter>(
        [reg] { return reg->ToJson(); },
        std::chrono::milliseconds(config.report_interval_ms),
        config.report_path);
  }

  // --- The staged pipeline (DESIGN.md §4.15) -------------------------------
  // A lookahead stage produces batches up to `lookahead_depth` ahead of the
  // optimizer — on its own thread when lookahead_threaded — and the compute
  // stage keeps a window of the next depth+1 staged batches. Once per step,
  // after the window is refilled, every cache-backed table receives the
  // prefetch plans of the whole window in next-use order: a fixed sequence
  // point on the compute thread, so cache contents at every step are a pure
  // function of (depth, stream), never of thread timing. Depth 0
  // degenerates to the classic synchronous loop, bit for bit: no thread, no
  // plans, one batch generated right before its step.
  const int64_t depth = config.lookahead_depth;
  std::vector<CachedTtEmbeddingBag*> prefetch_bags(
      static_cast<size_t>(model.num_tables()), nullptr);
  LookaheadOptions lo;
  lo.depth = depth;
  lo.threaded = config.lookahead_threaded;
  lo.batch_size = config.batch_size;
  lo.start_index = result.start_iteration;
  lo.total_batches = config.iterations - result.start_iteration;
  lo.capture_state = ckpt != nullptr && config.checkpoint_every > 0;
  if (depth >= 1) {
    bool any_cached = false;
    std::vector<bool> plan_tables(static_cast<size_t>(model.num_tables()),
                                  false);
    for (int t = 0; t < model.num_tables(); ++t) {
      if (CachedTtEmbeddingBag* bag = model.table(t).cached_bag()) {
        prefetch_bags[static_cast<size_t>(t)] = bag;
        plan_tables[static_cast<size_t>(t)] = true;
        any_cached = true;
      }
    }
    if (any_cached) lo.plan_tables = std::move(plan_tables);
  }
  LookaheadStage stage(data, lo);
  std::deque<StagedBatch> window;

  // Hands each cache-backed table the plans of every staged batch in the
  // window, the batch about to train first and the newest last; returns
  // the wall-clock spent (TT row materialization ahead of its batches —
  // overlap bookkeeping, not data-wait).
  std::vector<std::span<const int64_t>> plans;
  const auto apply_prefetch = [&]() -> double {
    if (window.empty() || window.front().plan.empty()) return 0.0;
    const auto p0 = Clock::now();
    TTREC_TRACE_SCOPE("train.prefetch");
    int64_t admitted = 0;
    for (size_t t = 0; t < window.front().plan.size(); ++t) {
      if (prefetch_bags[t] == nullptr) continue;
      plans.clear();
      for (const StagedBatch& sb : window) plans.emplace_back(sb.plan[t]);
      admitted += prefetch_bags[t]->PrefetchRows(plans);
    }
    const double s = Seconds(p0, Clock::now());
    result.prefetched_rows += admitted;
    result.prefetch_seconds += s;
    bump("train.pipeline.prefetch_rows", admitted);
    if (prefetch_us_h != nullptr) {
      prefetch_us_h->Record(static_cast<int64_t>(1e6 * s));
    }
    return s;
  };

  for (int64_t it = result.start_iteration; it < config.iterations; ++it) {
    const auto t0 = Clock::now();
    double prefetch_s = 0.0;
    {
      // Refill the window through batch it + depth, then apply its plans
      // — the "before step i, plans for batches i .. i + K have been
      // applied" sequence point.
      TTREC_TRACE_SCOPE("train.batch_gen");
      while (!stage.Exhausted() &&
             (window.empty() || window.back().index < it + depth)) {
        window.push_back(stage.Next());
      }
      prefetch_s = apply_prefetch();
    }
    TTREC_CHECK_INTERNAL(!window.empty() && window.front().index == it,
                         "pipeline window out of sync at iteration ", it);
    StagedBatch staged = std::move(window.front());
    window.pop_front();
    const auto t1 = Clock::now();

    guard.skip_loss_above =
        (config.fault.spike_factor > 0.0 &&
         ema.count() >= config.fault.spike_warmup)
            ? config.fault.spike_factor * ema.value()
            : std::numeric_limits<double>::infinity();

    const StepOutcome o = [&] {
      TTREC_TRACE_SCOPE("train.step");
      return model.TrainStepGuarded(staged.batch, opt, guard);
    }();
    const auto t2 = Clock::now();
    result.data_seconds += Seconds(t0, t1) - prefetch_s;
    result.train_seconds += Seconds(t1, t2);
    if (iterations_c != nullptr) {
      iterations_c->Add(1);
      data_us_h->Record(
          static_cast<int64_t>(1e6 * (Seconds(t0, t1) - prefetch_s)));
      step_us_h->Record(static_cast<int64_t>(1e6 * Seconds(t1, t2)));
    }

    if (o.non_finite_loss) {
      ++result.robustness.non_finite_loss_skips;
      bump("train.non_finite_loss_skips");
    }
    if (o.non_finite_grad) {
      ++result.robustness.non_finite_grad_skips;
      bump("train.non_finite_grad_skips");
    }
    if (o.loss_spike_skipped) {
      ++result.robustness.loss_spike_skips;
      bump("train.loss_spike_skips");
    }
    if (o.clipped) {
      ++result.robustness.clipped_steps;
      bump("train.clipped_steps");
    }
    if (o.applied) {
      ema.Observe(o.loss);
    } else if (config.fault.on_fault ==
                   FaultToleranceConfig::OnFault::kRollback &&
               ckpt != nullptr && rollbacks_left > 0) {
      const auto r0 = Clock::now();
      TTREC_TRACE_SCOPE("train.rollback");
      // The restore rewrites the source's cursor, which the producer thread
      // may be reading — suspend it first. On success the stage rebases to
      // the snapshot's iteration (regenerating the replayed stream from the
      // restored cursor); on failure it resumes exactly where it was.
      stage.Pause();
      SnapshotMeta meta;
      if (ckpt->RestoreLatest(model, data, &meta)) {
        result.checkpoint_seconds += Seconds(r0, Clock::now());
        ++result.robustness.rollbacks;
        bump("train.rollbacks");
        --rollbacks_left;
        ema.Reset();  // the baseline belongs to the discarded trajectory
        window.clear();
        stage.Restart(meta.iteration);
        it = meta.iteration - 1;  // loop increment resumes at meta.iteration
        continue;
      }
      stage.Resume();
      result.checkpoint_seconds += Seconds(r0, Clock::now());
      // No usable snapshot: fall through to skip-batch behavior.
    }

    if (config.log_every > 0 && it % config.log_every == 0) {
      result.loss_history.push_back(o.loss);
    }

    if (cache_mgr != nullptr &&
        (it + 1) % config.cache_retune_interval == 0) {
      TTREC_TRACE_SCOPE("train.cache_retune");
      cache_mgr->Retune();
      bump("train.cache_retunes");
      if (reg != nullptr) cache_mgr->CollectStats(*reg);
    }

    if (ckpt != nullptr && config.checkpoint_every > 0 &&
        (it + 1) % config.checkpoint_every == 0) {
      const auto c0 = Clock::now();
      TTREC_TRACE_SCOPE("train.checkpoint");
      SnapshotMeta meta;
      meta.iteration = it + 1;
      meta.optimizer = OptimizerName(opt.kind);
      // The source may have run ahead of this step, so the snapshot embeds
      // the cursor the stage captured right after batch `it` was drawn —
      // byte-identical to what a synchronous save would have serialized.
      if (config.async_checkpoint) {
        ckpt->SaveAsync(model, std::move(staged.source_state), meta);
      } else {
        ckpt->Save(model, std::string_view(staged.source_state), meta);
      }
      const double ckpt_s = Seconds(c0, Clock::now());
      result.checkpoint_seconds += ckpt_s;
      ++result.robustness.checkpoints_written;
      bump("train.checkpoints_written");
      if (reg != nullptr) {
        reg->histogram("train.checkpoint_us")
            .Record(static_cast<int64_t>(1e6 * ckpt_s));
      }
    }
  }
  if (ckpt != nullptr && config.async_checkpoint) {
    // Drain the background writer; only the tail that outlives the loop is
    // critical-path time.
    const auto w0 = Clock::now();
    ckpt->WaitIdle();
    result.checkpoint_seconds += Seconds(w0, Clock::now());
    result.checkpoint_background_seconds = ckpt->background_write_seconds();
  }
  result.robustness.clamped_lookups =
      model.clamped_lookups() - clamped_before;
  bump("train.clamped_lookups", result.robustness.clamped_lookups);

  const LookaheadStage::Stats ss = stage.stats();
  bump("train.pipeline.batches_produced", ss.batches_produced);
  bump("train.pipeline.consumer_wait_us", ss.consumer_wait_us);
  bump("train.pipeline.producer_wait_us", ss.producer_wait_us);
  bump("train.pipeline.restarts", ss.restarts);
  if (reg != nullptr) {
    reg->gauge("train.pipeline.max_queue_depth")
        .Set(static_cast<double>(ss.max_queue_depth));
  }

  if (config.eval_batches > 0) {
    TTREC_TRACE_SCOPE("train.eval");
    result.final_eval = model.Evaluate(MakeEvalSet(data, config));
  }
  return result;
}

}  // namespace ttrec
