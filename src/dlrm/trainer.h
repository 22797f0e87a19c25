// Training-loop driver: runs SGD over any BatchSource (the synthetic
// Criteo stream, the skew-shift scenario, recorded-trace replay), tracks
// loss history and wall-clock time, and evaluates on held-out batches —
// producing exactly the (accuracy, loss, time, memory) tuples the paper's
// evaluation section plots.
//
// The loop is a staged pipeline (dlrm/train_stages.h, DESIGN.md §4.15): a
// lookahead stage runs up to `lookahead_depth` batches ahead of the
// optimizer, pre-assembling batches (on its own thread when
// `lookahead_threaded`); before each step the LFU caches receive the rows
// every staged batch will touch and keep them until those batches have
// trained; and checkpoints can move their file I/O to a background writer
// (`async_checkpoint`). At depth 0 it degenerates to the
// classic synchronous loop, bit for bit.
//
// The loop is fault-tolerant: per-step guards (non-finite loss/gradient
// detection, gradient clipping, loss-spike skip), periodic full-training-
// state snapshots (dlrm/checkpoint.h), resume-from-newest-valid, and an
// optional rollback-to-last-checkpoint fault policy. All of it is off by
// default — the bare configuration trains bit-identically to the original
// loop.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "data/batch_source.h"
#include "data/criteo_synth.h"
#include "dlrm/model.h"
#include "dlrm/optimizer.h"
#include "obs/metrics.h"

namespace ttrec {

struct FaultToleranceConfig {
  /// Skip batches whose loss or global gradient norm is non-finite.
  bool check_non_finite = false;
  /// Global L2 gradient-norm clipping threshold; 0 disables.
  float grad_clip_norm = 0.0f;
  /// Loss-spike detector: after `spike_warmup` applied steps, a batch
  /// whose loss exceeds `spike_factor` x the bias-corrected EMA of
  /// applied losses is treated as a fault. 0 disables.
  double spike_factor = 0.0;
  int64_t spike_warmup = 20;
  double spike_ema_beta = 0.98;
  /// Response to a detected fault (non-finite or spike): drop the batch
  /// and keep going, or restore the newest valid snapshot and replay.
  /// Rollback needs checkpointing enabled; it targets transient faults
  /// (a flipped bit in an accumulator) — a fault that deterministically
  /// recurs burns through `max_rollbacks` and then degrades to skipping.
  enum class OnFault { kSkipBatch, kRollback };
  OnFault on_fault = OnFault::kSkipBatch;
  int max_rollbacks = 3;
};

struct TrainConfig {
  int64_t iterations = 200;
  int64_t batch_size = 128;
  float lr = 0.1f;
  /// SGD (the paper / MLPerf default) or Adagrad (production extension).
  OptimizerConfig::Kind optimizer = OptimizerConfig::Kind::kSgd;
  float adagrad_eps = 1e-8f;
  /// Held-out evaluation batches generated once up front.
  int64_t eval_batches = 4;
  int64_t eval_batch_size = 512;
  /// Record a loss sample every `log_every` iterations (0 = never).
  int64_t log_every = 10;

  /// Resize the global ThreadPool before training (0 = leave it alone).
  /// The TT kernels are block-parallel and deterministic for any value, so
  /// this is purely a throughput knob; results are bitwise identical.
  int num_threads = 0;

  /// Global cache autotuning (src/cache/cache_manager.h): when both knobs
  /// are > 0 the trainer builds a CacheManager over every cache-backed
  /// table (EmbeddingOp::cached_bag()) and every `cache_retune_interval`
  /// iterations re-apportions `cache_budget_bytes` across their caches by
  /// marginal miss reduction from the live miss-ratio curves, resizing the
  /// caches in place. Tables keep their learned hot rows across retunes.
  /// Set both or neither; a model with no cache-backed tables ignores the
  /// knobs. Retune activity is published into `metrics` (cache.mgr.*,
  /// cache.<t>.*) when set.
  int64_t cache_budget_bytes = 0;
  int64_t cache_retune_interval = 0;

  /// Lookahead depth K of the staged pipeline: before step `it` runs, the
  /// batches up to `it + K` have been generated and the prefetch plans of
  /// batches `it` .. `it + K` applied to the caches. 0 = the classic
  /// synchronous loop (no thread, no plans). At depth >= 1 every
  /// cache-backed table gets the row plans of the whole window in next-use
  /// order (CachedTtEmbeddingBag::PrefetchRows): their rows are admitted
  /// while room lasts and never evicted while any of them is still ahead.
  /// Depth is a *semantic* knob, like cache capacity: raising
  /// it changes which rows are resident when a batch arrives (more hits,
  /// fewer TT decodes), so results differ *across* depths — while for any
  /// fixed depth, execution strategy (threaded on/off, any num_threads) is
  /// bitwise irrelevant. DESIGN.md §4.15 has the staleness-freedom
  /// argument.
  int64_t lookahead_depth = 0;
  /// Run batch generation on a producer thread (depth >= 1 only). Purely a
  /// throughput knob: the same staged schedule executed inline yields
  /// bitwise-identical results.
  bool lookahead_threaded = true;

  /// Snapshot the full training state every N iterations (0 = never);
  /// requires checkpoint_dir.
  int64_t checkpoint_every = 0;
  std::string checkpoint_dir;
  int checkpoint_keep_last = 3;
  /// Before training, restore the newest valid snapshot from
  /// checkpoint_dir (no-op when none exists). A resumed run replays the
  /// exact batch stream of an uninterrupted one.
  bool resume = false;
  /// Move snapshot file I/O (the fsync-heavy half) to a background writer
  /// thread. Serialization still happens at the step boundary, so the
  /// snapshot bytes are identical to a synchronous save; only the wall
  /// clock moves. Requires checkpoint_every > 0.
  bool async_checkpoint = false;

  /// Throws ConfigError on any invalid value or inconsistent combination
  /// (both-or-neither knob pairs, fault policies without their
  /// prerequisites). TrainDlrm calls this first; exposed so benches and
  /// config loaders can fail fast before building a model.
  void Validate() const;

  /// Observability: when set, the trainer publishes into this registry as
  /// it runs — per-iteration histograms (train.step_us, train.data_us,
  /// train.checkpoint_us) and live counters mirroring RobustnessCounters
  /// (train.iterations, train.non_finite_loss_skips, ...). Not owned; must
  /// outlive the TrainDlrm call. The same registry can be shared across
  /// sequential runs (counters keep accumulating).
  obs::MetricRegistry* metrics = nullptr;
  /// When non-empty and report_interval_ms > 0, a PeriodicReporter appends
  /// one registry-JSON line per interval to this file during the run (plus
  /// a final line). Uses `metrics` when set, else a run-local registry.
  std::string report_path;
  int64_t report_interval_ms = 0;

  FaultToleranceConfig fault;
};

/// What the guards and the checkpointer actually did during a run.
struct RobustnessCounters {
  int64_t non_finite_loss_skips = 0;
  int64_t non_finite_grad_skips = 0;
  int64_t loss_spike_skips = 0;
  int64_t clipped_steps = 0;
  int64_t rollbacks = 0;
  int64_t checkpoints_written = 0;
  /// Out-of-range lookups rewritten under IndexPolicy::kClampToZero.
  int64_t clamped_lookups = 0;
  int64_t TotalSkips() const {
    return non_finite_loss_skips + non_finite_grad_skips + loss_spike_skips;
  }
};

struct TrainResult {
  std::vector<double> loss_history;  // sampled every log_every iterations
  EvalMetrics final_eval;
  double train_seconds = 0.0;        // excluding data generation and eval
  /// Wall-clock the compute stage spent acquiring batches: generation when
  /// synchronous, waiting on the producer when pipelined — the overlap win
  /// shows up as this shrinking while train_seconds holds.
  double data_seconds = 0.0;
  /// Wall-clock spent applying lookahead prefetch plans to the caches
  /// (choosing victims and materializing TT rows ahead of their batches).
  double prefetch_seconds = 0.0;
  /// Wall-clock spent writing (and, on resume, restoring) snapshots —
  /// the checkpoint overhead to report against train_seconds. With
  /// async_checkpoint this is only the serialize half; the file I/O
  /// lands in checkpoint_background_seconds instead.
  double checkpoint_seconds = 0.0;
  /// Background-writer wall-clock for async snapshots (overlapped with
  /// training, not part of the critical path).
  double checkpoint_background_seconds = 0.0;
  /// Rows admitted into embedding caches by lookahead prefetch.
  int64_t prefetched_rows = 0;
  int64_t iterations = 0;
  /// First iteration this run actually executed (> 0 after a resume).
  int64_t start_iteration = 0;
  RobustnessCounters robustness;
  double MsPerIteration() const {
    return iterations > 0 ? 1000.0 * train_seconds /
                                static_cast<double>(iterations)
                          : 0.0;
  }
};

/// Trains `model` on batches from `data` and returns the result summary.
/// Accepts any BatchSource — SyntheticCriteo, SkewShiftBatchSource,
/// TraceReplaySource — so existing SyntheticCriteo call sites pass their
/// generator unchanged.
TrainResult TrainDlrm(DlrmModel& model, BatchSource& data,
                      const TrainConfig& config);

/// Builds the standard held-out evaluation set used by TrainDlrm (exposed
/// so sweeps can evaluate multiple models on identical data).
std::vector<MiniBatch> MakeEvalSet(const BatchSource& data,
                                   const TrainConfig& config);

}  // namespace ttrec
