// The serving front door: Submit() a request, get a std::future for its
// logits. Internally: bounded RequestQueue -> MicroBatcher -> per-consumer
// InferenceSession running the const forward pass, with ServeMetrics
// recording batch sizes, queue waits, and end-to-end latency.
//
//   producers ──Submit──▶ RequestQueue ──PopBatch──▶ consumer threads
//        ▲                     ▲                     │  MicroBatcher
//        │ typed rejections    │ LoadGovernor        │  InferenceSession
//        │ (shed/deadline/     │ (healthy→degraded   │  (pins one model
//        │  shutdown)          │  →shedding)         │   generation)
//                                                    ▼
//                                        promises fulfilled, ServeMetrics
//
// Batching is work-conserving: a free consumer takes whatever is queued,
// up to the micro-batch cap, and never waits for more, so a lone request
// on an idle server is served alone and batches grow with the backlog.
//
// Overload safety: requests carry deadlines (expired work is failed with
// DeadlineExceeded before the forward pass, at admission or by the
// consumer), admission is bounded (block until space or the request's
// deadline / reject when full), and a LoadGovernor walks the server
// through healthy → degraded → shedding → draining as queue depth moves
// (serve/load_governor.h).
//
// Model lifecycle: the server holds a generation-tagged
// shared_ptr<const DlrmModel>. SwapModel publishes a new generation under
// live traffic — consumers pin the generation for the lifetime of one
// micro-batch, so no request ever sees a torn mix of models, and the old
// generation is freed once the last consumer moves on. Checkpoint swaps
// load into a standby model first; a corrupt or mismatched checkpoint is
// rejected while the incumbent generation keeps serving.
//
// Thread-safety: Submit and SwapModel may be called from any number of
// threads. The model behind any published shared_ptr must stay frozen (no
// training / checkpoint loads / table swaps) — the const forward contract
// in dlrm/model.h; replacing the model is done by publishing a *new*
// DlrmModel via SwapModel, never by mutating a live one.
#pragma once

#include <atomic>
#include <chrono>
#include <cstdint>
#include <functional>
#include <future>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "dlrm/model.h"
#include "obs/reporter.h"
#include "serve/load_governor.h"
#include "serve/micro_batcher.h"
#include "serve/request_queue.h"
#include "serve/serve_errors.h"
#include "serve/serve_metrics.h"
#include "shard/embedding_shard.h"
#include "shard/shard_plan.h"
#include "shard/shard_router.h"

namespace ttrec::serve {

/// What Submit does when the queue is full.
enum class AdmissionPolicy {
  /// Block until space (bounded by the request's own deadline, if any) —
  /// classic backpressure.
  kBlock,
  /// Fail with ServerOverloaded immediately — the client owns the retry.
  kRejectWhenFull,
};

struct InferenceServerConfig {
  /// Micro-batch cap in requests: a consumer takes at most this many of
  /// the queued requests per batch (equals samples for the common
  /// one-sample-per-request client). 1 disables batching — the
  /// one-request-at-a-time baseline in bench/serve_throughput. While the
  /// governor reports degraded or shedding, the cap is
  /// max(1, max_batch_size / 4), so queued requests start sooner.
  int64_t max_batch_size = 32;
  /// Queue bound; what happens when it fills is `admission`'s call.
  size_t queue_capacity = 1024;
  AdmissionPolicy admission = AdmissionPolicy::kBlock;
  /// Consumer threads, each with its own InferenceSession. One is usually
  /// right when the forward pass itself shards across the ThreadPool; more
  /// helps when batches are small and per-batch overhead dominates.
  int num_consumers = 1;
  /// Health-state machine knobs; governor.enabled = false pins kHealthy.
  LoadGovernorConfig governor;
  /// Builds an architecture-matched empty model for SwapModel(path) to
  /// load a checkpoint into. Unset: checkpoint swaps are rejected.
  std::function<std::unique_ptr<DlrmModel>()> model_factory;
  /// When non-empty and report_interval > 0, a PeriodicReporter appends one
  /// MetricsJson() line per interval to this file for the server's
  /// lifetime (plus a final line at shutdown).
  std::string report_path;
  std::chrono::milliseconds report_interval{0};
  /// Embedding shards per consumer's router. 0 (default) serves the
  /// classic single-process path; >= 1 partitions the tables per
  /// `partition` and fans each micro-batch's lookups out over the shards
  /// (bitwise identical logits — see shard/shard_router.h).
  int num_shards = 0;
  shard::PartitionStrategy partition = shard::PartitionStrategy::kRowRange;
  /// Per-generation metric blocks kept behind the newest swap; 0 keeps
  /// every generation forever (the pre-pruning behavior — canary analysis
  /// that partitions requests_ok across all generations needs this).
  int64_t keep_generation_metrics = 0;
};

class InferenceServer {
 public:
  /// The server shares ownership: the model lives at least until the last
  /// micro-batch pinned to its generation completes. It starts as
  /// generation 1.
  InferenceServer(std::shared_ptr<const DlrmModel> model,
                  InferenceServerConfig config);
  /// Non-owning convenience for callers with a stack- or member-owned
  /// model: `model` must outlive the server AND every generation swap
  /// (the server cannot extend its lifetime).
  InferenceServer(const DlrmModel& model, InferenceServerConfig config);
  ~InferenceServer();

  InferenceServer(const InferenceServer&) = delete;
  InferenceServer& operator=(const InferenceServer&) = delete;

  /// Validates and enqueues `request`; the future resolves with its logits
  /// once a consumer has run its micro-batch. Failures are always
  /// delivered through the future, typed (serve/serve_errors.h):
  /// ShapeError/IndexError for malformed requests (which fail alone and
  /// never poison a micro-batch), DeadlineExceeded when request.deadline
  /// passes before the forward pass, ServerOverloaded when shedding or
  /// when kRejectWhenFull finds the queue full, ServerShutdown after
  /// BeginDrain/Shutdown.
  std::future<InferenceResult> Submit(InferenceRequest request);

  /// Atomically publishes `next` as the new serving generation under live
  /// traffic; in-flight micro-batches finish on the generation they
  /// pinned. Returns the new generation. Throws ConfigError (and counts a
  /// rejected swap) when `next` is architecturally incompatible with the
  /// incumbent — the old generation keeps serving.
  uint64_t SwapModel(std::shared_ptr<const DlrmModel> next);

  /// Loads `checkpoint_path` into a standby model built by
  /// config.model_factory, then publishes it. Verification-first: a
  /// corrupt, truncated, or mismatched checkpoint throws (counted as a
  /// rejected swap) before anything is published — the incumbent
  /// generation is never disturbed.
  uint64_t SwapModel(const std::string& checkpoint_path);

  /// Generation currently being published to new micro-batches.
  uint64_t generation() const;

  /// Stops admission for good (Submit fails with ServerShutdown) while
  /// consumers finish everything already queued — the graceful half of
  /// shutdown, usable long before Shutdown() joins the threads.
  void BeginDrain();

  /// BeginDrain + closes the queue, drains in-flight work, joins
  /// consumers. Idempotent; the destructor calls it.
  void Shutdown();

  HealthState health() const { return governor_->state(); }

  const ServeMetrics& metrics() const { return metrics_; }

  /// Snapshot + queue high-water + cache hit stats from the model's
  /// cached-TT tables (summed across tables; absent when no table carries
  /// an LFU cache).
  ServeMetricsSnapshot SnapshotWithCacheStats() const;
  std::string MetricsJson() const;

  const InferenceServerConfig& config() const { return config_; }
  size_t queue_depth() const { return queue_.size(); }
  size_t queue_high_water() const { return queue_.high_water(); }

  /// The partition plan a sharded server routes by (fixed for the server's
  /// lifetime — swaps revalidate against it); nullptr when unsharded.
  std::shared_ptr<const shard::ShardPlan> shard_plan() const;

 private:
  /// One published model: consumers pin a slot per micro-batch, so a swap
  /// frees the old model only after its last batch completes. On a sharded
  /// server the slot also carries the full shard fleet for its generation —
  /// built ("prepared") before the slot publishes ("commits"), so no
  /// micro-batch ever runs on a torn mixed-generation fleet.
  struct ModelSlot {
    std::shared_ptr<const DlrmModel> model;
    uint64_t generation = 1;
    std::shared_ptr<const shard::ShardPlan> plan;  // null when unsharded
    std::vector<std::shared_ptr<const shard::EmbeddingShard>> shards;
  };

  std::shared_ptr<const ModelSlot> CurrentSlot() const;
  void ConsumerLoop();
  void ValidateRequest(const InferenceRequest& request,
                       const DlrmModel& model) const;
  void ValidateSwapCompatible(const DlrmModel& incumbent,
                              const DlrmModel& next) const;
  void StartServing();

  InferenceServerConfig config_;
  mutable std::mutex model_mu_;          // guards slot_ publication
  std::shared_ptr<const ModelSlot> slot_;
  RequestQueue queue_;
  MicroBatcher batcher_;
  ServeMetrics metrics_;
  std::unique_ptr<LoadGovernor> governor_;
  /// serve.shard.<s>.* hooks handed to every consumer's router (stable
  /// registry references; one entry per shard, empty when unsharded).
  std::vector<shard::ShardTelemetry> shard_telemetry_;
  std::vector<std::thread> consumers_;
  std::unique_ptr<obs::PeriodicReporter> reporter_;
  std::atomic<bool> shut_down_{false};
};

}  // namespace ttrec::serve
