// Latency / throughput telemetry for the serving subsystem.
//
// Since the unified observability layer landed, this is a thin facade over
// ttrec::obs: the striped counters and geometric histograms that used to
// live here are now obs::StripedCounter / obs::Histogram (bit-identical
// bucket bounds, so percentiles are unchanged), and ServeMetrics records
// into a private obs::MetricRegistry. The snapshot struct and ToJson()
// output keep the pre-migration keys in the same order — `ttrec_serve`
// and `bench/serve_throughput` consumers parse the same fields — with the
// overload-safety additions (shed/deadline counters, health state and
// transition counts, queue high-water, per-generation blocks) appended.
//
// Hot-path properties are inherited from obs: Record* methods are
// lock-free, and Snapshot()/ToJson() read without stopping the world, so a
// snapshot taken under load is approximate at the margin of in-flight
// increments.
#pragma once

#include <array>
#include <atomic>
#include <chrono>
#include <cstdint>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

#include "obs/metrics.h"

namespace ttrec::serve {

/// The server's overload posture, walked by the load governor (and forced
/// to kDraining by BeginDrain/Shutdown). Ordered by severity.
enum class HealthState {
  kHealthy = 0,   // nominal: micro-batches up to max_batch_size
  kDegraded = 1,  // latency-first: micro-batches capped at max_batch_size/4
  kShedding = 2,  // degraded's cap, and admission rejects (retry-after)
  kDraining = 3,  // admission closed for good; in-flight work finishes
};

const char* ToString(HealthState s);

/// Per-model-generation slice of the snapshot — the canary-vs-incumbent
/// comparison a hot-swap rollout watches.
struct GenerationSnapshot {
  uint64_t generation = 0;
  int64_t requests_ok = 0;
  double latency_p95_us = 0.0;
};

/// Per-shard slice of the snapshot (sharded servers only): how much work
/// the router sent shard `shard` and how long its partial lookups took.
struct ShardSnapshot {
  int shard = 0;
  int64_t queries = 0;   // partial-lookup calls
  int64_t lookups = 0;   // embedding lookups routed here
  double latency_p95_us = 0.0;
  int64_t swaps_prepared = 0;  // standby shards built for a two-phase swap
};

/// A point-in-time read of ServeMetrics, plus the cache stats the server
/// fills in from the model's cached-TT tables (has_cache == false when the
/// model serves without an LFU cache).
struct ServeMetricsSnapshot {
  double uptime_seconds = 0.0;
  int64_t requests_ok = 0;
  int64_t requests_failed = 0;
  /// Typed-rejection counts, disjoint from requests_failed: shed at
  /// admission (ServerOverloaded) and expired before the forward pass
  /// (DeadlineExceeded).
  int64_t requests_shed = 0;
  int64_t requests_deadline_missed = 0;
  int64_t samples = 0;
  int64_t batches = 0;
  double qps = 0.0;              // completed requests / uptime
  double mean_batch_size = 0.0;  // samples / batches

  double latency_mean_us = 0.0;
  double latency_p50_us = 0.0;
  double latency_p95_us = 0.0;
  double latency_p99_us = 0.0;

  double queue_wait_mean_us = 0.0;
  double queue_wait_p50_us = 0.0;
  double queue_wait_p95_us = 0.0;
  double queue_wait_p99_us = 0.0;

  /// batch_size_hist[i] = batches whose size fell in [2^i, 2^(i+1)).
  std::vector<int64_t> batch_size_hist;

  HealthState health = HealthState::kHealthy;
  /// health_transitions[s] = times the server entered state s.
  std::array<int64_t, 4> health_transitions{};
  /// Filled by InferenceServer from RequestQueue::high_water().
  int64_t queue_depth_high_water = 0;

  uint64_t model_generation = 0;  // currently serving generation
  int64_t swaps_ok = 0;
  int64_t swaps_rejected = 0;
  /// Ascending by generation; empty until the first request completes.
  /// Retired generations disappear once pruned (SetGenerationRetention).
  std::vector<GenerationSnapshot> generations;

  /// Sharding topology, filled by the server (0 = unsharded; the JSON
  /// `sharding` block is emitted only when num_shards > 0, so unsharded
  /// output is byte-identical to the pre-sharding format).
  int num_shards = 0;
  std::string partition;
  /// Ascending by shard id; empty on unsharded servers.
  std::vector<ShardSnapshot> shards;

  bool has_cache = false;
  int64_t cache_hits = 0;
  int64_t cache_misses = 0;
  double cache_hit_rate = 0.0;
};

/// Serializes a snapshot as a single JSON object (stable key order, no
/// external dependency).
std::string ToJson(const ServeMetricsSnapshot& s);

/// The server-side metrics hub. All Record* methods are thread-safe and
/// lock-free; Snapshot() may run concurrently with recording.
class ServeMetrics {
 public:
  /// One model generation's metrics. Lives OUTSIDE the registry (which has
  /// no removal API) so retired generations can be pruned; consumers hold
  /// the shared_ptr for the generation they serve, so a block they still
  /// record into survives its own pruning and simply stops being reported.
  struct GenerationBlock {
    obs::StripedCounter ok;
    obs::Histogram latency;
  };

  /// Stable registry references for one shard's serve.shard.<s>.* metrics —
  /// looked up once at server construction (shard count never changes) and
  /// recorded through lock-free thereafter.
  struct ShardMetrics {
    obs::StripedCounter& queries;
    obs::StripedCounter& lookups;
    obs::Histogram& latency_us;
    obs::StripedCounter& swaps_prepared;
  };

  ServeMetrics();

  /// A request completed: end-to-end latency (Submit -> result set) and the
  /// time it spent queued before its micro-batch started executing.
  void RecordRequestOk(int64_t latency_us, int64_t queue_wait_us);
  void RecordRequestFailed(int64_t n = 1);
  /// Load shedding rejected a request at admission (ServerOverloaded).
  void RecordShed(int64_t n = 1);
  /// A request's deadline expired before its forward pass ran.
  void RecordDeadlineMissed(int64_t n = 1);
  /// A micro-batch of `batch_size` samples began executing.
  void RecordBatch(int64_t batch_size);

  /// The server entered `to`: bumps the per-state transition counter and
  /// the serve.health_state gauge.
  void RecordHealthTransition(HealthState to);
  /// SwapModel verdicts; on success `new_generation` becomes the gauge
  /// value reported as model_generation.
  void RecordSwapOk(uint64_t new_generation);
  void RecordSwapRejected();

  /// Creates (first use) and returns generation `generation`'s block.
  /// Consumers cache the returned pointer per generation change (a mutex
  /// here) and record lock-free for the batches that follow.
  std::shared_ptr<GenerationBlock> Generation(uint64_t generation);

  /// Keep per-generation blocks for at most `keep` generations behind the
  /// newest successful swap; older blocks are pruned by RecordSwapOk so a
  /// long-lived server with frequent swaps doesn't grow MetricsJson()
  /// unboundedly. 0 (the default) keeps every generation forever — the
  /// pre-pruning behavior, which some consumers rely on to partition
  /// requests_ok exactly across generations.
  void SetGenerationRetention(int64_t keep);

  /// Creates (first use) and returns shard-labeled metrics:
  /// serve.shard.<s>.{queries,lookups,latency_us,swaps_prepared}.
  ShardMetrics Shard(int shard);

  ServeMetricsSnapshot Snapshot() const;

  /// The backing registry, for callers that want the raw named metrics
  /// (e.g. a PeriodicReporter producer). Names: serve.requests_ok,
  /// serve.requests_failed, serve.requests_shed,
  /// serve.requests_deadline_missed, serve.samples, serve.batches,
  /// serve.latency_us, serve.queue_wait_us, serve.health_state,
  /// serve.health.to_*, serve.model_generation, serve.swaps_ok,
  /// serve.swaps_rejected, serve.shard.<s>.*. Per-generation blocks live
  /// outside the registry (prunable) and appear only in Snapshot().
  const obs::MetricRegistry& registry() const { return registry_; }

 private:
  static constexpr int kBatchSizeBuckets = 16;  // up to 2^16-sample batches

  obs::MetricRegistry registry_;  // must precede the references below
  const std::chrono::steady_clock::time_point start_;
  obs::StripedCounter& ok_;
  obs::StripedCounter& failed_;
  obs::StripedCounter& shed_;
  obs::StripedCounter& deadline_missed_;
  obs::StripedCounter& samples_;
  obs::StripedCounter& batches_;
  obs::Histogram& latency_;
  obs::Histogram& queue_wait_;
  std::array<obs::StripedCounter*, 4> transitions_;
  obs::Gauge& health_state_;
  obs::Gauge& model_generation_;
  obs::StripedCounter& swaps_ok_;
  obs::StripedCounter& swaps_rejected_;
  /// Per-generation blocks, keyed by generation, pruned by RecordSwapOk
  /// when a retention is set. shared_ptr so a consumer mid-batch on a
  /// pruned generation keeps recording into a live (unreported) block.
  mutable std::mutex gen_mu_;
  std::map<uint64_t, std::shared_ptr<GenerationBlock>> gen_blocks_;
  int64_t gen_retention_ = 0;  // 0 = keep every generation
  // Linear power-of-two batch-size buckets; a geometric obs::Histogram
  // would blur the exact power-of-two keys ToJson() reports.
  std::array<std::atomic<int64_t>, kBatchSizeBuckets> batch_size_hist_{};
};

}  // namespace ttrec::serve
