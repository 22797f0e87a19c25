#include "serve/serve_metrics.h"

#include <algorithm>
#include <cstdlib>
#include <string_view>

#include "obs/json_writer.h"
#include "tensor/cpu_features.h"

namespace ttrec::serve {

const char* ToString(HealthState s) {
  switch (s) {
    case HealthState::kHealthy:
      return "healthy";
    case HealthState::kDegraded:
      return "degraded";
    case HealthState::kShedding:
      return "shedding";
    case HealthState::kDraining:
      return "draining";
  }
  return "unknown";
}

ServeMetrics::ServeMetrics()
    : start_(std::chrono::steady_clock::now()),
      ok_(registry_.counter("serve.requests_ok")),
      failed_(registry_.counter("serve.requests_failed")),
      shed_(registry_.counter("serve.requests_shed")),
      deadline_missed_(registry_.counter("serve.requests_deadline_missed")),
      samples_(registry_.counter("serve.samples")),
      batches_(registry_.counter("serve.batches")),
      latency_(registry_.histogram("serve.latency_us")),
      queue_wait_(registry_.histogram("serve.queue_wait_us")),
      transitions_{&registry_.counter("serve.health.to_healthy"),
                   &registry_.counter("serve.health.to_degraded"),
                   &registry_.counter("serve.health.to_shedding"),
                   &registry_.counter("serve.health.to_draining")},
      health_state_(registry_.gauge("serve.health_state")),
      model_generation_(registry_.gauge("serve.model_generation")),
      swaps_ok_(registry_.counter("serve.swaps_ok")),
      swaps_rejected_(registry_.counter("serve.swaps_rejected")) {
  // Which SIMD kernel tier lookups dispatch on (0=scalar, 1=avx2,
  // 2=avx512) — latency telemetry is only comparable within a tier.
  registry_.gauge("kernel.simd_tier")
      .Set(static_cast<double>(static_cast<int>(ActiveSimdTier())));
  model_generation_.Set(1.0);
}

void ServeMetrics::RecordRequestOk(int64_t latency_us, int64_t queue_wait_us) {
  ok_.Add(1);
  latency_.Record(latency_us);
  queue_wait_.Record(queue_wait_us);
}

void ServeMetrics::RecordRequestFailed(int64_t n) { failed_.Add(n); }

void ServeMetrics::RecordShed(int64_t n) { shed_.Add(n); }

void ServeMetrics::RecordDeadlineMissed(int64_t n) {
  deadline_missed_.Add(n);
}

void ServeMetrics::RecordBatch(int64_t batch_size) {
  batches_.Add(1);
  samples_.Add(batch_size);
  int bucket = 0;
  for (int64_t s = batch_size; s > 1 && bucket + 1 < kBatchSizeBuckets;
       s >>= 1) {
    ++bucket;
  }
  batch_size_hist_[static_cast<size_t>(bucket)].fetch_add(
      1, std::memory_order_relaxed);
}

void ServeMetrics::RecordHealthTransition(HealthState to) {
  transitions_[static_cast<size_t>(to)]->Add(1);
  health_state_.Set(static_cast<double>(static_cast<int>(to)));
}

void ServeMetrics::RecordSwapOk(uint64_t new_generation) {
  swaps_ok_.Add(1);
  model_generation_.Set(static_cast<double>(new_generation));
  std::lock_guard<std::mutex> lock(gen_mu_);
  if (gen_retention_ > 0 &&
      new_generation >= static_cast<uint64_t>(gen_retention_)) {
    // Keep the newest `gen_retention_` generations: prune every block at
    // least that far behind the generation just published. Consumers still
    // holding a pruned block's shared_ptr record into it harmlessly; it
    // just stops appearing in snapshots.
    const uint64_t oldest_kept =
        new_generation - static_cast<uint64_t>(gen_retention_) + 1;
    gen_blocks_.erase(gen_blocks_.begin(),
                      gen_blocks_.lower_bound(oldest_kept));
  }
}

void ServeMetrics::RecordSwapRejected() { swaps_rejected_.Add(1); }

std::shared_ptr<ServeMetrics::GenerationBlock> ServeMetrics::Generation(
    uint64_t generation) {
  std::lock_guard<std::mutex> lock(gen_mu_);
  std::shared_ptr<GenerationBlock>& block = gen_blocks_[generation];
  if (block == nullptr) block = std::make_shared<GenerationBlock>();
  return block;
}

void ServeMetrics::SetGenerationRetention(int64_t keep) {
  std::lock_guard<std::mutex> lock(gen_mu_);
  gen_retention_ = keep;
}

ServeMetrics::ShardMetrics ServeMetrics::Shard(int shard) {
  const std::string prefix = "serve.shard." + std::to_string(shard);
  return ShardMetrics{registry_.counter(prefix + ".queries"),
                      registry_.counter(prefix + ".lookups"),
                      registry_.histogram(prefix + ".latency_us"),
                      registry_.counter(prefix + ".swaps_prepared")};
}

namespace {

/// Parses "serve.shard.<s>.<leaf>" into (s, leaf); false for other names.
bool ParseShardMetric(std::string_view name, int* shard,
                      std::string_view* leaf) {
  constexpr std::string_view kPrefix = "serve.shard.";
  if (name.substr(0, kPrefix.size()) != kPrefix) return false;
  name.remove_prefix(kPrefix.size());
  const size_t dot = name.find('.');
  if (dot == std::string_view::npos || dot == 0) return false;
  *shard = static_cast<int>(
      std::strtol(std::string(name.substr(0, dot)).c_str(), nullptr, 10));
  *leaf = name.substr(dot + 1);
  return true;
}

ShardSnapshot& ShardEntry(std::vector<ShardSnapshot>& shards, int shard) {
  for (ShardSnapshot& s : shards) {
    if (s.shard == shard) return s;
  }
  shards.push_back(ShardSnapshot{});
  shards.back().shard = shard;
  return shards.back();
}

}  // namespace

ServeMetricsSnapshot ServeMetrics::Snapshot() const {
  ServeMetricsSnapshot s;
  const auto now = std::chrono::steady_clock::now();
  s.uptime_seconds = std::chrono::duration<double>(now - start_).count();
  s.requests_ok = ok_.Total();
  s.requests_failed = failed_.Total();
  s.requests_shed = shed_.Total();
  s.requests_deadline_missed = deadline_missed_.Total();
  s.samples = samples_.Total();
  s.batches = batches_.Total();
  s.qps = s.uptime_seconds > 0.0
              ? static_cast<double>(s.requests_ok) / s.uptime_seconds
              : 0.0;
  s.mean_batch_size =
      s.batches > 0
          ? static_cast<double>(s.samples) / static_cast<double>(s.batches)
          : 0.0;
  s.latency_mean_us = latency_.MeanMicros();
  s.latency_p50_us = latency_.PercentileMicros(50.0);
  s.latency_p95_us = latency_.PercentileMicros(95.0);
  s.latency_p99_us = latency_.PercentileMicros(99.0);
  s.queue_wait_mean_us = queue_wait_.MeanMicros();
  s.queue_wait_p50_us = queue_wait_.PercentileMicros(50.0);
  s.queue_wait_p95_us = queue_wait_.PercentileMicros(95.0);
  s.queue_wait_p99_us = queue_wait_.PercentileMicros(99.0);
  s.batch_size_hist.resize(kBatchSizeBuckets);
  for (int i = 0; i < kBatchSizeBuckets; ++i) {
    s.batch_size_hist[static_cast<size_t>(i)] =
        batch_size_hist_[static_cast<size_t>(i)].load(
            std::memory_order_relaxed);
  }
  s.health = static_cast<HealthState>(
      static_cast<int>(health_state_.Value()));
  for (size_t i = 0; i < transitions_.size(); ++i) {
    s.health_transitions[i] = transitions_[i]->Total();
  }
  s.model_generation = static_cast<uint64_t>(model_generation_.Value());
  s.swaps_ok = swaps_ok_.Total();
  s.swaps_rejected = swaps_rejected_.Total();

  // Per-generation blocks: copy the shared_ptrs under the lock, read the
  // lock-free metrics outside it. The map is ordered, so the snapshot is
  // ascending by generation without a sort.
  std::vector<std::pair<uint64_t, std::shared_ptr<GenerationBlock>>> blocks;
  {
    std::lock_guard<std::mutex> lock(gen_mu_);
    blocks.assign(gen_blocks_.begin(), gen_blocks_.end());
  }
  s.generations.reserve(blocks.size());
  for (const auto& [gen, block] : blocks) {
    GenerationSnapshot g;
    g.generation = gen;
    g.requests_ok = block->ok.Total();
    g.latency_p95_us = block->latency.TotalCount() > 0
                           ? block->latency.PercentileMicros(95.0)
                           : 0.0;
    s.generations.push_back(g);
  }

  // Per-shard metrics are registry-named (shards are never pruned); one
  // registry snapshot yields all of them.
  const obs::MetricsSnapshot reg = registry_.Snapshot();
  int shard = 0;
  std::string_view leaf;
  for (const auto& [name, total] : reg.counters) {
    if (!ParseShardMetric(name, &shard, &leaf)) continue;
    if (leaf == "queries") {
      ShardEntry(s.shards, shard).queries = total;
    } else if (leaf == "lookups") {
      ShardEntry(s.shards, shard).lookups = total;
    } else if (leaf == "swaps_prepared") {
      ShardEntry(s.shards, shard).swaps_prepared = total;
    }
  }
  for (const auto& [name, hist] : reg.histograms) {
    if (ParseShardMetric(name, &shard, &leaf) && leaf == "latency_us") {
      ShardEntry(s.shards, shard).latency_p95_us = hist.p95;
    }
  }
  std::sort(s.shards.begin(), s.shards.end(),
            [](const ShardSnapshot& a, const ShardSnapshot& b) {
              return a.shard < b.shard;
            });
  return s;
}

std::string ToJson(const ServeMetricsSnapshot& s) {
  // Pre-overload-safety keys keep their order and formats (%.3f doubles,
  // zero batch-size buckets skipped, `cache` block only when a cache
  // exists); the health/swap additions are appended before `cache`.
  obs::JsonWriter w;
  w.BeginObject();
  w.Kv("uptime_seconds", s.uptime_seconds);
  w.Kv("requests_ok", s.requests_ok);
  w.Kv("requests_failed", s.requests_failed);
  w.Kv("requests_shed", s.requests_shed);
  w.Kv("requests_deadline_missed", s.requests_deadline_missed);
  w.Kv("samples", s.samples);
  w.Kv("batches", s.batches);
  w.Kv("qps", s.qps);
  w.Kv("mean_batch_size", s.mean_batch_size);
  w.Key("latency_us").BeginObject();
  w.Kv("mean", s.latency_mean_us);
  w.Kv("p50", s.latency_p50_us);
  w.Kv("p95", s.latency_p95_us);
  w.Kv("p99", s.latency_p99_us);
  w.EndObject();
  w.Key("queue_wait_us").BeginObject();
  w.Kv("mean", s.queue_wait_mean_us);
  w.Kv("p50", s.queue_wait_p50_us);
  w.Kv("p95", s.queue_wait_p95_us);
  w.Kv("p99", s.queue_wait_p99_us);
  w.EndObject();
  w.Key("batch_size_hist").BeginObject();
  for (size_t i = 0; i < s.batch_size_hist.size(); ++i) {
    if (s.batch_size_hist[i] == 0) continue;
    w.Kv(std::to_string(int64_t{1} << i), s.batch_size_hist[i]);
  }
  w.EndObject();
  w.Key("health").BeginObject();
  w.Kv("state", ToString(s.health));
  w.Key("transitions").BeginObject();
  for (int i = 0; i < 4; ++i) {
    w.Kv(ToString(static_cast<HealthState>(i)),
         s.health_transitions[static_cast<size_t>(i)]);
  }
  w.EndObject();
  w.EndObject();
  w.Kv("queue_depth_high_water", s.queue_depth_high_water);
  w.Key("model").BeginObject();
  w.Kv("generation", s.model_generation);
  w.Kv("swaps_ok", s.swaps_ok);
  w.Kv("swaps_rejected", s.swaps_rejected);
  w.EndObject();
  w.Key("generations").BeginObject();
  for (const GenerationSnapshot& g : s.generations) {
    w.Key(std::to_string(g.generation)).BeginObject();
    w.Kv("requests_ok", g.requests_ok);
    w.Kv("latency_p95_us", g.latency_p95_us);
    w.EndObject();
  }
  w.EndObject();
  if (s.num_shards > 0) {
    w.Key("sharding").BeginObject();
    w.Kv("num_shards", static_cast<int64_t>(s.num_shards));
    w.Kv("partition", s.partition);
    w.Key("shards").BeginObject();
    for (const ShardSnapshot& sh : s.shards) {
      w.Key(std::to_string(sh.shard)).BeginObject();
      w.Kv("queries", sh.queries);
      w.Kv("lookups", sh.lookups);
      w.Kv("latency_p95_us", sh.latency_p95_us);
      w.Kv("swaps_prepared", sh.swaps_prepared);
      w.EndObject();
    }
    w.EndObject();
    w.EndObject();
  }
  if (s.has_cache) {
    w.Key("cache").BeginObject();
    w.Kv("hits", s.cache_hits);
    w.Kv("misses", s.cache_misses);
    w.Kv("hit_rate", s.cache_hit_rate);
    w.EndObject();
  }
  w.EndObject();
  return w.str();
}

}  // namespace ttrec::serve
