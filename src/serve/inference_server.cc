#include "serve/inference_server.h"

#include <algorithm>
#include <exception>
#include <utility>

#include "dlrm/checkpoint.h"
#include "obs/metrics.h"
#include "obs/trace.h"
#include "serve/inference_session.h"
#include "tensor/check.h"

namespace ttrec::serve {

namespace {

const DlrmModel& Deref(const std::shared_ptr<const DlrmModel>& model) {
  TTREC_CHECK_CONFIG(model != nullptr,
                     "InferenceServer: model must be non-null");
  return *model;
}

int64_t Micros(std::chrono::steady_clock::duration d) {
  return std::chrono::duration_cast<std::chrono::microseconds>(d).count();
}

}  // namespace

InferenceServer::InferenceServer(std::shared_ptr<const DlrmModel> model,
                                 InferenceServerConfig config)
    : config_(std::move(config)),
      queue_(config_.queue_capacity),
      batcher_(Deref(model).num_tables(), model->config().num_dense) {
  TTREC_CHECK_CONFIG(config_.max_batch_size >= 1,
                     "InferenceServer: max_batch_size must be >= 1");
  TTREC_CHECK_CONFIG(config_.num_consumers >= 1,
                     "InferenceServer: num_consumers must be >= 1");
  TTREC_CHECK_CONFIG(config_.num_shards >= 0,
                     "InferenceServer: num_shards must be >= 0");
  TTREC_CHECK_CONFIG(config_.keep_generation_metrics >= 0,
                     "InferenceServer: keep_generation_metrics must be >= 0");
  metrics_.SetGenerationRetention(config_.keep_generation_metrics);
  auto slot = std::make_shared<ModelSlot>();
  slot->model = std::move(model);
  slot->generation = 1;
  if (config_.num_shards >= 1) {
    // The plan is computed once, from the incumbent model's actual table
    // footprints, and kept for the server's lifetime: swaps only admit
    // row-compatible models, so the same plan stays valid across them.
    slot->plan = std::make_shared<const shard::ShardPlan>(
        shard::MakeShardPlanForModel(*slot->model, config_.partition,
                                     config_.num_shards));
    slot->shards = shard::BuildShards(slot->model, slot->plan);
    shard_telemetry_.reserve(static_cast<size_t>(config_.num_shards));
    for (int s = 0; s < config_.num_shards; ++s) {
      const ServeMetrics::ShardMetrics m = metrics_.Shard(s);
      shard_telemetry_.push_back(
          shard::ShardTelemetry{&m.queries, &m.lookups, &m.latency_us});
    }
  }
  slot_ = std::move(slot);
  governor_ = std::make_unique<LoadGovernor>(
      config_.governor,
      [this] {
        return LoadGovernor::Signals{queue_.size(), queue_.capacity()};
      },
      [this](HealthState, HealthState to) {
        metrics_.RecordHealthTransition(to);
      });
  StartServing();
}

InferenceServer::InferenceServer(const DlrmModel& model,
                                 InferenceServerConfig config)
    // Aliasing a null owner makes a non-owning shared_ptr: the caller keeps
    // the model alive, as the ctor contract requires.
    : InferenceServer(std::shared_ptr<const DlrmModel>(
                          std::shared_ptr<const DlrmModel>(), &model),
                      std::move(config)) {}

void InferenceServer::StartServing() {
  consumers_.reserve(static_cast<size_t>(config_.num_consumers));
  for (int i = 0; i < config_.num_consumers; ++i) {
    consumers_.emplace_back([this] { ConsumerLoop(); });
  }
  governor_->Start();
  if (!config_.report_path.empty() && config_.report_interval.count() > 0) {
    reporter_ = std::make_unique<obs::PeriodicReporter>(
        [this] { return MetricsJson(); }, config_.report_interval,
        config_.report_path);
  }
}

InferenceServer::~InferenceServer() { Shutdown(); }

void InferenceServer::BeginDrain() { governor_->ForceDrain(); }

void InferenceServer::Shutdown() {
  if (shut_down_.exchange(true)) return;
  governor_->ForceDrain();  // records the transition; Submit now rejects
  governor_->Stop();
  queue_.Close();
  for (std::thread& t : consumers_) {
    if (t.joinable()) t.join();
  }
  if (reporter_ != nullptr) reporter_->Stop();  // final line post-drain
}

std::shared_ptr<const InferenceServer::ModelSlot>
InferenceServer::CurrentSlot() const {
  std::lock_guard<std::mutex> lock(model_mu_);
  return slot_;
}

uint64_t InferenceServer::generation() const {
  std::lock_guard<std::mutex> lock(model_mu_);
  return slot_->generation;
}

std::shared_ptr<const shard::ShardPlan> InferenceServer::shard_plan() const {
  std::lock_guard<std::mutex> lock(model_mu_);
  return slot_->plan;
}

void InferenceServer::ValidateRequest(const InferenceRequest& r,
                                      const DlrmModel& model) const {
  const int64_t S = r.num_samples();
  TTREC_CHECK_SHAPE(r.dense.ndim() == 2 && S >= 1 &&
                        r.dense.dim(1) == model.config().num_dense,
                    "InferenceRequest: dense must be (num_samples x ",
                    model.config().num_dense, ")");
  TTREC_CHECK_SHAPE(
      static_cast<int>(r.sparse.size()) == model.num_tables(),
      "InferenceRequest: has ", r.sparse.size(),
      " sparse features, model has ", model.num_tables(), " tables");
  const bool strict = model.config().index_policy == IndexPolicy::kThrow;
  for (int t = 0; t < model.num_tables(); ++t) {
    const CsrBatch& cb = r.sparse[static_cast<size_t>(t)];
    TTREC_CHECK_SHAPE(cb.num_bags() == S, "InferenceRequest: table ", t,
                      " has ", cb.num_bags(), " bags for ", S, " samples");
    // Index-range errors fail this request alone, here at Submit time —
    // under kClampToZero the forward pass absorbs them instead. Validity
    // survives a swap between here and execution: SwapModel only admits
    // models with identical table row counts.
    if (strict) {
      cb.Validate(model.table(t).num_rows());
    } else {
      cb.ValidateStructure();
    }
  }
}

void InferenceServer::ValidateSwapCompatible(const DlrmModel& incumbent,
                                             const DlrmModel& next) const {
  // Identical architecture keeps every in-flight artifact valid across the
  // swap: the MicroBatcher's table/dense counts, indices validated against
  // generation G but executed on G+1, and consumers' scratch shapes.
  TTREC_CHECK_CONFIG(next.num_tables() == incumbent.num_tables(),
                     "SwapModel: table count mismatch (incumbent ",
                     incumbent.num_tables(), ", next ", next.num_tables(),
                     ")");
  TTREC_CHECK_CONFIG(
      next.config().num_dense == incumbent.config().num_dense,
      "SwapModel: num_dense mismatch (incumbent ",
      incumbent.config().num_dense, ", next ", next.config().num_dense, ")");
  TTREC_CHECK_CONFIG(next.config().emb_dim == incumbent.config().emb_dim,
                     "SwapModel: emb_dim mismatch (incumbent ",
                     incumbent.config().emb_dim, ", next ",
                     next.config().emb_dim, ")");
  TTREC_CHECK_CONFIG(
      next.config().index_policy == incumbent.config().index_policy,
      "SwapModel: index_policy mismatch — admission validation semantics "
      "must not change under a live swap");
  for (int t = 0; t < incumbent.num_tables(); ++t) {
    TTREC_CHECK_CONFIG(
        next.table(t).num_rows() == incumbent.table(t).num_rows(),
        "SwapModel: table ", t, " row count mismatch (incumbent ",
        incumbent.table(t).num_rows(), ", next ", next.table(t).num_rows(),
        ")");
  }
}

uint64_t InferenceServer::SwapModel(std::shared_ptr<const DlrmModel> next) {
  std::lock_guard<std::mutex> lock(model_mu_);
  std::vector<std::shared_ptr<const shard::EmbeddingShard>> standby;
  try {
    TTREC_CHECK_CONFIG(next != nullptr, "SwapModel: model must be non-null");
    ValidateSwapCompatible(*slot_->model, *next);
    if (slot_->plan != nullptr) {
      // Prepare: construct the ENTIRE standby shard fleet against the
      // incumbent plan before anything publishes. Either every shard
      // validates, or the incumbent fleet keeps serving untouched — a
      // micro-batch can never fan out over a mixed-generation fleet.
      standby = shard::BuildShards(next, slot_->plan);
    }
  } catch (...) {
    metrics_.RecordSwapRejected();
    throw;
  }
  for (size_t s = 0; s < standby.size(); ++s) {
    metrics_.Shard(static_cast<int>(s)).swaps_prepared.Add(1);
  }
  // Commit: one pointer store publishes model + fleet atomically.
  auto fresh = std::make_shared<ModelSlot>();
  fresh->model = std::move(next);
  fresh->generation = slot_->generation + 1;
  fresh->plan = slot_->plan;
  fresh->shards = std::move(standby);
  slot_ = std::move(fresh);
  metrics_.RecordSwapOk(slot_->generation);
  return slot_->generation;
}

uint64_t InferenceServer::SwapModel(const std::string& checkpoint_path) {
  std::shared_ptr<const DlrmModel> standby;
  try {
    TTREC_CHECK_CONFIG(config_.model_factory != nullptr,
                       "SwapModel(path): config.model_factory is unset — "
                       "the server cannot build a standby model");
    // Structural pre-check (magic, version, checksum trailer) before any
    // parsing: a corrupt file must not even reach deserialization.
    const CheckpointFileStatus v = VerifyModelCheckpointFile(checkpoint_path);
    TTREC_CHECK_CONFIG(v.ok, "SwapModel: rejecting checkpoint '",
                       checkpoint_path, "': ", v.error);
    std::unique_ptr<DlrmModel> loaded = config_.model_factory();
    TTREC_CHECK_CONFIG(loaded != nullptr,
                       "SwapModel: model_factory returned null");
    loaded->LoadCheckpointFromFile(checkpoint_path);
    standby = std::shared_ptr<const DlrmModel>(std::move(loaded));
  } catch (...) {
    // Anything wrong with the candidate is counted here; the publish step
    // below counts its own (compatibility) rejections.
    metrics_.RecordSwapRejected();
    throw;
  }
  return SwapModel(std::move(standby));
}

std::future<InferenceResult> InferenceServer::Submit(
    InferenceRequest request) {
  std::promise<InferenceResult> promise;
  std::future<InferenceResult> future = promise.get_future();
  const auto reject = [&](std::exception_ptr err) {
    promise.set_exception(std::move(err));
    return std::move(future);
  };
  if (shut_down_.load(std::memory_order_acquire)) {
    metrics_.RecordRequestFailed();
    return reject(std::make_exception_ptr(
        ServerShutdown("Submit: server is shut down")));
  }
  switch (health()) {
    case HealthState::kDraining:
      metrics_.RecordRequestFailed();
      return reject(std::make_exception_ptr(
          ServerShutdown("Submit: server is draining")));
    case HealthState::kShedding:
      metrics_.RecordShed();
      return reject(std::make_exception_ptr(
          ServerOverloaded("Submit: shedding load",
                           config_.governor.retry_after)));
    case HealthState::kHealthy:
    case HealthState::kDegraded:
      break;
  }
  const auto now = std::chrono::steady_clock::now();
  if (request.expired(now)) {
    metrics_.RecordDeadlineMissed();
    return reject(std::make_exception_ptr(
        DeadlineExceeded("Submit: deadline already passed at admission")));
  }
  try {
    const std::shared_ptr<const ModelSlot> slot = CurrentSlot();
    ValidateRequest(request, *slot->model);
  } catch (...) {
    metrics_.RecordRequestFailed();
    return reject(std::current_exception());
  }

  PendingRequest item;
  item.request = std::move(request);
  item.promise = std::move(promise);
  item.enqueued_at = now;

  // How long admission may block: kBlock waits for space until the
  // request's own deadline (never past the point where the answer is
  // useless); kRejectWhenFull does not wait at all.
  const auto admission_deadline =
      config_.admission == AdmissionPolicy::kRejectWhenFull
          ? std::chrono::steady_clock::time_point::min()
          : item.request.deadline;

  switch (queue_.PushUntil(item, admission_deadline)) {
    case RequestQueue::PushResult::kOk:
      break;
    case RequestQueue::PushResult::kClosed:
      metrics_.RecordRequestFailed();
      item.promise.set_exception(std::make_exception_ptr(
          ServerShutdown("Submit: server shut down during admission")));
      break;
    case RequestQueue::PushResult::kTimedOut:
      if (item.request.expired(std::chrono::steady_clock::now())) {
        metrics_.RecordDeadlineMissed();
        item.promise.set_exception(std::make_exception_ptr(DeadlineExceeded(
            "Submit: deadline passed while waiting for queue space")));
      } else {
        metrics_.RecordShed();
        item.promise.set_exception(std::make_exception_ptr(
            ServerOverloaded("Submit: queue full",
                             config_.governor.retry_after)));
      }
      break;
  }
  return future;
}

void InferenceServer::ConsumerLoop() {
  std::shared_ptr<const ModelSlot> slot = CurrentSlot();
  // A sharded slot serves through a per-consumer ShardRouter (fan-out/join
  // over the slot's fleet); an unsharded one through an InferenceSession.
  // The topology is fixed at construction, so exactly one is ever built.
  const bool sharded = !slot->shards.empty();
  std::unique_ptr<InferenceSession> session;
  std::unique_ptr<shard::ShardRouter> router;
  const auto rebuild = [&](const std::shared_ptr<const ModelSlot>& s) {
    if (sharded) {
      router = std::make_unique<shard::ShardRouter>(s->model, s->plan,
                                                    s->shards,
                                                    shard_telemetry_);
    } else {
      session = std::make_unique<InferenceSession>(*s->model);
    }
  };
  rebuild(slot);
  // Generation-labeled metrics are looked up once per generation change
  // (a mutex) and recorded lock-free after.
  std::shared_ptr<ServeMetrics::GenerationBlock> gen =
      metrics_.Generation(slot->generation);
  std::vector<float> logits;
  for (;;) {
    std::vector<PendingRequest> items;
    {
      // Degraded and shedding keep micro-batches small, so queued requests
      // start executing sooner; healthy and draining batch at full size.
      const HealthState h = health();
      const int64_t cap =
          h == HealthState::kDegraded || h == HealthState::kShedding
              ? std::max<int64_t>(1, config_.max_batch_size / 4)
              : config_.max_batch_size;
      TTREC_TRACE_SCOPE("serve.queue_wait");
      items = queue_.PopBatch(cap);
    }
    if (items.empty()) return;  // closed and drained

    // Deadline triage before any forward work: computing logits nobody is
    // waiting for is exactly the waste that deepens an overload. The most
    // lenient surviving deadline also becomes the fan-out deadline a
    // sharded batch carries: a shard refuses work only once EVERY member
    // is already expired (tighter members keep the existing semantics —
    // admitted at triage, answered even if they lapse mid-forward).
    auto batch_deadline = kNoDeadline;
    {
      const auto now = std::chrono::steady_clock::now();
      size_t kept = 0;
      auto latest = std::chrono::steady_clock::time_point::min();
      for (size_t i = 0; i < items.size(); ++i) {
        if (items[i].request.expired(now)) {
          // Count before failing the promise: a waiter released by
          // set_exception must already see this miss in a snapshot.
          metrics_.RecordDeadlineMissed();
          items[i].promise.set_exception(std::make_exception_ptr(
              DeadlineExceeded("deadline passed while queued")));
        } else {
          latest = std::max(latest, items[i].request.deadline);
          if (kept != i) items[kept] = std::move(items[i]);
          ++kept;
        }
      }
      if (kept < items.size()) {
        items.resize(kept);
        if (items.empty()) continue;
      }
      batch_deadline = latest;
    }

    // Pin one generation for the whole micro-batch: every sample in it is
    // served by exactly this model, and holding the slot's shared_ptr keeps
    // the model alive even if a swap retires it mid-batch.
    if (std::shared_ptr<const ModelSlot> cur = CurrentSlot();
        cur->generation != slot->generation) {
      slot = std::move(cur);
      rebuild(slot);
      gen = metrics_.Generation(slot->generation);
    }

    const auto batch_start = std::chrono::steady_clock::now();
    MicroBatch mb = [&] {
      TTREC_TRACE_SCOPE("serve.assemble");
      return batcher_.Assemble(std::move(items));
    }();
    const int64_t B = mb.batch.batch_size();
    metrics_.RecordBatch(B);
    logits.assign(static_cast<size_t>(B), 0.0f);
    try {
      TTREC_TRACE_SCOPE("serve.inference");
      if (sharded) {
        router->Run(mb.batch, logits.data(), batch_deadline);
      } else {
        session->Run(mb.batch, logits.data());
      }
    } catch (const DeadlineExceeded&) {
      // A shard refused the fan-out because every member had expired:
      // typed deadline misses, never untyped drops.
      const std::exception_ptr err = std::current_exception();
      metrics_.RecordDeadlineMissed(static_cast<int64_t>(mb.requests.size()));
      for (PendingRequest& pr : mb.requests) pr.promise.set_exception(err);
      continue;
    } catch (...) {
      const std::exception_ptr err = std::current_exception();
      metrics_.RecordRequestFailed(
          static_cast<int64_t>(mb.requests.size()));
      for (PendingRequest& pr : mb.requests) pr.promise.set_exception(err);
      continue;
    }
    const auto done = std::chrono::steady_clock::now();
    TTREC_TRACE_SCOPE("serve.split");
    for (size_t r = 0; r < mb.requests.size(); ++r) {
      PendingRequest& pr = mb.requests[r];
      InferenceResult result;
      result.micro_batch_size = B;
      result.model_generation = slot->generation;
      result.logits.assign(logits.begin() + mb.sample_offsets[r],
                           logits.begin() + mb.sample_offsets[r + 1]);
      const int64_t latency_us = Micros(done - pr.enqueued_at);
      metrics_.RecordRequestOk(latency_us,
                               Micros(batch_start - pr.enqueued_at));
      gen->ok.Add(1);
      gen->latency.Record(latency_us);
      pr.promise.set_value(std::move(result));
    }
  }
}

ServeMetricsSnapshot InferenceServer::SnapshotWithCacheStats() const {
  ServeMetricsSnapshot s = metrics_.Snapshot();
  s.queue_depth_high_water = static_cast<int64_t>(queue_.high_water());
  s.health = health();
  const std::shared_ptr<const ModelSlot> slot = CurrentSlot();
  if (slot->plan != nullptr) {
    s.num_shards = slot->plan->num_shards();
    s.partition = shard::ToString(slot->plan->strategy());
  }
  const DlrmModel& model = *slot->model;
  // Collect every table into a fresh registry: cached tables Add() into the
  // shared cache.* names, so per-model totals fall out of the registry
  // semantics — no dynamic_cast on concrete adapter types.
  obs::MetricRegistry stats;
  for (int t = 0; t < model.num_tables(); ++t) {
    model.table(t).CollectStats(stats);
  }
  if (const obs::StripedCounter* hits = stats.FindCounter("cache.hits")) {
    s.has_cache = true;
    s.cache_hits = hits->Total();
  }
  if (const obs::StripedCounter* misses = stats.FindCounter("cache.misses")) {
    s.has_cache = true;
    s.cache_misses = misses->Total();
  }
  if (s.has_cache && s.cache_hits + s.cache_misses > 0) {
    s.cache_hit_rate =
        static_cast<double>(s.cache_hits) /
        static_cast<double>(s.cache_hits + s.cache_misses);
  }
  return s;
}

std::string InferenceServer::MetricsJson() const {
  return ToJson(SnapshotWithCacheStats());
}

}  // namespace ttrec::serve
