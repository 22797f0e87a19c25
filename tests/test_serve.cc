// src/serve/ subsystem: metrics primitives, queue semantics (including the
// work-conserving PopBatch), micro-batch assembly round-trips, and the
// headline concurrency contract — N producer threads against a batching
// consumer produce logits bitwise identical to a sequential single-request
// session. Built to run clean under TSan (-DTTREC_SANITIZE=thread) as well
// as ASan/UBSan.
#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <future>
#include <memory>
#include <mutex>
#include <thread>
#include <vector>

#include "data/criteo_synth.h"
#include "dlrm/embedding_adapters.h"
#include "dlrm/embedding_bag.h"
#include "dlrm/model.h"
#include "fault_injector.h"
#include "obs/metrics.h"
#include "serve/inference_server.h"
#include "serve/inference_session.h"
#include "serve/micro_batcher.h"
#include "serve/request_queue.h"
#include "serve/serve_metrics.h"
#include "tensor/check.h"
#include "tt/tt_shapes.h"

namespace ttrec {
namespace {

using serve::InferenceRequest;
using serve::InferenceResult;
using serve::PendingRequest;
using PushResult = serve::RequestQueue::PushResult;

/// Polls `done` every millisecond until it holds.
template <typename Pred>
void WaitUntil(Pred done) {
  while (!done()) std::this_thread::sleep_for(std::chrono::milliseconds(1));
}

// ---------------------------------------------------------------------------
// Metrics primitives
// ---------------------------------------------------------------------------

TEST(StripedCounter, AddAndTotal) {
  obs::StripedCounter c;
  EXPECT_EQ(c.Total(), 0);
  c.Add(5);
  c.Add(-2);
  EXPECT_EQ(c.Total(), 3);
  c.Reset();
  EXPECT_EQ(c.Total(), 0);
}

TEST(StripedCounter, ConcurrentAddsAreLossless) {
  obs::StripedCounter c;
  constexpr int kThreads = 8;
  constexpr int kAddsPerThread = 10000;
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&] {
      for (int i = 0; i < kAddsPerThread; ++i) c.Add(1);
    });
  }
  for (std::thread& t : threads) t.join();
  EXPECT_EQ(c.Total(), int64_t{kThreads} * kAddsPerThread);
}

TEST(LatencyHistogram, EmptyReturnsZero) {
  obs::Histogram h;
  EXPECT_EQ(h.TotalCount(), 0);
  EXPECT_DOUBLE_EQ(h.PercentileMicros(50), 0.0);
  EXPECT_DOUBLE_EQ(h.MeanMicros(), 0.0);
}

TEST(LatencyHistogram, PercentilesTrackKnownDistribution) {
  obs::Histogram h;
  // 1..1000 µs, one sample each: p50 ~ 500, p99 ~ 990.
  for (int64_t v = 1; v <= 1000; ++v) h.Record(v);
  EXPECT_EQ(h.TotalCount(), 1000);
  EXPECT_NEAR(h.MeanMicros(), 500.5, 1.0);
  // Geometric buckets grow ~1.25x, so percentiles carry ~25% resolution.
  EXPECT_NEAR(h.PercentileMicros(50), 500.0, 130.0);
  EXPECT_NEAR(h.PercentileMicros(99), 990.0, 260.0);
  EXPECT_LE(h.PercentileMicros(50), h.PercentileMicros(95));
  EXPECT_LE(h.PercentileMicros(95), h.PercentileMicros(99));
}

TEST(LatencyHistogram, ConcurrentRecordsKeepTotalCount) {
  obs::Histogram h;
  constexpr int kThreads = 8;
  constexpr int kPerThread = 5000;
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&, t] {
      for (int i = 0; i < kPerThread; ++i) h.Record(1 + (t * kPerThread + i) % 997);
    });
  }
  for (std::thread& t : threads) t.join();
  EXPECT_EQ(h.TotalCount(), int64_t{kThreads} * kPerThread);
}

TEST(ServeMetrics, SnapshotAndJson) {
  serve::ServeMetrics m;
  m.RecordBatch(4);
  for (int i = 0; i < 4; ++i) m.RecordRequestOk(100 + i, 10);
  m.RecordRequestFailed();
  const serve::ServeMetricsSnapshot s = m.Snapshot();
  EXPECT_EQ(s.requests_ok, 4);
  EXPECT_EQ(s.requests_failed, 1);
  EXPECT_EQ(s.batches, 1);
  EXPECT_EQ(s.samples, 4);
  EXPECT_DOUBLE_EQ(s.mean_batch_size, 4.0);
  EXPECT_GT(s.latency_mean_us, 0.0);
  const std::string json = serve::ToJson(s);
  EXPECT_NE(json.find("\"requests_ok\":4"), std::string::npos) << json;
  EXPECT_NE(json.find("\"requests_failed\":1"), std::string::npos) << json;
  EXPECT_NE(json.find("\"latency_us\""), std::string::npos) << json;
  EXPECT_NE(json.find("\"p99\""), std::string::npos) << json;
  EXPECT_NE(json.find("\"batch_size_hist\":{\"4\":1}"), std::string::npos)
      << json;
}

// ---------------------------------------------------------------------------
// RequestQueue
// ---------------------------------------------------------------------------

PendingRequest MakePending(int64_t tag) {
  PendingRequest pr;
  pr.request.dense = Tensor({1, 1});
  pr.request.dense[0] = static_cast<float>(tag);
  pr.enqueued_at = std::chrono::steady_clock::now();
  return pr;
}

/// Enqueues request `tag`, blocking for space if the queue is full.
void PushOk(serve::RequestQueue& q, int64_t tag) {
  PendingRequest pr = MakePending(tag);
  ASSERT_EQ(q.PushUntil(pr, serve::kNoDeadline), PushResult::kOk);
}

TEST(RequestQueue, PopBatchRespectsMaxItemsAndOrder) {
  serve::RequestQueue q(/*capacity=*/16);
  for (int64_t i = 0; i < 5; ++i) PushOk(q, i);
  EXPECT_EQ(q.size(), 5u);
  auto batch = q.PopBatch(3);
  ASSERT_EQ(batch.size(), 3u);
  for (int64_t i = 0; i < 3; ++i) {
    EXPECT_FLOAT_EQ(batch[static_cast<size_t>(i)].request.dense[0],
                    static_cast<float>(i));
  }
  batch = q.PopBatch(100);
  EXPECT_EQ(batch.size(), 2u);  // takes what is queued, never waits for more
}

TEST(RequestQueue, BlockedPopBatchReturnsFirstRequestAlone) {
  // Work-conserving: a consumer waiting on an empty queue takes the first
  // request as soon as it lands, and does not hold the batch open for the
  // 31 more it has room for.
  serve::RequestQueue q(64);
  std::promise<std::vector<PendingRequest>> popped;
  std::future<std::vector<PendingRequest>> batch_future = popped.get_future();
  std::thread consumer([&] { popped.set_value(q.PopBatch(32)); });
  std::this_thread::sleep_for(std::chrono::milliseconds(20));
  PushOk(q, 5);
  const bool returned = batch_future.wait_for(std::chrono::seconds(10)) ==
                        std::future_status::ready;
  q.Close();  // frees a consumer that is, wrongly, still waiting
  consumer.join();
  ASSERT_TRUE(returned) << "PopBatch(32) held a one-request batch open";
  const std::vector<PendingRequest> batch = batch_future.get();
  ASSERT_EQ(batch.size(), 1u);
  EXPECT_FLOAT_EQ(batch[0].request.dense[0], 5.0f);
}

TEST(RequestQueue, CloseFailsPushAndDrainsPops) {
  serve::RequestQueue q(16);
  PushOk(q, 7);
  q.Close();
  EXPECT_TRUE(q.closed());

  PendingRequest late = MakePending(8);
  std::future<InferenceResult> late_future = late.promise.get_future();
  EXPECT_EQ(q.PushUntil(late, serve::kNoDeadline), PushResult::kClosed);
  // The rejected item, promise included, stays with the caller.
  EXPECT_EQ(late_future.wait_for(std::chrono::seconds(0)),
            std::future_status::timeout);

  // The item enqueued before Close is still drained...
  auto batch = q.PopBatch(10);
  ASSERT_EQ(batch.size(), 1u);
  EXPECT_FLOAT_EQ(batch[0].request.dense[0], 7.0f);
  // ...then empty-batch is the consumer's exit signal.
  EXPECT_TRUE(q.PopBatch(10).empty());
}

TEST(RequestQueue, CloseWakesBlockedProducersExactlyOnce) {
  // Regression: producers blocked in PushUntil on a full queue must observe
  // Close() promptly, each with kClosed, and each must still own its
  // pending promise (the queue never touches an item it did not accept).
  // A missed wake-up would hang the join below; a promise the queue had
  // taken would make the caller's set_exception throw std::future_error.
  serve::RequestQueue q(2);
  PushOk(q, 0);
  PushOk(q, 1);  // full from here on

  constexpr size_t kProducers = 8;
  std::vector<PendingRequest> items(kProducers);
  std::vector<std::future<InferenceResult>> futures(kProducers);
  std::vector<PushResult> results(kProducers, PushResult::kOk);
  for (size_t p = 0; p < kProducers; ++p) {
    items[p] = MakePending(100 + static_cast<int64_t>(p));
    futures[p] = items[p].promise.get_future();
  }
  std::vector<std::thread> producers;
  for (size_t p = 0; p < kProducers; ++p) {
    producers.emplace_back([&, p] {
      results[p] = q.PushUntil(items[p], serve::kNoDeadline);
    });
  }
  std::this_thread::sleep_for(std::chrono::milliseconds(20));
  q.Close();
  for (std::thread& t : producers) t.join();

  for (size_t p = 0; p < kProducers; ++p) {
    EXPECT_EQ(results[p], PushResult::kClosed);  // queue stayed full
    EXPECT_EQ(futures[p].wait_for(std::chrono::seconds(0)),
              std::future_status::timeout);
    EXPECT_NO_THROW(items[p].promise.set_exception(std::make_exception_ptr(
        serve::ServerShutdown("closed while waiting for space"))));
    EXPECT_THROW(futures[p].get(), serve::ServerShutdown);
  }

  // The two accepted items still drain.
  auto batch = q.PopBatch(10);
  EXPECT_EQ(batch.size(), 2u);
  EXPECT_TRUE(q.PopBatch(10).empty());
}

TEST(RequestQueue, PushUntilTimesOutAndLeavesItemWithCaller) {
  serve::RequestQueue q(1);
  PendingRequest first = MakePending(0);
  ASSERT_EQ(q.PushUntil(first, serve::kNoDeadline), PushResult::kOk);

  PendingRequest second = MakePending(1);
  const auto t0 = std::chrono::steady_clock::now();
  EXPECT_EQ(q.PushUntil(second, t0 + std::chrono::milliseconds(5)),
            PushResult::kTimedOut);
  // The item (promise included) stays with the caller: its future is still
  // pending, proving the queue never touched it.
  std::future<InferenceResult> f = second.promise.get_future();
  EXPECT_EQ(f.wait_for(std::chrono::seconds(0)),
            std::future_status::timeout);

  // A deadline already in the past is a try-push.
  const auto past = std::chrono::steady_clock::time_point::min();
  EXPECT_EQ(q.PushUntil(second, past), PushResult::kTimedOut);
  q.PopBatch(1);
  EXPECT_EQ(q.PushUntil(second, past), PushResult::kOk);
  EXPECT_EQ(q.high_water(), 1u);
}

TEST(RequestQueue, CloseWakesBlockedConsumer) {
  serve::RequestQueue q(4);
  std::atomic<bool> woke{false};
  std::thread consumer([&] {
    // Blocks on empty queue until Close.
    auto batch = q.PopBatch(10);
    woke.store(batch.empty());
  });
  std::this_thread::sleep_for(std::chrono::milliseconds(20));
  q.Close();
  consumer.join();
  EXPECT_TRUE(woke.load());
}

// ---------------------------------------------------------------------------
// MicroBatcher: Assemble is the inverse of SplitSamples
// ---------------------------------------------------------------------------

SyntheticCriteoConfig ServeDataConfig(int num_tables = 4, int64_t rows = 200) {
  SyntheticCriteoConfig cfg;
  cfg.spec.name = "serve_test";
  cfg.spec.num_dense = 13;
  cfg.spec.table_rows.assign(static_cast<size_t>(num_tables), rows);
  cfg.zipf_exponent = 1.1;
  cfg.seed = 21;
  return cfg;
}

TEST(MicroBatcher, AssembleRoundTripsSplitSamples) {
  SyntheticCriteo data(ServeDataConfig());
  const MiniBatch original = data.EvalBatch(9);
  std::vector<InferenceRequest> requests = serve::SplitSamples(original);
  ASSERT_EQ(requests.size(), 9u);

  std::vector<PendingRequest> pending;
  for (InferenceRequest& r : requests) {
    PendingRequest pr;
    pr.request = std::move(r);
    pending.push_back(std::move(pr));
  }
  serve::MicroBatcher batcher(/*num_tables=*/4, /*num_dense=*/13);
  serve::MicroBatch mb = batcher.Assemble(std::move(pending));

  ASSERT_EQ(mb.batch.batch_size(), original.batch_size());
  ASSERT_EQ(mb.sample_offsets.size(), 10u);
  for (size_t r = 0; r < 9; ++r) {
    EXPECT_EQ(mb.sample_offsets[r], static_cast<int64_t>(r));
  }
  // Dense features survive concatenation bitwise.
  ASSERT_EQ(mb.batch.dense.numel(), original.dense.numel());
  for (int64_t i = 0; i < original.dense.numel(); ++i) {
    EXPECT_EQ(mb.batch.dense[i], original.dense[i]);
  }
  // Per-table CSR structure is reassembled exactly.
  ASSERT_EQ(mb.batch.sparse.size(), original.sparse.size());
  for (size_t t = 0; t < original.sparse.size(); ++t) {
    EXPECT_EQ(mb.batch.sparse[t].indices, original.sparse[t].indices);
    EXPECT_EQ(mb.batch.sparse[t].offsets, original.sparse[t].offsets);
  }
  // Labels are zero-filled (sizing only, never read by the forward pass).
  for (float label : mb.batch.labels) EXPECT_EQ(label, 0.0f);
}

TEST(MicroBatcher, MixedWeightsMaterializeAllOnes) {
  SyntheticCriteo data(ServeDataConfig(/*num_tables=*/1));
  std::vector<InferenceRequest> requests =
      serve::SplitSamples(data.EvalBatch(2));
  // Give request 0 explicit weights; request 1 stays implicit (all-ones).
  requests[0].sparse[0].weights.assign(
      requests[0].sparse[0].indices.size(), 2.0f);
  std::vector<PendingRequest> pending;
  for (InferenceRequest& r : requests) {
    PendingRequest pr;
    pr.request = std::move(r);
    pending.push_back(std::move(pr));
  }
  serve::MicroBatcher batcher(1, 13);
  serve::MicroBatch mb = batcher.Assemble(std::move(pending));
  const CsrBatch& merged = mb.batch.sparse[0];
  ASSERT_EQ(merged.weights.size(), merged.indices.size());
  size_t i = 0;
  const size_t n0 = static_cast<size_t>(merged.offsets[1]);  // request 0's lookups
  for (; i < n0; ++i) EXPECT_FLOAT_EQ(merged.weights[i], 2.0f);
  for (; i < merged.weights.size(); ++i) {
    EXPECT_FLOAT_EQ(merged.weights[i], 1.0f);  // materialized implicit ones
  }
}

// ---------------------------------------------------------------------------
// End-to-end serving
// ---------------------------------------------------------------------------

DlrmConfig ServeDlrmConfig() {
  DlrmConfig cfg;
  cfg.emb_dim = 8;
  cfg.bottom_hidden = {16};
  cfg.top_hidden = {16};
  cfg.index_policy = IndexPolicy::kThrow;
  return cfg;
}

// Mixed backend model: dense bag + plain TT + cached TT + dense bag, so the
// serving path exercises every ForwardInference implementation at once.
// With `slow`, the first dense bag is wrapped in a SlowEmbeddingInjector
// (returned through `slow`) that can stall the consumer mid-forward.
std::unique_ptr<DlrmModel> BuildServeModel(
    const DatasetSpec& spec, Rng& rng, DlrmConfig cfg,
    testing::SlowEmbeddingInjector** slow = nullptr) {
  std::vector<std::unique_ptr<EmbeddingOp>> tables;
  std::unique_ptr<EmbeddingOp> first = std::make_unique<DenseEmbeddingBag>(
      spec.table_rows[0], cfg.emb_dim, PoolingMode::kSum,
      DenseEmbeddingInit::UniformScaled(), rng);
  if (slow != nullptr) {
    auto injector = std::make_unique<testing::SlowEmbeddingInjector>(
        std::move(first), std::chrono::microseconds(0));
    *slow = injector.get();
    first = std::move(injector);
  }
  tables.push_back(std::move(first));
  {
    TtEmbeddingConfig tt;
    tt.shape = MakeTtShape(spec.table_rows[1], cfg.emb_dim, 3, 4);
    tables.push_back(
        std::make_unique<TtEmbeddingAdapter>(tt, TtInit::kSampledGaussian, rng));
  }
  {
    CachedTtConfig ct;
    ct.tt.shape = MakeTtShape(spec.table_rows[2], cfg.emb_dim, 3, 4);
    ct.cache_capacity = 32;
    ct.warmup_iterations = 2;
    ct.refresh_interval = 2;
    tables.push_back(std::make_unique<CachedTtEmbeddingAdapter>(
        ct, TtInit::kSampledGaussian, rng));
  }
  tables.push_back(std::make_unique<DenseEmbeddingBag>(
      spec.table_rows[3], cfg.emb_dim, PoolingMode::kSum,
      DenseEmbeddingInit::UniformScaled(), rng));
  return std::make_unique<DlrmModel>(cfg, std::move(tables), rng);
}

InferenceRequest CopyRequest(const InferenceRequest& r) {
  InferenceRequest copy;
  copy.dense = r.dense;
  copy.sparse = r.sparse;
  copy.deadline = r.deadline;
  return copy;
}

TEST(InferenceSession, ConstForwardMatchesTrainingForwardBitwise) {
  Rng rng(31);
  SyntheticCriteo data(ServeDataConfig());
  std::unique_ptr<DlrmModel> model =
      BuildServeModel(data.config().spec, rng, ServeDlrmConfig());
  // Warm + freeze the cached table through the training-path forward.
  std::vector<float> warm(32);
  for (int i = 0; i < 6; ++i) {
    model->PredictLogits(data.NextBatch(32), warm.data());
  }
  const MiniBatch batch = data.EvalBatch(24);
  std::vector<float> mutable_logits(24), const_logits(24);
  model->PredictLogits(batch, mutable_logits.data());
  serve::InferenceSession session(*model);
  session.Run(batch, const_logits.data());
  for (size_t i = 0; i < 24; ++i) {
    EXPECT_EQ(const_logits[i], mutable_logits[i]) << "sample " << i;
  }
}

TEST(InferenceServer, MultiProducerBatchedMatchesSequentialBitwise) {
  Rng rng(47);
  SyntheticCriteo data(ServeDataConfig());
  testing::SlowEmbeddingInjector* slow = nullptr;
  std::unique_ptr<DlrmModel> model =
      BuildServeModel(data.config().spec, rng, ServeDlrmConfig(), &slow);
  std::vector<float> warm(32);
  for (int i = 0; i < 6; ++i) {
    model->PredictLogits(data.NextBatch(32), warm.data());
  }

  constexpr int64_t kRequests = 96;
  const MiniBatch trace = data.EvalBatch(kRequests);
  const std::vector<InferenceRequest> requests = serve::SplitSamples(trace);

  // Sequential reference: one request at a time through a private session.
  std::vector<float> reference(kRequests);
  {
    serve::InferenceSession sequential(*model);
    for (size_t i = 0; i < requests.size(); ++i) {
      MiniBatch one;
      one.dense = requests[i].dense;
      one.sparse = requests[i].sparse;
      one.labels.assign(1, 0.0f);
      sequential.Run(one, &reference[i]);
    }
  }

  // Concurrent: N closed-loop producer threads against a batching consumer.
  // The consumer is first wedged inside the forward pass of one extra
  // request and released only once every producer's first request is
  // queued behind it, so the bitwise claim is tested on a genuinely
  // multi-request micro-batch.
  serve::InferenceServerConfig cfg;
  cfg.max_batch_size = 16;
  serve::InferenceServer server(*model, cfg);
  const int64_t lookups_before = slow->lookups();
  slow->set_stalled(true);
  std::future<InferenceResult> wedged =
      server.Submit(CopyRequest(requests[0]));
  WaitUntil([&] { return slow->lookups() > lookups_before; });

  constexpr int kProducers = 6;
  std::vector<float> served(kRequests);
  std::atomic<int64_t> max_micro_batch{0};
  std::vector<std::thread> producers;
  for (int p = 0; p < kProducers; ++p) {
    producers.emplace_back([&, p] {
      for (size_t i = static_cast<size_t>(p); i < requests.size();
           i += kProducers) {
        const InferenceResult res =
            server.Submit(CopyRequest(requests[i])).get();
        ASSERT_EQ(res.logits.size(), 1u);
        served[i] = res.logits[0];
        int64_t seen = max_micro_batch.load();
        while (seen < res.micro_batch_size &&
               !max_micro_batch.compare_exchange_weak(seen,
                                                      res.micro_batch_size)) {
        }
      }
    });
  }
  WaitUntil([&] { return server.queue_depth() == kProducers; });
  slow->set_stalled(false);
  EXPECT_EQ(wedged.get().logits, std::vector<float>{reference[0]});
  for (std::thread& t : producers) t.join();

  for (int64_t i = 0; i < kRequests; ++i) {
    EXPECT_EQ(served[static_cast<size_t>(i)],
              reference[static_cast<size_t>(i)])
        << "request " << i;
  }
  // The claim is only interesting if batching actually happened: the batch
  // after the stall takes every request queued behind it.
  EXPECT_GE(max_micro_batch.load(), kProducers);

  const serve::ServeMetricsSnapshot snap = server.SnapshotWithCacheStats();
  EXPECT_EQ(snap.requests_ok, kRequests + 1);
  EXPECT_EQ(snap.requests_failed, 0);
  EXPECT_EQ(snap.samples, kRequests + 1);
  EXPECT_TRUE(snap.has_cache);  // table 2 carries the LFU cache
  server.Shutdown();
}

TEST(InferenceServer, DegradedStateCapsMicroBatches) {
  // While the governor reports degraded or shedding, each micro-batch takes
  // at most max(1, max_batch_size / 4) of the queued requests.
  Rng rng(61);
  SyntheticCriteo data(ServeDataConfig());
  testing::SlowEmbeddingInjector* slow = nullptr;
  std::unique_ptr<DlrmModel> model =
      BuildServeModel(data.config().spec, rng, ServeDlrmConfig(), &slow);
  serve::InferenceServerConfig cfg;
  cfg.max_batch_size = 16;
  cfg.queue_capacity = 64;
  cfg.governor.tick = std::chrono::milliseconds(1);
  serve::InferenceServer server(*model, cfg);

  // 40 queued of 64 is past degrade_at (0.5) and short of shed_at (0.9).
  constexpr int64_t kQueued = 40;
  const std::vector<InferenceRequest> reqs =
      serve::SplitSamples(data.EvalBatch(kQueued + 1));
  slow->set_stalled(true);
  std::vector<std::future<InferenceResult>> futures;
  futures.push_back(server.Submit(CopyRequest(reqs[0])));
  WaitUntil([&] { return slow->lookups() >= 1; });  // consumer wedged
  for (int64_t i = 1; i <= kQueued; ++i) {
    futures.push_back(
        server.Submit(CopyRequest(reqs[static_cast<size_t>(i)])));
  }
  WaitUntil([&] { return server.health() != serve::HealthState::kHealthy; });
  EXPECT_EQ(server.health(), serve::HealthState::kDegraded);
  slow->set_stalled(false);

  std::vector<InferenceResult> results;
  for (auto& f : futures) results.push_back(f.get());
  EXPECT_EQ(results[0].micro_batch_size, 1);
  // The first batch after the stall starts with request 1 and is capped.
  EXPECT_EQ(results[1].micro_batch_size, cfg.max_batch_size / 4);
  server.Shutdown();
}

TEST(InferenceServer, ShutdownFailsProducersBlockedInSubmit) {
  // Producers blocked in Submit on a full kBlock queue are woken by
  // Shutdown's queue close, and each future fails with the typed
  // ServerShutdown — none hang, and requests_failed counts every one.
  Rng rng(67);
  SyntheticCriteo data(ServeDataConfig());
  testing::SlowEmbeddingInjector* slow = nullptr;
  std::unique_ptr<DlrmModel> model =
      BuildServeModel(data.config().spec, rng, ServeDlrmConfig(), &slow);
  serve::InferenceServerConfig cfg;
  cfg.max_batch_size = 1;
  cfg.queue_capacity = 2;
  cfg.admission = serve::AdmissionPolicy::kBlock;
  cfg.governor.enabled = false;  // a full queue must not turn into shedding
  serve::InferenceServer server(*model, cfg);

  constexpr size_t kBlocked = 4;
  const std::vector<InferenceRequest> reqs =
      serve::SplitSamples(data.EvalBatch(3 + kBlocked));
  slow->set_stalled(true);
  std::vector<std::future<InferenceResult>> admitted;
  admitted.push_back(server.Submit(CopyRequest(reqs[0])));
  WaitUntil([&] { return slow->lookups() >= 1; });  // consumer wedged
  admitted.push_back(server.Submit(CopyRequest(reqs[1])));
  admitted.push_back(server.Submit(CopyRequest(reqs[2])));  // queue full

  std::vector<std::future<InferenceResult>> blocked(kBlocked);
  std::atomic<size_t> started{0};
  std::atomic<size_t> returned{0};
  std::vector<std::thread> producers;
  for (size_t p = 0; p < kBlocked; ++p) {
    producers.emplace_back([&, p] {
      started.fetch_add(1);
      blocked[p] = server.Submit(CopyRequest(reqs[3 + p]));
      returned.fetch_add(1);
    });
  }
  WaitUntil([&] { return started.load() == kBlocked; });
  std::this_thread::sleep_for(std::chrono::milliseconds(20));
  EXPECT_EQ(returned.load(), 0u);  // all waiting for queue space

  // Shutdown joins the consumer, which stays wedged until released, so it
  // runs on its own thread; the blocked producers must return before that.
  std::thread closer([&] { server.Shutdown(); });
  for (std::thread& t : producers) t.join();
  for (auto& f : blocked) EXPECT_THROW(f.get(), serve::ServerShutdown);
  slow->set_stalled(false);
  closer.join();

  // Work admitted before the shutdown still completes.
  for (auto& f : admitted) EXPECT_EQ(f.get().logits.size(), 1u);
  const serve::ServeMetricsSnapshot snap = server.metrics().Snapshot();
  EXPECT_EQ(snap.requests_failed, static_cast<int64_t>(kBlocked));
  EXPECT_EQ(snap.requests_ok, 3);
}

TEST(InferenceServer, MalformedRequestFailsOnlyItsOwnFuture) {
  Rng rng(53);
  SyntheticCriteo data(ServeDataConfig());
  std::unique_ptr<DlrmModel> model =
      BuildServeModel(data.config().spec, rng, ServeDlrmConfig());
  serve::InferenceServer server(*model, {});

  std::vector<InferenceRequest> reqs = serve::SplitSamples(data.EvalBatch(3));

  // Out-of-range index under kThrow: rejected at Submit.
  reqs[0].sparse[0].indices[0] = data.config().spec.table_rows[0] + 99;
  auto bad_index = server.Submit(std::move(reqs[0]));
  EXPECT_THROW(bad_index.get(), IndexError);

  // Wrong dense width: rejected at Submit.
  reqs[1].dense = Tensor({1, 2});
  auto bad_shape = server.Submit(std::move(reqs[1]));
  EXPECT_THROW(bad_shape.get(), ShapeError);

  // A well-formed request right after still serves.
  const InferenceResult ok = server.Submit(std::move(reqs[2])).get();
  EXPECT_EQ(ok.logits.size(), 1u);

  const serve::ServeMetricsSnapshot snap = server.metrics().Snapshot();
  EXPECT_EQ(snap.requests_ok, 1);
  EXPECT_EQ(snap.requests_failed, 2);
}

TEST(InferenceServer, SubmitAfterShutdownFailsFast) {
  Rng rng(59);
  SyntheticCriteo data(ServeDataConfig());
  std::unique_ptr<DlrmModel> model =
      BuildServeModel(data.config().spec, rng, ServeDlrmConfig());
  serve::InferenceServer server(*model, {});
  std::vector<InferenceRequest> reqs = serve::SplitSamples(data.EvalBatch(2));
  EXPECT_EQ(server.Submit(std::move(reqs[0])).get().logits.size(), 1u);
  server.Shutdown();
  server.Shutdown();  // idempotent
  auto rejected = server.Submit(std::move(reqs[1]));
  EXPECT_THROW(rejected.get(), std::runtime_error);
}

}  // namespace
}  // namespace ttrec
