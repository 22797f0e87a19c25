// Overload-safety and model-lifecycle tests for src/serve/: deadlines
// enforced at admission and before the forward pass, bounded-wait and
// reject-when-full admission, the load governor's hysteresis state walk,
// zero-downtime hot-swap (including a hammer that swaps every few ms under
// concurrent load), and corrupt-checkpoint swap rejection. The acceptance
// bar throughout: under overload every future resolves with a typed
// outcome — no hangs, no torn results, no silent drops. Runs clean under
// TSan (-DTTREC_SANITIZE=thread).
#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <fstream>
#include <future>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "data/criteo_synth.h"
#include "dlrm/checkpoint.h"
#include "dlrm/embedding_adapters.h"
#include "dlrm/embedding_bag.h"
#include "dlrm/model.h"
#include "fault_injector.h"
#include "serve/inference_server.h"
#include "serve/inference_session.h"
#include "serve/load_governor.h"
#include "serve/micro_batcher.h"
#include "serve/serve_errors.h"
#include "tensor/check.h"
#include "tt/tt_shapes.h"

namespace ttrec {
namespace {

using serve::DeadlineExceeded;
using serve::HealthState;
using serve::InferenceRequest;
using serve::InferenceResult;
using serve::LoadGovernor;
using serve::LoadGovernorConfig;
using serve::ServerOverloaded;
using serve::ServerShutdown;

SyntheticCriteoConfig RobustDataConfig(int num_tables = 2,
                                       int64_t rows = 200) {
  SyntheticCriteoConfig cfg;
  cfg.spec.name = "serve_robust";
  cfg.spec.num_dense = 13;
  cfg.spec.table_rows.assign(static_cast<size_t>(num_tables), rows);
  cfg.zipf_exponent = 1.1;
  cfg.seed = 37;
  return cfg;
}

DlrmConfig RobustDlrmConfig() {
  DlrmConfig cfg;
  cfg.emb_dim = 8;
  cfg.bottom_hidden = {16};
  cfg.top_hidden = {16};
  cfg.index_policy = IndexPolicy::kThrow;
  return cfg;
}

/// Dense bag + TT adapter, optionally with the dense bag wrapped in a
/// SlowEmbeddingInjector whose handle is returned through `slow`.
std::unique_ptr<DlrmModel> BuildModel(
    const DatasetSpec& spec, Rng& rng, const DlrmConfig& cfg,
    testing::SlowEmbeddingInjector** slow = nullptr) {
  std::vector<std::unique_ptr<EmbeddingOp>> tables;
  auto dense = std::make_unique<DenseEmbeddingBag>(
      spec.table_rows[0], cfg.emb_dim, PoolingMode::kSum,
      DenseEmbeddingInit::UniformScaled(), rng);
  if (slow != nullptr) {
    auto injector = std::make_unique<testing::SlowEmbeddingInjector>(
        std::move(dense), std::chrono::microseconds(0));
    *slow = injector.get();
    tables.push_back(std::move(injector));
  } else {
    tables.push_back(std::move(dense));
  }
  TtEmbeddingConfig tt;
  tt.shape = MakeTtShape(spec.table_rows[1], cfg.emb_dim, 3, 4);
  tables.push_back(
      std::make_unique<TtEmbeddingAdapter>(tt, TtInit::kSampledGaussian, rng));
  return std::make_unique<DlrmModel>(cfg, std::move(tables), rng);
}

InferenceRequest CopyRequest(const InferenceRequest& r) {
  InferenceRequest copy;
  copy.dense = r.dense;
  copy.sparse = r.sparse;
  copy.deadline = r.deadline;
  return copy;
}

/// Per-request single-session reference logits for `requests` on `model`.
std::vector<float> Reference(const DlrmModel& model,
                             const std::vector<InferenceRequest>& requests) {
  std::vector<float> ref(requests.size());
  serve::InferenceSession session(model);
  for (size_t i = 0; i < requests.size(); ++i) {
    MiniBatch one;
    one.dense = requests[i].dense;
    one.sparse = requests[i].sparse;
    one.labels.assign(1, 0.0f);
    session.Run(one, &ref[i]);
  }
  return ref;
}

void WaitForLookups(const testing::SlowEmbeddingInjector& inj,
                    int64_t at_least) {
  while (inj.lookups() < at_least) {
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
}

// ---------------------------------------------------------------------------
// LoadGovernor state machine (unit, no server)
// ---------------------------------------------------------------------------

TEST(LoadGovernor, WalksStatesWithHysteresis) {
  LoadGovernorConfig cfg;
  cfg.enabled = false;  // drive Evaluate() by hand, no tick thread
  cfg.degrade_at = 0.5;
  cfg.shed_at = 0.9;
  cfg.recover_at = 0.25;
  LoadGovernor::Signals sig{0, 100};
  std::vector<HealthState> entered;
  LoadGovernor g(
      cfg, [&] { return sig; },
      [&](HealthState, HealthState to) { entered.push_back(to); });

  EXPECT_EQ(g.state(), HealthState::kHealthy);
  sig.queue_depth = 49;
  EXPECT_EQ(g.Evaluate(), HealthState::kHealthy);  // below degrade_at
  sig.queue_depth = 50;
  EXPECT_EQ(g.Evaluate(), HealthState::kDegraded);
  sig.queue_depth = 40;  // hysteresis: above recover_at, stays degraded
  EXPECT_EQ(g.Evaluate(), HealthState::kDegraded);
  sig.queue_depth = 95;
  EXPECT_EQ(g.Evaluate(), HealthState::kShedding);
  sig.queue_depth = 60;  // must drain to degrade_at before leaving shedding
  EXPECT_EQ(g.Evaluate(), HealthState::kShedding);
  sig.queue_depth = 50;
  EXPECT_EQ(g.Evaluate(), HealthState::kDegraded);
  sig.queue_depth = 25;
  EXPECT_EQ(g.Evaluate(), HealthState::kHealthy);

  const std::vector<HealthState> expected = {
      HealthState::kDegraded, HealthState::kShedding, HealthState::kDegraded,
      HealthState::kHealthy};
  EXPECT_EQ(entered, expected);

  g.ForceDrain();
  EXPECT_EQ(g.state(), HealthState::kDraining);
  sig.queue_depth = 0;  // terminal: an empty queue never resurrects it
  EXPECT_EQ(g.Evaluate(), HealthState::kDraining);
  EXPECT_EQ(entered.back(), HealthState::kDraining);
}

TEST(LoadGovernor, RejectsUnorderedThresholds) {
  LoadGovernorConfig cfg;
  cfg.recover_at = 0.8;  // > degrade_at
  cfg.degrade_at = 0.5;
  EXPECT_THROW(
      (LoadGovernor(cfg, [] { return LoadGovernor::Signals{}; }, nullptr)),
      ConfigError);
}

// ---------------------------------------------------------------------------
// Deadlines
// ---------------------------------------------------------------------------

TEST(ServeRobustness, ExpiredDeadlineRejectedAtAdmission) {
  Rng rng(61);
  SyntheticCriteo data(RobustDataConfig());
  auto model = BuildModel(data.config().spec, rng, RobustDlrmConfig());
  serve::InferenceServerConfig cfg;
  cfg.governor.enabled = false;
  serve::InferenceServer server(*model, cfg);

  std::vector<InferenceRequest> reqs = serve::SplitSamples(data.EvalBatch(1));
  reqs[0].deadline =
      std::chrono::steady_clock::now() - std::chrono::milliseconds(1);
  auto f = server.Submit(std::move(reqs[0]));
  EXPECT_THROW(f.get(), DeadlineExceeded);
  EXPECT_EQ(server.metrics().Snapshot().requests_deadline_missed, 1);
}

TEST(ServeRobustness, QueuedRequestExpiringIsDroppedBeforeForward) {
  Rng rng(67);
  SyntheticCriteo data(RobustDataConfig());
  testing::SlowEmbeddingInjector* slow = nullptr;
  auto model =
      BuildModel(data.config().spec, rng, RobustDlrmConfig(), &slow);
  serve::InferenceServerConfig cfg;
  cfg.max_batch_size = 1;  // keep the stalled request's batch to itself
  cfg.governor.enabled = false;
  serve::InferenceServer server(*model, cfg);

  std::vector<InferenceRequest> reqs = serve::SplitSamples(data.EvalBatch(2));
  slow->set_stalled(true);
  auto stalled = server.Submit(CopyRequest(reqs[0]));
  WaitForLookups(*slow, 1);  // the consumer is now wedged inside Forward

  reqs[1].deadline =
      std::chrono::steady_clock::now() + std::chrono::milliseconds(10);
  auto doomed = server.Submit(std::move(reqs[1]));
  std::this_thread::sleep_for(std::chrono::milliseconds(30));
  slow->set_stalled(false);

  EXPECT_EQ(stalled.get().logits.size(), 1u);  // the wedged one completes
  EXPECT_THROW(doomed.get(), DeadlineExceeded);

  const int64_t lookups_after = slow->lookups();
  const serve::ServeMetricsSnapshot snap = server.metrics().Snapshot();
  EXPECT_EQ(snap.requests_deadline_missed, 1);
  EXPECT_EQ(snap.requests_ok, 1);
  // The expired request never reached the forward pass: exactly one
  // lookup per table... and the slow table saw only the stalled request.
  EXPECT_EQ(lookups_after, 1);
}

// ---------------------------------------------------------------------------
// Admission policies and shedding
// ---------------------------------------------------------------------------

TEST(ServeRobustness, RejectWhenFullFailsFastWithTypedError) {
  Rng rng(71);
  SyntheticCriteo data(RobustDataConfig());
  testing::SlowEmbeddingInjector* slow = nullptr;
  auto model =
      BuildModel(data.config().spec, rng, RobustDlrmConfig(), &slow);
  serve::InferenceServerConfig cfg;
  cfg.max_batch_size = 1;
  cfg.queue_capacity = 1;
  cfg.admission = serve::AdmissionPolicy::kRejectWhenFull;
  cfg.governor.enabled = false;
  serve::InferenceServer server(*model, cfg);

  std::vector<InferenceRequest> reqs = serve::SplitSamples(data.EvalBatch(3));
  slow->set_stalled(true);
  auto in_flight = server.Submit(CopyRequest(reqs[0]));
  WaitForLookups(*slow, 1);
  auto queued = server.Submit(CopyRequest(reqs[1]));  // fills the queue
  auto rejected = server.Submit(CopyRequest(reqs[2]));
  // The rejection is immediate — no release of the stall needed.
  EXPECT_THROW(rejected.get(), ServerOverloaded);
  try {
    server.Submit(CopyRequest(reqs[2])).get();
    FAIL() << "expected ServerOverloaded";
  } catch (const ServerOverloaded& e) {
    EXPECT_EQ(e.retry_after(), cfg.governor.retry_after);
  }

  slow->set_stalled(false);
  EXPECT_EQ(in_flight.get().logits.size(), 1u);
  EXPECT_EQ(queued.get().logits.size(), 1u);
  EXPECT_EQ(server.metrics().Snapshot().requests_shed, 2);
}

TEST(ServeRobustness, OverloadShedsWithTypedErrorsAndNoHangs) {
  Rng rng(73);
  SyntheticCriteo data(RobustDataConfig());
  testing::SlowEmbeddingInjector* slow = nullptr;
  auto model =
      BuildModel(data.config().spec, rng, RobustDlrmConfig(), &slow);
  slow->set_delay(std::chrono::milliseconds(5));  // drain << offered load

  serve::InferenceServerConfig cfg;
  cfg.max_batch_size = 4;
  cfg.queue_capacity = 8;
  cfg.admission = serve::AdmissionPolicy::kRejectWhenFull;
  cfg.governor.tick = std::chrono::milliseconds(1);
  cfg.governor.degrade_at = 0.25;
  cfg.governor.shed_at = 0.5;
  cfg.governor.recover_at = 0.125;
  serve::InferenceServer server(*model, cfg);

  const std::vector<InferenceRequest> trace =
      serve::SplitSamples(data.EvalBatch(8));
  std::atomic<size_t> next{0};
  testing::OverloadGenerator gen(server, [&] {
    return CopyRequest(trace[next.fetch_add(1) % trace.size()]);
  });
  // >2x capacity by construction: 200 open-loop submits against an
  // 8-deep queue draining one 4-request batch per ~5ms.
  const testing::OverloadOutcome out = gen.Run(/*num_threads=*/4,
                                               /*requests_per_thread=*/50);
  // Let the governor observe the still-deep queue, then drain.
  std::this_thread::sleep_for(std::chrono::milliseconds(10));
  slow->set_delay(std::chrono::microseconds(0));

  EXPECT_EQ(out.submitted, 200);
  EXPECT_EQ(out.resolved(), out.submitted);  // every future resolved: no hangs
  EXPECT_EQ(out.other, 0);                   // only typed outcomes
  EXPECT_GT(out.shed, 0);
  EXPECT_GT(out.ok, 0);

  const serve::ServeMetricsSnapshot snap = server.SnapshotWithCacheStats();
  EXPECT_EQ(snap.requests_shed, out.shed);
  EXPECT_GT(snap.queue_depth_high_water, 0);
  // The queue sat full for many ticks; the governor must have left healthy.
  EXPECT_GT(snap.health_transitions[static_cast<size_t>(
                HealthState::kDegraded)] +
                snap.health_transitions[static_cast<size_t>(
                    HealthState::kShedding)],
            0);
  const std::string json = server.MetricsJson();
  EXPECT_NE(json.find("\"health\""), std::string::npos) << json;
  EXPECT_NE(json.find("\"queue_depth_high_water\""), std::string::npos)
      << json;
  EXPECT_NE(json.find("\"requests_shed\""), std::string::npos) << json;
  server.Shutdown();
}

TEST(ServeRobustness, DrainStopsAdmissionButFinishesQueuedWork) {
  Rng rng(79);
  SyntheticCriteo data(RobustDataConfig());
  testing::SlowEmbeddingInjector* slow = nullptr;
  auto model =
      BuildModel(data.config().spec, rng, RobustDlrmConfig(), &slow);
  serve::InferenceServerConfig cfg;
  cfg.max_batch_size = 1;
  cfg.governor.enabled = false;  // ForceDrain works regardless
  serve::InferenceServer server(*model, cfg);

  std::vector<InferenceRequest> reqs = serve::SplitSamples(data.EvalBatch(3));
  slow->set_stalled(true);
  auto in_flight = server.Submit(CopyRequest(reqs[0]));
  WaitForLookups(*slow, 1);
  auto queued = server.Submit(CopyRequest(reqs[1]));

  server.BeginDrain();
  EXPECT_EQ(server.health(), HealthState::kDraining);
  auto late = server.Submit(CopyRequest(reqs[2]));
  EXPECT_THROW(late.get(), ServerShutdown);

  slow->set_stalled(false);
  // Draining is graceful: both admitted requests still complete.
  EXPECT_EQ(in_flight.get().logits.size(), 1u);
  EXPECT_EQ(queued.get().logits.size(), 1u);
  EXPECT_EQ(server.metrics().Snapshot().health_transitions[static_cast<size_t>(
                HealthState::kDraining)],
            1);
  server.Shutdown();
}

// ---------------------------------------------------------------------------
// Hot-swap
// ---------------------------------------------------------------------------

TEST(HotSwap, PublishesNewGenerationUnderLiveTraffic) {
  Rng rng_a(83), rng_b(89);
  SyntheticCriteo data(RobustDataConfig());
  std::shared_ptr<const DlrmModel> a =
      BuildModel(data.config().spec, rng_a, RobustDlrmConfig());
  std::shared_ptr<const DlrmModel> b =
      BuildModel(data.config().spec, rng_b, RobustDlrmConfig());

  const std::vector<InferenceRequest> reqs =
      serve::SplitSamples(data.EvalBatch(4));
  const std::vector<float> ref_a = Reference(*a, reqs);
  const std::vector<float> ref_b = Reference(*b, reqs);
  ASSERT_NE(ref_a, ref_b);  // different weights, distinguishable logits

  serve::InferenceServerConfig cfg;
  cfg.governor.enabled = false;
  serve::InferenceServer server(a, cfg);
  EXPECT_EQ(server.generation(), 1u);

  InferenceResult r = server.Submit(CopyRequest(reqs[0])).get();
  EXPECT_EQ(r.model_generation, 1u);
  EXPECT_EQ(r.logits[0], ref_a[0]);

  EXPECT_EQ(server.SwapModel(b), 2u);
  EXPECT_EQ(server.generation(), 2u);
  r = server.Submit(CopyRequest(reqs[1])).get();
  EXPECT_EQ(r.model_generation, 2u);
  EXPECT_EQ(r.logits[0], ref_b[1]);

  const serve::ServeMetricsSnapshot snap = server.SnapshotWithCacheStats();
  EXPECT_EQ(snap.model_generation, 2u);
  EXPECT_EQ(snap.swaps_ok, 1);
  ASSERT_EQ(snap.generations.size(), 2u);
  EXPECT_EQ(snap.generations[0].generation, 1u);
  EXPECT_EQ(snap.generations[0].requests_ok, 1);
  EXPECT_EQ(snap.generations[1].generation, 2u);
  EXPECT_EQ(snap.generations[1].requests_ok, 1);
  const std::string json = server.MetricsJson();
  EXPECT_NE(json.find("\"generations\""), std::string::npos) << json;
  EXPECT_NE(json.find("\"generation\":2"), std::string::npos) << json;
  server.Shutdown();
}

TEST(HotSwap, IncompatibleModelRejectedIncumbentKeepsServing) {
  Rng rng_a(97), rng_c(101);
  SyntheticCriteo data(RobustDataConfig());
  std::shared_ptr<const DlrmModel> a =
      BuildModel(data.config().spec, rng_a, RobustDlrmConfig());
  // Same table count, different row counts: indices validated against the
  // incumbent could be out of range on this one — must be rejected.
  SyntheticCriteoConfig other = RobustDataConfig(2, /*rows=*/64);
  std::shared_ptr<const DlrmModel> c =
      BuildModel(other.spec, rng_c, RobustDlrmConfig());

  serve::InferenceServerConfig cfg;
  cfg.governor.enabled = false;
  serve::InferenceServer server(a, cfg);
  EXPECT_THROW(server.SwapModel(c), ConfigError);
  EXPECT_THROW(server.SwapModel(std::shared_ptr<const DlrmModel>()),
               ConfigError);
  EXPECT_EQ(server.generation(), 1u);
  EXPECT_EQ(server.metrics().Snapshot().swaps_rejected, 2);

  std::vector<InferenceRequest> reqs = serve::SplitSamples(data.EvalBatch(1));
  EXPECT_EQ(server.Submit(std::move(reqs[0])).get().model_generation, 1u);
  server.Shutdown();
}

TEST(HotSwap, CorruptCheckpointSwapRejectedOldGenerationServes) {
  Rng rng_a(103), rng_b(107);
  SyntheticCriteo data(RobustDataConfig());
  const DatasetSpec spec = data.config().spec;
  std::shared_ptr<const DlrmModel> a =
      BuildModel(spec, rng_a, RobustDlrmConfig());
  std::unique_ptr<DlrmModel> b = BuildModel(spec, rng_b, RobustDlrmConfig());

  const std::vector<InferenceRequest> reqs =
      serve::SplitSamples(data.EvalBatch(2));
  const std::vector<float> ref_b = Reference(*b, reqs);

  const std::string dir = ::testing::TempDir();
  const std::string good = dir + "swap_good.dlrm";
  const std::string flipped = dir + "swap_flipped.dlrm";
  const std::string truncated = dir + "swap_truncated.dlrm";
  b->SaveCheckpointToFile(good);
  const auto copy_to = [&](const std::string& dst) {
    std::ifstream is(good, std::ios::binary);
    std::ofstream os(dst, std::ios::binary | std::ios::trunc);
    os << is.rdbuf();
  };
  copy_to(flipped);
  testing::FlipByte(flipped, testing::FileSize(flipped) / 2);
  copy_to(truncated);
  testing::TruncateFileAt(truncated, testing::FileSize(good) - 5);

  serve::InferenceServerConfig cfg;
  cfg.governor.enabled = false;
  cfg.model_factory = [spec, dlrm = RobustDlrmConfig()] {
    Rng standby_rng(1);  // weights are overwritten by the checkpoint load
    return BuildModel(spec, standby_rng, dlrm);
  };
  serve::InferenceServer server(a, cfg);

  EXPECT_THROW(server.SwapModel(flipped), ConfigError);
  EXPECT_THROW(server.SwapModel(truncated), ConfigError);
  EXPECT_THROW(server.SwapModel(dir + "swap_missing.dlrm"), ConfigError);
  EXPECT_EQ(server.generation(), 1u);  // incumbent untouched throughout
  EXPECT_EQ(server.Submit(CopyRequest(reqs[0])).get().model_generation, 1u);

  EXPECT_EQ(server.SwapModel(good), 2u);
  const InferenceResult r = server.Submit(CopyRequest(reqs[1])).get();
  EXPECT_EQ(r.model_generation, 2u);
  EXPECT_EQ(r.logits[0], ref_b[1]);  // bitwise the saved model's logits

  const serve::ServeMetricsSnapshot snap = server.metrics().Snapshot();
  EXPECT_EQ(snap.swaps_rejected, 3);
  EXPECT_EQ(snap.swaps_ok, 1);
  server.Shutdown();
}

TEST(HotSwap, HammerSwapsUnderLoadNeverTearResults) {
  Rng rng_a(109), rng_b(113);
  SyntheticCriteo data(RobustDataConfig());
  std::shared_ptr<const DlrmModel> a =
      BuildModel(data.config().spec, rng_a, RobustDlrmConfig());
  std::shared_ptr<const DlrmModel> b =
      BuildModel(data.config().spec, rng_b, RobustDlrmConfig());

  const std::vector<InferenceRequest> reqs =
      serve::SplitSamples(data.EvalBatch(8));
  const std::vector<float> ref_a = Reference(*a, reqs);
  const std::vector<float> ref_b = Reference(*b, reqs);

  serve::InferenceServerConfig cfg;
  cfg.max_batch_size = 8;
  cfg.governor.enabled = false;
  serve::InferenceServer server(a, cfg);

  std::atomic<bool> stop{false};
  std::thread swapper([&] {
    int i = 0;
    while (!stop.load()) {
      server.SwapModel(++i % 2 == 0 ? a : b);
      std::this_thread::sleep_for(std::chrono::milliseconds(10));
    }
  });

  constexpr int kProducers = 4;
  constexpr int kPerProducer = 50;
  std::atomic<int64_t> torn{0};
  std::vector<std::thread> producers;
  for (int p = 0; p < kProducers; ++p) {
    producers.emplace_back([&, p] {
      for (int i = 0; i < kPerProducer; ++i) {
        const size_t idx =
            static_cast<size_t>(p * kPerProducer + i) % reqs.size();
        const InferenceResult res =
            server.Submit(CopyRequest(reqs[idx])).get();
        ASSERT_EQ(res.logits.size(), 1u);
        // Every result is bitwise one model or the other — a torn result
        // (mixed generations inside one forward) matches neither.
        if (res.logits[0] != ref_a[idx] && res.logits[0] != ref_b[idx]) {
          torn.fetch_add(1);
        }
        ASSERT_GE(res.model_generation, 1u);
        std::this_thread::sleep_for(std::chrono::milliseconds(1));
      }
    });
  }
  for (std::thread& t : producers) t.join();
  stop.store(true);
  swapper.join();

  EXPECT_EQ(torn.load(), 0);
  const serve::ServeMetricsSnapshot snap = server.SnapshotWithCacheStats();
  EXPECT_EQ(snap.requests_ok, int64_t{kProducers} * kPerProducer);
  EXPECT_EQ(snap.requests_failed, 0);
  EXPECT_GT(snap.swaps_ok, 2);  // the hammer actually hammered
  // Per-generation counters partition the total exactly.
  int64_t by_generation = 0;
  for (const auto& g : snap.generations) by_generation += g.requests_ok;
  EXPECT_EQ(by_generation, snap.requests_ok);
  server.Shutdown();
}

// ---------------------------------------------------------------------------
// Model-checkpoint structural verification (the swap gate)
// ---------------------------------------------------------------------------

TEST(ModelCheckpointVerify, AcceptsGoodRejectsCorrupt) {
  Rng rng(127);
  SyntheticCriteo data(RobustDataConfig());
  std::unique_ptr<DlrmModel> model =
      BuildModel(data.config().spec, rng, RobustDlrmConfig());
  const std::string dir = ::testing::TempDir();
  const std::string path = dir + "verify_model.dlrm";
  model->SaveCheckpointToFile(path);

  CheckpointFileStatus v = VerifyModelCheckpointFile(path);
  EXPECT_TRUE(v.ok) << v.error;
  EXPECT_EQ(v.version, 1u);

  EXPECT_FALSE(VerifyModelCheckpointFile(dir + "no_such_file.dlrm").ok);

  testing::FlipByte(path, testing::FileSize(path) / 3);
  v = VerifyModelCheckpointFile(path);
  EXPECT_FALSE(v.ok);
  EXPECT_NE(v.error.find("checksum"), std::string::npos) << v.error;

  model->SaveCheckpointToFile(path);
  testing::TruncateFileAt(path, 10);
  EXPECT_FALSE(VerifyModelCheckpointFile(path).ok);

  testing::TruncateFileAt(path, 3);  // shorter than the header
  v = VerifyModelCheckpointFile(path);
  EXPECT_FALSE(v.ok);
  EXPECT_NE(v.error.find("truncated"), std::string::npos) << v.error;

  model->SaveCheckpointToFile(path);
  testing::FlipByte(path, 0);  // break the magic
  v = VerifyModelCheckpointFile(path);
  EXPECT_FALSE(v.ok);
  EXPECT_NE(v.error.find("magic"), std::string::npos) << v.error;
}

}  // namespace
}  // namespace ttrec
