// The paced-serving workloads. An open-loop Poisson generator drives an
// InferenceServer from outside with requests from the eval stream, each
// with a 10 ms deadline, and measures every request from its intended send
// time to the moment its future resolves, so a stall also delays the
// requests scheduled behind it.
#include <sys/prctl.h>
#include <sys/resource.h>
#include <unistd.h>

#include <algorithm>
#include <cmath>
#include <condition_variable>
#include <cstring>
#include <deque>
#include <future>
#include <mutex>
#include <thread>

#include "harness.h"
#include "serve/inference_server.h"
#include "serve/inference_session.h"
#include "serve/serve_errors.h"
#include "shard/shard_plan.h"
#include "shard/shard_router.h"
#include "workloads.h"

namespace perfbench {
namespace {

using ttrec::serve::InferenceRequest;
using ttrec::serve::InferenceResult;

constexpr int kSetups = 3;
constexpr int64_t kSloUs = 10000;
constexpr size_t kPoolSize = 4096;
constexpr uint64_t kPoolSeed = 1000;
/// Pool entries whose served logits are checked bitwise.
constexpr size_t kChecked = 512;
constexpr int64_t kWarmBatch = 512;
constexpr int kShards = 2;
constexpr size_t kOverloadQueue = 64;
/// serve_overload's requests each score a candidate set of this many
/// samples, so one generator thread can offer well above what the server
/// can do.
constexpr int64_t kOverloadSamples = 8;
constexpr std::chrono::seconds kSwapEvery{2};
/// Length of the windows behind each end-to-end statistic.
constexpr double kWindowSeconds = 1.0;
/// Lateness p99 above this share of the SLO flags a starved generator.
constexpr double kStarvedShare = 0.2;

struct ServeSpec {
  double rate_qps = 0.0;
  int64_t samples_per_request = 1;
  /// serve_steady: 2-shard row-range server, a hot swap every 2 s.
  /// serve_overload: unsharded, reject-when-full admission, a governor that
  /// ticks every 2 ms, candidate-set requests, no swaps.
  bool steady = false;
};

/// The train_tt architecture with its 7 TT tables cached.
ttrec::bench::SweepModelConfig ServeModelConfig() {
  ttrec::bench::SweepModelConfig cfg;
  cfg.spec = ttrec::KaggleSpec().Scaled(16);
  cfg.num_tt_tables = 7;
  cfg.tt_rank = 32;
  cfg.use_cache = true;
  cfg.cache_capacity = 1024;
  return cfg;
}

/// Everything built before the first request.
struct Fixture {
  std::string checkpoint;
  std::unique_ptr<ttrec::SyntheticCriteo> data;
  /// An uninstrumented copy of the served model: references and replays.
  std::shared_ptr<const ttrec::DlrmModel> plain;
  int64_t samples_per_request = 1;
  std::vector<InferenceRequest> pool;
  /// The label of each pool entry's first sample.
  std::vector<float> labels;
  /// Sequential-session logits of pool[0, kChecked), samples_per_request
  /// per entry.
  std::vector<float> reference;
  bool sharded_matches = true;
  std::unique_ptr<ttrec::serve::InferenceServer> server;
};

std::unique_ptr<Fixture> SetUp(const RunOptions& opt, const ServeSpec& spec,
                               TableProbes* probes) {
  auto fx = std::make_unique<Fixture>();
  const ttrec::bench::SweepModelConfig cfg = ServeModelConfig();
  fx->data = std::make_unique<ttrec::SyntheticCriteo>(
      ttrec::bench::BenchDataConfig(cfg.spec, opt.seed));
  {
    // Warm the LFU caches through the training forward until they freeze.
    ttrec::Rng rng(opt.seed);
    std::unique_ptr<ttrec::DlrmModel> warm =
        ttrec::bench::BuildSweepModel(cfg, rng);
    std::vector<float> logits(static_cast<size_t>(kWarmBatch));
    for (int64_t i = 0; i < cfg.warmup_iterations + 5; ++i) {
      warm->PredictLogits(fx->data->NextBatch(kWarmBatch), logits.data());
    }
    fx->checkpoint = opt.workdir + "/serve_model.ckpt";
    warm->SaveCheckpointToFile(fx->checkpoint);
  }
  // Served generations, the first and every swapped-in one, are empty
  // models of the same architecture that load the checkpoint. Their initial
  // weights are overwritten, so they skip the costly sampled-Gaussian init.
  ttrec::bench::SweepModelConfig empty_cfg = cfg;
  empty_cfg.tt_init = ttrec::TtInit::kUniform;
  const auto empty_model = [empty_cfg, seed = opt.seed] {
    ttrec::Rng rng(seed + 1);
    return ttrec::bench::BuildSweepModel(empty_cfg, rng);
  };
  const auto factory = [empty_model, probes] {
    std::unique_ptr<ttrec::DlrmModel> m = empty_model();
    if (probes != nullptr) probes->Instrument(*m);
    return m;
  };
  const auto load = [&](std::unique_ptr<ttrec::DlrmModel> m) {
    m->LoadCheckpointFromFile(fx->checkpoint);
    return std::shared_ptr<const ttrec::DlrmModel>(std::move(m));
  };
  fx->plain = load(empty_model());
  const std::shared_ptr<const ttrec::DlrmModel> served =
      probes != nullptr ? load(factory()) : fx->plain;

  const int64_t k = spec.samples_per_request;
  fx->samples_per_request = k;
  fx->reference.resize(kChecked * static_cast<size_t>(k));
  ttrec::serve::InferenceSession session(*fx->plain);
  for (size_t j = 0; j < kPoolSize; ++j) {
    const ttrec::MiniBatch b = fx->data->EvalBatch(k, kPoolSeed + j);
    if (j < kChecked) session.Run(b, &fx->reference[j * static_cast<size_t>(k)]);
    InferenceRequest req;
    req.dense = b.dense;
    req.sparse = b.sparse;
    fx->pool.push_back(std::move(req));
    fx->labels.push_back(b.labels[0]);
  }

  ttrec::serve::InferenceServerConfig sc;
  sc.max_batch_size = 32;
  sc.model_factory = factory;
  if (spec.steady) {
    // The router must reproduce the single-process forward bit for bit.
    const ttrec::MiniBatch probe = fx->data->EvalBatch(kChecked, 11);
    std::vector<float> single(kChecked), routed(kChecked);
    ttrec::InferenceScratch scratch;
    fx->plain->PredictLogits(probe, single.data(), scratch);
    auto plan = std::make_shared<const ttrec::shard::ShardPlan>(
        ttrec::shard::MakeShardPlanForModel(
            *fx->plain, ttrec::shard::PartitionStrategy::kRowRange, kShards));
    ttrec::shard::ShardRouter router(
        fx->plain, plan, ttrec::shard::BuildShards(fx->plain, plan));
    router.Run(probe, routed.data());
    fx->sharded_matches = std::memcmp(single.data(), routed.data(),
                                      kChecked * sizeof(float)) == 0;
    sc.num_shards = kShards;
    sc.partition = ttrec::shard::PartitionStrategy::kRowRange;
  } else {
    // A queue short enough to fill before its waits pass the deadline, so
    // overload reaches admission (shedding), not only the deadline drops.
    sc.queue_capacity = kOverloadQueue;
    sc.admission = ttrec::serve::AdmissionPolicy::kRejectWhenFull;
    // At the default 20 ms tick one shedding tick drains the short queue
    // and idles the consumer for the rest of it, so goodput would follow
    // the tick's phase.
    sc.governor.tick = std::chrono::milliseconds(2);
  }
  fx->server = std::make_unique<ttrec::serve::InferenceServer>(served, sc);
  return fx;
}

enum class Outcome : uint8_t { kPending, kOk, kShed, kDeadline, kError };

/// One scheduled request as the client saw it.
struct Sent {
  int64_t intended_ns = 0;  // when the schedule said to send it
  int64_t submit_ns = 0;    // when Submit was called
  int64_t done_ns = 0;      // when its future resolved
  int64_t micro_batch = 0;
  float logit = 0.0f;  // of the request's first sample
  /// A checked pool entry whose logits differ from the reference.
  bool mismatch = false;
  Outcome outcome = Outcome::kPending;
};

/// Poisson arrival offsets in ns over [0, seconds), drawn from `seed` only.
std::vector<int64_t> PoissonSchedule(uint64_t seed, double rate,
                                     double seconds) {
  ttrec::Rng rng(seed ^ 0x5C4ED01Eull);
  std::vector<int64_t> at;
  double t = 0.0;
  for (;;) {
    t += -std::log(1.0 - rng.NextDouble()) / rate;
    if (t >= seconds) break;
    at.push_back(static_cast<int64_t>(t * 1e9));
  }
  return at;
}

/// Sends `schedule` open-loop from this thread; a collector thread waits on
/// the futures in order and a swapper thread (if `swaps`) hot-swaps the
/// checkpoint every kSwapEvery. Returns when every future has resolved.
std::vector<Sent> RunLoad(ttrec::serve::InferenceServer& server,
                          const Fixture& fx,
                          const std::vector<int64_t>& schedule, bool swaps,
                          SwapLog& swap_log) {
  const size_t n = schedule.size();
  std::vector<Sent> sent(n);
  std::mutex mu;
  std::condition_variable cv;
  std::deque<std::future<InferenceResult>> inflight;
  bool generator_done = false;
  bool stop_swaps = false;

  std::thread collector([&] {
    for (size_t i = 0; i < n; ++i) {
      std::future<InferenceResult> f;
      {
        std::unique_lock<std::mutex> lock(mu);
        cv.wait(lock, [&] { return !inflight.empty() || generator_done; });
        if (inflight.empty()) return;
        f = std::move(inflight.front());
        inflight.pop_front();
      }
      Sent& s = sent[i];
      try {
        const InferenceResult r = f.get();
        s.done_ns = NowNs();
        const size_t k = static_cast<size_t>(fx.samples_per_request);
        s.outcome = r.logits.size() == k && r.model_generation >= 1
                        ? Outcome::kOk
                        : Outcome::kError;
        if (s.outcome == Outcome::kOk) {
          s.logit = r.logits[0];
          const size_t j = i % fx.pool.size();
          s.mismatch = j < kChecked &&
                       std::memcmp(r.logits.data(), &fx.reference[j * k],
                                   k * sizeof(float)) != 0;
        }
        s.micro_batch = r.micro_batch_size;
      } catch (const ttrec::serve::ServerOverloaded&) {
        s.done_ns = NowNs();
        s.outcome = Outcome::kShed;
      } catch (const ttrec::serve::DeadlineExceeded&) {
        s.done_ns = NowNs();
        s.outcome = Outcome::kDeadline;
      } catch (const std::exception&) {
        s.done_ns = NowNs();
        s.outcome = Outcome::kError;
      }
    }
  });

  const Clock::time_point start = Clock::now() + std::chrono::milliseconds(20);
  const Clock::time_point end =
      start + std::chrono::nanoseconds(schedule.empty() ? 0 : schedule.back());
  std::condition_variable swap_cv;
  std::thread swapper;
  if (swaps) {
    swapper = std::thread([&] {
      // A background loader: on the one CPU it yields to the generator and
      // the consumer, as it would run beside them on a spare core.
      setpriority(PRIO_PROCESS, static_cast<id_t>(gettid()), 10);
      std::unique_lock<std::mutex> lock(mu);
      for (int k = 1;; ++k) {
        const Clock::time_point at = start + k * kSwapEvery;
        if (at >= end ||
            swap_cv.wait_until(lock, at, [&] { return stop_swaps; })) {
          return;
        }
        lock.unlock();
        TimedSwap(server, fx.checkpoint, swap_log);
        lock.lock();
      }
    });
  }

  std::exception_ptr error;
  try {
    // Tight sleeps: the default 50 us timer slack would read as lateness.
    prctl(PR_SET_TIMERSLACK, 1UL, 0UL, 0UL, 0UL);
    for (size_t i = 0; i < n; ++i) {
      const InferenceRequest& src = fx.pool[i % fx.pool.size()];
      InferenceRequest req;
      req.dense = src.dense;
      req.sparse = src.sparse;
      const Clock::time_point due =
          start + std::chrono::nanoseconds(schedule[i]);
      req.deadline = due + std::chrono::microseconds(kSloUs);
      std::this_thread::sleep_until(due);
      Sent& s = sent[i];
      s.intended_ns = std::chrono::duration_cast<std::chrono::nanoseconds>(
                          due.time_since_epoch())
                          .count();
      s.submit_ns = NowNs();
      std::future<InferenceResult> f = server.Submit(std::move(req));
      {
        std::lock_guard<std::mutex> lock(mu);
        inflight.push_back(std::move(f));
      }
      cv.notify_one();
    }
  } catch (...) {
    error = std::current_exception();
  }
  {
    std::lock_guard<std::mutex> lock(mu);
    generator_done = true;
  }
  cv.notify_one();
  collector.join();
  {
    std::lock_guard<std::mutex> lock(mu);
    stop_swaps = true;
  }
  swap_cv.notify_one();
  if (swapper.joinable()) swapper.join();
  if (error != nullptr) std::rethrow_exception(error);
  return sent;
}

void FillLedger(const Fixture& fx, const TableProbes& probes,
                const ttrec::serve::ServeMetricsSnapshot& snap,
                int64_t queue_high_water, const Samples& queue_wait,
                const Samples& latency_us, const Samples& lateness_us,
                const SwapLog& swaps,
                int64_t sent, int64_t shed, int64_t deadline, double seconds,
                Ledger& ledger) {
  const double batches = static_cast<double>(snap.batches);
  const double mean_batch =
      snap.batches > 0 ? static_cast<double>(snap.samples) / batches : 0.0;
  const double tt_infer_s = probes.Seconds(Family::kTt, Phase::kInfer) +
                            probes.Seconds(Family::kCachedTt, Phase::kInfer);
  ledger.Set("tt.infer_us", batches > 0 ? tt_infer_s * 1e6 / batches : 0.0);
  const int64_t lookups = snap.cache_hits + snap.cache_misses;
  ledger.Set("cache.hit_rate",
             lookups > 0 ? static_cast<double>(snap.cache_hits) / lookups
                         : 0.0);

  // Single layers replayed at the observed mean micro-batch.
  const int64_t b = std::max<int64_t>(1, std::llround(mean_batch));
  std::vector<ttrec::MiniBatch> replay;
  for (uint64_t k = 0; k < 8; ++k) {
    replay.push_back(fx.data->EvalBatch(b, 100 + k));
  }
  const InferStageTimes stages = ReplayInferStages(*fx.plain, replay);
  ledger.Set("dlrm.infer_dense_us", stages.dense_us);
  ledger.Set("dlrm.infer_emb_us", stages.emb_us);
  ledger.Set("dlrm.infer_tail_us", stages.tail_us);
  const RouterTimes router = ReplayRouter(fx.plain, replay, kShards);
  ledger.Set("shard.router_us", router.run_us);
  ledger.Set("shard.router_overhead",
             stages.full_us > 0.0 ? router.run_us / stages.full_us - 1.0
                                  : 0.0);
  ledger.Set("shard.lookup_imbalance", router.lookup_imbalance);

  const double n = static_cast<double>(sent);
  ledger.Set("serve.latency_p99_us", latency_us.Percentile(99.0));
  ledger.Set("serve.queue_wait_p50_us", queue_wait.Percentile(50.0));
  ledger.Set("serve.queue_wait_p99_us", queue_wait.Percentile(99.0));
  ledger.Set("serve.mean_batch", mean_batch);
  ledger.Set("serve.shed_ratio", static_cast<double>(shed) / n);
  ledger.Set("serve.deadline_miss_ratio", static_cast<double>(deadline) / n);
  ledger.Set("serve.to_degraded",
             static_cast<double>(snap.health_transitions[static_cast<size_t>(
                 ttrec::serve::HealthState::kDegraded)]));
  ledger.Set("serve.to_shedding",
             static_cast<double>(snap.health_transitions[static_cast<size_t>(
                 ttrec::serve::HealthState::kShedding)]));
  ledger.Set("serve.queue_high_water", static_cast<double>(queue_high_water));
  ledger.Set("serve.swap_ms", swaps.ms.Percentile(50.0));
  ledger.Set("serve.swaps_ok", static_cast<double>(swaps.ok));

  const double lateness_p99 = lateness_us.Percentile(99.0);
  ledger.Set("loadgen.lateness_p50_us", lateness_us.Percentile(50.0));
  ledger.Set("loadgen.lateness_p99_us", lateness_p99);
  ledger.Set("loadgen.offered_qps", n / seconds);
  ledger.Set("loadgen.starved",
             lateness_p99 > kStarvedShare * kSloUs ? 1.0 : 0.0);
}

}  // namespace

bool IsServingWorkload(const std::string& name) {
  return name == "serve_steady" || name == "serve_overload";
}

Result RunServing(const RunOptions& opt, Ledger* ledger) {
  ServeSpec spec;
  spec.steady = opt.workload == "serve_steady";
  spec.rate_qps = spec.steady ? 5000.0 : 20000.0;
  if (!spec.steady) spec.samples_per_request = kOverloadSamples;

  TableProbes probes;
  Samples setup_s;
  std::unique_ptr<Fixture> fx;
  for (int i = 0; i < kSetups; ++i) {
    fx.reset();
    const auto t0 = Clock::now();
    fx = SetUp(opt, spec, ledger != nullptr ? &probes : nullptr);
    setup_s.Add(SecondsBetween(t0, Clock::now()));
  }

  const std::vector<int64_t> schedule =
      PoissonSchedule(opt.seed, spec.rate_qps, opt.seconds);
  SwapLog swaps;
  probes.LogInferenceCalls(ledger != nullptr);
  const std::vector<Sent> sent =
      RunLoad(*fx->server, *fx, schedule, spec.steady, swaps);
  probes.LogInferenceCalls(false);
  const ttrec::serve::ServeMetricsSnapshot snap =
      fx->server->SnapshotWithCacheStats();
  const int64_t queue_high_water =
      static_cast<int64_t>(fx->server->queue_high_water());
  fx->server->Shutdown();

  Result result;
  result.attempted = static_cast<int64_t>(sent.size());
  int64_t ok = 0, shed = 0, deadline = 0, errors = 0, mismatches = 0;
  int64_t within_slo = 0;
  Samples latency_us, lateness_us;
  std::vector<float> served, labels;
  std::vector<Completed> completed;
  // Windows of the schedule, by intended send time.
  const int num_windows =
      std::max(1, static_cast<int>(opt.seconds / kWindowSeconds));
  const double window_s = opt.seconds / num_windows;
  std::vector<Samples> window_latency_us(static_cast<size_t>(num_windows));
  std::vector<int64_t> window_sent(static_cast<size_t>(num_windows), 0);
  std::vector<int64_t> window_ok(window_sent), window_good(window_sent);
  for (size_t i = 0; i < sent.size(); ++i) {
    const Sent& s = sent[i];
    const size_t w = std::min(
        static_cast<size_t>(num_windows - 1),
        static_cast<size_t>(static_cast<double>(schedule[i]) / 1e9 / window_s));
    ++window_sent[w];
    lateness_us.Add(static_cast<double>(s.submit_ns - s.intended_ns) / 1e3);
    switch (s.outcome) {
      case Outcome::kOk: {
        ++ok;
        ++window_ok[w];
        const double us = static_cast<double>(s.done_ns - s.intended_ns) / 1e3;
        latency_us.Add(us);
        window_latency_us[w].Add(us);
        if (us <= kSloUs) {
          ++within_slo;
          ++window_good[w];
        }
        served.push_back(s.logit);
        labels.push_back(fx->labels[i % fx->pool.size()]);
        if (s.mismatch) ++mismatches;
        completed.push_back(Completed{s.submit_ns, s.done_ns, s.micro_batch});
        break;
      }
      case Outcome::kShed:
        ++shed;
        break;
      case Outcome::kDeadline:
        ++deadline;
        break;
      case Outcome::kError:
      case Outcome::kPending:
        ++errors;
        break;
    }
  }

  // Output checks. Typed sheds and deadline misses are the server doing its
  // job under load; untyped errors and wrong logits are failures.
  result.failed = errors + mismatches;
  const double logloss = MeanLogloss(served, labels);
  if (!fx->sharded_matches) {
    result.Fail("sharded router logits differ from the single-process "
                "forward");
  }
  if (mismatches > 0) {
    result.Fail(std::to_string(mismatches) +
                " served logits differ from the sequential session");
  }
  if (errors > 0) {
    result.Fail(std::to_string(errors) + " requests failed untyped");
  }
  if (ok == 0) result.Fail("no request completed");
  if (!std::isfinite(logloss)) result.Fail("served logits are not finite");
  if (swaps.rejected > 0) {
    result.Fail("a hot swap was rejected: " + swaps.last_error);
  }
  if (spec.steady && opt.seconds > 2.5 && swaps.ok == 0) {
    result.Fail("no hot swap ran during the window");
  }

  const double n = static_cast<double>(sent.size());
  std::vector<double> goodputs, p50s, tails, ok_ratios;
  for (size_t w = 0; w < window_sent.size(); ++w) {
    goodputs.push_back(static_cast<double>(window_good[w]) / window_s);
    p50s.push_back(window_latency_us[w].Percentile(50.0));
    tails.push_back(window_latency_us[w].Percentile(kTailPercentile));
    ok_ratios.push_back(window_sent[w] > 0
                            ? static_cast<double>(window_ok[w]) /
                                  static_cast<double>(window_sent[w])
                            : 0.0);
  }
  char line[320];
  std::snprintf(line, sizeof(line),
                "setup: %d repetitions, median %.3f s; offered %.0f req/s "
                "for %.1f s: %lld sent, %lld ok, %lld shed, %lld deadline "
                "misses, %lld within %lld us; %lld swaps; served logloss "
                "%.5f",
                kSetups, setup_s.Percentile(50.0), n / opt.seconds,
                opt.seconds, static_cast<long long>(sent.size()),
                static_cast<long long>(ok), static_cast<long long>(shed),
                static_cast<long long>(deadline),
                static_cast<long long>(within_slo),
                static_cast<long long>(kSloUs),
                static_cast<long long>(swaps.ok), logloss);
  result.Note(line);
  result.Note(latency_us.Summary("request_latency", "us", kTailPercentile));
  result.Note(latency_us.Summary("request_latency", "us", 99.0));
  result.Note(lateness_us.Summary("loadgen_lateness", "us", 99.0));
  if (lateness_us.Percentile(99.0) > kStarvedShare * kSloUs) {
    result.Note("loadgen: lateness p99 exceeds 20% of the 10 ms SLO; the "
                "generator, not the server, may limit these numbers");
  }
  if (swaps.ms.size() > 0) result.Note(swaps.ms.Summary("swap", "ms", 90.0));
  result.Note(WindowSummary("throughput_per_s", goodputs));
  result.Note(WindowSummary("latency_p50_us", p50s));
  result.Note(WindowSummary("latency_p90_us", tails));
  result.Note(WindowSummary("ok_ratio", ok_ratios));

  if (ledger == nullptr) {
    result.Metric("setup_s", setup_s.Percentile(50.0), "s");
    result.Metric("peak_rss_mb", PeakRssMiB(), "MiB");
    result.Metric("model_bytes",
                  static_cast<double>(fx->plain->EmbeddingMemoryBytes() +
                                      fx->plain->MlpMemoryBytes()),
                  "B");
    result.Metric("throughput_per_s", MedianOfWindows(goodputs), "1/s");
    result.Metric("latency_p50_us", MedianOfWindows(p50s), "us");
    result.Metric("ok_ratio", MedianOfWindows(ok_ratios), "fraction");
    return result;
  }

  int64_t matched = 0;
  const Samples queue_wait = ReconstructQueueWaits(
      probes.TakeCallLog(), fx->plain->num_tables(), spec.steady ? kShards : 1,
      spec.samples_per_request, completed, &matched);
  result.Note(queue_wait.Summary("queue_wait", "us", 99.0) + " (" +
              std::to_string(matched) + " micro-batches matched)");
  FillLedger(*fx, probes, snap, queue_high_water, queue_wait, latency_us,
             lateness_us, swaps, static_cast<int64_t>(sent.size()), shed,
             deadline, opt.seconds, *ledger);
  ledger->Set("obs.latency_p50_us", MedianOfWindows(p50s));
  ledger->Set("obs.latency_tail_us", MedianOfWindows(tails));
  return result;
}

}  // namespace perfbench
