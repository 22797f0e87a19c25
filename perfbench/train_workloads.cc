// The closed-loop training workloads. TrainDlrm runs a fixed number of steps
// sized for --seconds; the benchmark times steps from outside, through a
// clocked BatchSource, and checks the trained model on held-out batches.
#include <cmath>
#include <cstring>
#include <functional>
#include <memory>

#include "data/skew_shift_source.h"
#include "dlrm/trainer.h"
#include "harness.h"
#include "obs/metrics.h"
#include "workloads.h"

namespace perfbench {
namespace {

constexpr int kSetups = 3;
constexpr int64_t kEvalBatches = 4;
constexpr int64_t kEvalBatchSize = 512;
/// Steps per window behind each end-to-end statistic: one of
/// train_cached_shift's phase and checkpoint cycles, so every window does
/// the same work. The first window is warm-up and is not timed: in one run
/// on the reference host its median step took 1.4x that of the rest.
constexpr int64_t kWindowSteps = 100;
constexpr int64_t kMinWindows = 3;

/// Forwards to `inner` and timestamps every NextBatch call. At lookahead
/// depth 0 each call starts one step, so consecutive gaps are step times.
/// With a threaded producer the bounded queue releases one call per step
/// the consumer takes, so after the prefill the gaps track steps as well.
class ClockedSource final : public ttrec::BatchSource {
 public:
  /// Keeps a copy of batch number `keep_index` (0-based; -1 keeps none).
  ClockedSource(ttrec::BatchSource& inner, int64_t keep_index)
      : inner_(inner), keep_index_(keep_index) {}

  int num_tables() const override { return inner_.num_tables(); }
  ttrec::MiniBatch NextBatch(int64_t batch_size) override {
    calls_.push_back(Clock::now());
    ttrec::MiniBatch b = inner_.NextBatch(batch_size);
    if (static_cast<int64_t>(calls_.size()) - 1 == keep_index_) kept_ = b;
    return b;
  }
  ttrec::MiniBatch EvalBatch(int64_t batch_size,
                             uint64_t eval_seed) const override {
    return inner_.EvalBatch(batch_size, eval_seed);
  }
  void SaveState(ttrec::BinaryWriter& w) const override {
    inner_.SaveState(w);
  }
  void LoadState(ttrec::BinaryReader& r) override { inner_.LoadState(r); }

  /// Gaps between consecutive calls in microseconds, skipping the first
  /// `skip` (pipeline prefill).
  Samples StepMicros(size_t skip) const {
    Samples s;
    for (size_t i = skip + 1; i < calls_.size(); ++i) {
      s.Add(std::chrono::duration<double, std::micro>(calls_[i] -
                                                      calls_[i - 1])
                .count());
    }
    return s;
  }
  const ttrec::MiniBatch& kept() const { return kept_; }

 private:
  ttrec::BatchSource& inner_;
  int64_t keep_index_;
  std::vector<Clock::time_point> calls_;
  ttrec::MiniBatch kept_;
};

struct TrainSpec {
  ttrec::bench::SweepModelConfig model;
  std::function<std::unique_ptr<ttrec::BatchSource>(uint64_t seed)> source;
  int64_t batch = 0;
  /// Nominal steps per second on the reference host: sizes the run.
  int64_t steps_per_second = 0;
  int64_t lookahead_depth = 0;
  int64_t checkpoint_every = 0;
};

/// train_tt: the 7 largest Kaggle tables (rows / 16) as uncached rank-32
/// TT, the other 19 dense; synthetic Criteo, Zipf 1.15, pooling 1.
TrainSpec TrainTtSpec() {
  TrainSpec s;
  s.model.spec = ttrec::KaggleSpec().Scaled(16);
  s.model.num_tt_tables = 7;
  s.model.tt_rank = 32;
  s.model.use_cache = false;
  const ttrec::DatasetSpec spec = s.model.spec;
  s.source = [spec](uint64_t seed) {
    return std::make_unique<ttrec::SyntheticCriteo>(
        ttrec::bench::BenchDataConfig(spec, seed, /*pooling_factor=*/1));
  };
  s.batch = 512;
  s.steps_per_second = 29;
  return s;
}

/// train_cached_shift: 4 cached-TT tables under a skew-shift stream whose
/// hot sets move every 100 batches, lookahead depth 2 (threaded) and an
/// async checkpoint every 100 steps.
TrainSpec TrainCachedShiftSpec() {
  constexpr int64_t kBatch = 256;
  TrainSpec s;
  s.model.spec.name = "skew_shift";
  s.model.spec.table_rows = {200000, 100000, 50000, 20000};
  s.model.num_tt_tables = 4;
  s.model.tt_rank = 32;
  s.model.use_cache = true;
  s.model.cache_capacity = 2048;
  s.source = [](uint64_t seed) {
    ttrec::SkewShiftSourceConfig c;
    c.scenario.tables = {{200000, 1.2, 4.0},
                         {100000, 1.1, 2.0},
                         {50000, 1.05, 1.0},
                         {20000, 1.0, 1.0}};
    c.scenario.lookups_per_iteration = 32;  // one iteration = one sample
    c.scenario.phase_length = kWindowSteps * kBatch;
    c.scenario.seed = seed;
    return std::make_unique<ttrec::SkewShiftBatchSource>(c);
  };
  s.batch = kBatch;
  s.steps_per_second = 50;
  s.lookahead_depth = 2;
  s.checkpoint_every = kWindowSteps;
  return s;
}

/// A whole number of windows, warm-up included.
int64_t StepsFor(const TrainSpec& spec, double seconds) {
  const int64_t raw = std::llround(seconds * spec.steps_per_second);
  return std::max(kMinWindows, (raw + kWindowSteps / 2) / kWindowSteps) *
         kWindowSteps;
}

/// Everything built before the first step; rebuilt by each setup repetition.
struct Fixture {
  std::unique_ptr<ttrec::BatchSource> data;
  std::unique_ptr<ttrec::DlrmModel> model;
  std::vector<ttrec::MiniBatch> eval;
  double untrained_logloss = 0.0;
};

std::vector<float> Logits(const ttrec::DlrmModel& model,
                          const ttrec::MiniBatch& batch) {
  std::vector<float> out(static_cast<size_t>(batch.batch_size()));
  ttrec::InferenceScratch scratch;
  model.PredictLogits(batch, out.data(), scratch);
  return out;
}

/// Held-out BCE through the const forward, which leaves the caches'
/// warm-up counters alone.
double HeldOutLogloss(const ttrec::DlrmModel& model,
                      const std::vector<ttrec::MiniBatch>& eval) {
  std::vector<float> logits, labels;
  for (const ttrec::MiniBatch& b : eval) {
    const std::vector<float> out = Logits(model, b);
    logits.insert(logits.end(), out.begin(), out.end());
    labels.insert(labels.end(), b.labels.begin(), b.labels.end());
  }
  return MeanLogloss(logits, labels);
}

Fixture SetUp(const TrainSpec& spec, uint64_t seed) {
  Fixture fx;
  fx.data = spec.source(seed);
  ttrec::Rng rng(seed);
  fx.model = ttrec::bench::BuildSweepModel(spec.model, rng);
  for (int64_t i = 0; i < kEvalBatches; ++i) {
    fx.eval.push_back(
        fx.data->EvalBatch(kEvalBatchSize, static_cast<uint64_t>(i + 1)));
  }
  fx.untrained_logloss = HeldOutLogloss(*fx.model, fx.eval);
  return fx;
}

/// Sum of one counter over every table's stats, as published now.
int64_t TableCounter(const ttrec::DlrmModel& model, const char* name) {
  ttrec::obs::MetricRegistry reg;
  for (int t = 0; t < model.num_tables(); ++t) model.table(t).CollectStats(reg);
  const ttrec::obs::StripedCounter* c = reg.FindCounter(name);
  return c != nullptr ? c->Total() : 0;
}

struct CounterWindow {
  int64_t fwd_flops = 0, bwd_flops = 0, hits = 0, misses = 0, evictions = 0;

  static CounterWindow Read(const ttrec::DlrmModel& m) {
    return CounterWindow{TableCounter(m, "tt.forward_flops"),
                         TableCounter(m, "tt.backward_flops"),
                         TableCounter(m, "cache.hits"),
                         TableCounter(m, "cache.misses"),
                         TableCounter(m, "cache.evictions") +
                             TableCounter(m, "cache.prefetch_evictions")};
  }
  CounterWindow Since(const CounterWindow& b) const {
    return CounterWindow{fwd_flops - b.fwd_flops, bwd_flops - b.bwd_flops,
                         hits - b.hits, misses - b.misses,
                         evictions - b.evictions};
  }
};

void FillLedger(const TrainSpec& spec, const Fixture& fx,
                const TableProbes& probes, const ttrec::TrainResult& tr,
                const CounterWindow& counters, const TtMissTimes* misses,
                int64_t steps, Ledger& ledger) {
  const double n = static_cast<double>(steps);
  const auto per_step_us = [&](Family f, Phase p) {
    return probes.Seconds(f, p) * 1e6 / n;
  };
  const auto all_phases_us = [&](Family f) {
    return per_step_us(f, Phase::kForward) + per_step_us(f, Phase::kBackward) +
           per_step_us(f, Phase::kUpdate);
  };
  // TT metrics: the uncached TT tables as timed, or, where every TT table
  // sits behind a cache, the replayed TT cost scaled to the misses.
  const int64_t lookups = counters.hits + counters.misses;
  double tt_fwd = per_step_us(Family::kTt, Phase::kForward);
  double tt_bwd = per_step_us(Family::kTt, Phase::kBackward);
  if (misses != nullptr && lookups > 0) {
    const double miss_share = static_cast<double>(counters.misses) / lookups;
    tt_fwd = misses->fwd_us * miss_share;
    tt_bwd = misses->bwd_us * miss_share;
  }
  const double fwd_flops = static_cast<double>(counters.fwd_flops) / n;
  const double bwd_flops = static_cast<double>(counters.bwd_flops) / n;
  ledger.Set("tt.fwd_us", tt_fwd);
  ledger.Set("tt.bwd_us", tt_bwd);
  ledger.Set("tt.opt_us", per_step_us(Family::kTt, Phase::kUpdate));
  ledger.Set("tt.bwd_over_fwd", tt_fwd > 0.0 ? tt_bwd / tt_fwd : 0.0);
  ledger.Set("tt.fwd_gflops", tt_fwd > 0.0 ? fwd_flops / (tt_fwd * 1e3) : 0.0);
  ledger.Set("tt.bwd_gflops", tt_bwd > 0.0 ? bwd_flops / (tt_bwd * 1e3) : 0.0);

  ledger.Set("cache.hit_rate",
             lookups > 0 ? static_cast<double>(counters.hits) / lookups : 0.0);
  ledger.Set("cache.fwd_us", per_step_us(Family::kCachedTt, Phase::kForward));
  ledger.Set("cache.bwd_us", per_step_us(Family::kCachedTt, Phase::kBackward));
  ledger.Set("cache.opt_us", per_step_us(Family::kCachedTt, Phase::kUpdate));
  ledger.Set("cache.prefetch_us", tr.prefetch_seconds * 1e6 / n);
  ledger.Set("cache.prefetch_rows", static_cast<double>(tr.prefetched_rows) / n);
  ledger.Set("cache.evictions", static_cast<double>(counters.evictions) / n);

  ledger.Set("data.wait_us", tr.data_seconds * 1e6 / n);

  const double step_us = tr.train_seconds * 1e6 / n;
  const double tables_us = all_phases_us(Family::kDense) +
                           all_phases_us(Family::kTt) +
                           all_phases_us(Family::kCachedTt);
  ledger.Set("dlrm.step_us", step_us);
  ledger.Set("dlrm.dense_us", step_us - tables_us);
  ledger.Set("dlrm.dense_tables_us", all_phases_us(Family::kDense));
  const TowerTimes towers = ReplayDenseTowers(
      spec.model.dlrm, fx.model->num_tables(), spec.batch);
  ledger.Set("dlrm.bottom_mlp_us", towers.bottom_us);
  ledger.Set("dlrm.interaction_us", towers.interaction_us);
  ledger.Set("dlrm.top_mlp_us", towers.top_us);
  ledger.Set("dlrm.checkpoint_stall_us", tr.checkpoint_seconds * 1e6 / n);
  ledger.Set("dlrm.checkpoint_bg_s", tr.checkpoint_background_seconds);
}

}  // namespace

bool IsTrainingWorkload(const std::string& name) {
  return name == "train_tt" || name == "train_cached_shift";
}

Result RunTraining(const RunOptions& opt, Ledger* ledger) {
  const TrainSpec spec =
      opt.workload == "train_tt" ? TrainTtSpec() : TrainCachedShiftSpec();
  const int64_t steps = StepsFor(spec, opt.seconds);

  Samples setup_s;
  Fixture fx;
  for (int i = 0; i < kSetups; ++i) {
    fx = Fixture{};
    const auto t0 = Clock::now();
    fx = SetUp(spec, opt.seed);
    setup_s.Add(SecondsBetween(t0, Clock::now()));
  }

  Result result;
  result.attempted = steps;
  TableProbes probes;
  if (ledger != nullptr) {
    // A timed copy must compute exactly what the original table does.
    const std::vector<float> before = Logits(*fx.model, fx.eval[0]);
    probes.Instrument(*fx.model);
    const std::vector<float> after = Logits(*fx.model, fx.eval[0]);
    if (std::memcmp(before.data(), after.data(),
                    before.size() * sizeof(float)) != 0) {
      result.Fail("instrumented model's logits differ from the original's");
    }
  }

  ClockedSource clocked(*fx.data, ledger != nullptr ? steps - 1 : -1);
  ttrec::TrainConfig tc;
  tc.iterations = steps;
  tc.batch_size = spec.batch;
  tc.eval_batches = 0;
  tc.log_every = 10;
  tc.num_threads = 1;
  tc.lookahead_depth = spec.lookahead_depth;
  tc.lookahead_threaded = true;
  if (spec.checkpoint_every > 0) {
    tc.checkpoint_every = spec.checkpoint_every;
    tc.checkpoint_dir = opt.workdir + "/checkpoints";
    tc.async_checkpoint = true;
  }
  const CounterWindow counters_before = CounterWindow::Read(*fx.model);
  const auto t0 = Clock::now();
  const ttrec::TrainResult tr = ttrec::TrainDlrm(*fx.model, clocked, tc);
  const double window_s = SecondsBetween(t0, Clock::now());
  const CounterWindow counters =
      CounterWindow::Read(*fx.model).Since(counters_before);

  // Output checks.
  result.failed = tr.robustness.TotalSkips();
  for (double loss : tr.loss_history) {
    if (!std::isfinite(loss)) {
      result.Fail("training loss is not finite");
      break;
    }
  }
  const double logloss = HeldOutLogloss(*fx.model, fx.eval);
  if (!(logloss < fx.untrained_logloss)) {
    result.Fail("held-out logloss " + std::to_string(logloss) +
                " does not beat the untrained model's " +
                std::to_string(fx.untrained_logloss));
  }

  // Skipping the warm-up window also skips the lookahead prefill.
  const Samples step_us = clocked.StepMicros(kWindowSteps);
  std::vector<double> rate, p50, tail;
  for (const Samples& w :
       step_us.Split(static_cast<int>(steps / kWindowSteps - 1))) {
    rate.push_back(static_cast<double>(w.size() * spec.batch) /
                   (w.Sum() / 1e6));
    p50.push_back(w.Percentile(50.0));
    tail.push_back(w.Percentile(kTailPercentile));
  }
  char line[256];
  std::snprintf(line, sizeof(line),
                "setup: %d repetitions, median %.3f s; window: %lld steps "
                "of %lld samples in %.3f s; held-out logloss %.5f (untrained "
                "%.5f)",
                kSetups, setup_s.Percentile(50.0),
                static_cast<long long>(steps),
                static_cast<long long>(spec.batch), window_s, logloss,
                fx.untrained_logloss);
  result.Note(line);
  result.Note(step_us.Summary("train_step", "us", kTailPercentile));
  result.Note(WindowSummary("throughput_per_s", rate));
  result.Note(WindowSummary("latency_p50_us", p50));
  result.Note(WindowSummary("latency_p90_us", tail));

  if (ledger == nullptr) {
    result.Metric("setup_s", setup_s.Percentile(50.0), "s");
    result.Metric("peak_rss_mb", PeakRssMiB(), "MiB");
    result.Metric("model_bytes",
                  static_cast<double>(fx.model->EmbeddingMemoryBytes() +
                                      fx.model->MlpMemoryBytes()),
                  "B");
    result.Metric("throughput_per_s", BetterQuartile(rate, true), "1/s");
    result.Metric("latency_p50_us", BetterQuartile(p50, false), "us");
    result.Metric("ok_ratio",
                  static_cast<double>(steps - result.failed) / steps,
                  "fraction");
    return result;
  }

  TtMissTimes misses;
  const bool all_tt_cached = spec.model.use_cache;
  if (all_tt_cached) misses = ReplayCachedTt(*fx.model, clocked.kept());
  FillLedger(spec, fx, probes, tr, counters,
             all_tt_cached ? &misses : nullptr, steps, *ledger);
  ledger->Set("obs.latency_p50_us", BetterQuartile(p50, false));
  ledger->Set("obs.latency_tail_us", BetterQuartile(tail, false));
  return result;
}

}  // namespace perfbench
