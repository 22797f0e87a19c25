// Trace/observability CLI for the obs/ subsystem.
//
//   ttrec_trace train    [--iterations N] [--out trace.json]
//   ttrec_trace serve    [--requests N]   [--out trace.json]
//   ttrec_trace overhead [--iterations N] [--json BENCH_obs.json]
//
// `train` and `serve` run a small mixed dense / TT / cached-TT DLRM with
// tracing enabled and write the capture as chrome://tracing JSON (open in
// Perfetto or chrome://tracing). `overhead` is the CI gate: it times the
// same training loop untraced vs traced, measures the cost of a disabled
// TraceScope directly, and writes BENCH_obs.json with the estimated
// tracing-disabled overhead — exiting nonzero when the estimate breaches
// the 3% step-time budget (DESIGN.md "Observability").
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <future>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "data/criteo_synth.h"
#include "dlrm/embedding_adapters.h"
#include "dlrm/embedding_bag.h"
#include "dlrm/model.h"
#include "dlrm/trainer.h"
#include "obs/json_writer.h"
#include "obs/metrics.h"
#include "obs/trace.h"
#include "serve/inference_server.h"
#include "tensor/check.h"
#include "tt/tt_shapes.h"

using namespace ttrec;

namespace {

/// Maximum tracing-disabled overhead the `overhead` subcommand tolerates,
/// as a percentage of untraced step time.
constexpr double kOverheadBudgetPct = 3.0;

struct Options {
  int64_t iterations = 40;
  int64_t requests = 512;
  int64_t batch_size = 64;
  int64_t rows = 20000;
  std::string out = "trace.json";
  std::string json = "BENCH_obs.json";
  uint64_t seed = 42;
};

int Usage(const char* prog) {
  std::fprintf(
      stderr,
      "usage: %s <train|serve|overhead> [options]\n"
      "  --iterations N  training iterations (train/overhead; default 40)\n"
      "  --requests N    requests to serve (serve; default 512)\n"
      "  --batch-size B  training batch size (default 64)\n"
      "  --rows R        rows per embedding table (default 20000)\n"
      "  --out PATH      chrome trace output (train/serve; default "
      "trace.json)\n"
      "  --json PATH     overhead report output (overhead; default "
      "BENCH_obs.json)\n"
      "  --seed S        model/data seed (default 42)\n",
      prog);
  return 2;
}

bool ParseI64(const char* s, int64_t* out) {
  char* end = nullptr;
  const long long v = std::strtoll(s, &end, 10);
  if (end == s || *end != '\0') return false;
  *out = v;
  return true;
}

/// Small mixed model exercising every instrumented table kind: one plain TT
/// table, one cached-TT table (LFU spans), one dense table.
std::unique_ptr<DlrmModel> BuildModel(const Options& opt, Rng& rng) {
  DlrmConfig dlrm;
  dlrm.emb_dim = 16;
  std::vector<std::unique_ptr<EmbeddingOp>> tables;
  {
    TtEmbeddingConfig cfg;
    cfg.shape = MakeTtShape(opt.rows, dlrm.emb_dim, 3, 8);
    tables.push_back(std::make_unique<TtEmbeddingAdapter>(
        cfg, TtInit::kSampledGaussian, rng));
  }
  {
    CachedTtConfig cfg;
    cfg.tt.shape = MakeTtShape(opt.rows, dlrm.emb_dim, 3, 8);
    cfg.cache_capacity = std::max<int64_t>(64, opt.rows / 100);
    cfg.warmup_iterations = 4;
    cfg.refresh_interval = 8;
    tables.push_back(std::make_unique<CachedTtEmbeddingAdapter>(
        cfg, TtInit::kSampledGaussian, rng));
  }
  tables.push_back(std::make_unique<DenseEmbeddingBag>(
      opt.rows, dlrm.emb_dim, PoolingMode::kSum,
      DenseEmbeddingInit::UniformScaled(), rng));
  return std::make_unique<DlrmModel>(dlrm, std::move(tables), rng);
}

SyntheticCriteo MakeData(const Options& opt, int num_tables) {
  DatasetSpec spec;
  spec.name = "trace_demo";
  spec.table_rows.assign(static_cast<size_t>(num_tables), opt.rows);
  SyntheticCriteoConfig cfg;
  cfg.spec = spec;
  cfg.seed = opt.seed;
  return SyntheticCriteo(cfg);
}

int WriteFile(const std::string& path, const std::string& body) {
  std::ofstream f(path, std::ios::trunc);
  if (!f) {
    std::fprintf(stderr, "cannot open %s for writing\n", path.c_str());
    return 1;
  }
  f << body << '\n';
  return f ? 0 : 1;
}

/// Runs the standard short training loop and returns ms per iteration.
double TimedTrain(DlrmModel& model, SyntheticCriteo& data,
                  const Options& opt, obs::MetricRegistry* reg) {
  TrainConfig tc;
  tc.iterations = opt.iterations;
  tc.batch_size = opt.batch_size;
  tc.eval_batches = 0;
  tc.log_every = 0;
  tc.metrics = reg;
  const TrainResult r = TrainDlrm(model, data, tc);
  return r.MsPerIteration();
}

int RunTrain(const Options& opt) {
  Rng rng(opt.seed);
  std::unique_ptr<DlrmModel> model = BuildModel(opt, rng);
  SyntheticCriteo data = MakeData(opt, model->num_tables());

  obs::Tracer& tracer = obs::Tracer::Global();
  tracer.Enable();
  obs::MetricRegistry reg;
  const double ms = TimedTrain(*model, data, opt, &reg);
  tracer.Disable();

  std::printf("traced %lld iterations at %.3f ms/iter, %lld spans "
              "buffered (%lld dropped)\n",
              static_cast<long long>(opt.iterations), ms,
              static_cast<long long>(tracer.buffered()),
              static_cast<long long>(tracer.dropped()));
  std::printf("%s\n", reg.ToJson().c_str());
  if (WriteFile(opt.out, tracer.FlushJson()) != 0) return 1;
  std::printf("wrote %s (load in Perfetto / chrome://tracing)\n",
              opt.out.c_str());
  return 0;
}

int RunServe(const Options& opt) {
  Rng rng(opt.seed);
  std::unique_ptr<DlrmModel> model = BuildModel(opt, rng);
  SyntheticCriteo data = MakeData(opt, model->num_tables());

  // Warm the LFU cache through the training-path forward, then freeze.
  std::vector<float> warm_logits(64);
  for (int64_t i = 0; i < 8; ++i) {
    model->PredictLogits(data.NextBatch(64), warm_logits.data());
  }
  for (int t = 0; t < model->num_tables(); ++t) {
    model->table(t).ResetStats();
  }

  obs::Tracer& tracer = obs::Tracer::Global();
  tracer.Enable();
  {
    serve::InferenceServerConfig scfg;
    scfg.max_batch_size = 32;
    serve::InferenceServer server(*model, scfg);
    std::vector<std::future<serve::InferenceResult>> futures;
    uint64_t eval_seed = opt.seed + 1;
    int64_t sent = 0;
    while (sent < opt.requests) {
      const int64_t chunk = std::min<int64_t>(64, opt.requests - sent);
      std::vector<serve::InferenceRequest> reqs =
          serve::SplitSamples(data.EvalBatch(chunk, eval_seed++));
      for (auto& r : reqs) {
        futures.push_back(server.Submit(std::move(r)));
        ++sent;
      }
    }
    for (auto& f : futures) f.get();
    std::printf("%s\n", server.MetricsJson().c_str());
    server.Shutdown();
  }
  tracer.Disable();

  std::printf("served %lld requests, %lld spans buffered (%lld dropped)\n",
              static_cast<long long>(opt.requests),
              static_cast<long long>(tracer.buffered()),
              static_cast<long long>(tracer.dropped()));
  if (WriteFile(opt.out, tracer.FlushJson()) != 0) return 1;
  std::printf("wrote %s (load in Perfetto / chrome://tracing)\n",
              opt.out.c_str());
  return 0;
}

/// Direct cost of a tracing-disabled TraceScope, in nanoseconds. The span
/// name is a literal, the tracer is globally off — this is exactly the
/// instruction sequence every instrumented hot path pays per span.
double DisabledScopeNanos() {
  using Clock = std::chrono::steady_clock;
  constexpr int64_t kIters = 20'000'000;
  const auto t0 = Clock::now();
  for (int64_t i = 0; i < kIters; ++i) {
    TTREC_TRACE_SCOPE("obs.overhead_probe");
  }
  const auto t1 = Clock::now();
  return std::chrono::duration<double, std::nano>(t1 - t0).count() /
         static_cast<double>(kIters);
}

int RunOverhead(const Options& opt) {
  obs::Tracer& tracer = obs::Tracer::Global();
  TTREC_CHECK(!tracer.enabled(), "overhead: tracing must start disabled");

  // Pass 1: untraced baseline (the deployment configuration).
  double untraced_ms = 0.0;
  {
    Rng rng(opt.seed);
    std::unique_ptr<DlrmModel> model = BuildModel(opt, rng);
    SyntheticCriteo data = MakeData(opt, model->num_tables());
    TimedTrain(*model, data, opt, nullptr);  // warm-up
    untraced_ms = TimedTrain(*model, data, opt, nullptr);
  }

  // Pass 2: traced, identical model/data — also yields spans per step.
  double traced_ms = 0.0;
  int64_t spans = 0;
  {
    Rng rng(opt.seed);
    std::unique_ptr<DlrmModel> model = BuildModel(opt, rng);
    SyntheticCriteo data = MakeData(opt, model->num_tables());
    TimedTrain(*model, data, opt, nullptr);  // warm-up
    tracer.Enable(1 << 20);
    traced_ms = TimedTrain(*model, data, opt, nullptr);
    tracer.Disable();
    spans = tracer.buffered() + tracer.dropped();
    tracer.FlushJson();  // discard, frees the capture
  }

  const double spans_per_step =
      static_cast<double>(spans) / static_cast<double>(opt.iterations);
  const double scope_ns = DisabledScopeNanos();
  // The product is what a tracing-disabled production step actually pays:
  // spans/step x cost of one disabled span, relative to the step itself.
  const double est_pct =
      untraced_ms > 0.0
          ? 100.0 * (spans_per_step * scope_ns * 1e-6) / untraced_ms
          : 0.0;
  const double traced_pct =
      untraced_ms > 0.0 ? 100.0 * (traced_ms / untraced_ms - 1.0) : 0.0;

  std::printf("untraced: %.3f ms/iter, traced: %.3f ms/iter (+%.2f%%)\n",
              untraced_ms, traced_ms, traced_pct);
  std::printf("%.1f spans/step x %.2f ns/disabled-span -> est disabled "
              "overhead %.4f%% (budget %.1f%%)\n",
              spans_per_step, scope_ns, est_pct, kOverheadBudgetPct);

  obs::JsonWriter w;
  obs::BeginBenchEnvelope(w, "obs_overhead");
  w.Key("config").BeginObject();
  w.Kv("iterations", opt.iterations);
  w.Kv("batch_size", opt.batch_size);
  w.Kv("rows", opt.rows);
  w.EndObject();
  w.Kv("untraced_ms_per_iter", untraced_ms, 4);
  w.Kv("traced_ms_per_iter", traced_ms, 4);
  w.Kv("traced_overhead_pct", traced_pct, 3);
  w.Kv("spans_per_step", spans_per_step, 1);
  w.Kv("disabled_scope_ns", scope_ns, 3);
  w.Kv("est_disabled_overhead_pct", est_pct, 4);
  w.Kv("overhead_budget_pct", kOverheadBudgetPct, 1);
  w.Kv("within_budget", est_pct < kOverheadBudgetPct);
  w.EndObject();
  if (WriteFile(opt.json, w.str()) != 0) return 1;
  std::printf("wrote %s\n", opt.json.c_str());

  if (est_pct >= kOverheadBudgetPct) {
    std::fprintf(stderr,
                 "FAIL: estimated disabled-tracing overhead %.4f%% exceeds "
                 "the %.1f%% budget\n",
                 est_pct, kOverheadBudgetPct);
    return 3;
  }
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  if (argc < 2) return Usage(argv[0]);
  const std::string cmd = argv[1];
  Options opt;
  for (int i = 2; i < argc; ++i) {
    const char* a = argv[i];
    auto next_i64 = [&](int64_t* out) {
      return i + 1 < argc && ParseI64(argv[++i], out);
    };
    auto next_str = [&](std::string* out) {
      if (i + 1 >= argc) return false;
      *out = argv[++i];
      return true;
    };
    int64_t v = 0;
    if (std::strcmp(a, "--iterations") == 0 && next_i64(&opt.iterations)) {
    } else if (std::strcmp(a, "--requests") == 0 && next_i64(&opt.requests)) {
    } else if (std::strcmp(a, "--batch-size") == 0 &&
               next_i64(&opt.batch_size)) {
    } else if (std::strcmp(a, "--rows") == 0 && next_i64(&opt.rows)) {
    } else if (std::strcmp(a, "--out") == 0 && next_str(&opt.out)) {
    } else if (std::strcmp(a, "--json") == 0 && next_str(&opt.json)) {
    } else if (std::strcmp(a, "--seed") == 0 && next_i64(&v)) {
      opt.seed = static_cast<uint64_t>(v);
    } else {
      return Usage(argv[0]);
    }
  }
  if (opt.iterations < 1 || opt.requests < 1 || opt.batch_size < 1 ||
      opt.rows < 64) {
    return Usage(argv[0]);
  }

  try {
    if (cmd == "train") return RunTrain(opt);
    if (cmd == "serve") return RunServe(opt);
    if (cmd == "overhead") return RunOverhead(opt);
    return Usage(argv[0]);
  } catch (const TtRecError& e) {
    std::fprintf(stderr, "error: %s\n", e.what());
    return 1;
  }
}
