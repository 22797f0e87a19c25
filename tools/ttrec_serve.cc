// CLI demo of the serving subsystem (src/serve/): builds a mixed
// dense / cached-TT DLRM, warms the LFU caches from a Zipf-skewed synthetic
// trace, then serves a closed-loop request stream through the micro-batching
// InferenceServer and prints the telemetry snapshot as JSON.
//
// SIGINT/SIGTERM trigger a graceful drain: producers stop submitting, the
// server finishes everything in flight, and one final MetricsJson line is
// printed before exit — the snapshot is never torn by the signal.
//
//   $ ttrec_serve [--tables N] [--rows R] [--requests N] [--producers P]
//                 [--max-batch B] [--consumers C] [--shards S]
//                 [--partition table|row]
#include <atomic>
#include <csignal>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <future>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "data/criteo_synth.h"
#include "dlrm/embedding_adapters.h"
#include "dlrm/embedding_bag.h"
#include "dlrm/model.h"
#include "serve/inference_server.h"
#include "tensor/check.h"
#include "tt/tt_shapes.h"

using namespace ttrec;

namespace {

// Signal flag: lock-free atomic stores are async-signal-safe. Producers
// poll it between requests; main turns it into a server drain.
std::atomic<bool> g_stop{false};

void HandleStopSignal(int /*sig*/) { g_stop.store(true); }

struct Options {
  int tables = 8;
  int64_t rows = 100000;
  int64_t emb_dim = 16;
  int64_t tt_rank = 16;
  int64_t warmup_batches = 30;
  int64_t requests = 2000;
  int producers = 4;
  int64_t max_batch = 32;
  int consumers = 1;
  int shards = 0;
  shard::PartitionStrategy partition = shard::PartitionStrategy::kRowRange;
  uint64_t seed = 42;
};

int Usage(const char* prog) {
  std::fprintf(
      stderr,
      "usage: %s [options]\n"
      "  --tables N       embedding tables (half cached-TT, half dense;"
      " default 8)\n"
      "  --rows R         rows per table (default 100000)\n"
      "  --requests N     total requests to serve (default 2000)\n"
      "  --producers P    closed-loop client threads (default 4)\n"
      "  --max-batch B    micro-batch cap (default 32; 1 = no batching)\n"
      "  --consumers C    batching consumer threads (default 1)\n"
      "  --shards S       embedding shards per consumer's router (default 0 ="
      " unsharded)\n"
      "  --partition P    shard partition strategy: table | row (default"
      " row)\n"
      "  --seed S         trace seed (default 42)\n",
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

std::unique_ptr<DlrmModel> BuildModel(const Options& opt, Rng& rng) {
  DlrmConfig dlrm;
  dlrm.emb_dim = opt.emb_dim;
  dlrm.index_policy = IndexPolicy::kClampToZero;  // serving replica default
  std::vector<std::unique_ptr<EmbeddingOp>> tables;
  tables.reserve(static_cast<size_t>(opt.tables));
  for (int t = 0; t < opt.tables; ++t) {
    if (t < opt.tables / 2) {
      CachedTtConfig cfg;
      cfg.tt.shape = MakeTtShape(opt.rows, opt.emb_dim, 3, opt.tt_rank);
      cfg.cache_capacity = std::max<int64_t>(64, opt.rows / 1000);
      cfg.warmup_iterations = opt.warmup_batches / 2;
      cfg.refresh_interval = 5;
      tables.push_back(
          std::make_unique<CachedTtEmbeddingAdapter>(cfg, TtInit::kSampledGaussian, rng));
    } else {
      tables.push_back(std::make_unique<DenseEmbeddingBag>(
          opt.rows, opt.emb_dim, PoolingMode::kSum,
          DenseEmbeddingInit::UniformScaled(), rng));
    }
  }
  return std::make_unique<DlrmModel>(dlrm, std::move(tables), rng);
}

}  // namespace

int main(int argc, char** argv) {
  Options opt;
  for (int i = 1; i < argc; ++i) {
    const char* a = argv[i];
    auto next_i64 = [&](int64_t* out) {
      return i + 1 < argc && ParseI64(argv[++i], out);
    };
    int64_t v = 0;
    if (std::strcmp(a, "--tables") == 0 && next_i64(&v)) {
      opt.tables = static_cast<int>(v);
    } else if (std::strcmp(a, "--rows") == 0 && next_i64(&opt.rows)) {
    } else if (std::strcmp(a, "--requests") == 0 && next_i64(&opt.requests)) {
    } else if (std::strcmp(a, "--producers") == 0 && next_i64(&v)) {
      opt.producers = static_cast<int>(v);
    } else if (std::strcmp(a, "--max-batch") == 0 && next_i64(&opt.max_batch)) {
    } else if (std::strcmp(a, "--consumers") == 0 && next_i64(&v)) {
      opt.consumers = static_cast<int>(v);
    } else if (std::strcmp(a, "--shards") == 0 && next_i64(&v)) {
      opt.shards = static_cast<int>(v);
    } else if (std::strcmp(a, "--partition") == 0 && i + 1 < argc) {
      if (!shard::ParsePartitionStrategy(argv[++i], &opt.partition)) {
        return Usage(argv[0]);
      }
    } else if (std::strcmp(a, "--seed") == 0 && next_i64(&v)) {
      opt.seed = static_cast<uint64_t>(v);
    } else {
      return Usage(argv[0]);
    }
  }
  if (opt.tables < 1 || opt.producers < 1 || opt.requests < 1) {
    return Usage(argv[0]);
  }

  try {
    Rng rng(opt.seed);
    std::unique_ptr<DlrmModel> model = BuildModel(opt, rng);

    DatasetSpec spec;
    spec.name = "serve_demo";
    spec.table_rows.assign(static_cast<size_t>(opt.tables), opt.rows);
    SyntheticCriteoConfig data_cfg;
    data_cfg.spec = spec;
    data_cfg.seed = opt.seed;
    SyntheticCriteo data(data_cfg);

    // Warm-up: the training-path forward populates and then freezes the LFU
    // caches (paper Fig 4); serving never mutates them again.
    std::printf("warming %d tables over %lld batches...\n", opt.tables,
                static_cast<long long>(opt.warmup_batches));
    std::vector<float> warm_logits(64);
    for (int64_t i = 0; i < opt.warmup_batches; ++i) {
      model->PredictLogits(data.NextBatch(64), warm_logits.data());
    }
    // Drop warm-up hit/miss counts so the snapshot reflects serving only.
    for (int t = 0; t < model->num_tables(); ++t) {
      model->table(t).ResetStats();
    }

    serve::InferenceServerConfig server_cfg;
    server_cfg.max_batch_size = opt.max_batch;
    server_cfg.num_consumers = opt.consumers;
    server_cfg.num_shards = opt.shards;
    server_cfg.partition = opt.partition;
    serve::InferenceServer server(*model, server_cfg);
    if (const auto plan = server.shard_plan()) {
      std::printf("%s", plan->ToString().c_str());
    }

    std::signal(SIGINT, HandleStopSignal);
    std::signal(SIGTERM, HandleStopSignal);

    // Closed-loop producers: each thread submits its share one request at a
    // time, waiting for the logit before sending the next. The first
    // requests % producers threads send one extra, so every request is sent.
    std::vector<std::thread> producers;
    producers.reserve(static_cast<size_t>(opt.producers));
    for (int p = 0; p < opt.producers; ++p) {
      const int64_t per_producer = opt.requests / opt.producers +
                                   (p < opt.requests % opt.producers ? 1 : 0);
      producers.emplace_back([&, p, per_producer] {
        // Same config seed as the warm-up stream — the Zipf rank->row
        // shuffle is seed-derived, so a different seed would request a
        // disjoint hot set and defeat the frozen cache. Per-producer
        // traffic varies through the eval seed instead.
        SyntheticCriteo stream(data_cfg);
        uint64_t eval_seed = opt.seed + 1000 + static_cast<uint64_t>(p);
        int64_t sent = 0;
        while (sent < per_producer && !g_stop.load()) {
          const int64_t chunk = std::min<int64_t>(64, per_producer - sent);
          std::vector<serve::InferenceRequest> reqs =
              serve::SplitSamples(stream.EvalBatch(chunk, eval_seed++));
          for (auto& r : reqs) {
            if (g_stop.load()) break;
            try {
              server.Submit(std::move(r)).get();
            } catch (const serve::ServerShutdown&) {
              return;  // drain began under us — stop cleanly
            }
            ++sent;
          }
        }
      });
    }
    for (std::thread& t : producers) t.join();

    if (g_stop.load()) {
      std::fprintf(stderr,
                   "signal received: draining (admission closed, in-flight "
                   "requests finishing)...\n");
    }
    // Graceful either way: stop admission, finish everything queued, join
    // the consumers — then snapshot, so the final line is never torn.
    server.BeginDrain();
    server.Shutdown();

    const serve::ServeMetricsSnapshot snap = server.SnapshotWithCacheStats();
    std::printf("\n%s\n\n", serve::ToJson(snap).c_str());
    std::printf("served %lld requests at %.0f QPS | latency p50 %.0f us, "
                "p95 %.0f us, p99 %.0f us | mean batch %.1f\n",
                static_cast<long long>(snap.requests_ok), snap.qps,
                snap.latency_p50_us, snap.latency_p95_us, snap.latency_p99_us,
                snap.mean_batch_size);
    if (snap.has_cache) {
      std::printf("LFU cache hit rate during serving: %.1f%%\n",
                  100.0 * snap.cache_hit_rate);
    }
    return 0;
  } catch (const TtRecError& e) {
    std::fprintf(stderr, "error: %s\n", e.what());
    return 1;
  }
}
