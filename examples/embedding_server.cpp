// Inference serving on the src/serve/ subsystem: a DLRM whose largest table
// is TT-compressed with an LFU hot-row cache answers a Zipf-skewed request
// stream through the micro-batching InferenceServer — the "small-memory
// serving replica" story of the paper's introduction, end to end.
//
// Pipeline: concurrent clients Submit() single-sample requests into the
// bounded RequestQueue; a consumer thread takes whatever is queued as one
// micro-batch and runs the read-only forward pass (TT lookup through the
// warm cache, pooling, interaction, MLPs) sharded across the thread pool;
// ServeMetrics reports QPS, latency percentiles, batch sizes, and cache hit
// rate.
//
//   $ ./embedding_server [num_rows] [num_requests]
#include <cstdio>
#include <cstdlib>
#include <memory>
#include <thread>
#include <vector>

#include "data/criteo_synth.h"
#include "dlrm/embedding_adapters.h"
#include "dlrm/embedding_bag.h"
#include "dlrm/model.h"
#include "serve/inference_server.h"
#include "tt/tt_shapes.h"

using namespace ttrec;

int main(int argc, char** argv) {
  const int64_t rows = argc > 1 ? std::atoll(argv[1]) : 2000000;
  const int64_t num_requests = argc > 2 ? std::atoll(argv[2]) : 2000;
  const int64_t dim = 16;
  const int num_small_tables = 3;
  const int64_t small_rows = 1000;

  std::printf("DLRM with one %lld x %lld cached-TT table + %d small dense "
              "tables, serving %lld requests\n\n",
              static_cast<long long>(rows), static_cast<long long>(dim),
              num_small_tables, static_cast<long long>(num_requests));

  // --- Model: the big table is TT-compressed + LFU-cached; a serving
  // replica tolerates bad ids (kClampToZero) instead of crashing on an
  // upstream feature-pipeline bug.
  Rng rng(7);
  DlrmConfig dlrm;
  dlrm.emb_dim = dim;
  dlrm.index_policy = IndexPolicy::kClampToZero;
  std::vector<std::unique_ptr<EmbeddingOp>> tables;
  {
    CachedTtConfig cfg;
    cfg.tt.shape = MakeTtShape(rows, dim, 3, 32);
    cfg.cache_capacity = std::max<int64_t>(1, rows / 10000);  // 0.01%
    cfg.warmup_iterations = 20;
    cfg.refresh_interval = 5;
    tables.push_back(std::make_unique<CachedTtEmbeddingAdapter>(
        cfg, TtInit::kSampledGaussian, rng));
  }
  for (int t = 0; t < num_small_tables; ++t) {
    tables.push_back(std::make_unique<DenseEmbeddingBag>(
        small_rows, dim, PoolingMode::kSum,
        DenseEmbeddingInit::UniformScaled(), rng));
  }
  DlrmModel model(dlrm, std::move(tables), rng);

  // --- Zipf-skewed synthetic traffic over the model's table shapes.
  DatasetSpec spec;
  spec.name = "embedding_server";
  spec.table_rows = {rows, small_rows, small_rows, small_rows};
  SyntheticCriteoConfig data_cfg;
  data_cfg.spec = spec;
  data_cfg.seed = 1234;
  SyntheticCriteo data(data_cfg);

  // --- Warm-up: the training-path forward counts frequencies and
  // populates the cache from live traffic (paper Fig 4); once the window
  // closes the hot set freezes and serving is read-only.
  std::vector<float> warm_logits(256);
  for (int i = 0; i < 25; ++i) {
    model.PredictLogits(data.NextBatch(256), warm_logits.data());
  }
  auto& big = dynamic_cast<CachedTtEmbeddingAdapter&>(model.table(0));
  big.op().ResetStats();  // count serving traffic only
  std::printf("cache warmed: %lld rows (%.3f%% of table), frozen\n",
              static_cast<long long>(big.op().cache().size()),
              100.0 * static_cast<double>(big.op().cache().size()) /
                  static_cast<double>(rows));

  // --- Serve: 4 concurrent closed-loop clients, micro-batches up to 32.
  serve::InferenceServerConfig server_cfg;
  server_cfg.max_batch_size = 32;
  serve::InferenceServer server(model, server_cfg);

  const int num_clients = 4;
  std::vector<std::thread> clients;
  for (int c = 0; c < num_clients; ++c) {
    clients.emplace_back([&, c] {
      // Same config seed as the warm-up stream: the Zipf rank->row shuffle
      // is seed-derived, and the frozen cache only pays off when clients
      // request the same hot rows it was warmed on. Traffic still differs
      // per client via the eval seed.
      SyntheticCriteo stream(data_cfg);
      uint64_t eval_seed = 5678 + 1000 * static_cast<uint64_t>(c);
      int64_t sent = 0;
      const int64_t quota = num_requests / num_clients;
      while (sent < quota) {
        const int64_t chunk = std::min<int64_t>(64, quota - sent);
        for (auto& req : serve::SplitSamples(stream.EvalBatch(chunk, eval_seed++))) {
          server.Submit(std::move(req)).get();
          ++sent;
        }
      }
    });
  }
  for (std::thread& t : clients) t.join();

  // --- A malformed request (stale id past the table, leaked sentinel)
  // must complete under kClampToZero rather than crash the replica.
  {
    serve::InferenceRequest bad = serve::SplitSamples(data.NextBatch(1))[0];
    bad.sparse[0].indices[0] = rows + 123;
    const serve::InferenceResult res = server.Submit(std::move(bad)).get();
    std::printf("malformed request served: logit %.4f (bad id clamped to a "
                "zero vector)\n",
                res.logits[0]);
  }

  const serve::ServeMetricsSnapshot snap = server.SnapshotWithCacheStats();
  std::printf("\n%s\n\n", serve::ToJson(snap).c_str());
  std::printf("QPS %.0f | latency p50 %.0f us, p95 %.0f us, p99 %.0f us | "
              "mean micro-batch %.1f\n",
              snap.qps, snap.latency_p50_us, snap.latency_p95_us,
              snap.latency_p99_us, snap.mean_batch_size);
  std::printf("cache hit rate while serving: %.1f%%\n",
              100.0 * snap.cache_hit_rate);
  std::printf("replica embedding memory: %.2f MB; dense would need %.2f MB\n",
              model.EmbeddingMemoryBytes() / 1e6,
              (static_cast<double>(rows) + 3 * small_rows) * dim * 4 / 1e6);
  server.Shutdown();
  return 0;
}
