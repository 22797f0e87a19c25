// Closed-loop serving benchmark over the src/serve/ subsystem.
//
// A mixed dense / cached-TT DLRM is warmed on a Zipf-skewed criteo_synth
// trace, then a fixed request set is replayed through the InferenceServer
// at micro-batch caps {1, 8, 32, 128} (cap 1 is the one-request-at-a-time
// baseline). Each sweep point reports QPS and latency percentiles; before
// the sweep, every request's served logit is checked bitwise against a
// sequential single-request InferenceSession run — micro-batching must
// change throughput, never results.
//
// A second, open-loop sweep measures overload behaviour: producers submit
// their whole stripe without waiting for results against a small queue with
// reject-when-full admission, a live load governor, and per-request
// deadlines. Each offered-load point reports QPS, shed rate, and deadline
// miss rate — the degradation curve the overload policy is supposed to
// shape (typed rejections instead of unbounded queueing).
//
// A third sweep measures shard scaling: an embedding-bound model (one
// large uncached TT table, high pooling factor) is served with the
// consumer's lookups fanned out across {1, 2, 4} row-range embedding
// shards. Before the sweep, a second correctness gate checks the
// ShardRouter's fan-out/join logits bitwise against the single-process
// forward for every partition strategy x shard count combination.
//
// `--json out.json` additionally writes all sweeps in the shared
// BENCH_*.json envelope (schema_version + config echo + per-point metrics)
// for the perf trajectory.
#include <chrono>
#include <cinttypes>
#include <cmath>
#include <cstdio>
#include <cstring>
#include <future>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "harness.h"
#include "obs/json_writer.h"
#include "serve/inference_server.h"
#include "serve/inference_session.h"
#include "serve/serve_errors.h"
#include "shard/shard_plan.h"
#include "shard/shard_router.h"
#include "tensor/parallel.h"

using namespace ttrec;
using namespace ttrec::bench;

namespace {

struct SweepPoint {
  int64_t max_batch = 0;
  double qps = 0.0;
  double p50_us = 0.0;
  double p95_us = 0.0;
  double p99_us = 0.0;
  double mean_batch = 0.0;
};

// Closed loop: each producer replays its stripe one request at a time,
// waiting for the logits before submitting the next.
void ReplayClosedLoop(serve::InferenceServer& server,
                      const std::vector<serve::InferenceRequest>& requests,
                      int producers) {
  std::vector<std::thread> threads;
  threads.reserve(static_cast<size_t>(producers));
  const size_t n = requests.size();
  for (int p = 0; p < producers; ++p) {
    threads.emplace_back([&, p] {
      for (size_t i = static_cast<size_t>(p); i < n;
           i += static_cast<size_t>(producers)) {
        serve::InferenceRequest r;
        r.dense = requests[i].dense;
        r.sparse = requests[i].sparse;
        server.Submit(std::move(r)).get();
      }
    });
  }
  for (std::thread& t : threads) t.join();
}

SweepPoint RunPoint(const DlrmModel& model,
                    const std::vector<serve::InferenceRequest>& requests,
                    int64_t max_batch, int producers) {
  serve::InferenceServerConfig cfg;
  cfg.max_batch_size = max_batch;
  serve::InferenceServer server(model, cfg);
  ReplayClosedLoop(server, requests, producers);

  const serve::ServeMetricsSnapshot s = server.metrics().Snapshot();
  SweepPoint pt;
  pt.max_batch = max_batch;
  pt.qps = s.qps;
  pt.p50_us = s.latency_p50_us;
  pt.p95_us = s.latency_p95_us;
  pt.p99_us = s.latency_p99_us;
  pt.mean_batch = s.mean_batch_size;
  return pt;
}

struct ShardPoint {
  int num_shards = 0;
  double qps = 0.0;
  double p50_us = 0.0;
  double p95_us = 0.0;
};

ShardPoint RunShardPoint(const DlrmModel& model,
                         const std::vector<serve::InferenceRequest>& requests,
                         int num_shards, int producers) {
  // One pool worker per shard: each shard models a fixed-compute node. On a
  // single host the nested TT kernel would otherwise grab every idle core
  // no matter the shard count and flatten the curve, so the sweep would
  // measure the machine, not the router — with per-shard compute pinned,
  // near-linear QPS means the split/fan-out/join overhead is small and the
  // row-range slices are balanced.
  ThreadPool::SetGlobalThreads(num_shards);
  ShardPoint pt;
  pt.num_shards = num_shards;
  {
    serve::InferenceServerConfig cfg;
    cfg.max_batch_size = 32;
    cfg.num_shards = num_shards;
    cfg.partition = shard::PartitionStrategy::kTable;
    serve::InferenceServer server(model, cfg);
    ReplayClosedLoop(server, requests, producers);

    const serve::ServeMetricsSnapshot s = server.metrics().Snapshot();
    pt.qps = s.qps;
    pt.p50_us = s.latency_p50_us;
    pt.p95_us = s.latency_p95_us;
  }
  ThreadPool::SetGlobalThreads(
      static_cast<int>(std::max(1u, std::thread::hardware_concurrency())));
  return pt;
}

struct OverloadPoint {
  int producers = 0;
  int64_t submitted = 0;
  int64_t ok = 0;
  int64_t shed = 0;
  int64_t deadline_missed = 0;
  int64_t failed = 0;
  double qps = 0.0;
  int64_t queue_high_water = 0;
  int64_t to_degraded = 0;
  int64_t to_shedding = 0;

  double shed_rate() const {
    return submitted > 0 ? static_cast<double>(shed) / submitted : 0.0;
  }
  double miss_rate() const {
    return submitted > 0 ? static_cast<double>(deadline_missed) / submitted
                         : 0.0;
  }
};

OverloadPoint RunOverloadPoint(
    const DlrmModel& model,
    const std::vector<serve::InferenceRequest>& requests, int producers,
    std::chrono::microseconds deadline_budget) {
  serve::InferenceServerConfig cfg;
  cfg.max_batch_size = 32;
  // Small queue + fail-fast admission: offered load beyond capacity turns
  // into typed ServerOverloaded rejections instead of unbounded queueing.
  cfg.queue_capacity = 128;
  cfg.admission = serve::AdmissionPolicy::kRejectWhenFull;
  cfg.governor.tick = std::chrono::milliseconds(1);
  serve::InferenceServer server(model, cfg);

  const size_t n = requests.size();
  std::vector<std::vector<std::future<serve::InferenceResult>>> futures(
      static_cast<size_t>(producers));
  std::vector<std::thread> threads;
  threads.reserve(static_cast<size_t>(producers));
  for (int p = 0; p < producers; ++p) {
    futures[static_cast<size_t>(p)].reserve(n / static_cast<size_t>(producers) +
                                            1);
    threads.emplace_back([&, p] {
      // Open loop: submit the whole stripe without waiting for results, so
      // offered load scales with the producer count rather than being
      // throttled to the service rate.
      for (size_t i = static_cast<size_t>(p); i < n;
           i += static_cast<size_t>(producers)) {
        serve::InferenceRequest r;
        r.dense = requests[i].dense;
        r.sparse = requests[i].sparse;
        r.deadline = std::chrono::steady_clock::now() + deadline_budget;
        futures[static_cast<size_t>(p)].push_back(server.Submit(std::move(r)));
      }
    });
  }
  for (std::thread& t : threads) t.join();

  OverloadPoint pt;
  pt.producers = producers;
  for (auto& stripe : futures) {
    for (std::future<serve::InferenceResult>& f : stripe) {
      ++pt.submitted;
      try {
        f.get();
        ++pt.ok;
      } catch (const serve::ServerOverloaded&) {
        ++pt.shed;
      } catch (const serve::DeadlineExceeded&) {
        ++pt.deadline_missed;
      } catch (...) {
        ++pt.failed;
      }
    }
  }

  const serve::ServeMetricsSnapshot s = server.metrics().Snapshot();
  pt.qps = s.qps;
  pt.queue_high_water = static_cast<int64_t>(server.queue_high_water());
  pt.to_degraded =
      s.health_transitions[static_cast<int>(serve::HealthState::kDegraded)];
  pt.to_shedding =
      s.health_transitions[static_cast<int>(serve::HealthState::kShedding)];
  return pt;
}

}  // namespace

int main(int argc, char** argv) {
  std::string json_path;
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--json") == 0 && i + 1 < argc) {
      json_path = argv[++i];
    }
  }

  const BenchEnv env = BenchEnv::FromEnvironment();
  PrintHeader("serve_throughput",
              "serving QPS/latency vs micro-batch cap (src/serve/)", env);

  SweepModelConfig cfg;
  cfg.spec = KaggleSpec().Scaled(env.scale_div);
  cfg.num_tt_tables = 3;
  cfg.use_cache = true;
  cfg.dlrm = BenchDlrmConfig(env);
  Rng rng(17);
  // Shared (not unique) ownership so the ShardRouter gate below can pin the
  // model the same way the sharded server does.
  std::shared_ptr<DlrmModel> model = BuildSweepModel(cfg, rng);

  SyntheticCriteoConfig data_cfg = BenchDataConfig(cfg.spec, /*seed=*/23);
  SyntheticCriteo data(data_cfg);

  // Warm the LFU caches through the training-path forward, then freeze.
  std::vector<float> warm_logits(static_cast<size_t>(env.batch_size));
  for (int64_t i = 0; i < cfg.warmup_iterations + 5; ++i) {
    model->PredictLogits(data.NextBatch(env.batch_size), warm_logits.data());
  }

  const int64_t num_requests = env.full ? 4096 : 768;
  std::vector<serve::InferenceRequest> requests;
  std::vector<float> reference(static_cast<size_t>(num_requests));
  {
    const MiniBatch trace = data.EvalBatch(num_requests, /*eval_seed=*/5);
    requests = serve::SplitSamples(trace);

    // Correctness gate: serve the whole trace through a batching server and
    // compare every logit bitwise against a sequential session.
    serve::InferenceSession sequential(*model);
    for (size_t i = 0; i < requests.size(); ++i) {
      MiniBatch one;
      one.dense = requests[i].dense;
      one.sparse = requests[i].sparse;
      one.labels.assign(1, 0.0f);
      sequential.Run(one, &reference[i]);
    }
    serve::InferenceServerConfig scfg;
    scfg.max_batch_size = 64;
    serve::InferenceServer server(*model, scfg);
    std::vector<std::future<serve::InferenceResult>> futures;
    futures.reserve(requests.size());
    for (const serve::InferenceRequest& req : requests) {
      serve::InferenceRequest copy;
      copy.dense = req.dense;
      copy.sparse = req.sparse;
      futures.push_back(server.Submit(std::move(copy)));
    }
    int64_t mismatches = 0;
    double max_batch_seen = 0;
    for (size_t i = 0; i < futures.size(); ++i) {
      const serve::InferenceResult res = futures[i].get();
      if (res.logits.size() != 1 || res.logits[0] != reference[i]) {
        ++mismatches;
      }
      max_batch_seen =
          std::max(max_batch_seen, static_cast<double>(res.micro_batch_size));
    }
    std::printf("bitwise check: %" PRId64 " requests, %" PRId64
                " mismatches vs sequential (largest micro-batch %.0f) -> %s\n\n",
                num_requests, mismatches, max_batch_seen,
                mismatches == 0 ? "OK" : "FAILED");
    if (mismatches != 0) return 1;
  }

  // Sharded correctness gate: the router's fan-out/join must reproduce the
  // single-process logits bitwise for every partition strategy and shard
  // count — same trace, same sequential reference as the gate above.
  {
    const std::shared_ptr<const DlrmModel> cmodel = model;
    const MiniBatch trace = data.EvalBatch(num_requests, /*eval_seed=*/5);
    int64_t mismatches = 0;
    for (const shard::PartitionStrategy strategy :
         {shard::PartitionStrategy::kTable,
          shard::PartitionStrategy::kRowRange}) {
      for (const int num_shards : {1, 2, 4}) {
        auto plan = std::make_shared<const shard::ShardPlan>(
            shard::MakeShardPlanForModel(*cmodel, strategy, num_shards));
        shard::ShardRouter router(cmodel, plan,
                                  shard::BuildShards(cmodel, plan));
        std::vector<float> out(static_cast<size_t>(num_requests));
        router.Run(trace, out.data());
        for (size_t i = 0; i < out.size(); ++i) {
          if (std::memcmp(&out[i], &reference[i], sizeof(float)) != 0) {
            ++mismatches;
          }
        }
      }
    }
    std::printf("sharded bitwise check: strategies {table,row} x shards "
                "{1,2,4}, %" PRId64 " mismatches vs single-process -> %s\n\n",
                mismatches, mismatches == 0 ? "OK" : "FAILED");
    if (mismatches != 0) return 1;
  }

  // Enough closed-loop clients to saturate the largest micro-batch cap —
  // offered concurrency bounds the reachable batch size.
  const int producers = 32;
  std::printf("closed-loop producers: %d, requests per point: %" PRId64 "\n",
              producers, num_requests);
  std::printf("%-10s %10s %10s %10s %10s %12s\n", "max_batch", "qps", "p50_us",
              "p95_us", "p99_us", "mean_batch");
  double qps_unbatched = 0.0;
  double qps_best = 0.0;
  std::vector<SweepPoint> points;
  for (const int64_t max_batch : {1, 8, 32, 128}) {
    const SweepPoint pt = RunPoint(*model, requests, max_batch, producers);
    if (max_batch == 1) qps_unbatched = pt.qps;
    qps_best = std::max(qps_best, pt.qps);
    points.push_back(pt);
    std::printf("%-10" PRId64 " %10.0f %10.0f %10.0f %10.0f %12.1f\n",
                pt.max_batch, pt.qps, pt.p50_us, pt.p95_us, pt.p99_us,
                pt.mean_batch);
  }
  const double speedup =
      qps_unbatched > 0.0 ? qps_best / qps_unbatched : 0.0;
  std::printf("\nmicro-batching speedup over one-at-a-time: %.2fx\n",
              speedup);

  // Overload sweep: open-loop offered load vs graceful degradation. Every
  // submitted request resolves — as logits, a typed ServerOverloaded shed,
  // or a typed DeadlineExceeded miss — and "other" failures must be zero.
  const auto deadline_budget = std::chrono::milliseconds(env.full ? 100 : 50);
  std::printf("\noverload sweep (open-loop, queue capacity 128, "
              "reject-when-full, %lld ms deadline):\n",
              static_cast<long long>(deadline_budget.count()));
  std::printf("%-10s %10s %10s %10s %10s %12s %12s\n", "producers", "qps",
              "ok", "shed", "missed", "shed_rate", "miss_rate");
  std::vector<OverloadPoint> overload_points;
  bool overload_clean = true;
  for (const int producers_at : {2, 8, 32}) {
    const OverloadPoint pt = RunOverloadPoint(
        *model, requests, producers_at,
        std::chrono::duration_cast<std::chrono::microseconds>(deadline_budget));
    overload_points.push_back(pt);
    overload_clean = overload_clean && pt.failed == 0 &&
                     pt.ok + pt.shed + pt.deadline_missed == pt.submitted;
    std::printf("%-10d %10.0f %10" PRId64 " %10" PRId64 " %10" PRId64
                " %11.1f%% %11.1f%%\n",
                pt.producers, pt.qps, pt.ok, pt.shed, pt.deadline_missed,
                100.0 * pt.shed_rate(), 100.0 * pt.miss_rate());
  }
  std::printf("every rejection typed (no untyped failures) -> %s\n",
              overload_clean ? "OK" : "FAILED");
  if (!overload_clean) return 1;

  // Shard scaling sweep. Four equal uncached TT tables with a high pooling
  // factor make the workload embedding-bound, and table partitioning keeps
  // every bag on the single-owner fast path — each shard runs the
  // unmodified pooled kernel on its own tables, so the sweep isolates the
  // router's split/fan-out/join cost. (Row-range sharding of bags that span
  // the whole table is the all-to-all worst case — every bag pays a raw-row
  // fetch and a router-side join — and is covered by the correctness gate,
  // not chased for throughput here.)
  SweepModelConfig shard_cfg;
  shard_cfg.spec.name = "shard_sweep";
  shard_cfg.spec.table_rows.assign(4, env.full ? 250000 : 100000);
  shard_cfg.num_tt_tables = 4;
  shard_cfg.tt_rank = 32;
  shard_cfg.use_cache = false;
  shard_cfg.dlrm = BenchDlrmConfig(env);
  Rng shard_rng(29);
  const std::unique_ptr<DlrmModel> shard_model =
      BuildSweepModel(shard_cfg, shard_rng);
  const int64_t shard_pooling = 256;
  SyntheticCriteo shard_data(
      BenchDataConfig(shard_cfg.spec, /*seed=*/31, shard_pooling));
  const int64_t num_shard_requests = env.full ? 1024 : 256;
  const std::vector<serve::InferenceRequest> shard_requests =
      serve::SplitSamples(shard_data.EvalBatch(num_shard_requests,
                                               /*eval_seed=*/7));
  const int host_cpus =
      static_cast<int>(std::max(1u, std::thread::hardware_concurrency()));
  std::printf("\nshard sweep (table partition, 4 x %lld-row TT tables, "
              "pooling factor %lld, one pool worker per shard):\n",
              static_cast<long long>(shard_cfg.spec.table_rows[0]),
              static_cast<long long>(shard_pooling));
  if (host_cpus < 4) {
    std::printf("note: host has %d CPU(s); shard speedups are capped by the "
                "host, expect a flat curve below %d shards' worth of cores\n",
                host_cpus, host_cpus);
  }
  std::printf("%-10s %10s %10s %10s %10s\n", "shards", "qps", "p50_us",
              "p95_us", "speedup");
  std::vector<ShardPoint> shard_points;
  double qps_one_shard = 0.0;
  for (const int num_shards : {1, 2, 4}) {
    const ShardPoint pt =
        RunShardPoint(*shard_model, shard_requests, num_shards, producers);
    if (num_shards == 1) qps_one_shard = pt.qps;
    shard_points.push_back(pt);
    std::printf("%-10d %10.0f %10.0f %10.0f %9.2fx\n", pt.num_shards, pt.qps,
                pt.p50_us, pt.p95_us,
                qps_one_shard > 0.0 ? pt.qps / qps_one_shard : 0.0);
  }

  if (!json_path.empty()) {
    obs::JsonWriter w;
    obs::BeginBenchEnvelope(w, "serve_throughput");
    w.Key("config").BeginObject();
    w.Kv("num_requests", num_requests);
    w.Kv("producers", producers);
    w.Kv("num_tt_tables", cfg.num_tt_tables);
    w.Kv("use_cache", cfg.use_cache);
    w.EndObject();
    w.Key("points").BeginArray();
    for (const SweepPoint& pt : points) {
      w.BeginObject();
      w.Kv("max_batch", pt.max_batch);
      w.Kv("qps", pt.qps, 1);
      w.Kv("p50_us", pt.p50_us, 1);
      w.Kv("p95_us", pt.p95_us, 1);
      w.Kv("p99_us", pt.p99_us, 1);
      w.Kv("mean_batch_size", pt.mean_batch, 2);
      w.EndObject();
    }
    w.EndArray();
    w.Kv("speedup_vs_unbatched", speedup, 3);
    w.Key("overload").BeginObject();
    w.Key("config").BeginObject();
    w.Kv("queue_capacity", static_cast<int64_t>(128));
    w.Kv("admission", "reject_when_full");
    w.Kv("deadline_budget_ms", static_cast<int64_t>(deadline_budget.count()));
    w.EndObject();
    w.Key("points").BeginArray();
    for (const OverloadPoint& pt : overload_points) {
      w.BeginObject();
      w.Kv("producers", static_cast<int64_t>(pt.producers));
      w.Kv("submitted", pt.submitted);
      w.Kv("ok", pt.ok);
      w.Kv("shed", pt.shed);
      w.Kv("deadline_missed", pt.deadline_missed);
      w.Kv("qps", pt.qps, 1);
      w.Kv("shed_rate", pt.shed_rate(), 4);
      w.Kv("deadline_miss_rate", pt.miss_rate(), 4);
      w.Kv("queue_high_water", pt.queue_high_water);
      w.Kv("to_degraded", pt.to_degraded);
      w.Kv("to_shedding", pt.to_shedding);
      w.EndObject();
    }
    w.EndArray();
    w.EndObject();
    w.Key("shards").BeginObject();
    w.Key("config").BeginObject();
    w.Kv("num_tables", static_cast<int64_t>(shard_cfg.spec.num_tables()));
    w.Kv("table_rows", shard_cfg.spec.table_rows[0]);
    w.Kv("tt_rank", shard_cfg.tt_rank);
    w.Kv("pooling_factor", shard_pooling);
    w.Kv("partition", "table");
    w.Kv("workers_per_shard", static_cast<int64_t>(1));
    // Speedup is capped by min(num_shards, host_cpus); emit the cap so the
    // perf trajectory can tell a small host from a sharding regression.
    w.Kv("host_cpus", static_cast<int64_t>(host_cpus));
    w.Kv("num_requests", num_shard_requests);
    w.EndObject();
    // The sharded-vs-single bitwise gate ran before the sweeps; reaching
    // this writer means it passed for every strategy x shard count combo.
    w.Kv("identity_ok", true);
    w.Key("points").BeginArray();
    for (const ShardPoint& pt : shard_points) {
      w.BeginObject();
      w.Kv("num_shards", static_cast<int64_t>(pt.num_shards));
      w.Kv("qps", pt.qps, 1);
      w.Kv("p50_us", pt.p50_us, 1);
      w.Kv("p95_us", pt.p95_us, 1);
      w.Kv("speedup_vs_one_shard",
           qps_one_shard > 0.0 ? pt.qps / qps_one_shard : 0.0, 3);
      w.EndObject();
    }
    w.EndArray();
    w.EndObject();
    w.EndObject();
    std::FILE* f = std::fopen(json_path.c_str(), "w");
    if (f == nullptr) {
      std::fprintf(stderr, "cannot open %s for writing\n", json_path.c_str());
      return 1;
    }
    std::fwrite(w.str().data(), 1, w.str().size(), f);
    std::fputc('\n', f);
    std::fclose(f);
    std::printf("wrote %s\n", json_path.c_str());
  }
  return 0;
}
