// google-benchmark microbenchmarks for the hot kernels: GEMM,
// TT-EmbeddingBag forward/backward, row materialization, cache probes, and
// Zipf sampling. These are the building blocks behind Figures 7/8/11/12.
// Compute kernels report achieved FLOP/s and bytes/s counters, not just
// wall time.
//
// `--json out.json` switches to the machine-readable sweep behind the
// BENCH_kernels.json artifact CI uploads: a thread-count sweep of the
// block-parallel TT kernels (GFLOP/s and lookups/s per pool size, plus a
// cross-thread determinism check) and a SIMD-tier sweep (scalar vs AVX2 vs
// AVX-512 on the TT GEMM chain, the pooled forward, the DLRM dot
// interaction's forward plus backward at a training batch and at one
// serving sample, the top MLP's NT GEMM, and the last TT core's backward
// shapes — its NN and TN GEMMs with n = 4 and a 32 x 64 slice transpose —
// with speedups over the scalar tier), plus the cached tables' lookahead
// bookkeeping at the train_cached_shift shape (the prefetch plans of one
// batch, one PrefetchRows call with a 3-plan window on its 200k-row table,
// and one step's PrefetchRows calls over all four tables, with the tracker
// frozen after warm-up and with track_after_warmup), the checkpoint
// CRC32's rate, and the sampled-Gaussian init (Algorithm 3) of the
// train_tt tables with its uniform pairs and Box-Muller transforms per
// core entry.
// The envelope stamps the CPU model, the build type and the dispatch tier
// so the numbers are attributable.
//
// `--digest` prints one FNV-1a line per tier and kernel-table entry over
// that entry's outputs on a fixed sweep, plus one line over sampled-Gaussian
// TT cores (PrintKernelDigests), then exits: diffing the lines of two
// builds shows whether their kernels and their initializer agree bit for
// bit. All other flags pass through to google-benchmark.
#include <benchmark/benchmark.h>

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <cstring>
#include <iterator>
#include <limits>
#include <memory>
#include <span>
#include <string>
#include <thread>
#include <vector>

#include "cache/cached_tt_embedding.h"
#include "cache/freq_tracker.h"
#include "cache/lfu_cache.h"
#include "data/csr_batch.h"
#include "data/skew_shift_source.h"
#include "data/table_specs.h"
#include "dlrm/train_stages.h"
#include "obs/json_writer.h"
#include "tensor/cpu_features.h"
#include "tensor/gemm.h"
#include "tensor/parallel.h"
#include "tensor/random.h"
#include "tensor/serialize.h"
#include "tt/tt_embedding.h"
#include "tt/tt_shapes.h"

namespace ttrec {
namespace {

/// Attaches achieved-rate counters: google-benchmark divides kIsRate
/// counters by wall time, so pass totals across all iterations.
void SetRateCounters(benchmark::State& state, int64_t flops_per_iter,
                     int64_t bytes_per_iter) {
  state.counters["FLOP/s"] = benchmark::Counter(
      static_cast<double>(flops_per_iter * state.iterations()),
      benchmark::Counter::kIsRate);
  state.counters["bytes/s"] = benchmark::Counter(
      static_cast<double>(bytes_per_iter * state.iterations()),
      benchmark::Counter::kIsRate);
}

void BM_Gemm(benchmark::State& state) {
  const int64_t m = state.range(0);
  const int64_t n = state.range(1);
  const int64_t k = state.range(2);
  Rng rng(1);
  std::vector<float> a(static_cast<size_t>(m * k));
  std::vector<float> b(static_cast<size_t>(k * n));
  std::vector<float> c(static_cast<size_t>(m * n));
  FillUniform(rng, a, -1, 1);
  FillUniform(rng, b, -1, 1);
  for (auto _ : state) {
    Gemm(Trans::kNo, Trans::kNo, m, n, k, 1.0f, a.data(), b.data(), 0.0f,
         c.data());
    benchmark::DoNotOptimize(c.data());
  }
  state.SetItemsProcessed(state.iterations() * 2 * m * n * k);
  SetRateCounters(state, 2 * m * n * k,
                  (m * k + k * n + m * n) * static_cast<int64_t>(4));
}
BENCHMARK(BM_Gemm)
    ->Args({2, 64, 32})    // TT stage 1 of a 3-core dim-16 rank-32 table
    ->Args({4, 4, 32})     // TT stage 2 (ragged tail) of the same table
    ->Args({16, 128, 64})
    ->Args({64, 64, 64})
    ->Args({256, 256, 256});

TtEmbeddingBag MakeBenchEmbedding(int64_t rows, int64_t rank) {
  TtEmbeddingConfig cfg;
  cfg.shape = MakeTtShape(rows, 16, 3, rank);
  Rng rng(3);
  return TtEmbeddingBag(cfg, TtInit::kSampledGaussian, rng);
}

CsrBatch MakeLookupBatch(int64_t rows, int64_t batch) {
  Rng rng(4);
  std::vector<int64_t> idx(static_cast<size_t>(batch));
  for (int64_t& i : idx) i = rng.RandInt(rows);
  return CsrBatch::FromIndices(std::move(idx));
}

/// Algorithmic memory traffic of one lookup: the core slices its digits
/// select (read) plus the reconstructed row (write). Stage intermediates
/// are reused block scratch, not table traffic, so they are excluded on
/// purpose.
int64_t LookupBytes(const TtEmbeddingBag& emb) {
  int64_t bytes = emb.emb_dim() * static_cast<int64_t>(sizeof(float));
  for (int k = 0; k < emb.cores().num_cores(); ++k) {
    bytes += emb.cores().SliceSize(k) * static_cast<int64_t>(sizeof(float));
  }
  return bytes;
}

void BM_TtEmbeddingForward(benchmark::State& state) {
  const int64_t rows = 1000000;
  const int64_t rank = state.range(0);
  const int64_t batch = state.range(1);
  TtEmbeddingBag emb = MakeBenchEmbedding(rows, rank);
  CsrBatch lookup = MakeLookupBatch(rows, batch);
  std::vector<float> out(static_cast<size_t>(batch * 16));
  const int64_t flops_before = emb.stats().forward_flops;
  for (auto _ : state) {
    emb.Forward(lookup, out.data());
    benchmark::DoNotOptimize(out.data());
  }
  state.SetItemsProcessed(state.iterations() * batch);
  const int64_t flops_per_iter =
      state.iterations() > 0
          ? (emb.stats().forward_flops - flops_before) / state.iterations()
          : 0;
  SetRateCounters(state, flops_per_iter, batch * LookupBytes(emb));
}
BENCHMARK(BM_TtEmbeddingForward)
    ->Args({8, 512})
    ->Args({32, 512})
    ->Args({64, 512})
    ->Args({32, 4096});

void BM_TtEmbeddingBackwardSgd(benchmark::State& state) {
  const int64_t rows = 1000000;
  const int64_t rank = state.range(0);
  const int64_t batch = 512;
  TtEmbeddingBag emb = MakeBenchEmbedding(rows, rank);
  CsrBatch lookup = MakeLookupBatch(rows, batch);
  std::vector<float> out(static_cast<size_t>(batch * 16));
  std::vector<float> grad(out.size(), 1.0f);
  emb.Forward(lookup, out.data());
  const int64_t flops_before = emb.stats().backward_flops;
  for (auto _ : state) {
    emb.Backward(lookup, grad.data());
    emb.ApplySgd(0.01f);
  }
  state.SetItemsProcessed(state.iterations() * batch);
  const int64_t flops_per_iter =
      state.iterations() > 0
          ? (emb.stats().backward_flops - flops_before) / state.iterations()
          : 0;
  SetRateCounters(state, flops_per_iter, 2 * batch * LookupBytes(emb));
}
BENCHMARK(BM_TtEmbeddingBackwardSgd)->Arg(8)->Arg(32)->Arg(64);

void BM_MaterializeRow(benchmark::State& state) {
  TtEmbeddingBag emb = MakeBenchEmbedding(1000000, state.range(0));
  std::vector<float> row(16);
  int64_t i = 0;
  for (auto _ : state) {
    emb.cores().MaterializeRow(i % 1000000, row.data());
    i += 7919;
    benchmark::DoNotOptimize(row.data());
  }
  state.counters["bytes/s"] =
      benchmark::Counter(static_cast<double>(LookupBytes(emb)) *
                             static_cast<double>(state.iterations()),
                         benchmark::Counter::kIsRate);
}
BENCHMARK(BM_MaterializeRow)->Arg(8)->Arg(32)->Arg(64);

void BM_FreqTrackerIncrement(benchmark::State& state) {
  FreqTracker tracker;
  Rng rng(5);
  ZipfSampler zipf(1000000, 1.15);
  for (auto _ : state) {
    tracker.Increment(zipf.Sample(rng));
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_FreqTrackerIncrement);

void BM_LfuCacheFind(benchmark::State& state) {
  const int64_t cap = 1024;
  LfuRowCache cache(cap, 16);
  std::vector<int64_t> rows(static_cast<size_t>(cap));
  for (int64_t i = 0; i < cap; ++i) rows[static_cast<size_t>(i)] = i * 3;
  std::vector<float> vals(static_cast<size_t>(cap * 16), 1.0f);
  cache.Populate(rows, vals.data());
  Rng rng(6);
  for (auto _ : state) {
    benchmark::DoNotOptimize(cache.Peek(rng.RandInt(4096)));
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_LfuCacheFind);

void BM_ZipfSample(benchmark::State& state) {
  ZipfSampler zipf(state.range(0), 1.15);
  Rng rng(7);
  for (auto _ : state) {
    benchmark::DoNotOptimize(zipf.Sample(rng));
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_ZipfSample)->Arg(10000)->Arg(10000000);

using Clock = std::chrono::steady_clock;

double MsSince(Clock::time_point t0) {
  return std::chrono::duration<double, std::milli>(Clock::now() - t0).count();
}

// One SIMD tier's measurements at a fixed thread count: the raw TT GEMM
// chain (LookupRows — decode + bucketed GEMMs, no pooling), the pooled
// forward, the dot interaction (PairwiseDots + PairwiseDotsBackward) at
// two batch sizes, the top MLP's first-layer forward GEMM (NT), the TT
// backward's slice transpose, and NN / TN GEMMs of the last core's shape.
struct TierRow {
  SimdTier tier = SimdTier::kScalar;
  double chain_ms = 0.0, chain_gflops = 0.0, chain_gbytes = 0.0;
  double fwd_ms = 0.0, fwd_gflops = 0.0, fwd_lookups_per_s = 0.0;
  double inter_batch_us = 0.0, inter_one_us = 0.0;
  double nt_us = 0.0, nt_gflops = 0.0;
  double transpose_us = 0.0, nn4_us = 0.0, tn4_us = 0.0;
};

// The train_tt interaction (26 tables + the bottom MLP, emb_dim 16) and the
// top MLP's first layer (interaction width 16 + 351 = 367 -> 64).
constexpr int64_t kInterFeatures = 27;
constexpr int64_t kInterDim = 16;
constexpr int64_t kInterBatch = 512;
constexpr int64_t kNtM = 512, kNtN = 64, kNtK = 367;
// A middle-core slice of a rank-32 table whose middle column factor is 2
// (R x n_1 R = 32 x 64), transposed once per bucket by the TT backward; and
// the last core's products at n = n_2 R_3 = 4: the forward's last stage
// (NN, 8 lookups of 4 rows each over k = R = 32) and the backward's slice
// gradient (TN, m = R = 32 over a stacked k of 32).
constexpr int64_t kTransposeRows = 32, kTransposeCols = 64;
constexpr int64_t kLastM = 32, kLastN = 4, kLastK = 32;

// The lookahead bookkeeping of train_cached_shift (4 cached rank-32 TT
// tables of 200k/100k/50k/20k rows, 32 lookups per sample, batch 256,
// depth 2, 2,048-row caches, a 20-step warm-up refreshed every 10), on one
// seed of its stream.
/// One step's PrefetchRows calls over every table of the stream.
struct PrefetchStepRow {
  int64_t steps = 0;
  double us_per_step = 0.0, admitted_per_step = 0.0;
};

struct LookaheadRow {
  int64_t batches = 0;
  double lookups_per_batch = 0.0, plan_rows_per_batch = 0.0;
  double generate_us = 0.0, plan_us = 0.0, plan_comparison_sort_us = 0.0;
  bool plans_equal = true;
  int64_t prefetch_calls = 0;
  double prefetch_us = 0.0, admitted_per_call = 0.0, window_rows_per_call = 0.0;
  PrefetchStepRow step_frozen, step_tracking;
};

constexpr int64_t kShiftBatch = 256;
constexpr int64_t kShiftCache = 2048;
constexpr int64_t kShiftWarmup = 20;
constexpr int kShiftWindow = 3;  // depth 2: the batch about to train + 2
constexpr int64_t kShiftRows[] = {200000, 100000, 50000, 20000};

CachedTtConfig ShiftCacheConfig(int64_t rows, bool track_after_warmup) {
  CachedTtConfig cc;
  cc.tt.shape = MakeTtShape(rows, 16, 3, 32);
  cc.cache_capacity = kShiftCache;
  cc.warmup_iterations = kShiftWarmup;
  cc.refresh_interval = 10;
  cc.track_after_warmup = track_after_warmup;
  return cc;
}

/// The trainer's schedule on every table: before step i, PrefetchRows with
/// the plans of batches i..i+2, then the step's Forward. The calls after
/// the warm-up are timed and summed per step; the fastest rep counts.
PrefetchStepRow MeasurePrefetchStep(
    const std::vector<MiniBatch>& batches,
    const std::vector<std::vector<int64_t>>& plans, bool track_after_warmup,
    int reps) {
  const size_t T = std::size(kShiftRows);
  const int64_t n_batches = static_cast<int64_t>(batches.size());
  PrefetchStepRow row;
  row.us_per_step = std::numeric_limits<double>::infinity();
  for (int r = 0; r < reps; ++r) {
    std::vector<std::unique_ptr<CachedTtEmbeddingBag>> tables;
    Rng rng(5);
    for (const int64_t rows : kShiftRows) {
      tables.push_back(std::make_unique<CachedTtEmbeddingBag>(
          ShiftCacheConfig(rows, track_after_warmup),
          TtInit::kSampledGaussian, rng));
    }
    std::vector<float> out(static_cast<size_t>(kShiftBatch * 16));
    std::vector<std::span<const int64_t>> window(kShiftWindow);
    double total_ms = 0.0;
    int64_t steps = 0, admitted = 0;
    for (int64_t i = 0; i + kShiftWindow <= n_batches; ++i) {
      double step_ms = 0.0;
      for (size_t t = 0; t < T; ++t) {
        for (int k = 0; k < kShiftWindow; ++k) {
          window[static_cast<size_t>(k)] =
              plans[static_cast<size_t>(i + k) * T + t];
        }
        const auto t0 = Clock::now();
        const int64_t got = tables[t]->PrefetchRows(window);
        step_ms += MsSince(t0);
        if (i > kShiftWarmup) admitted += got;
        tables[t]->Forward(batches[static_cast<size_t>(i)].sparse[t],
                           out.data());
      }
      if (i > kShiftWarmup) {
        total_ms += step_ms;
        ++steps;
      }
    }
    row.steps = steps;
    row.us_per_step = std::min(row.us_per_step, 1e3 * total_ms / steps);
    row.admitted_per_step = static_cast<double>(admitted) / steps;
  }
  return row;
}

LookaheadRow MeasureLookahead(int reps) {
  SkewShiftSourceConfig c;
  c.scenario.tables = {{200000, 1.2, 4.0},
                       {100000, 1.1, 2.0},
                       {50000, 1.05, 1.0},
                       {20000, 1.0, 1.0}};
  c.scenario.lookups_per_iteration = 32;
  c.scenario.phase_length = 100 * kShiftBatch;
  c.scenario.seed = 3;
  const size_t T = c.scenario.tables.size();
  LookaheadRow row;
  row.batches = 200;
  // Generation: the producer's other half, the same stream each rep.
  std::vector<MiniBatch> batches;
  row.generate_us = std::numeric_limits<double>::infinity();
  for (int r = 0; r < reps; ++r) {
    SkewShiftBatchSource source(c);
    batches.clear();
    const auto t0 = Clock::now();
    for (int64_t i = 0; i < row.batches; ++i) {
      batches.push_back(source.NextBatch(kShiftBatch));
    }
    row.generate_us = std::min(
        row.generate_us, 1e3 * MsSince(t0) / static_cast<double>(row.batches));
  }

  // Plans: every table's sorted unique rows, per batch, as the lookahead
  // stage builds them, against the comparison sort it replaced.
  // Batch-major, T per batch; table 0's feed the prefetch below.
  std::vector<std::vector<int64_t>> plans;
  const auto build_plans = [&](bool radix) {
    std::vector<std::vector<int64_t>> out;
    for (const MiniBatch& b : batches) {
      for (const CsrBatch& bag : b.sparse) {
        std::vector<int64_t> plan = bag.indices;
        if (radix) {
          SortUniqueIds(plan);
        } else {
          std::sort(plan.begin(), plan.end());
          plan.erase(std::unique(plan.begin(), plan.end()), plan.end());
        }
        out.push_back(std::move(plan));
      }
    }
    return out;
  };
  row.plan_us = row.plan_comparison_sort_us =
      std::numeric_limits<double>::infinity();
  for (int r = 0; r < reps; ++r) {
    for (const bool radix : {true, false}) {
      const auto t0 = Clock::now();
      const std::vector<std::vector<int64_t>> built = build_plans(radix);
      const double us = 1e3 * MsSince(t0) / static_cast<double>(row.batches);
      double& best = radix ? row.plan_us : row.plan_comparison_sort_us;
      best = std::min(best, us);
      if (radix) {
        plans = built;
      } else {
        row.plans_equal = row.plans_equal && built == plans;
      }
    }
  }
  int64_t lookups = 0, plan_rows = 0;
  for (size_t i = 0; i < plans.size(); ++i) {
    lookups += batches[i / T].sparse[i % T].num_lookups();
    plan_rows += static_cast<int64_t>(plans[i].size());
  }
  row.lookups_per_batch = static_cast<double>(lookups) / row.batches;
  row.plan_rows_per_batch = static_cast<double>(plan_rows) / row.batches;

  // PrefetchRows on the 200k-row table: the warm-up window trains (its
  // refreshes fill the cache and leave the tracker's counts), then every
  // later step hands over the next three plans; the calls after the
  // warm-up are timed, phase shift included.
  row.prefetch_us = std::numeric_limits<double>::infinity();
  for (int r = 0; r < reps; ++r) {
    Rng rng(5);
    CachedTtEmbeddingBag emb(ShiftCacheConfig(kShiftRows[0], false),
                             TtInit::kSampledGaussian, rng);
    std::vector<float> out(static_cast<size_t>(kShiftBatch * 16));
    double total_ms = 0.0;
    int64_t calls = 0, admitted = 0, window_rows = 0;
    for (int64_t i = 0; i + kShiftWindow <= row.batches; ++i) {
      std::vector<std::span<const int64_t>> window;
      for (int k = 0; k < kShiftWindow; ++k) {
        window.emplace_back(plans[static_cast<size_t>(i + k) * T]);
      }
      const auto t0 = Clock::now();
      const int64_t got = emb.PrefetchRows(window);
      const double ms = MsSince(t0);
      if (i > kShiftWarmup) {
        total_ms += ms;
        ++calls;
        admitted += got;
        for (const auto& plan : window) {
          window_rows += static_cast<int64_t>(plan.size());
        }
      }
      emb.Forward(batches[static_cast<size_t>(i)].sparse[0], out.data());
    }
    row.prefetch_calls = calls;
    row.prefetch_us = std::min(row.prefetch_us, 1e3 * total_ms / calls);
    row.admitted_per_call = static_cast<double>(admitted) / calls;
    row.window_rows_per_call = static_cast<double>(window_rows) / calls;
  }
  row.step_frozen = MeasurePrefetchStep(batches, plans, false, reps);
  row.step_tracking = MeasurePrefetchStep(batches, plans, true, reps);
  return row;
}

/// Crc32 over a 3 MiB buffer of random bytes, about the size of the
/// train_cached_shift snapshot with its caches full: the fastest of `reps`.
struct Crc32Row {
  int64_t bytes = 0;
  double us = 0.0, gbytes_per_s = 0.0;
};

Crc32Row MeasureCrc32(int reps) {
  Crc32Row row;
  row.bytes = 3 << 20;
  std::vector<unsigned char> buf(static_cast<size_t>(row.bytes));
  Rng rng(29);
  for (unsigned char& b : buf) b = static_cast<unsigned char>(rng.RandInt(256));
  row.us = std::numeric_limits<double>::infinity();
  for (int r = 0; r < reps; ++r) {
    const auto t0 = Clock::now();
    benchmark::DoNotOptimize(Crc32(buf.data(), buf.size()));
    row.us = std::min(row.us, 1e3 * MsSince(t0));
  }
  row.gbytes_per_s = static_cast<double>(row.bytes) / (row.us * 1e3);
  return row;
}

/// Sampled-Gaussian init of the seven train_tt tables (the largest Kaggle
/// tables scaled by 1/16, three cores, dim 16, rank 32) from one Rng at
/// the default threshold: the fastest of `reps`, and the uniform pairs the
/// init drew and those with u1 < e^(-t^2/2), the only pairs whose radius
/// can exceed t and so the ones that need Box-Muller's transform.
struct InitRow {
  double threshold = 2.0;
  uint64_t seed = 7;
  int64_t tables = 0, entries = 0;
  double ms = 0.0, ns_per_entry = 0.0;
  double pairs_per_entry = 0.0, box_mullers_per_entry = 0.0;
};

InitRow MeasureInit(int reps) {
  InitRow row;
  const DatasetSpec spec = KaggleSpec().Scaled(16);
  std::vector<TtCores> cores;
  for (int t : spec.LargestTables(7)) {
    cores.emplace_back(
        MakeTtShape(spec.table_rows[static_cast<size_t>(t)], 16, 3, 32));
    row.entries += cores.back().TotalParams();
  }
  row.tables = static_cast<int64_t>(cores.size());
  uint64_t end[4];
  row.ms = std::numeric_limits<double>::infinity();
  for (int r = 0; r < reps; ++r) {
    Rng rng(row.seed);
    const auto t0 = Clock::now();
    for (TtCores& c : cores) {
      InitializeTtCores(c, TtInit::kSampledGaussian, rng, row.threshold);
    }
    row.ms = std::min(row.ms, MsSince(t0));
    rng.GetState(end);
  }
  row.ns_per_entry = 1e6 * row.ms / static_cast<double>(row.entries);

  // Replay the init's draws pair by pair until the engine reaches the
  // state the init left.
  const double edge = std::exp(-0.5 * row.threshold * row.threshold);
  Rng replay(row.seed);
  int64_t pairs = 0, transforms = 0;
  for (;;) {
    uint64_t s[4];
    replay.GetState(s);
    if (std::equal(s, s + 4, end)) break;
    double u1;
    do {
      u1 = replay.NextDouble();
    } while (u1 <= 0.0);
    replay.NextDouble();
    ++pairs;
    if (u1 < edge) ++transforms;
  }
  const auto entries = static_cast<double>(row.entries);
  row.pairs_per_entry = static_cast<double>(pairs) / entries;
  row.box_mullers_per_entry = static_cast<double>(transforms) / entries;
  return row;
}

// --json mode: the Criteo-shape sweeps described in the file comment.
int RunKernelJsonSweep(const std::string& path) {
  const int64_t rows = 1000000;
  const int64_t rank = 32;
  const int64_t batch = 4096;
  const std::vector<int> thread_counts = {1, 2, 4, 8};
  const int reps = 5;

  struct SweepRow {
    int threads = 0;
    double fwd_ms = 0.0, fwd_gflops = 0.0, fwd_lookups_per_s = 0.0;
    double fwdbwd_ms = 0.0, fwdbwd_gflops = 0.0, fwdbwd_lookups_per_s = 0.0;
  };
  std::vector<SweepRow> rowsout;
  std::vector<float> ref_out;
  bool deterministic = true;
  int64_t block_size = 0;

  // The thread sweep runs on whatever tier dispatch resolved (including a
  // TTREC_SIMD override) — that tier is stamped into the envelope.
  const SimdTier sweep_tier = ActiveSimdTier();

  for (int threads : thread_counts) {
    ThreadPool::SetGlobalThreads(threads);
    TtEmbeddingBag emb = MakeBenchEmbedding(rows, rank);
    block_size = emb.config().block_size;
    CsrBatch lookup = MakeLookupBatch(rows, batch);
    std::vector<float> out(static_cast<size_t>(batch * 16));
    std::vector<float> grad(out.size(), 1.0f);

    emb.Forward(lookup, out.data());  // warm-up + determinism probe
    if (ref_out.empty()) {
      ref_out = out;
    } else if (std::memcmp(ref_out.data(), out.data(),
                           out.size() * sizeof(float)) != 0) {
      deterministic = false;
    }

    SweepRow row;
    row.threads = threads;
    const TtEmbeddingStats before_fwd = emb.stats();
    auto t0 = Clock::now();
    for (int i = 0; i < reps; ++i) emb.Forward(lookup, out.data());
    row.fwd_ms = MsSince(t0) / reps;
    const int64_t fwd_flops =
        (emb.stats().forward_flops - before_fwd.forward_flops) / reps;
    row.fwd_gflops = static_cast<double>(fwd_flops) / (row.fwd_ms * 1e6);
    row.fwd_lookups_per_s = static_cast<double>(batch) / (row.fwd_ms * 1e-3);

    const TtEmbeddingStats before_bwd = emb.stats();
    t0 = Clock::now();
    for (int i = 0; i < reps; ++i) {
      emb.Forward(lookup, out.data());
      emb.Backward(lookup, grad.data());
      emb.ApplySgd(0.01f);
    }
    row.fwdbwd_ms = MsSince(t0) / reps;
    const int64_t step_flops =
        (emb.stats().forward_flops - before_bwd.forward_flops +
         emb.stats().backward_flops - before_bwd.backward_flops) /
        reps;
    row.fwdbwd_gflops = static_cast<double>(step_flops) / (row.fwdbwd_ms * 1e6);
    row.fwdbwd_lookups_per_s =
        static_cast<double>(batch) / (row.fwdbwd_ms * 1e-3);
    rowsout.push_back(row);

    std::printf(
        "threads=%d  fwd %.2f ms (%.2f GFLOP/s)  fwd+bwd+sgd %.2f ms "
        "(%.2f GFLOP/s)\n",
        threads, row.fwd_ms, row.fwd_gflops, row.fwdbwd_ms,
        row.fwdbwd_gflops);
  }

  // --- SIMD-tier sweep: single thread so kernel speedups are not masked by
  // parallel scaling, and an L2-resident table (64K rows, ~350 KB of cores)
  // so they are not masked by slice-fetch memory traffic either — the 1M-row
  // thread sweep above already covers the memory-bound regime. min-of-reps
  // timing rejects scheduler/turbo noise. The same cores (identical seed)
  // serve every tier.
  ThreadPool::SetGlobalThreads(1);
  const int64_t tier_rows = 65536;
  const int tier_reps = 20;
  std::vector<TierRow> tiers;
  {
    TtEmbeddingBag emb = MakeBenchEmbedding(tier_rows, rank);
    CsrBatch lookup = MakeLookupBatch(tier_rows, batch);
    const std::vector<int64_t> indices(lookup.indices.begin(),
                                       lookup.indices.end());
    const int64_t chain_bytes = batch * LookupBytes(emb);
    std::vector<float> chain_out(static_cast<size_t>(batch * 16));
    std::vector<float> out(static_cast<size_t>(batch * 16));

    const auto min_ms = [&](auto&& fn) {
      fn();  // warm-up: page in buffers, settle the dispatch tier
      double best = std::numeric_limits<double>::infinity();
      for (int i = 0; i < tier_reps; ++i) {
        const auto t0 = Clock::now();
        fn();
        best = std::min(best, MsSince(t0));
      }
      return best;
    };

    // Interaction operands: feature blocks, its output and output
    // gradient, and the feature gradients; the one-sample series reads
    // sample 0 of the same blocks.
    Rng rng(29);
    const auto random_vec = [&rng](int64_t n) {
      std::vector<float> v(static_cast<size_t>(n));
      for (float& x : v) x = static_cast<float>(rng.Uniform(-1.0, 1.0));
      return v;
    };
    const int64_t inter_out_dim =
        kInterDim + kInterFeatures * (kInterFeatures - 1) / 2;
    std::vector<std::vector<float>> feats, feat_grads;
    std::vector<const float*> feat_ptrs;
    std::vector<float*> grad_ptrs;
    for (int64_t f = 0; f < kInterFeatures; ++f) {
      feats.push_back(random_vec(kInterBatch * kInterDim));
      feat_grads.emplace_back(static_cast<size_t>(kInterBatch * kInterDim));
    }
    for (int64_t f = 0; f < kInterFeatures; ++f) {
      feat_ptrs.push_back(feats[static_cast<size_t>(f)].data());
      grad_ptrs.push_back(feat_grads[static_cast<size_t>(f)].data());
    }
    std::vector<float> inter_out(
        static_cast<size_t>(kInterBatch * inter_out_dim));
    const std::vector<float> inter_grad =
        random_vec(kInterBatch * inter_out_dim);
    const auto interaction = [&](int64_t b) {
      PairwiseDots(kInterFeatures, kInterDim, feat_ptrs.data(), b,
                   inter_out.data());
      PairwiseDotsBackward(kInterFeatures, kInterDim, feat_ptrs.data(),
                           inter_grad.data(), b, grad_ptrs.data());
    };
    const std::vector<float> nt_a = random_vec(kNtM * kNtK);
    const std::vector<float> nt_b = random_vec(kNtN * kNtK);
    std::vector<float> nt_c(static_cast<size_t>(kNtM * kNtN));
    const std::vector<float> slice =
        random_vec(kTransposeRows * kTransposeCols);
    std::vector<float> slice_t(slice.size());
    const std::vector<float> last_a = random_vec(kLastM * kLastK);
    const std::vector<float> last_b = random_vec(kLastK * kLastN);
    std::vector<float> last_c(static_cast<size_t>(kLastM * kLastN));
    // The sub-microsecond kernels run this many times per timed sample.
    constexpr int kSmallCalls = 1000;
    const auto per_call_us = [&](auto&& fn) {
      return 1e3 *
             min_ms([&] {
               for (int i = 0; i < kSmallCalls; ++i) fn();
             }) /
             kSmallCalls;
    };

    const int detected = static_cast<int>(DetectedSimdTier());
    for (int t = 0; t <= detected; ++t) {
      const SimdTier tier = static_cast<SimdTier>(t);
      SetSimdTier(tier);
      TierRow row;
      row.tier = tier;

      // Forward runs the same chain, so its FLOP count per call
      // is the chain's (pooling adds are not counted). LookupRows itself
      // leaves stats() alone, so one Forward's delta supplies both rates.
      const int64_t flops0 = emb.stats().forward_flops;
      emb.Forward(lookup, out.data());
      const int64_t chain_flops = emb.stats().forward_flops - flops0;
      row.chain_ms = min_ms([&] { emb.LookupRows(indices, chain_out.data()); });
      row.chain_gflops =
          static_cast<double>(chain_flops) / (row.chain_ms * 1e6);
      row.chain_gbytes =
          static_cast<double>(chain_bytes) / (row.chain_ms * 1e6);

      row.fwd_ms = min_ms([&] { emb.Forward(lookup, out.data()); });
      row.fwd_gflops = static_cast<double>(chain_flops) / (row.fwd_ms * 1e6);
      row.fwd_lookups_per_s = static_cast<double>(batch) / (row.fwd_ms * 1e-3);

      row.inter_batch_us = 1e3 * min_ms([&] { interaction(kInterBatch); });
      row.inter_one_us = 1e3 * min_ms([&] { interaction(1); });
      row.nt_us = 1e3 * min_ms([&] {
        Gemm(Trans::kNo, Trans::kYes, kNtM, kNtN, kNtK, 1.0f, nt_a.data(),
             nt_b.data(), 0.0f, nt_c.data());
      });
      row.nt_gflops = 2.0 * kNtM * kNtN * kNtK / (row.nt_us * 1e3);
      row.transpose_us = per_call_us([&] {
        Transpose(kTransposeRows, kTransposeCols, slice.data(),
                  kTransposeCols, slice_t.data(), kTransposeRows);
        benchmark::DoNotOptimize(slice_t.data());
        benchmark::ClobberMemory();
      });
      row.nn4_us = per_call_us([&] {
        Gemm(Trans::kNo, Trans::kNo, kLastM, kLastN, kLastK, 1.0f,
             last_a.data(), last_b.data(), 0.0f, last_c.data());
        benchmark::DoNotOptimize(last_c.data());
        benchmark::ClobberMemory();
      });
      row.tn4_us = per_call_us([&] {
        Gemm(Trans::kYes, Trans::kNo, kLastM, kLastN, kLastK, 1.0f,
             last_a.data(), last_b.data(), 1.0f, last_c.data());
        benchmark::DoNotOptimize(last_c.data());
        benchmark::ClobberMemory();
      });
      tiers.push_back(row);

      std::printf(
          "tier=%-6s  chain %.2f ms (%.2f GFLOP/s, %.2f GB/s)  fwd %.2f ms  "
          "interaction fwd+bwd %.1f us (B=%lld) %.3f us (B=1)  "
          "NT %.1f us (%.1f GFLOP/s)  transpose %.3f us  NN/TN n=4 %.3f / "
          "%.3f us\n",
          SimdTierName(tier), row.chain_ms, row.chain_gflops,
          row.chain_gbytes, row.fwd_ms, row.inter_batch_us,
          static_cast<long long>(kInterBatch), row.inter_one_us, row.nt_us,
          row.nt_gflops, row.transpose_us, row.nn4_us, row.tn4_us);
    }
    SetSimdTier(sweep_tier);  // restore whatever the process started with
  }

  const LookaheadRow lookahead = MeasureLookahead(/*reps=*/3);
  std::printf(
      "lookahead  generation %.1f us/batch  plans %.1f us/batch (comparison "
      "sort %.1f us, equal: %s; %.0f lookups, %.0f plan rows)  PrefetchRows "
      "%.1f us/call (%.0f admitted of %.0f window rows)\n",
      lookahead.generate_us, lookahead.plan_us,
      lookahead.plan_comparison_sort_us,
      lookahead.plans_equal ? "yes" : "NO", lookahead.lookups_per_batch,
      lookahead.plan_rows_per_batch, lookahead.prefetch_us,
      lookahead.admitted_per_call, lookahead.window_rows_per_call);
  std::printf(
      "lookahead  PrefetchRows per step, 4 tables: %.1f us frozen tracker "
      "(%.0f admitted), %.1f us track_after_warmup (%.0f admitted)\n",
      lookahead.step_frozen.us_per_step,
      lookahead.step_frozen.admitted_per_step,
      lookahead.step_tracking.us_per_step,
      lookahead.step_tracking.admitted_per_step);
  const Crc32Row crc = MeasureCrc32(/*reps=*/20);
  std::printf("crc32  %.1f us per %lld bytes (%.2f GB/s)\n", crc.us,
              static_cast<long long>(crc.bytes), crc.gbytes_per_s);
  const InitRow init = MeasureInit(/*reps=*/5);
  std::printf(
      "init  sampled_gaussian t=%.1f, %lld train_tt tables: %.1f ms (%.1f ns "
      "per entry, %.2f pairs and %.2f Box-Mullers per entry)\n",
      init.threshold, static_cast<long long>(init.tables), init.ms,
      init.ns_per_entry, init.pairs_per_entry, init.box_mullers_per_entry);

  // Shared BENCH_*.json envelope (obs/json_writer.h); field names below are
  // the stable contract CI consumers parse. schema v2 adds cpu_model,
  // build_type, the simd_tier_* stamps, and the tier_sweep block.
  obs::JsonWriter w;
  obs::BeginBenchEnvelope(w, "kernel_microbench");
  w.Kv("cpu_model", CpuModelName());
  w.Kv("build_type", TTREC_BUILD_TYPE);
  w.Kv("simd_tier_detected", SimdTierName(DetectedSimdTier()));
  w.Kv("simd_tier_active", SimdTierName(sweep_tier));
  w.Key("table").BeginObject();
  w.Kv("rows", rows).Kv("emb_dim", 16).Kv("num_cores", 3);
  w.Kv("rank", rank).Kv("batch", batch).Kv("block_size", block_size);
  w.EndObject();
  w.Kv("hardware_concurrency", std::thread::hardware_concurrency());
  w.Kv("deterministic_across_threads", deterministic);
  w.Key("results").BeginArray();
  for (const SweepRow& r : rowsout) {
    w.BeginObject();
    w.Kv("threads", r.threads);
    w.Kv("forward_ms", r.fwd_ms, 4);
    w.Kv("forward_gflops", r.fwd_gflops, 4);
    w.Kv("forward_lookups_per_s", r.fwd_lookups_per_s, 1);
    w.Kv("fwdbwd_ms", r.fwdbwd_ms, 4);
    w.Kv("fwdbwd_gflops", r.fwdbwd_gflops, 4);
    w.Kv("fwdbwd_lookups_per_s", r.fwdbwd_lookups_per_s, 1);
    w.Kv("fwd_speedup_vs_1t", rowsout[0].fwd_ms / r.fwd_ms, 3);
    w.Kv("fwdbwd_speedup_vs_1t", rowsout[0].fwdbwd_ms / r.fwdbwd_ms, 3);
    w.EndObject();
  }
  w.EndArray();
  w.Key("tier_sweep").BeginObject();
  w.Kv("threads", 1);
  w.Kv("rows", tier_rows);  // L2-resident table; see comment at the sweep
  w.Kv("batch", batch);
  w.Kv("timing", "min_of_reps");
  w.Kv("reps", tier_reps);
  w.Key("interaction").BeginObject();
  w.Kv("num_features", kInterFeatures).Kv("dim", kInterDim);
  w.Kv("batch", kInterBatch);
  w.EndObject();
  w.Key("gemm_nt").BeginObject();
  w.Kv("m", kNtM).Kv("n", kNtN).Kv("k", kNtK);
  w.EndObject();
  w.Key("transpose").BeginObject();
  w.Kv("rows", kTransposeRows).Kv("cols", kTransposeCols);
  w.EndObject();
  w.Key("gemm_last_core").BeginObject();
  w.Kv("m", kLastM).Kv("n", kLastN).Kv("k", kLastK);
  w.EndObject();
  w.Key("results").BeginArray();
  for (const TierRow& r : tiers) {
    w.BeginObject();
    w.Kv("tier", SimdTierName(r.tier));
    w.Kv("gemm_chain_ms", r.chain_ms, 4);
    w.Kv("gemm_chain_gflops", r.chain_gflops, 4);
    w.Kv("gemm_chain_gbytes_per_s", r.chain_gbytes, 4);
    w.Kv("forward_ms", r.fwd_ms, 4);
    w.Kv("forward_gflops", r.fwd_gflops, 4);
    w.Kv("forward_lookups_per_s", r.fwd_lookups_per_s, 1);
    w.Kv("gemm_chain_speedup_vs_scalar", tiers[0].chain_ms / r.chain_ms, 3);
    w.Kv("forward_speedup_vs_scalar", tiers[0].fwd_ms / r.fwd_ms, 3);
    w.Kv("interaction_fwdbwd_batch_us", r.inter_batch_us, 3);
    w.Kv("interaction_fwdbwd_batch_speedup_vs_scalar",
         tiers[0].inter_batch_us / r.inter_batch_us, 3);
    w.Kv("interaction_fwdbwd_one_us", r.inter_one_us, 4);
    w.Kv("interaction_fwdbwd_one_speedup_vs_scalar",
         tiers[0].inter_one_us / r.inter_one_us, 3);
    w.Kv("gemm_nt_us", r.nt_us, 3);
    w.Kv("gemm_nt_gflops", r.nt_gflops, 3);
    w.Kv("gemm_nt_speedup_vs_scalar", tiers[0].nt_us / r.nt_us, 3);
    w.Kv("transpose_us", r.transpose_us, 4);
    w.Kv("transpose_speedup_vs_scalar", tiers[0].transpose_us / r.transpose_us,
         3);
    w.Kv("gemm_nn_last_core_us", r.nn4_us, 4);
    w.Kv("gemm_nn_last_core_gflops", 2.0 * kLastM * kLastN * kLastK /
                                         (r.nn4_us * 1e3), 3);
    w.Kv("gemm_nn_last_core_speedup_vs_scalar", tiers[0].nn4_us / r.nn4_us,
         3);
    w.Kv("gemm_tn_last_core_us", r.tn4_us, 4);
    w.Kv("gemm_tn_last_core_gflops", 2.0 * kLastM * kLastN * kLastK /
                                         (r.tn4_us * 1e3), 3);
    w.Kv("gemm_tn_last_core_speedup_vs_scalar", tiers[0].tn4_us / r.tn4_us,
         3);
    w.EndObject();
  }
  w.EndArray().EndObject();
  w.Key("lookahead").BeginObject();
  w.Kv("workload", "train_cached_shift").Kv("seed", 3);
  w.Kv("batch", kShiftBatch).Kv("batches", lookahead.batches);
  w.Kv("threads", 1).Kv("timing", "min_of_reps").Kv("reps", 3);
  w.Kv("lookups_per_batch", lookahead.lookups_per_batch, 1);
  w.Kv("plan_rows_per_batch", lookahead.plan_rows_per_batch, 1);
  w.Kv("generate_us", lookahead.generate_us, 2);
  w.Kv("plan_build_us", lookahead.plan_us, 2);
  w.Kv("plan_build_comparison_sort_us", lookahead.plan_comparison_sort_us, 2);
  w.Kv("plans_equal", lookahead.plans_equal);
  w.Key("prefetch_rows").BeginObject();
  w.Kv("rows", 200000).Kv("rank", 32).Kv("cache_capacity", kShiftCache);
  w.Kv("window_plans", kShiftWindow).Kv("calls", lookahead.prefetch_calls);
  w.Kv("us_per_call", lookahead.prefetch_us, 2);
  w.Kv("admitted_per_call", lookahead.admitted_per_call, 1);
  w.Kv("window_rows_per_call", lookahead.window_rows_per_call, 1);
  w.EndObject();
  const auto step_entry = [&](const char* key, const PrefetchStepRow& step,
                              bool tracking) {
    w.Key(key).BeginObject();
    w.Kv("tables", static_cast<int64_t>(std::size(kShiftRows)));
    w.Kv("cache_capacity", kShiftCache).Kv("window_plans", kShiftWindow);
    w.Kv("track_after_warmup", tracking).Kv("steps", step.steps);
    w.Kv("us_per_step", step.us_per_step, 2);
    w.Kv("admitted_per_step", step.admitted_per_step, 1);
    w.EndObject();
  };
  step_entry("prefetch_step", lookahead.step_frozen, false);
  step_entry("prefetch_step_tracking", lookahead.step_tracking, true);
  w.EndObject();
  w.Key("crc32").BeginObject();
  w.Kv("bytes", crc.bytes).Kv("timing", "min_of_reps").Kv("reps", 20);
  w.Kv("us", crc.us, 2).Kv("gbytes_per_s", crc.gbytes_per_s, 3);
  w.EndObject();
  w.Key("init").BeginObject();
  w.Kv("workload", "train_tt");
  w.Kv("strategy", TtInitName(TtInit::kSampledGaussian));
  w.Kv("tables", init.tables).Kv("entries", init.entries);
  w.Kv("threshold", init.threshold, 1).Kv("seed", init.seed);
  w.Kv("timing", "min_of_reps").Kv("reps", 5);
  w.Kv("ms_per_init", init.ms, 2).Kv("ns_per_entry", init.ns_per_entry, 2);
  w.Kv("pairs_per_entry", init.pairs_per_entry, 3);
  w.Kv("box_mullers_per_entry", init.box_mullers_per_entry, 3);
  w.EndObject();
  w.EndObject();
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) {
    std::fprintf(stderr, "cannot open %s for writing\n", path.c_str());
    return 1;
  }
  std::fwrite(w.str().data(), 1, w.str().size(), f);
  std::fputc('\n', f);
  std::fclose(f);
  std::printf("wrote %s (deterministic across threads: %s)\n", path.c_str(),
              deterministic ? "yes" : "NO");
  return deterministic && lookahead.plans_equal ? 0 : 2;
}

// FNV-1a (64-bit) over raw bytes.
struct Fnv1a {
  uint64_t h = 0xcbf29ce484222325ull;
  void Add(const float* p, int64_t n) {
    const auto* s = reinterpret_cast<const unsigned char*>(p);
    for (size_t i = 0; i < static_cast<size_t>(n) * sizeof(float); ++i) {
      h = (h ^ s[i]) * 0x100000001b3ull;
    }
  }
};

// --digest mode: for every tier this CPU runs and every kernel-table entry,
// one line "<tier> <entry> <FNV-1a>" over that entry's outputs across a
// fixed sweep: GEMMs at 15 m x 21 n x 16 k, alpha {1, 0.75}, beta
// {0, 0.5, 1}, padded leading dimensions, operands aligned and one float
// off; Axpy at n = 0..70; Transpose at 600 shapes; the pairwise dots at 144
// shapes. Equal lines mean bitwise-equal outputs, so two builds (or two
// revisions) of the kernels can be compared line by line. A last,
// tier-free line covers sampled-Gaussian TT cores over three shapes, two
// seeds and t in {1, 2, 3}: their bits go through libm and the compiler's
// contraction choices, not through the kernel table.
void PrintKernelDigests() {
  const int64_t kMs[] = {1, 2, 3, 4, 5, 6, 7, 8, 9, 12, 13, 16, 17, 33, 64};
  const int64_t kNs[] = {1,  2,  3,  4,  5,  6,  7,  8,  9,  12, 13,
                         15, 16, 17, 24, 31, 32, 33, 48, 64, 100};
  const int64_t kKs[] = {1,  2,  3,  4,  5,  7,  8,  9,
                         13, 16, 17, 31, 32, 33, 37, 64};
  constexpr int64_t kPad = 3;
  Rng rng(2801);
  std::vector<float> pool(1 << 16), c0(1 << 16);
  FillUniform(rng, pool, -1, 1);
  FillUniform(rng, c0, -1, 1);
  std::vector<float> out(c0.size());
  const float* b_pool = pool.data() + (1 << 15);

  const int detected = static_cast<int>(DetectedSimdTier());
  const SimdTier saved = ActiveSimdTier();
  for (int t = 0; t <= detected; ++t) {
    const SimdTier tier = static_cast<SimdTier>(t);
    SetSimdTier(tier);
    const auto print = [&](const char* entry, const Fnv1a& d) {
      std::printf("%-6s %-18s %016llx\n", SimdTierName(tier), entry,
                  static_cast<unsigned long long>(d.h));
    };
    for (int e = 0; e < 4; ++e) {
      const Trans ta = e & 1 ? Trans::kYes : Trans::kNo;
      const Trans tb = e & 2 ? Trans::kYes : Trans::kNo;
      Fnv1a d;
      for (int64_t m : kMs) {
        for (int64_t n : kNs) {
          for (int64_t k : kKs) {
            const int64_t lda = (ta == Trans::kYes ? m : k) + kPad;
            const int64_t ldb = (tb == Trans::kYes ? k : n) + kPad;
            const int64_t ldc = n + kPad;
            for (float alpha : {1.0f, 0.75f}) {
              for (float beta : {0.0f, 0.5f, 1.0f}) {
                for (int64_t off : {0, 1}) {
                  std::copy(c0.begin(), c0.begin() + m * ldc,
                            out.begin() + off);
                  Gemm(ta, tb, m, n, k, alpha, pool.data() + off, lda,
                       b_pool + off, ldb, beta, out.data() + off, ldc);
                  d.Add(out.data() + off, m * ldc);
                }
              }
            }
          }
        }
      }
      static const char* const kNames[] = {"nn", "tn", "nt", "tt"};
      print(kNames[e], d);
    }

    Fnv1a axpy;
    for (int64_t n = 0; n <= 70; ++n) {
      for (float alpha : {1.0f, 0.75f}) {
        for (int64_t off : {0, 1}) {
          std::copy(c0.begin(), c0.begin() + n, out.begin() + off);
          Axpy(n, alpha, pool.data() + off, out.data() + off);
          axpy.Add(out.data() + off, n);
        }
      }
    }
    print("axpy", axpy);

    Fnv1a dots, dots_bwd;
    constexpr int64_t kBatch = 3;
    for (int64_t f : {1, 2, 3, 4, 5, 8, 9, 13, 16, 17, 27, 33}) {
      for (int64_t dim : {1, 2, 3, 4, 7, 8, 9, 15, 16, 17, 32, 33}) {
        const int64_t od = dim + f * (f - 1) / 2;
        std::vector<const float*> feats;
        std::vector<std::vector<float>> grads(static_cast<size_t>(f));
        std::vector<float*> grad_ptrs;
        for (int64_t i = 0; i < f; ++i) {
          feats.push_back(pool.data() + 1 + i * kBatch * dim);
          grads[static_cast<size_t>(i)].resize(
              static_cast<size_t>(kBatch * dim));
          grad_ptrs.push_back(grads[static_cast<size_t>(i)].data());
        }
        PairwiseDots(f, dim, feats.data(), kBatch, out.data());
        dots.Add(out.data(), kBatch * od);
        PairwiseDotsBackward(f, dim, feats.data(), c0.data() + 1, kBatch,
                             grad_ptrs.data());
        for (const std::vector<float>& g : grads) {
          dots_bwd.Add(g.data(), kBatch * dim);
        }
      }
    }
    print("pair_dots", dots);
    print("pair_dots_backward", dots_bwd);

    Fnv1a transpose;
    std::vector<int64_t> rows_set, cols_set;
    for (int64_t i = 1; i <= 20; ++i) rows_set.push_back(i);
    for (int64_t i = 1; i <= 17; ++i) cols_set.push_back(i);
    rows_set.insert(rows_set.end(), {31, 32, 33, 64});
    cols_set.insert(cols_set.end(), {24, 31, 32, 33, 48, 63, 64, 65});
    for (int64_t rows : rows_set) {
      for (int64_t cols : cols_set) {
        const int64_t ldd = rows + kPad + 2;
        std::copy(c0.begin(), c0.begin() + cols * ldd, out.begin());
        Transpose(rows, cols, pool.data() + 1, cols + kPad, out.data(), ldd);
        transpose.Add(out.data(), cols * ldd);
      }
    }
    print("transpose", transpose);
  }
  SetSimdTier(saved);

  Fnv1a init;
  const TtShape init_shapes[] = {
      MakeTtShapeExplicit(1000, 16, {10, 10, 10}, {2, 2, 4}, 8),
      MakeTtShape(20000, 16, 3, 32), MakeTtShape(7, 4, 2, 2)};
  for (double t : {1.0, 2.0, 3.0}) {
    for (uint64_t seed : {1, 2}) {
      Rng init_rng(seed);
      for (const TtShape& shape : init_shapes) {
        TtCores cores(shape);
        InitializeTtCores(cores, TtInit::kSampledGaussian, init_rng, t);
        for (int k = 0; k < cores.num_cores(); ++k) {
          init.Add(cores.core(k).data(), cores.core(k).numel());
        }
      }
    }
  }
  std::printf("%-6s %-18s %016llx\n", "any", "init",
              static_cast<unsigned long long>(init.h));
}

}  // namespace
}  // namespace ttrec

// Custom main: peel off `--digest` and `--json <path>` (google-benchmark
// rejects unknown flags) before handing the rest to the standard benchmark
// driver.
int main(int argc, char** argv) {
  std::string json_path;
  std::vector<char*> passthrough;
  passthrough.push_back(argv[0]);
  for (int i = 1; i < argc; ++i) {
    if (std::string(argv[i]) == "--digest") {
      ttrec::PrintKernelDigests();
      return 0;
    }
    if (std::string(argv[i]) == "--json" && i + 1 < argc) {
      json_path = argv[++i];
    } else {
      passthrough.push_back(argv[i]);
    }
  }
  if (!json_path.empty()) {
    return ttrec::RunKernelJsonSweep(json_path);
  }
  int pargc = static_cast<int>(passthrough.size());
  benchmark::Initialize(&pargc, passthrough.data());
  if (benchmark::ReportUnrecognizedArguments(pargc, passthrough.data())) {
    return 1;
  }
  benchmark::RunSpecifiedBenchmarks();
  benchmark::Shutdown();
  return 0;
}
