// Block-parallel TT kernel determinism and regression suite.
//
// Contract under test (DESIGN.md "Kernel parallelism"): forward, backward,
// and optimizer application of TtEmbeddingBag are bitwise identical for any
// global ThreadPool size, with and without dedup, in every SIMD tier. Plus
// regression tests for the workspace accounting, for the steady-state
// page faults of the forward and the backward, and for the steady-state
// allocations of the cached table's lookahead prefetch.
#include <gtest/gtest.h>
#include <malloc.h>
#include <sys/resource.h>

#include <algorithm>
#include <cstdlib>
#include <cstring>
#include <functional>
#include <new>
#include <ostream>
#include <span>
#include <string>
#include <vector>

#include "cache/cached_tt_embedding.h"
#include "data/csr_batch.h"
#include "simd_tiers.h"
#include "tensor/check.h"
#include "tensor/cpu_features.h"
#include "tensor/parallel.h"
#include "tensor/random.h"
#include "tt/tt_embedding.h"
#include "tt/tt_shapes.h"

// The sanitizers bring their own operator new and delete, and the test that
// counts allocations skips itself under them, so the counting replacements
// exist only in the other builds.
#if !defined(__SANITIZE_ADDRESS__) && !defined(__SANITIZE_THREAD__)
namespace {
// Counts the calling thread's operator new calls while it sets
// t_count_news: the replacements below serve the whole test binary, but
// only a thread that asks is counted. libstdc++'s array and nothrow forms
// call these two.
thread_local bool t_count_news = false;
thread_local long t_news = 0;

void* CountedAlloc(std::size_t size, std::size_t align) {
  if (t_count_news) ++t_news;
  if (size == 0) size = 1;
  void* p = nullptr;
  if (align <= alignof(std::max_align_t)) {
    p = std::malloc(size);
  } else if (posix_memalign(&p, align, size) != 0) {
    p = nullptr;
  }
  if (p == nullptr) throw std::bad_alloc();
  return p;
}
}  // namespace

void* operator new(std::size_t size) {
  return CountedAlloc(size, alignof(std::max_align_t));
}
void* operator new(std::size_t size, std::align_val_t align) {
  return CountedAlloc(size, static_cast<std::size_t>(align));
}
void operator delete(void* p) noexcept { std::free(p); }
void operator delete(void* p, std::size_t) noexcept { std::free(p); }
void operator delete(void* p, std::align_val_t) noexcept { std::free(p); }
void operator delete(void* p, std::size_t, std::align_val_t) noexcept {
  std::free(p);
}
#endif

namespace ttrec {
namespace {

/// Restores the global pool size on scope exit so thread-count sweeps never
/// leak into other tests.
class PoolGuard {
 public:
  PoolGuard() : saved_(ThreadPool::Global().num_threads()) {}
  ~PoolGuard() { ThreadPool::SetGlobalThreads(saved_); }

 private:
  int saved_;
};

TtEmbeddingConfig BaseConfig() {
  TtEmbeddingConfig cfg;
  cfg.shape = MakeTtShape(/*num_rows=*/60, /*emb_dim=*/8, /*num_cores=*/3,
                          /*rank=*/4);
  cfg.block_size = 7;  // many blocks even on small batches
  return cfg;
}

/// ~180 lookups over 60 rows, bag sizes 0..5, duplicates, per-sample
/// weights. Big enough that block_size 7 yields dozens of blocks (several
/// rounds at every tested thread count).
CsrBatch BigBatch(bool with_weights) {
  CsrBatch b;
  Rng rng(42);
  b.offsets.push_back(0);
  for (int bag = 0; bag < 64; ++bag) {
    const int64_t size = static_cast<int64_t>(rng.Uniform(0.0, 5.99));
    for (int64_t i = 0; i < size; ++i) {
      b.indices.push_back(static_cast<int64_t>(rng.Uniform(0.0, 59.99)));
    }
    b.offsets.push_back(static_cast<int64_t>(b.indices.size()));
  }
  if (with_weights) {
    for (size_t i = 0; i < b.indices.size(); ++i) {
      b.weights.push_back(0.25f + 0.01f * static_cast<float>(i % 7));
    }
  }
  return b;
}

std::vector<float> FixedGrad(int64_t n) {
  std::vector<float> g(static_cast<size_t>(n));
  Rng rng(99);
  for (float& x : g) x = static_cast<float>(rng.Uniform(-1.0, 1.0));
  return g;
}

struct PipelineResult {
  std::vector<float> fwd1, fwd2;
  std::vector<std::vector<float>> grads;  // dense per-core grads after step 1
  std::vector<std::vector<float>> cores;  // core params after two full steps
};

/// Two full train steps (Forward/Backward/optimizer) on two different
/// batches at the given pool size; captures every intermediate worth
/// comparing bitwise.
PipelineResult RunPipeline(const TtEmbeddingConfig& cfg, int threads,
                           bool adagrad, bool with_weights) {
  ThreadPool::SetGlobalThreads(threads);
  Rng rng(1234);
  TtEmbeddingBag emb(cfg, TtInit::kGaussian, rng);

  CsrBatch batch1 = BigBatch(with_weights);
  CsrBatch batch2 = BigBatch(with_weights);
  std::reverse(batch2.indices.begin(), batch2.indices.end());

  PipelineResult r;
  const int64_t N = emb.emb_dim();

  r.fwd1.assign(static_cast<size_t>(batch1.num_bags() * N), 0.0f);
  emb.Forward(batch1, r.fwd1.data());
  const std::vector<float> g1 = FixedGrad(batch1.num_bags() * N);
  emb.Backward(batch1, g1.data());
  for (int k = 0; k < emb.cores().num_cores(); ++k) {
    const Tensor& gk = emb.core_grad(k);
    r.grads.emplace_back(gk.data(), gk.data() + gk.numel());
  }
  if (adagrad) {
    emb.ApplyAdagrad(0.05f);
  } else {
    emb.ApplySgd(0.05f);
  }

  r.fwd2.assign(static_cast<size_t>(batch2.num_bags() * N), 0.0f);
  emb.Forward(batch2, r.fwd2.data());
  const std::vector<float> g2 = FixedGrad(batch2.num_bags() * N);
  emb.Backward(batch2, g2.data());
  if (adagrad) {
    emb.ApplyAdagrad(0.05f);
  } else {
    emb.ApplySgd(0.05f);
  }
  for (int k = 0; k < emb.cores().num_cores(); ++k) {
    const Tensor& ck = emb.cores().core(k);
    r.cores.emplace_back(ck.data(), ck.data() + ck.numel());
  }
  return r;
}

void ExpectBitwiseEqual(const std::vector<float>& a,
                        const std::vector<float>& b, const char* what,
                        int threads) {
  ASSERT_EQ(a.size(), b.size()) << what << " @ " << threads << " threads";
  EXPECT_EQ(std::memcmp(a.data(), b.data(), a.size() * sizeof(float)), 0)
      << what << " differs from the single-thread result at " << threads
      << " threads";
}

void ExpectSamePipeline(const PipelineResult& ref, const PipelineResult& got,
                        int threads) {
  ExpectBitwiseEqual(ref.fwd1, got.fwd1, "forward (step 1)", threads);
  ExpectBitwiseEqual(ref.fwd2, got.fwd2, "forward (step 2)", threads);
  ASSERT_EQ(ref.grads.size(), got.grads.size());
  for (size_t k = 0; k < ref.grads.size(); ++k) {
    ExpectBitwiseEqual(ref.grads[k], got.grads[k], "core gradient", threads);
  }
  ASSERT_EQ(ref.cores.size(), got.cores.size());
  for (size_t k = 0; k < ref.cores.size(); ++k) {
    ExpectBitwiseEqual(ref.cores[k], got.cores[k], "core after step",
                       threads);
  }
}

struct ParallelCase {
  const char* name;
  bool dedup;
  bool adagrad;
  bool weights;
  PoolingMode pooling;
};

// gtest folds the printed parameter into each CTest name; without this it
// prints the struct's raw bytes, a pointer included.
void PrintTo(const ParallelCase& pc, std::ostream* os) { *os << pc.name; }

class TtEmbeddingParallel : public ::testing::TestWithParam<ParallelCase> {};

TEST_P(TtEmbeddingParallel, BitwiseIdenticalAcrossThreadCounts) {
  const ParallelCase& pc = GetParam();
  TtEmbeddingConfig cfg = BaseConfig();
  cfg.deduplicate = pc.dedup;
  cfg.pooling = pc.pooling;

  PoolGuard guard;
  const PipelineResult ref =
      RunPipeline(cfg, /*threads=*/1, pc.adagrad, pc.weights);
  for (int threads : {2, 8}) {
    const PipelineResult got =
        RunPipeline(cfg, threads, pc.adagrad, pc.weights);
    ExpectSamePipeline(ref, got, threads);
  }
}

INSTANTIATE_TEST_SUITE_P(
    Configs, TtEmbeddingParallel,
    ::testing::Values(
        ParallelCase{"plain_sgd", false, false, false, PoolingMode::kSum},
        ParallelCase{"dedup_sgd", true, false, false, PoolingMode::kSum},
        ParallelCase{"plain_adagrad_weighted_mean", false, true, true,
                     PoolingMode::kMean},
        ParallelCase{"dedup_adagrad", true, true, false, PoolingMode::kSum},
        ParallelCase{"plain_adagrad_weighted", false, true, true,
                     PoolingMode::kSum}),
    [](const ::testing::TestParamInfo<ParallelCase>& info) {
      return std::string(info.param.name);
    });

TEST(TtEmbeddingParallelOps, LookupRowsBitwiseIdenticalAcrossThreadCounts) {
  PoolGuard pool_guard;
  TierGuard tier_guard;
  std::vector<int64_t> idx;
  Rng rng(7);
  for (int i = 0; i < 150; ++i) {
    idx.push_back(static_cast<int64_t>(rng.Uniform(0.0, 59.99)));
  }

  auto run = [&](int threads) {
    ThreadPool::SetGlobalThreads(threads);
    Rng init_rng(55);
    TtEmbeddingBag emb(BaseConfig(), TtInit::kGaussian, init_rng);
    std::vector<float> out(idx.size() * static_cast<size_t>(emb.emb_dim()));
    emb.LookupRows(idx, out.data());
    return out;
  };

  for (SimdTier tier : TestableTiers()) {
    SetSimdTier(tier);
    SCOPED_TRACE(std::string("tier=") + SimdTierName(tier));
    const std::vector<float> ref = run(1);
    for (int threads : {2, 8}) {
      ExpectBitwiseEqual(ref, run(threads), "LookupRows", threads);
    }
  }
}

TEST(TtEmbeddingParallelOps, ForwardInferenceMatchesForwardBitwise) {
  // ForwardInference shares the block-parallel engine with Forward (minus
  // dedup); on a plain config the two must agree bitwise at any
  // thread count.
  PoolGuard guard;
  for (int threads : {1, 2, 8}) {
    ThreadPool::SetGlobalThreads(threads);
    Rng rng(11);
    TtEmbeddingBag emb(BaseConfig(), TtInit::kGaussian, rng);
    CsrBatch batch = BigBatch(/*with_weights=*/true);
    std::vector<float> train(
        static_cast<size_t>(batch.num_bags() * emb.emb_dim()), 0.0f);
    std::vector<float> serve(train.size(), 0.0f);
    emb.Forward(batch, train.data());
    emb.ForwardInference(batch, serve.data());
    ExpectBitwiseEqual(train, serve, "ForwardInference vs Forward", threads);
  }
}

TEST(TtEmbeddingParallelTiers, PipelineBitwiseIdenticalAcrossThreadsInEveryTier) {
  // The thread-count determinism contract holds PER dispatch tier: force
  // each tier this machine supports and re-run the full pipeline sweep for
  // the plain and dedup configs under SGD and Adagrad.
  // (Different tiers legitimately differ bitwise from each other — that
  // cross-tier gap is gated against GemmRef in test_gemm, not here.)
  PoolGuard pool_guard;
  TierGuard tier_guard;
  for (SimdTier tier : TestableTiers()) {
    SetSimdTier(tier);
    for (bool dedup : {false, true}) {
      TtEmbeddingConfig cfg = BaseConfig();
      cfg.deduplicate = dedup;
      for (bool adagrad : {false, true}) {
        SCOPED_TRACE(std::string("tier=") + SimdTierName(tier) +
                     (dedup ? " config=dedup" : " config=plain") +
                     (adagrad ? " adagrad" : " sgd"));
        const PipelineResult ref = RunPipeline(cfg, /*threads=*/1, adagrad,
                                               /*with_weights=*/true);
        for (int threads : {2, 8}) {
          const PipelineResult got =
              RunPipeline(cfg, threads, adagrad, /*with_weights=*/true);
          ExpectSamePipeline(ref, got, threads);
        }
      }
    }
  }
}

TEST(TtEmbeddingParallelTiers, RowsIndependentOfBucketMates) {
  // The chain stacks the lookups that share a core slice into one GEMM, so
  // where a row lands in it — which row block, or the one-row remainder —
  // depends on the rest of the batch. The kernels' row contract hides that:
  // every decoded row must equal its own MaterializeRow and its one-lookup
  // ForwardInference bit for bit. The dim-9 table (column factors 1, 3, 3)
  // runs its last stage on the kernels' < 4-column tail.
  PoolGuard pool_guard;
  TierGuard tier_guard;
  constexpr int64_t kRows = 20000, kLookups = 512;
  const std::vector<int64_t> row_factors = FactorizeRows(kRows, 3);
  const std::vector<std::vector<int64_t>> col_factors = {{2, 2, 4},
                                                         {1, 3, 3}};
  ZipfSampler zipf(kRows, 1.15);
  IndexShuffle shuffle(kRows, 3);
  Rng idx_rng(21);
  std::vector<int64_t> idx;
  for (int64_t l = 0; l < kLookups; ++l) {
    idx.push_back(shuffle.Map(zipf.Sample(idx_rng)));
  }
  const CsrBatch batch = [&] {
    CsrBatch b;
    b.indices = idx;
    for (int64_t l = 0; l <= kLookups; ++l) b.offsets.push_back(l);
    return b;
  }();

  for (SimdTier tier : TestableTiers()) {
    SetSimdTier(tier);
    for (const std::vector<int64_t>& cols : col_factors) {
      for (bool dedup : {false, true}) {
        TtEmbeddingConfig cfg;
        cfg.shape = MakeTtShapeExplicit(kRows, cols[0] * cols[1] * cols[2],
                                        row_factors, cols, /*rank=*/8);
        cfg.deduplicate = dedup;
        Rng rng(13);
        TtEmbeddingBag emb(cfg, TtInit::kGaussian, rng);
        const int64_t N = emb.emb_dim();
        SCOPED_TRACE(std::string("tier=") + SimdTierName(tier) +
                     " emb_dim=" + std::to_string(N) +
                     (dedup ? " dedup" : " plain"));
        std::vector<float> looked_up(static_cast<size_t>(kLookups * N));
        std::vector<float> inferred(looked_up.size());
        std::vector<float> forward(looked_up.size());
        emb.LookupRows(idx, looked_up.data());
        emb.ForwardInference(batch, inferred.data());
        emb.Forward(batch, forward.data());

        std::vector<float> own(static_cast<size_t>(N));
        std::vector<float> alone(static_cast<size_t>(N));
        int64_t bad = 0;
        for (int64_t l = 0; l < kLookups; ++l) {
          const int64_t row = idx[static_cast<size_t>(l)];
          emb.cores().MaterializeRow(row, own.data());
          CsrBatch one;
          one.indices = {row};
          one.offsets = {0, 1};
          emb.ForwardInference(one, alone.data());
          const size_t bytes = static_cast<size_t>(N) * sizeof(float);
          const size_t at = static_cast<size_t>(l * N);
          const bool ok = std::memcmp(own.data(), alone.data(), bytes) == 0 &&
                          std::memcmp(own.data(), &looked_up[at], bytes) == 0 &&
                          std::memcmp(own.data(), &inferred[at], bytes) == 0 &&
                          std::memcmp(own.data(), &forward[at], bytes) == 0;
          if (!ok && bad++ < 3) {
            ADD_FAILURE() << "lookup " << l << " (row " << row
                          << ") depends on its bucket mates";
          }
        }
        EXPECT_EQ(bad, 0);
      }
    }
  }
}

TEST(TtWorkspaceRegression, AccountsForBackwardAndDedupAndThreads) {
  // Regression: WorkspaceBytes used to count only the forward intermediates
  // and pointer arrays — no backward buffers, no dedup scratch, no
  // per-thread multiplier.
  TtEmbeddingConfig cfg = BaseConfig();
  cfg.block_size = 64;
  Rng rng(5);
  TtEmbeddingBag emb(cfg, TtInit::kGaussian, rng);

  const int64_t ws1 = emb.WorkspaceBytes(/*num_threads=*/1);
  // Backward keeps D_c, D_{c-1} and the two bucket stacks on top of the
  // forward accounting: 4 * block * max_d_floats floats, where
  // max_d_floats >= emb_dim.
  const int64_t backward_buffers =
      4 * cfg.block_size * emb.emb_dim() *
      static_cast<int64_t>(sizeof(float));
  EXPECT_GE(ws1, backward_buffers);

  // More threads -> more per-thread workspaces and a wider round buffer:
  // every extra thread adds at least its four blocks of reconstructed rows.
  const int64_t ws8 = emb.WorkspaceBytes(/*num_threads=*/8);
  EXPECT_GE(ws8 - ws1, 7 * 4 * cfg.block_size * emb.emb_dim() *
                           static_cast<int64_t>(sizeof(float)));

  // Dedup adds its scratch (sorted keys, unique ids, mapping, expanded
  // rows).
  TtEmbeddingConfig dedup_cfg = cfg;
  dedup_cfg.deduplicate = true;
  Rng rng2(5);
  TtEmbeddingBag dedup_emb(dedup_cfg, TtInit::kGaussian, rng2);
  EXPECT_GT(dedup_emb.WorkspaceBytes(1), ws1);

  // Still monotone in block size (the planner sizes blocks by memory).
  TtEmbeddingConfig big_cfg = cfg;
  big_cfg.block_size = 4096;
  Rng rng3(5);
  TtEmbeddingBag big_emb(big_cfg, TtInit::kGaussian, rng3);
  EXPECT_LT(ws1, big_emb.WorkspaceBytes(1));
}

// The page-fault tests' helpers; the tests compile out under the
// sanitizers, whose allocators quarantine freed memory.
#if !defined(__SANITIZE_ADDRESS__) && !defined(__SANITIZE_THREAD__)
/// `lookups` bags of one lookup each over 100k rows.
CsrBatch SingleLookupBags(int lookups) {
  CsrBatch batch;
  Rng idx_rng(8);
  batch.offsets.push_back(0);
  for (int l = 0; l < lookups; ++l) {
    batch.indices.push_back(
        static_cast<int64_t>(idx_rng.Uniform(0.0, 99999.0)));
    batch.offsets.push_back(l + 1);
  }
  return batch;
}

/// A rank-32 table whose 16 columns factor as (2, 2, 4).
TtEmbeddingConfig SteadyStateConfig(bool dedup) {
  TtEmbeddingConfig cfg;
  cfg.shape = MakeTtShape(/*num_rows=*/100000, /*emb_dim=*/16,
                          /*num_cores=*/3, /*rank=*/32);
  cfg.deduplicate = dedup;
  return cfg;
}

/// Minor page faults the calling thread takes over `calls` calls of `fn`.
long MinorFaults(int calls, const std::function<void()>& fn) {
  rusage before{};
  rusage after{};
  EXPECT_EQ(getrusage(RUSAGE_THREAD, &before), 0);
  for (int i = 0; i < calls; ++i) fn();
  EXPECT_EQ(getrusage(RUSAGE_THREAD, &after), 0);
  return after.ru_minflt - before.ru_minflt;
}

// With a fixed 256 KiB mmap threshold (perfbench's setting), every large
// buffer comes from mmap and goes back to the kernel when freed, so a call
// that re-allocates its scratch pays one minor fault per page it touches.
// A call that reuses the thread's workspace pays none once warm. One pool
// thread keeps all the work on the measured thread.
constexpr int kSteadyCalls = 20;
#endif

TEST(TtBackwardSteadyState, TakesNoPageFaults) {
#if defined(__SANITIZE_ADDRESS__) || defined(__SANITIZE_THREAD__)
  GTEST_SKIP() << "sanitizer allocators quarantine freed memory";
#else
  PoolGuard guard;
  ThreadPool::SetGlobalThreads(1);
  mallopt(M_MMAP_THRESHOLD, 256 * 1024);

  const CsrBatch batch = SingleLookupBags(4096);
  for (bool dedup : {false, true}) {
    SCOPED_TRACE(dedup ? "dedup" : "plain");
    Rng rng(3);
    TtEmbeddingBag emb(SteadyStateConfig(dedup), TtInit::kGaussian, rng);
    const std::vector<float> g = FixedGrad(batch.num_bags() * emb.emb_dim());
    emb.Backward(batch, g.data());  // warm-up: workspace and gradients grow

    const long faults =
        MinorFaults(kSteadyCalls, [&] { emb.Backward(batch, g.data()); });
    EXPECT_LT(faults, kSteadyCalls)
        << faults << " minor faults over " << kSteadyCalls
        << " steady-state Backward calls";
  }
#endif
}

TEST(TtForwardSteadyState, TakesNoPageFaults) {
#if defined(__SANITIZE_ADDRESS__) || defined(__SANITIZE_THREAD__)
  GTEST_SKIP() << "sanitizer allocators quarantine freed memory";
#else
  PoolGuard guard;
  ThreadPool::SetGlobalThreads(1);
  mallopt(M_MMAP_THRESHOLD, 256 * 1024);

  for (int lookups : {1, 512, 4096}) {
    const CsrBatch batch = SingleLookupBags(lookups);
    for (bool dedup : {false, true}) {
      SCOPED_TRACE(std::to_string(lookups) + " lookups, " +
                   (dedup ? "dedup" : "plain"));
      Rng rng(3);
      TtEmbeddingBag emb(SteadyStateConfig(dedup), TtInit::kGaussian, rng);
      std::vector<float> out(
          static_cast<size_t>(batch.num_bags() * emb.emb_dim()));
      // Warm-up: the workspace grows to both paths' blocks.
      emb.Forward(batch, out.data());
      emb.ForwardInference(batch, out.data());

      const long forward =
          MinorFaults(kSteadyCalls, [&] { emb.Forward(batch, out.data()); });
      EXPECT_LT(forward, kSteadyCalls)
          << forward << " minor faults over " << kSteadyCalls
          << " steady-state Forward calls";
      const long inference = MinorFaults(
          kSteadyCalls, [&] { emb.ForwardInference(batch, out.data()); });
      EXPECT_LT(inference, kSteadyCalls)
          << inference << " minor faults over " << kSteadyCalls
          << " steady-state ForwardInference calls";
      // The serving path's one-lookup request allocates nothing at all.
      if (lookups == 1) {
        t_news = 0;
        t_count_news = true;
        for (int i = 0; i < kSteadyCalls; ++i) {
          emb.ForwardInference(batch, out.data());
        }
        t_count_news = false;
        EXPECT_EQ(t_news, 0) << t_news << " operator new calls over "
                             << kSteadyCalls
                             << " one-lookup ForwardInference calls";
      }
    }
  }
#endif
}

TEST(CachedTtPrefetchSteadyState, AllocatesNothing) {
#if defined(__SANITIZE_ADDRESS__) || defined(__SANITIZE_THREAD__)
  GTEST_SKIP() << "the counting operator new is not built under sanitizers";
#else
  // PrefetchRows keeps every buffer it uses as a grow-only member, so once
  // a cycle of windows has run, running it again allocates nothing. The
  // tracker is frozen after a two-step warm-up whose rows keep their
  // counts, so the windows evict and admit counted and uncounted rows
  // alike: the bitmap scan, the counted order and its merge all run.
  PoolGuard guard;
  ThreadPool::SetGlobalThreads(1);
  CachedTtConfig cfg;
  cfg.tt.shape = MakeTtShape(/*num_rows=*/20000, /*emb_dim=*/16,
                             /*num_cores=*/3, /*rank=*/8);
  cfg.cache_capacity = 256;
  cfg.warmup_iterations = 2;
  cfg.refresh_interval = 1;
  Rng rng(12);
  CachedTtEmbeddingBag emb(cfg, TtInit::kGaussian, rng);

  // Eight sorted plans of 120 rows, each drawn from a hot range the
  // warm-up counts and a cold range it never saw; windows of three
  // consecutive plans slide around the cycle, as the lookahead stage's do.
  Rng data(13);
  std::vector<std::vector<int64_t>> plans(8);
  for (std::vector<int64_t>& plan : plans) {
    while (plan.size() < 120) {
      plan.push_back(data.Bernoulli(0.3) ? data.RandInt(400)
                                         : 400 + data.RandInt(19600));
      std::sort(plan.begin(), plan.end());
      plan.erase(std::unique(plan.begin(), plan.end()), plan.end());
    }
  }
  std::vector<int64_t> warm(400);
  for (size_t i = 0; i < warm.size(); ++i) warm[i] = static_cast<int64_t>(i);
  const CsrBatch warm_batch = CsrBatch::FromIndices(warm);
  std::vector<float> out(static_cast<size_t>(warm_batch.num_bags() * 16));
  for (int i = 0; i <= cfg.warmup_iterations; ++i) {
    emb.Forward(warm_batch, out.data());
  }
  ASSERT_TRUE(emb.warmed_up());

  std::vector<std::span<const int64_t>> window(3);
  const auto step = [&](size_t i) {
    for (size_t k = 0; k < window.size(); ++k) {
      window[k] = plans[(i + k) % plans.size()];
    }
    return emb.PrefetchRows(window);
  };
  int64_t admitted = 0;
  for (size_t i = 0; i < 3 * plans.size(); ++i) admitted += step(i);
  ASSERT_GT(admitted, 0);

  const int64_t evictions = emb.cache().evictions();
  t_news = 0;
  t_count_news = true;
  admitted = 0;
  for (size_t i = 0; i < 2 * plans.size(); ++i) admitted += step(i);
  t_count_news = false;
  EXPECT_EQ(t_news, 0) << t_news << " operator new calls over "
                       << 2 * plans.size()
                       << " steady-state PrefetchRows calls";
  EXPECT_GT(admitted, 0);
  EXPECT_GT(emb.cache().evictions(), evictions);
#endif
}

}  // namespace
}  // namespace ttrec
