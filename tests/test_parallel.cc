// ThreadPool / ParallelFor: full coverage of the range, no overlap, chunk
// granularity, exception propagation, and inline nested calls.
#include <gtest/gtest.h>

#include <atomic>
#include <mutex>
#include <set>
#include <thread>
#include <vector>

#include "tensor/check.h"
#include "tensor/parallel.h"

namespace ttrec {
namespace {

TEST(ThreadPool, SingleThreadRunsInline) {
  ThreadPool pool(1);
  EXPECT_EQ(pool.num_threads(), 1);
  std::vector<int> hits(100, 0);
  pool.ParallelFor(100, 1, [&](int64_t b, int64_t e) {
    for (int64_t i = b; i < e; ++i) ++hits[static_cast<size_t>(i)];
  });
  for (int h : hits) EXPECT_EQ(h, 1);
}

class ThreadPoolSweep : public ::testing::TestWithParam<
                            std::tuple<int, int64_t, int64_t>> {};

TEST_P(ThreadPoolSweep, CoversRangeExactlyOnce) {
  const auto [threads, total, grain] = GetParam();
  ThreadPool pool(threads);
  std::vector<std::atomic<int>> hits(static_cast<size_t>(total));
  pool.ParallelFor(total, grain, [&](int64_t b, int64_t e) {
    ASSERT_LE(0, b);
    ASSERT_LE(b, e);
    ASSERT_LE(e, total);
    for (int64_t i = b; i < e; ++i) {
      hits[static_cast<size_t>(i)].fetch_add(1);
    }
  });
  for (const auto& h : hits) EXPECT_EQ(h.load(), 1);
}

INSTANTIATE_TEST_SUITE_P(
    Configs, ThreadPoolSweep,
    ::testing::Combine(::testing::Values(1, 2, 4, 8),       // threads
                       ::testing::Values(1, 7, 100, 4096),  // total
                       ::testing::Values(1, 16, 1000)));    // grain

TEST(ThreadPool, ZeroAndNegativeTotalAreNoops) {
  ThreadPool pool(4);
  bool ran = false;
  pool.ParallelFor(0, 1, [&](int64_t, int64_t) { ran = true; });
  pool.ParallelFor(-5, 1, [&](int64_t, int64_t) { ran = true; });
  EXPECT_FALSE(ran);
}

TEST(ThreadPool, SmallRangeStaysInlineUnderGrain) {
  ThreadPool pool(8);
  // total <= grain: must be exactly one chunk [0, total).
  std::mutex mu;
  std::vector<std::pair<int64_t, int64_t>> chunks;
  pool.ParallelFor(10, 64, [&](int64_t b, int64_t e) {
    std::lock_guard<std::mutex> lock(mu);
    chunks.emplace_back(b, e);
  });
  ASSERT_EQ(chunks.size(), 1u);
  EXPECT_EQ(chunks[0], (std::pair<int64_t, int64_t>{0, 10}));
}

TEST(ThreadPool, PropagatesWorkerExceptions) {
  ThreadPool pool(4);
  EXPECT_THROW(
      pool.ParallelFor(1000, 1,
                       [&](int64_t b, int64_t) {
                         if (b > 0) throw IndexError("boom");
                       }),
      TtRecError);
  // Pool still usable afterwards.
  std::atomic<int64_t> sum{0};
  pool.ParallelFor(100, 1, [&](int64_t b, int64_t e) { sum += e - b; });
  EXPECT_EQ(sum.load(), 100);
}

TEST(ThreadPool, GlobalPoolResize) {
  ThreadPool::SetGlobalThreads(3);
  EXPECT_EQ(ThreadPool::Global().num_threads(), 3);
  EXPECT_THROW(ThreadPool::SetGlobalThreads(0), ConfigError);
  ThreadPool::SetGlobalThreads(1);
  EXPECT_EQ(ThreadPool::Global().num_threads(), 1);
}

TEST(ThreadPool, NestedCallsRunInlineWithoutDeadlock) {
  // The TT kernels call ParallelFor from inside outer ParallelFor chunks
  // (slice tasks inside a model's per-table tasks, bucket GEMMs inside a
  // forward block task); nested calls must run inline instead of
  // enqueuing, or the pool deadlocks on itself.
  ThreadPool pool(4);
  constexpr int64_t kOuter = 16, kInner = 16;
  std::vector<std::atomic<int>> hits(kOuter * kInner);
  EXPECT_FALSE(ThreadPool::InParallelRegion());
  pool.ParallelFor(kOuter, 1, [&](int64_t b, int64_t e) {
    for (int64_t i = b; i < e; ++i) {
      EXPECT_TRUE(ThreadPool::InParallelRegion());
      pool.ParallelFor(kInner, 1, [&](int64_t jb, int64_t je) {
        for (int64_t j = jb; j < je; ++j) {
          hits[static_cast<size_t>(i * kInner + j)].fetch_add(1);
        }
      });
    }
  });
  EXPECT_FALSE(ThreadPool::InParallelRegion());
  for (const auto& h : hits) EXPECT_EQ(h.load(), 1);
}

TEST(ThreadPool, ConcurrentCallersAreIndependent) {
  // Several external threads sharing one pool: every call must see its own
  // completion (no cross-caller waiting on a shared pending count).
  ThreadPool pool(4);
  constexpr int kCallers = 8;
  constexpr int64_t kTotal = 2000;
  std::vector<std::atomic<int64_t>> sums(kCallers);
  std::vector<std::thread> callers;
  for (int c = 0; c < kCallers; ++c) {
    callers.emplace_back([&, c] {
      for (int rep = 0; rep < 5; ++rep) {
        std::atomic<int64_t> local{0};
        pool.ParallelFor(kTotal, 16, [&](int64_t b, int64_t e) {
          local.fetch_add(e - b);
        });
        // The call returned: every one of *its* chunks must have run.
        ASSERT_EQ(local.load(), kTotal);
      }
      sums[static_cast<size_t>(c)].store(1);
    });
  }
  for (std::thread& t : callers) t.join();
  for (const auto& s : sums) EXPECT_EQ(s.load(), 1);
}

TEST(ThreadPool, ConcurrentCallerExceptionsStayWithTheirCall) {
  ThreadPool pool(4);
  constexpr int kCallers = 6;
  std::vector<int> outcome(kCallers, -1);  // 0 = ok, 1 = threw
  std::vector<std::thread> callers;
  for (int c = 0; c < kCallers; ++c) {
    callers.emplace_back([&, c] {
      const bool should_throw = (c % 2 == 0);
      try {
        pool.ParallelFor(500, 1, [&](int64_t b, int64_t) {
          if (should_throw && b == 250) throw IndexError("caller boom");
        });
        outcome[static_cast<size_t>(c)] = 0;
      } catch (const TtRecError&) {
        outcome[static_cast<size_t>(c)] = 1;
      }
    });
  }
  for (std::thread& t : callers) t.join();
  for (int c = 0; c < kCallers; ++c) {
    EXPECT_EQ(outcome[static_cast<size_t>(c)], c % 2 == 0 ? 1 : 0)
        << "caller " << c;
  }
}

}  // namespace
}  // namespace ttrec
