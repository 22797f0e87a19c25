// A small work-stealing-free thread pool and a blocking parallel_for.
//
// TT-EmbeddingBag splits a batch into blocks of lookups, and a block's
// backward into per-slice GEMMs; on multi-core hosts those tasks are spread
// across pool workers. The pool is created lazily and sized from
// std::thread::hardware_concurrency() unless overridden. On a single-core
// host parallel_for degrades to an inline loop with zero overhead.
//
// Concurrency contract (the serving layer depends on both):
//  - ParallelFor may be called from several threads at once; every call has
//    its own completion state, so independent callers neither wait on each
//    other's chunks nor steal each other's exceptions.
//  - ParallelFor is re-entrant: a call made from inside a pool task (or from
//    the caller-executed chunk of an enclosing ParallelFor) runs inline on
//    the current thread instead of enqueuing. This lets an outer loop shard
//    coarse work (e.g. one embedding table per worker) while inner kernels
//    (the TT blocks and their slice GEMMs) still call ParallelFor without
//    deadlocking the pool.
#pragma once

#include <condition_variable>
#include <cstdint>
#include <functional>
#include <mutex>
#include <thread>
#include <vector>

namespace ttrec {

/// Fixed-size thread pool executing `void(int64_t begin, int64_t end)` range
/// tasks. Thread-safe; tasks must not throw (exceptions are rethrown on the
/// calling thread from ParallelFor).
class ThreadPool {
 public:
  /// Creates a pool with `num_threads` workers (>= 1). `num_threads == 1`
  /// creates no worker threads; everything runs inline.
  explicit ThreadPool(int num_threads);
  ~ThreadPool();

  ThreadPool(const ThreadPool&) = delete;
  ThreadPool& operator=(const ThreadPool&) = delete;

  int num_threads() const { return num_threads_; }

  /// Runs `fn(begin, end)` over [0, total) split into roughly equal chunks,
  /// one per worker; blocks until all chunks finish. `grain` is the minimum
  /// chunk size (small ranges run inline). Safe to call concurrently from
  /// multiple threads and from inside pool tasks (nested calls run inline).
  void ParallelFor(int64_t total, int64_t grain,
                   const std::function<void(int64_t, int64_t)>& fn);

  /// True while the current thread is executing a ParallelFor chunk (either
  /// as a pool worker or as the calling thread running its own share).
  static bool InParallelRegion();

  /// Process-wide pool, sized from hardware_concurrency (min 1).
  static ThreadPool& Global();

  /// Resizes the global pool; for tests and benchmark sweeps.
  static void SetGlobalThreads(int num_threads);

 private:
  /// Per-ParallelFor completion state, stack-allocated by the call so
  /// concurrent calls are fully independent.
  struct CallState {
    int pending = 0;
    std::exception_ptr error;
  };

  struct Task {
    const std::function<void(int64_t, int64_t)>* fn = nullptr;
    int64_t begin = 0;
    int64_t end = 0;
    CallState* call = nullptr;
  };

  void WorkerLoop();

  int num_threads_;
  std::vector<std::thread> workers_;
  std::mutex mu_;
  std::condition_variable cv_;
  std::condition_variable done_cv_;
  std::vector<Task> queue_;
  bool shutdown_ = false;
};

/// Shorthand for ThreadPool::Global().ParallelFor with a default grain.
void ParallelFor(int64_t total, const std::function<void(int64_t, int64_t)>& fn,
                 int64_t grain = 64);

}  // namespace ttrec
