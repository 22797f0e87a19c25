// Staged training pipeline: the lookahead half of TrainDlrm.
//
// BagPipe's observation (PAPERS.md) is that a recommendation trainer knows
// its future: the sample stream is decided by the data source, not the
// model, so a stage running ahead of the optimizer can (a) have the next
// batch assembled before the compute stage wants it and (b) tell the
// embedding caches which rows the next K batches will touch while the
// current step is still grinding through its GEMMs. LookaheadStage is that
// stage. It produces StagedBatch records — the minibatch itself, one
// sorted-unique row list ("prefetch plan") per cache-backed table, and the
// source's serialized cursor — either inline (depth 0: the synchronous
// loop, byte-for-byte) or from a producer thread feeding a bounded queue
// (depth K >= 1: classic double buffering, the producer runs at most K
// batches ahead).
//
// Cost: a plan is built in O(lookups) by SortUniqueIds (a radix sort, no
// comparison sort). On a one-CPU host the producer shares the CPU with the
// step it feeds, so its generation and plan time are a share of the step,
// not overlap.
//
// Determinism contract (the bitwise-identity gate in test_pipeline.cc):
//  - Batch generation never reads model or cache state, so the stream a
//    producer thread generates is bitwise the stream the inline path
//    generates. Threading is pure overlap.
//  - The stage itself never touches a cache. Plans are *data* — the
//    consumer applies them (CachedTtEmbeddingBag::PrefetchRows) on the
//    compute thread at fixed sequence points, so cache mutation order is a
//    function of the schedule, not of thread timing.
//  - Consequently `threaded` on/off cannot change results at any depth;
//    the lookahead *depth* is a semantic knob (it decides when prefetch
//    plans exist to be applied), exactly like cache capacity.
//
// A producer-side failure (the source throws) is captured, the queue is
// closed, and the next Next() call rethrows it wrapped in PipelineError —
// typed, and never a deadlock: every queue wait also watches the done flag.
#pragma once

#include <condition_variable>
#include <cstdint>
#include <deque>
#include <exception>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

#include "data/batch_source.h"
#include "tensor/check.h"

namespace ttrec {

/// A failure inside the staged pipeline (producer thread or stage
/// machinery), distinct from the data source's own typed errors so callers
/// can tell "the stream is broken" from "the config is wrong".
class PipelineError : public TtRecError {
 public:
  using TtRecError::TtRecError;
};

struct LookaheadOptions {
  /// How many batches ahead of the compute stage the producer may run.
  /// 0 = inline synchronous generation (no thread, no plans, no capture
  /// overhead beyond what the caller asks for).
  int64_t depth = 0;
  /// Generate on a producer thread (depth >= 1 only). Off = the same
  /// staged semantics executed inline on the caller's thread; results are
  /// bitwise identical either way.
  bool threaded = true;
  /// Samples per batch passed to BatchSource::NextBatch.
  int64_t batch_size = 1;
  /// Index of the first batch to produce and how many to produce in total
  /// (the consumer's [start_index, start_index + total_batches) window).
  int64_t start_index = 0;
  int64_t total_batches = 0;
  /// plan_tables[t] selects tables whose future row ids are worth planning
  /// (the cache-backed ones). Empty = no plans. Plans are only built at
  /// depth >= 1 — at depth 0 there is no "future" to prefetch.
  std::vector<bool> plan_tables;
  /// Capture BatchSource::SaveState after generating each batch, so a
  /// checkpoint at iteration i can embed the cursor as of batch i even
  /// while the source itself has already run ahead to batch i + K.
  bool capture_state = false;
};

struct StagedBatch {
  int64_t index = 0;
  MiniBatch batch;
  /// Per table: sorted unique row ids this batch touches (empty for tables
  /// not selected by plan_tables, and always at depth 0), built by
  /// SortUniqueIds.
  std::vector<std::vector<int64_t>> plan;
  /// BatchSource cursor captured immediately after this batch was drawn
  /// (empty unless capture_state) — the "data" section payload of a
  /// snapshot taken after step `index`.
  std::string source_state;
};

/// Sorts `ids` ascending and drops repeats: the result of std::sort +
/// std::unique for any int64 ids, negative and out-of-range ones included
/// (PrefetchRows rejects those before it mutates anything). An LSD counting
/// sort over id - min in digits of at most 11 bits, one pass per digit —
/// ceil(bit_width(max - min) / 11) passes, two for a 200k-row table — then
/// one unique pass: O(n) where a comparison sort is O(n log n).
void SortUniqueIds(std::vector<int64_t>& ids);

class LookaheadStage {
 public:
  /// The stage has exclusive use of `source`'s training stream between
  /// construction and destruction (EvalBatch stays fair game — it is
  /// const and side-effect-free by the BatchSource contract).
  LookaheadStage(BatchSource& source, LookaheadOptions options);
  ~LookaheadStage();

  LookaheadStage(const LookaheadStage&) = delete;
  LookaheadStage& operator=(const LookaheadStage&) = delete;

  /// True once all total_batches have been handed out.
  bool Exhausted() const;

  /// Blocks for the next staged batch (in index order). Throws
  /// PipelineError if the producer (or inline generation) failed.
  StagedBatch Next();

  /// Suspends the producer thread (joins it; already-staged batches stay
  /// queued). The caller may then touch `source` safely — the rollback
  /// path must restore the cursor without racing the producer. Resume()
  /// continues exactly where production stopped; Restart() rebases
  /// instead. No-ops in inline mode.
  void Pause();
  void Resume();

  /// Rebases the stage after the caller restored `source` to an earlier
  /// cursor (checkpoint rollback): stops the producer, discards everything
  /// staged, and resumes producing at `next_index`. The consumer's
  /// iteration window becomes [next_index, start_index + total_batches).
  void Restart(int64_t next_index);

  struct Stats {
    int64_t batches_produced = 0;
    /// Time the consumer spent blocked in Next() waiting for the producer.
    int64_t consumer_wait_us = 0;
    /// Time the producer spent blocked on a full queue (compute-bound run)
    /// — only meaningful when threaded.
    int64_t producer_wait_us = 0;
    int64_t max_queue_depth = 0;
    int64_t restarts = 0;
  };
  /// Safe to call between Next() calls (not concurrently with them).
  Stats stats() const;

 private:
  StagedBatch Produce(int64_t index);  // shared inline/threaded generation
  void ProducerLoop();
  void StopProducer();
  void StartProducer();

  BatchSource& source_;
  LookaheadOptions options_;
  int64_t end_index_ = 0;    // one past the last batch to produce
  int64_t next_produce_ = 0; // next index the producer will generate
  int64_t next_consume_ = 0; // next index Next() will return

  // Threaded mode: bounded queue of at most `depth` staged batches.
  std::thread producer_;
  mutable std::mutex mu_;
  std::condition_variable queue_not_empty_;
  std::condition_variable queue_not_full_;
  std::deque<StagedBatch> queue_;
  std::exception_ptr producer_error_;
  bool stop_requested_ = false;
  bool producer_done_ = false;

  Stats stats_;  // guarded by mu_ when a producer thread exists
};

}  // namespace ttrec
