// Hybrid embedding operator: TT-compressed table + LFU cache of hot rows
// (paper §4.2 and the multi-stage training process of Figure 4).
//
// Training starts with the TT cores only. During a warm-up window the
// open-addressing frequency tracker counts every index; every
// `refresh_interval` iterations the cache is repopulated with the top-K
// most-frequent rows, *materialized from the TT cores* — decoded by the same
// staged kernel as a TT lookup (TtEmbeddingBag::LookupRows), so an admitted
// row equals the pure-TT row bit for bit. When the warm-up
// ends the cached set freezes (the paper observes the hot set is stable,
// Figure 9). From then on:
//   - cache hits read/update the uncompressed cached vector directly
//     (W' = W - lr * dL/dW), learning those rows *uncompressed*;
//   - misses go through the TT-EmbeddingBag forward/backward.
// Evicted rows discard their learned weights — folding them back into the
// TT cores would be streaming TT decomposition, which the paper explicitly
// leaves open.
#pragma once

#include <cstdint>
#include <memory>
#include <span>
#include <utility>
#include <vector>

#include "cache/freq_tracker.h"
#include "cache/lfu_cache.h"
#include "data/csr_batch.h"
#include "obs/metrics.h"
#include "tensor/serialize.h"
#include "tt/tt_embedding.h"

namespace ttrec {

struct CachedTtConfig {
  TtEmbeddingConfig tt;
  /// Cache capacity in rows. The paper finds 0.01% of the table sufficient
  /// (§6.5, Figure 10b).
  int64_t cache_capacity = 0;
  /// Forward iterations that constitute the warm-up window (e.g. 10% of
  /// training iterations, §6.5 / Figure 10a).
  int64_t warmup_iterations = 100;
  /// Cache repopulation cadence within the warm-up window, in iterations
  /// ("only every 100s to 1000s of iterations", §4.2).
  int64_t refresh_interval = 50;
  /// Keep counting frequencies after warm-up (costs a hash update per
  /// lookup; off by default since the frozen set no longer changes).
  bool track_after_warmup = false;
  /// Optional periodic re-warm-up (paper Fig 4: "one might consider
  /// updating the cache and repeat the warm up process periodically").
  /// Every `rewarm_period` iterations after the initial warm-up, the
  /// frequency counts are decayed (halved, favouring the current phase), a
  /// re-tracking window of warmup_iterations opens, and the cache is
  /// refreshed at its end. 0 disables (the paper's default: the hot set is
  /// stable, Fig 9).
  int64_t rewarm_period = 0;
};

class CachedTtEmbeddingBag {
 public:
  CachedTtEmbeddingBag(CachedTtConfig config, TtInit init, Rng& rng);

  int64_t num_rows() const { return tt_.num_rows(); }
  int64_t emb_dim() const { return tt_.emb_dim(); }
  const CachedTtConfig& config() const { return config_; }
  TtEmbeddingBag& tt() { return tt_; }
  const TtEmbeddingBag& tt() const { return tt_; }
  const LfuRowCache& cache() const { return cache_; }
  const FreqTracker& tracker() const { return tracker_; }
  int64_t iteration() const { return iteration_; }
  bool warmed_up() const { return iteration_ >= config_.warmup_iterations; }

  // Forward, ForwardInference and PoolPrefetchedRows share one
  // split-and-fold path: lookups that hit the cache fold on top of the TT
  // op's pooling of the misses. They differ only in what runs around it.

  /// Pools the batch into output (num_bags x emb_dim). Advances the
  /// iteration counter, tracks frequencies and performs warm-up cache
  /// refreshes first; misses run the TT op's training Forward.
  void Forward(const CsrBatch& batch, float* output);

  /// Read-only serving forward: pools the batch like Forward but does NOT
  /// advance the iteration counter, track frequencies, or refresh the cache
  /// — the hot set stays exactly as the last (training-side) refresh left
  /// it.
  ///
  /// Thread-safety: safe for any number of concurrent callers, and produces
  /// output bitwise identical to Forward on a frozen cache (hits read
  /// through LfuRowCache::Peek and count once per call, misses run the TT
  /// chain per lookup).
  /// Must not race with mutations (Forward, Backward, optimizer steps,
  /// RefreshCache, LoadState) — serve traffic and training steps on the
  /// same operator require external phasing.
  void ForwardInference(const CsrBatch& batch, float* output) const;

  /// Pools pre-fetched rows (one per lookup of `batch`, lookup order)
  /// through ForwardInference's split and fold, with every lookup's data —
  /// hits included — taken from `rows`. The indices must be the global row
  /// ids (the hit/miss split keys on them); for hits the bytes in `rows`
  /// equal the cached vector, for misses the TT-decoded row, so results are
  /// bitwise equal to a local ForwardInference. Const, safe for concurrent
  /// callers.
  void PoolPrefetchedRows(const CsrBatch& batch, const float* rows,
                          float* output) const;

  /// Accumulates gradients: cached rows into the cache's gradient slots,
  /// missed rows into the TT core gradients. Must be called with the same
  /// batch as the preceding Forward (standard autograd pairing) — the
  /// cache partition is recomputed and matches because refreshes only
  /// happen inside Forward. The recomputed partition does not count as
  /// hits or misses: Forward already counted those lookups.
  void Backward(const CsrBatch& batch, const float* grad_output);

  /// SGD on both the TT cores and the cached uncompressed rows.
  void ApplySgd(float lr);

  /// Adagrad on both the TT cores and the cached uncompressed rows.
  void ApplyAdagrad(float lr, float eps = 1e-8f);

  /// Discards pending gradients on both the TT cores and the cached rows.
  void ZeroGrad();

  /// Sum of squares over TT-core and cached-row gradients.
  double GradSqNorm() const;

  /// Scales TT-core and cached-row gradients (gradient clipping).
  void ScaleGrads(float scale);

  /// Serializes / restores Adagrad accumulators (TT cores + cached rows).
  void SaveOptState(BinaryWriter& w) const;
  void LoadOptState(BinaryReader& r);

  /// Forces a cache refresh from the current frequency counts (top-K rows
  /// decoded from the TT cores). Normally driven by Forward.
  void RefreshCache();

  /// Lookahead admission (BagPipe-style; the DeepRec add_to_prefetch_list
  /// shape) with Belady's rule inside the lookahead window: `window` holds
  /// the prefetch plans of the staged batches in next-use order, the batch
  /// about to train first and the newest last. Every window row is made
  /// resident if it fits, so those batches' lookups hit instead of
  /// decoding TT chains:
  ///   - Resident rows stay exactly as they are (learned values intact).
  ///   - A row that any window plan looks up is never evicted. When the
  ///     cache is full, only rows outside the window leave, in ascending
  ///     (tracker count, row id) order, never more than needed.
  ///   - Missing rows are admitted in next-use order: by plan, then
  ///     ascending row id within a plan (a plan that is not sorted is
  ///     sorted on a copy), and decoded from the TT cores by one
  ///     LookupRows call straight into their slots.
  ///   - Rows that still do not fit are skipped and counted in
  ///     prefetch_skips(); a caller that passes the window again at the
  ///     next step retries them.
  /// A one-plan window is the classic single-plan prefetch. The tracker is
  /// NOT fed here — prefetch is a hint about the future, not an observed
  /// access. Returns the number of rows admitted; the evictions count in
  /// cache().evictions() like any other.
  ///
  /// Cost: bookkeeping is bit operations and one tracker probe per counted
  /// row it orders. Window membership, residency and "tracker count > 0"
  /// are one bit per table row each, 3 bits per row in all, allocated on
  /// the first call (never by serving) and not counted in MemoryBytes().
  /// Marking the window tests a bit per distinct row and probes no id map.
  /// The (count, row) order starts with every uncounted resident in row
  /// order, so the first victims come from a word-wise scan of
  /// resident & ~counted & ~window that stops at the last victim needed;
  /// only the counted residents are kept sorted by (count, row), for the
  /// victims after those. An uncounted admission costs no tracker probe,
  /// sort or merge. The residency bits are rebuilt only after a refresh,
  /// resize or load replaced the residents; the counted bits only after a
  /// rewarm's decay or a load's clear (Forward's tracking sets the bits of
  /// the rows it counts); the counted order after either, or after
  /// frequency tracking moved the counts (in the warm-up window, or on
  /// every step with track_after_warmup). Every buffer the call uses is a
  /// grow-only member, so a steady-state call allocates nothing.
  ///
  /// Determinism: given the same cache/tracker state and the same window,
  /// the resulting resident set, slot order and values are identical — the
  /// pipelined trainer calls this at fixed schedule points on the compute
  /// thread, so results stay bitwise reproducible at any thread count.
  /// Must be called between steps (exclusive access, no pending gradients
  /// on the evicted rows' slots — in TrainDlrm that is any step boundary).
  /// Throws IndexError (before any mutation) if a row is out of range.
  int64_t PrefetchRows(std::span<const std::span<const int64_t>> window);

  /// PrefetchRows calls / rows admitted / window rows that did not fit
  /// (summed over calls, so a row skipped at two steps counts twice).
  int64_t prefetch_calls() const { return prefetch_calls_; }
  int64_t prefetch_inserts() const { return prefetch_inserts_; }
  int64_t prefetch_skips() const { return prefetch_skips_; }

  /// Changes the cache capacity in place — the CacheManager's global
  /// re-apportionment path. The new row set is the frequency tracker's
  /// top-`new_capacity` (falling back to the currently resident rows in
  /// slot order when the tracker is empty — after LoadState, or with no
  /// warm-up and track_after_warmup off; a frozen tracker keeps its
  /// warm-up counts). Every kept row is decoded from the TT cores; rows
  /// that survive then keep their *learned* uncompressed values (read via
  /// Peek, so stats stay honest). Dropped rows count as evictions. Adagrad
  /// state for the cached rows is reset at the new size — checkpoints of
  /// optimizer state pair with a same-capacity construction. No-op when
  /// new_capacity matches.
  void ResizeCache(int64_t new_capacity);

  /// ResizeCache calls that actually changed the capacity.
  int64_t resizes() const { return resizes_; }

  /// Serializes TT cores + cached rows/values + the iteration counter.
  /// Frequency counts are NOT persisted: after a load inside the warm-up
  /// window the tracker rebuilds; after warm-up the restored cache set is
  /// already frozen, matching Fig 4 semantics.
  void SaveState(BinaryWriter& w) const;
  void LoadState(BinaryReader& r);

  /// Fraction of lookups served from the cache since the last ResetStats.
  double HitRate() const { return cache_.HitRate(); }
  void ResetStats() { cache_.ResetStats(); }

  /// Cache refreshes performed (warm-up cadence + final freeze + re-warms).
  int64_t refreshes() const { return refreshes_; }

  /// Adds cache and TT statistics into `reg` under the shared names
  /// (cache.hits / cache.misses / cache.evictions / cache.refreshes /
  /// cache.decay_rebuilds / cache.resizes / cache.prefetch_calls /
  /// cache.prefetch_inserts / cache.prefetch_skips, tt.* — see
  /// TtEmbeddingStats) so totals across several cached tables sum
  /// naturally in one registry.
  /// Collection is idempotent per registry: repeated calls publish only the
  /// delta since this operator's last collection into that registry, so a
  /// long-lived registry stays exact, while a fresh registry (the serving
  /// snapshot pattern) receives the full cumulative totals.
  void CollectStats(obs::MetricRegistry& reg) const;

  /// Parameter memory: TT cores + cache storage.
  int64_t MemoryBytes() const {
    return tt_.MemoryBytes() + cache_.MemoryBytes();
  }

  /// Peak transient kernel memory of the miss path — the block-parallel TT
  /// workspace (see TtEmbeddingBag::WorkspaceBytes). The hit path reads
  /// cached rows in place and allocates nothing beyond the reusable hit
  /// scratch.
  int64_t WorkspaceBytes(int num_threads = 0) const {
    return tt_.WorkspaceBytes(num_threads);
  }

 private:
  struct CacheHit {
    int64_t bag;
    float weight;
    const float* vec;
  };

  /// Splits `batch` into cache hits and a TT sub-batch of the misses (in
  /// lookup order, with explicit per-lookup weights), calling
  /// `on_lookup(bag, lookup, weight, cached)` for every lookup; `cached` is
  /// null for a miss. Every lookup is one Peek; with `count` (the forwards)
  /// the call's hits and misses are then added once (the backward revisits
  /// the forward's lookups and does not count them). Const and safe for
  /// concurrent callers.
  template <typename OnLookup>
  CsrBatch Partition(const CsrBatch& batch, bool count,
                     OnLookup&& on_lookup) const;

  /// The split-and-fold path of all three forwards: partitions `batch`,
  /// has `pool_misses(misses, miss_rows, output)` pool the TT sub-batch
  /// into `output` (overwriting it), then folds the hits on top. With
  /// `rows`, every lookup's data comes from there and `miss_rows` holds the
  /// misses' rows in sub-batch order; without, hits read the cache and
  /// `miss_rows` is null. `hits` is caller-owned scratch.
  template <typename PoolMisses>
  void SplitAndFold(const CsrBatch& batch, const float* rows, float* output,
                    std::vector<CacheHit>& hits,
                    PoolMisses&& pool_misses) const;

  CachedTtConfig config_;
  TtEmbeddingBag tt_;
  LfuRowCache cache_;
  FreqTracker tracker_;
  int64_t iteration_ = 0;
  int64_t rewarm_until_ = -1;  // end of the current re-warm window
  int64_t refreshes_ = 0;
  int64_t resizes_ = 0;
  int64_t prefetch_calls_ = 0;
  int64_t prefetch_inserts_ = 0;
  int64_t prefetch_skips_ = 0;
  /// PrefetchRows' bitmaps, one bit per table row each, sized on first use:
  ///  - window_bits_: the window's rows, cleared before the call returns;
  ///  - resident_bits_: set while the row is resident. Prefetch keeps them
  ///    in step with its own Append and Erase; a refresh, resize or load
  ///    replaces the residents and marks them stale, and the next prefetch
  ///    rebuilds them from CachedRows();
  ///  - counted_bits_: set while the row's tracker count is above 0.
  ///    Forward's tracking sets the bits of the rows it counts; a decay or
  ///    clear marks them stale, and the next prefetch rebuilds them from
  ///    the tracker.
  std::vector<uint64_t> window_bits_;
  std::vector<uint64_t> resident_bits_;
  std::vector<uint64_t> counted_bits_;
  bool resident_bits_stale_ = true;
  bool counted_bits_stale_ = true;
  /// The counted residents as (tracker count, row id), ascending: the
  /// victims after the uncounted ones. Stale after anything that replaces
  /// the residents or moves counts; the next prefetch that reaches it
  /// rebuilds it, and prefetches keep it in step otherwise.
  std::vector<std::pair<int64_t, int64_t>> counted_order_;
  bool counted_order_stale_ = true;
  /// PrefetchRows' grow-only scratch: the plans (and sorted copies of the
  /// unsorted ones), the missing rows, and the counted admissions that
  /// merge into counted_order_. The admissions decode straight into their
  /// cache slots.
  struct PrefetchScratch {
    std::vector<std::span<const int64_t>> plans;
    std::vector<std::vector<int64_t>> sorted_copies;
    std::vector<int64_t> missing;
    std::vector<std::pair<int64_t, int64_t>> counted_admissions;
  };
  PrefetchScratch prefetch_scratch_;
  obs::StatPublisher stats_publisher_;
  std::vector<CacheHit> hit_scratch_;
};

}  // namespace ttrec
