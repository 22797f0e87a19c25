// Fixed-capacity row cache storing uncompressed embedding vectors.
//
// This is the storage half of the paper's §4.2 cache: a slot array of
// `capacity` rows of `emb_dim` floats plus an open-addressing row-id -> slot
// map. Population is bulk ("semi-dynamic": the owner decides when to refresh
// from the frequency tracker); reads and in-place SGD updates are O(1).
// Eviction discards learned weights (paper: re-decomposing evicted rows into
// the TT cores would be streaming TT decomposition, an open problem).
//
// Thread-safety contract (the serving read path depends on this):
//  - `Peek(int64_t) const` and `CountLookups` are safe to call from any
//    number of concurrent reader threads: a probe touches only the slot map
//    and values array, which change only in the exclusive phase below, and
//    the hit/miss statistics are relaxed atomics. The forwards probe every
//    lookup with Peek and add the call's hits and misses once, so a call
//    costs one probe per lookup and two atomic adds. A pointer Peek returns
//    stays valid until the next mutation.
//  - Any mutation — Populate, Append/Insert, Erase, Resize,
//    ApplySgd/ApplyAdagrad, ZeroGrads, ScaleGrads, SetAdagradState, writing
//    through an Append or GradFor pointer — requires exclusive access (no
//    concurrent readers or writers). Training owns that phase; serving
//    only ever reads a frozen cache.
#pragma once

#include <atomic>
#include <cstdint>
#include <span>
#include <vector>

#include "tensor/tensor.h"

namespace ttrec {

class LfuRowCache {
 public:
  LfuRowCache(int64_t capacity, int64_t emb_dim);

  int64_t capacity() const { return capacity_; }
  int64_t emb_dim() const { return emb_dim_; }
  int64_t size() const { return static_cast<int64_t>(slot_cells_.size()); }

  /// Pointer to the cached vector for `row`, or nullptr on miss. Leaves
  /// the hit/miss statistics alone: a forward counts its call's lookups
  /// with CountLookups, and control-plane reads (resize row carry-over,
  /// checkpointing) are not lookups at all.
  const float* Peek(int64_t row) const;

  /// Adds one call's lookups to hits() and misses(). Const and safe for
  /// concurrent callers (relaxed atomics, see the contract above).
  void CountLookups(int64_t hits, int64_t misses) const;

  /// Gradient accumulator slot paired with the cached vector at `value`, a
  /// pointer that Peek returned since the last mutation: the slot
  /// is the one that probe found, so the id map is not probed again.
  /// nullptr for a null `value` (a miss) or one that is not the start of a
  /// resident slot's vector.
  float* GradFor(const float* value);

  /// Replaces the cache contents with `rows` and their vectors from
  /// `values` (rows.size() x emb_dim). Throws ConfigError if rows.size()
  /// exceeds `capacity` — truncating would silently serve a smaller hot set
  /// while resetting stats as if fully populated — or if `rows` contains a
  /// duplicate or negative id. All validation happens before any state is
  /// touched: a throwing Populate leaves the previous contents fully
  /// servable. Gradients are zeroed. Previously cached rows keep nothing —
  /// eviction discards learned weights by design.
  void Populate(std::span<const int64_t> rows, const float* values);

  /// Incrementally admits one row into the next free slot — the
  /// lookahead-prefetch path, where repopulating the whole cache per plan
  /// would reset every resident row's gradients and Adagrad state — and
  /// returns its vector (`emb_dim` floats), which the caller writes before
  /// any read. The row takes slot size(), so consecutive calls hand out
  /// consecutive vectors. The new row's gradient (and Adagrad, when
  /// active) slot is zeroed; every other slot is untouched. Throws
  /// ConfigError when the cache is full or the row is already resident,
  /// IndexError on a negative id — all before any state changes.
  /// Exclusive-access phase only.
  float* Append(int64_t row);

  /// Append, then copies `value` (`emb_dim` floats) into the new vector.
  void Insert(int64_t row, const float* value);

  /// Incrementally evicts one resident row, discarding its learned weights
  /// (counted in evictions()). Other rows keep values, gradients, and
  /// Adagrad state. Throws ConfigError when the row is not resident.
  /// Exclusive-access phase only.
  void Erase(int64_t row);

  /// Whether `row` is resident, without touching the hit/miss statistics.
  bool Contains(int64_t row) const { return SlotOf(row) >= 0; }

  /// Changes the capacity and atomically repopulates with `rows`/`values`
  /// (rows.size() <= new_capacity) — the CacheManager's re-apportionment
  /// path. Same validation-before-mutation contract as Populate.
  /// Hit/miss/eviction/populate statistics are preserved across the
  /// resize; previously resident rows absent from the new set count as
  /// evictions. Gradients and Adagrad state are reset at the new size.
  void Resize(int64_t new_capacity, std::span<const int64_t> rows,
              const float* values);

  /// Planning cost model: the bytes one capacity row costs at `emb_dim` —
  /// value + gradient vectors plus the 2x-provisioned id-map slots and the
  /// slot->map-cell entry. MemoryBytes() of a populated cache tracks
  /// capacity * BytesPerRow(emb_dim) up to the map's power-of-two rounding.
  static int64_t BytesPerRow(int64_t emb_dim) {
    return static_cast<int64_t>(2 * static_cast<uint64_t>(emb_dim) *
                                sizeof(float)) +
           static_cast<int64_t>(5 * sizeof(int64_t));
  }

  /// Applies w -= lr * grad to every cached row and clears gradients.
  void ApplySgd(float lr);

  /// Elementwise Adagrad on the cached rows (state persists until the next
  /// Populate, which resets it along with the row set).
  void ApplyAdagrad(float lr, float eps = 1e-8f);

  /// Clears accumulated row gradients without applying them.
  void ZeroGrads();

  /// Sum of squares of all accumulated row gradients.
  double GradSqNorm() const;

  /// Scales all accumulated row gradients (gradient clipping).
  void ScaleGrads(float scale);

  /// Adagrad accumulator state, for checkpointing (empty when Adagrad has
  /// never run). SetAdagradState validates the size.
  const std::vector<float>& AdagradState() const { return adagrad_; }
  void SetAdagradState(std::vector<float> state);

  /// All currently cached row ids, in slot order (unordered by id; the
  /// order fixes checkpoint bytes).
  std::vector<int64_t> CachedRows() const;

  /// Bytes for vectors + gradients + the id map.
  int64_t MemoryBytes() const;

  // Hit statistics: CountLookups adds each forward call's hits and misses
  // once, so after a call returns hits() + misses() has grown by exactly its
  // lookups. Relaxed atomics, so concurrent readers count without
  // synchronizing.
  int64_t hits() const { return hits_.load(std::memory_order_relaxed); }
  int64_t misses() const { return misses_.load(std::memory_order_relaxed); }
  /// Rows that left the cache: removed by Erase, or previously resident
  /// rows absent from a Populate/Resize's new set. Their learned weights
  /// are discarded.
  int64_t evictions() const { return evictions_; }
  /// Populate() calls so far.
  int64_t populates() const { return populates_; }
  double HitRate() const;
  void ResetStats();

 private:
  int64_t SlotOf(int64_t row) const;  // -1 if absent
  /// Shared Populate/Resize tail: validates, then commits the new capacity,
  /// row set, and id map in one shot.
  void PopulateImpl(int64_t new_capacity, std::span<const int64_t> rows,
                    const float* values);

  int64_t capacity_;
  int64_t emb_dim_;
  // slot -> id-map cell (the row id is map_[cell].key): Erase finds the
  // cell of the row it moves into the hole without probing for it.
  std::vector<int64_t> slot_cells_;
  std::vector<float> values_;      // capacity x emb_dim
  std::vector<float> grads_;       // capacity x emb_dim
  std::vector<float> adagrad_;     // lazily sized capacity x emb_dim
  // Open addressing with linear probing; a cell holds a row id and its
  // slot side by side, so a probe that finds the row reads one cache line.
  struct MapCell {
    int64_t key = -1;  // row id, or -1 for an empty cell
    int64_t slot = -1;
  };
  std::vector<MapCell> map_;
  mutable std::atomic<int64_t> hits_{0};
  mutable std::atomic<int64_t> misses_{0};
  // Mutated only in the exclusive-access phase, so plain ints.
  int64_t evictions_ = 0;
  int64_t populates_ = 0;
};

}  // namespace ttrec
