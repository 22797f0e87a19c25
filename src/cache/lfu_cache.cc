#include "cache/lfu_cache.h"

#include <algorithm>
#include <bit>
#include <cmath>
#include <cstddef>
#include <cstring>

#include "tensor/check.h"

namespace ttrec {

namespace {

uint64_t HashKey(int64_t key) {
  uint64_t z = static_cast<uint64_t>(key) * 0x9e3779b97f4a7c15ull;
  z ^= z >> 29;
  z *= 0xbf58476d1ce4e5b9ull;
  return z ^ (z >> 32);
}

}  // namespace

LfuRowCache::LfuRowCache(int64_t capacity, int64_t emb_dim)
    : capacity_(capacity), emb_dim_(emb_dim) {
  TTREC_CHECK_CONFIG(capacity >= 1, "LfuRowCache: capacity must be >= 1");
  TTREC_CHECK_CONFIG(emb_dim >= 1, "LfuRowCache: emb_dim must be >= 1");
  values_.resize(static_cast<size_t>(capacity * emb_dim), 0.0f);
  grads_.resize(static_cast<size_t>(capacity * emb_dim), 0.0f);
  const uint64_t map_cap =
      std::bit_ceil(static_cast<uint64_t>(std::max<int64_t>(16, 2 * capacity)));
  map_.assign(static_cast<size_t>(map_cap), MapCell{});
}

int64_t LfuRowCache::SlotOf(int64_t row) const {
  const size_t mask = map_.size() - 1;
  size_t i = static_cast<size_t>(HashKey(row)) & mask;
  while (map_[i].key != -1) {
    if (map_[i].key == row) return map_[i].slot;
    i = (i + 1) & mask;
  }
  return -1;
}

const float* LfuRowCache::Peek(int64_t row) const {
  const int64_t slot = SlotOf(row);
  return slot < 0 ? nullptr : values_.data() + slot * emb_dim_;
}

void LfuRowCache::CountLookups(int64_t hits, int64_t misses) const {
  if (hits != 0) hits_.fetch_add(hits, std::memory_order_relaxed);
  if (misses != 0) misses_.fetch_add(misses, std::memory_order_relaxed);
}

std::vector<int64_t> LfuRowCache::CachedRows() const {
  std::vector<int64_t> rows;
  rows.reserve(slot_cells_.size());
  for (const int64_t cell : slot_cells_) {
    rows.push_back(map_[static_cast<size_t>(cell)].key);
  }
  return rows;
}

float* LfuRowCache::GradFor(const float* value) {
  if (value == nullptr) return nullptr;
  const std::ptrdiff_t offset = value - values_.data();
  if (offset < 0 || offset % emb_dim_ != 0 || offset / emb_dim_ >= size()) {
    return nullptr;
  }
  return grads_.data() + offset;
}

void LfuRowCache::PopulateImpl(int64_t new_capacity,
                               std::span<const int64_t> rows,
                               const float* values) {
  // Refuse oversized row sets outright. Truncating here would zero the
  // hit/miss stats as if the full hot set were resident while silently
  // serving a smaller one — a capacity-planning bug that surfaces only as
  // mysteriously low hit rates.
  TTREC_CHECK_CONFIG(
      rows.size() <= static_cast<size_t>(new_capacity),
      "LfuRowCache::Populate: ", rows.size(), " rows exceed capacity ",
      new_capacity, "; pass at most `capacity()` rows");
  // Build the replacement id map first: every validation failure (negative
  // id, duplicate id) throws before a single member is touched, so the
  // previous contents stay fully servable. Duplicates used to be detected
  // only mid-rebuild, after rows/values were already overwritten — the
  // caller caught ConfigError against a cache whose map was half-built and
  // whose duplicate rows burned slots.
  const uint64_t map_cap = std::bit_ceil(
      static_cast<uint64_t>(std::max<int64_t>(16, 2 * new_capacity)));
  std::vector<MapCell> new_map(static_cast<size_t>(map_cap));
  std::vector<int64_t> new_cells;
  new_cells.reserve(static_cast<size_t>(new_capacity));
  const size_t mask = static_cast<size_t>(map_cap) - 1;
  for (size_t slot = 0; slot < rows.size(); ++slot) {
    const int64_t row = rows[slot];
    TTREC_CHECK_INDEX(row >= 0, "LfuRowCache: negative row id ", row);
    size_t i = static_cast<size_t>(HashKey(row)) & mask;
    while (new_map[i].key != -1) {
      // Duplicate row ids would silently shadow each other in the map.
      TTREC_CHECK_CONFIG(new_map[i].key != row,
                         "LfuRowCache::Populate: duplicate row id ", row);
      i = (i + 1) & mask;
    }
    new_map[i] = MapCell{row, static_cast<int64_t>(slot)};
    new_cells.push_back(static_cast<int64_t>(i));
  }

  // Commit.
  const size_t n = rows.size();
  const std::vector<int64_t> previous = CachedRows();
  if (new_capacity != capacity_) {
    capacity_ = new_capacity;
    values_.assign(static_cast<size_t>(new_capacity * emb_dim_), 0.0f);
    grads_.assign(static_cast<size_t>(new_capacity * emb_dim_), 0.0f);
    if (!adagrad_.empty()) adagrad_.assign(values_.size(), 0.0f);
  } else {
    std::fill(grads_.begin(), grads_.end(), 0.0f);
    std::fill(adagrad_.begin(), adagrad_.end(), 0.0f);
  }
  // An empty populate may pass a null `values`, which memcpy must not get.
  if (n > 0) {
    std::memcpy(values_.data(), values,
                n * static_cast<size_t>(emb_dim_) * sizeof(float));
  }
  map_ = std::move(new_map);
  slot_cells_ = std::move(new_cells);
  // Count the rows that did not survive the repopulation — their learned
  // weights are gone (the streaming-decomposition gap the paper leaves
  // open), which is exactly what an operator watching `cache.evictions`
  // wants to see.
  for (const int64_t row : previous) {
    if (SlotOf(row) < 0) ++evictions_;
  }
  ++populates_;
}

void LfuRowCache::Populate(std::span<const int64_t> rows,
                           const float* values) {
  PopulateImpl(capacity_, rows, values);
}

float* LfuRowCache::Append(int64_t row) {
  TTREC_CHECK_INDEX(row >= 0, "LfuRowCache::Append: negative row id ", row);
  TTREC_CHECK_CONFIG(size() < capacity_,
                     "LfuRowCache::Append: cache full (", capacity_,
                     " rows); Erase one first");
  // One walk of the probe sequence both rejects a resident row and finds
  // the first empty cell, where the row goes.
  const size_t mask = map_.size() - 1;
  size_t i = static_cast<size_t>(HashKey(row)) & mask;
  while (map_[i].key != -1) {
    TTREC_CHECK_CONFIG(map_[i].key != row, "LfuRowCache::Append: row ", row,
                       " already resident");
    i = (i + 1) & mask;
  }
  const int64_t slot = size();
  slot_cells_.push_back(static_cast<int64_t>(i));
  map_[i] = MapCell{row, slot};
  std::fill_n(grads_.data() + slot * emb_dim_, emb_dim_, 0.0f);
  if (!adagrad_.empty()) {
    std::fill_n(adagrad_.data() + slot * emb_dim_, emb_dim_, 0.0f);
  }
  return values_.data() + slot * emb_dim_;
}

void LfuRowCache::Insert(int64_t row, const float* value) {
  std::memcpy(Append(row), value,
              static_cast<size_t>(emb_dim_) * sizeof(float));
}

void LfuRowCache::Erase(int64_t row) {
  const size_t mask = map_.size() - 1;
  size_t i = static_cast<size_t>(HashKey(row)) & mask;
  while (map_[i].key != row) {
    TTREC_CHECK_CONFIG(map_[i].key != -1, "LfuRowCache::Erase: row ", row,
                       " not resident");
    i = (i + 1) & mask;
  }
  const int64_t slot = map_[i].slot;
  const int64_t last = size() - 1;

  // Backward-shift deletion (Knuth 6.4R): refill the hole so linear
  // probing never crosses a tombstone — the map stays tombstone-free, which
  // SlotOf's termination condition (first empty cell) depends on. A moved
  // entry's slot follows it to its new cell.
  size_t hole = i;
  size_t j = i;
  while (true) {
    map_[hole] = MapCell{};
    while (true) {
      j = (j + 1) & mask;
      if (map_[j].key == -1) goto map_done;
      const size_t ideal = static_cast<size_t>(HashKey(map_[j].key)) & mask;
      // Move j's entry back iff the hole lies cyclically within
      // [ideal, j) — i.e. the probe from its ideal cell would hit the hole
      // before reaching j.
      const bool hole_in_range = hole <= j ? (ideal <= hole || ideal > j)
                                           : (ideal <= hole && ideal > j);
      if (hole_in_range) break;
    }
    map_[hole] = map_[j];
    slot_cells_[static_cast<size_t>(map_[j].slot)] =
        static_cast<int64_t>(hole);
    hole = j;
  }
map_done:

  // Compact the slot arrays: move the last slot's row into the vacated
  // slot (carrying its value, gradient, and Adagrad state), then shrink.
  // The last slot's cell is on record, so the map is not probed again.
  if (slot != last) {
    const int64_t cell = slot_cells_[static_cast<size_t>(last)];
    slot_cells_[static_cast<size_t>(slot)] = cell;
    map_[static_cast<size_t>(cell)].slot = slot;
    std::memcpy(values_.data() + slot * emb_dim_,
                values_.data() + last * emb_dim_,
                static_cast<size_t>(emb_dim_) * sizeof(float));
    std::memcpy(grads_.data() + slot * emb_dim_,
                grads_.data() + last * emb_dim_,
                static_cast<size_t>(emb_dim_) * sizeof(float));
    if (!adagrad_.empty()) {
      std::memcpy(adagrad_.data() + slot * emb_dim_,
                  adagrad_.data() + last * emb_dim_,
                  static_cast<size_t>(emb_dim_) * sizeof(float));
    }
  }
  slot_cells_.pop_back();
  ++evictions_;
}

void LfuRowCache::Resize(int64_t new_capacity, std::span<const int64_t> rows,
                         const float* values) {
  TTREC_CHECK_CONFIG(new_capacity >= 1,
                     "LfuRowCache::Resize: capacity must be >= 1");
  PopulateImpl(new_capacity, rows, values);
}

void LfuRowCache::ApplyAdagrad(float lr, float eps) {
  TTREC_CHECK_CONFIG(eps > 0.0f, "ApplyAdagrad: eps must be positive");
  if (adagrad_.empty()) {
    adagrad_.assign(values_.size(), 0.0f);
  }
  const size_t used = slot_cells_.size() * static_cast<size_t>(emb_dim_);
  for (size_t i = 0; i < used; ++i) {
    adagrad_[i] += grads_[i] * grads_[i];
    values_[i] -= lr * grads_[i] / (std::sqrt(adagrad_[i]) + eps);
    grads_[i] = 0.0f;
  }
}

void LfuRowCache::ApplySgd(float lr) {
  const size_t used = slot_cells_.size() * static_cast<size_t>(emb_dim_);
  for (size_t i = 0; i < used; ++i) {
    values_[i] -= lr * grads_[i];
    grads_[i] = 0.0f;
  }
}

void LfuRowCache::ZeroGrads() {
  const size_t used = slot_cells_.size() * static_cast<size_t>(emb_dim_);
  std::fill(grads_.begin(), grads_.begin() + static_cast<ptrdiff_t>(used),
            0.0f);
}

double LfuRowCache::GradSqNorm() const {
  const size_t used = slot_cells_.size() * static_cast<size_t>(emb_dim_);
  double sq = 0.0;
  for (size_t i = 0; i < used; ++i) {
    sq += static_cast<double>(grads_[i]) * grads_[i];
  }
  return sq;
}

void LfuRowCache::ScaleGrads(float scale) {
  const size_t used = slot_cells_.size() * static_cast<size_t>(emb_dim_);
  for (size_t i = 0; i < used; ++i) grads_[i] *= scale;
}

void LfuRowCache::SetAdagradState(std::vector<float> state) {
  TTREC_CHECK_CONFIG(state.empty() || state.size() == values_.size(),
                     "LfuRowCache::SetAdagradState: size mismatch (",
                     state.size(), " vs ", values_.size(), ")");
  adagrad_ = std::move(state);
}

int64_t LfuRowCache::MemoryBytes() const {
  return static_cast<int64_t>(values_.size() * sizeof(float) +
                              grads_.size() * sizeof(float) +
                              map_.size() * sizeof(MapCell) +
                              slot_cells_.size() * sizeof(int64_t));
}

double LfuRowCache::HitRate() const {
  const int64_t h = hits();
  const int64_t total = h + misses();
  return total == 0 ? 0.0
                    : static_cast<double>(h) / static_cast<double>(total);
}

void LfuRowCache::ResetStats() {
  hits_.store(0, std::memory_order_relaxed);
  misses_.store(0, std::memory_order_relaxed);
  evictions_ = 0;
  populates_ = 0;
}

}  // namespace ttrec
