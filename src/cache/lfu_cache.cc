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
  map_keys_.assign(static_cast<size_t>(map_cap), -1);
  map_slots_.assign(static_cast<size_t>(map_cap), -1);
}

int64_t LfuRowCache::SlotOf(int64_t row) const {
  const size_t mask = map_keys_.size() - 1;
  size_t i = static_cast<size_t>(HashKey(row)) & mask;
  while (map_keys_[i] != -1) {
    if (map_keys_[i] == row) return map_slots_[i];
    i = (i + 1) & mask;
  }
  return -1;
}

float* LfuRowCache::Find(int64_t row) {
  const int64_t slot = SlotOf(row);
  if (slot < 0) {
    misses_.fetch_add(1, std::memory_order_relaxed);
    return nullptr;
  }
  hits_.fetch_add(1, std::memory_order_relaxed);
  return values_.data() + slot * emb_dim_;
}

const float* LfuRowCache::Find(int64_t row) const {
  const int64_t slot = SlotOf(row);
  if (slot < 0) {
    misses_.fetch_add(1, std::memory_order_relaxed);
    return nullptr;
  }
  hits_.fetch_add(1, std::memory_order_relaxed);
  return values_.data() + slot * emb_dim_;
}

const float* LfuRowCache::Peek(int64_t row) const {
  const int64_t slot = SlotOf(row);
  return slot < 0 ? nullptr : values_.data() + slot * emb_dim_;
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
  std::vector<int64_t> new_keys(static_cast<size_t>(map_cap), -1);
  std::vector<int64_t> new_slots(static_cast<size_t>(map_cap), -1);
  const size_t mask = static_cast<size_t>(map_cap) - 1;
  for (size_t slot = 0; slot < rows.size(); ++slot) {
    const int64_t row = rows[slot];
    TTREC_CHECK_INDEX(row >= 0, "LfuRowCache: negative row id ", row);
    size_t i = static_cast<size_t>(HashKey(row)) & mask;
    while (new_keys[i] != -1) {
      // Duplicate row ids would silently shadow each other in the map.
      TTREC_CHECK_CONFIG(new_keys[i] != row,
                         "LfuRowCache::Populate: duplicate row id ", row);
      i = (i + 1) & mask;
    }
    new_keys[i] = row;
    new_slots[i] = static_cast<int64_t>(slot);
  }

  // Commit.
  const size_t n = rows.size();
  std::vector<int64_t> previous = std::move(rows_);
  rows_.assign(rows.begin(), rows.begin() + static_cast<ptrdiff_t>(n));
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
  map_keys_ = std::move(new_keys);
  map_slots_ = std::move(new_slots);
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

void LfuRowCache::Insert(int64_t row, const float* value) {
  TTREC_CHECK_INDEX(row >= 0, "LfuRowCache::Insert: negative row id ", row);
  TTREC_CHECK_CONFIG(size() < capacity_,
                     "LfuRowCache::Insert: cache full (", capacity_,
                     " rows); Erase one first");
  TTREC_CHECK_CONFIG(SlotOf(row) < 0, "LfuRowCache::Insert: row ", row,
                     " already resident");
  const int64_t slot = static_cast<int64_t>(rows_.size());
  rows_.push_back(row);
  std::memcpy(values_.data() + slot * emb_dim_, value,
              static_cast<size_t>(emb_dim_) * sizeof(float));
  std::fill_n(grads_.data() + slot * emb_dim_, emb_dim_, 0.0f);
  if (!adagrad_.empty()) {
    std::fill_n(adagrad_.data() + slot * emb_dim_, emb_dim_, 0.0f);
  }
  const size_t mask = map_keys_.size() - 1;
  size_t i = static_cast<size_t>(HashKey(row)) & mask;
  while (map_keys_[i] != -1) i = (i + 1) & mask;
  map_keys_[i] = row;
  map_slots_[i] = slot;
}

void LfuRowCache::Erase(int64_t row) {
  const size_t mask = map_keys_.size() - 1;
  size_t i = static_cast<size_t>(HashKey(row)) & mask;
  while (map_keys_[i] != row) {
    TTREC_CHECK_CONFIG(map_keys_[i] != -1, "LfuRowCache::Erase: row ", row,
                       " not resident");
    i = (i + 1) & mask;
  }
  const int64_t slot = map_slots_[i];
  const int64_t last = static_cast<int64_t>(rows_.size()) - 1;

  // Backward-shift deletion (Knuth 6.4R): refill the hole so linear
  // probing never crosses a tombstone — the map stays tombstone-free, which
  // SlotOf's termination condition (first empty cell) depends on.
  size_t hole = i;
  size_t j = i;
  while (true) {
    map_keys_[hole] = -1;
    map_slots_[hole] = -1;
    while (true) {
      j = (j + 1) & mask;
      if (map_keys_[j] == -1) goto map_done;
      const size_t ideal = static_cast<size_t>(HashKey(map_keys_[j])) & mask;
      // Move j's entry back iff the hole lies cyclically within
      // [ideal, j) — i.e. the probe from its ideal cell would hit the hole
      // before reaching j.
      const bool hole_in_range = hole <= j ? (ideal <= hole || ideal > j)
                                           : (ideal <= hole && ideal > j);
      if (hole_in_range) break;
    }
    map_keys_[hole] = map_keys_[j];
    map_slots_[hole] = map_slots_[j];
    hole = j;
  }
map_done:

  // Compact the slot arrays: move the last slot's row into the vacated
  // slot (carrying its value, gradient, and Adagrad state), then shrink.
  if (slot != last) {
    const int64_t moved_row = rows_[static_cast<size_t>(last)];
    rows_[static_cast<size_t>(slot)] = moved_row;
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
    size_t m = static_cast<size_t>(HashKey(moved_row)) & mask;
    while (map_keys_[m] != moved_row) m = (m + 1) & mask;
    map_slots_[m] = slot;
  }
  rows_.pop_back();
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
  const size_t used = rows_.size() * static_cast<size_t>(emb_dim_);
  for (size_t i = 0; i < used; ++i) {
    adagrad_[i] += grads_[i] * grads_[i];
    values_[i] -= lr * grads_[i] / (std::sqrt(adagrad_[i]) + eps);
    grads_[i] = 0.0f;
  }
}

void LfuRowCache::ApplySgd(float lr) {
  const size_t used = rows_.size() * static_cast<size_t>(emb_dim_);
  for (size_t i = 0; i < used; ++i) {
    values_[i] -= lr * grads_[i];
    grads_[i] = 0.0f;
  }
}

void LfuRowCache::ZeroGrads() {
  const size_t used = rows_.size() * static_cast<size_t>(emb_dim_);
  std::fill(grads_.begin(), grads_.begin() + static_cast<ptrdiff_t>(used),
            0.0f);
}

double LfuRowCache::GradSqNorm() const {
  const size_t used = rows_.size() * static_cast<size_t>(emb_dim_);
  double sq = 0.0;
  for (size_t i = 0; i < used; ++i) {
    sq += static_cast<double>(grads_[i]) * grads_[i];
  }
  return sq;
}

void LfuRowCache::ScaleGrads(float scale) {
  const size_t used = rows_.size() * static_cast<size_t>(emb_dim_);
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
                              map_keys_.size() * sizeof(int64_t) +
                              map_slots_.size() * sizeof(int64_t) +
                              rows_.size() * sizeof(int64_t));
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
