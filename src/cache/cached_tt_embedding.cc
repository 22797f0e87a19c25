#include "cache/cached_tt_embedding.h"

#include <algorithm>
#include <bit>
#include <cstddef>
#include <utility>
#include <vector>

#include "obs/trace.h"
#include "tensor/check.h"
#include "tt/tt_io.h"

namespace ttrec {

namespace {

TtEmbeddingConfig InnerTtConfig(const CachedTtConfig& config) {
  // The hybrid operator owns pooling semantics (mean pooling must divide by
  // the *original* bag size even when some lookups are served by the
  // cache), so the inner TT op always runs kSum with explicit weights.
  TtEmbeddingConfig tt = config.tt;
  tt.pooling = PoolingMode::kSum;
  return tt;
}

// One bit per table row (PrefetchRows' window and residency bitmaps).
bool TestRowBit(const std::vector<uint64_t>& bits, int64_t row) {
  return ((bits[static_cast<size_t>(row >> 6)] >> (row & 63)) & 1) != 0;
}
void SetRowBit(std::vector<uint64_t>& bits, int64_t row) {
  bits[static_cast<size_t>(row >> 6)] |= uint64_t{1} << (row & 63);
}
void ClearRowBit(std::vector<uint64_t>& bits, int64_t row) {
  bits[static_cast<size_t>(row >> 6)] &= ~(uint64_t{1} << (row & 63));
}

/// Decodes `rows` from the TT cores (rows.size() x emb_dim, row-major)
/// through the staged kernel: the one engine behind every admission.
std::vector<float> DecodeRows(const TtEmbeddingBag& tt,
                              std::span<const int64_t> rows) {
  std::vector<float> out(rows.size() * static_cast<size_t>(tt.emb_dim()));
  tt.LookupRows(rows, out.data());
  return out;
}

/// Merges the sorted `tail` into the sorted `order`, from the back, so the
/// merge needs no buffer beyond `order`'s capacity (std::inplace_merge
/// allocates one). The entries are distinct.
void MergeSortedTail(std::vector<std::pair<int64_t, int64_t>>& order,
                     const std::vector<std::pair<int64_t, int64_t>>& tail) {
  size_t i = order.size();
  size_t j = tail.size();
  order.resize(i + j);
  size_t k = order.size();
  while (j > 0) {
    if (i > 0 && tail[j - 1] < order[i - 1]) {
      order[--k] = order[--i];
    } else {
      order[--k] = tail[--j];
    }
  }
}

}  // namespace

CachedTtEmbeddingBag::CachedTtEmbeddingBag(CachedTtConfig config, TtInit init,
                                           Rng& rng)
    : config_(std::move(config)),
      tt_(InnerTtConfig(config_), init, rng),
      cache_(std::max<int64_t>(1, config_.cache_capacity), tt_.emb_dim()),
      tracker_(std::max<int64_t>(64, 4 * config_.cache_capacity)) {
  TTREC_CHECK_CONFIG(config_.cache_capacity >= 1,
                     "CachedTtEmbeddingBag: cache_capacity must be >= 1 "
                     "(use TtEmbeddingBag directly for no cache)");
  TTREC_CHECK_CONFIG(config_.warmup_iterations >= 0,
                     "warmup_iterations must be >= 0");
  TTREC_CHECK_CONFIG(config_.refresh_interval >= 1,
                     "refresh_interval must be >= 1");
  TTREC_CHECK_CONFIG(config_.rewarm_period >= 0,
                     "rewarm_period must be >= 0");
}

template <typename OnLookup>
CsrBatch CachedTtEmbeddingBag::Partition(const CsrBatch& batch, bool count,
                                         OnLookup&& on_lookup) const {
  const int64_t n_bags = batch.num_bags();
  CsrBatch tt_batch;
  tt_batch.offsets.reserve(static_cast<size_t>(n_bags) + 1);
  tt_batch.offsets.push_back(0);
  tt_batch.indices.reserve(batch.indices.size());
  tt_batch.weights.reserve(batch.indices.size());

  for (int64_t b = 0; b < n_bags; ++b) {
    const int64_t begin = batch.offsets[static_cast<size_t>(b)];
    const int64_t end = batch.offsets[static_cast<size_t>(b) + 1];
    const int64_t bag_size = end - begin;
    for (int64_t l = begin; l < end; ++l) {
      const int64_t row = batch.indices[static_cast<size_t>(l)];
      const float w = batch.LookupWeight(l, bag_size, config_.tt.pooling);
      const float* cached = cache_.Peek(row);
      if (cached == nullptr) {
        tt_batch.indices.push_back(row);
        tt_batch.weights.push_back(w);
      }
      on_lookup(b, l, w, cached);
    }
    tt_batch.offsets.push_back(static_cast<int64_t>(tt_batch.indices.size()));
  }
  if (count) {
    const int64_t misses = tt_batch.num_lookups();
    cache_.CountLookups(batch.num_lookups() - misses, misses);
  }
  return tt_batch;
}

template <typename PoolMisses>
void CachedTtEmbeddingBag::SplitAndFold(const CsrBatch& batch,
                                        const float* rows, float* output,
                                        std::vector<CacheHit>& hits,
                                        PoolMisses&& pool_misses) const {
  const int64_t N = emb_dim();
  hits.clear();
  std::vector<float> miss_rows;
  const CsrBatch misses = Partition(
      batch, /*count=*/true,
      [&](int64_t bag, int64_t l, float w, const float* cached) {
        const float* row = rows != nullptr ? rows + l * N : cached;
        if (cached != nullptr) {
          hits.push_back(CacheHit{bag, w, row});
        } else if (rows != nullptr) {
          miss_rows.insert(miss_rows.end(), row, row + N);
        }
      });
  // The TT op zero-fills `output` and pools the misses; the cached
  // contributions fold on top — no extra bag-sized buffer or second pass.
  pool_misses(misses, rows != nullptr ? miss_rows.data() : nullptr, output);
  for (const CacheHit& hit : hits) {
    float* dst = output + hit.bag * N;
    for (int64_t j = 0; j < N; ++j) dst[j] += hit.weight * hit.vec[j];
  }
}

void CachedTtEmbeddingBag::RefreshCache() {
  TTREC_TRACE_SCOPE("cache.refresh");
  const std::vector<int64_t> top = tracker_.TopK(cache_.capacity());
  if (top.empty()) return;
  cache_.Populate(top, DecodeRows(tt_, top).data());
  counted_order_stale_ = true;
  resident_bits_stale_ = true;
  ++refreshes_;
}

int64_t CachedTtEmbeddingBag::PrefetchRows(
    std::span<const std::span<const int64_t>> window) {
  TTREC_TRACE_SCOPE("cache.prefetch");
  ++prefetch_calls_;
  PrefetchScratch& scratch = prefetch_scratch_;
  // Validate before any mutation. The lookahead stage hands over sorted
  // plans, which are read in place; any other plan is sorted on a copy, so
  // a plan always admits in ascending row order, and its first and last
  // rows bound the rest.
  std::vector<std::span<const int64_t>>& plans = scratch.plans;
  plans.assign(window.begin(), window.end());
  size_t copies = 0;
  for (std::span<const int64_t>& plan : plans) {
    if (!std::is_sorted(plan.begin(), plan.end())) {
      // Growing the list moves the copies, not their buffers, so the
      // plans already pointed at earlier copies stay valid.
      if (copies == scratch.sorted_copies.size()) {
        scratch.sorted_copies.emplace_back();
      }
      std::vector<int64_t>& copy = scratch.sorted_copies[copies++];
      copy.assign(plan.begin(), plan.end());
      std::sort(copy.begin(), copy.end());
      plan = copy;
    }
    if (plan.empty()) continue;
    const int64_t bad = plan.front() < 0 ? plan.front() : plan.back();
    TTREC_CHECK_INDEX(plan.front() >= 0 && plan.back() < num_rows(),
                      "CachedTtEmbeddingBag::PrefetchRows: row ", bad,
                      " out of range [0, ", num_rows(), ")");
  }

  const size_t words = static_cast<size_t>((num_rows() + 63) / 64);
  if (window_bits_.empty()) window_bits_.assign(words, 0);
  if (resident_bits_stale_) {
    resident_bits_.assign(words, 0);
    for (const int64_t row : cache_.CachedRows()) {
      SetRowBit(resident_bits_, row);
    }
    resident_bits_stale_ = false;
  }
  if (counted_bits_stale_) {
    counted_bits_.assign(words, 0);
    for (const auto& [row, count] : tracker_.Items()) {
      if (count > 0) SetRowBit(counted_bits_, row);
    }
    counted_bits_stale_ = false;
  }

  // Mark the window and collect its missing rows in next-use order; a row
  // an earlier plan already marked is not collected twice, and residency
  // is a bit test, not a probe of the cache's id map.
  const auto in_window = [this](int64_t row) {
    return TestRowBit(window_bits_, row);
  };
  std::vector<int64_t>& missing = scratch.missing;
  missing.clear();
  for (const std::span<const int64_t> plan : plans) {
    for (const int64_t row : plan) {
      if (in_window(row)) continue;
      SetRowBit(window_bits_, row);
      if (!TestRowBit(resident_bits_, row)) missing.push_back(row);
    }
  }

  // Make room by evicting the coldest residents outside the window, in
  // ascending (tracker count, row id) order, never more than needed. The
  // order matters as much as the set: Erase moves the last slot into the
  // hole, so it fixes CachedRows() order and with it checkpoint bytes. A
  // frozen tracker still holds its warm-up counts, so those rows outlast
  // the never-counted ones. That order starts with every uncounted
  // resident in row order, which a word-wise scan of the bitmaps reads;
  // the counted residents follow from their own (count, row) order. Both
  // scans stop at the last victim; the window rows they pass keep their
  // places.
  int64_t need = static_cast<int64_t>(missing.size()) -
                 (cache_.capacity() - cache_.size());
  for (size_t w = 0; w < words && need > 0; ++w) {
    uint64_t victims = resident_bits_[w] & ~counted_bits_[w] & ~window_bits_[w];
    for (; victims != 0 && need > 0; victims &= victims - 1, --need) {
      const int64_t row =
          static_cast<int64_t>(w * 64) + std::countr_zero(victims);
      cache_.Erase(row);
      ClearRowBit(resident_bits_, row);
    }
  }
  if (need > 0) {
    if (counted_order_stale_) {
      counted_order_.clear();
      for (size_t w = 0; w < words; ++w) {
        for (uint64_t bits = resident_bits_[w] & counted_bits_[w]; bits != 0;
             bits &= bits - 1) {
          const int64_t row =
              static_cast<int64_t>(w * 64) + std::countr_zero(bits);
          counted_order_.emplace_back(tracker_.Count(row), row);
        }
      }
      std::sort(counted_order_.begin(), counted_order_.end());
      counted_order_stale_ = false;
    }
    auto scanned = counted_order_.begin();
    for (; scanned != counted_order_.end() && need > 0; ++scanned) {
      if (!in_window(scanned->second)) {
        cache_.Erase(scanned->second);
        ClearRowBit(resident_bits_, scanned->second);
        --need;
      }
    }
    counted_order_.erase(
        std::remove_if(counted_order_.begin(), scanned,
                       [&](const std::pair<int64_t, int64_t>& entry) {
                         return !in_window(entry.second);
                       }),
        scanned);
  }
  for (const std::span<const int64_t> plan : plans) {
    for (const int64_t row : plan) {
      window_bits_[static_cast<size_t>(row >> 6)] = 0;
    }
  }

  // Admit what now fits, soonest use first; the rest of the window stays
  // on the TT path until a later call finds room for it. The admitted
  // rows take consecutive slots, so one LookupRows call decodes them
  // straight into the cache.
  const int64_t admitted = std::min(static_cast<int64_t>(missing.size()),
                                    cache_.capacity() - cache_.size());
  prefetch_skips_ += static_cast<int64_t>(missing.size()) - admitted;
  missing.resize(static_cast<size_t>(admitted));
  if (missing.empty()) return 0;
  float* const values = cache_.Append(missing.front());
  for (size_t i = 1; i < missing.size(); ++i) cache_.Append(missing[i]);
  tt_.LookupRows(missing, values);
  for (const int64_t row : missing) SetRowBit(resident_bits_, row);
  // Only the counted admissions join the counted order, and only they
  // probe the tracker.
  if (!counted_order_stale_) {
    std::vector<std::pair<int64_t, int64_t>>& counted =
        scratch.counted_admissions;
    counted.clear();
    for (const int64_t row : missing) {
      if (TestRowBit(counted_bits_, row)) {
        counted.emplace_back(tracker_.Count(row), row);
      }
    }
    std::sort(counted.begin(), counted.end());
    MergeSortedTail(counted_order_, counted);
  }
  prefetch_inserts_ += admitted;
  return admitted;
}

void CachedTtEmbeddingBag::CollectStats(obs::MetricRegistry& reg) const {
  // Published through StatPublisher so repeated collections into the same
  // registry are idempotent: the sources below are cumulative totals, and a
  // plain counter Add would double-count every collection after the first.
  const obs::StatPublisher& p = stats_publisher_;
  p.Counter(reg, "cache.hits", cache_.hits());
  p.Counter(reg, "cache.misses", cache_.misses());
  p.Counter(reg, "cache.evictions", cache_.evictions());
  p.Counter(reg, "cache.populates", cache_.populates());
  p.Counter(reg, "cache.refreshes", refreshes_);
  p.Counter(reg, "cache.decay_rebuilds", tracker_.decay_rebuilds());
  p.Counter(reg, "cache.resizes", resizes_);
  p.Counter(reg, "cache.prefetch_calls", prefetch_calls_);
  p.Counter(reg, "cache.prefetch_inserts", prefetch_inserts_);
  p.Counter(reg, "cache.prefetch_skips", prefetch_skips_);
  p.Gauge(reg, "cache.rows_resident", static_cast<double>(cache_.size()));
  p.Gauge(reg, "cache.rows_capacity", static_cast<double>(cache_.capacity()));
  const TtEmbeddingStats& tt = tt_.stats();
  p.Counter(reg, "tt.forward_calls", tt.forward_calls);
  p.Counter(reg, "tt.lookups", tt.lookups);
  p.Counter(reg, "tt.forward_flops", tt.forward_flops);
  p.Counter(reg, "tt.backward_flops", tt.backward_flops);
}

void CachedTtEmbeddingBag::ResizeCache(int64_t new_capacity) {
  TTREC_CHECK_CONFIG(new_capacity >= 1,
                     "CachedTtEmbeddingBag::ResizeCache: capacity must be "
                     ">= 1");
  TTREC_CHECK_CONFIG(new_capacity <= num_rows(),
                     "CachedTtEmbeddingBag::ResizeCache: capacity ",
                     new_capacity, " exceeds table rows ", num_rows());
  if (new_capacity == cache_.capacity()) return;
  TTREC_TRACE_SCOPE("cache.resize");

  // Pick the new hot set: the tracker's current view when it has counts.
  // An empty tracker (after LoadState, or with no warm-up and no tracking)
  // falls back to the resident rows in slot order: growth keeps everything,
  // shrinkage keeps a prefix. Populate stores its top-K hottest-first, but
  // prefetch erasures (the last slot fills each hole) and admissions
  // (appended) reshuffle that order since.
  std::vector<int64_t> keep = tracker_.TopK(new_capacity);
  if (keep.empty()) {
    keep = cache_.CachedRows();
    if (static_cast<int64_t>(keep.size()) > new_capacity) {
      keep.resize(static_cast<size_t>(new_capacity));
    }
  }

  // Decode every kept row, then carry the survivors' learned uncompressed
  // values over their decodes. Peek keeps HitRate() honest.
  std::vector<float> values = DecodeRows(tt_, keep);
  const size_t N = static_cast<size_t>(emb_dim());
  for (size_t i = 0; i < keep.size(); ++i) {
    if (const float* vec = cache_.Peek(keep[i])) {
      std::copy(vec, vec + N, values.data() + i * N);
    }
  }

  cache_.Resize(new_capacity, keep, values.data());
  counted_order_stale_ = true;
  resident_bits_stale_ = true;
  config_.cache_capacity = new_capacity;
  ++resizes_;
}

void CachedTtEmbeddingBag::Forward(const CsrBatch& batch, float* output) {
  batch.Validate(num_rows());

  const bool in_warmup = iteration_ < config_.warmup_iterations;
  // Optional periodic re-warm: decay the counts (age out the previous
  // phase) and open a re-tracking window.
  if (!in_warmup && config_.rewarm_period > 0 &&
      iteration_ > config_.warmup_iterations &&
      (iteration_ - config_.warmup_iterations) % config_.rewarm_period == 0) {
    tracker_.Decay(0.5);
    counted_bits_stale_ = true;  // counts that decayed to 0 left the tracker
    rewarm_until_ =
        iteration_ + std::max<int64_t>(1, config_.warmup_iterations);
  }
  const bool tracking =
      in_warmup || config_.track_after_warmup || iteration_ < rewarm_until_;
  if (tracking) {
    // Every counted row now has a count above 0. Stale bits (all of them
    // until the first prefetch) are rebuilt from the tracker instead.
    for (int64_t row : batch.indices) {
      tracker_.Increment(row);
      if (!counted_bits_stale_) SetRowBit(counted_bits_, row);
    }
    counted_order_stale_ = true;
  }
  if (in_warmup && iteration_ > 0 &&
      iteration_ % config_.refresh_interval == 0) {
    RefreshCache();
  }
  if (config_.warmup_iterations > 0 &&
      iteration_ == config_.warmup_iterations) {
    RefreshCache();  // final warm-up refresh; the set freezes here (Fig. 4)
  }
  if (rewarm_until_ > 0 && iteration_ == rewarm_until_) {
    RefreshCache();  // end of a re-warm window
  }
  ++iteration_;

  SplitAndFold(batch, nullptr, output, hit_scratch_,
               [this](const CsrBatch& misses, const float*, float* out) {
                 tt_.Forward(misses, out);
               });
}

void CachedTtEmbeddingBag::ForwardInference(const CsrBatch& batch,
                                            float* output) const {
  batch.Validate(num_rows());
  // Call-local hit list: no shared scratch, and no control-plane side
  // effects (no iteration advance, no frequency tracking, no refresh).
  std::vector<CacheHit> hits;
  SplitAndFold(batch, nullptr, output, hits,
               [this](const CsrBatch& misses, const float*, float* out) {
                 tt_.ForwardInference(misses, out);
               });
}

void CachedTtEmbeddingBag::PoolPrefetchedRows(const CsrBatch& batch,
                                              const float* rows,
                                              float* output) const {
  batch.Validate(num_rows());
  std::vector<CacheHit> hits;
  SplitAndFold(batch, rows, output, hits,
               [this](const CsrBatch& misses, const float* miss_rows,
                      float* out) {
                 tt_.PoolPrefetchedRows(misses, miss_rows, out);
               });
}

void CachedTtEmbeddingBag::Backward(const CsrBatch& batch,
                                    const float* grad_output) {
  batch.Validate(num_rows());
  const int64_t N = emb_dim();

  CsrBatch tt_batch = Partition(
      batch, /*count=*/false,
      [&](int64_t bag, int64_t, float w, const float* cached) {
        if (cached == nullptr) return;
        // The partition's probe found the slot; its gradient sits beside it.
        float* g = cache_.GradFor(cached);
        TTREC_CHECK_INTERNAL(g != nullptr,
                             "cache hit outside the resident slots");
        const float* src = grad_output + bag * N;
        for (int64_t j = 0; j < N; ++j) g[j] += w * src[j];
      });

  if (tt_batch.num_lookups() > 0) {
    tt_.Backward(tt_batch, grad_output);
  }
}

void CachedTtEmbeddingBag::SaveState(BinaryWriter& w) const {
  WriteTtCores(w, tt_.cores());
  const std::vector<int64_t> rows = cache_.CachedRows();
  w.WriteI64Vec(rows);
  const int64_t N = emb_dim();
  for (int64_t row : rows) {
    // Peek, not Find: checkpointing must not inflate the hit statistics.
    const float* vec = cache_.Peek(row);
    TTREC_CHECK_INTERNAL(vec != nullptr, "cached row disappeared");
    w.WriteFloats(vec, static_cast<size_t>(N));
  }
  w.WriteI64(iteration_);
}

void CachedTtEmbeddingBag::LoadState(BinaryReader& r) {
  TtCores loaded = ReadTtCores(r);
  for (int k = 0; k < tt_.cores().num_cores(); ++k) {
    TTREC_CHECK_SHAPE(loaded.core(k).shape() == tt_.cores().core(k).shape(),
                      "CachedTtEmbeddingBag::LoadState: core shape mismatch");
    tt_.cores().core(k) = std::move(loaded.core(k));
  }
  const std::vector<int64_t> rows = r.ReadI64Vec();
  const int64_t N = emb_dim();
  std::vector<float> values(rows.size() * static_cast<size_t>(N));
  for (size_t i = 0; i < rows.size(); ++i) {
    r.ReadFloats(values.data() + i * static_cast<size_t>(N),
                 static_cast<size_t>(N));
  }
  // Stale before the residents change, so a read that throws after the
  // Populate cannot leave an order or a bitmap of the old residents.
  counted_order_stale_ = true;
  resident_bits_stale_ = true;
  cache_.Populate(rows, values.data());
  iteration_ = r.ReadI64();
  rewarm_until_ = -1;
  tracker_.Clear();
  counted_bits_stale_ = true;
}

void CachedTtEmbeddingBag::ApplySgd(float lr) {
  tt_.ApplySgd(lr);
  cache_.ApplySgd(lr);
}

void CachedTtEmbeddingBag::ApplyAdagrad(float lr, float eps) {
  tt_.ApplyAdagrad(lr, eps);
  cache_.ApplyAdagrad(lr, eps);
}

void CachedTtEmbeddingBag::ZeroGrad() {
  tt_.ZeroGrad();
  cache_.ZeroGrads();
}

double CachedTtEmbeddingBag::GradSqNorm() const {
  return tt_.GradSqNorm() + cache_.GradSqNorm();
}

void CachedTtEmbeddingBag::ScaleGrads(float scale) {
  tt_.ScaleGrads(scale);
  cache_.ScaleGrads(scale);
}

void CachedTtEmbeddingBag::SaveOptState(BinaryWriter& w) const {
  tt_.SaveOptState(w);
  const std::vector<float>& acc = cache_.AdagradState();
  w.WriteU32(acc.empty() ? 0u : 1u);
  if (!acc.empty()) w.WriteFloats(acc.data(), acc.size());
}

void CachedTtEmbeddingBag::LoadOptState(BinaryReader& r) {
  tt_.LoadOptState(r);
  const uint32_t present = r.ReadU32();
  if (present == 0) {
    cache_.SetAdagradState({});
    return;
  }
  TTREC_CHECK_CONFIG(present == 1,
                     "CachedTtEmbeddingBag::LoadOptState: bad marker");
  std::vector<float> acc(
      static_cast<size_t>(cache_.capacity() * cache_.emb_dim()));
  r.ReadFloats(acc.data(), acc.size());
  cache_.SetAdagradState(std::move(acc));
}

}  // namespace ttrec
