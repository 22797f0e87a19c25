#include "tt/tt_embedding.h"

#include <algorithm>
#include <cmath>
#include <cstring>
#include <utility>

#include "obs/trace.h"
#include "tensor/aligned.h"
#include "tensor/check.h"
#include "tensor/gemm.h"
#include "tensor/parallel.h"

namespace ttrec {

namespace {

// Forward blocks are dispatched to the pool in sequential "rounds" of at
// most kRoundBlocksPerThread blocks per worker. Rounds bound the shared row
// buffer without affecting results: per-bag pooling order is a function of
// block boundaries only, and block boundaries depend only on
// config.block_size.
constexpr int64_t kRoundBlocksPerThread = 4;

/// Bag id of every lookup, from the CSR offsets, into bags[0, num_lookups).
void LookupBags(const CsrBatch& batch, int64_t* bags) {
  for (int64_t b = 0; b < batch.num_bags(); ++b) {
    for (int64_t l = batch.offsets[static_cast<size_t>(b)];
         l < batch.offsets[static_cast<size_t>(b) + 1]; ++l) {
      bags[l] = b;
    }
  }
}

/// Effective weight of lookup `l` in bag `bag`: alpha (Eq. 6) combined with
/// mean pooling.
float LookupWeight(const CsrBatch& batch, PoolingMode pooling, int64_t l,
                   int64_t bag) {
  return batch.LookupWeight(l,
                            batch.offsets[static_cast<size_t>(bag) + 1] -
                                batch.offsets[static_cast<size_t>(bag)],
                            pooling);
}

/// Effective weight of every lookup into w[0, num_lookups).
void EffectiveWeights(const CsrBatch& batch, PoolingMode pooling,
                      const int64_t* bags, float* w) {
  for (int64_t l = 0; l < batch.num_lookups(); ++l) {
    w[l] = LookupWeight(batch, pooling, l, bags[l]);
  }
}

/// Groups lookups [begin, end) of `indices` by row: `unique` gets the
/// distinct rows in ascending order and `slot[l - begin]` the position of
/// lookup l's row in it. Sorting (row, position) pairs is a total order, so
/// the grouping is a function of the indices alone and needs no hash map.
void GroupByRow(std::span<const int64_t> indices, int64_t begin, int64_t end,
                std::vector<std::pair<int64_t, int32_t>>& keys,
                std::vector<int64_t>& unique, std::vector<int32_t>& slot) {
  const int64_t L = end - begin;
  keys.resize(static_cast<size_t>(L));
  for (int64_t l = 0; l < L; ++l) {
    keys[static_cast<size_t>(l)] = {indices[static_cast<size_t>(begin + l)],
                                    static_cast<int32_t>(l)};
  }
  std::sort(keys.begin(), keys.end());
  unique.clear();
  slot.resize(static_cast<size_t>(L));
  for (const auto& [row, l] : keys) {
    if (unique.empty() || unique.back() != row) unique.push_back(row);
    slot[static_cast<size_t>(l)] = static_cast<int32_t>(unique.size() - 1);
  }
}

/// Runs fn(slice, j0, j1) for every bucket of the workspace's last sort by
/// digit, one pool task per chunk of slices, each chunk traced as `span`
/// when it is not null. Tasks write disjoint output ranges and their own
/// gradient slice, so any chunking gives bitwise the same result; nested
/// in a forward block task, the buckets run inline in slice order.
void ForEachBucket(const auto& ws, [[maybe_unused]] const char* span,
                   const auto& fn) {
  const auto run = [&](int64_t t0, int64_t t1) {
    TTREC_TRACE_SCOPE(span);
    for (int64_t t = t0; t < t1; ++t) {
      fn(int64_t{ws.touched[static_cast<size_t>(t)]},
         int64_t{ws.bucket_start[static_cast<size_t>(t)]},
         int64_t{ws.bucket_start[static_cast<size_t>(t) + 1]});
    }
  };
  // Capturing one reference keeps the std::function within its inline
  // storage: a one-lookup forward pays no allocation per stage.
  ThreadPool::Global().ParallelFor(
      static_cast<int64_t>(ws.touched.size()), 1,
      [&run](int64_t t0, int64_t t1) { run(t0, t1); });
}

}  // namespace

// Scratch of the GEMM chain, the forward's pooling phase and the
// backward. One lives per thread (ThreadWorkspace), reused across calls and
// shared by every table that thread runs: once it has grown to the largest
// block and batch, a steady-state Forward or Backward allocates nothing.
// Sharing is safe because a thread never runs two users of
// its workspace at once: ThreadPool never runs a foreign task on a caller
// waiting in ParallelFor, and runs a nested ParallelFor inline on the
// task's own thread (tensor/parallel.cc). The overlaps are by design and
// touch disjoint fields: the thread that calls Forward keeps its lookups'
// `bags` and `weights` and its round of rows in `round_rows` while it runs
// block tasks of that call, and a thread
// that runs a block's chain or backward keeps the block's units, sort and
// intermediates while it runs bucket tasks, which use only the executing
// thread's `p_stack`, `d_stack` and `slice_t`.
struct TtEmbeddingBag::Workspace {
  // The block's units — its lookups, or its distinct rows under dedup (with
  // each lookup's slot) — and their digits, [u * d + c].
  std::vector<std::pair<int64_t, int32_t>> dedup_keys;
  std::vector<int64_t> unique;
  std::vector<int32_t> lookup_to_unique;
  std::vector<int64_t> digits;
  // Counting sort of the units by one digit. Bucket t (the units touching
  // slice touched[t]) is order[bucket_start[t] .. bucket_start[t + 1]), and
  // `touched` lists the nonempty buckets in slice order. `cursor` holds one
  // count per slice and is all zero between sorts, so a sort costs
  // O(units), not O(row factor).
  std::vector<int32_t> touched;
  std::vector<int32_t> bucket_start;
  std::vector<int32_t> cursor;
  std::vector<int32_t> order;
  // Stage products P_c (c = 1..d-1) of one block in digit-c bucket order:
  // inter_pos[c * units + u] is unit u's row, and P_{d-1} rows are the
  // embedding rows. All float scratch that feeds GEMM operands is 64-byte
  // aligned (tensor/aligned.h).
  std::vector<AlignedVec<float>> inter;
  std::vector<int32_t> inter_pos;
  // One bucket's P_{c-1} rows and D_c rows, gathered by its bucket task.
  AlignedVec<float> p_stack;
  AlignedVec<float> d_stack;
  AlignedVec<float> slice_t;  // one core slice, transposed
  // Forward, on the calling thread: each lookup's bag and effective weight,
  // and one round's rows in lookup order.
  std::vector<int64_t> bags;
  std::vector<float> weights;
  AlignedVec<float> round_rows;
  // Backward: pos[u] = row of unit u in d_cur, which holds D_c in the
  // previous stage's bucket order (unit order for the first stage).
  std::vector<int32_t> pos;
  AlignedVec<float> d_cur;
  AlignedVec<float> d_next;  // D_{c-1}, in this stage's bucket order
};

TtEmbeddingBag::Workspace& TtEmbeddingBag::ThreadWorkspace() {
  thread_local Workspace ws;
  return ws;
}

TtEmbeddingBag::TtEmbeddingBag(TtEmbeddingConfig config, TtCores cores)
    : config_(std::move(config)), cores_(std::move(cores)) {
  TTREC_CHECK_CONFIG(config_.block_size >= 1,
                     "block_size must be >= 1, got ", config_.block_size);
  const TtShape& s = cores_.shape();
  const int d = s.num_cores();
  prodn_.resize(static_cast<size_t>(d));
  int64_t prod = 1;
  for (int k = 0; k < d; ++k) {
    prod *= s.col_factors[static_cast<size_t>(k)];
    prodn_[static_cast<size_t>(k)] = prod;
  }
  // FLOP accounting (multiply+add = 2 flops) for Figures 8/11.
  for (int c = 1; c < d; ++c) {
    const int64_t m = prodn_[static_cast<size_t>(c - 1)];
    const int64_t kk = s.ranks[static_cast<size_t>(c)];
    const int64_t nn = cores_.SliceCols(c);
    const int64_t stage_flops = 2 * m * kk * nn;
    fwd_flops_per_lookup_ += stage_flops;
    // Backward: slice-grad GEMM + propagation GEMM, same volumes, plus the
    // recompute of every stage but the last.
    bwd_flops_per_lookup_ += 2 * stage_flops;
    if (c < d - 1) bwd_flops_per_lookup_ += stage_flops;
  }
  for (int c = 0; c < d; ++c) {
    max_d_floats_ = std::max(
        max_d_floats_,
        prodn_[static_cast<size_t>(c)] * s.ranks[static_cast<size_t>(c) + 1]);
  }
}

TtEmbeddingBag::TtEmbeddingBag(TtEmbeddingConfig config, TtInit init, Rng& rng)
    : TtEmbeddingBag(config, TtCores(config.shape)) {
  InitializeTtCores(cores_, init, rng);
}

void TtEmbeddingBag::EnsureGrads() {
  if (!grads_.empty()) return;
  const int d = cores_.num_cores();
  grads_.reserve(static_cast<size_t>(d));
  touched_flags_.resize(static_cast<size_t>(d));
  touched_slices_.resize(static_cast<size_t>(d));
  for (int k = 0; k < d; ++k) {
    grads_.emplace_back(cores_.core(k).shape());
    touched_flags_[static_cast<size_t>(k)].assign(
        static_cast<size_t>(cores_.core(k).dim(0)), 0);
  }
}

void TtEmbeddingBag::MarkTouched(int k, int64_t ik) {
  auto& flags = touched_flags_[static_cast<size_t>(k)];
  if (!flags[static_cast<size_t>(ik)]) {
    flags[static_cast<size_t>(ik)] = 1;
    touched_slices_[static_cast<size_t>(k)].push_back(ik);
  }
}

const Tensor& TtEmbeddingBag::core_grad(int k) const {
  TTREC_CHECK_INDEX(k >= 0 && k < static_cast<int>(grads_.size()),
                    "core_grad: no gradient for core ", k,
                    " (call Backward first)");
  return grads_[static_cast<size_t>(k)];
}

void TtEmbeddingBag::ZeroGrad() {
  for (int k = 0; k < static_cast<int>(grads_.size()); ++k) {
    const int64_t slice_size = cores_.SliceSize(k);
    Tensor& grad = grads_[static_cast<size_t>(k)];
    auto& flags = touched_flags_[static_cast<size_t>(k)];
    for (int64_t ik : touched_slices_[static_cast<size_t>(k)]) {
      float* g = grad.data() + ik * slice_size;
      std::fill(g, g + slice_size, 0.0f);
      flags[static_cast<size_t>(ik)] = 0;
    }
    touched_slices_[static_cast<size_t>(k)].clear();
  }
}

double TtEmbeddingBag::GradSqNorm() const {
  double sq = 0.0;
  for (int k = 0; k < static_cast<int>(grads_.size()); ++k) {
    const int64_t slice_size = cores_.SliceSize(k);
    const Tensor& grad = grads_[static_cast<size_t>(k)];
    for (int64_t ik : touched_slices_[static_cast<size_t>(k)]) {
      const float* g = grad.data() + ik * slice_size;
      for (int64_t j = 0; j < slice_size; ++j) {
        sq += static_cast<double>(g[j]) * g[j];
      }
    }
  }
  return sq;
}

void TtEmbeddingBag::ScaleGrads(float scale) {
  for (int k = 0; k < static_cast<int>(grads_.size()); ++k) {
    const int64_t slice_size = cores_.SliceSize(k);
    Tensor& grad = grads_[static_cast<size_t>(k)];
    for (int64_t ik : touched_slices_[static_cast<size_t>(k)]) {
      float* g = grad.data() + ik * slice_size;
      for (int64_t j = 0; j < slice_size; ++j) g[j] *= scale;
    }
  }
}

void TtEmbeddingBag::SaveOptState(BinaryWriter& w) const {
  w.WriteU32(adagrad_state_.empty() ? 0u : 1u);
  for (const Tensor& t : adagrad_state_) SaveTensor(w, t);
}

void TtEmbeddingBag::LoadOptState(BinaryReader& r) {
  const uint32_t present = r.ReadU32();
  if (present == 0) {
    adagrad_state_.clear();
    return;
  }
  TTREC_CHECK_CONFIG(present == 1, "TtEmbeddingBag::LoadOptState: bad marker");
  std::vector<Tensor> state;
  state.reserve(static_cast<size_t>(cores_.num_cores()));
  for (int k = 0; k < cores_.num_cores(); ++k) {
    Tensor t = LoadTensor(r);
    TTREC_CHECK_SHAPE(t.shape() == cores_.core(k).shape(),
                      "TtEmbeddingBag::LoadOptState: accumulator ", k,
                      " shape mismatch");
    state.push_back(std::move(t));
  }
  adagrad_state_ = std::move(state);
}

int64_t TtEmbeddingBag::WorkspaceBytes(int num_threads) const {
  const TtShape& s = cores_.shape();
  const int d = cores_.num_cores();
  const int64_t B = config_.block_size;
  const int64_t N = emb_dim();
  const int64_t threads =
      num_threads > 0 ? num_threads : ThreadPool::Global().num_threads();
  // Every float buffer is a separate 64-byte-aligned allocation, so each one
  // is accounted rounded up to the allocation granularity.
  constexpr int64_t kF = static_cast<int64_t>(sizeof(float));
  constexpr int64_t kI32 = static_cast<int64_t>(sizeof(int32_t));
  constexpr int64_t kI64 = static_cast<int64_t>(sizeof(int64_t));
  int64_t max_m = 0;
  int64_t max_slice = 0;
  for (int c = 0; c < d; ++c) {
    max_m = std::max(max_m, s.row_factors[static_cast<size_t>(c)]);
    if (c > 0) max_slice = std::max(max_slice, cores_.SliceSize(c));
  }

  // One thread's Workspace, sized for one block: the units' digits, the
  // counting sort (touched slices, bucket starts, per-slice cursors, order)
  // and the stage products P_1..P_{d-1} with each unit's row in them.
  const int64_t max_touched = std::min(B, max_m);
  int64_t ws_bytes =
      B * d * kI64 + (2 * max_touched + 1 + max_m + B + B * d) * kI32;
  for (int c = 1; c < d; ++c) {
    ws_bytes += AlignedBytes(B * prodn_[static_cast<size_t>(c)] *
                             s.ranks[static_cast<size_t>(c) + 1] * kF);
  }
  if (config_.deduplicate) {
    // Sorted (row, position) keys, distinct rows and each lookup's slot.
    ws_bytes += B * static_cast<int64_t>(sizeof(std::pair<int64_t, int32_t>)) +
                B * kI64 + B * kI32;
  }
  // A bucket's gathered P_{c-1} and D_c rows (a bucket is at most the whole
  // block, at most max_d_floats_ per unit), the backward's D_c and D_{c-1}
  // with pos, and one transposed slice.
  ws_bytes += 4 * AlignedBytes(B * max_d_floats_ * kF) + B * kI32 +
              AlignedBytes(max_slice * kF);

  // The calling thread's workspace also holds one round of reconstructed
  // rows: kRoundBlocksPerThread blocks per pool thread.
  const int64_t round_rows_bytes =
      AlignedBytes(kRoundBlocksPerThread * threads * B * N * kF);
  return threads * ws_bytes + round_rows_bytes;
}

int64_t TtEmbeddingBag::SetUnits(std::span<const int64_t> indices,
                                 int64_t begin, int64_t end, bool dedup,
                                 Workspace& ws) const {
  TTREC_TRACE_SCOPE("tt.decode");
  const TtShape& s = cores_.shape();
  const int d = s.num_cores();
  std::span<const int64_t> rows = indices.subspan(
      static_cast<size_t>(begin), static_cast<size_t>(end - begin));
  if (dedup) {
    GroupByRow(indices, begin, end, ws.dedup_keys, ws.unique,
               ws.lookup_to_unique);
    rows = ws.unique;
  }
  const int64_t units = static_cast<int64_t>(rows.size());
  ws.digits.resize(static_cast<size_t>(units * d));
  for (int64_t u = 0; u < units; ++u) {
    s.RowDigitsInto(rows[static_cast<size_t>(u)], ws.digits.data() + u * d);
  }
  return units;
}

const float* TtEmbeddingBag::ChainRow(int c, int64_t units, int64_t u,
                                      const Workspace& ws) const {
  const int d = cores_.num_cores();
  if (c == 0) return cores_.Slice(0, ws.digits[static_cast<size_t>(u * d)]);
  const int64_t stride = prodn_[static_cast<size_t>(c)] *
                         cores_.shape().ranks[static_cast<size_t>(c) + 1];
  return ws.inter[static_cast<size_t>(c)].data() +
         ws.inter_pos[static_cast<size_t>(c * units + u)] * stride;
}

void TtEmbeddingBag::ChainBlock(int64_t units, int last_stage,
                                Workspace& ws) const {
  TTREC_TRACE_SCOPE("tt.gemm_chain");
  const TtShape& s = cores_.shape();
  const int d = s.num_cores();
  // Grow-only, like every buffer in the workspace: a table with fewer cores
  // must not free a deeper table's intermediates.
  if (ws.inter.size() < static_cast<size_t>(d)) {
    ws.inter.resize(static_cast<size_t>(d));
  }
  ws.inter_pos.resize(static_cast<size_t>(units * d));
  for (int c = 1; c <= last_stage; ++c) {
    const int64_t m_prev = prodn_[static_cast<size_t>(c - 1)];
    const int64_t rank_c = s.ranks[static_cast<size_t>(c)];
    const int64_t cols_c = cores_.SliceCols(c);
    const int64_t p_stride = m_prev * rank_c;
    float* out = Grow(ws.inter[static_cast<size_t>(c)],
                      units * m_prev * cols_c);
    SortUnitsByDigit(c, units, ws);
    ForEachBucket(ws, nullptr, [&](int64_t ik, int64_t j0, int64_t j1) {
      // A lone unit multiplies its P_{c-1} in place; a bucket of several
      // stacks theirs into the executing thread's p_stack first.
      const float* a =
          ChainRow(c - 1, units, ws.order[static_cast<size_t>(j0)], ws);
      if (j1 - j0 > 1) {
        float* stack = Grow(ThreadWorkspace().p_stack, (j1 - j0) * p_stride);
        for (int64_t j = j0; j < j1; ++j) {
          std::memcpy(stack + (j - j0) * p_stride,
                      ChainRow(c - 1, units, ws.order[static_cast<size_t>(j)],
                               ws),
                      static_cast<size_t>(p_stride) * sizeof(float));
        }
        a = stack;
      }
      Gemm(Trans::kNo, Trans::kNo, (j1 - j0) * m_prev, cols_c, rank_c, 1.0f,
           a, rank_c, cores_.Slice(c, ik), cols_c, 0.0f,
           out + j0 * m_prev * cols_c, cols_c);
    });
    int32_t* pos = ws.inter_pos.data() + c * units;
    for (int64_t j = 0; j < units; ++j) {
      pos[ws.order[static_cast<size_t>(j)]] = static_cast<int32_t>(j);
    }
  }
}

void TtEmbeddingBag::DecodeBlock(std::span<const int64_t> indices,
                                 int64_t begin, int64_t end, bool dedup,
                                 float* rows_out, Workspace& ws) const {
  const int d = cores_.num_cores();
  const int64_t N = emb_dim();
  const int64_t units = SetUnits(indices, begin, end, dedup, ws);
  ChainBlock(units, d - 1, ws);
  // P_{d-1} holds each unit's row in bucket order; copy them out in lookup
  // order.
  for (int64_t l = 0; l < end - begin; ++l) {
    const int64_t u =
        dedup ? ws.lookup_to_unique[static_cast<size_t>(l)] : l;
    std::memcpy(rows_out + l * N, ChainRow(d - 1, units, u, ws),
                static_cast<size_t>(N) * sizeof(float));
  }
}

void TtEmbeddingBag::PooledForward(const CsrBatch& batch, const float* rows,
                                   float* output, bool dedup) const {
  batch.Validate(num_rows());
  const int64_t N = emb_dim();
  const int64_t n_lookups = batch.num_lookups();
  std::fill(output, output + batch.num_bags() * N, 0.0f);
  if (n_lookups == 0) return;

  // The calling thread's workspace holds each lookup's bag and weight and,
  // unless rows are given, the round of reconstructed rows.
  Workspace& own = ThreadWorkspace();
  int64_t* bags = Grow(own.bags, n_lookups);
  float* w = Grow(own.weights, n_lookups);
  LookupBags(batch, bags);
  EffectiveWeights(batch, config_.pooling, bags, w);

  const int64_t bs = config_.block_size;
  ThreadPool& pool = ThreadPool::Global();
  // Given rows are one round that covers every lookup. Otherwise each round
  // reconstructs its rows, indexed by (lookup - round_begin).
  const int64_t round_lookups =
      rows != nullptr
          ? n_lookups
          : std::max<int64_t>(1, kRoundBlocksPerThread *
                                     static_cast<int64_t>(pool.num_threads())) *
                bs;
  float* decoded =
      rows != nullptr
          ? nullptr
          : Grow(own.round_rows, std::min(n_lookups, round_lookups) * N);

  for (int64_t r0 = 0; r0 < n_lookups; r0 += round_lookups) {
    const int64_t r1 = std::min(n_lookups, r0 + round_lookups);
    const int64_t blocks = (r1 - r0 + bs - 1) / bs;

    // Phase 1: reconstruct rows, block-parallel. Each block writes a
    // disjoint range of `decoded`, so tasks never overlap.
    const auto decode = [&](int64_t c0, int64_t c1) {
      Workspace& ws = ThreadWorkspace();
      for (int64_t blk = c0; blk < c1; ++blk) {
        const int64_t begin = r0 + blk * bs;
        const int64_t end = std::min(r1, begin + bs);
        DecodeBlock(batch.indices, begin, end, dedup,
                    decoded + (begin - r0) * N, ws);
      }
    };
    // Each ParallelFor lambda captures one reference, which keeps its
    // std::function in inline storage: a call allocates nothing.
    if (rows == nullptr) {
      pool.ParallelFor(blocks, 1,
                       [&decode](int64_t c0, int64_t c1) { decode(c0, c1); });
    }
    const float* round_rows = rows != nullptr ? rows : decoded;

    // Phase 2: pool this round's rows into bags. Every bag is owned by
    // exactly one chunk (bags partition the lookup range), and a bag's
    // lookups accumulate in lookup order across sequential rounds — so the
    // scatter is race-free and bitwise independent of the thread count.
    const int64_t bag_lo = bags[r0];
    const int64_t bag_hi = bags[r1 - 1] + 1;
    const auto pool_bags = [&](int64_t u0, int64_t u1) {
      TTREC_TRACE_SCOPE("tt.pool");
      for (int64_t bag = bag_lo + u0; bag < bag_lo + u1; ++bag) {
        const int64_t lo =
            std::max(r0, batch.offsets[static_cast<size_t>(bag)]);
        const int64_t hi =
            std::min(r1, batch.offsets[static_cast<size_t>(bag) + 1]);
        float* dst = output + bag * N;
        for (int64_t l = lo; l < hi; ++l) {
          Axpy(N, w[l], round_rows + (l - r0) * N, dst);
        }
      }
    };
    pool.ParallelFor(bag_hi - bag_lo, 16, [&pool_bags](int64_t u0, int64_t u1) {
      pool_bags(u0, u1);
    });
  }
}

void TtEmbeddingBag::Forward(const CsrBatch& batch, float* output) {
  PooledForward(batch, nullptr, output, config_.deduplicate);
  const int64_t n_lookups = batch.num_lookups();
  ++stats_.forward_calls;
  stats_.lookups += n_lookups;
  stats_.forward_flops += n_lookups * fwd_flops_per_lookup_;
}

void TtEmbeddingBag::ForwardInference(const CsrBatch& batch,
                                      float* output) const {
  // No dedup: every lookup runs its own chain. Each row is bitwise its
  // one-lookup product whichever lookups share its slice GEMMs, so pooled
  // outputs are bitwise identical no matter how requests were
  // micro-batched together.
  PooledForward(batch, nullptr, output, /*dedup=*/false);
}

void TtEmbeddingBag::PoolPrefetchedRows(const CsrBatch& batch,
                                        const float* rows,
                                        float* output) const {
  PooledForward(batch, rows, output, /*dedup=*/false);
}

void TtEmbeddingBag::LookupRows(std::span<const int64_t> indices,
                                float* out) const {
  for (int64_t idx : indices) {
    TTREC_CHECK_INDEX(idx >= 0 && idx < num_rows(), "LookupRows: index ", idx,
                      " out of range [0, ", num_rows(), ")");
  }
  const int64_t n = static_cast<int64_t>(indices.size());
  const int64_t bs = config_.block_size;
  const int64_t blocks = (n + bs - 1) / bs;
  const int64_t N = emb_dim();
  // Blocks write disjoint output ranges and there is no accumulation, so
  // this is trivially deterministic.
  const auto decode = [&](int64_t c0, int64_t c1) {
    Workspace& ws = ThreadWorkspace();
    for (int64_t blk = c0; blk < c1; ++blk) {
      const int64_t begin = blk * bs;
      const int64_t end = std::min(n, begin + bs);
      DecodeBlock(indices, begin, end, /*dedup=*/false, out + begin * N, ws);
    }
  };
  // One captured reference keeps the std::function in inline storage.
  ThreadPool::Global().ParallelFor(
      blocks, 1, [&decode](int64_t c0, int64_t c1) { decode(c0, c1); });
}

void TtEmbeddingBag::SortUnitsByDigit(int c, int64_t units,
                                      Workspace& ws) const {
  const int d = cores_.num_cores();
  const int64_t* digits = ws.digits.data();
  // Count each slice's units into its cursor (zero between sorts) and list
  // the touched slices, in slice order.
  int32_t* cursor = Grow(ws.cursor, cores_.shape().row_factors[
                                        static_cast<size_t>(c)]);
  ws.touched.clear();
  for (int64_t u = 0; u < units; ++u) {
    const int64_t ik = digits[u * d + c];
    if (cursor[ik]++ == 0) ws.touched.push_back(static_cast<int32_t>(ik));
  }
  std::sort(ws.touched.begin(), ws.touched.end());
  // Bucket starts; each cursor becomes its bucket's next write position.
  ws.bucket_start.resize(ws.touched.size() + 1);
  int32_t start = 0;
  for (size_t t = 0; t < ws.touched.size(); ++t) {
    ws.bucket_start[t] = start;
    start += std::exchange(cursor[ws.touched[t]], start);
  }
  ws.bucket_start.back() = start;
  // Stable: within a bucket, units keep their unit order.
  ws.order.resize(static_cast<size_t>(units));
  for (int64_t u = 0; u < units; ++u) {
    ws.order[static_cast<size_t>(cursor[digits[u * d + c]]++)] =
        static_cast<int32_t>(u);
  }
  for (int32_t ik : ws.touched) cursor[ik] = 0;
}

void TtEmbeddingBag::BackwardBlock(const CsrBatch& batch,
                                   const float* grad_output, int64_t begin,
                                   int64_t end, Workspace& ws) {
  const TtShape& s = cores_.shape();
  const int d = s.num_cores();
  const int64_t N = emb_dim();

  // Units carry the gradient: one per lookup, or one per distinct row when
  // deduplicating (gradients are linear in the row, so summing a row's
  // lookups first is exact). Recompute their P_1..P_{d-2} (Algorithm 2
  // line 3) with the forward's chain: bitwise the forward's intermediates.
  const int64_t units =
      SetUnits(batch.indices, begin, end, config_.deduplicate, ws);
  ChainBlock(units, d - 2, ws);
  float* d_cur = Grow(ws.d_cur, units * max_d_floats_);
  float* d_next = Grow(ws.d_next, units * max_d_floats_);

  // D_{d-1} = w_l * dL/d(bag row), one N-float row per unit, unit order.
  if (config_.deduplicate) std::fill(d_cur, d_cur + units * N, 0.0f);
  int64_t bag = std::upper_bound(batch.offsets.begin(), batch.offsets.end(),
                                 begin) -
                batch.offsets.begin() - 1;
  for (int64_t l = begin; l < end; ++l) {
    while (batch.offsets[static_cast<size_t>(bag) + 1] <= l) ++bag;
    const float wl = LookupWeight(batch, config_.pooling, l, bag);
    const float* g = grad_output + bag * N;
    if (config_.deduplicate) {
      float* dst = d_cur + static_cast<int64_t>(ws.lookup_to_unique[
                               static_cast<size_t>(l - begin)]) * N;
      for (int64_t j = 0; j < N; ++j) dst[j] += wl * g[j];
    } else {
      float* dst = d_cur + (l - begin) * N;
      for (int64_t j = 0; j < N; ++j) dst[j] = wl * g[j];
    }
  }
  ws.pos.resize(static_cast<size_t>(units));
  for (int64_t u = 0; u < units; ++u) {
    ws.pos[static_cast<size_t>(u)] = static_cast<int32_t>(u);
  }

  for (int c = d - 1; c >= 1; --c) {
    const int64_t m_prev = prodn_[static_cast<size_t>(c - 1)];
    const int64_t rank_c = s.ranks[static_cast<size_t>(c)];
    const int64_t cols_c = cores_.SliceCols(c);
    const int64_t slice_size = rank_c * cols_c;
    const int64_t d_stride = m_prev * cols_c;  // D_c per unit
    const int64_t p_stride = m_prev * rank_c;  // P_{c-1}, D_{c-1} per unit
    Tensor& grad = grads_[static_cast<size_t>(c)];
    SortUnitsByDigit(c, units, ws);
    ForEachBucket(ws, "tt.backward.slices", [&](int64_t ik, int64_t j0,
                                                int64_t j1) {
      // A lone unit's rows are used in place; a bucket of several is
      // gathered into the executing thread's stacks (see Workspace).
      Workspace& own = ThreadWorkspace();
      const int64_t u0 = ws.order[static_cast<size_t>(j0)];
      const float* pp = ChainRow(c - 1, units, u0, ws);
      const float* dd = d_cur + ws.pos[static_cast<size_t>(u0)] * d_stride;
      if (j1 - j0 > 1) {
        float* p_stack = Grow(own.p_stack, (j1 - j0) * p_stride);
        float* d_stack = Grow(own.d_stack, (j1 - j0) * d_stride);
        for (int64_t j = j0; j < j1; ++j) {
          const int64_t u = ws.order[static_cast<size_t>(j)];
          std::memcpy(p_stack + (j - j0) * p_stride,
                      ChainRow(c - 1, units, u, ws),
                      static_cast<size_t>(p_stride) * sizeof(float));
          std::memcpy(d_stack + (j - j0) * d_stride,
                      d_cur + ws.pos[static_cast<size_t>(u)] * d_stride,
                      static_cast<size_t>(d_stride) * sizeof(float));
        }
        pp = p_stack;
        dd = d_stack;
      }
      const int64_t k = (j1 - j0) * m_prev;
      // Eq. 4 for the whole bucket at once: sum_u P_u^T D_u = [P]^T [D] over
      // the stacked K, accumulated into the slice.
      Gemm(Trans::kYes, Trans::kNo, rank_c, cols_c, k, 1.0f, pp, rank_c, dd,
           cols_c, 1.0f, grad.data() + ik * slice_size, cols_c);
      // Eq. 5: D_{c-1} = D_c G_c[i]^T, against the slice transposed once so
      // the product runs on the NN kernel.
      float* slice_t = Grow(own.slice_t, slice_size);
      Transpose(rank_c, cols_c, cores_.Slice(c, ik), cols_c, slice_t, rank_c);
      Gemm(Trans::kNo, Trans::kNo, k, rank_c, cols_c, 1.0f, dd, cols_c,
           slice_t, rank_c, 0.0f, d_next + j0 * p_stride, rank_c);
    });
    for (int32_t ik : ws.touched) MarkTouched(c, ik);
    for (int64_t j = 0; j < units; ++j) {
      ws.pos[static_cast<size_t>(ws.order[static_cast<size_t>(j)])] =
          static_cast<int32_t>(j);
    }
    std::swap(d_cur, d_next);
  }

  // D_0 is each unit's core-0 slice gradient: sum every bucket in order.
  const int64_t slice0 = cores_.SliceSize(0);
  Tensor& grad0 = grads_[0];
  SortUnitsByDigit(0, units, ws);
  ForEachBucket(ws, "tt.backward.slices", [&](int64_t ik, int64_t j0,
                                              int64_t j1) {
    float* dst = grad0.data() + ik * slice0;
    for (int64_t j = j0; j < j1; ++j) {
      const float* src =
          d_cur +
          ws.pos[static_cast<size_t>(ws.order[static_cast<size_t>(j)])] *
              slice0;
      for (int64_t e = 0; e < slice0; ++e) dst[e] += src[e];
    }
  });
  for (int32_t ik : ws.touched) MarkTouched(0, ik);
}

void TtEmbeddingBag::Backward(const CsrBatch& batch,
                              const float* grad_output) {
  batch.Validate(num_rows());
  EnsureGrads();
  const int64_t n_lookups = batch.num_lookups();

  // Blocks accumulate into grads_ one after another, in block order; the
  // parallelism is inside a block, across touched slices.
  Workspace& ws = ThreadWorkspace();
  const int64_t bs = config_.block_size;
  for (int64_t begin = 0; begin < n_lookups; begin += bs) {
    TTREC_TRACE_SCOPE("tt.backward.block");
    BackwardBlock(batch, grad_output, begin, std::min(n_lookups, begin + bs),
                  ws);
  }

  ++stats_.backward_calls;
  stats_.backward_flops += n_lookups * bwd_flops_per_lookup_;
}

void TtEmbeddingBag::ApplySgd(float lr) {
  if (grads_.empty()) return;
  // Only slices touched since the last ApplySgd/ZeroGrad carry gradient;
  // update and re-zero exactly those — O(touched) not O(params), which is
  // what keeps the cached hybrid's miss path cheap at high hit rates.
  // Each touched slice is updated by exactly one task and the update is
  // elementwise, so any chunking yields the same result.
  ThreadPool& pool = ThreadPool::Global();
  for (int k = 0; k < cores_.num_cores(); ++k) {
    const int64_t slice_size = cores_.SliceSize(k);
    Tensor& core = cores_.core(k);
    Tensor& grad = grads_[static_cast<size_t>(k)];
    auto& flags = touched_flags_[static_cast<size_t>(k)];
    auto& touched = touched_slices_[static_cast<size_t>(k)];
    const int64_t grain =
        std::max<int64_t>(1, 4096 / std::max<int64_t>(1, slice_size));
    pool.ParallelFor(
        static_cast<int64_t>(touched.size()), grain,
        [&](int64_t t0, int64_t t1) {
          for (int64_t t = t0; t < t1; ++t) {
            const int64_t ik = touched[static_cast<size_t>(t)];
            float* w = core.data() + ik * slice_size;
            float* g = grad.data() + ik * slice_size;
            for (int64_t j = 0; j < slice_size; ++j) {
              w[j] -= lr * g[j];
              g[j] = 0.0f;
            }
            flags[static_cast<size_t>(ik)] = 0;
          }
        });
    touched.clear();
  }
}

void TtEmbeddingBag::ApplyAdagrad(float lr, float eps) {
  if (grads_.empty()) return;
  TTREC_CHECK_CONFIG(eps > 0.0f, "ApplyAdagrad: eps must be positive");
  if (adagrad_state_.empty()) {
    adagrad_state_.reserve(static_cast<size_t>(cores_.num_cores()));
    for (int k = 0; k < cores_.num_cores(); ++k) {
      adagrad_state_.emplace_back(cores_.core(k).shape());
    }
  }
  // Same ownership argument as ApplySgd: one task per touched slice,
  // elementwise math — deterministic for any thread count.
  ThreadPool& pool = ThreadPool::Global();
  for (int k = 0; k < cores_.num_cores(); ++k) {
    const int64_t slice_size = cores_.SliceSize(k);
    Tensor& core = cores_.core(k);
    Tensor& grad = grads_[static_cast<size_t>(k)];
    Tensor& state = adagrad_state_[static_cast<size_t>(k)];
    auto& flags = touched_flags_[static_cast<size_t>(k)];
    auto& touched = touched_slices_[static_cast<size_t>(k)];
    const int64_t grain =
        std::max<int64_t>(1, 4096 / std::max<int64_t>(1, slice_size));
    pool.ParallelFor(
        static_cast<int64_t>(touched.size()), grain,
        [&](int64_t t0, int64_t t1) {
          for (int64_t t = t0; t < t1; ++t) {
            const int64_t ik = touched[static_cast<size_t>(t)];
            float* w = core.data() + ik * slice_size;
            float* g = grad.data() + ik * slice_size;
            float* st = state.data() + ik * slice_size;
            for (int64_t j = 0; j < slice_size; ++j) {
              st[j] += g[j] * g[j];
              w[j] -= lr * g[j] / (std::sqrt(st[j]) + eps);
              g[j] = 0.0f;
            }
            flags[static_cast<size_t>(ik)] = 0;
          }
        });
    touched.clear();
  }
}

}  // namespace ttrec
