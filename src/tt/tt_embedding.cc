#include "tt/tt_embedding.h"

#include <algorithm>
#include <cmath>
#include <cstring>
#include <utility>

#include "obs/trace.h"
#include "tensor/aligned.h"
#include "tensor/batched_gemm.h"
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

/// Bag id for every lookup, from the CSR offsets.
std::vector<int64_t> LookupBags(const CsrBatch& batch) {
  std::vector<int64_t> bags(static_cast<size_t>(batch.num_lookups()));
  for (int64_t b = 0; b < batch.num_bags(); ++b) {
    for (int64_t l = batch.offsets[static_cast<size_t>(b)];
         l < batch.offsets[static_cast<size_t>(b) + 1]; ++l) {
      bags[static_cast<size_t>(l)] = b;
    }
  }
  return bags;
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

/// Effective weight of every lookup.
std::vector<float> EffectiveWeights(const CsrBatch& batch,
                                    PoolingMode pooling,
                                    std::span<const int64_t> bags) {
  std::vector<float> w(static_cast<size_t>(batch.num_lookups()));
  for (int64_t l = 0; l < batch.num_lookups(); ++l) {
    w[static_cast<size_t>(l)] =
        LookupWeight(batch, pooling, l, bags[static_cast<size_t>(l)]);
  }
  return w;
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

}  // namespace

// Scratch of the forward's block tasks and pooling phase and of the
// backward. One lives per thread (ThreadWorkspace), reused across calls and
// shared by every table that thread runs: once it has grown to the largest
// block, a steady-state Forward or Backward allocates none of its block or
// round buffers. Sharing is safe because a thread never runs two users of
// its workspace at once: ThreadPool never runs a foreign task on a caller
// waiting in ParallelFor, and runs a nested ParallelFor inline on the
// task's own thread (tensor/parallel.cc). The two overlaps are by design
// and touch disjoint fields: the thread that calls Forward keeps its round
// of rows in `round_rows` while it runs block tasks of that call, and the
// thread that calls Backward keeps the block's sort and stacks while it
// runs slice tasks, which use only `slice_t`.
struct TtEmbeddingBag::Workspace {
  // The block's units — its lookups, or its distinct rows under dedup (with
  // each lookup's slot) — and their digits, [u * d + c].
  std::vector<std::pair<int64_t, int32_t>> dedup_keys;
  std::vector<int64_t> unique;
  std::vector<int32_t> lookup_to_unique;
  std::vector<int64_t> digits;
  // Stage intermediates P_c (c = 1..d-2) of one block: in unit order in the
  // forward, in digit-c bucket order in the backward's recompute, where
  // inter_pos[c * units + u] is unit u's row. All float scratch that feeds
  // GEMM operands is 64-byte aligned (tensor/aligned.h).
  std::vector<AlignedVec<float>> inter;
  std::vector<int32_t> inter_pos;
  // Forward: one stage's BatchedGemm operands, the distinct rows under
  // dedup, and one round's reconstructed rows.
  std::vector<const float*> a_ptrs;
  std::vector<const float*> b_ptrs;
  std::vector<float*> c_ptrs;
  AlignedVec<float> unique_rows;
  AlignedVec<float> round_rows;
  // Backward: counting sort of the units by one digit. Bucket i (the units
  // touching slice i) is order[bucket_start[i] .. bucket_start[i + 1]);
  // `touched` lists the nonempty buckets in slice order.
  std::vector<int32_t> bucket_start;
  std::vector<int32_t> cursor;
  std::vector<int32_t> order;
  std::vector<int32_t> touched;
  // pos[u] = row of unit u in d_cur, which holds D_c in the previous
  // stage's bucket order (unit order for the first stage).
  std::vector<int32_t> pos;
  AlignedVec<float> d_cur;
  AlignedVec<float> d_next;   // D_{c-1}, in this stage's bucket order
  AlignedVec<float> d_stack;  // D_c gathered into this stage's bucket order
  AlignedVec<float> p_stack;  // P_{c-1} gathered the same way
  AlignedVec<float> slice_t;  // one core slice, transposed
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

  // One thread's Workspace, sized for one block. Shared by forward and
  // backward: the digits and the stage intermediates 1..d-2.
  int64_t ws_bytes = B * d * kI64;
  for (int c = 1; c <= d - 2; ++c) {
    ws_bytes += AlignedBytes(B * prodn_[static_cast<size_t>(c)] *
                             s.ranks[static_cast<size_t>(c) + 1] * kF);
  }
  if (config_.deduplicate) {
    // Sorted (row, position) keys, distinct rows, slots, and the forward's
    // reconstructed distinct rows.
    ws_bytes += B * static_cast<int64_t>(sizeof(std::pair<int64_t, int32_t>)) +
                B * kI64 + B * kI32 + AlignedBytes(B * N * kF);
  }
  // Forward: the GEMM pointer arrays.
  ws_bytes += 3 * B * static_cast<int64_t>(sizeof(void*));
  // Backward: D_c, D_{c-1} and the two bucket stacks (max_d_floats_ per
  // unit); the counting sort (bucket starts, cursors, order, touched list),
  // the recomputed intermediates' rows and pos; one transposed slice.
  ws_bytes += 4 * AlignedBytes(B * max_d_floats_ * kF) +
              (2 * max_m + 1 + B + std::min(B, max_m) + B * d + B) * kI32 +
              AlignedBytes(max_slice * kF);

  // The calling thread's workspace also holds one round of reconstructed
  // rows: kRoundBlocksPerThread blocks per pool thread.
  const int64_t round_rows_bytes =
      AlignedBytes(kRoundBlocksPerThread * threads * B * N * kF);
  return threads * ws_bytes + round_rows_bytes;
}

void TtEmbeddingBag::ForwardBlock(std::span<const int64_t> indices,
                                  int64_t begin, int64_t end, float* rows_out,
                                  Workspace& ws) const {
  const TtShape& s = cores_.shape();
  const int d = s.num_cores();
  const int64_t L = end - begin;
  const int64_t N = emb_dim();

  ws.digits.resize(static_cast<size_t>(L * d));
  {
    TTREC_TRACE_SCOPE("tt.decode");
    for (int64_t l = 0; l < L; ++l) {
      s.RowDigitsInto(indices[begin + l], ws.digits.data() + l * d);
    }
  }

  // Grow-only, like every buffer in the workspace: a table with fewer cores
  // must not free a deeper table's intermediates.
  if (ws.inter.size() < static_cast<size_t>(d)) {
    ws.inter.resize(static_cast<size_t>(d));
  }
  ws.a_ptrs.resize(static_cast<size_t>(L));
  ws.b_ptrs.resize(static_cast<size_t>(L));
  ws.c_ptrs.resize(static_cast<size_t>(L));

  TTREC_TRACE_SCOPE("tt.gemm_chain");
  for (int c = 1; c < d; ++c) {
    const int64_t m = prodn_[static_cast<size_t>(c - 1)];
    const int64_t kk = s.ranks[static_cast<size_t>(c)];
    const int64_t nn = cores_.SliceCols(c);
    const int64_t out_stride = m * nn;
    const bool last_stage = (c == d - 1);
    const int64_t prev_stride =
        (c >= 2) ? prodn_[static_cast<size_t>(c - 1)] *
                       s.ranks[static_cast<size_t>(c)]
                 : 0;

    float* out_base = nullptr;
    if (last_stage) {
      TTREC_CHECK_INTERNAL(out_stride == N, "final stage must produce rows");
      out_base = rows_out;
    } else {
      out_base = Grow(ws.inter[static_cast<size_t>(c)], L * out_stride);
    }

    for (int64_t l = 0; l < L; ++l) {
      const int64_t* dg = ws.digits.data() + l * d;
      ws.a_ptrs[static_cast<size_t>(l)] =
          (c == 1) ? cores_.Slice(0, dg[0])
                   : ws.inter[static_cast<size_t>(c - 1)].data() +
                         l * prev_stride;
      ws.b_ptrs[static_cast<size_t>(l)] = cores_.Slice(c, dg[c]);
      ws.c_ptrs[static_cast<size_t>(l)] = out_base + l * out_stride;
    }
    BatchedGemmShape shape;
    shape.m = m;
    shape.n = nn;
    shape.k = kk;
    // Inside a block task this runs inline (pool re-entrancy); from a
    // sequential caller it still fans the batch across the pool.
    BatchedGemm(shape, ws.a_ptrs, ws.b_ptrs, ws.c_ptrs);
  }
}

void TtEmbeddingBag::PooledForward(const CsrBatch& batch, const float* rows,
                                   float* output, bool dedup) const {
  batch.Validate(num_rows());
  const int64_t N = emb_dim();
  const int64_t n_lookups = batch.num_lookups();
  std::fill(output, output + batch.num_bags() * N, 0.0f);
  if (n_lookups == 0) return;

  const std::vector<int64_t> bags = LookupBags(batch);
  const std::vector<float> w = EffectiveWeights(batch, config_.pooling, bags);

  const int64_t bs = config_.block_size;
  ThreadPool& pool = ThreadPool::Global();
  // Given rows are one round that covers every lookup. Otherwise each round
  // reconstructs its rows into the calling thread's workspace, indexed by
  // (lookup - round_begin).
  const int64_t round_lookups =
      rows != nullptr
          ? n_lookups
          : std::max<int64_t>(1, kRoundBlocksPerThread *
                                     static_cast<int64_t>(pool.num_threads())) *
                bs;
  float* decoded = rows != nullptr
                       ? nullptr
                       : Grow(ThreadWorkspace().round_rows,
                              std::min(n_lookups, round_lookups) * N);

  for (int64_t r0 = 0; r0 < n_lookups; r0 += round_lookups) {
    const int64_t r1 = std::min(n_lookups, r0 + round_lookups);
    const int64_t blocks = (r1 - r0 + bs - 1) / bs;

    // Phase 1: reconstruct rows, block-parallel. Each block writes a
    // disjoint range of `decoded`, so tasks never overlap.
    if (rows == nullptr) {
      pool.ParallelFor(blocks, 1, [&](int64_t c0, int64_t c1) {
        Workspace& ws = ThreadWorkspace();
        for (int64_t blk = c0; blk < c1; ++blk) {
          const int64_t begin = r0 + blk * bs;
          const int64_t end = std::min(r1, begin + bs);
          float* out_rows = decoded + (begin - r0) * N;
          if (dedup) {
            GroupByRow(batch.indices, begin, end, ws.dedup_keys, ws.unique,
                       ws.lookup_to_unique);
            const int64_t num_unique = static_cast<int64_t>(ws.unique.size());
            float* unique_rows = Grow(ws.unique_rows, num_unique * N);
            ForwardBlock(ws.unique, 0, num_unique, unique_rows, ws);
            for (int64_t l = begin; l < end; ++l) {
              const float* src =
                  unique_rows +
                  static_cast<int64_t>(
                      ws.lookup_to_unique[static_cast<size_t>(l - begin)]) *
                      N;
              std::memcpy(out_rows + (l - begin) * N, src,
                          static_cast<size_t>(N) * sizeof(float));
            }
          } else {
            ForwardBlock(batch.indices, begin, end, out_rows, ws);
          }
        }
      });
    }
    const float* round_rows = rows != nullptr ? rows : decoded;

    // Phase 2: pool this round's rows into bags. Every bag is owned by
    // exactly one chunk (bags partition the lookup range), and a bag's
    // lookups accumulate in lookup order across sequential rounds — so the
    // scatter is race-free and bitwise independent of the thread count.
    const int64_t bag_lo = bags[static_cast<size_t>(r0)];
    const int64_t bag_hi = bags[static_cast<size_t>(r1 - 1)] + 1;
    pool.ParallelFor(bag_hi - bag_lo, 16, [&](int64_t u0, int64_t u1) {
      TTREC_TRACE_SCOPE("tt.pool");
      for (int64_t bag = bag_lo + u0; bag < bag_lo + u1; ++bag) {
        const int64_t lo =
            std::max(r0, batch.offsets[static_cast<size_t>(bag)]);
        const int64_t hi =
            std::min(r1, batch.offsets[static_cast<size_t>(bag) + 1]);
        float* dst = output + bag * N;
        for (int64_t l = lo; l < hi; ++l) {
          Axpy(N, w[static_cast<size_t>(l)], round_rows + (l - r0) * N, dst);
        }
      }
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
  // Always the per-lookup path (no dedup): each lookup's TT chain is an
  // independent GEMM problem, so pooled outputs are bitwise identical no
  // matter how requests were micro-batched together.
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
  ThreadPool::Global().ParallelFor(blocks, 1, [&](int64_t c0, int64_t c1) {
    Workspace& ws = ThreadWorkspace();
    for (int64_t blk = c0; blk < c1; ++blk) {
      const int64_t begin = blk * bs;
      const int64_t end = std::min(n, begin + bs);
      ForwardBlock(indices, begin, end, out + begin * N, ws);
    }
  });
}

void TtEmbeddingBag::SortUnitsByDigit(int c, int64_t units,
                                      Workspace& ws) const {
  const int d = cores_.num_cores();
  const int64_t m = cores_.shape().row_factors[static_cast<size_t>(c)];
  const int64_t* digits = ws.digits.data();
  ws.bucket_start.assign(static_cast<size_t>(m) + 1, 0);
  for (int64_t u = 0; u < units; ++u) {
    ++ws.bucket_start[static_cast<size_t>(digits[u * d + c]) + 1];
  }
  ws.touched.clear();
  for (int64_t i = 0; i < m; ++i) {
    if (ws.bucket_start[static_cast<size_t>(i) + 1] > 0) {
      ws.touched.push_back(static_cast<int32_t>(i));
    }
    ws.bucket_start[static_cast<size_t>(i) + 1] +=
        ws.bucket_start[static_cast<size_t>(i)];
  }
  // Stable: within a bucket, units keep their unit order.
  ws.cursor.assign(ws.bucket_start.begin(), ws.bucket_start.end() - 1);
  ws.order.resize(static_cast<size_t>(units));
  for (int64_t u = 0; u < units; ++u) {
    const int64_t ik = digits[u * d + c];
    ws.order[static_cast<size_t>(ws.cursor[static_cast<size_t>(ik)]++)] =
        static_cast<int32_t>(u);
  }
}

void TtEmbeddingBag::BackwardBlock(const CsrBatch& batch,
                                   const float* grad_output, int64_t begin,
                                   int64_t end, Workspace& ws) {
  const TtShape& s = cores_.shape();
  const int d = s.num_cores();
  const int64_t N = emb_dim();
  ThreadPool& pool = ThreadPool::Global();

  // Units carry the gradient: one per lookup, or one per distinct row when
  // deduplicating (gradients are linear in the row, so summing a row's
  // lookups first is exact).
  std::span<const int64_t> rows(batch.indices.data() + begin,
                                static_cast<size_t>(end - begin));
  if (config_.deduplicate) {
    GroupByRow(batch.indices, begin, end, ws.dedup_keys, ws.unique,
               ws.lookup_to_unique);
    rows = ws.unique;
  }
  const int64_t units = static_cast<int64_t>(rows.size());
  ws.digits.resize(static_cast<size_t>(units * d));
  for (int64_t u = 0; u < units; ++u) {
    s.RowDigitsInto(rows[static_cast<size_t>(u)], ws.digits.data() + u * d);
  }
  float* d_cur = Grow(ws.d_cur, units * max_d_floats_);
  float* d_next = Grow(ws.d_next, units * max_d_floats_);
  float* d_stack = Grow(ws.d_stack, units * max_d_floats_);
  float* p_stack = Grow(ws.p_stack, units * max_d_floats_);

  // Runs fn(slice, j0, j1) for every touched bucket of the last sort, one
  // task per slice: tasks write disjoint stack and output ranges and their
  // own gradient slice, so any chunking gives bitwise the same result.
  auto for_each_bucket = [&](const auto& fn) {
    pool.ParallelFor(
        static_cast<int64_t>(ws.touched.size()), 1,
        [&](int64_t t0, int64_t t1) {
          TTREC_TRACE_SCOPE("tt.backward.slices");
          for (int64_t t = t0; t < t1; ++t) {
            const int64_t ik = ws.touched[static_cast<size_t>(t)];
            fn(ik, int64_t{ws.bucket_start[static_cast<size_t>(ik)]},
               int64_t{ws.bucket_start[static_cast<size_t>(ik) + 1]});
          }
        });
  };
  // P_c of unit u, c in [0, d-2]: its core-0 slice, or its recomputed
  // intermediate.
  auto p_row = [&](int c, int64_t u) -> const float* {
    if (c == 0) return cores_.Slice(0, ws.digits[static_cast<size_t>(u * d)]);
    const int64_t stride =
        prodn_[static_cast<size_t>(c)] * s.ranks[static_cast<size_t>(c) + 1];
    return ws.inter[static_cast<size_t>(c)].data() +
           ws.inter_pos[static_cast<size_t>(c * units + u)] * stride;
  };

  // Recompute P_1..P_{d-2} (Algorithm 2 line 3) through the same buckets:
  // stage c stacks P_{c-1} by digit c and multiplies each bucket by its
  // slice at once. Every output row is the forward's per-lookup product of
  // the same operands, so it matches the forward's intermediate bitwise.
  {
    TTREC_TRACE_SCOPE("tt.gemm_chain");
    if (ws.inter.size() < static_cast<size_t>(d)) {
      ws.inter.resize(static_cast<size_t>(d));
    }
    ws.inter_pos.resize(static_cast<size_t>(units * d));
    for (int c = 1; c <= d - 2; ++c) {
      const int64_t m_prev = prodn_[static_cast<size_t>(c - 1)];
      const int64_t rank_c = s.ranks[static_cast<size_t>(c)];
      const int64_t cols_c = cores_.SliceCols(c);
      const int64_t p_stride = m_prev * rank_c;
      float* out = Grow(ws.inter[static_cast<size_t>(c)],
                        units * m_prev * cols_c);
      SortUnitsByDigit(c, units, ws);
      for_each_bucket([&](int64_t ik, int64_t j0, int64_t j1) {
        for (int64_t j = j0; j < j1; ++j) {
          std::memcpy(p_stack + j * p_stride,
                      p_row(c - 1, ws.order[static_cast<size_t>(j)]),
                      static_cast<size_t>(p_stride) * sizeof(float));
        }
        Gemm(Trans::kNo, Trans::kNo, (j1 - j0) * m_prev, cols_c, rank_c, 1.0f,
             p_stack + j0 * p_stride, rank_c, cores_.Slice(c, ik), cols_c,
             0.0f, out + j0 * m_prev * cols_c, cols_c);
      });
      for (int64_t j = 0; j < units; ++j) {
        ws.inter_pos[static_cast<size_t>(
            c * units + ws.order[static_cast<size_t>(j)])] =
            static_cast<int32_t>(j);
      }
    }
  }

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
    for_each_bucket([&](int64_t ik, int64_t j0, int64_t j1) {
      for (int64_t j = j0; j < j1; ++j) {
        const int64_t u = ws.order[static_cast<size_t>(j)];
        std::memcpy(p_stack + j * p_stride, p_row(c - 1, u),
                    static_cast<size_t>(p_stride) * sizeof(float));
        std::memcpy(d_stack + j * d_stride,
                    d_cur + ws.pos[static_cast<size_t>(u)] * d_stride,
                    static_cast<size_t>(d_stride) * sizeof(float));
      }
      const int64_t k = (j1 - j0) * m_prev;
      const float* dd = d_stack + j0 * d_stride;
      // Eq. 4 for the whole bucket at once: sum_u P_u^T D_u = [P]^T [D] over
      // the stacked K, accumulated into the slice.
      Gemm(Trans::kYes, Trans::kNo, rank_c, cols_c, k, 1.0f,
           p_stack + j0 * p_stride, rank_c, dd, cols_c, 1.0f,
           grad.data() + ik * slice_size, cols_c);
      // Eq. 5: D_{c-1} = D_c G_c[i]^T, against the slice transposed once so
      // the product runs on the NN kernel.
      // The executing thread's own buffer (see Workspace).
      float* slice_t = Grow(ThreadWorkspace().slice_t, slice_size);
      const float* slice = cores_.Slice(c, ik);
      for (int64_t r = 0; r < rank_c; ++r) {
        for (int64_t j = 0; j < cols_c; ++j) {
          slice_t[j * rank_c + r] = slice[r * cols_c + j];
        }
      }
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
  for_each_bucket([&](int64_t ik, int64_t j0, int64_t j1) {
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
