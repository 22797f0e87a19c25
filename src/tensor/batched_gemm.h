// Pointer-array batched GEMM: the CPU mirror of cuBLAS GemmBatchedEx, which
// the paper's TT-EmbeddingBag kernel (Algorithm 1/2) is built on.
//
// A batch is `count` independent products with identical dimensions and
// per-problem A/B/C pointers. TT-Rec sets these pointers to TT-core slices
// and intermediate buffers, one problem per embedding lookup, and launches
// one batch per TT stage. On CPU the batch dimension is split across the
// global thread pool.
#pragma once

#include <cstdint>
#include <span>

#include "tensor/gemm.h"

namespace ttrec {

/// Dimensions shared by every problem in a batch.
struct BatchedGemmShape {
  Trans ta = Trans::kNo;
  Trans tb = Trans::kNo;
  int64_t m = 0;
  int64_t n = 0;
  int64_t k = 0;
  float alpha = 1.0f;
  float beta = 0.0f;
};

/// For each i in [0, count): C[i] = alpha * op(A[i]) * op(B[i]) + beta * C[i].
/// All matrices contiguous (lda = op-cols as in the Gemm overload).
/// Preconditions: the three spans have equal size; pointers non-null; C
/// pointers do not alias across problems (undefined otherwise, matching
/// cuBLAS).
///
/// When called from inside an outer ParallelFor chunk (a nested call — e.g.
/// from a block-parallel TT kernel task) the batch runs inline on the
/// current thread in batch order, deterministically: outer parallelism owns
/// the pool, inner batches never re-enter it.
void BatchedGemm(const BatchedGemmShape& shape,
                 std::span<const float* const> a,
                 std::span<const float* const> b, std::span<float* const> c);

}  // namespace ttrec
