// Internal kernel table behind Gemm/Axpy/PairwiseDots/Transpose runtime
// dispatch.
//
// Each SIMD tier (scalar, AVX2+FMA, AVX-512) lives in its own translation
// unit compiled with per-file ISA flags and exports one GemmKernelTable.
// The two vector tiers share one source, tensor/gemm_simd.h, instantiated
// over each tier's ops traits (vector type, loads, stores, FMA, masks, NT's
// horizontal sum and the packed n = 4 tiles). The public entry points in
// gemm.cc validate arguments, handle degenerate shapes, then jump through
// the table for ActiveSimdTier().
//
// Kernel preconditions (established by the dispatcher, kernels may assume):
// m > 0, n > 0, k > 0, alpha != 0, leading dims already validated; for the
// pairwise-dot pair, num_features >= 1, dim >= 1, batch >= 1 and non-null
// blocks; for Transpose, rows > 0, cols > 0, lds >= cols, ldd >= rows.
// Kernels must be bitwise deterministic for fixed (shape, inputs)
// regardless of operand alignment — unaligned loads only, tail strategy a
// pure function of the shape. A GEMM row's and an interaction sample's
// result must not depend on m, the batch size or its position in either.
// AVX2 and AVX-512 must write the same bytes for NN, TN, Axpy, Transpose
// and the pairwise dots; only NT's bits depend on the vector width.
#pragma once

#include <cstdint>

#include "tensor/cpu_features.h"

namespace ttrec {
namespace internal {

/// One transpose case of C = alpha * op(A) * op(B) + beta * C (row-major).
using GemmKernelFn = void (*)(int64_t m, int64_t n, int64_t k, float alpha,
                              const float* a, int64_t lda, const float* b,
                              int64_t ldb, float beta, float* c, int64_t ldc);

/// y += alpha * x over n contiguous floats.
using AxpyFn = void (*)(int64_t n, float alpha, const float* x, float* y);

/// PairwiseDots / PairwiseDotsBackward (tensor/gemm.h) over batch samples.
using PairwiseDotsFn = void (*)(int64_t num_features, int64_t dim,
                                const float* const* features, int64_t batch,
                                float* out);
using PairwiseDotsBackwardFn = void (*)(int64_t num_features, int64_t dim,
                                        const float* const* features,
                                        const float* grad_out, int64_t batch,
                                        float* const* grads);

/// dst[j * ldd + r] = src[r * lds + j] for r < rows, j < cols.
using TransposeFn = void (*)(int64_t rows, int64_t cols, const float* src,
                             int64_t lds, float* dst, int64_t ldd);

struct GemmKernelTable {
  GemmKernelFn nn;  // A, B both untransposed
  GemmKernelFn tn;  // A transposed
  GemmKernelFn nt;  // B transposed
  GemmKernelFn tt;  // both transposed
  AxpyFn axpy;
  PairwiseDotsFn pair_dots;
  PairwiseDotsBackwardFn pair_dots_backward;
  TransposeFn transpose;
};

/// Portable tier; arithmetic identical to the pre-dispatch scalar GEMM.
const GemmKernelTable& ScalarKernelTable();

#ifdef TTREC_HAVE_AVX2
const GemmKernelTable& Avx2KernelTable();
#endif
#ifdef TTREC_HAVE_AVX512
const GemmKernelTable& Avx512KernelTable();
#endif

/// Table for a tier this binary was compiled with (callers only pass tiers
/// at or below DetectedSimdTier(), which is already clamped to the build).
const GemmKernelTable& KernelTableFor(SimdTier tier);

}  // namespace internal
}  // namespace ttrec
