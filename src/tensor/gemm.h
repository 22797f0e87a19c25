// Single-precision GEMM on row-major matrices.
//
// TT-Rec's lookup kernel is a chain of *small* matrix products (dims are
// products of TT ranks <= 64 and column factors <= 8), so the implementation
// favors low fixed overhead and register-blocked microkernels over cache
// blocking for huge matrices. Gemm/Axpy dispatch at runtime across SIMD
// tiers (scalar / AVX2+FMA / AVX-512; see tensor/cpu_features.h for the
// selection and determinism contract). A separate reference implementation
// exists purely as a test oracle.
#pragma once

#include <cstdint>

namespace ttrec {

enum class Trans : uint8_t { kNo, kYes };

/// C = alpha * op(A) * op(B) + beta * C.
///
/// All matrices are row-major. `m`, `n`, `k` are the dimensions *after*
/// applying the transposes: op(A) is m x k, op(B) is k x n, C is m x n.
/// `lda`/`ldb`/`ldc` are leading dimensions (row strides) of the stored
/// (untransposed) matrices.
void Gemm(Trans ta, Trans tb, int64_t m, int64_t n, int64_t k, float alpha,
          const float* a, int64_t lda, const float* b, int64_t ldb, float beta,
          float* c, int64_t ldc);

/// Convenience overload for contiguous matrices (ld = row length).
void Gemm(Trans ta, Trans tb, int64_t m, int64_t n, int64_t k, float alpha,
          const float* a, const float* b, float beta, float* c);

/// y += alpha * x over n contiguous floats, dispatched like Gemm. Bitwise
/// deterministic within a SIMD tier for any operand alignment; used for
/// the pooling accumulation of the TT forward and of PoolPrefetchedRows,
/// which must match it bitwise.
void Axpy(int64_t n, float alpha, const float* x, float* y);

/// Naive triple-loop oracle with identical semantics; for tests only.
void GemmRef(Trans ta, Trans tb, int64_t m, int64_t n, int64_t k, float alpha,
             const float* a, int64_t lda, const float* b, int64_t ldb,
             float beta, float* c, int64_t ldc);

/// y = alpha * op(A) * x + beta * y (matrix-vector).
void Gemv(Trans ta, int64_t m, int64_t n, float alpha, const float* a,
          int64_t lda, const float* x, float beta, float* y);

}  // namespace ttrec
