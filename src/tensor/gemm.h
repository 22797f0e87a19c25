// Single-precision GEMM on row-major matrices.
//
// TT-Rec's lookup kernel is a chain of *small* matrix products (dims are
// products of TT ranks <= 64 and column factors <= 8), so the implementation
// favors low fixed overhead and register-blocked microkernels over cache
// blocking for huge matrices. Gemm/Axpy/PairwiseDots/Transpose dispatch at
// runtime across SIMD tiers (scalar / AVX2+FMA / AVX-512; see
// tensor/cpu_features.h for the selection and determinism contract). A
// separate reference implementation exists purely as a test oracle.
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

/// The DLRM dot interaction over `batch` samples, dispatched like Gemm.
/// Sample b's feature matrix Z_b has num_features rows of `dim` floats, row
/// f at features[f] + b * dim. Writes out (batch x (dim + P)), where
/// P = num_features * (num_features - 1) / 2: each sample's row holds a
/// copy of its row 0, then the strict upper triangle of Z_b Z_b^T in
/// row-major order, <z_0, z_1>, <z_0, z_2>, ..., <z_{F-2}, z_{F-1}>.
///
/// Within a tier a sample's result never depends on the batch size, its
/// position in the batch or operand alignment. The scalar tier is the
/// project's original loops; in the vector tiers every dot is one FMA
/// chain over the dim in ascending order, so AVX2 and AVX-512 agree
/// bitwise. Single-threaded; const inputs, so concurrent calls are safe.
void PairwiseDots(int64_t num_features, int64_t dim,
                  const float* const* features, int64_t batch, float* out);

/// Backward of PairwiseDots: overwrites grads[f] (batch x dim) with
/// dL/d(features[f]) from grad_out (batch x (dim + P)), i.e.
/// dZ_b = S_b Z_b plus grad_out's leading block into dz_0, where S_b is
/// the symmetric pair-gradient matrix. S_b's diagonal is skipped, never
/// multiplied by zero, so an inf in z_i cannot turn dz_i into NaN. In the
/// vector tiers each element of dz_i is one FMA chain over the partners
/// j != i in ascending order, starting from the pass-through for i = 0.
void PairwiseDotsBackward(int64_t num_features, int64_t dim,
                          const float* const* features,
                          const float* grad_out, int64_t batch,
                          float* const* grads);

/// dst (cols x rows, row stride ldd) = src (rows x cols, row stride lds)
/// transposed, dispatched like Gemm: dst[j * ldd + r] = src[r * lds + j].
/// Pure data movement, so every tier writes the same bytes; both vector
/// tiers move 8 x 8 blocks through YMM registers and leave the ragged edges
/// to the scalar loop. src and dst must not overlap.
void Transpose(int64_t rows, int64_t cols, const float* src, int64_t lds,
               float* dst, int64_t ldd);

/// Naive triple-loop oracle with identical semantics; for tests only.
void GemmRef(Trans ta, Trans tb, int64_t m, int64_t n, int64_t k, float alpha,
             const float* a, int64_t lda, const float* b, int64_t ldb,
             float beta, float* c, int64_t ldc);

/// y = alpha * op(A) * x + beta * y (matrix-vector).
void Gemv(Trans ta, int64_t m, int64_t n, float alpha, const float* a,
          int64_t lda, const float* x, float beta, float* y);

}  // namespace ttrec
