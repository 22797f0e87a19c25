// Argument validation + runtime SIMD dispatch for Gemm/Axpy/PairwiseDots/
// Transpose.
// The per-tier loop kernels live in gemm_scalar.cc / gemm_avx2.cc /
// gemm_avx512.cc.
#include "tensor/gemm.h"

#include "tensor/check.h"
#include "tensor/cpu_features.h"
#include "tensor/gemm_kernels.h"

namespace ttrec {

namespace internal {

const GemmKernelTable& KernelTableFor(SimdTier tier) {
  switch (tier) {
#ifdef TTREC_HAVE_AVX512
    case SimdTier::kAvx512:
      return Avx512KernelTable();
#endif
#ifdef TTREC_HAVE_AVX2
    case SimdTier::kAvx2:
      return Avx2KernelTable();
#endif
    default:
      return ScalarKernelTable();
  }
}

}  // namespace internal

namespace {

void CheckGemmArgs(Trans ta, Trans tb, int64_t m, int64_t n, int64_t k,
                   int64_t lda, int64_t ldb, int64_t ldc) {
  TTREC_CHECK_SHAPE(m >= 0 && n >= 0 && k >= 0,
                    "GEMM dims must be non-negative: m=", m, " n=", n,
                    " k=", k);
  const int64_t a_cols = (ta == Trans::kNo) ? k : m;
  const int64_t b_cols = (tb == Trans::kNo) ? n : k;
  TTREC_CHECK_SHAPE(lda >= a_cols, "GEMM lda (", lda, ") < A columns (",
                    a_cols, ")");
  TTREC_CHECK_SHAPE(ldb >= b_cols, "GEMM ldb (", ldb, ") < B columns (",
                    b_cols, ")");
  TTREC_CHECK_SHAPE(ldc >= n, "GEMM ldc (", ldc, ") < n (", n, ")");
}

}  // namespace

void Gemm(Trans ta, Trans tb, int64_t m, int64_t n, int64_t k, float alpha,
          const float* a, int64_t lda, const float* b, int64_t ldb, float beta,
          float* c, int64_t ldc) {
  CheckGemmArgs(ta, tb, m, n, k, lda, ldb, ldc);
  if (m == 0 || n == 0) return;
  if (k == 0 || alpha == 0.0f) {
    // Degenerate product: C = beta * C.
    for (int64_t i = 0; i < m; ++i) {
      float* ci = c + i * ldc;
      for (int64_t j = 0; j < n; ++j) ci[j] = beta == 0.0f ? 0.0f : beta * ci[j];
    }
    return;
  }
  const internal::GemmKernelTable& t =
      internal::KernelTableFor(ActiveSimdTier());
  if (ta == Trans::kNo && tb == Trans::kNo) {
    t.nn(m, n, k, alpha, a, lda, b, ldb, beta, c, ldc);
  } else if (ta == Trans::kYes && tb == Trans::kNo) {
    t.tn(m, n, k, alpha, a, lda, b, ldb, beta, c, ldc);
  } else if (ta == Trans::kNo && tb == Trans::kYes) {
    t.nt(m, n, k, alpha, a, lda, b, ldb, beta, c, ldc);
  } else {
    t.tt(m, n, k, alpha, a, lda, b, ldb, beta, c, ldc);
  }
}

void Gemm(Trans ta, Trans tb, int64_t m, int64_t n, int64_t k, float alpha,
          const float* a, const float* b, float beta, float* c) {
  const int64_t lda = (ta == Trans::kNo) ? k : m;
  const int64_t ldb = (tb == Trans::kNo) ? n : k;
  Gemm(ta, tb, m, n, k, alpha, a, lda, b, ldb, beta, c, n);
}

void Axpy(int64_t n, float alpha, const float* x, float* y) {
  TTREC_CHECK_SHAPE(n >= 0, "Axpy length must be non-negative: n=", n);
  if (n == 0 || alpha == 0.0f) return;
  internal::KernelTableFor(ActiveSimdTier()).axpy(n, alpha, x, y);
}

namespace {

void CheckPairwiseArgs(int64_t num_features, int64_t dim,
                       const float* const* features, int64_t batch) {
  TTREC_CHECK_SHAPE(num_features >= 1 && dim >= 1 && batch >= 0,
                    "PairwiseDots: need num_features >= 1, dim >= 1, "
                    "batch >= 0: num_features=",
                    num_features, " dim=", dim, " batch=", batch);
  for (int64_t f = 0; f < num_features; ++f) {
    TTREC_CHECK_INDEX(features[f] != nullptr,
                      "PairwiseDots: null feature block ", f);
  }
}

}  // namespace

void PairwiseDots(int64_t num_features, int64_t dim,
                  const float* const* features, int64_t batch, float* out) {
  CheckPairwiseArgs(num_features, dim, features, batch);
  if (batch == 0) return;
  internal::KernelTableFor(ActiveSimdTier())
      .pair_dots(num_features, dim, features, batch, out);
}

void PairwiseDotsBackward(int64_t num_features, int64_t dim,
                          const float* const* features,
                          const float* grad_out, int64_t batch,
                          float* const* grads) {
  CheckPairwiseArgs(num_features, dim, features, batch);
  for (int64_t f = 0; f < num_features; ++f) {
    TTREC_CHECK_INDEX(grads[f] != nullptr,
                      "PairwiseDotsBackward: null gradient block ", f);
  }
  if (batch == 0) return;
  internal::KernelTableFor(ActiveSimdTier())
      .pair_dots_backward(num_features, dim, features, grad_out, batch,
                          grads);
}

void Transpose(int64_t rows, int64_t cols, const float* src, int64_t lds,
               float* dst, int64_t ldd) {
  TTREC_CHECK_SHAPE(rows >= 0 && cols >= 0,
                    "Transpose dims must be non-negative: rows=", rows,
                    " cols=", cols);
  TTREC_CHECK_SHAPE(lds >= cols, "Transpose lds (", lds, ") < cols (", cols,
                    ")");
  TTREC_CHECK_SHAPE(ldd >= rows, "Transpose ldd (", ldd, ") < rows (", rows,
                    ")");
  if (rows == 0 || cols == 0) return;
  internal::KernelTableFor(ActiveSimdTier())
      .transpose(rows, cols, src, lds, dst, ldd);
}

void GemmRef(Trans ta, Trans tb, int64_t m, int64_t n, int64_t k, float alpha,
             const float* a, int64_t lda, const float* b, int64_t ldb,
             float beta, float* c, int64_t ldc) {
  CheckGemmArgs(ta, tb, m, n, k, lda, ldb, ldc);
  for (int64_t i = 0; i < m; ++i) {
    for (int64_t j = 0; j < n; ++j) {
      double acc = 0.0;
      for (int64_t p = 0; p < k; ++p) {
        const float av = (ta == Trans::kNo) ? a[i * lda + p] : a[p * lda + i];
        const float bv = (tb == Trans::kNo) ? b[p * ldb + j] : b[j * ldb + p];
        acc += static_cast<double>(av) * bv;
      }
      const double prev = (beta == 0.0f) ? 0.0 : beta * c[i * ldc + j];
      c[i * ldc + j] = static_cast<float>(alpha * acc + prev);
    }
  }
}

void Gemv(Trans ta, int64_t m, int64_t n, float alpha, const float* a,
          int64_t lda, const float* x, float beta, float* y) {
  // Treat as GEMM with a 1-column B / C.
  if (ta == Trans::kNo) {
    for (int64_t i = 0; i < m; ++i) {
      const float* ai = a + i * lda;
      float acc = 0.0f;
      for (int64_t j = 0; j < n; ++j) acc += ai[j] * x[j];
      y[i] = alpha * acc + (beta == 0.0f ? 0.0f : beta * y[i]);
    }
  } else {
    for (int64_t j = 0; j < n; ++j) {
      y[j] = beta == 0.0f ? 0.0f : beta * y[j];
    }
    for (int64_t i = 0; i < m; ++i) {
      const float xi = alpha * x[i];
      const float* ai = a + i * lda;
      for (int64_t j = 0; j < n; ++j) y[j] += xi * ai[j];
    }
  }
}

}  // namespace ttrec
