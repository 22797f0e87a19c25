// Scalar (portable) GEMM kernel tier.
//
// These loops are the original pre-dispatch implementation moved here
// verbatim: the scalar tier must keep producing bitwise the same results
// the project produced before SIMD dispatch existed, because it is both
// the portable fallback and the reproducibility baseline CI pins with
// TTREC_SIMD=scalar. This file is compiled with the project's default
// flags only — no -mavx2/-mfma — so the compiler cannot contract these
// loops differently from the seed build.
#include <cstring>

#include "tensor/gemm_kernels.h"

namespace ttrec {
namespace internal {
namespace {

// C (m x n) = alpha * A (m x k) * B (k x n) + beta * C. The i-k-j loop order
// streams B and C rows, which GCC vectorizes; fine for the small blocky
// matrices TT contraction produces.
void GemmNN(int64_t m, int64_t n, int64_t k, float alpha,
            const float* __restrict a, int64_t lda,
            const float* __restrict b, int64_t ldb, float beta,
            float* __restrict c, int64_t ldc) {
  for (int64_t i = 0; i < m; ++i) {
    float* ci = c + i * ldc;
    if (beta == 0.0f) {
      for (int64_t j = 0; j < n; ++j) ci[j] = 0.0f;
    } else if (beta != 1.0f) {
      for (int64_t j = 0; j < n; ++j) ci[j] *= beta;
    }
    const float* ai = a + i * lda;
    for (int64_t p = 0; p < k; ++p) {
      const float aip = alpha * ai[p];
      const float* bp = b + p * ldb;
      for (int64_t j = 0; j < n; ++j) ci[j] += aip * bp[j];
    }
  }
}

// C = alpha * A^T (m x k, stored k x m) * B (k x n) + beta * C.
void GemmTN(int64_t m, int64_t n, int64_t k, float alpha,
            const float* __restrict a, int64_t lda,
            const float* __restrict b, int64_t ldb, float beta,
            float* __restrict c, int64_t ldc) {
  for (int64_t i = 0; i < m; ++i) {
    float* ci = c + i * ldc;
    if (beta == 0.0f) {
      for (int64_t j = 0; j < n; ++j) ci[j] = 0.0f;
    } else if (beta != 1.0f) {
      for (int64_t j = 0; j < n; ++j) ci[j] *= beta;
    }
    for (int64_t p = 0; p < k; ++p) {
      const float aip = alpha * a[p * lda + i];
      const float* bp = b + p * ldb;
      for (int64_t j = 0; j < n; ++j) ci[j] += aip * bp[j];
    }
  }
}

// C = alpha * A (m x k) * B^T (k x n, stored n x k) + beta * C.
// Dot-product formulation: both A row and B row are streamed contiguously.
void GemmNT(int64_t m, int64_t n, int64_t k, float alpha,
            const float* __restrict a, int64_t lda,
            const float* __restrict b, int64_t ldb, float beta,
            float* __restrict c, int64_t ldc) {
  for (int64_t i = 0; i < m; ++i) {
    const float* ai = a + i * lda;
    float* ci = c + i * ldc;
    for (int64_t j = 0; j < n; ++j) {
      const float* bj = b + j * ldb;
      float acc = 0.0f;
      for (int64_t p = 0; p < k; ++p) acc += ai[p] * bj[p];
      ci[j] = alpha * acc + (beta == 0.0f ? 0.0f : beta * ci[j]);
    }
  }
}

// C = alpha * A^T * B^T + beta * C.
void GemmTT(int64_t m, int64_t n, int64_t k, float alpha,
            const float* __restrict a, int64_t lda,
            const float* __restrict b, int64_t ldb, float beta,
            float* __restrict c, int64_t ldc) {
  for (int64_t i = 0; i < m; ++i) {
    float* ci = c + i * ldc;
    for (int64_t j = 0; j < n; ++j) {
      float acc = 0.0f;
      for (int64_t p = 0; p < k; ++p) acc += a[p * lda + i] * b[j * ldb + p];
      ci[j] = alpha * acc + (beta == 0.0f ? 0.0f : beta * ci[j]);
    }
  }
}

// Matches the pooling loop TtEmbeddingBag used before Axpy existed
// (dst[j] += w * src[j]), so staged pooling on the scalar tier is
// arithmetically unchanged from the seed.
void Axpy(int64_t n, float alpha, const float* __restrict x,
          float* __restrict y) {
  for (int64_t i = 0; i < n; ++i) y[i] += alpha * x[i];
}

// DotInteraction's original loops, so the scalar tier's interaction stays
// bitwise what it was before the kernel table held it.
void PairwiseDots(int64_t num_features, int64_t dim,
                  const float* const* features, int64_t batch, float* out) {
  const int64_t F = num_features;
  const int64_t d = dim;
  const int64_t od = d + F * (F - 1) / 2;
  for (int64_t b = 0; b < batch; ++b) {
    float* ob = out + b * od;
    // Leading copy of z_0, then the upper-triangle dots.
    std::memcpy(ob, features[0] + b * d,
                static_cast<size_t>(d) * sizeof(float));
    int64_t p = d;
    for (int64_t i = 0; i < F; ++i) {
      const float* zi = features[i] + b * d;
      for (int64_t j = i + 1; j < F; ++j) {
        const float* zj = features[j] + b * d;
        float dot = 0.0f;
        for (int64_t k = 0; k < d; ++k) dot += zi[k] * zj[k];
        ob[p++] = dot;
      }
    }
  }
}

void PairwiseDotsBackward(int64_t num_features, int64_t dim,
                          const float* const* features,
                          const float* grad_out, int64_t batch,
                          float* const* grads) {
  const int64_t F = num_features;
  const int64_t d = dim;
  const int64_t od = d + F * (F - 1) / 2;
  for (int64_t f = 0; f < F; ++f) {
    std::memset(grads[f], 0, static_cast<size_t>(batch * d) * sizeof(float));
  }
  for (int64_t b = 0; b < batch; ++b) {
    const float* gb = grad_out + b * od;
    // d z_0 gets the pass-through part.
    for (int64_t k = 0; k < d; ++k) grads[0][b * d + k] += gb[k];
    int64_t p = d;
    for (int64_t i = 0; i < F; ++i) {
      const float* zi = features[i] + b * d;
      for (int64_t j = i + 1; j < F; ++j) {
        const float* zj = features[j] + b * d;
        const float g = gb[p++];
        float* gi = grads[i] + b * d;
        float* gj = grads[j] + b * d;
        for (int64_t k = 0; k < d; ++k) {
          gi[k] += g * zj[k];
          gj[k] += g * zi[k];
        }
      }
    }
  }
}

// The slice transpose TtEmbeddingBag's backward ran inline before the
// kernel table held it; the vector tiers call it for their ragged edges.
void Transpose(int64_t rows, int64_t cols, const float* __restrict src,
               int64_t lds, float* __restrict dst, int64_t ldd) {
  for (int64_t r = 0; r < rows; ++r) {
    for (int64_t j = 0; j < cols; ++j) {
      dst[j * ldd + r] = src[r * lds + j];
    }
  }
}

}  // namespace

const GemmKernelTable& ScalarKernelTable() {
  static const GemmKernelTable table = {
      GemmNN, GemmTN,       GemmNT,
      GemmTT, Axpy,         PairwiseDots,
      PairwiseDotsBackward, Transpose};
  return table;
}

}  // namespace internal
}  // namespace ttrec
