// AVX-512 GEMM kernel tier. Compiled with -mavx512f/bw/dq/vl (see
// src/tensor/CMakeLists.txt); only reached when CPUID + XCR0 report full
// ZMM state support.
//
// Same structure as the AVX2 tier — broadcast formulation for NN/TN, dot
// formulation for NT, the shared pairwise-dot kernels — but 16-wide, and
// ragged column/k tails use masked loads/stores instead of scalar loops:
// the mask is a pure function of the remainder, so tails stay
// deterministic and branch-free.
#include <immintrin.h>

#include "tensor/gemm_kernels.h"
#include "tensor/pairwise_dots_simd.h"

namespace ttrec {
namespace internal {
namespace {

// One MR x (NV*16) full tile of the broadcast (NN/TN) formulation; see
// gemm_avx2.cc for the shared addressing scheme.
template <int MR, int NV>
inline void BroadcastTile(int64_t k, float alpha, const float* a,
                          int64_t a_row_stride, int64_t a_p_stride,
                          const float* b, int64_t ldb, float beta, float* c,
                          int64_t ldc) {
  __m512 acc[MR][NV];
  for (int r = 0; r < MR; ++r)
    for (int v = 0; v < NV; ++v) acc[r][v] = _mm512_setzero_ps();
  for (int64_t p = 0; p < k; ++p) {
    const float* bp = b + p * ldb;
    __m512 bv[NV];
    for (int v = 0; v < NV; ++v) bv[v] = _mm512_loadu_ps(bp + 16 * v);
    for (int r = 0; r < MR; ++r) {
      const __m512 av = _mm512_set1_ps(a[r * a_row_stride + p * a_p_stride]);
      for (int v = 0; v < NV; ++v)
        acc[r][v] = _mm512_fmadd_ps(av, bv[v], acc[r][v]);
    }
  }
  const __m512 va = _mm512_set1_ps(alpha);
  for (int r = 0; r < MR; ++r) {
    float* cr = c + r * ldc;
    for (int v = 0; v < NV; ++v) {
      __m512 out = _mm512_mul_ps(va, acc[r][v]);
      if (beta != 0.0f) {
        out = _mm512_add_ps(out, _mm512_mul_ps(_mm512_set1_ps(beta),
                                               _mm512_loadu_ps(cr + 16 * v)));
      }
      _mm512_storeu_ps(cr + 16 * v, out);
    }
  }
}

// Masked column tail: the final 1..15 columns as one predicated tile.
template <int MR>
inline void BroadcastTailMasked(int64_t n_rem, int64_t k, float alpha,
                                const float* a, int64_t a_row_stride,
                                int64_t a_p_stride, const float* b,
                                int64_t ldb, float beta, float* c,
                                int64_t ldc) {
  const __mmask16 mask =
      static_cast<__mmask16>((1u << static_cast<unsigned>(n_rem)) - 1u);
  __m512 acc[MR];
  for (int r = 0; r < MR; ++r) acc[r] = _mm512_setzero_ps();
  for (int64_t p = 0; p < k; ++p) {
    const __m512 bv = _mm512_maskz_loadu_ps(mask, b + p * ldb);
    for (int r = 0; r < MR; ++r) {
      const __m512 av = _mm512_set1_ps(a[r * a_row_stride + p * a_p_stride]);
      acc[r] = _mm512_fmadd_ps(av, bv, acc[r]);
    }
  }
  const __m512 va = _mm512_set1_ps(alpha);
  for (int r = 0; r < MR; ++r) {
    float* cr = c + r * ldc;
    __m512 out = _mm512_mul_ps(va, acc[r]);
    if (beta != 0.0f) {
      out = _mm512_add_ps(out, _mm512_mul_ps(_mm512_set1_ps(beta),
                                             _mm512_maskz_loadu_ps(mask, cr)));
    }
    _mm512_mask_storeu_ps(cr, mask, out);
  }
}

template <int MR>
inline void BroadcastRows(int64_t n, int64_t k, float alpha, const float* a,
                          int64_t a_row_stride, int64_t a_p_stride,
                          const float* b, int64_t ldb, float beta, float* c,
                          int64_t ldc) {
  int64_t j = 0;
  for (; j + 32 <= n; j += 32) {
    BroadcastTile<MR, 2>(k, alpha, a, a_row_stride, a_p_stride, b + j, ldb,
                         beta, c + j, ldc);
  }
  if (j + 16 <= n) {
    BroadcastTile<MR, 1>(k, alpha, a, a_row_stride, a_p_stride, b + j, ldb,
                         beta, c + j, ldc);
    j += 16;
  }
  if (j < n) {
    BroadcastTailMasked<MR>(n - j, k, alpha, a, a_row_stride, a_p_stride,
                            b + j, ldb, beta, c + j, ldc);
  }
}

void GemmBroadcast(bool a_trans, int64_t m, int64_t n, int64_t k, float alpha,
                   const float* a, int64_t lda, const float* b, int64_t ldb,
                   float beta, float* c, int64_t ldc) {
  const int64_t a_row_stride = a_trans ? 1 : lda;
  const int64_t a_p_stride = a_trans ? lda : 1;
  int64_t i = 0;
  for (; i + 4 <= m; i += 4) {
    BroadcastRows<4>(n, k, alpha, a + (a_trans ? i : i * lda), a_row_stride,
                     a_p_stride, b, ldb, beta, c + i * ldc, ldc);
  }
  const float* ai = a + (a_trans ? i : i * lda);
  float* ci = c + i * ldc;
  switch (m - i) {
    case 3:
      BroadcastRows<3>(n, k, alpha, ai, a_row_stride, a_p_stride, b, ldb, beta,
                       ci, ldc);
      break;
    case 2:
      BroadcastRows<2>(n, k, alpha, ai, a_row_stride, a_p_stride, b, ldb, beta,
                       ci, ldc);
      break;
    case 1:
      BroadcastRows<1>(n, k, alpha, ai, a_row_stride, a_p_stride, b, ldb, beta,
                       ci, ldc);
      break;
    default:
      break;
  }
}

void GemmNN(int64_t m, int64_t n, int64_t k, float alpha, const float* a,
            int64_t lda, const float* b, int64_t ldb, float beta, float* c,
            int64_t ldc) {
  GemmBroadcast(false, m, n, k, alpha, a, lda, b, ldb, beta, c, ldc);
}

void GemmTN(int64_t m, int64_t n, int64_t k, float alpha, const float* a,
            int64_t lda, const float* b, int64_t ldb, float beta, float* c,
            int64_t ldc) {
  GemmBroadcast(true, m, n, k, alpha, a, lda, b, ldb, beta, c, ldc);
}

// NT runs one dot per C element: a 16-wide FMA chain over k with a masked
// k-tail, then _mm512_reduce_add_ps, which lowers to a fixed shuffle tree,
// so the reduction order is a constant of the binary. A kNtRows x kNtCols
// tile interleaves that many independent chains (the element sequence is
// unchanged), hiding the FMA latency and sharing each loaded A and B
// vector between chains.
//
// GCC 12 flags the reduce lowering with a false-positive
// -W(maybe-)uninitialized: the extract step passes _mm256_undefined_pd() as
// the (fully overwritten) merge source of a mask builtin.
constexpr int kNtRows = 4;
constexpr int kNtCols = 4;

#pragma GCC diagnostic push
#pragma GCC diagnostic ignored "-Wmaybe-uninitialized"
#pragma GCC diagnostic ignored "-Wuninitialized"
template <int MR, int NR>
inline void DotTile(int64_t k, float alpha, const float* a, int64_t lda,
                    const float* b, int64_t ldb, float beta, float* c,
                    int64_t ldc) {
  __m512 acc[MR][NR];
  for (int r = 0; r < MR; ++r)
    for (int q = 0; q < NR; ++q) acc[r][q] = _mm512_setzero_ps();
  int64_t p = 0;
  for (; p + 16 <= k; p += 16) {
    __m512 bv[NR];
    for (int q = 0; q < NR; ++q) bv[q] = _mm512_loadu_ps(b + q * ldb + p);
    for (int r = 0; r < MR; ++r) {
      const __m512 av = _mm512_loadu_ps(a + r * lda + p);
      for (int q = 0; q < NR; ++q)
        acc[r][q] = _mm512_fmadd_ps(av, bv[q], acc[r][q]);
    }
  }
  if (p < k) {
    const __mmask16 mask =
        static_cast<__mmask16>((1u << static_cast<unsigned>(k - p)) - 1u);
    __m512 bv[NR];
    for (int q = 0; q < NR; ++q)
      bv[q] = _mm512_maskz_loadu_ps(mask, b + q * ldb + p);
    for (int r = 0; r < MR; ++r) {
      const __m512 av = _mm512_maskz_loadu_ps(mask, a + r * lda + p);
      for (int q = 0; q < NR; ++q)
        acc[r][q] = _mm512_fmadd_ps(av, bv[q], acc[r][q]);
    }
  }
  for (int r = 0; r < MR; ++r) {
    float* cr = c + r * ldc;
    for (int q = 0; q < NR; ++q) {
      const float d = _mm512_reduce_add_ps(acc[r][q]);
      cr[q] = alpha * d + (beta == 0.0f ? 0.0f : beta * cr[q]);
    }
  }
}
#pragma GCC diagnostic pop

template <int MR>
inline void DotRows(int64_t n, int64_t k, float alpha, const float* a,
                    int64_t lda, const float* b, int64_t ldb, float beta,
                    float* c, int64_t ldc) {
  int64_t j = 0;
  for (; j + kNtCols <= n; j += kNtCols) {
    DotTile<MR, kNtCols>(k, alpha, a, lda, b + j * ldb, ldb, beta, c + j, ldc);
  }
  for (; j < n; ++j) {
    DotTile<MR, 1>(k, alpha, a, lda, b + j * ldb, ldb, beta, c + j, ldc);
  }
}

void GemmNT(int64_t m, int64_t n, int64_t k, float alpha, const float* a,
            int64_t lda, const float* b, int64_t ldb, float beta, float* c,
            int64_t ldc) {
  int64_t i = 0;
  for (; i + kNtRows <= m; i += kNtRows) {
    DotRows<kNtRows>(n, k, alpha, a + i * lda, lda, b, ldb, beta,
                     c + i * ldc, ldc);
  }
  const float* ai = a + i * lda;
  float* ci = c + i * ldc;
  switch (m - i) {
    case 3: DotRows<3>(n, k, alpha, ai, lda, b, ldb, beta, ci, ldc); break;
    case 2: DotRows<2>(n, k, alpha, ai, lda, b, ldb, beta, ci, ldc); break;
    case 1: DotRows<1>(n, k, alpha, ai, lda, b, ldb, beta, ci, ldc); break;
    default: break;
  }
}

// Off the hot path; reuse the portable loops.
void GemmTT(int64_t m, int64_t n, int64_t k, float alpha, const float* a,
            int64_t lda, const float* b, int64_t ldb, float beta, float* c,
            int64_t ldc) {
  ScalarKernelTable().tt(m, n, k, alpha, a, lda, b, ldb, beta, c, ldc);
}

void Axpy(int64_t n, float alpha, const float* x, float* y) {
  const __m512 va = _mm512_set1_ps(alpha);
  int64_t i = 0;
  for (; i + 16 <= n; i += 16) {
    _mm512_storeu_ps(
        y + i,
        _mm512_fmadd_ps(va, _mm512_loadu_ps(x + i), _mm512_loadu_ps(y + i)));
  }
  if (i < n) {
    const __mmask16 mask =
        static_cast<__mmask16>((1u << static_cast<unsigned>(n - i)) - 1u);
    const __m512 out =
        _mm512_fmadd_ps(va, _mm512_maskz_loadu_ps(mask, x + i),
                        _mm512_maskz_loadu_ps(mask, y + i));
    _mm512_mask_storeu_ps(y + i, mask, out);
  }
}

struct Avx512PairOps {
  using Vec = __m512;
  using Mask = __mmask16;
  static constexpr int kWidth = 16;
  // 8 rows x 2 vectors of accumulators plus operands fit 32 ZMM registers.
  static constexpr int kRows = 8;
  static Vec Zero() { return _mm512_setzero_ps(); }
  static Vec Set1(float x) { return _mm512_set1_ps(x); }
  static Vec Load(const float* p) { return _mm512_loadu_ps(p); }
  static void Store(float* p, Vec v) { _mm512_storeu_ps(p, v); }
  static Vec Fma(Vec a, Vec b, Vec c) { return _mm512_fmadd_ps(a, b, c); }
  static Mask LaneMask(int64_t lo, int64_t hi) {
    const unsigned below_hi = (1u << static_cast<unsigned>(hi)) - 1u;
    const unsigned below_lo = (1u << static_cast<unsigned>(lo)) - 1u;
    return static_cast<Mask>(below_hi & ~below_lo);
  }
  static Vec MaskLoad(const float* p, Mask m) {
    return _mm512_maskz_loadu_ps(m, p);
  }
  static void MaskStore(float* p, Mask m, Vec v) {
    _mm512_mask_storeu_ps(p, m, v);
  }
};

void PairwiseDots(int64_t num_features, int64_t dim,
                  const float* const* features, int64_t batch, float* out) {
  PairwiseDotsSimd<Avx512PairOps>(num_features, dim, features, batch, out);
}

void PairwiseDotsBackward(int64_t num_features, int64_t dim,
                          const float* const* features,
                          const float* grad_out, int64_t batch,
                          float* const* grads) {
  PairwiseDotsBackwardSimd<Avx512PairOps>(num_features, dim, features,
                                          grad_out, batch, grads);
}

}  // namespace

const GemmKernelTable& Avx512KernelTable() {
  static const GemmKernelTable table = {GemmNN, GemmTN,       GemmNT,
                                        GemmTT, Axpy,         PairwiseDots,
                                        PairwiseDotsBackward};
  return table;
}

}  // namespace internal
}  // namespace ttrec
