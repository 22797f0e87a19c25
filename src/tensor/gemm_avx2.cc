// AVX2+FMA GEMM kernel tier. Compiled with -mavx2 -mfma (see
// src/tensor/CMakeLists.txt); only reached when CPUID reports those
// features, so no runtime guards here.
//
// Kernel shapes target TT-Rec's GEMM chain: A is one reconstructed-row
// stage (m = 1..8 typical, up to a column-factor product), B is a core
// slice with n = n_k * R_k (tens to a few hundred columns), k = R_{k-1}
// (8..64). Register blocking is therefore MR=4 rows x (8 or 16) columns
// with the full k loop in the accumulators — no cache blocking needed at
// these sizes; n = 4 packs two rows per YMM. NT (the MLP forwards) runs
// 2 x 4 tiles of dot chains, and the pairwise-dot pair comes from
// tensor/pairwise_dots_simd.h.
//
// Determinism: unaligned loads only, column/row tail handling is a pure
// function of (m, n, k), and every reduction has a fixed order. alpha and
// beta are applied once after the k loop by one explicit epilogue
// (Epilogue below), which rounds differently from the scalar tier's
// per-term alpha — cross-tier agreement is gated against GemmRef in tests,
// not bitwise.
#include <immintrin.h>

#include <cmath>

#include "tensor/gemm_kernels.h"
#include "tensor/pairwise_dots_simd.h"

namespace ttrec {
namespace internal {
namespace {

// Fixed-shape horizontal sum: (lo+hi) pairwise then across the 128-bit
// lane. Order never depends on data or alignment.
inline float Hsum256(__m256 v) {
  __m128 s = _mm_add_ps(_mm256_castps256_ps128(v), _mm256_extractf128_ps(v, 1));
  s = _mm_add_ps(s, _mm_movehl_ps(s, s));
  s = _mm_add_ss(s, _mm_shuffle_ps(s, s, 1));
  return _mm_cvtss_f32(s);
}

// The broadcast kernels' one epilogue, C = alpha * acc + beta * C: alpha *
// acc is rounded, then beta * C joins it in one FMA. Spelled out in every
// tile and tail: written as mul-then-add, GCC contracted it into an FMA in
// some instantiations and not in others, so with alpha != 1 a row's bits
// depended on the row block it fell into.
inline float Epilogue(float alpha, float acc, float beta, float c) {
  const float out = alpha * acc;
  return beta == 0.0f ? out : std::fma(beta, c, out);
}
inline __m256 Epilogue(float alpha, __m256 acc, float beta, __m256 c) {
  const __m256 out = _mm256_mul_ps(_mm256_set1_ps(alpha), acc);
  return beta == 0.0f ? out : _mm256_fmadd_ps(_mm256_set1_ps(beta), c, out);
}
inline __m128 Epilogue(float alpha, __m128 acc, float beta, __m128 c) {
  const __m128 out = _mm_mul_ps(_mm_set1_ps(alpha), acc);
  return beta == 0.0f ? out : _mm_fmadd_ps(_mm_set1_ps(beta), c, out);
}

// One MR x (NV*8) tile of the broadcast (NN/TN) formulation. Row r of
// op(A) has element p at a[r * a_row_stride + p * a_p_stride]; NN passes
// (lda, 1), TN passes (1, lda), so both transposes share this kernel. The
// loops over the tile's rows and vectors are unrolled: left rolled, GCC
// kept the accumulators in memory (at -O2 inside the k loop, at -O3 around
// the epilogue).
template <int MR, int NV>
inline void BroadcastTile(int64_t k, float alpha, const float* a,
                          int64_t a_row_stride, int64_t a_p_stride,
                          const float* b, int64_t ldb, float beta, float* c,
                          int64_t ldc) {
  __m256 acc[MR][NV];
#pragma GCC unroll 4
  for (int r = 0; r < MR; ++r)
#pragma GCC unroll 2
    for (int v = 0; v < NV; ++v) acc[r][v] = _mm256_setzero_ps();
  for (int64_t p = 0; p < k; ++p) {
    const float* bp = b + p * ldb;
    __m256 bv[NV];
#pragma GCC unroll 2
    for (int v = 0; v < NV; ++v) bv[v] = _mm256_loadu_ps(bp + 8 * v);
#pragma GCC unroll 4
    for (int r = 0; r < MR; ++r) {
      const __m256 av = _mm256_set1_ps(a[r * a_row_stride + p * a_p_stride]);
#pragma GCC unroll 2
      for (int v = 0; v < NV; ++v)
        acc[r][v] = _mm256_fmadd_ps(av, bv[v], acc[r][v]);
    }
  }
#pragma GCC unroll 4
  for (int r = 0; r < MR; ++r) {
    float* cr = c + r * ldc;
#pragma GCC unroll 2
    for (int v = 0; v < NV; ++v) {
      const __m256 cv =
          beta == 0.0f ? _mm256_setzero_ps() : _mm256_loadu_ps(cr + 8 * v);
      _mm256_storeu_ps(cr + 8 * v, Epilogue(alpha, acc[r][v], beta, cv));
    }
  }
}

// One MR x 4 tile using 128-bit vectors, for the 4..7 columns left after
// the 8-wide panels. n = 4 itself (a TT chain's last stage at emb_dim 16,
// 32 and 64, n = n_{d-1} * R_d with R_d = 1) runs PackedTile4 instead,
// except for an odd last row.
template <int MR>
inline void BroadcastTile4(int64_t k, float alpha, const float* a,
                           int64_t a_row_stride, int64_t a_p_stride,
                           const float* b, int64_t ldb, float beta, float* c,
                           int64_t ldc) {
  __m128 acc[MR];
#pragma GCC unroll 4
  for (int r = 0; r < MR; ++r) acc[r] = _mm_setzero_ps();
  for (int64_t p = 0; p < k; ++p) {
    const __m128 bv = _mm_loadu_ps(b + p * ldb);
#pragma GCC unroll 4
    for (int r = 0; r < MR; ++r) {
      acc[r] = _mm_fmadd_ps(_mm_set1_ps(a[r * a_row_stride + p * a_p_stride]),
                            bv, acc[r]);
    }
  }
#pragma GCC unroll 4
  for (int r = 0; r < MR; ++r) {
    float* cr = c + r * ldc;
    const __m128 cv = beta == 0.0f ? _mm_setzero_ps() : _mm_loadu_ps(cr);
    _mm_storeu_ps(cr, Epilogue(alpha, acc[r], beta, cv));
  }
}

// Scalar column tail (< 4 remaining columns) of the broadcast form: one FMA
// chain per element in k order. The FMA is spelled out, as in the NT
// k-tail: left as `acc += x * y`, GCC contracts it at -O2 but at -O3 (in
// the MR = 1 instantiation) rounds the products separately, so a row's bits
// depended on the build type and on which row block it fell into.
template <int MR>
inline void BroadcastTail(int64_t n_rem, int64_t k, float alpha,
                          const float* a, int64_t a_row_stride,
                          int64_t a_p_stride, const float* b, int64_t ldb,
                          float beta, float* c, int64_t ldc) {
  for (int r = 0; r < MR; ++r) {
    const float* ar = a + r * a_row_stride;
    float* cr = c + r * ldc;
    for (int64_t j = 0; j < n_rem; ++j) {
      float acc = 0.0f;
      for (int64_t p = 0; p < k; ++p) {
        acc = std::fma(ar[p * a_p_stride], b[p * ldb + j], acc);
      }
      cr[j] = Epilogue(alpha, acc, beta, beta == 0.0f ? 0.0f : cr[j]);
    }
  }
}

// Full column sweep for a fixed block of MR rows: 16-wide panels, then an
// 8-wide panel, a 4-wide tile, then the scalar tail. Panel boundaries
// depend only on n.
template <int MR>
inline void BroadcastRows(int64_t n, int64_t k, float alpha, const float* a,
                          int64_t a_row_stride, int64_t a_p_stride,
                          const float* b, int64_t ldb, float beta, float* c,
                          int64_t ldc) {
  int64_t j = 0;
  for (; j + 16 <= n; j += 16) {
    BroadcastTile<MR, 2>(k, alpha, a, a_row_stride, a_p_stride, b + j, ldb,
                         beta, c + j, ldc);
  }
  if (j + 8 <= n) {
    BroadcastTile<MR, 1>(k, alpha, a, a_row_stride, a_p_stride, b + j, ldb,
                         beta, c + j, ldc);
    j += 8;
  }
  if (j + 4 <= n) {
    BroadcastTile4<MR>(k, alpha, a, a_row_stride, a_p_stride, b + j, ldb, beta,
                       c + j, ldc);
    j += 4;
  }
  if (j < n) {
    BroadcastTail<MR>(n - j, k, alpha, a, a_row_stride, a_p_stride, b + j, ldb,
                      beta, c + j, ldc);
  }
}

// Packed tile for n = 4, where BroadcastTile4 fills half a YMM: 2 * NY rows
// of C, two rows per YMM, lane 4r + j carrying C[r][j]. Each lane runs the
// FMA chain over p that BroadcastTile4 runs for that element, and the
// epilogue is the same, so a row's bits do not depend on whether it lands
// in a packed tile or is the odd row left to BroadcastRows.
template <int NY>
inline void PackedTile4(int64_t k, float alpha, const float* a,
                        int64_t a_row_stride, int64_t a_p_stride,
                        const float* b, int64_t ldb, float beta, float* c,
                        int64_t ldc) {
  __m256 acc[NY];
#pragma GCC unroll 4
  for (int y = 0; y < NY; ++y) acc[y] = _mm256_setzero_ps();
  for (int64_t p = 0; p < k; ++p) {
    // B's row p in both 128-bit lanes, A's rows 2y and 2y + 1 at p across
    // the low and the high lane.
    const __m256 bv =
        _mm256_broadcast_ps(reinterpret_cast<const __m128*>(b + p * ldb));
#pragma GCC unroll 4
    for (int y = 0; y < NY; ++y) {
      const float* ap = a + 2 * y * a_row_stride + p * a_p_stride;
      const __m256 av = _mm256_blend_ps(_mm256_broadcast_ss(ap),
                                        _mm256_broadcast_ss(ap + a_row_stride),
                                        0xF0);
      acc[y] = _mm256_fmadd_ps(av, bv, acc[y]);
    }
  }
#pragma GCC unroll 4
  for (int y = 0; y < NY; ++y) {
    float* c0 = c + 2 * y * ldc;
    const __m256 cv = beta == 0.0f ? _mm256_setzero_ps()
                                   : _mm256_loadu2_m128(c0 + ldc, c0);
    _mm256_storeu2_m128(c0 + ldc, c0, Epilogue(alpha, acc[y], beta, cv));
  }
}

void GemmBroadcast(bool a_trans, int64_t m, int64_t n, int64_t k, float alpha,
                   const float* a, int64_t lda, const float* b, int64_t ldb,
                   float beta, float* c, int64_t ldc) {
  const int64_t a_row_stride = a_trans ? 1 : lda;
  const int64_t a_p_stride = a_trans ? lda : 1;
  int64_t i = 0;
  if (n == 4) {
    // Packed tiles of 8 rows, then one of the remaining 2, 4 or 6; an odd
    // last row runs BroadcastRows below.
    while (m - i >= 2) {
      WithRows<4>((m - i) / 2, [&](auto ymms) {
        constexpr int NY = decltype(ymms)::value;
        PackedTile4<NY>(k, alpha, a + i * a_row_stride, a_row_stride,
                        a_p_stride, b, ldb, beta, c + i * ldc, ldc);
        i += 2 * NY;
      });
    }
  }
  for (; i + 4 <= m; i += 4) {
    BroadcastRows<4>(n, k, alpha, a + i * a_row_stride, a_row_stride,
                     a_p_stride, b, ldb, beta, c + i * ldc, ldc);
  }
  const float* ai = a + i * a_row_stride;
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

// Dot formulation for B^T: both operand rows are contiguous in k. Each C
// element runs one 8-wide FMA chain over k, Hsum256, then the scalar FMA
// k-tail; a kNtRows x kNtCols tile interleaves that many independent
// chains (the element sequence is unchanged), so the FMA latency is
// hidden and each loaded A and B vector feeds several chains. 2 x 4 keeps
// the 8 accumulators and 6 operands inside the 16 YMM registers.
constexpr int kNtRows = 2;
constexpr int kNtCols = 4;

template <int MR, int NR>
inline void DotTile(int64_t k, float alpha, const float* a, int64_t lda,
                    const float* b, int64_t ldb, float beta, float* c,
                    int64_t ldc) {
  __m256 acc[MR][NR];
  for (int r = 0; r < MR; ++r)
    for (int q = 0; q < NR; ++q) acc[r][q] = _mm256_setzero_ps();
  int64_t p = 0;
  for (; p + 8 <= k; p += 8) {
    __m256 bv[NR];
    for (int q = 0; q < NR; ++q) bv[q] = _mm256_loadu_ps(b + q * ldb + p);
    for (int r = 0; r < MR; ++r) {
      const __m256 av = _mm256_loadu_ps(a + r * lda + p);
      for (int q = 0; q < NR; ++q)
        acc[r][q] = _mm256_fmadd_ps(av, bv[q], acc[r][q]);
    }
  }
  // The tails of the tile's elements run interleaved, each an FMA chain in
  // k order. The FMA is spelled out: left as `d += x * y`, GCC contracts it
  // at -O2 but at -O3 vectorizes the tail into separately rounded products
  // added in order, so the bits depended on the build type.
  float dot[MR][NR];
  for (int r = 0; r < MR; ++r)
    for (int q = 0; q < NR; ++q) dot[r][q] = Hsum256(acc[r][q]);
  for (; p < k; ++p) {
    for (int r = 0; r < MR; ++r)
      for (int q = 0; q < NR; ++q)
        dot[r][q] = std::fma(a[r * lda + p], b[q * ldb + p], dot[r][q]);
  }
  for (int r = 0; r < MR; ++r) {
    float* cr = c + r * ldc;
    for (int q = 0; q < NR; ++q) {
      const float d = dot[r][q];
      cr[q] = alpha * d + (beta == 0.0f ? 0.0f : beta * cr[q]);
    }
  }
}

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
  if (i < m) {
    DotRows<1>(n, k, alpha, a + i * lda, lda, b, ldb, beta, c + i * ldc,
               ldc);
  }
}

// A^T * B^T strides both operands; not on any hot path, so fall through to
// the portable loops (still deterministic — it's a fixed kernel).
void GemmTT(int64_t m, int64_t n, int64_t k, float alpha, const float* a,
            int64_t lda, const float* b, int64_t ldb, float beta, float* c,
            int64_t ldc) {
  ScalarKernelTable().tt(m, n, k, alpha, a, lda, b, ldb, beta, c, ldc);
}

void Axpy(int64_t n, float alpha, const float* x, float* y) {
  const __m256 va = _mm256_set1_ps(alpha);
  int64_t i = 0;
  for (; i + 8 <= n; i += 8) {
    _mm256_storeu_ps(
        y + i,
        _mm256_fmadd_ps(va, _mm256_loadu_ps(x + i), _mm256_loadu_ps(y + i)));
  }
  for (; i < n; ++i) y[i] += alpha * x[i];
}

// Full 8 x 8 blocks go through registers (Transpose8x8); the ragged right
// and bottom edges go to the scalar loop.
void Transpose(int64_t rows, int64_t cols, const float* src, int64_t lds,
               float* dst, int64_t ldd) {
  const int64_t rows8 = rows - rows % 8;
  const int64_t cols8 = cols - cols % 8;
  for (int64_t r = 0; r < rows8; r += 8) {
    for (int64_t j = 0; j < cols8; j += 8) {
      __m256 v[8];
#pragma GCC unroll 8
      for (int i = 0; i < 8; ++i) {
        v[i] = _mm256_loadu_ps(src + (r + i) * lds + j);
      }
      Transpose8x8(v);
#pragma GCC unroll 8
      for (int i = 0; i < 8; ++i) {
        _mm256_storeu_ps(dst + (j + i) * ldd + r, v[i]);
      }
    }
  }
  const TransposeFn edge = ScalarKernelTable().transpose;
  if (cols8 < cols) {
    edge(rows8, cols - cols8, src + cols8, lds, dst + cols8 * ldd, ldd);
  }
  if (rows8 < rows) {
    edge(rows - rows8, cols, src + rows8 * lds, lds, dst + rows8, ldd);
  }
}

struct Avx2PairOps {
  using Vec = __m256;
  using Mask = __m256i;
  static constexpr int kWidth = 8;
  // 4 rows x 2 vectors of accumulators plus operands fit 16 YMM registers.
  static constexpr int kRows = 4;
  static Vec Zero() { return _mm256_setzero_ps(); }
  static Vec Set1(float x) { return _mm256_set1_ps(x); }
  static Vec Load(const float* p) { return _mm256_loadu_ps(p); }
  static void Store(float* p, Vec v) { _mm256_storeu_ps(p, v); }
  static Vec Fma(Vec a, Vec b, Vec c) { return _mm256_fmadd_ps(a, b, c); }
  static Mask LaneMask(int64_t lo, int64_t hi) {
    const __m256i lane = _mm256_setr_epi32(0, 1, 2, 3, 4, 5, 6, 7);
    const __m256i below_hi =
        _mm256_cmpgt_epi32(_mm256_set1_epi32(static_cast<int>(hi)), lane);
    const __m256i below_lo =
        _mm256_cmpgt_epi32(_mm256_set1_epi32(static_cast<int>(lo)), lane);
    return _mm256_andnot_si256(below_lo, below_hi);
  }
  static Vec MaskLoad(const float* p, Mask m) {
    return _mm256_maskload_ps(p, m);
  }
  static void MaskStore(float* p, Mask m, Vec v) {
    _mm256_maskstore_ps(p, m, v);
  }
};

void PairwiseDots(int64_t num_features, int64_t dim,
                  const float* const* features, int64_t batch, float* out) {
  PairwiseDotsSimd<Avx2PairOps>(num_features, dim, features, batch, out);
}

void PairwiseDotsBackward(int64_t num_features, int64_t dim,
                          const float* const* features,
                          const float* grad_out, int64_t batch,
                          float* const* grads) {
  PairwiseDotsBackwardSimd<Avx2PairOps>(num_features, dim, features, grad_out,
                                        batch, grads);
}

}  // namespace

const GemmKernelTable& Avx2KernelTable() {
  static const GemmKernelTable table = {
      GemmNN, GemmTN,       GemmNT,
      GemmTT, Axpy,         PairwiseDots,
      PairwiseDotsBackward, Transpose};
  return table;
}

}  // namespace internal
}  // namespace ttrec
