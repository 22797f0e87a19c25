// AVX-512 GEMM kernel tier. Compiled with -mavx512f/bw/dq/vl (see
// src/tensor/CMakeLists.txt); only reached when CPUID + XCR0 report full
// ZMM state support.
//
// Same structure as the AVX2 tier — broadcast formulation for NN/TN with
// packed tiles for n = 4, dot formulation for NT, the shared pairwise-dot
// kernels — but 16-wide, and ragged column/k tails use masked loads/stores
// instead of scalar loops: the mask is a pure function of the remainder,
// so tails stay deterministic and branch-free.
#include <immintrin.h>

#include <algorithm>

#include "tensor/gemm_kernels.h"
#include "tensor/pairwise_dots_simd.h"

namespace ttrec {
namespace internal {
namespace {

// The broadcast kernels' one epilogue, C = alpha * acc + beta * C: alpha *
// acc is rounded, then beta * C joins it in one FMA. Spelled out: written
// as mul-then-add, GCC contracted it into an FMA in some tile
// instantiations and not in others, so with alpha != 1 a row's bits
// depended on the row block it fell into.
inline __m512 Epilogue(float alpha, __m512 acc, float beta, __m512 c) {
  const __m512 out = _mm512_mul_ps(_mm512_set1_ps(alpha), acc);
  return beta == 0.0f ? out : _mm512_fmadd_ps(_mm512_set1_ps(beta), c, out);
}

// One MR x (NV*16) full tile of the broadcast (NN/TN) formulation; see
// gemm_avx2.cc for the shared addressing scheme. The loops over the tile's
// rows and vectors are unrolled: left rolled, GCC kept the accumulators in
// memory (at -O2 inside the k loop, at -O3 around the epilogue).
template <int MR, int NV>
inline void BroadcastTile(int64_t k, float alpha, const float* a,
                          int64_t a_row_stride, int64_t a_p_stride,
                          const float* b, int64_t ldb, float beta, float* c,
                          int64_t ldc) {
  __m512 acc[MR][NV];
#pragma GCC unroll 4
  for (int r = 0; r < MR; ++r)
#pragma GCC unroll 2
    for (int v = 0; v < NV; ++v) acc[r][v] = _mm512_setzero_ps();
  for (int64_t p = 0; p < k; ++p) {
    const float* bp = b + p * ldb;
    __m512 bv[NV];
#pragma GCC unroll 2
    for (int v = 0; v < NV; ++v) bv[v] = _mm512_loadu_ps(bp + 16 * v);
#pragma GCC unroll 4
    for (int r = 0; r < MR; ++r) {
      const __m512 av = _mm512_set1_ps(a[r * a_row_stride + p * a_p_stride]);
#pragma GCC unroll 2
      for (int v = 0; v < NV; ++v)
        acc[r][v] = _mm512_fmadd_ps(av, bv[v], acc[r][v]);
    }
  }
#pragma GCC unroll 4
  for (int r = 0; r < MR; ++r) {
    float* cr = c + r * ldc;
#pragma GCC unroll 2
    for (int v = 0; v < NV; ++v) {
      const __m512 cv =
          beta == 0.0f ? _mm512_setzero_ps() : _mm512_loadu_ps(cr + 16 * v);
      _mm512_storeu_ps(cr + 16 * v, Epilogue(alpha, acc[r][v], beta, cv));
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
#pragma GCC unroll 4
  for (int r = 0; r < MR; ++r) acc[r] = _mm512_setzero_ps();
  for (int64_t p = 0; p < k; ++p) {
    const __m512 bv = _mm512_maskz_loadu_ps(mask, b + p * ldb);
#pragma GCC unroll 4
    for (int r = 0; r < MR; ++r) {
      const __m512 av = _mm512_set1_ps(a[r * a_row_stride + p * a_p_stride]);
      acc[r] = _mm512_fmadd_ps(av, bv, acc[r]);
    }
  }
#pragma GCC unroll 4
  for (int r = 0; r < MR; ++r) {
    float* cr = c + r * ldc;
    const __m512 cv = beta == 0.0f ? _mm512_setzero_ps()
                                   : _mm512_maskz_loadu_ps(mask, cr);
    _mm512_mask_storeu_ps(cr, mask, Epilogue(alpha, acc[r], beta, cv));
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

// The packed tiles and the transpose use intrinsics GCC 12 flags with the
// same false-positive -W(maybe-)uninitialized as NT's reduce below: their
// lowering passes an undefined vector as the fully overwritten merge source
// of a mask builtin.
#pragma GCC diagnostic push
#pragma GCC diagnostic ignored "-Wmaybe-uninitialized"
#pragma GCC diagnostic ignored "-Wuninitialized"
// Rows r .. r+3 of a 4-column matrix (row stride ld) in one ZMM, lane
// 4r + j holding row r's column j; `mask` selects the columns read (the
// rest are zero).
inline __m512 LoadRows4(const float* p, int64_t ld, __mmask8 mask) {
  __m512 v = _mm512_zextps128_ps512(_mm_maskz_loadu_ps(mask, p));
  v = _mm512_insertf32x4(v, _mm_maskz_loadu_ps(mask, p + ld), 1);
  v = _mm512_insertf32x4(v, _mm_maskz_loadu_ps(mask, p + 2 * ld), 2);
  return _mm512_insertf32x4(v, _mm_maskz_loadu_ps(mask, p + 3 * ld), 3);
}

// Packed tile for n = 4 — the last TT core's slice width at emb_dim 16, 32
// and 64, where the masked tail fills 4 of 16 lanes: 4 * NZ rows of C,
// four rows per ZMM, lane 4r + j carrying C[r][j]. Each lane runs the FMA
// chain over p the masked tail runs for that element, and the epilogue is
// the same, so a row's bits do not depend on whether it lands in a packed
// tile or among the m % 4 rows left to BroadcastRows.
template <bool kATrans, int NZ>
inline void PackedTile4(int64_t k, float alpha, const float* a, int64_t lda,
                        const float* b, int64_t ldb, float beta, float* c,
                        int64_t ldc) {
  __m512 acc[NZ];
#pragma GCC unroll 4
  for (int z = 0; z < NZ; ++z) acc[z] = _mm512_setzero_ps();
  if constexpr (kATrans) {
    // op(A)'s rows are stored columns, so a tile's rows at p are contiguous;
    // the permute spreads row r of each group across lanes 4r .. 4r+3.
    const __m512i spread =
        _mm512_setr_epi32(0, 0, 0, 0, 1, 1, 1, 1, 2, 2, 2, 2, 3, 3, 3, 3);
    for (int64_t p = 0; p < k; ++p) {
      const __m512 bv = _mm512_broadcast_f32x4(_mm_loadu_ps(b + p * ldb));
      const float* ap = a + p * lda;
#pragma GCC unroll 4
      for (int z = 0; z < NZ; ++z) {
        const __m512 av = _mm512_permutexvar_ps(
            spread, _mm512_zextps128_ps512(_mm_loadu_ps(ap + 4 * z)));
        acc[z] = _mm512_fmadd_ps(av, bv, acc[z]);
      }
    }
  } else {
    // Rows run along p: per four steps of p, lane 4r + q of blk[z] holds
    // A[4z + r][p + q], and an in-lane broadcast of element q is step q's
    // A operand. Past k the masked loads read nothing.
    for (int64_t p = 0; p < k; p += 4) {
      const int64_t steps = std::min<int64_t>(4, k - p);
      const __mmask8 mask =
          static_cast<__mmask8>((1u << static_cast<unsigned>(steps)) - 1u);
      __m512 blk[NZ];
#pragma GCC unroll 4
      for (int z = 0; z < NZ; ++z) {
        blk[z] = LoadRows4(a + 4 * z * lda + p, lda, mask);
      }
      for (int64_t q = 0; q < steps; ++q) {
        const __m512 bv =
            _mm512_broadcast_f32x4(_mm_loadu_ps(b + (p + q) * ldb));
        const __m512i sel = _mm512_set1_epi32(static_cast<int>(q));
#pragma GCC unroll 4
        for (int z = 0; z < NZ; ++z) {
          acc[z] = _mm512_fmadd_ps(_mm512_permutevar_ps(blk[z], sel), bv,
                                   acc[z]);
        }
      }
    }
  }
#pragma GCC unroll 4
  for (int z = 0; z < NZ; ++z) {
    float* cz = c + 4 * z * ldc;
    const __m512 cv =
        beta == 0.0f ? _mm512_setzero_ps() : LoadRows4(cz, ldc, 0xF);
    const __m512 out = Epilogue(alpha, acc[z], beta, cv);
    _mm_storeu_ps(cz, _mm512_castps512_ps128(out));
    _mm_storeu_ps(cz + ldc, _mm512_extractf32x4_ps(out, 1));
    _mm_storeu_ps(cz + 2 * ldc, _mm512_extractf32x4_ps(out, 2));
    _mm_storeu_ps(cz + 3 * ldc, _mm512_extractf32x4_ps(out, 3));
  }
}

#pragma GCC diagnostic pop

void GemmBroadcast(bool a_trans, int64_t m, int64_t n, int64_t k, float alpha,
                   const float* a, int64_t lda, const float* b, int64_t ldb,
                   float beta, float* c, int64_t ldc) {
  const int64_t a_row_stride = a_trans ? 1 : lda;
  const int64_t a_p_stride = a_trans ? lda : 1;
  int64_t i = 0;
  if (n == 4) {
    // Packed tiles of 16 rows, then one of the remaining 4, 8 or 12; the
    // m % 4 rows left run BroadcastRows below.
    while (m - i >= 4) {
      WithRows<4>((m - i) / 4, [&](auto zmms) {
        constexpr int NZ = decltype(zmms)::value;
        float* ci = c + i * ldc;
        if (a_trans) {
          PackedTile4<true, NZ>(k, alpha, a + i, lda, b, ldb, beta, ci, ldc);
        } else {
          PackedTile4<false, NZ>(k, alpha, a + i * lda, lda, b, ldb, beta, ci,
                                 ldc);
        }
        i += 4 * NZ;
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

#pragma GCC diagnostic push
#pragma GCC diagnostic ignored "-Wmaybe-uninitialized"
#pragma GCC diagnostic ignored "-Wuninitialized"
// Transposes the 16 x 16 block r holds (row i in r[i]) in place: r[j] ends
// up holding column j.
inline void Transpose16x16(__m512 (&r)[16]) {
  __m512 u[16];
#pragma GCC unroll 16
  for (int i = 0; i < 16; i += 2) {
    u[i] = _mm512_unpacklo_ps(r[i], r[i + 1]);
    u[i + 1] = _mm512_unpackhi_ps(r[i], r[i + 1]);
  }
  // r[4q + c] then holds, in 128-bit lane L, rows 4q..4q+3 of column 4L + c.
#pragma GCC unroll 16
  for (int i = 0; i < 16; i += 4) {
    r[i] = _mm512_shuffle_ps(u[i], u[i + 2], _MM_SHUFFLE(1, 0, 1, 0));
    r[i + 1] = _mm512_shuffle_ps(u[i], u[i + 2], _MM_SHUFFLE(3, 2, 3, 2));
    r[i + 2] = _mm512_shuffle_ps(u[i + 1], u[i + 3], _MM_SHUFFLE(1, 0, 1, 0));
    r[i + 3] = _mm512_shuffle_ps(u[i + 1], u[i + 3], _MM_SHUFFLE(3, 2, 3, 2));
  }
  // Pair up the 128-bit lanes of row groups 0/1 and 2/3 (u[c]: lanes 0-1,
  // u[4 + c]: lanes 2-3), then interleave the pairs into whole columns.
#pragma GCC unroll 4
  for (int c = 0; c < 4; ++c) {
    u[c] = _mm512_shuffle_f32x4(r[c], r[4 + c], 0x44);
    u[4 + c] = _mm512_shuffle_f32x4(r[c], r[4 + c], 0xEE);
    u[8 + c] = _mm512_shuffle_f32x4(r[8 + c], r[12 + c], 0x44);
    u[12 + c] = _mm512_shuffle_f32x4(r[8 + c], r[12 + c], 0xEE);
  }
#pragma GCC unroll 4
  for (int c = 0; c < 4; ++c) {
    r[c] = _mm512_shuffle_f32x4(u[c], u[8 + c], 0x88);
    r[4 + c] = _mm512_shuffle_f32x4(u[c], u[8 + c], 0xDD);
    r[8 + c] = _mm512_shuffle_f32x4(u[4 + c], u[12 + c], 0x88);
    r[12 + c] = _mm512_shuffle_f32x4(u[4 + c], u[12 + c], 0xDD);
  }
}

// Full 16 x 16 blocks go through registers; the ragged right and bottom
// edges go to the scalar loop.
void Transpose(int64_t rows, int64_t cols, const float* src, int64_t lds,
               float* dst, int64_t ldd) {
  const int64_t rows16 = rows - rows % 16;
  const int64_t cols16 = cols - cols % 16;
  for (int64_t r = 0; r < rows16; r += 16) {
    for (int64_t j = 0; j < cols16; j += 16) {
      __m512 v[16];
#pragma GCC unroll 16
      for (int i = 0; i < 16; ++i) {
        v[i] = _mm512_loadu_ps(src + (r + i) * lds + j);
      }
      Transpose16x16(v);
#pragma GCC unroll 16
      for (int i = 0; i < 16; ++i) {
        _mm512_storeu_ps(dst + (j + i) * ldd + r, v[i]);
      }
    }
  }
  const TransposeFn edge = ScalarKernelTable().transpose;
  if (cols16 < cols) {
    edge(rows16, cols - cols16, src + cols16, lds, dst + cols16 * ldd, ldd);
  }
  if (rows16 < rows) {
    edge(rows - rows16, cols, src + rows16 * lds, lds, dst + rows16, ldd);
  }
}
#pragma GCC diagnostic pop

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
  static const GemmKernelTable table = {
      GemmNN, GemmTN,       GemmNT,
      GemmTT, Axpy,         PairwiseDots,
      PairwiseDotsBackward, Transpose};
  return table;
}

}  // namespace internal
}  // namespace ttrec
