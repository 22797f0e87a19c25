// AVX-512 kernel tier: the ops traits the shared kernels of
// tensor/gemm_simd.h run over. Compiled with -mavx512f/bw/dq/vl (see
// src/tensor/CMakeLists.txt); only reached when CPUID + XCR0 report full
// ZMM state support.
#include <immintrin.h>

#include <algorithm>

#include "tensor/gemm_simd.h"

// The packed tiles and NT's reduce use intrinsics GCC 12 flags with a
// false-positive -W(maybe-)uninitialized: their lowering passes an undefined
// vector as the fully overwritten merge source of a mask builtin.
#pragma GCC diagnostic push
#pragma GCC diagnostic ignored "-Wmaybe-uninitialized"
#pragma GCC diagnostic ignored "-Wuninitialized"

namespace ttrec {
namespace internal {
namespace {

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
// tile or among the m % 4 rows left to the broadcast tiles.
template <class Ops, bool kATrans, int NZ>
inline void PackedTile4(int64_t k, const Scale<Ops>& s, const float* a,
                        int64_t lda, const float* b, int64_t ldb, float* c,
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
        s.beta_zero ? _mm512_setzero_ps() : LoadRows4(cz, ldc, 0xF);
    const __m512 out = Epilogue<Ops>(s, acc[z], cv);
    _mm_storeu_ps(cz, _mm512_castps512_ps128(out));
    _mm_storeu_ps(cz + ldc, _mm512_extractf32x4_ps(out, 1));
    _mm_storeu_ps(cz + 2 * ldc, _mm512_extractf32x4_ps(out, 2));
    _mm_storeu_ps(cz + 3 * ldc, _mm512_extractf32x4_ps(out, 3));
  }
}

struct Avx512Ops {
  using Vec = __m512;
  using Mask = __mmask16;
  static constexpr int kWidth = 16;
  // Pairwise dots: 8 rows x 2 vectors of accumulators plus operands fit the
  // 32 ZMM registers; NT runs 4 x 4 tiles.
  static constexpr int kRows = 8;
  static constexpr int kNtRows = 4;
  static constexpr int kNtCols = 4;
  static Vec Zero() { return _mm512_setzero_ps(); }
  static Vec Set1(float x) { return _mm512_set1_ps(x); }
  static Vec Load(const float* p) { return _mm512_loadu_ps(p); }
  static void Store(float* p, Vec v) { _mm512_storeu_ps(p, v); }
  static Vec Mul(Vec a, Vec b) { return _mm512_mul_ps(a, b); }
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

  // The k % 16 tail joins each chain through masked loads, then
  // _mm512_reduce_add_ps, which lowers to a fixed shuffle tree, so the
  // reduction order is a constant of the binary.
  template <int MR, int NR>
  static void FinishDots(Vec (&acc)[MR][NR], int64_t p, int64_t k,
                         const float* a, int64_t lda, const float* b,
                         int64_t ldb, float (&dot)[MR][NR]) {
    if (p < k) {
      const Mask mask = LaneMask(0, k - p);
      Vec bv[NR];
      for (int q = 0; q < NR; ++q) bv[q] = MaskLoad(b + q * ldb + p, mask);
      for (int r = 0; r < MR; ++r) {
        const Vec av = MaskLoad(a + r * lda + p, mask);
        for (int q = 0; q < NR; ++q) acc[r][q] = Fma(av, bv[q], acc[r][q]);
      }
    }
    for (int r = 0; r < MR; ++r)
      for (int q = 0; q < NR; ++q) dot[r][q] = _mm512_reduce_add_ps(acc[r][q]);
  }

  // Packed tiles of 16 rows, then one of the remaining 4, 8 or 12; the
  // m % 4 rows left run the broadcast tiles.
  static int64_t PackedRows4(bool a_trans, int64_t m, int64_t k,
                             const Scale<Avx512Ops>& s, const float* a,
                             int64_t lda, const float* b, int64_t ldb,
                             float* c, int64_t ldc) {
    int64_t i = 0;
    while (m - i >= 4) {
      WithRows<4>((m - i) / 4, [&](auto zmms) {
        constexpr int NZ = decltype(zmms)::value;
        float* ci = c + i * ldc;
        if (a_trans) {
          PackedTile4<Avx512Ops, true, NZ>(k, s, a + i, lda, b, ldb, ci, ldc);
        } else {
          PackedTile4<Avx512Ops, false, NZ>(k, s, a + i * lda, lda, b, ldb, ci,
                                            ldc);
        }
        i += 4 * NZ;
      });
    }
    return i;
  }
};

}  // namespace

const GemmKernelTable& Avx512KernelTable() {
  return SimdKernelTable<Avx512Ops>();
}

}  // namespace internal
}  // namespace ttrec

#pragma GCC diagnostic pop
