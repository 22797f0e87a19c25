// AVX2+FMA kernel tier: the ops traits the shared kernels of
// tensor/gemm_simd.h run over. Compiled with -mavx2 -mfma (see
// src/tensor/CMakeLists.txt); only reached when CPUID reports those
// features, so no runtime guards here.
#include <immintrin.h>

#include <cmath>

#include "tensor/gemm_simd.h"

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

// Packed tile for n = 4, where a masked tail would fill half a YMM: 2 * NY
// rows of C, two rows per YMM, lane 4r + j carrying C[r][j]. Each lane runs
// the FMA chain over p and the epilogue a broadcast tile runs for that
// element, so a row's bits do not depend on whether it lands in a packed
// tile or is the odd row left to the broadcast tiles.
template <class Ops, int NY>
inline void PackedTile4(int64_t k, const Scale<Ops>& s, const float* a,
                        int64_t a_row_stride, int64_t a_p_stride,
                        const float* b, int64_t ldb, float* c, int64_t ldc) {
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
    const __m256 cv =
        s.beta_zero ? _mm256_setzero_ps() : _mm256_loadu2_m128(c0 + ldc, c0);
    _mm256_storeu2_m128(c0 + ldc, c0, Epilogue<Ops>(s, acc[y], cv));
  }
}

struct Avx2Ops {
  using Vec = __m256;
  using Mask = __m256i;
  static constexpr int kWidth = 8;
  // Pairwise dots: 4 rows x 2 vectors of accumulators plus operands fit the
  // 16 YMM registers; so do NT's 2 x 4 accumulators and 6 operands.
  static constexpr int kRows = 4;
  static constexpr int kNtRows = 2;
  static constexpr int kNtCols = 4;
  static Vec Zero() { return _mm256_setzero_ps(); }
  static Vec Set1(float x) { return _mm256_set1_ps(x); }
  static Vec Load(const float* p) { return _mm256_loadu_ps(p); }
  static void Store(float* p, Vec v) { _mm256_storeu_ps(p, v); }
  static Vec Mul(Vec a, Vec b) { return _mm256_mul_ps(a, b); }
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

  // Hsum256, then the k % 8 tail as FMA chains in k order. The FMA is
  // spelled out: left as `d += x * y`, GCC contracts it at -O2 but at -O3
  // vectorizes the tail into separately rounded products added in order.
  template <int MR, int NR>
  static void FinishDots(const Vec (&acc)[MR][NR], int64_t p, int64_t k,
                         const float* a, int64_t lda, const float* b,
                         int64_t ldb, float (&dot)[MR][NR]) {
    for (int r = 0; r < MR; ++r)
      for (int q = 0; q < NR; ++q) dot[r][q] = Hsum256(acc[r][q]);
    for (; p < k; ++p) {
      for (int r = 0; r < MR; ++r)
        for (int q = 0; q < NR; ++q)
          dot[r][q] = std::fma(a[r * lda + p], b[q * ldb + p], dot[r][q]);
    }
  }

  // Packed tiles of 8 rows, then one of the remaining 2, 4 or 6; an odd
  // last row is left to the broadcast tiles.
  static int64_t PackedRows4(bool a_trans, int64_t m, int64_t k,
                             const Scale<Avx2Ops>& s, const float* a,
                             int64_t lda, const float* b, int64_t ldb,
                             float* c, int64_t ldc) {
    const int64_t a_row_stride = a_trans ? 1 : lda;
    const int64_t a_p_stride = a_trans ? lda : 1;
    int64_t i = 0;
    while (m - i >= 2) {
      WithRows<4>((m - i) / 2, [&](auto ymms) {
        constexpr int NY = decltype(ymms)::value;
        PackedTile4<Avx2Ops, NY>(k, s, a + i * a_row_stride, a_row_stride,
                                 a_p_stride, b, ldb, c + i * ldc, ldc);
        i += 2 * NY;
      });
    }
    return i;
  }
};

}  // namespace

const GemmKernelTable& Avx2KernelTable() {
  return SimdKernelTable<Avx2Ops>();
}

}  // namespace internal
}  // namespace ttrec
