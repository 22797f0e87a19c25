// The vector tiers' kernel table, written once over a per-tier ops traits
// type and instantiated by gemm_avx2.cc and gemm_avx512.cc with their own
// ISA flags: NN and TN (broadcast tiles), NT (dot tiles), TT (forwarded to
// the scalar tier), Axpy, Transpose, and the pairwise-dot pair of
// tensor/pairwise_dots_simd.h. Everything here has internal linkage, so
// each tier's translation unit gets its own copy compiled for its ISA.
//
// Kernel shapes target TT-Rec's GEMM chain: A is one reconstructed-row
// stage (m = 1..8 typical, up to a column-factor product), B is a core
// slice with n = n_k * R_k (tens to a few hundred columns), k = R_{k-1}
// (8..64). NN/TN therefore block 4 rows x (2W or W) columns, W the floats
// per vector, with the full k loop in the accumulators and no cache
// blocking; the last n % W columns run one masked vector. NT (the MLP
// forwards) runs kNtRows x kNtCols tiles of dot chains.
//
// Ops provides:
//   - Vec, Mask, kWidth (W), kRows (pairwise-dot rows per block), kNtRows
//     and kNtCols (the NT tile), all sized to the tier's register file;
//   - Zero(), Set1(x), Load(p), Store(p, v), Mul(a, b), Fma(a, b, c),
//     LaneMask(lo, hi) (lanes l with lo <= l < hi), MaskLoad(p, m) (zeros
//     in inactive lanes, which are never read) and MaskStore(p, m, v)
//     (inactive lanes are never written);
//   - FinishDots<MR, NR>(acc, p, k, a, lda, b, ldb, dot): the NT dots from
//     accumulators over the full vectors of k below p, plus the k-tail;
//   - PackedRows4(a_trans, m, k, scale, a, lda, b, ldb, c, ldc): the
//     n = 4 products, several rows per vector, returning how many leading
//     rows it wrote (the rest run the broadcast tiles).
//
// Determinism: unaligned loads only, every tile and tail boundary is a
// pure function of (m, n, k), and every reduction has a fixed order. An
// NN/TN element is one FMA chain over p followed by the one Epilogue in
// every tile, tail and packed tile, so its bits depend on neither m, its
// row block nor W: AVX2 and AVX-512 agree bitwise on NN, TN, Axpy,
// Transpose and the pairwise dots. NT's element is a W-wide chain plus a
// tier-specific reduction, so its bits depend on W.
//
// The small loops over a tile's rows and vectors carry `#pragma GCC
// unroll`: left rolled, GCC kept the accumulators in memory (at -O2 inside
// the k loop, at -O3 around the epilogue).
#pragma once

#include <immintrin.h>

#include <cmath>
#include <cstdint>

#include "tensor/gemm_kernels.h"
#include "tensor/pairwise_dots_simd.h"

namespace ttrec {
namespace internal {
namespace {

// The one epilogue, C = alpha * acc + beta * C: alpha * acc is rounded,
// then beta * C joins it in one FMA. Spelled out in every tile and tail:
// written as mul-then-add, GCC contracted it into an FMA in some tile
// instantiations and not in others (and differently at -O2 and -O3), so
// with alpha != 1 a row's bits depended on the row block it fell into.
inline float Epilogue(float alpha, float acc, float beta, float c) {
  const float out = alpha * acc;
  return beta == 0.0f ? out : std::fma(beta, c, out);
}
// alpha and beta for the vector form, broadcast once per product. Passing
// the scalars down instead kept them live beside their broadcasts across
// the whole NN/TN loop nest, and AVX2's 4 x 2W tile spilled a B vector per
// k step.
template <class Ops>
struct Scale {
  Scale(float a, float b)
      : alpha(Ops::Set1(a)), beta(Ops::Set1(b)), beta_zero(b == 0.0f) {}
  typename Ops::Vec alpha, beta;
  bool beta_zero;
};
template <class Ops>
inline typename Ops::Vec Epilogue(const Scale<Ops>& s, typename Ops::Vec acc,
                                  typename Ops::Vec c) {
  const typename Ops::Vec out = Ops::Mul(s.alpha, acc);
  return s.beta_zero ? out : Ops::Fma(s.beta, c, out);
}

// One MR x (NV * W) tile of the broadcast (NN/TN) formulation. Row r of
// op(A) has element p at a[r * a_row_stride + p * a_p_stride]; NN passes
// (lda, 1), TN passes (1, lda), so both transposes share this kernel.
template <class Ops, int MR, int NV>
inline void BroadcastTile(int64_t k, const Scale<Ops>& s, const float* a,
                          int64_t a_row_stride, int64_t a_p_stride,
                          const float* b, int64_t ldb, float* c, int64_t ldc) {
  using Vec = typename Ops::Vec;
  constexpr int W = Ops::kWidth;
  Vec acc[MR][NV];
#pragma GCC unroll 4
  for (int r = 0; r < MR; ++r)
#pragma GCC unroll 2
    for (int v = 0; v < NV; ++v) acc[r][v] = Ops::Zero();
  for (int64_t p = 0; p < k; ++p) {
    const float* bp = b + p * ldb;
    Vec bv[NV];
#pragma GCC unroll 2
    for (int v = 0; v < NV; ++v) bv[v] = Ops::Load(bp + W * v);
#pragma GCC unroll 4
    for (int r = 0; r < MR; ++r) {
      const Vec av = Ops::Set1(a[r * a_row_stride + p * a_p_stride]);
#pragma GCC unroll 2
      for (int v = 0; v < NV; ++v) acc[r][v] = Ops::Fma(av, bv[v], acc[r][v]);
    }
  }
#pragma GCC unroll 4
  for (int r = 0; r < MR; ++r) {
    float* cr = c + r * ldc;
#pragma GCC unroll 2
    for (int v = 0; v < NV; ++v) {
      const Vec cv = s.beta_zero ? Ops::Zero() : Ops::Load(cr + W * v);
      Ops::Store(cr + W * v, Epilogue<Ops>(s, acc[r][v], cv));
    }
  }
}

// The last 1 .. W-1 columns as one masked tile: each active lane runs the
// chain and epilogue of a full tile's lane.
template <class Ops, int MR>
inline void BroadcastTail(int64_t n_rem, int64_t k, const Scale<Ops>& s,
                          const float* a, int64_t a_row_stride,
                          int64_t a_p_stride, const float* b, int64_t ldb,
                          float* c, int64_t ldc) {
  using Vec = typename Ops::Vec;
  const typename Ops::Mask mask = Ops::LaneMask(0, n_rem);
  Vec acc[MR];
#pragma GCC unroll 4
  for (int r = 0; r < MR; ++r) acc[r] = Ops::Zero();
  for (int64_t p = 0; p < k; ++p) {
    const Vec bv = Ops::MaskLoad(b + p * ldb, mask);
#pragma GCC unroll 4
    for (int r = 0; r < MR; ++r) {
      const Vec av = Ops::Set1(a[r * a_row_stride + p * a_p_stride]);
      acc[r] = Ops::Fma(av, bv, acc[r]);
    }
  }
#pragma GCC unroll 4
  for (int r = 0; r < MR; ++r) {
    float* cr = c + r * ldc;
    const Vec cv = s.beta_zero ? Ops::Zero() : Ops::MaskLoad(cr, mask);
    Ops::MaskStore(cr, mask, Epilogue<Ops>(s, acc[r], cv));
  }
}

// Full column sweep for a fixed block of MR rows: 2W-wide panels, then a
// W-wide panel, then the masked tail. Panel boundaries depend only on n.
template <class Ops, int MR>
inline void BroadcastRows(int64_t n, int64_t k, const Scale<Ops>& s,
                          const float* a, int64_t a_row_stride,
                          int64_t a_p_stride, const float* b, int64_t ldb,
                          float* c, int64_t ldc) {
  constexpr int W = Ops::kWidth;
  int64_t j = 0;
  for (; j + 2 * W <= n; j += 2 * W) {
    BroadcastTile<Ops, MR, 2>(k, s, a, a_row_stride, a_p_stride, b + j, ldb,
                              c + j, ldc);
  }
  if (j + W <= n) {
    BroadcastTile<Ops, MR, 1>(k, s, a, a_row_stride, a_p_stride, b + j, ldb,
                              c + j, ldc);
    j += W;
  }
  if (j < n) {
    BroadcastTail<Ops, MR>(n - j, k, s, a, a_row_stride, a_p_stride,
                           b + j, ldb, c + j, ldc);
  }
}

// NN (a_trans false) and TN: n = 4 first packs rows into vectors, then
// blocks of 4 rows and a remainder of 3, 2 or 1.
template <class Ops>
void GemmBroadcast(bool a_trans, int64_t m, int64_t n, int64_t k, float alpha,
                   const float* a, int64_t lda, const float* b, int64_t ldb,
                   float beta, float* c, int64_t ldc) {
  const int64_t a_row_stride = a_trans ? 1 : lda;
  const int64_t a_p_stride = a_trans ? lda : 1;
  const Scale<Ops> s(alpha, beta);
  int64_t i = 0;
  if (n == 4) {
    i = Ops::PackedRows4(a_trans, m, k, s, a, lda, b, ldb, c, ldc);
  }
  for (; i < m; i += 4) {
    WithRows<4>(m - i, [&](auto rows) {
      BroadcastRows<Ops, decltype(rows)::value>(n, k, s, a + i * a_row_stride,
                                                a_row_stride, a_p_stride, b,
                                                ldb, c + i * ldc, ldc);
    });
  }
}

template <class Ops>
void GemmNN(int64_t m, int64_t n, int64_t k, float alpha, const float* a,
            int64_t lda, const float* b, int64_t ldb, float beta, float* c,
            int64_t ldc) {
  GemmBroadcast<Ops>(false, m, n, k, alpha, a, lda, b, ldb, beta, c, ldc);
}

template <class Ops>
void GemmTN(int64_t m, int64_t n, int64_t k, float alpha, const float* a,
            int64_t lda, const float* b, int64_t ldb, float beta, float* c,
            int64_t ldc) {
  GemmBroadcast<Ops>(true, m, n, k, alpha, a, lda, b, ldb, beta, c, ldc);
}

// Dot formulation for B^T: both operand rows are contiguous in k. Each C
// element runs one W-wide FMA chain over the full vectors of k, then the
// tier's FinishDots (k-tail and horizontal sum), then the epilogue; an
// MR x NR tile interleaves that many independent chains (the element
// sequence is unchanged), so the FMA latency is hidden and each loaded A
// and B vector feeds several chains.
template <class Ops, int MR, int NR>
inline void DotTile(int64_t k, float alpha, const float* a, int64_t lda,
                    const float* b, int64_t ldb, float beta, float* c,
                    int64_t ldc) {
  using Vec = typename Ops::Vec;
  constexpr int W = Ops::kWidth;
  Vec acc[MR][NR];
  for (int r = 0; r < MR; ++r)
    for (int q = 0; q < NR; ++q) acc[r][q] = Ops::Zero();
  int64_t p = 0;
  for (; p + W <= k; p += W) {
    Vec bv[NR];
    for (int q = 0; q < NR; ++q) bv[q] = Ops::Load(b + q * ldb + p);
    for (int r = 0; r < MR; ++r) {
      const Vec av = Ops::Load(a + r * lda + p);
      for (int q = 0; q < NR; ++q) acc[r][q] = Ops::Fma(av, bv[q], acc[r][q]);
    }
  }
  float dot[MR][NR];
  Ops::template FinishDots<MR, NR>(acc, p, k, a, lda, b, ldb, dot);
  for (int r = 0; r < MR; ++r) {
    float* cr = c + r * ldc;
    for (int q = 0; q < NR; ++q) {
      cr[q] = Epilogue(alpha, dot[r][q], beta, beta == 0.0f ? 0.0f : cr[q]);
    }
  }
}

template <class Ops, int MR>
inline void DotRows(int64_t n, int64_t k, float alpha, const float* a,
                    int64_t lda, const float* b, int64_t ldb, float beta,
                    float* c, int64_t ldc) {
  int64_t j = 0;
  for (; j + Ops::kNtCols <= n; j += Ops::kNtCols) {
    DotTile<Ops, MR, Ops::kNtCols>(k, alpha, a, lda, b + j * ldb, ldb, beta,
                                   c + j, ldc);
  }
  for (; j < n; ++j) {
    DotTile<Ops, MR, 1>(k, alpha, a, lda, b + j * ldb, ldb, beta, c + j, ldc);
  }
}

template <class Ops>
void GemmNT(int64_t m, int64_t n, int64_t k, float alpha, const float* a,
            int64_t lda, const float* b, int64_t ldb, float beta, float* c,
            int64_t ldc) {
  for (int64_t i = 0; i < m; i += Ops::kNtRows) {
    WithRows<Ops::kNtRows>(m - i, [&](auto rows) {
      DotRows<Ops, decltype(rows)::value>(n, k, alpha, a + i * lda, lda, b,
                                          ldb, beta, c + i * ldc, ldc);
    });
  }
}

// A^T * B^T strides both operands; not on any hot path, so fall through to
// the portable loops (still deterministic: it is a fixed kernel).
inline void GemmTT(int64_t m, int64_t n, int64_t k, float alpha,
                   const float* a, int64_t lda, const float* b, int64_t ldb,
                   float beta, float* c, int64_t ldc) {
  ScalarKernelTable().tt(m, n, k, alpha, a, lda, b, ldb, beta, c, ldc);
}

template <class Ops>
void Axpy(int64_t n, float alpha, const float* x, float* y) {
  constexpr int W = Ops::kWidth;
  const typename Ops::Vec va = Ops::Set1(alpha);
  int64_t i = 0;
  for (; i + W <= n; i += W) {
    Ops::Store(y + i, Ops::Fma(va, Ops::Load(x + i), Ops::Load(y + i)));
  }
  if (i < n) {
    const typename Ops::Mask mask = Ops::LaneMask(0, n - i);
    Ops::MaskStore(y + i, mask,
                   Ops::Fma(va, Ops::MaskLoad(x + i, mask),
                            Ops::MaskLoad(y + i, mask)));
  }
}

// Full 8 x 8 blocks go through YMM registers (Transpose8x8) in both tiers:
// AVX-512's former 16 x 16 ZMM blocks were 3-12% faster at the TT
// backward's 32 x 64 slice, too little to keep a second kernel (DESIGN.md
// §4.11). The ragged right and bottom edges go to the scalar loop.
inline void Transpose(int64_t rows, int64_t cols, const float* src,
                      int64_t lds, float* dst, int64_t ldd) {
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

template <class Ops>
const GemmKernelTable& SimdKernelTable() {
  static const GemmKernelTable table = {
      GemmNN<Ops>,           GemmTN<Ops>, GemmNT<Ops>, GemmTT, Axpy<Ops>,
      PairwiseDotsSimd<Ops>, PairwiseDotsBackwardSimd<Ops>, Transpose};
  return table;
}

}  // namespace
}  // namespace internal
}  // namespace ttrec
