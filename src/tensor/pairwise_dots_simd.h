// The pairwise-dot (DLRM dot interaction) kernels of the vector tiers,
// written once over the tier's ops traits (the Ops of tensor/gemm_simd.h,
// which lists what it provides; these kernels use kWidth, kRows and the
// load, store, FMA and mask primitives) and put in the kernel table by
// gemm_simd.h. Everything here has internal linkage, so each tier's
// translation unit gets its own copy compiled for its ISA.
//
// Arithmetic contract: every output element is one FMA chain in a fixed
// order (the forward's dot <z_i, z_j> over k = 0..d-1; the backward's
// dz_i[k] over the partners j != i in ascending order, starting from 0 or,
// for i = 0, from the pass-through gradient). Lanes, row blocks and tails
// only decide which element a lane computes, never how, so a sample's
// result is independent of the batch, of its position in it, of operand
// alignment and of the vector width: AVX2 and AVX-512 agree bitwise.
//
// Both tiers compile with AVX2, so Transpose8x8 and TransposeRows serve
// both.
//
// The small loops over a block's rows and vectors carry `#pragma GCC
// unroll`: left rolled, GCC keeps the accumulator arrays in memory.
#pragma once

#include <immintrin.h>

#include <algorithm>
#include <cstdint>
#include <cstring>
#include <type_traits>
#include <vector>

#include "tensor/aligned.h"

namespace ttrec {
namespace internal {
namespace {

// Offset in a sample's output row of the pair (i, i + 1); pair (i, j) sits
// at PairBase(F, d, i) + (j - i - 1).
inline int64_t PairBase(int64_t F, int64_t d, int64_t i) {
  return d + i * (F - 1) - i * (i - 1) / 2;
}

// Transposes the 8 x 8 block r holds (row i in r[i]) in place, through
// unpack, shuffle and 128-bit permutes: r[j] ends up holding column j. The
// Transpose kernel of gemm_simd.h runs its full blocks through it too.
inline void Transpose8x8(__m256 (&r)[8]) {
  __m256 u[8];
#pragma GCC unroll 8
  for (int i = 0; i < 8; i += 2) {
    u[i] = _mm256_unpacklo_ps(r[i], r[i + 1]);
    u[i + 1] = _mm256_unpackhi_ps(r[i], r[i + 1]);
  }
  // r[4q + c] then holds, in 128-bit lane L, rows 4q..4q+3 of column 4L + c.
#pragma GCC unroll 8
  for (int i = 0; i < 8; i += 4) {
    r[i] = _mm256_shuffle_ps(u[i], u[i + 2], _MM_SHUFFLE(1, 0, 1, 0));
    r[i + 1] = _mm256_shuffle_ps(u[i], u[i + 2], _MM_SHUFFLE(3, 2, 3, 2));
    r[i + 2] = _mm256_shuffle_ps(u[i + 1], u[i + 3], _MM_SHUFFLE(1, 0, 1, 0));
    r[i + 3] = _mm256_shuffle_ps(u[i + 1], u[i + 3], _MM_SHUFFLE(3, 2, 3, 2));
  }
#pragma GCC unroll 8
  for (int i = 0; i < 4; ++i) {
    u[i] = _mm256_permute2f128_ps(r[i], r[i + 4], 0x20);
    u[i + 4] = _mm256_permute2f128_ps(r[i], r[i + 4], 0x31);
  }
#pragma GCC unroll 8
  for (int i = 0; i < 8; ++i) r[i] = u[i];
}

// Writes t[k * ts + r] = rows[r][off + k] for r < n and k < d, in 8 x 8
// blocks; a last group of fewer than 8 rows writes zeros for the rest of
// its 8 columns. (16 x 16 ZMM blocks measured no faster on AVX-512 at
// F = 27.)
inline void TransposeRows(const float* const* rows, int64_t off, int64_t n,
                          int64_t d, float* t, int64_t ts) {
  const __m256i lane = _mm256_setr_epi32(0, 1, 2, 3, 4, 5, 6, 7);
  for (int64_t g = 0; g < n; g += 8) {
    const int64_t gn = std::min<int64_t>(n - g, 8);
    for (int64_t kb = 0; kb < d; kb += 8) {
      const int64_t kn = std::min<int64_t>(d - kb, 8);
      const __m256i m =
          _mm256_cmpgt_epi32(_mm256_set1_epi32(static_cast<int>(kn)), lane);
      __m256 r[8];
#pragma GCC unroll 8
      for (int i = 0; i < 8; ++i) {
        r[i] = i < gn ? _mm256_maskload_ps(rows[g + i] + off + kb, m)
                      : _mm256_setzero_ps();
      }
      Transpose8x8(r);
      for (int64_t k = 0; k < kn; ++k) {
        _mm256_storeu_ps(t + (kb + k) * ts + g, r[k]);
      }
    }
  }
}

// Calls fn(std::integral_constant<int, r>) for r = min(rows, R), so a
// block's row count is a compile-time constant of the kernel it runs.
template <int R, class Fn>
inline void WithRows(int64_t rows, Fn&& fn) {
  if constexpr (R > 1) {
    if (rows < R) {
      WithRows<R - 1>(rows, fn);
      return;
    }
  }
  fn(std::integral_constant<int, R>{});
}

// Forward for rows i0 .. i0+R-1 of one sample (row f at features[f] + off)
// over NV vectors of columns from c0 + cc, c0 = i0 + 1: each lane is the
// FMA chain over k of one dot. t holds the sample's Z^T (d rows of stride
// ts, padded past F). All R rows run the same columns, sharing the loads of
// t; a row i > i0 discards its lanes j <= i, and every row its lanes j >= F.
template <class Ops, int R, int NV>
inline void PairDotsChunk(int64_t F, int64_t d, const float* const* features,
                          int64_t off, const float* t, int64_t ts, int64_t i0,
                          int64_t cc, float* ob) {
  using Vec = typename Ops::Vec;
  constexpr int W = Ops::kWidth;
  const int64_t ncols = F - i0 - 1;
  Vec acc[R][NV];
#pragma GCC unroll 16
  for (int r = 0; r < R; ++r)
#pragma GCC unroll 16
    for (int v = 0; v < NV; ++v) acc[r][v] = Ops::Zero();
  const float* tc = t + i0 + 1 + cc;
  for (int64_t k = 0; k < d; ++k) {
    Vec tv[NV];
#pragma GCC unroll 16
    for (int v = 0; v < NV; ++v) tv[v] = Ops::Load(tc + k * ts + v * W);
#pragma GCC unroll 16
    for (int r = 0; r < R; ++r) {
      const Vec zr = Ops::Set1(features[i0 + r][off + k]);
#pragma GCC unroll 16
      for (int v = 0; v < NV; ++v) acc[r][v] = Ops::Fma(zr, tv[v], acc[r][v]);
    }
  }
  // Lane l of vector v holds column i0 + 1 + cc + v*W + l; row i0 + r
  // keeps the columns past its diagonal and inside F.
#pragma GCC unroll 16
  for (int r = 0; r < R; ++r) {
    const int64_t row_at = PairBase(F, d, i0 + r) - r + cc;
#pragma GCC unroll 16
    for (int v = 0; v < NV; ++v) {
      const int64_t lo = std::max<int64_t>(r - cc - v * W, 0);
      const int64_t hi = std::min<int64_t>(ncols - cc - v * W, W);
      if (lo >= hi) continue;
      Ops::MaskStore(ob + row_at + v * W, Ops::LaneMask(lo, hi), acc[r][v]);
    }
  }
}

template <class Ops>
void PairwiseDotsSimd(int64_t F, int64_t d, const float* const* features,
                      int64_t batch, float* out) {
  constexpr int W = Ops::kWidth;
  const int64_t od = d + F * (F - 1) / 2;
  // Z^T per sample, in a per-thread grow-only buffer: the kernel stays
  // const-safe for concurrent callers and allocates only when a thread
  // first sees a larger shape. TransposeRows fills whole 8-column groups
  // (zeros past F); the further W columns, zeroed here, cover a last
  // chunk's full-width loads.
  const int64_t tw = (F + 7) / 8 * 8;
  const int64_t ts = tw + W;
  thread_local std::vector<float> scratch;
  float* t = Grow(scratch, d * ts);
  for (int64_t k = 0; k < d; ++k) {
    std::fill(t + k * ts + tw, t + (k + 1) * ts, 0.0f);
  }

  for (int64_t b = 0; b < batch; ++b) {
    const int64_t off = b * d;
    float* ob = out + b * od;
    std::memcpy(ob, features[0] + off, static_cast<size_t>(d) * sizeof(float));
    TransposeRows(features, off, F, d, t, ts);
    for (int64_t i0 = 0; i0 < F - 1; i0 += Ops::kRows) {
      WithRows<Ops::kRows>(F - 1 - i0, [&](auto rows_c) {
        constexpr int R = decltype(rows_c)::value;
        const int64_t ncols = F - i0 - 1;
        for (int64_t cc = 0; cc < ncols; cc += 2 * W) {
          if (ncols - cc > W) {
            PairDotsChunk<Ops, R, 2>(F, d, features, off, t, ts, i0, cc, ob);
          } else {
            PairDotsChunk<Ops, R, 1>(F, d, features, off, t, ts, i0, cc, ob);
          }
        }
      });
    }
  }
}

// Backward for rows m0 .. m0+R-1 of one sample's dZ (row f at
// grads[f] + off, z_f at features[f] + off) over NV vectors of the dim from
// dc: dz_m = sum of S[m][j] z_j over j ascending, j != m, where
// S[m][j] = g(min(m, j), max(m, j)). The R rows share each z_j load.
template <class Ops, int R, int NV>
inline void PairDotsBackwardChunk(int64_t F, int64_t d,
                                  const float* const* features, int64_t off,
                                  const float* gb, int64_t m0, int64_t dc,
                                  float* const* grads) {
  using Vec = typename Ops::Vec;
  constexpr int W = Ops::kWidth;
  // Only the last vector of the dim's last chunk can be partial.
  const int64_t last = d - dc - (NV - 1) * W;
  const bool full = last >= W;
  const typename Ops::Mask last_mask =
      Ops::LaneMask(0, std::min<int64_t>(last, W));
  auto load = [&](const float* p, Vec* zv) {
#pragma GCC unroll 16
    for (int v = 0; v + 1 < NV; ++v) zv[v] = Ops::Load(p + v * W);
    zv[NV - 1] = full ? Ops::Load(p + (NV - 1) * W)
                      : Ops::MaskLoad(p + (NV - 1) * W, last_mask);
  };
  Vec acc[R][NV];
#pragma GCC unroll 16
  for (int r = 0; r < R; ++r)
#pragma GCC unroll 16
    for (int v = 0; v < NV; ++v) acc[r][v] = Ops::Zero();
  if (m0 == 0) load(gb + dc, acc[0]);  // dz_0 starts from the pass-through
  auto step = [&](int r, float s, const Vec* zv) {
    const Vec sv = Ops::Set1(s);
#pragma GCC unroll 16
    for (int v = 0; v < NV; ++v) acc[r][v] = Ops::Fma(sv, zv[v], acc[r][v]);
  };
  // Row m's own pairs g(m, j), j > m, run along grow[r][j].
  const float* grow[R];
#pragma GCC unroll 16
  for (int r = 0; r < R; ++r) {
    grow[r] = gb + PairBase(F, d, m0 + r) - (m0 + r) - 1;
  }
  Vec zv[NV];
  // Partners below the block: g(j, m0 .. m0+R-1) are consecutive.
  const float* gcol = gb + d - 1 + m0;
  for (int64_t j = 0; j < m0; ++j) {
    load(features[j] + off + dc, zv);
#pragma GCC unroll 16
    for (int r = 0; r < R; ++r) step(r, gcol[r], zv);
    gcol += F - 2 - j;
  }
  // Partners inside the block: each row skips its own diagonal.
#pragma GCC unroll 16
  for (int jj = 0; jj < R; ++jj) {
    load(features[m0 + jj] + off + dc, zv);
#pragma GCC unroll 16
    for (int r = 0; r < R; ++r) {
      if (jj < r) step(r, grow[jj][m0 + r], zv);
      if (jj > r) step(r, grow[r][m0 + jj], zv);
    }
  }
  // Partners above the block.
  for (int64_t j = m0 + R; j < F; ++j) {
    load(features[j] + off + dc, zv);
#pragma GCC unroll 16
    for (int r = 0; r < R; ++r) step(r, grow[r][j], zv);
  }
#pragma GCC unroll 16
  for (int r = 0; r < R; ++r) {
    float* out = grads[m0 + r] + off + dc;
#pragma GCC unroll 16
    for (int v = 0; v + 1 < NV; ++v) Ops::Store(out + v * W, acc[r][v]);
    if (full) {
      Ops::Store(out + (NV - 1) * W, acc[r][NV - 1]);
    } else {
      Ops::MaskStore(out + (NV - 1) * W, last_mask, acc[r][NV - 1]);
    }
  }
}

template <class Ops>
void PairwiseDotsBackwardSimd(int64_t F, int64_t d,
                              const float* const* features,
                              const float* grad_out, int64_t batch,
                              float* const* grads) {
  constexpr int W = Ops::kWidth;
  const int64_t od = d + F * (F - 1) / 2;
  for (int64_t b = 0; b < batch; ++b) {
    const int64_t off = b * d;
    const float* gb = grad_out + b * od;
    for (int64_t m0 = 0; m0 < F; m0 += Ops::kRows) {
      WithRows<Ops::kRows>(F - m0, [&](auto rows_c) {
        constexpr int R = decltype(rows_c)::value;
        for (int64_t dc = 0; dc < d; dc += 2 * W) {
          if (d - dc > W) {
            PairDotsBackwardChunk<Ops, R, 2>(F, d, features, off, gb, m0, dc,
                                               grads);
          } else {
            PairDotsBackwardChunk<Ops, R, 1>(F, d, features, off, gb, m0, dc,
                                               grads);
          }
        }
      });
    }
  }
}

}  // namespace
}  // namespace internal
}  // namespace ttrec
