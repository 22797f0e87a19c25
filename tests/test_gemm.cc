// GEMM correctness against the reference oracle, across a
// parameterized sweep of shapes and transpose combinations, plus the
// per-SIMD-tier conformance sweeps: every dispatch tier this machine can
// run (scalar always; AVX2/AVX-512 when detected) is forced in turn and
// checked against GemmRef over exhaustive ragged-tail shapes. The scalar
// tier differs bitwise from the vector tiers (they apply alpha/beta after
// the k loop), so that agreement is gated by tolerance against the oracle;
// the two vector tiers run one shared source and must agree bit for bit
// wherever their arithmetic does not depend on the vector width.
#include <gtest/gtest.h>

#if defined(TTREC_HAVE_AVX2) || defined(TTREC_HAVE_AVX512)
#include <immintrin.h>
#endif

#include <cmath>
#include <cstdlib>
#include <cstring>
#include <string>
#include <tuple>
#include <vector>

#include "simd_tiers.h"
#include "tensor/check.h"
#include "tensor/cpu_features.h"
#include "tensor/gemm.h"
#include "tensor/random.h"

namespace ttrec {
namespace {

std::vector<float> RandomVec(Rng& rng, int64_t n) {
  std::vector<float> v(static_cast<size_t>(n));
  for (float& x : v) x = static_cast<float>(rng.Uniform(-1.0, 1.0));
  return v;
}

using GemmCase = std::tuple<int, int, int, int, int, float, float>;
// (m, n, k, ta, tb, alpha, beta)

class GemmSweep : public ::testing::TestWithParam<GemmCase> {};

TEST_P(GemmSweep, MatchesReference) {
  const auto [m, n, k, tai, tbi, alpha, beta] = GetParam();
  const Trans ta = tai ? Trans::kYes : Trans::kNo;
  const Trans tb = tbi ? Trans::kYes : Trans::kNo;
  Rng rng(1234 + m * 7 + n * 11 + k * 13 + tai + 2 * tbi);
  const int64_t a_elems = static_cast<int64_t>(m) * k;
  const int64_t b_elems = static_cast<int64_t>(k) * n;
  std::vector<float> a = RandomVec(rng, a_elems);
  std::vector<float> b = RandomVec(rng, b_elems);
  std::vector<float> c = RandomVec(rng, static_cast<int64_t>(m) * n);
  std::vector<float> c_ref = c;

  const int64_t lda = (ta == Trans::kNo) ? k : m;
  const int64_t ldb = (tb == Trans::kNo) ? n : k;
  Gemm(ta, tb, m, n, k, alpha, a.data(), lda, b.data(), ldb, beta, c.data(),
       n);
  GemmRef(ta, tb, m, n, k, alpha, a.data(), lda, b.data(), ldb, beta,
          c_ref.data(), n);
  for (size_t i = 0; i < c.size(); ++i) {
    EXPECT_NEAR(c[i], c_ref[i], 1e-4f * (std::abs(c_ref[i]) + 1.0f))
        << "mismatch at " << i << " for m=" << m << " n=" << n << " k=" << k
        << " ta=" << tai << " tb=" << tbi;
  }
}

INSTANTIATE_TEST_SUITE_P(
    Shapes, GemmSweep,
    ::testing::Combine(::testing::Values(1, 2, 7, 16, 33),   // m
                       ::testing::Values(1, 3, 8, 32),       // n
                       ::testing::Values(1, 4, 17, 64),      // k
                       ::testing::Values(0, 1),              // ta
                       ::testing::Values(0, 1),              // tb
                       ::testing::Values(1.0f, 0.5f),        // alpha
                       ::testing::Values(0.0f, 1.0f)));      // beta

TEST(Gemm, DegenerateKActsAsScale) {
  std::vector<float> c = {1.0f, 2.0f, 3.0f, 4.0f};
  Gemm(Trans::kNo, Trans::kNo, 2, 2, 0, 1.0f, nullptr, 1, nullptr, 2, 0.5f,
       c.data(), 2);
  EXPECT_FLOAT_EQ(c[0], 0.5f);
  EXPECT_FLOAT_EQ(c[3], 2.0f);
}

TEST(Gemm, RejectsBadLeadingDims) {
  std::vector<float> a(6), b(6), c(4);
  EXPECT_THROW(Gemm(Trans::kNo, Trans::kNo, 2, 2, 3, 1.0f, a.data(), 2,
                    b.data(), 2, 0.0f, c.data(), 2),
               ShapeError);
}

TEST(Gemv, MatchesGemm) {
  Rng rng(99);
  const int64_t m = 5, n = 7;
  std::vector<float> a = RandomVec(rng, m * n);
  std::vector<float> x = RandomVec(rng, n);
  std::vector<float> y(static_cast<size_t>(m), 0.0f);
  std::vector<float> y_ref(static_cast<size_t>(m), 0.0f);
  Gemv(Trans::kNo, m, n, 1.0f, a.data(), n, x.data(), 0.0f, y.data());
  GemmRef(Trans::kNo, Trans::kNo, m, 1, n, 1.0f, a.data(), n, x.data(), 1,
          0.0f, y_ref.data(), 1);
  for (int64_t i = 0; i < m; ++i) EXPECT_NEAR(y[i], y_ref[i], 1e-5f);

  std::vector<float> yt(static_cast<size_t>(n), 0.0f);
  std::vector<float> yt_ref(static_cast<size_t>(n), 0.0f);
  std::vector<float> xm = RandomVec(rng, m);
  Gemv(Trans::kYes, m, n, 1.0f, a.data(), n, xm.data(), 0.0f, yt.data());
  GemmRef(Trans::kYes, Trans::kNo, n, 1, m, 1.0f, a.data(), n, xm.data(), 1,
          0.0f, yt_ref.data(), 1);
  for (int64_t i = 0; i < n; ++i) EXPECT_NEAR(yt[i], yt_ref[i], 1e-5f);
}

// Exhaustive small-shape conformance of the dispatched kernels against
// GemmRef: every m,n,k in 1..17 hits every panel width and ragged tail of
// every tier (2W- and W-wide panels and a masked tail, W = 8 for AVX2 and
// 16 for AVX-512; row blocks of 4 plus 3/2/1 remainders), crossed with all
// transpose combinations and the alpha/beta special cases the kernels branch on
// (alpha 0 short-circuits in the front-end; beta 0 skips the C load).
TEST(GemmTierConformance, ExhaustiveSmallShapesMatchReference) {
  constexpr int kMaxDim = 17;
  const float kAlphas[] = {0.0f, 1.0f, -1.0f, 0.5f};
  const float kBetas[] = {0.0f, 1.0f, -1.0f, 0.5f};
  Rng rng(4242);
  // One shared random pool, large enough for any operand below.
  const std::vector<float> pool = RandomVec(rng, 2 * kMaxDim * kMaxDim);
  std::vector<float> c_base = RandomVec(rng, kMaxDim * kMaxDim);

  TierGuard guard;
  for (SimdTier tier : TestableTiers()) {
    SetSimdTier(tier);
    int64_t cases = 0, bad = 0;
    for (int m = 1; m <= kMaxDim; ++m) {
      for (int n = 1; n <= kMaxDim; ++n) {
        for (int k = 1; k <= kMaxDim; ++k) {
          for (int tai = 0; tai < 2; ++tai) {
            for (int tbi = 0; tbi < 2; ++tbi) {
              const Trans ta = tai ? Trans::kYes : Trans::kNo;
              const Trans tb = tbi ? Trans::kYes : Trans::kNo;
              const int64_t lda = tai ? m : k;
              const int64_t ldb = tbi ? k : n;
              for (float alpha : kAlphas) {
                for (float beta : kBetas) {
                  std::vector<float> c(c_base.begin(),
                                       c_base.begin() + m * n);
                  std::vector<float> c_ref = c;
                  Gemm(ta, tb, m, n, k, alpha, pool.data(), lda,
                       pool.data() + kMaxDim * kMaxDim, ldb, beta, c.data(),
                       n);
                  GemmRef(ta, tb, m, n, k, alpha, pool.data(), lda,
                          pool.data() + kMaxDim * kMaxDim, ldb, beta,
                          c_ref.data(), n);
                  ++cases;
                  for (int i = 0; i < m * n; ++i) {
                    const float tol =
                        1e-4f * (std::abs(c_ref[static_cast<size_t>(i)]) +
                                 1.0f);
                    if (std::abs(c[static_cast<size_t>(i)] -
                                 c_ref[static_cast<size_t>(i)]) > tol) {
                      if (bad < 5) {
                        ADD_FAILURE()
                            << "tier=" << SimdTierName(tier) << " m=" << m
                            << " n=" << n << " k=" << k << " ta=" << tai
                            << " tb=" << tbi << " alpha=" << alpha
                            << " beta=" << beta << " elem " << i << ": got "
                            << c[static_cast<size_t>(i)] << " want "
                            << c_ref[static_cast<size_t>(i)];
                      }
                      ++bad;
                    }
                  }
                }
              }
            }
          }
        }
      }
    }
    EXPECT_EQ(bad, 0) << "tier=" << SimdTierName(tier) << ": " << bad
                      << " mismatched elements across " << cases << " cases";
  }
}

// The same kernel must produce bitwise-identical output regardless of
// operand alignment: tails are chosen by shape, never by pointer value, so
// shifting every operand off 64-byte alignment cannot change a single bit.
TEST(GemmTierConformance, AlignmentInvariantBitwise) {
  const int64_t m = 7, n = 13, k = 9;
  Rng rng(77);
  const std::vector<float> a = RandomVec(rng, m * k + 1);
  const std::vector<float> b = RandomVec(rng, k * n + 1);
  const std::vector<float> c0 = RandomVec(rng, m * n + 1);

  TierGuard guard;
  for (SimdTier tier : TestableTiers()) {
    SetSimdTier(tier);
    std::vector<float> c_aligned(c0.begin(), c0.begin() + m * n);
    Gemm(Trans::kNo, Trans::kNo, m, n, k, 1.0f, a.data(), k, b.data(), n,
         0.5f, c_aligned.data(), n);

    // Shift every operand by one float (4 bytes) — guaranteed misaligned
    // for 32/64-byte vectors.
    std::vector<float> a_off(a.begin(), a.end());
    std::vector<float> b_off(b.begin(), b.end());
    std::vector<float> c_off(c0.begin(), c0.end());
    std::copy(a.begin(), a.end() - 1, a_off.begin() + 1);
    std::copy(b.begin(), b.end() - 1, b_off.begin() + 1);
    std::copy(c0.begin(), c0.end() - 1, c_off.begin() + 1);
    Gemm(Trans::kNo, Trans::kNo, m, n, k, 1.0f, a_off.data() + 1, k,
         b_off.data() + 1, n, 0.5f, c_off.data() + 1, n);

    EXPECT_EQ(std::memcmp(c_aligned.data(), c_off.data() + 1,
                          static_cast<size_t>(m * n) * sizeof(float)),
              0)
        << "tier=" << SimdTierName(tier)
        << ": result depends on operand alignment";
  }
}

// NT is register-blocked in the vector tiers, but a C row is still a pure
// function of its A row: the rows of an m = 13 product (full row blocks
// plus a remainder, in every tier) equal one-row products bit for bit.
// alpha != 1 with beta != 0 pins the one explicit epilogue: written as
// alpha * d + beta * C, GCC contracted it differently per tile shape at -O3.
TEST(GemmTierConformance, NtRowsIndependentOfM) {
  TierGuard guard;
  for (SimdTier tier : TestableTiers()) {
    SetSimdTier(tier);
    for (auto [n, k] : {std::pair<int64_t, int64_t>{64, 367},
                        {5, 19},
                        {7, 13},
                        {33, 37}}) {
      for (float alpha : {1.0f, 0.75f}) {
        for (float beta : {0.0f, 0.5f, 1.0f}) {
          const int64_t m = 13;
          Rng rng(91);
          const std::vector<float> a = RandomVec(rng, m * k);
          const std::vector<float> b = RandomVec(rng, n * k);
          const std::vector<float> c0 = RandomVec(rng, m * n);
          std::vector<float> c = c0;
          Gemm(Trans::kNo, Trans::kYes, m, n, k, alpha, a.data(), k, b.data(),
               k, beta, c.data(), n);
          for (int64_t i = 0; i < m; ++i) {
            std::vector<float> row(c0.begin() + i * n,
                                   c0.begin() + (i + 1) * n);
            Gemm(Trans::kNo, Trans::kYes, 1, n, k, alpha, a.data() + i * k, k,
                 b.data(), k, beta, row.data(), n);
            EXPECT_EQ(std::memcmp(row.data(), c.data() + i * n,
                                  static_cast<size_t>(n) * sizeof(float)),
                      0)
                << "tier=" << SimdTierName(tier) << " n=" << n << " k=" << k
                << " alpha=" << alpha << " beta=" << beta << " row " << i;
          }
        }
      }
    }
  }
}

// The broadcast kernels (NN, TN) block rows by 4, pack n = 4 products four
// (AVX-512) or two (AVX2) rows to a vector, and run the last n % W columns
// as one masked vector, yet a C row is a pure function of its A row: the TT
// chain stacks many lookups' rows into one product and relies on each
// landing on the bits of its own one-row product, whichever row block,
// packed tile or remainder it falls into. alpha != 1 pins the one explicit
// epilogue: GCC used to contract alpha * acc + beta * C into an FMA in some
// tile instantiations and not in others.
TEST(GemmTierConformance, BroadcastRowsIndependentOfM) {
  TierGuard guard;
  for (SimdTier tier : TestableTiers()) {
    SetSimdTier(tier);
    for (int tai = 0; tai < 2; ++tai) {
      const Trans ta = tai ? Trans::kYes : Trans::kNo;
      for (int64_t n : {1, 2, 3, 4, 5, 7, 8, 13, 16, 33}) {
        for (float alpha : {1.0f, 0.75f}) {
          for (float beta : {0.0f, 0.5f, 1.0f}) {
            const int64_t m = 13, k = 37;
            const int64_t lda = tai ? m : k;
            Rng rng(93);
            const std::vector<float> a = RandomVec(rng, m * k);
            const std::vector<float> b = RandomVec(rng, k * n);
            const std::vector<float> c0 = RandomVec(rng, m * n);
            std::vector<float> c = c0;
            Gemm(ta, Trans::kNo, m, n, k, alpha, a.data(), lda, b.data(), n,
                 beta, c.data(), n);
            for (int64_t i = 0; i < m; ++i) {
              std::vector<float> row(c0.begin() + i * n,
                                     c0.begin() + (i + 1) * n);
              Gemm(ta, Trans::kNo, 1, n, k, alpha,
                   a.data() + (tai ? i : i * k), lda, b.data(), n, beta,
                   row.data(), n);
              EXPECT_EQ(std::memcmp(row.data(), c.data() + i * n,
                                    static_cast<size_t>(n) * sizeof(float)),
                        0)
                  << "tier=" << SimdTierName(tier) << " ta=" << tai
                  << " n=" << n << " alpha=" << alpha << " beta=" << beta
                  << " row " << i;
            }
          }
        }
      }
    }
  }
}

// The packed n = 4 tiles at every row count they split into (16-, 12-, 8-
// and 4-row tiles on AVX-512, 8- to 2-row tiles on AVX2, leftover rows on
// the unpacked path) and at k around the NN path's 4-step A blocks, with
// padded leading dimensions: every row equals its m = 1 product, which
// runs the unpacked path.
TEST(GemmTierConformance, PackedFourColumnRowsIndependentOfM) {
  constexpr int64_t n = 4, kPad = 3;
  TierGuard guard;
  for (SimdTier tier : TestableTiers()) {
    SetSimdTier(tier);
    int64_t bad = 0;
    for (int tai = 0; tai < 2; ++tai) {
      const Trans ta = tai ? Trans::kYes : Trans::kNo;
      for (int64_t m = 1; m <= 37; ++m) {
        for (int64_t k : {1, 3, 4, 5, 8, 32, 37}) {
          for (float beta : {0.0f, 1.0f}) {
            const int64_t lda = (tai ? m : k) + kPad;
            const int64_t ldb = n + kPad, ldc = n + kPad;
            Rng rng(static_cast<uint64_t>(97 + m * 64 + k));
            const std::vector<float> a = RandomVec(rng, (tai ? k : m) * lda);
            const std::vector<float> b = RandomVec(rng, k * ldb);
            const std::vector<float> c0 = RandomVec(rng, m * ldc);
            std::vector<float> c = c0;
            Gemm(ta, Trans::kNo, m, n, k, 1.0f, a.data(), lda, b.data(), ldb,
                 beta, c.data(), ldc);
            for (int64_t i = 0; i < m; ++i) {
              std::vector<float> row(c0.begin() + i * ldc,
                                     c0.begin() + i * ldc + n);
              Gemm(ta, Trans::kNo, 1, n, k, 1.0f,
                   a.data() + (tai ? i : i * lda), lda, b.data(), ldb, beta,
                   row.data(), n);
              if (std::memcmp(row.data(), c.data() + i * ldc,
                              static_cast<size_t>(n) * sizeof(float)) != 0) {
                if (bad < 5) {
                  ADD_FAILURE() << "tier=" << SimdTierName(tier)
                                << " ta=" << tai << " m=" << m << " k=" << k
                                << " beta=" << beta << " row " << i;
                }
                ++bad;
              }
            }
            // The padding between C's rows is never written.
            for (int64_t i = 0; i < m; ++i) {
              for (int64_t j = n; j < ldc; ++j) {
                if (c[static_cast<size_t>(i * ldc + j)] !=
                    c0[static_cast<size_t>(i * ldc + j)]) {
                  ++bad;
                }
              }
            }
          }
        }
      }
    }
    EXPECT_EQ(bad, 0) << "tier=" << SimdTierName(tier);
  }
}

// Transpose is data movement, so every tier must write exactly the scalar
// loop's bytes: full 8 x 8 register blocks, ragged right and bottom edges,
// single rows and columns, padded leading dimensions, and nothing outside
// the destination's rows x cols.
TEST(GemmTierConformance, TransposeMatchesScalarLoop) {
  const int64_t kShapes[][2] = {{32, 64}, {64, 32}, {32, 4},  {4, 32},
                                {16, 16}, {17, 19}, {1, 37}, {37, 1}};
  TierGuard guard;
  for (SimdTier tier : TestableTiers()) {
    SetSimdTier(tier);
    for (const auto& shape : kShapes) {
      const int64_t rows = shape[0], cols = shape[1];
      const int64_t lds = cols + 3, ldd = rows + 5;
      Rng rng(static_cast<uint64_t>(rows * 100 + cols));
      const std::vector<float> src = RandomVec(rng, rows * lds);
      std::vector<float> want = RandomVec(rng, cols * ldd);
      std::vector<float> got = want;
      for (int64_t r = 0; r < rows; ++r) {
        for (int64_t j = 0; j < cols; ++j) {
          want[static_cast<size_t>(j * ldd + r)] =
              src[static_cast<size_t>(r * lds + j)];
        }
      }
      Transpose(rows, cols, src.data(), lds, got.data(), ldd);
      EXPECT_EQ(std::memcmp(got.data(), want.data(),
                            want.size() * sizeof(float)),
                0)
          << "tier=" << SimdTierName(tier) << " " << rows << "x" << cols;
    }
  }
}

// The vector tiers run one source (tensor/gemm_simd.h) in which an NN/TN
// element is one FMA chain over k plus the shared epilogue, whatever tile,
// masked tail or packed tile it lands in, and Axpy and Transpose do the
// same per-element work at either width: AVX2 and AVX-512 must write the
// same bytes. NT is left out: its chains run W lanes wide, so its bits
// depend on the vector width by design.
TEST(GemmTierConformance, VectorTiersAgreeBitwise) {
  if (DetectedSimdTier() < SimdTier::kAvx512) {
    GTEST_SKIP() << "needs both vector tiers";
  }
  constexpr int64_t kPad = 3;
  TierGuard guard;
  // Runs fn once per vector tier and compares the buffers it returns.
  const auto agree = [](auto&& fn) {
    SetSimdTier(SimdTier::kAvx2);
    const std::vector<float> avx2 = fn();
    SetSimdTier(SimdTier::kAvx512);
    const std::vector<float> avx512 = fn();
    return avx2.size() == avx512.size() &&
           std::memcmp(avx2.data(), avx512.data(),
                       avx2.size() * sizeof(float)) == 0;
  };
  int64_t bad = 0;
  for (int tai = 0; tai < 2; ++tai) {
    const Trans ta = tai ? Trans::kYes : Trans::kNo;
    for (int64_t n : {1, 2, 3, 4, 5, 6, 7, 8, 9, 13, 16, 17, 33, 64}) {
      for (int64_t m = 1; m <= 17; ++m) {
        for (int64_t k : {1, 7, 32, 37}) {
          const int64_t lda = (tai ? m : k) + kPad;
          const int64_t ldb = n + kPad, ldc = n + kPad;
          Rng rng(static_cast<uint64_t>(101 + m * 1000 + n * 10 + k));
          const std::vector<float> a = RandomVec(rng, (tai ? k : m) * lda);
          const std::vector<float> b = RandomVec(rng, k * ldb);
          const std::vector<float> c0 = RandomVec(rng, m * ldc);
          for (float alpha : {1.0f, 0.75f}) {
            for (float beta : {0.0f, 0.5f, 1.0f}) {
              const bool same = agree([&] {
                std::vector<float> c = c0;
                Gemm(ta, Trans::kNo, m, n, k, alpha, a.data(), lda, b.data(),
                     ldb, beta, c.data(), ldc);
                return c;
              });
              if (!same && bad++ < 5) {
                ADD_FAILURE() << "ta=" << tai << " m=" << m << " n=" << n
                              << " k=" << k << " alpha=" << alpha
                              << " beta=" << beta;
              }
            }
          }
        }
      }
    }
  }
  Rng rng(103);
  const std::vector<float> x = RandomVec(rng, 41);
  const std::vector<float> y0 = RandomVec(rng, 41);
  for (int64_t n = 0; n <= 40; ++n) {
    const bool same = agree([&] {
      std::vector<float> y = y0;
      Axpy(n, 0.75f, x.data(), y.data());
      return y;
    });
    if (!same && bad++ < 5) ADD_FAILURE() << "Axpy n=" << n;
  }
  for (int64_t rows : {1, 5, 8, 13, 16, 17, 31, 32, 33}) {
    for (int64_t cols : {1, 4, 8, 9, 16, 19, 64, 67}) {
      const int64_t lds = cols + kPad, ldd = rows + kPad;
      const std::vector<float> src = RandomVec(rng, rows * lds);
      const std::vector<float> dst0 = RandomVec(rng, cols * ldd);
      const bool same = agree([&] {
        std::vector<float> dst = dst0;
        Transpose(rows, cols, src.data(), lds, dst.data(), ldd);
        return dst;
      });
      if (!same && bad++ < 5) {
        ADD_FAILURE() << "Transpose " << rows << "x" << cols;
      }
    }
  }
  EXPECT_EQ(bad, 0);
}

TEST(Transpose, RejectsBadLeadingDims) {
  std::vector<float> src(12), dst(12);
  EXPECT_THROW(Transpose(3, 4, src.data(), 3, dst.data(), 3), ShapeError);
  EXPECT_THROW(Transpose(3, 4, src.data(), 4, dst.data(), 2), ShapeError);
  EXPECT_THROW(Transpose(-1, 4, src.data(), 4, dst.data(), 3), ShapeError);
  Transpose(0, 4, src.data(), 4, dst.data(), 0);  // empty: no-op
}

// The one-chain-per-element dot each tier's NT ran before it was
// register-blocked, replayed here: blocking only interleaves independent
// chains, so every element must match it bit for bit. The AVX2 k-tail is
// a chain of fused multiply-adds.
float NtDotScalar(const float* x, const float* y, int64_t k) {
  float acc = 0.0f;
  for (int64_t p = 0; p < k; ++p) acc += x[p] * y[p];
  return acc;
}

#ifdef TTREC_HAVE_AVX2
__attribute__((target("avx2,fma"))) float NtDotAvx2(const float* x,
                                                    const float* y,
                                                    int64_t k) {
  __m256 acc = _mm256_setzero_ps();
  int64_t p = 0;
  for (; p + 8 <= k; p += 8)
    acc = _mm256_fmadd_ps(_mm256_loadu_ps(x + p), _mm256_loadu_ps(y + p), acc);
  __m128 h = _mm_add_ps(_mm256_castps256_ps128(acc),
                        _mm256_extractf128_ps(acc, 1));
  h = _mm_add_ps(h, _mm_movehl_ps(h, h));
  h = _mm_add_ss(h, _mm_shuffle_ps(h, h, 1));
  float s = _mm_cvtss_f32(h);
  for (; p < k; ++p) s = std::fma(x[p], y[p], s);
  return s;
}
#endif

#ifdef TTREC_HAVE_AVX512
// GCC 12's false-positive -W(maybe-)uninitialized on the reduce lowering;
// see gemm_avx512.cc.
#pragma GCC diagnostic push
#pragma GCC diagnostic ignored "-Wmaybe-uninitialized"
#pragma GCC diagnostic ignored "-Wuninitialized"
__attribute__((target("avx512f,avx512bw,avx512dq,avx512vl"))) float
NtDotAvx512(const float* x, const float* y, int64_t k) {
  __m512 acc = _mm512_setzero_ps();
  int64_t p = 0;
  for (; p + 16 <= k; p += 16)
    acc = _mm512_fmadd_ps(_mm512_loadu_ps(x + p), _mm512_loadu_ps(y + p), acc);
  if (p < k) {
    const __mmask16 mask =
        static_cast<__mmask16>((1u << static_cast<unsigned>(k - p)) - 1u);
    acc = _mm512_fmadd_ps(_mm512_maskz_loadu_ps(mask, x + p),
                          _mm512_maskz_loadu_ps(mask, y + p), acc);
  }
  return _mm512_reduce_add_ps(acc);
}
#pragma GCC diagnostic pop
#endif

TEST(GemmTierConformance, NtMatchesPerElementDotBitwise) {
  // The MLP forwards' shapes: top 367->64->32->1, bottom 13->64->32->16,
  // at the training batch and at one serving sample.
  const int64_t kShapes[][3] = {{512, 64, 367}, {512, 32, 64}, {512, 1, 32},
                                {1, 64, 367},   {512, 64, 13}, {512, 16, 32},
                                {3, 32, 64}};
  TierGuard guard;
  for (SimdTier tier : TestableTiers()) {
    float (*dot)(const float*, const float*, int64_t) = NtDotScalar;
#ifdef TTREC_HAVE_AVX2
    if (tier == SimdTier::kAvx2) dot = NtDotAvx2;
#endif
#ifdef TTREC_HAVE_AVX512
    if (tier == SimdTier::kAvx512) dot = NtDotAvx512;
#endif
    SetSimdTier(tier);
    for (const auto& shape : kShapes) {
      const int64_t m = shape[0], n = shape[1], k = shape[2];
      Rng rng(17);
      const std::vector<float> a = RandomVec(rng, m * k);
      const std::vector<float> b = RandomVec(rng, n * k);
      std::vector<float> c(static_cast<size_t>(m * n));
      Gemm(Trans::kNo, Trans::kYes, m, n, k, 1.0f, a.data(), k, b.data(), k,
           0.0f, c.data(), n);
      int64_t bad = 0;
      for (int64_t i = 0; i < m; ++i) {
        for (int64_t j = 0; j < n; ++j) {
          const float want =
              1.0f * dot(a.data() + i * k, b.data() + j * k, k) + 0.0f;
          const float got = c[static_cast<size_t>(i * n + j)];
          if (std::memcmp(&got, &want, sizeof(float)) != 0) ++bad;
        }
      }
      EXPECT_EQ(bad, 0) << "tier=" << SimdTierName(tier) << " " << m << "x"
                        << n << "x" << k;
    }
  }
}

// Axpy is the TT forward's pooling kernel, so each tier's version is
// checked against the plain loop. Vector tiers use FMA, which rounds differently from
// mul-then-add — tolerance, not bitwise.
TEST(GemmTierConformance, AxpyMatchesScalarLoop) {
  Rng rng(55);
  TierGuard guard;
  for (SimdTier tier : TestableTiers()) {
    SetSimdTier(tier);
    for (int64_t n : {0, 1, 3, 7, 8, 15, 16, 17, 33, 100}) {
      for (float alpha : {0.0f, 1.0f, -1.0f, 0.5f}) {
        const std::vector<float> x = RandomVec(rng, n);
        std::vector<float> y = RandomVec(rng, n);
        std::vector<float> y_ref = y;
        Axpy(n, alpha, x.data(), y.data());
        for (int64_t i = 0; i < n; ++i) {
          y_ref[static_cast<size_t>(i)] +=
              alpha * x[static_cast<size_t>(i)];
        }
        for (int64_t i = 0; i < n; ++i) {
          EXPECT_NEAR(y[static_cast<size_t>(i)],
                      y_ref[static_cast<size_t>(i)], 1e-5f)
              << "tier=" << SimdTierName(tier) << " n=" << n
              << " alpha=" << alpha << " i=" << i;
        }
      }
    }
  }
}

// TTREC_SIMD resolves on the next (re-)resolution: a recognized name forces
// that tier (clamped to what the CPU supports), garbage falls back to the
// detected tier with a warning.
TEST(SimdDispatch, EnvOverrideSelectsTier) {
  const SimdTier detected = DetectedSimdTier();
  TierGuard guard;

  ASSERT_EQ(setenv("TTREC_SIMD", "scalar", 1), 0);
  ResetSimdTier();
  EXPECT_EQ(ActiveSimdTier(), SimdTier::kScalar);

  ASSERT_EQ(setenv("TTREC_SIMD", "definitely-not-a-tier", 1), 0);
  ResetSimdTier();
  EXPECT_EQ(ActiveSimdTier(), detected);

  // Requesting above what the CPU supports clamps to detected (a no-op
  // when the machine already supports avx512).
  ASSERT_EQ(setenv("TTREC_SIMD", "avx512", 1), 0);
  ResetSimdTier();
  EXPECT_LE(static_cast<int>(ActiveSimdTier()), static_cast<int>(detected));

  ASSERT_EQ(unsetenv("TTREC_SIMD"), 0);
  ResetSimdTier();
  EXPECT_EQ(ActiveSimdTier(), detected);
}

TEST(SimdDispatch, ReportsNamesAndCpuModel) {
  EXPECT_STREQ(SimdTierName(SimdTier::kScalar), "scalar");
  EXPECT_STREQ(SimdTierName(SimdTier::kAvx2), "avx2");
  EXPECT_STREQ(SimdTierName(SimdTier::kAvx512), "avx512");
  EXPECT_FALSE(std::string(CpuModelName()).empty());
}

}  // namespace
}  // namespace ttrec
