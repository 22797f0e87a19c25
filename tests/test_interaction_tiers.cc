// Conformance of the pairwise-dot kernels (the DLRM dot interaction behind
// DotInteraction) in every SIMD tier this machine can run: forward and
// backward against a double-precision oracle, per-sample results that do
// not depend on the batch, on a sample's position in it or on operand
// alignment, and a scalar tier that is bit for bit the loops the
// interaction ran before the kernel table held it.
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstring>
#include <vector>

#include "simd_tiers.h"
#include "tensor/cpu_features.h"
#include "tensor/gemm.h"
#include "tensor/random.h"

namespace ttrec {
namespace {

int64_t OutDim(int64_t F, int64_t d) { return d + F * (F - 1) / 2; }

// F feature blocks of batch x d floats. Row 1 duplicates row 0 and row 2
// is all zeros in every sample, when F allows.
std::vector<std::vector<float>> MakeFeatures(Rng& rng, int64_t F, int64_t d,
                                             int64_t B) {
  std::vector<std::vector<float>> z(static_cast<size_t>(F));
  for (auto& block : z) {
    block.resize(static_cast<size_t>(B * d));
    for (float& x : block) x = static_cast<float>(rng.Uniform(-1.0, 1.0));
  }
  if (F >= 2) z[1] = z[0];
  if (F >= 3) std::fill(z[2].begin(), z[2].end(), 0.0f);
  return z;
}

std::vector<const float*> Ptrs(const std::vector<std::vector<float>>& z) {
  std::vector<const float*> p;
  for (const auto& block : z) p.push_back(block.data());
  return p;
}

std::vector<float*> GradPtrs(std::vector<std::vector<float>>& z) {
  std::vector<float*> p;
  for (auto& block : z) p.push_back(block.data());
  return p;
}

// The interaction's loops as they were before the kernel table held them:
// the scalar tier must reproduce them bit for bit.
void ParentForward(int64_t F, int64_t d, const std::vector<const float*>& z,
                   int64_t B, float* out) {
  const int64_t od = OutDim(F, d);
  for (int64_t b = 0; b < B; ++b) {
    float* ob = out + b * od;
    std::memcpy(ob, z[0] + b * d, static_cast<size_t>(d) * sizeof(float));
    int64_t p = d;
    for (int64_t i = 0; i < F; ++i) {
      const float* zi = z[static_cast<size_t>(i)] + b * d;
      for (int64_t j = i + 1; j < F; ++j) {
        const float* zj = z[static_cast<size_t>(j)] + b * d;
        float dot = 0.0f;
        for (int64_t k = 0; k < d; ++k) dot += zi[k] * zj[k];
        ob[p++] = dot;
      }
    }
  }
}

void ParentBackward(int64_t F, int64_t d, const std::vector<const float*>& z,
                    const float* g, int64_t B,
                    const std::vector<float*>& grads) {
  const int64_t od = OutDim(F, d);
  for (int64_t f = 0; f < F; ++f) {
    std::memset(grads[static_cast<size_t>(f)], 0,
                static_cast<size_t>(B * d) * sizeof(float));
  }
  for (int64_t b = 0; b < B; ++b) {
    const float* gb = g + b * od;
    for (int64_t k = 0; k < d; ++k) grads[0][b * d + k] += gb[k];
    int64_t p = d;
    for (int64_t i = 0; i < F; ++i) {
      const float* zi = z[static_cast<size_t>(i)] + b * d;
      for (int64_t j = i + 1; j < F; ++j) {
        const float* zj = z[static_cast<size_t>(j)] + b * d;
        const float s = gb[p++];
        float* gi = grads[static_cast<size_t>(i)] + b * d;
        float* gj = grads[static_cast<size_t>(j)] + b * d;
        for (int64_t k = 0; k < d; ++k) {
          gi[k] += s * zj[k];
          gj[k] += s * zi[k];
        }
      }
    }
  }
}

struct Result {
  std::vector<float> out;
  std::vector<std::vector<float>> grads;
};

Result RunPair(int64_t F, int64_t d, const std::vector<const float*>& z,
           const float* g, int64_t B) {
  Result r;
  r.out.assign(static_cast<size_t>(B * OutDim(F, d)), -7.0f);
  PairwiseDots(F, d, z.data(), B, r.out.data());
  r.grads.assign(static_cast<size_t>(F),
                 std::vector<float>(static_cast<size_t>(B * d), -7.0f));
  std::vector<float*> gp = GradPtrs(r.grads);
  PairwiseDotsBackward(F, d, z.data(), g, B, gp.data());
  return r;
}

bool SameBits(const float* a, const float* b, int64_t n) {
  return std::memcmp(a, b, static_cast<size_t>(n) * sizeof(float)) == 0;
}

// (a) Forward and backward against a double-precision oracle. Tolerances
// scale with the sum of magnitudes each element accumulates, so they hold
// for any summation order; the pass-through block is exact.
TEST(InteractionTierConformance, MatchesDoubleOracle) {
  TierGuard guard;
  for (SimdTier tier : TestableTiers()) {
    SetSimdTier(tier);
    for (int64_t F : {1, 2, 3, 5, 16, 17, 27, 33}) {
      for (int64_t d : {1, 3, 16, 17, 32}) {
        for (int64_t B : {1, 4, 37}) {
          Rng rng(static_cast<uint64_t>(1000 * F + 10 * d + B));
          const auto z = MakeFeatures(rng, F, d, B);
          const auto zp = Ptrs(z);
          const int64_t od = OutDim(F, d);
          std::vector<float> g(static_cast<size_t>(B * od));
          for (float& x : g) x = static_cast<float>(rng.Uniform(-1.0, 1.0));
          const Result r = RunPair(F, d, zp, g.data(), B);
          int64_t bad = 0;
          for (int64_t b = 0; b < B; ++b) {
            const float* ob = r.out.data() + b * od;
            if (!SameBits(ob, zp[0] + b * d, d)) ++bad;
            const float* gb = g.data() + b * od;
            int64_t p = d;
            for (int64_t i = 0; i < F; ++i) {
              for (int64_t j = i + 1; j < F; ++j, ++p) {
                double ref = 0.0, mag = 0.0;
                for (int64_t k = 0; k < d; ++k) {
                  const double t =
                      static_cast<double>(zp[i][b * d + k]) * zp[j][b * d + k];
                  ref += t;
                  mag += std::abs(t);
                }
                if (std::abs(ob[p] - ref) > 4e-7 * (d + 1) * mag + 1e-30) ++bad;
              }
            }
            for (int64_t m = 0; m < F; ++m) {
              for (int64_t k = 0; k < d; ++k) {
                double ref = m == 0 ? gb[k] : 0.0;
                double mag = std::abs(ref);
                for (int64_t j = 0; j < F; ++j) {
                  if (j == m) continue;
                  const int64_t lo = std::min(m, j), hi = std::max(m, j);
                  const int64_t pair =
                      d + lo * (F - 1) - lo * (lo - 1) / 2 + (hi - lo - 1);
                  const double t =
                      static_cast<double>(gb[pair]) * zp[j][b * d + k];
                  ref += t;
                  mag += std::abs(t);
                }
                const float got = r.grads[static_cast<size_t>(m)]
                                         [static_cast<size_t>(b * d + k)];
                if (std::abs(got - ref) > 4e-7 * (F + 1) * mag + 1e-30) ++bad;
              }
            }
          }
          EXPECT_EQ(bad, 0) << "tier=" << SimdTierName(tier) << " F=" << F
                            << " d=" << d << " B=" << B;
        }
      }
    }
  }
}

// The diagonal of the pair-gradient matrix is skipped, never multiplied
// by zero: an inf in z_1 reaches dz_0 and dz_2 but leaves dz_1 finite.
TEST(InteractionTierConformance, InfFeatureDoesNotPoisonItsOwnGradient) {
  TierGuard guard;
  for (SimdTier tier : TestableTiers()) {
    SetSimdTier(tier);
    for (int64_t d : {4, 16, 33}) {
      Rng rng(3);
      auto z = MakeFeatures(rng, 3, d, 2);
      z[2].assign(z[2].size(), 0.5f);
      z[1][static_cast<size_t>(d + 1)] = INFINITY;  // sample 1
      const auto zp = Ptrs(z);
      std::vector<float> g(static_cast<size_t>(2 * OutDim(3, d)), 0.25f);
      const Result r = RunPair(3, d, zp, g.data(), 2);
      for (float x : r.grads[1]) {
        EXPECT_TRUE(std::isfinite(x)) << "tier=" << SimdTierName(tier);
      }
      EXPECT_TRUE(std::isinf(r.grads[0][static_cast<size_t>(d + 1)]));
    }
  }
}

// (b) A sample's forward row and gradients, computed at any position of a
// batch of 37, equal the sample computed alone, bit for bit, also with
// every operand shifted off alignment by one float.
TEST(InteractionTierConformance, SampleIndependentOfBatchAndAlignment) {
  TierGuard guard;
  for (SimdTier tier : TestableTiers()) {
    SetSimdTier(tier);
    for (auto [F, d] : {std::pair<int64_t, int64_t>{27, 16}, {5, 16}, {17, 3},
                        {33, 17}, {2, 1}}) {
      const int64_t B = 37;
      const int64_t od = OutDim(F, d);
      Rng rng(static_cast<uint64_t>(F * 100 + d));
      const auto z = MakeFeatures(rng, F, d, B);
      const auto zp = Ptrs(z);
      std::vector<float> g(static_cast<size_t>(B * od));
      for (float& x : g) x = static_cast<float>(rng.Uniform(-1.0, 1.0));
      const Result batch = RunPair(F, d, zp, g.data(), B);

      // Every operand one float past its natural position.
      std::vector<std::vector<float>> z_off(static_cast<size_t>(F));
      std::vector<const float*> zp_off;
      for (int64_t f = 0; f < F; ++f) {
        std::vector<float>& block = z_off[static_cast<size_t>(f)];
        block.assign(1, 0.0f);
        block.insert(block.end(), z[static_cast<size_t>(f)].begin(),
                     z[static_cast<size_t>(f)].end());
        zp_off.push_back(block.data() + 1);
      }
      std::vector<float> g_off(1, 0.0f);
      g_off.insert(g_off.end(), g.begin(), g.end());
      std::vector<float> out_off(static_cast<size_t>(B * od + 1));
      PairwiseDots(F, d, zp_off.data(), B, out_off.data() + 1);
      std::vector<std::vector<float>> gr_off(
          static_cast<size_t>(F),
          std::vector<float>(static_cast<size_t>(B * d + 1)));
      std::vector<float*> gp_off;
      for (auto& block : gr_off) gp_off.push_back(block.data() + 1);
      PairwiseDotsBackward(F, d, zp_off.data(), g_off.data() + 1, B,
                           gp_off.data());
      EXPECT_TRUE(SameBits(out_off.data() + 1, batch.out.data(), B * od))
          << "tier=" << SimdTierName(tier) << " F=" << F << " d=" << d;
      for (int64_t f = 0; f < F; ++f) {
        EXPECT_TRUE(SameBits(gp_off[static_cast<size_t>(f)],
                             batch.grads[static_cast<size_t>(f)].data(), B * d))
            << "tier=" << SimdTierName(tier) << " F=" << F << " d=" << d;
      }

      for (int64_t s : {int64_t{0}, int64_t{1}, int64_t{17}, B - 1}) {
        std::vector<const float*> one;
        for (int64_t f = 0; f < F; ++f) one.push_back(zp[f] + s * d);
        const Result alone = RunPair(F, d, one, g.data() + s * od, 1);
        EXPECT_TRUE(SameBits(alone.out.data(), batch.out.data() + s * od, od))
            << "tier=" << SimdTierName(tier) << " F=" << F << " d=" << d
            << " sample " << s;
        for (int64_t f = 0; f < F; ++f) {
          const auto& in_batch = batch.grads[static_cast<size_t>(f)];
          EXPECT_TRUE(SameBits(alone.grads[static_cast<size_t>(f)].data(),
                               in_batch.data() + s * d, d))
              << "tier=" << SimdTierName(tier) << " F=" << F << " d=" << d
              << " sample " << s << " feature " << f;
        }
      }
    }
  }
}

// (c) The scalar tier is the parent's loops, bit for bit.
TEST(InteractionTierConformance, ScalarTierIsTheOriginalLoops) {
  TierGuard guard;
  SetSimdTier(SimdTier::kScalar);
  for (auto [F, d, B] : {std::tuple<int64_t, int64_t, int64_t>{27, 16, 64},
                         {5, 16, 37}, {1, 3, 4}, {2, 1, 5}, {33, 32, 3}}) {
    Rng rng(static_cast<uint64_t>(F + d + B));
    const auto z = MakeFeatures(rng, F, d, B);
    const auto zp = Ptrs(z);
    const int64_t od = OutDim(F, d);
    std::vector<float> g(static_cast<size_t>(B * od));
    for (float& x : g) x = static_cast<float>(rng.Uniform(-1.0, 1.0));
    const Result r = RunPair(F, d, zp, g.data(), B);
    std::vector<float> out(static_cast<size_t>(B * od));
    ParentForward(F, d, zp, B, out.data());
    EXPECT_TRUE(SameBits(out.data(), r.out.data(), B * od)) << "F=" << F;
    std::vector<std::vector<float>> grads(
        static_cast<size_t>(F), std::vector<float>(static_cast<size_t>(B * d)));
    ParentBackward(F, d, zp, g.data(), B, GradPtrs(grads));
    for (int64_t f = 0; f < F; ++f) {
      EXPECT_TRUE(SameBits(grads[static_cast<size_t>(f)].data(),
                           r.grads[static_cast<size_t>(f)].data(), B * d))
          << "F=" << F << " feature " << f;
    }
  }
}

// Every vector-tier element is one FMA chain in a fixed order, so the
// vector width cannot change a bit: AVX2 and AVX-512 agree.
TEST(InteractionTierConformance, VectorTiersAgreeBitwise) {
  if (DetectedSimdTier() < SimdTier::kAvx512) {
    GTEST_SKIP() << "needs both vector tiers";
  }
  TierGuard guard;
  for (auto [F, d, B] : {std::tuple<int64_t, int64_t, int64_t>{27, 16, 37},
                         {5, 17, 4}, {33, 32, 3}, {3, 1, 2}}) {
    Rng rng(static_cast<uint64_t>(7 * F + d));
    const auto z = MakeFeatures(rng, F, d, B);
    const auto zp = Ptrs(z);
    std::vector<float> g(static_cast<size_t>(B * OutDim(F, d)));
    for (float& x : g) x = static_cast<float>(rng.Uniform(-1.0, 1.0));
    SetSimdTier(SimdTier::kAvx2);
    const Result a = RunPair(F, d, zp, g.data(), B);
    SetSimdTier(SimdTier::kAvx512);
    const Result b = RunPair(F, d, zp, g.data(), B);
    EXPECT_TRUE(SameBits(a.out.data(), b.out.data(),
                         static_cast<int64_t>(a.out.size())))
        << "F=" << F << " d=" << d;
    for (int64_t f = 0; f < F; ++f) {
      EXPECT_TRUE(SameBits(a.grads[static_cast<size_t>(f)].data(),
                           b.grads[static_cast<size_t>(f)].data(), B * d))
          << "F=" << F << " d=" << d << " feature " << f;
    }
  }
}

}  // namespace
}  // namespace ttrec
