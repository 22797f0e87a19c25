// RNG / distribution tests: determinism, moments, Zipf pmf agreement,
// truncated-tail sampling (Algorithm 3's inner loop) and its bitwise
// agreement with plain rejection, index shuffle bijectivity.
#include <gtest/gtest.h>

#include <bit>
#include <cmath>
#include <limits>
#include <numbers>
#include <set>
#include <tuple>
#include <utility>
#include <vector>

#include "tensor/check.h"
#include "tensor/random.h"
#include "tensor/stats.h"

namespace ttrec {
namespace {

TEST(Rng, DeterministicPerSeed) {
  Rng a(42), b(42), c(43);
  bool any_diff = false;
  for (int i = 0; i < 100; ++i) {
    const uint64_t x = a.NextUInt64();
    EXPECT_EQ(x, b.NextUInt64());
    if (x != c.NextUInt64()) any_diff = true;
  }
  EXPECT_TRUE(any_diff);
}

TEST(Rng, NextDoubleInUnitInterval) {
  Rng rng(1);
  for (int i = 0; i < 10000; ++i) {
    const double x = rng.NextDouble();
    EXPECT_GE(x, 0.0);
    EXPECT_LT(x, 1.0);
  }
}

TEST(Rng, UniformMoments) {
  Rng rng(2);
  RunningMoments m;
  for (int i = 0; i < 200000; ++i) m.Add(rng.Uniform(-2.0, 4.0));
  EXPECT_NEAR(m.mean(), 1.0, 0.02);
  EXPECT_NEAR(m.variance(), 3.0, 0.05);  // (b-a)^2/12 = 36/12
  EXPECT_GE(m.min(), -2.0);
  EXPECT_LT(m.max(), 4.0);
}

TEST(Rng, NormalMoments) {
  Rng rng(3);
  RunningMoments m;
  for (int i = 0; i < 200000; ++i) m.Add(rng.Normal(1.5, 2.0));
  EXPECT_NEAR(m.mean(), 1.5, 0.02);
  EXPECT_NEAR(m.stddev(), 2.0, 0.02);
}

TEST(Rng, RandIntUnbiasedAndInRange) {
  Rng rng(4);
  std::vector<int64_t> counts(7, 0);
  const int64_t draws = 140000;
  for (int64_t i = 0; i < draws; ++i) {
    const int64_t x = rng.RandInt(7);
    ASSERT_GE(x, 0);
    ASSERT_LT(x, 7);
    ++counts[static_cast<size_t>(x)];
  }
  for (int64_t c : counts) {
    EXPECT_NEAR(static_cast<double>(c), draws / 7.0, 5.0 * std::sqrt(draws / 7.0));
  }
  EXPECT_THROW(rng.RandInt(0), ConfigError);
}

TEST(Rng, TruncatedTailNormalExcludesCenter) {
  Rng rng(5);
  RunningMoments m;
  for (int i = 0; i < 50000; ++i) {
    const double x = rng.TruncatedTailNormal(2.0);
    ASSERT_GT(std::abs(x), 2.0);
    m.Add(x);
  }
  EXPECT_NEAR(m.mean(), 0.0, 0.03);
  // Matches the closed-form tail stddev.
  EXPECT_NEAR(m.stddev(), TailNormalStddev(2.0), 0.02);
}

// Normal() as plain Box-Muller: u1 redrawn while zero, then u2, then
// mean + stddev * r * cos(2 pi u2) in that order.
double ReferenceNormal(Rng& rng, double mean, double stddev) {
  double u1;
  do {
    u1 = rng.NextDouble();
  } while (u1 <= 0.0);
  const double u2 = rng.NextDouble();
  const double r = std::sqrt(-2.0 * std::log(u1));
  return mean + stddev * r * std::cos(2.0 * std::numbers::pi * u2);
}

// Plain rejection: Normal() until |x| > t. TruncatedTailNormal skips the
// transform of pairs that cannot pass, and must still match this bit for
// bit, engine state included.
double ReferenceTail(Rng& rng, double t) {
  for (;;) {
    const double x = rng.Normal();
    if (std::abs(x) > t) return x;
  }
}

void ExpectSameState(const Rng& a, const Rng& b) {
  uint64_t sa[4], sb[4];
  a.GetState(sa);
  b.GetState(sb);
  for (int i = 0; i < 4; ++i) EXPECT_EQ(sa[i], sb[i]) << "state word " << i;
}

// An engine whose first NextUInt64() is `first` and whose second is 0, so
// the first Box-Muller pair is (u1, u2 = 0) and gives x = r exactly, the
// largest |x| its u1 allows: with s0 = 0 and s1 = s3, xoshiro256++ returns
// rotl(s3, 23), then 0, then 0 again (a zero u1, redrawn). s2 keeps the
// stream going afterwards.
Rng RngWithFirstDraw(uint64_t first) {
  const uint64_t s3 = std::rotr(first, 23);
  const uint64_t s[4] = {0, s3, 0x9e3779b97f4a7c15ull, s3};
  Rng rng;
  rng.SetState(s);
  return rng;
}

// The NextUInt64() whose NextDouble() is k * 2^-53.
uint64_t DrawOfUnits(uint64_t k) { return k << 11; }

TEST(Rng, NormalMatchesBoxMullerBitwise) {
  const std::pair<double, double> params[] = {
      {0.0, 1.0}, {0.0, 0.01}, {1.5, 2.0}, {-3.0, 0.3}};
  for (const auto& [mean, stddev] : params) {
    Rng rng(8), ref(8);
    for (int i = 0; i < 20000; ++i) {
      const double want = ReferenceNormal(ref, mean, stddev);
      ASSERT_EQ(std::bit_cast<uint64_t>(rng.Normal(mean, stddev)),
                std::bit_cast<uint64_t>(want))
          << "mean " << mean << " stddev " << stddev << " call " << i;
    }
    ExpectSameState(rng, ref);
  }
}

class TailSamplerBitwise
    : public ::testing::TestWithParam<std::tuple<double, uint64_t>> {};

TEST_P(TailSamplerBitwise, MatchesPlainRejection) {
  const auto [t, seed] = GetParam();
  Rng rng(seed), ref(seed);
  for (int i = 0; i < 100000; ++i) {
    const double want = ReferenceTail(ref, t);
    ASSERT_EQ(std::bit_cast<uint64_t>(rng.TruncatedTailNormal(t)),
              std::bit_cast<uint64_t>(want))
        << "t " << t << " seed " << seed << " call " << i;
  }
  ExpectSameState(rng, ref);
}

INSTANTIATE_TEST_SUITE_P(
    Thresholds, TailSamplerBitwise,
    ::testing::Combine(::testing::Values(0.0, 0.5, 1.0, 2.0, 3.0),
                       ::testing::Values(uint64_t{1}, uint64_t{77},
                                         uint64_t{20261022})));

TEST(Rng, TailSamplerRedrawsAZeroFirstDraw) {
  const Rng start = RngWithFirstDraw(0);
  Rng probe = start;
  ASSERT_EQ(probe.NextDouble(), 0.0);
  for (double t : {0.0, 0.5, 1.0, 2.0, 3.0}) {
    Rng rng = start, ref = start;
    EXPECT_EQ(std::bit_cast<uint64_t>(rng.TruncatedTailNormal(t)),
              std::bit_cast<uint64_t>(ReferenceTail(ref, t)))
        << "t " << t;
    ExpectSameState(rng, ref);
  }
  Rng rng = start, ref = start;
  EXPECT_EQ(std::bit_cast<uint64_t>(rng.Normal(0.5, 2.0)),
            std::bit_cast<uint64_t>(ReferenceNormal(ref, 0.5, 2.0)));
  ExpectSameState(rng, ref);
}

// First pairs (u1, 0) with u1 a few units of 2^-53 either side of
// e^(-t^2/2), where the radius crosses t, and of the sampler's skip bound
// e^(-t^2/2)(1 + 1e-9): x = r, so a skipped pair that plain rejection
// would accept changes the value returned.
TEST(Rng, TailSamplerAtTheSkipBound) {
  for (double t : {0.5, 1.0, 2.0, 3.0, 4.0}) {
    const double edge = std::exp(-0.5 * t * t);
    for (double bound : {edge, edge * (1.0 + 1e-9)}) {
      const auto units = static_cast<uint64_t>(bound * 0x1.0p53);
      for (uint64_t k = units - 4; k <= units + 4; ++k) {
        const Rng start = RngWithFirstDraw(DrawOfUnits(k));
        Rng probe = start;
        ASSERT_EQ(probe.NextDouble(), static_cast<double>(k) * 0x1.0p-53);
        ASSERT_EQ(probe.NextDouble(), 0.0);
        Rng rng = start, ref = start;
        EXPECT_EQ(std::bit_cast<uint64_t>(rng.TruncatedTailNormal(t)),
                  std::bit_cast<uint64_t>(ReferenceTail(ref, t)))
            << "t " << t << " u1 " << k << " * 2^-53";
        ExpectSameState(rng, ref);
      }
    }
  }
}

// sqrt(-2 ln 2^-53) ~ 8.5717 is the largest |x| a pair reaches (u1 =
// 2^-53, the smallest nonzero draw); beyond it plain rejection never ends.
TEST(Rng, TailSamplerRejectsUnreachableThresholds) {
  Rng rng(9), untouched(9);
  const double max_radius = std::sqrt(-2.0 * std::log(0x1.0p-53));
  for (double t : {-1.0, max_radius, 8.5717, 9.0, 100.0,
                   std::numeric_limits<double>::infinity(),
                   std::numeric_limits<double>::quiet_NaN()}) {
    EXPECT_THROW(rng.TruncatedTailNormal(t), ConfigError) << "t " << t;
  }
  ExpectSameState(rng, untouched);  // checked before any draw
  // A high but reachable threshold still samples.
  EXPECT_GT(std::abs(rng.TruncatedTailNormal(4.5)), 4.5);
}

TEST(TailNormalStddev, KnownValues) {
  EXPECT_DOUBLE_EQ(TailNormalStddev(0.0), 1.0);
  // Monte-Carlo-free sanity: variance grows with the threshold.
  EXPECT_GT(TailNormalStddev(1.0), 1.0);
  EXPECT_GT(TailNormalStddev(2.0), TailNormalStddev(1.0));
  EXPECT_GT(TailNormalStddev(3.0), 3.0);  // all mass beyond |3|
}

TEST(Rng, SplitProducesIndependentStreams) {
  Rng parent(6);
  Rng child = parent.Split();
  // Streams differ.
  bool differ = false;
  Rng parent2(6);
  Rng child2 = parent2.Split();
  for (int i = 0; i < 50; ++i) {
    const uint64_t c = child.NextUInt64();
    EXPECT_EQ(c, child2.NextUInt64());  // deterministic
    if (c != parent.NextUInt64()) differ = true;
  }
  EXPECT_TRUE(differ);
}

class ZipfPmfSweep : public ::testing::TestWithParam<std::tuple<int, double>> {
};

TEST_P(ZipfPmfSweep, EmpiricalMatchesAnalyticPmf) {
  const auto [n, s] = GetParam();
  ZipfSampler zipf(n, s);
  Rng rng(1000 + n + static_cast<int>(s * 10));
  const int64_t draws = 200000;
  std::vector<int64_t> counts(static_cast<size_t>(n), 0);
  for (int64_t i = 0; i < draws; ++i) {
    const int64_t k = zipf.Sample(rng);
    ASSERT_GE(k, 0);
    ASSERT_LT(k, n);
    ++counts[static_cast<size_t>(k)];
  }
  // Compare the head of the distribution (ranks with enough mass).
  for (int64_t k = 0; k < std::min<int64_t>(n, 10); ++k) {
    const double expected = zipf.Pmf(k) * static_cast<double>(draws);
    if (expected < 100.0) continue;
    EXPECT_NEAR(static_cast<double>(counts[static_cast<size_t>(k)]), expected,
                6.0 * std::sqrt(expected))
        << "rank " << k << " n=" << n << " s=" << s;
  }
}

INSTANTIATE_TEST_SUITE_P(
    Params, ZipfPmfSweep,
    ::testing::Combine(::testing::Values(10, 1000, 100000),
                       ::testing::Values(0.5, 1.0, 1.2, 2.0)));

TEST(ZipfSampler, UniformWhenExponentZero) {
  ZipfSampler zipf(100, 0.0);
  Rng rng(11);
  std::vector<int64_t> counts(100, 0);
  for (int i = 0; i < 100000; ++i) ++counts[static_cast<size_t>(zipf.Sample(rng))];
  for (int64_t c : counts) EXPECT_NEAR(static_cast<double>(c), 1000.0, 200.0);
}

TEST(ZipfSampler, SingleElement) {
  ZipfSampler zipf(1, 1.1);
  Rng rng(12);
  for (int i = 0; i < 10; ++i) EXPECT_EQ(zipf.Sample(rng), 0);
}

TEST(ZipfSampler, RejectsBadConfig) {
  EXPECT_THROW(ZipfSampler(0, 1.0), ConfigError);
  EXPECT_THROW(ZipfSampler(10, -0.5), ConfigError);
}

TEST(ZipfSampler, PmfIsNormalizedAndMonotone) {
  ZipfSampler zipf(500, 1.3);
  double total = 0.0;
  double prev = 1.0;
  for (int64_t k = 0; k < 500; ++k) {
    const double p = zipf.Pmf(k);
    EXPECT_LE(p, prev);
    prev = p;
    total += p;
  }
  EXPECT_NEAR(total, 1.0, 1e-9);
}

class IndexShuffleSweep : public ::testing::TestWithParam<int64_t> {};

TEST_P(IndexShuffleSweep, IsBijection) {
  const int64_t n = GetParam();
  IndexShuffle shuffle(n, 777);
  std::set<int64_t> seen;
  for (int64_t k = 0; k < n; ++k) {
    const int64_t v = shuffle.Map(k);
    ASSERT_GE(v, 0);
    ASSERT_LT(v, n);
    seen.insert(v);
  }
  EXPECT_EQ(static_cast<int64_t>(seen.size()), n);
}

INSTANTIATE_TEST_SUITE_P(Sizes, IndexShuffleSweep,
                         ::testing::Values(1, 2, 16, 97, 1000, 4096));

TEST(IndexShuffle, RejectsOutOfRange) {
  IndexShuffle shuffle(10, 1);
  EXPECT_THROW(shuffle.Map(-1), IndexError);
  EXPECT_THROW(shuffle.Map(10), IndexError);
}

}  // namespace
}  // namespace ttrec
