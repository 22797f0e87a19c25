// Deterministic random number generation and the distributions used by
// TT-Rec: uniform/normal weight init, the tail-truncated normal behind the
// paper's sampled-Gaussian initializer (Algorithm 3), and the Zipf sampler
// that models the skewed categorical-feature access pattern of
// recommendation data (paper §3.1, §4.2).
//
// Everything is seeded explicitly; no global state. The engine is
// xoshiro256++ seeded through splitmix64, which gives high-quality streams
// that are reproducible across platforms (unlike std:: distributions).
#pragma once

#include <cstdint>
#include <vector>

namespace ttrec {

/// xoshiro256++ engine with splitmix64 seeding. Satisfies
/// std::uniform_random_bit_generator.
class Rng {
 public:
  using result_type = uint64_t;

  explicit Rng(uint64_t seed = 0x9e3779b97f4a7c15ull);

  static constexpr result_type min() { return 0; }
  static constexpr result_type max() { return ~result_type{0}; }
  result_type operator()() { return NextUInt64(); }

  uint64_t NextUInt64();

  /// Uniform double in [0, 1).
  double NextDouble();

  /// Uniform double in [lo, hi).
  double Uniform(double lo, double hi);

  /// Uniform integer in [0, n); n must be positive.
  int64_t RandInt(int64_t n);

  /// Standard Box-Muller normal with the given mean and standard deviation.
  double Normal(double mean = 0.0, double stddev = 1.0);

  /// Standard normal conditioned on |x| > threshold ("tail sampling").
  /// This is the resample-while-|x|<=t loop of the paper's Algorithm 3,
  /// which removes near-zero mass from TT-core entries: draws, values and
  /// the engine state after each call are those of calling Normal() until
  /// |x| > threshold, but pairs whose radius cannot exceed the threshold
  /// skip Box-Muller's log, sqrt and cos. Throws ConfigError unless
  /// 0 <= threshold < sqrt(-2 ln 2^-53) ~ 8.57, the largest |x| a pair
  /// can reach.
  double TruncatedTailNormal(double threshold);

  /// Bernoulli draw with probability p of returning true.
  bool Bernoulli(double p);

  /// Creates an independent child stream (for per-table/per-worker RNGs).
  Rng Split();

  /// Engine-state access for checkpointing: a restored Rng continues the
  /// exact stream it was saved from (byte-identical draws).
  void GetState(uint64_t out[4]) const;
  void SetState(const uint64_t in[4]);

 private:
  uint64_t s_[4];
};

/// Standard deviation of the standard normal conditioned on |x| > t.
/// Used to rescale tail-sampled TT cores to a target product variance.
double TailNormalStddev(double threshold);

/// Zipf(s) sampler over {0, 1, ..., n-1} with pmf proportional to
/// 1/(k+1)^s, via Hormann-Derflinger rejection-inversion. O(1) memory,
/// ~constant expected time per draw for any n (tables here have up to
/// tens of millions of rows). s == 0 degenerates to uniform.
class ZipfSampler {
 public:
  /// n >= 1; s >= 0. s around 1.0-1.5 matches production embedding-access
  /// skew reported for DLRMs.
  ZipfSampler(int64_t n, double s);

  int64_t n() const { return n_; }
  double s() const { return s_; }

  /// Draws a 0-based rank (0 = most probable).
  int64_t Sample(Rng& rng) const;

  /// Exact pmf of rank k (0-based); O(n) normalization is computed lazily
  /// and cached on first call — intended for tests and analysis.
  double Pmf(int64_t k) const;

 private:
  double HIntegral(double x) const;
  double H(double x) const;
  double HIntegralInverse(double x) const;

  int64_t n_;
  double s_;
  double h_integral_x1_;
  double h_integral_n_;
  double threshold_;
  mutable double norm_ = -1.0;  // lazy pmf normalizer
};

/// A cheap bijection on [0, n) used to scatter Zipf ranks across row ids so
/// that "hot" rows are not clustered at the front of an embedding table.
class IndexShuffle {
 public:
  /// Builds a pseudo-random affine bijection k -> (a*k + b) mod n.
  IndexShuffle(int64_t n, uint64_t seed);

  int64_t Map(int64_t k) const;
  int64_t n() const { return n_; }

 private:
  int64_t n_;
  int64_t a_;
  int64_t b_;
};

/// Fills `out` with iid draws from Uniform(lo, hi).
void FillUniform(Rng& rng, std::vector<float>& out, double lo, double hi);

/// Fills `out` with iid draws from N(mean, stddev^2).
void FillNormal(Rng& rng, std::vector<float>& out, double mean, double stddev);

}  // namespace ttrec
