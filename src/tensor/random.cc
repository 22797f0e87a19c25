#include "tensor/random.h"

#include <cmath>
#include <numbers>
#include <numeric>

#include "tensor/check.h"

namespace ttrec {

namespace {

uint64_t SplitMix64(uint64_t& state) {
  uint64_t z = (state += 0x9e3779b97f4a7c15ull);
  z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ull;
  z = (z ^ (z >> 27)) * 0x94d049bb133111ebull;
  return z ^ (z >> 31);
}

uint64_t Rotl(uint64_t x, int k) { return (x << k) | (x >> (64 - k)); }

// One Box-Muller uniform pair and its transform, with radius
// r = sqrt(-2 ln u1). Normal() and the tail sampler share both, so a pair
// gives them the same draws and the same bits.
struct UniformPair {
  double u1;  // in (0, 1): a zero draw is redrawn
  double u2;  // in [0, 1)
};

UniformPair NextUniformPair(Rng& rng) {
  double u1;
  do {
    u1 = rng.NextDouble();
  } while (u1 <= 0.0);
  return {u1, rng.NextDouble()};
}

double BoxMullerRadius(double u1) { return std::sqrt(-2.0 * std::log(u1)); }

double BoxMuller(UniformPair p, double mean, double stddev) {
  const double r = BoxMullerRadius(p.u1);
  return mean + stddev * r * std::cos(2.0 * std::numbers::pi * p.u2);
}

}  // namespace

Rng::Rng(uint64_t seed) {
  uint64_t sm = seed;
  for (auto& s : s_) s = SplitMix64(sm);
}

uint64_t Rng::NextUInt64() {
  const uint64_t result = Rotl(s_[0] + s_[3], 23) + s_[0];
  const uint64_t t = s_[1] << 17;
  s_[2] ^= s_[0];
  s_[3] ^= s_[1];
  s_[1] ^= s_[2];
  s_[0] ^= s_[3];
  s_[2] ^= t;
  s_[3] = Rotl(s_[3], 45);
  return result;
}

double Rng::NextDouble() {
  // 53 high bits -> [0, 1).
  return static_cast<double>(NextUInt64() >> 11) * 0x1.0p-53;
}

double Rng::Uniform(double lo, double hi) {
  TTREC_CHECK_CONFIG(lo <= hi, "Uniform: lo > hi");
  return lo + (hi - lo) * NextDouble();
}

int64_t Rng::RandInt(int64_t n) {
  TTREC_CHECK_CONFIG(n > 0, "RandInt: n must be positive, got ", n);
  // Rejection to avoid modulo bias.
  const uint64_t un = static_cast<uint64_t>(n);
  const uint64_t limit = max() - max() % un;
  uint64_t x;
  do {
    x = NextUInt64();
  } while (x >= limit);
  return static_cast<int64_t>(x % un);
}

double Rng::Normal(double mean, double stddev) {
  // Box-Muller; uses one fresh pair per call for reproducibility under
  // Split()/interleaving (no cached second value).
  return BoxMuller(NextUniformPair(*this), mean, stddev);
}

double Rng::TruncatedTailNormal(double threshold) {
  // The largest radius, and so the largest |x|, a pair reaches: u1 = 2^-53,
  // the smallest nonzero NextDouble(). Past it no draw passes.
  static const double max_radius = BoxMullerRadius(0x1.0p-53);
  TTREC_CHECK_CONFIG(threshold >= 0.0 && threshold < max_radius,
                     "TruncatedTailNormal: threshold must be in [0, ",
                     max_radius, "), the largest |x| a draw reaches; got ",
                     threshold);
  // Plain rejection of Normal() draws, at t = 2 about 22 pairs per
  // accepted value. The radius exceeds t only when u1 < e^(-t^2/2); for
  // u1 >= e^(-t^2/2) * (1 + 1e-9) the computed radius is at most t (the
  // margin dwarfs the few-ulp error of exp, log and sqrt) and |cos| <= 1,
  // so |x| <= t and plain rejection would drop the pair too. Such pairs
  // skip the transform: 86.5% of them at t = 2, leaving about 3 transforms
  // per accepted value. The pairs drawn, the value returned and the engine
  // state after the call are plain rejection's.
  const double skip_from =
      std::exp(-0.5 * threshold * threshold) * (1.0 + 1e-9);
  for (;;) {
    const UniformPair p = NextUniformPair(*this);
    if (p.u1 >= skip_from) continue;
    const double x = BoxMuller(p, 0.0, 1.0);
    if (std::abs(x) > threshold) return x;
  }
}

bool Rng::Bernoulli(double p) { return NextDouble() < p; }

Rng Rng::Split() { return Rng(NextUInt64()); }

void Rng::GetState(uint64_t out[4]) const {
  for (int i = 0; i < 4; ++i) out[i] = s_[i];
}

void Rng::SetState(const uint64_t in[4]) {
  for (int i = 0; i < 4; ++i) s_[i] = in[i];
}

double TailNormalStddev(double threshold) {
  if (threshold <= 0.0) return 1.0;
  // For X ~ N(0,1) conditioned on |X| > t: E[X]=0 and
  // Var = 1 + t*phi(t)/Q(t), with phi the pdf and Q the two-sided tail mass
  // of the half distribution. Derivation: symmetry + the truncated-normal
  // second moment.
  const double t = threshold;
  const double phi =
      std::exp(-0.5 * t * t) / std::sqrt(2.0 * std::numbers::pi);
  const double tail = 0.5 * std::erfc(t / std::numbers::sqrt2);  // P(X > t)
  return std::sqrt(1.0 + t * phi / tail);
}

// ---------------------------------------------------------------------------
// ZipfSampler (Hormann & Derflinger rejection-inversion, as in Apache
// Commons RejectionInversionZipfSampler). Internally samples ranks in
// [1, n] with pmf 1/k^s and returns k-1.
// ---------------------------------------------------------------------------

namespace {

// log1p(x)/x, stable near zero.
double Helper1(double x) {
  if (std::abs(x) > 1e-8) return std::log1p(x) / x;
  return 1.0 - x * (0.5 - x * (1.0 / 3.0 - 0.25 * x));
}

// expm1(x)/x, stable near zero.
double Helper2(double x) {
  if (std::abs(x) > 1e-8) return std::expm1(x) / x;
  return 1.0 + 0.5 * x * (1.0 + x / 3.0 * (1.0 + 0.25 * x));
}

}  // namespace

ZipfSampler::ZipfSampler(int64_t n, double s) : n_(n), s_(s) {
  TTREC_CHECK_CONFIG(n >= 1, "ZipfSampler: n must be >= 1, got ", n);
  TTREC_CHECK_CONFIG(s >= 0.0, "ZipfSampler: s must be >= 0, got ", s);
  h_integral_x1_ = HIntegral(1.5) - 1.0;
  h_integral_n_ = HIntegral(static_cast<double>(n) + 0.5);
  threshold_ = 2.0 - HIntegralInverse(HIntegral(2.5) - H(2.0));
}

double ZipfSampler::H(double x) const { return std::exp(-s_ * std::log(x)); }

double ZipfSampler::HIntegral(double x) const {
  const double log_x = std::log(x);
  return Helper2((1.0 - s_) * log_x) * log_x;
}

double ZipfSampler::HIntegralInverse(double x) const {
  double t = x * (1.0 - s_);
  if (t < -1.0) t = -1.0;  // guard rounding at the left boundary
  return std::exp(Helper1(t) * x);
}

int64_t ZipfSampler::Sample(Rng& rng) const {
  if (n_ == 1) return 0;
  if (s_ == 0.0) return rng.RandInt(n_);
  for (;;) {
    const double u =
        h_integral_n_ + rng.NextDouble() * (h_integral_x1_ - h_integral_n_);
    const double x = HIntegralInverse(u);
    int64_t k = static_cast<int64_t>(x + 0.5);
    if (k < 1) {
      k = 1;
    } else if (k > n_) {
      k = n_;
    }
    if (static_cast<double>(k) - x <= threshold_ ||
        u >= HIntegral(static_cast<double>(k) + 0.5) -
                 H(static_cast<double>(k))) {
      return k - 1;
    }
  }
}

double ZipfSampler::Pmf(int64_t k) const {
  TTREC_CHECK_INDEX(k >= 0 && k < n_, "ZipfSampler::Pmf: rank out of range");
  if (norm_ < 0.0) {
    double z = 0.0;
    for (int64_t i = 1; i <= n_; ++i) z += std::pow(static_cast<double>(i), -s_);
    norm_ = z;
  }
  return std::pow(static_cast<double>(k + 1), -s_) / norm_;
}

IndexShuffle::IndexShuffle(int64_t n, uint64_t seed) : n_(n) {
  TTREC_CHECK_CONFIG(n >= 1, "IndexShuffle: n must be >= 1");
  Rng rng(seed);
  // Pick a multiplier coprime with n (odd + not sharing factors). Try
  // random candidates; density of coprimes guarantees quick success.
  do {
    a_ = 1 + rng.RandInt(n_);
  } while (std::gcd(a_, n_) != 1);
  b_ = rng.RandInt(n_);
}

int64_t IndexShuffle::Map(int64_t k) const {
  TTREC_CHECK_INDEX(k >= 0 && k < n_, "IndexShuffle::Map: index out of range");
  return static_cast<int64_t>(
      (static_cast<__int128>(a_) * k + b_) % n_);
}

void FillUniform(Rng& rng, std::vector<float>& out, double lo, double hi) {
  for (float& x : out) x = static_cast<float>(rng.Uniform(lo, hi));
}

void FillNormal(Rng& rng, std::vector<float>& out, double mean, double stddev) {
  for (float& x : out) x = static_cast<float>(rng.Normal(mean, stddev));
}

}  // namespace ttrec
