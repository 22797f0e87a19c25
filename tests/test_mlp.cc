// MLP layers: forward shapes, gradient checks against finite differences,
// SGD semantics, and interaction/loss gradient checks.
#include <gtest/gtest.h>

#include <cmath>
#include <cstring>
#include <vector>

#include "dlrm/interaction.h"
#include "dlrm/loss.h"
#include "dlrm/mlp.h"
#include "tensor/check.h"

namespace ttrec {
namespace {

std::vector<float> RandomVec(Rng& rng, int64_t n, double scale = 1.0) {
  std::vector<float> v(static_cast<size_t>(n));
  for (float& x : v) x = static_cast<float>(rng.Uniform(-scale, scale));
  return v;
}

TEST(LinearLayer, ForwardMatchesManual) {
  Rng rng(1);
  LinearLayer layer(2, 3, /*relu=*/false, rng);
  layer.weight().Fill(0.0f);
  layer.weight().at({0, 0}) = 1.0f;  // y0 = x0
  layer.weight().at({1, 1}) = 2.0f;  // y1 = 2 x1
  layer.weight().at({2, 0}) = 1.0f;  // y2 = x0 + x1 + b2
  layer.weight().at({2, 1}) = 1.0f;
  layer.bias().Fill(0.0f);
  layer.bias().at({2}) = 0.5f;

  std::vector<float> x = {1.0f, 2.0f, -1.0f, 0.0f};
  std::vector<float> y(6);
  layer.Forward(x.data(), 2, y.data());
  EXPECT_FLOAT_EQ(y[0], 1.0f);
  EXPECT_FLOAT_EQ(y[1], 4.0f);
  EXPECT_FLOAT_EQ(y[2], 3.5f);
  EXPECT_FLOAT_EQ(y[3], -1.0f);
  EXPECT_FLOAT_EQ(y[4], 0.0f);
  EXPECT_FLOAT_EQ(y[5], -0.5f);
}

TEST(LinearLayer, ReluClampsAndGates) {
  Rng rng(2);
  LinearLayer layer(1, 1, /*relu=*/true, rng);
  layer.weight().at({0, 0}) = 1.0f;
  layer.bias().at({0}) = 0.0f;
  std::vector<float> x = {-2.0f};
  std::vector<float> y(1);
  layer.Forward(x.data(), 1, y.data());
  EXPECT_FLOAT_EQ(y[0], 0.0f);
  // Gradient through a dead unit is zero.
  std::vector<float> dy = {1.0f}, dx(1, -9.0f);
  layer.Backward(x.data(), y.data(), dy.data(), 1, dx.data());
  EXPECT_FLOAT_EQ(dx[0], 0.0f);
  EXPECT_FLOAT_EQ(layer.weight_grad()[0], 0.0f);
}

// The gate is a select on y <= 0: both zeros switch the unit off, a NaN
// activation fails the comparison and passes dy through, and a tiny
// positive one is on. With batch 1, the bias gradient is the gated dy.
TEST(LinearLayer, ReluGateOnSignedZeroNanAndTiny) {
  Rng rng(3);
  LinearLayer layer(2, 4, /*relu=*/true, rng);
  const std::vector<float> x = {0.5f, -1.5f};
  const std::vector<float> y = {-0.0f, 0.0f, std::nanf(""), 1e-30f};
  const std::vector<float> dy = {1.0f, -2.0f, 3.0f, -4.0f};
  std::vector<float> dx(2);
  layer.Backward(x.data(), y.data(), dy.data(), 1, dx.data());
  const std::vector<float> want = {0.0f, 0.0f, 3.0f, -4.0f};
  for (size_t j = 0; j < want.size(); ++j) {
    const float got = layer.bias_grad()[static_cast<int64_t>(j)];
    EXPECT_EQ(std::memcmp(&got, &want[j], sizeof(float)), 0)
        << "y=" << y[j] << ": got " << got << " want " << want[j];
  }
}

class MlpGradSweep : public ::testing::TestWithParam<
                         std::tuple<int64_t, int64_t, int64_t, bool>> {};

// Runs the forward and backward DlrmModel calls: the const Forward writes
// the hidden activations into caller-owned buffers, and Backward reads them.
TEST_P(MlpGradSweep, FiniteDifferenceCheck) {
  const auto [in_dim, hidden, batch, final_relu] = GetParam();
  Rng rng(static_cast<uint64_t>(in_dim * 13 + hidden * 7 + batch));
  Mlp mlp({in_dim, hidden, 3}, final_relu, rng);
  std::vector<float> x = RandomVec(rng, batch * in_dim);
  std::vector<float> g = RandomVec(rng, batch * 3);
  std::vector<float> y(static_cast<size_t>(batch * 3));
  std::vector<std::vector<float>> act;

  auto loss = [&]() {
    mlp.Forward(x.data(), batch, y.data(), act);
    double s = 0.0;
    for (size_t i = 0; i < y.size(); ++i) s += static_cast<double>(g[i]) * y[i];
    return s;
  };
  (void)loss();  // fills y and act for Backward
  std::vector<float> dx(static_cast<size_t>(batch * in_dim));
  mlp.Backward(x.data(), act, y.data(), g.data(), batch, dx.data());

  const double eps = 1e-3;
  // Check dX entries.
  Rng pick(7);
  for (int trial = 0; trial < 4; ++trial) {
    const int64_t i = pick.RandInt(batch * in_dim);
    const float orig = x[static_cast<size_t>(i)];
    x[static_cast<size_t>(i)] = orig + static_cast<float>(eps);
    const double lp = loss();
    x[static_cast<size_t>(i)] = orig - static_cast<float>(eps);
    const double lm = loss();
    x[static_cast<size_t>(i)] = orig;
    const double fd = (lp - lm) / (2 * eps);
    EXPECT_NEAR(dx[static_cast<size_t>(i)], fd, 5e-2 * (std::abs(fd) + 1.0));
  }
  // Check a few weight entries of each layer.
  (void)loss();
  mlp.ZeroGrad();
  mlp.Backward(x.data(), act, y.data(), g.data(), batch, nullptr);
  for (int l = 0; l < mlp.num_layers(); ++l) {
    Tensor& w = mlp.layer(l).weight();
    const Tensor& dw = mlp.layer(l).weight_grad();
    for (int trial = 0; trial < 3; ++trial) {
      const int64_t i = pick.RandInt(w.numel());
      const float orig = w[i];
      w[i] = orig + static_cast<float>(eps);
      const double lp = loss();
      w[i] = orig - static_cast<float>(eps);
      const double lm = loss();
      w[i] = orig;
      const double fd = (lp - lm) / (2 * eps);
      EXPECT_NEAR(dw[i], fd, 5e-2 * (std::abs(fd) + 1.0))
          << "layer " << l << " entry " << i;
    }
  }
}

INSTANTIATE_TEST_SUITE_P(
    Shapes, MlpGradSweep,
    ::testing::Combine(::testing::Values(2, 5), ::testing::Values(3, 8),
                       ::testing::Values(1, 4), ::testing::Bool()));

TEST(Mlp, SgdReducesRegressionLoss) {
  Rng rng(5);
  Mlp mlp({4, 16, 2}, /*final_relu=*/false, rng);
  std::vector<float> x = RandomVec(rng, 8 * 4);
  std::vector<float> target = RandomVec(rng, 8 * 2);
  double first = -1.0, last = -1.0;
  for (int step = 0; step < 300; ++step) {
    std::vector<float> y(16);
    mlp.Forward(x.data(), 8, y.data());
    std::vector<float> dy(16);
    double loss = 0.0;
    for (size_t i = 0; i < y.size(); ++i) {
      const float d = y[i] - target[i];
      loss += 0.5 * d * d;
      dy[i] = d;
    }
    if (step == 0) first = loss;
    last = loss;
    mlp.Backward(dy.data(), 8, nullptr);
    mlp.ApplySgd(0.02f);
  }
  EXPECT_LT(last, 0.05 * first);
}

TEST(Mlp, RejectsBadConfigAndBatchMismatch) {
  Rng rng(6);
  EXPECT_THROW(Mlp({4}, false, rng), ConfigError);
  Mlp mlp({2, 2}, false, rng);
  std::vector<float> x(4), y(4), dy(6);
  mlp.Forward(x.data(), 2, y.data());
  EXPECT_THROW(mlp.Backward(dy.data(), 3, nullptr), TtRecError);
}

TEST(Mlp, ParamCountFormula) {
  Rng rng(7);
  Mlp mlp({13, 64, 16}, true, rng);
  EXPECT_EQ(mlp.NumParams(), 13 * 64 + 64 + 64 * 16 + 16);
  EXPECT_EQ(mlp.MemoryBytes(), mlp.NumParams() * 4);
}

// ---------------------------------------------------------------------------
// DotInteraction
// ---------------------------------------------------------------------------

TEST(DotInteraction, ForwardHandComputed) {
  DotInteraction inter(3, 2);
  EXPECT_EQ(inter.num_pairs(), 3);
  EXPECT_EQ(inter.out_dim(), 2 + 3);
  // One sample: z0=(1,2), z1=(3,4), z2=(-1,0).
  std::vector<float> z0 = {1, 2}, z1 = {3, 4}, z2 = {-1, 0};
  std::vector<const float*> feats = {z0.data(), z1.data(), z2.data()};
  std::vector<float> out(5);
  inter.Forward(feats, 1, out.data());
  EXPECT_FLOAT_EQ(out[0], 1.0f);
  EXPECT_FLOAT_EQ(out[1], 2.0f);
  EXPECT_FLOAT_EQ(out[2], 11.0f);  // z0.z1
  EXPECT_FLOAT_EQ(out[3], -1.0f);  // z0.z2
  EXPECT_FLOAT_EQ(out[4], -3.0f);  // z1.z2
}

// Runs Interact and the Backward that reads the feature blocks, the pair
// DlrmModel calls.
TEST(DotInteraction, BackwardFiniteDifference) {
  const int F = 4;
  const int64_t d = 3, B = 2;
  DotInteraction inter(F, d);
  Rng rng(9);
  std::vector<std::vector<float>> feats(static_cast<size_t>(F));
  std::vector<const float*> fptrs;
  for (int f = 0; f < F; ++f) {
    feats[static_cast<size_t>(f)] = RandomVec(rng, B * d);
    fptrs.push_back(feats[static_cast<size_t>(f)].data());
  }
  std::vector<float> g = RandomVec(rng, B * inter.out_dim());

  auto loss = [&]() {
    std::vector<float> out(static_cast<size_t>(B * inter.out_dim()));
    inter.Interact(fptrs, B, out.data());
    double s = 0.0;
    for (size_t i = 0; i < out.size(); ++i) {
      s += static_cast<double>(g[i]) * out[i];
    }
    return s;
  };
  (void)loss();
  std::vector<std::vector<float>> grads(static_cast<size_t>(F));
  std::vector<float*> gptrs;
  for (int f = 0; f < F; ++f) {
    grads[static_cast<size_t>(f)].resize(static_cast<size_t>(B * d));
    gptrs.push_back(grads[static_cast<size_t>(f)].data());
  }
  inter.Backward(fptrs, g.data(), B, gptrs);

  const double eps = 1e-3;
  Rng pick(10);
  for (int f = 0; f < F; ++f) {
    for (int trial = 0; trial < 3; ++trial) {
      const int64_t i = pick.RandInt(B * d);
      float& slot = feats[static_cast<size_t>(f)][static_cast<size_t>(i)];
      const float orig = slot;
      slot = orig + static_cast<float>(eps);
      const double lp = loss();
      slot = orig - static_cast<float>(eps);
      const double lm = loss();
      slot = orig;
      const double fd = (lp - lm) / (2 * eps);
      EXPECT_NEAR(grads[static_cast<size_t>(f)][static_cast<size_t>(i)], fd,
                  5e-2 * (std::abs(fd) + 1.0));
    }
  }
}

TEST(DotInteraction, ForwardBackwardPairMatchesInteract) {
  const int F = 3;
  const int64_t d = 4, B = 3;
  DotInteraction inter(F, d);
  Rng rng(12);
  std::vector<std::vector<float>> feats;
  std::vector<const float*> fptrs;
  for (int f = 0; f < F; ++f) feats.push_back(RandomVec(rng, B * d));
  for (const auto& f : feats) fptrs.push_back(f.data());
  const std::vector<float> g = RandomVec(rng, B * inter.out_dim());

  std::vector<float> out_a(static_cast<size_t>(B * inter.out_dim()));
  std::vector<float> out_b(out_a.size());
  inter.Forward(fptrs, B, out_a.data());
  inter.Interact(fptrs, B, out_b.data());
  EXPECT_EQ(out_a, out_b);

  std::vector<std::vector<float>> ga(
      F, std::vector<float>(static_cast<size_t>(B * d)));
  std::vector<std::vector<float>> gb = ga;
  std::vector<float*> pa, pb;
  for (int f = 0; f < F; ++f) {
    pa.push_back(ga[static_cast<size_t>(f)].data());
    pb.push_back(gb[static_cast<size_t>(f)].data());
  }
  inter.Backward(g.data(), B, pa);
  inter.Backward(fptrs, g.data(), B, pb);
  EXPECT_EQ(ga, gb);
  EXPECT_THROW(inter.Backward(g.data(), B - 1, pa), TtRecError);
}

TEST(DotInteraction, Validation) {
  DotInteraction inter(2, 2);
  std::vector<float> z(4);
  std::vector<const float*> one = {z.data()};
  std::vector<float> out(8);
  EXPECT_THROW(inter.Forward(one, 1, out.data()), ShapeError);
  EXPECT_THROW(DotInteraction(0, 2), ConfigError);
}

// ---------------------------------------------------------------------------
// Loss and metrics
// ---------------------------------------------------------------------------

TEST(BceWithLogits, MatchesClosedFormAndGradient) {
  std::vector<float> logits = {0.0f, 2.0f, -3.0f};
  std::vector<float> labels = {1.0f, 0.0f, 1.0f};
  std::vector<float> grad(3);
  const double loss = BceWithLogits(logits, labels, grad.data());
  auto bce = [](double x, double y) {
    const double p = 1.0 / (1.0 + std::exp(-x));
    return -(y * std::log(p) + (1 - y) * std::log(1 - p));
  };
  const double expected =
      (bce(0, 1) + bce(2, 0) + bce(-3, 1)) / 3.0;
  EXPECT_NEAR(loss, expected, 1e-9);
  for (int i = 0; i < 3; ++i) {
    const double sig = 1.0 / (1.0 + std::exp(-logits[static_cast<size_t>(i)]));
    EXPECT_NEAR(grad[static_cast<size_t>(i)],
                (sig - labels[static_cast<size_t>(i)]) / 3.0, 1e-7);
  }
}

TEST(BceWithLogits, StableAtExtremeLogits) {
  std::vector<float> logits = {100.0f, -100.0f};
  std::vector<float> labels = {1.0f, 0.0f};
  const double loss = BceWithLogits(logits, labels, nullptr);
  EXPECT_TRUE(std::isfinite(loss));
  EXPECT_NEAR(loss, 0.0, 1e-6);
  EXPECT_THROW(
      BceWithLogits(logits, std::vector<float>{0.5f, 0.0f}, nullptr),
      TtRecError);
}

TEST(BinaryAccuracy, ThresholdAtZeroLogit) {
  std::vector<float> logits = {1.0f, -1.0f, 0.5f, -0.5f};
  std::vector<float> labels = {1.0f, 0.0f, 0.0f, 1.0f};
  EXPECT_DOUBLE_EQ(BinaryAccuracy(logits, labels), 0.5);
}

TEST(AucRoc, PerfectAndRandomAndTies) {
  std::vector<float> labels = {1, 0, 1, 0};
  EXPECT_DOUBLE_EQ(
      AucRoc(std::vector<float>{0.9f, 0.1f, 0.8f, 0.2f}, labels), 1.0);
  EXPECT_DOUBLE_EQ(
      AucRoc(std::vector<float>{0.1f, 0.9f, 0.2f, 0.8f}, labels), 0.0);
  // All-ties: 0.5.
  EXPECT_DOUBLE_EQ(
      AucRoc(std::vector<float>{0.5f, 0.5f, 0.5f, 0.5f}, labels), 0.5);
  // Single class: 0.5 by convention.
  EXPECT_DOUBLE_EQ(AucRoc(std::vector<float>{0.1f, 0.9f},
                          std::vector<float>{1.0f, 1.0f}),
                   0.5);
}

}  // namespace
}  // namespace ttrec
