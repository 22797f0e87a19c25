#include "dlrm/mlp.h"

#include <cmath>

#include "tensor/aligned.h"
#include "tensor/check.h"
#include "tensor/gemm.h"

namespace ttrec {

LinearLayer::LinearLayer(int64_t in_dim, int64_t out_dim, bool relu, Rng& rng)
    : in_dim_(in_dim),
      out_dim_(out_dim),
      relu_(relu),
      weight_({out_dim, in_dim}),
      bias_({out_dim}),
      dweight_({out_dim, in_dim}),
      dbias_({out_dim}) {
  TTREC_CHECK_CONFIG(in_dim >= 1 && out_dim >= 1,
                     "LinearLayer: dims must be positive");
  const double w_std =
      std::sqrt(2.0 / static_cast<double>(in_dim + out_dim));
  for (int64_t i = 0; i < weight_.numel(); ++i) {
    weight_.data()[i] = static_cast<float>(rng.Normal(0.0, w_std));
  }
  const double b_std = std::sqrt(1.0 / static_cast<double>(out_dim));
  for (int64_t i = 0; i < bias_.numel(); ++i) {
    bias_.data()[i] = static_cast<float>(rng.Normal(0.0, b_std));
  }
}

void LinearLayer::Forward(const float* x, int64_t batch, float* y) const {
  TTREC_CHECK(batch >= 0, "negative batch");
  // y = x * W^T.
  Gemm(Trans::kNo, Trans::kYes, batch, out_dim_, in_dim_, 1.0f, x, in_dim_,
       weight_.data(), in_dim_, 0.0f, y, out_dim_);
  for (int64_t b = 0; b < batch; ++b) {
    float* yb = y + b * out_dim_;
    for (int64_t j = 0; j < out_dim_; ++j) {
      yb[j] += bias_.data()[j];
      if (relu_ && yb[j] < 0.0f) yb[j] = 0.0f;
    }
  }
}

void LinearLayer::Backward(const float* x, const float* y, const float* dy,
                           int64_t batch, float* dx) {
  // ReLU gate: y <= 0 (so 0 and -0 too) treats the unit as off and zeroes
  // dy; a NaN y fails the test and keeps dy. dy[i] is loaded
  // unconditionally, which lets GCC compile the select branch-free (and
  // vectorize it at -O3): a conditional store mispredicted on random signs.
  std::vector<float> dy_eff;
  const float* g = dy;
  if (relu_) {
    dy_eff.resize(static_cast<size_t>(batch * out_dim_));
    float* gate = dy_eff.data();
    for (int64_t i = 0; i < batch * out_dim_; ++i) {
      const float d = dy[i];
      gate[i] = y[i] <= 0.0f ? 0.0f : d;
    }
    g = gate;
  }
  // dW += g^T x : (out x in).
  Gemm(Trans::kYes, Trans::kNo, out_dim_, in_dim_, batch, 1.0f, g, out_dim_,
       x, in_dim_, 1.0f, dweight_.data(), in_dim_);
  // db += column sums of g.
  for (int64_t b = 0; b < batch; ++b) {
    const float* gb = g + b * out_dim_;
    for (int64_t j = 0; j < out_dim_; ++j) dbias_.data()[j] += gb[j];
  }
  // dx = g * W : (batch x in).
  if (dx != nullptr) {
    Gemm(Trans::kNo, Trans::kNo, batch, in_dim_, out_dim_, 1.0f, g, out_dim_,
         weight_.data(), in_dim_, 0.0f, dx, in_dim_);
  }
}

void LinearLayer::ApplySgd(float lr) {
  weight_.Axpy(-lr, dweight_);
  bias_.Axpy(-lr, dbias_);
  ZeroGrad();
}

namespace {
void AdagradStep(Tensor& w, Tensor& g, Tensor& state, float lr, float eps) {
  if (state.empty()) state = Tensor(w.shape());
  float* wp = w.data();
  float* gp = g.data();
  float* sp = state.data();
  for (int64_t i = 0; i < w.numel(); ++i) {
    sp[i] += gp[i] * gp[i];
    wp[i] -= lr * gp[i] / (std::sqrt(sp[i]) + eps);
    gp[i] = 0.0f;
  }
}
}  // namespace

void LinearLayer::ApplyAdagrad(float lr, float eps) {
  TTREC_CHECK_CONFIG(eps > 0.0f, "ApplyAdagrad: eps must be positive");
  AdagradStep(weight_, dweight_, adagrad_weight_, lr, eps);
  AdagradStep(bias_, dbias_, adagrad_bias_, lr, eps);
}

void LinearLayer::ZeroGrad() {
  dweight_.Fill(0.0f);
  dbias_.Fill(0.0f);
}

namespace {
double TensorSqNorm(const Tensor& t) {
  double sq = 0.0;
  const float* p = t.data();
  for (int64_t i = 0; i < t.numel(); ++i) {
    sq += static_cast<double>(p[i]) * p[i];
  }
  return sq;
}

void TensorScale(Tensor& t, float scale) {
  float* p = t.data();
  for (int64_t i = 0; i < t.numel(); ++i) p[i] *= scale;
}
}  // namespace

double LinearLayer::GradSqNorm() const {
  return TensorSqNorm(dweight_) + TensorSqNorm(dbias_);
}

void LinearLayer::ScaleGrads(float scale) {
  TensorScale(dweight_, scale);
  TensorScale(dbias_, scale);
}

void LinearLayer::SaveOptState(BinaryWriter& w) const {
  w.WriteU32(adagrad_weight_.empty() ? 0u : 1u);
  if (!adagrad_weight_.empty()) {
    SaveTensor(w, adagrad_weight_);
    SaveTensor(w, adagrad_bias_);
  }
}

void LinearLayer::LoadOptState(BinaryReader& r) {
  const uint32_t present = r.ReadU32();
  if (present == 0) {
    adagrad_weight_ = Tensor();
    adagrad_bias_ = Tensor();
    return;
  }
  TTREC_CHECK_CONFIG(present == 1, "LinearLayer::LoadOptState: bad marker");
  Tensor aw = LoadTensor(r);
  Tensor ab = LoadTensor(r);
  TTREC_CHECK_SHAPE(aw.shape() == weight_.shape() &&
                        ab.shape() == bias_.shape(),
                    "LinearLayer::LoadOptState: accumulator shape mismatch");
  adagrad_weight_ = std::move(aw);
  adagrad_bias_ = std::move(ab);
}

Mlp::Mlp(std::vector<int64_t> dims, bool final_relu, Rng& rng) {
  TTREC_CHECK_CONFIG(dims.size() >= 2, "Mlp: need at least input and output");
  layers_.reserve(dims.size() - 1);
  for (size_t i = 0; i + 1 < dims.size(); ++i) {
    const bool relu = (i + 2 < dims.size()) || final_relu;
    layers_.emplace_back(dims[i], dims[i + 1], relu, rng);
  }
}

void Mlp::Forward(const float* x, int64_t batch, float* y,
                  std::vector<std::vector<float>>& act) const {
  act.resize(layers_.size() - 1);
  const float* cur = x;
  for (size_t i = 0; i < layers_.size(); ++i) {
    float* out;
    if (i + 1 == layers_.size()) {
      out = y;
    } else {
      out = Grow(act[i], batch * layers_[i].out_dim());
    }
    layers_[i].Forward(cur, batch, out);
    cur = out;
  }
}

void Mlp::Backward(const float* x, const std::vector<std::vector<float>>& act,
                   const float* y, const float* dy, int64_t batch, float* dx) {
  std::vector<float> grad_buf;
  const float* cur = dy;
  for (size_t i = layers_.size(); i-- > 0;) {
    const float* in = i == 0 ? x : act[i - 1].data();
    const float* out = i + 1 == layers_.size() ? y : act[i].data();
    if (i == 0) {
      layers_[0].Backward(in, out, cur, batch, dx);
    } else {
      std::vector<float> next(
          static_cast<size_t>(batch * layers_[i].in_dim()));
      layers_[i].Backward(in, out, cur, batch, next.data());
      grad_buf = std::move(next);
      cur = grad_buf.data();
    }
  }
}

void Mlp::Forward(const float* x, int64_t batch, float* y) {
  Forward(x, batch, y, act_);
  last_x_ = x;
  last_y_ = y;
  last_batch_ = batch;
}

void Mlp::Backward(const float* dy, int64_t batch, float* dx) {
  TTREC_CHECK(last_x_ != nullptr && batch == last_batch_,
              "Backward batch size does not match the preceding Forward");
  Backward(last_x_, act_, last_y_, dy, batch, dx);
}

void Mlp::ApplySgd(float lr) {
  for (LinearLayer& l : layers_) l.ApplySgd(lr);
}

void Mlp::ApplyAdagrad(float lr, float eps) {
  for (LinearLayer& l : layers_) l.ApplyAdagrad(lr, eps);
}

void Mlp::ZeroGrad() {
  for (LinearLayer& l : layers_) l.ZeroGrad();
}

void LinearLayer::SaveState(BinaryWriter& w) const {
  SaveTensor(w, weight_);
  SaveTensor(w, bias_);
}

void LinearLayer::LoadState(BinaryReader& r) {
  Tensor w2 = LoadTensor(r);
  Tensor b2 = LoadTensor(r);
  TTREC_CHECK_SHAPE(w2.shape() == weight_.shape() &&
                        b2.shape() == bias_.shape(),
                    "LinearLayer::LoadState: shape mismatch");
  weight_ = std::move(w2);
  bias_ = std::move(b2);
  ZeroGrad();
}

void Mlp::SaveState(BinaryWriter& w) const {
  for (const LinearLayer& l : layers_) l.SaveState(w);
}

void Mlp::LoadState(BinaryReader& r) {
  for (LinearLayer& l : layers_) l.LoadState(r);
}

double Mlp::GradSqNorm() const {
  double sq = 0.0;
  for (const LinearLayer& l : layers_) sq += l.GradSqNorm();
  return sq;
}

void Mlp::ScaleGrads(float scale) {
  for (LinearLayer& l : layers_) l.ScaleGrads(scale);
}

void Mlp::SaveOptState(BinaryWriter& w) const {
  for (const LinearLayer& l : layers_) l.SaveOptState(w);
}

void Mlp::LoadOptState(BinaryReader& r) {
  for (LinearLayer& l : layers_) l.LoadOptState(r);
}

int64_t Mlp::NumParams() const {
  int64_t total = 0;
  for (const LinearLayer& l : layers_) total += l.NumParams();
  return total;
}

}  // namespace ttrec
