// Multi-layer perceptron for the DLRM's bottom (dense-feature) and top
// (post-interaction) towers, with manual backprop and SGD.
//
// Each layer has one forward, const, which training and serving share. The
// caller keeps the activations it writes (DlrmModel keeps them in its
// InferenceScratch) and hands them back to Backward, so no layer holds a
// copy of its input or output.
//
// Layers are Linear (+ optional ReLU). Weights use the DLRM reference
// initialization: W ~ N(0, sqrt(2/(fan_in + fan_out))), b ~ N(0, sqrt(1/out)).
#pragma once

#include <cstdint>
#include <vector>

#include "tensor/random.h"
#include "tensor/serialize.h"
#include "tensor/tensor.h"

namespace ttrec {

/// One fully-connected layer. Forward is const; Backward reads the
/// activations of the forward it differentiates from its caller.
class LinearLayer {
 public:
  LinearLayer(int64_t in_dim, int64_t out_dim, bool relu, Rng& rng);

  int64_t in_dim() const { return in_dim_; }
  int64_t out_dim() const { return out_dim_; }
  bool relu() const { return relu_; }

  /// y (batch x out) = act(x (batch x in) * W^T + b). Const and safe for
  /// concurrent callers.
  void Forward(const float* x, int64_t batch, float* y) const;

  /// Backward of the Forward that read `x` and wrote `y`: accumulates dW/db
  /// from dy (batch x out); writes dx (batch x in) unless null.
  void Backward(const float* x, const float* y, const float* dy,
                int64_t batch, float* dx);

  void ApplySgd(float lr);
  /// Elementwise Adagrad; the accumulator is allocated on first use.
  void ApplyAdagrad(float lr, float eps = 1e-8f);
  void ZeroGrad();

  /// Sum of squares of the accumulated weight and bias gradients.
  double GradSqNorm() const;
  /// Scales accumulated gradients (gradient clipping).
  void ScaleGrads(float scale);

  int64_t NumParams() const { return weight_.numel() + bias_.numel(); }

  /// Serializes / restores weights and biases (not optimizer state).
  void SaveState(BinaryWriter& w) const;
  void LoadState(BinaryReader& r);

  /// Serializes / restores the Adagrad accumulators (empty marker when
  /// Adagrad has never run).
  void SaveOptState(BinaryWriter& w) const;
  void LoadOptState(BinaryReader& r);

  Tensor& weight() { return weight_; }  // out x in
  Tensor& bias() { return bias_; }      // out
  const Tensor& weight_grad() const { return dweight_; }
  const Tensor& bias_grad() const { return dbias_; }

 private:
  int64_t in_dim_;
  int64_t out_dim_;
  bool relu_;
  Tensor weight_;   // out x in
  Tensor bias_;     // out
  Tensor dweight_;
  Tensor dbias_;
  Tensor adagrad_weight_;  // lazily allocated by ApplyAdagrad
  Tensor adagrad_bias_;
};

/// A stack of LinearLayers. `dims` = {in, h1, ..., out}; ReLU after every
/// layer except optionally the last.
class Mlp {
 public:
  Mlp(std::vector<int64_t> dims, bool final_relu, Rng& rng);

  int64_t in_dim() const { return layers_.front().in_dim(); }
  int64_t out_dim() const { return layers_.back().out_dim(); }
  int num_layers() const { return static_cast<int>(layers_.size()); }
  LinearLayer& layer(int i) { return layers_[static_cast<size_t>(i)]; }
  const LinearLayer& layer(int i) const {
    return layers_[static_cast<size_t>(i)];
  }

  /// The tower's forward: y (batch x out_dim) from x (batch x in_dim),
  /// with the hidden layers' outputs written into the caller-owned `act`
  /// (resized to num_layers() - 1 buffers, each grown to fit, never shrunk
  /// or refilled). Const and safe for concurrent callers, each with its own
  /// `act`.
  void Forward(const float* x, int64_t batch, float* y,
               std::vector<std::vector<float>>& act) const;

  /// Backward of the Forward that read `x` and wrote `act` and `y`:
  /// accumulates every layer's gradients from dy and writes dx
  /// (batch x in_dim) unless null.
  void Backward(const float* x, const std::vector<std::vector<float>>& act,
                const float* y, const float* dy, int64_t batch, float* dx);

  /// The same pair for callers that keep no activations: Forward writes
  /// the hidden outputs into the tower and remembers where x and y live,
  /// so both must stay unchanged until Backward, which must pass the same
  /// batch.
  void Forward(const float* x, int64_t batch, float* y);
  void Backward(const float* dy, int64_t batch, float* dx);

  void ApplySgd(float lr);
  void ApplyAdagrad(float lr, float eps = 1e-8f);
  void ZeroGrad();
  double GradSqNorm() const;
  void ScaleGrads(float scale);

  int64_t NumParams() const;
  void SaveState(BinaryWriter& w) const;
  void LoadState(BinaryReader& r);
  void SaveOptState(BinaryWriter& w) const;
  void LoadOptState(BinaryReader& r);
  int64_t MemoryBytes() const {
    return NumParams() * static_cast<int64_t>(sizeof(float));
  }

 private:
  std::vector<LinearLayer> layers_;
  // The last 3-argument Forward's hidden outputs, input, output and batch.
  std::vector<std::vector<float>> act_;
  const float* last_x_ = nullptr;
  const float* last_y_ = nullptr;
  int64_t last_batch_ = 0;
};

}  // namespace ttrec
