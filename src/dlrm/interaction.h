// DLRM dot-product feature interaction.
//
// Given the bottom-MLP output z_0 and the table outputs z_1..z_m (all
// batch x d), the interaction emits, per sample, the concatenation of z_0
// and the (m+1 choose 2) pairwise dot products <z_i, z_j> for i < j — the
// standard MLPerf-DLRM "dot" interaction feeding the top MLP.
//
// Interact is the one forward, const, shared by training and serving; it
// reads the feature blocks in place, and Backward reads the same blocks.
// Both are thin callers of the SIMD-dispatched PairwiseDots /
// PairwiseDotsBackward kernels (tensor/gemm.h): the scalar tier runs the
// original loops, the vector tiers one fixed-order FMA chain per element,
// sample by sample, so a sample's result never depends on the batch size
// or its position in the batch.
#pragma once

#include <cstdint>
#include <vector>

namespace ttrec {

class DotInteraction {
 public:
  /// `num_features` = 1 + number of embedding tables; `dim` = embedding /
  /// bottom-MLP output dimension.
  DotInteraction(int num_features, int64_t dim);

  int num_features() const { return num_features_; }
  int64_t dim() const { return dim_; }
  int64_t num_pairs() const {
    return static_cast<int64_t>(num_features_) * (num_features_ - 1) / 2;
  }
  /// Per-sample output width: d + (F choose 2).
  int64_t out_dim() const { return dim_ + num_pairs(); }

  /// features[f] points at a (batch x dim) block; features[0] is the bottom
  /// MLP output. Writes out (batch x out_dim). Const and safe for
  /// concurrent callers.
  void Interact(const std::vector<const float*>& features, int64_t batch,
                float* out) const;

  /// Backward of the Interact that read `features`: grads[f] receives
  /// dL/d(features[f]) (batch x dim, overwritten).
  void Backward(const std::vector<const float*>& features,
                const float* grad_out, int64_t batch,
                const std::vector<float*>& grads) const;

  /// The same pair for callers that keep no activations: Forward remembers
  /// the feature pointers, whose blocks must stay unchanged until Backward,
  /// which must pass the same batch.
  void Forward(const std::vector<const float*>& features, int64_t batch,
               float* out);
  void Backward(const float* grad_out, int64_t batch,
                const std::vector<float*>& grads) const;

 private:
  int num_features_;
  int64_t dim_;
  // The last Forward's feature blocks and batch.
  std::vector<const float*> last_features_;
  int64_t last_batch_ = 0;
};

}  // namespace ttrec
