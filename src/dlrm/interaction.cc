#include "dlrm/interaction.h"

#include "tensor/check.h"
#include "tensor/gemm.h"

namespace ttrec {

DotInteraction::DotInteraction(int num_features, int64_t dim)
    : num_features_(num_features), dim_(dim) {
  TTREC_CHECK_CONFIG(num_features >= 1, "DotInteraction: need >= 1 feature");
  TTREC_CHECK_CONFIG(dim >= 1, "DotInteraction: dim must be positive");
}

void DotInteraction::Interact(const std::vector<const float*>& features,
                              int64_t batch, float* out) const {
  TTREC_CHECK_SHAPE(static_cast<int>(features.size()) == num_features_,
                    "DotInteraction: expected ", num_features_,
                    " feature blocks, got ", features.size());
  PairwiseDots(num_features_, dim_, features.data(), batch, out);
}

void DotInteraction::Backward(const std::vector<const float*>& features,
                              const float* grad_out, int64_t batch,
                              const std::vector<float*>& grads) const {
  TTREC_CHECK_SHAPE(static_cast<int>(features.size()) == num_features_ &&
                        static_cast<int>(grads.size()) == num_features_,
                    "DotInteraction: expected ", num_features_,
                    " feature and gradient blocks");
  PairwiseDotsBackward(num_features_, dim_, features.data(), grad_out, batch,
                       grads.data());
}

void DotInteraction::Forward(const std::vector<const float*>& features,
                             int64_t batch, float* out) {
  Interact(features, batch, out);
  last_features_ = features;
  last_batch_ = batch;
}

void DotInteraction::Backward(const float* grad_out, int64_t batch,
                              const std::vector<float*>& grads) const {
  TTREC_CHECK(batch == last_batch_,
              "Backward batch size does not match the preceding Forward");
  Backward(last_features_, grad_out, batch, grads);
}

}  // namespace ttrec
