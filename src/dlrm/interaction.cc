#include "dlrm/interaction.h"

#include <cstring>

#include "tensor/check.h"

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
  const int F = num_features_;
  const int64_t d = dim_;
  for (int f = 0; f < F; ++f) {
    TTREC_CHECK_INDEX(features[static_cast<size_t>(f)] != nullptr,
                      "DotInteraction: null feature block ", f);
  }
  const int64_t od = out_dim();
  for (int64_t b = 0; b < batch; ++b) {
    float* ob = out + b * od;
    // Leading copy of z_0, then the upper-triangle dots.
    std::memcpy(ob, features[0] + b * d, static_cast<size_t>(d) * sizeof(float));
    int64_t p = d;
    for (int i = 0; i < F; ++i) {
      const float* zi = features[static_cast<size_t>(i)] + b * d;
      for (int j = i + 1; j < F; ++j) {
        const float* zj = features[static_cast<size_t>(j)] + b * d;
        float dot = 0.0f;
        for (int64_t k = 0; k < d; ++k) dot += zi[k] * zj[k];
        ob[p++] = dot;
      }
    }
  }
}

void DotInteraction::Backward(const std::vector<const float*>& features,
                              const float* grad_out, int64_t batch,
                              const std::vector<float*>& grads) const {
  TTREC_CHECK_SHAPE(static_cast<int>(features.size()) == num_features_ &&
                        static_cast<int>(grads.size()) == num_features_,
                    "DotInteraction: expected ", num_features_,
                    " feature and gradient blocks");
  const int F = num_features_;
  const int64_t d = dim_;
  const int64_t od = out_dim();

  for (int f = 0; f < F; ++f) {
    TTREC_CHECK_INDEX(grads[static_cast<size_t>(f)] != nullptr,
                      "DotInteraction: null gradient block ", f);
    std::memset(grads[static_cast<size_t>(f)], 0,
                static_cast<size_t>(batch * d) * sizeof(float));
  }

  for (int64_t b = 0; b < batch; ++b) {
    const float* gb = grad_out + b * od;
    // d z_0 gets the pass-through part.
    for (int64_t k = 0; k < d; ++k) grads[0][b * d + k] += gb[k];
    int64_t p = d;
    for (int i = 0; i < F; ++i) {
      const float* zi = features[static_cast<size_t>(i)] + b * d;
      for (int j = i + 1; j < F; ++j) {
        const float* zj = features[static_cast<size_t>(j)] + b * d;
        const float g = gb[p++];
        float* gi = grads[static_cast<size_t>(i)] + b * d;
        float* gj = grads[static_cast<size_t>(j)] + b * d;
        for (int64_t k = 0; k < d; ++k) {
          gi[k] += g * zj[k];
          gj[k] += g * zi[k];
        }
      }
    }
  }
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
