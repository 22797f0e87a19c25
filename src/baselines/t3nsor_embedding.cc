#include "baselines/t3nsor_embedding.h"

#include <algorithm>

#include "tensor/check.h"

namespace ttrec {

T3nsorEmbeddingBag::T3nsorEmbeddingBag(TtEmbeddingConfig config, TtInit init,
                                       Rng& rng)
    : tt_(config, init, rng), pooling_(config.pooling) {}

void T3nsorEmbeddingBag::ForwardInference(const CsrBatch& batch,
                                          float* output) const {
  batch.Validate(num_rows());
  const int64_t N = emb_dim();
  // Full on-the-fly decompression: this allocation IS the baseline's
  // memory behaviour (Figure 8).
  const Tensor full = tt_.cores().MaterializeFull();

  const int64_t n_bags = batch.num_bags();
  std::fill(output, output + n_bags * N, 0.0f);
  for (int64_t b = 0; b < n_bags; ++b) {
    const int64_t begin = batch.offsets[static_cast<size_t>(b)];
    const int64_t end = batch.offsets[static_cast<size_t>(b) + 1];
    const int64_t bag_size = end - begin;
    float* dst = output + b * N;
    for (int64_t l = begin; l < end; ++l) {
      const float w = batch.LookupWeight(l, bag_size, pooling_);
      const float* src =
          full.data() + batch.indices[static_cast<size_t>(l)] * N;
      for (int64_t j = 0; j < N; ++j) dst[j] += w * src[j];
    }
  }
}

void T3nsorEmbeddingBag::Backward(const CsrBatch& batch,
                                  const float* grad_output) {
  // Gradient math w.r.t. the TT cores is identical to TT-Rec's; T3nsor's
  // distinction is the forward decompression strategy.
  tt_.Backward(batch, grad_output);
}

void T3nsorEmbeddingBag::ApplySgd(float lr) { tt_.ApplySgd(lr); }

}  // namespace ttrec
