#include "baselines/hashed_embedding.h"

#include "tensor/check.h"

namespace ttrec {

HashedEmbeddingBag::HashedEmbeddingBag(int64_t num_rows, int64_t num_buckets,
                                       int64_t emb_dim, PoolingMode pooling,
                                       Rng& rng)
    : num_rows_(num_rows),
      inner_(num_buckets, emb_dim, pooling,
             DenseEmbeddingInit::UniformScaled(), rng) {
  TTREC_CHECK_CONFIG(num_rows >= 1, "HashedEmbeddingBag: num_rows >= 1");
  TTREC_CHECK_CONFIG(num_buckets >= 1 && num_buckets <= num_rows,
                     "HashedEmbeddingBag: buckets must be in [1, num_rows]");
}

int64_t HashedEmbeddingBag::Bucket(int64_t row) const {
  TTREC_CHECK_INDEX(row >= 0 && row < num_rows_,
                    "HashedEmbeddingBag: row out of range");
  uint64_t z = static_cast<uint64_t>(row) * 0x9e3779b97f4a7c15ull;
  z ^= z >> 32;
  z *= 0xd6e8feb86659fd93ull;
  z ^= z >> 32;
  return static_cast<int64_t>(z % static_cast<uint64_t>(inner_.num_rows()));
}

CsrBatch HashedEmbeddingBag::Remap(const CsrBatch& batch) const {
  CsrBatch mapped = batch;
  for (int64_t& idx : mapped.indices) idx = Bucket(idx);
  return mapped;
}

void HashedEmbeddingBag::ForwardInference(const CsrBatch& batch,
                                          float* output) const {
  batch.Validate(num_rows_);
  inner_.ForwardInference(Remap(batch), output);
}

void HashedEmbeddingBag::Backward(const CsrBatch& batch,
                                  const float* grad_output) {
  batch.Validate(num_rows_);
  inner_.Backward(Remap(batch), grad_output);
}

}  // namespace ttrec
