#include "baselines/quantized_embedding.h"

#include <algorithm>
#include <cmath>

#include "tensor/check.h"

namespace ttrec {

int64_t QuantizedEmbeddingBag::BytesPerRow() const {
  return (emb_dim_ * bits_ + 7) / 8;
}

QuantizedEmbeddingBag::QuantizedEmbeddingBag(const Tensor& table, int bits,
                                             PoolingMode pooling)
    : num_rows_(table.dim(0)),
      emb_dim_(table.dim(1)),
      bits_(bits),
      pooling_(pooling) {
  TTREC_CHECK_CONFIG(bits == 4 || bits == 8,
                     "QuantizedEmbeddingBag: bits must be 4 or 8, got ", bits);
  TTREC_CHECK_SHAPE(table.ndim() == 2, "table must be 2-d");
  const int64_t levels = (int64_t{1} << bits_) - 1;
  data_.assign(static_cast<size_t>(num_rows_ * BytesPerRow()), 0);
  scale_.resize(static_cast<size_t>(num_rows_));
  offset_.resize(static_cast<size_t>(num_rows_));

  for (int64_t r = 0; r < num_rows_; ++r) {
    const float* row = table.data() + r * emb_dim_;
    float lo = row[0];
    float hi = row[0];
    for (int64_t j = 1; j < emb_dim_; ++j) {
      lo = std::min(lo, row[j]);
      hi = std::max(hi, row[j]);
    }
    const float scale =
        (hi > lo) ? (hi - lo) / static_cast<float>(levels) : 1.0f;
    scale_[static_cast<size_t>(r)] = scale;
    offset_[static_cast<size_t>(r)] = lo;
    uint8_t* dst = data_.data() + r * BytesPerRow();
    for (int64_t j = 0; j < emb_dim_; ++j) {
      const int64_t q = std::clamp<int64_t>(
          std::llround((row[j] - lo) / scale), 0, levels);
      if (bits_ == 8) {
        dst[j] = static_cast<uint8_t>(q);
      } else {
        // Two 4-bit codes per byte, low nibble first.
        if (j % 2 == 0) {
          dst[j / 2] = static_cast<uint8_t>(q);
        } else {
          dst[j / 2] |= static_cast<uint8_t>(q << 4);
        }
      }
    }
  }
}

void QuantizedEmbeddingBag::DequantizeRow(int64_t row, float* out) const {
  TTREC_CHECK_INDEX(row >= 0 && row < num_rows_, "row out of range");
  const uint8_t* src = data_.data() + row * BytesPerRow();
  const float scale = scale_[static_cast<size_t>(row)];
  const float offset = offset_[static_cast<size_t>(row)];
  for (int64_t j = 0; j < emb_dim_; ++j) {
    int64_t q;
    if (bits_ == 8) {
      q = src[j];
    } else {
      q = (j % 2 == 0) ? (src[j / 2] & 0x0F) : (src[j / 2] >> 4);
    }
    out[j] = offset + scale * static_cast<float>(q);
  }
}

void QuantizedEmbeddingBag::ForwardInference(const CsrBatch& batch,
                                             float* output) const {
  batch.Validate(num_rows_);
  const int64_t N = emb_dim_;
  const int64_t n_bags = batch.num_bags();
  std::fill(output, output + n_bags * N, 0.0f);
  std::vector<float> row(static_cast<size_t>(N));
  for (int64_t b = 0; b < n_bags; ++b) {
    const int64_t begin = batch.offsets[static_cast<size_t>(b)];
    const int64_t end = batch.offsets[static_cast<size_t>(b) + 1];
    const int64_t bag_size = end - begin;
    float* dst = output + b * N;
    for (int64_t l = begin; l < end; ++l) {
      const float w = batch.LookupWeight(l, bag_size, pooling_);
      DequantizeRow(batch.indices[static_cast<size_t>(l)], row.data());
      for (int64_t j = 0; j < N; ++j) dst[j] += w * row[static_cast<size_t>(j)];
    }
  }
}

void QuantizedEmbeddingBag::Backward(const CsrBatch& /*batch*/,
                                     const float* /*grad_output*/) {
  throw ConfigError(
      "QuantizedEmbeddingBag is inference-only: quantized training is out of "
      "scope (paper §7)");
}

void QuantizedEmbeddingBag::ApplySgd(float /*lr*/) {
  throw ConfigError("QuantizedEmbeddingBag is inference-only");
}

int64_t QuantizedEmbeddingBag::MemoryBytes() const {
  return static_cast<int64_t>(data_.size() + scale_.size() * sizeof(float) +
                              offset_.size() * sizeof(float));
}

double QuantizedEmbeddingBag::MaxQuantizationError(
    const Tensor& reference) const {
  TTREC_CHECK_SHAPE(reference.dim(0) == num_rows_ &&
                        reference.dim(1) == emb_dim_,
                    "reference shape mismatch");
  std::vector<float> row(static_cast<size_t>(emb_dim_));
  double max_err = 0.0;
  for (int64_t r = 0; r < num_rows_; ++r) {
    DequantizeRow(r, row.data());
    const float* ref = reference.data() + r * emb_dim_;
    for (int64_t j = 0; j < emb_dim_; ++j) {
      max_err = std::max(max_err,
                         std::abs(static_cast<double>(ref[j]) -
                                  row[static_cast<size_t>(j)]));
    }
  }
  return max_err;
}

}  // namespace ttrec
