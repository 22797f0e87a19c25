// Post-training quantized embedding table (Guan et al. 2019, cited in the
// paper's related work §7): each row is quantized to int8 or int4 with a
// per-row affine (scale, offset) pair, for inference only.
//
// This is the other practical embedding-compression family; it caps out at
// 4-8x (bits / 32) plus per-row overhead, versus TT's 100x+ — the contrast
// the design-space bench quantifies.
#pragma once

#include <cstdint>
#include <vector>

#include "dlrm/embedding_op.h"
#include "tensor/tensor.h"

namespace ttrec {

class QuantizedEmbeddingBag : public EmbeddingOp {
 public:
  /// Quantizes a trained fp32 table. `bits` must be 4 or 8. Each row gets
  /// min/max-range affine quantization: q = round((x - min) / scale).
  QuantizedEmbeddingBag(const Tensor& table, int bits, PoolingMode pooling);

  void Forward(const CsrBatch& batch, float* output) override {
    ForwardInference(batch, output);
  }
  void ForwardInference(const CsrBatch& batch, float* output) const override;

  /// Inference-only: training a quantized table is out of scope (the paper
  /// notes "quantization for training is more challenging").
  void Backward(const CsrBatch& batch, const float* grad_output) override;
  void ApplySgd(float lr) override;

  int64_t num_rows() const override { return num_rows_; }
  int64_t emb_dim() const override { return emb_dim_; }
  int bits() const { return bits_; }

  /// Quantized payload + per-row scale/offset.
  int64_t MemoryBytes() const override;
  void CollectStats(obs::MetricRegistry& reg) const override {
    EmbeddingOp::CollectStats(reg);
    stats_publisher().Gauge(reg, "quantized.bits",
                            static_cast<double>(bits()));
  }
  std::string Name() const override { return "quantized_embedding_bag"; }

  /// Dequantizes one row (for error analysis / tests).
  void DequantizeRow(int64_t row, float* out) const;

  /// Max absolute quantization error across the whole table vs `reference`.
  double MaxQuantizationError(const Tensor& reference) const;

 private:
  int64_t BytesPerRow() const;

  int64_t num_rows_;
  int64_t emb_dim_;
  int bits_;
  PoolingMode pooling_;
  std::vector<uint8_t> data_;   // packed codes, row-major
  std::vector<float> scale_;    // per row
  std::vector<float> offset_;   // per row (the dequantized value of code 0)
};

}  // namespace ttrec
