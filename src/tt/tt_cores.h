// Storage for the TT cores of one compressed embedding table.
//
// Core k is logically the 4-d tensor G_k in R^{R_{k-1} x m_k x n_k x R_k}
// (paper Eq. 2). We store it *slice-major*: the m_k slices are contiguous,
// each an (R_{k-1} x n_k*R_k) row-major matrix, so that a core slice is a
// single pointer + GEMM operand — the layout the paper's batched-GEMM
// kernels (Algorithm 1/2) index with `&G_j[idx[j][k]][0]`, and the B
// operand each slice's stacked GEMM uses in TtEmbeddingBag.
#pragma once

#include <cstdint>
#include <vector>

#include "tensor/random.h"
#include "tensor/tensor.h"
#include "tt/tt_shapes.h"

namespace ttrec {

class TtCores {
 public:
  /// Allocates zero-filled cores for `shape` (validated).
  explicit TtCores(TtShape shape);

  const TtShape& shape() const { return shape_; }
  int num_cores() const { return shape_.num_cores(); }
  int64_t num_rows() const { return shape_.num_rows; }
  int64_t emb_dim() const { return shape_.emb_dim; }

  /// Whole core k as a (m_k, R_{k-1} * n_k * R_k) tensor (slice-major).
  Tensor& core(int k);
  const Tensor& core(int k) const;

  /// Pointer to slice i_k of core k: an (R_{k-1} x n_k*R_k) row-major matrix.
  float* Slice(int k, int64_t ik);
  const float* Slice(int k, int64_t ik) const;

  /// Rows (R_{k-1}) / columns (n_k * R_k) / element count of a core-k slice.
  int64_t SliceRows(int k) const;
  int64_t SliceCols(int k) const;
  int64_t SliceSize(int k) const { return SliceRows(k) * SliceCols(k); }

  /// Reconstructs embedding row `row` (length emb_dim) by chaining the
  /// per-core slice products of Eq. (3), one row at a time: the tests'
  /// reference, and the decode of TtReconstructionError and MaterializeFull.
  /// Lookups and cache admission decode through TtEmbeddingBag's staged
  /// kernel instead.
  void MaterializeRow(int64_t row, float* out) const;

  /// Reconstructs the entire logical table (num_rows x emb_dim).
  /// Memory-heavy by design — this is what the T3nsor baseline does.
  Tensor MaterializeFull() const;

  int64_t TotalParams() const { return shape_.TotalParams(); }
  int64_t MemoryBytes() const {
    return TotalParams() * static_cast<int64_t>(sizeof(float));
  }

 private:
  TtShape shape_;
  std::vector<Tensor> cores_;
  std::vector<int64_t> prodn_;  // prodn_[k] = n_0 * ... * n_k
};

}  // namespace ttrec
