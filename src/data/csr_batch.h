// The lookup-batch format shared by every embedding operator in this repo.
//
// Matches the PyTorch EmbeddingBag / paper §4.1 convention: a batch of
// `num_bags` bags is described by `indices` (all row ids, concatenated) and
// `offsets` (size num_bags + 1; bag b covers indices[offsets[b] ..
// offsets[b+1])). `weights`, when non-empty, carries the per-sample weight
// alpha of Eq. (6); empty means all-ones.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "tensor/check.h"

namespace ttrec {

enum class PoolingMode : uint8_t { kSum, kMean };

/// What to do with an out-of-range row index in an embedding lookup.
/// Training wants hard failure (kThrow: a bad id is a data bug); serving
/// replicas often prefer to degrade gracefully (kClampToZero: the lookup
/// contributes a zero vector and the request still completes).
enum class IndexPolicy : uint8_t { kThrow, kClampToZero };

struct CsrBatch {
  std::vector<int64_t> indices;
  std::vector<int64_t> offsets;  // size num_bags + 1, offsets[0] == 0
  std::vector<float> weights;    // empty, or same size as indices

  int64_t num_bags() const {
    return offsets.empty() ? 0 : static_cast<int64_t>(offsets.size()) - 1;
  }
  int64_t num_lookups() const { return static_cast<int64_t>(indices.size()); }

  /// Effective weight of lookup `l` in a bag of `bag_size` lookups: its
  /// per-sample weight (1 when unweighted), divided by the bag size under
  /// mean pooling — what every operator pools and differentiates with.
  float LookupWeight(int64_t l, int64_t bag_size, PoolingMode pooling) const {
    float w = weights.empty() ? 1.0f : weights[static_cast<size_t>(l)];
    if (pooling == PoolingMode::kMean && bag_size > 0) {
      w /= static_cast<float>(bag_size);
    }
    return w;
  }

  /// Validates offsets/weights consistency without looking at index values
  /// — what a serving frontend can check before it knows (or cares) which
  /// IndexPolicy the model applies. Throws ShapeError on violation.
  void ValidateStructure() const {
    TTREC_CHECK_SHAPE(!offsets.empty() && offsets.front() == 0,
                      "CsrBatch: offsets must start with 0");
    for (size_t i = 1; i < offsets.size(); ++i) {
      TTREC_CHECK_SHAPE(offsets[i] >= offsets[i - 1],
                        "CsrBatch: offsets must be non-decreasing");
    }
    TTREC_CHECK_SHAPE(offsets.back() == num_lookups(),
                      "CsrBatch: offsets must end at indices.size(), got ",
                      offsets.back(), " vs ", num_lookups());
    TTREC_CHECK_SHAPE(weights.empty() || weights.size() == indices.size(),
                      "CsrBatch: weights must be empty or match indices");
  }

  /// Validates internal consistency and that all indices are in
  /// [0, num_rows). Throws IndexError/ShapeError on violation.
  void Validate(int64_t num_rows) const {
    ValidateStructure();
    for (int64_t idx : indices) {
      TTREC_CHECK_INDEX(idx >= 0 && idx < num_rows, "CsrBatch: row index ",
                        idx, " out of range [0, ", num_rows, ")");
    }
  }

  /// Applies `policy` to every out-of-range index in this batch.
  ///  - kThrow: throws IndexError naming `table_name`, the offending row
  ///    id, and the valid range.
  ///  - kClampToZero: rewrites the lookup to contribute a zero vector
  ///    (index 0, weight 0) — bag structure is preserved, so sum and mean
  ///    pooling both see the lookup as absent.
  /// Returns the number of offending lookups.
  int64_t ApplyIndexPolicy(int64_t num_rows, IndexPolicy policy,
                           const std::string& table_name) {
    int64_t bad = 0;
    for (size_t i = 0; i < indices.size(); ++i) {
      const int64_t idx = indices[i];
      if (idx >= 0 && idx < num_rows) continue;
      TTREC_CHECK_INDEX(policy == IndexPolicy::kClampToZero, "table '",
                        table_name, "': row index ", idx,
                        " out of valid range [0, ", num_rows, ")");
      if (weights.empty()) weights.assign(indices.size(), 1.0f);
      indices[i] = 0;
      weights[i] = 0.0f;
      ++bad;
    }
    return bad;
  }

  /// Builds a single-lookup-per-bag batch (pooling factor 1, the Criteo
  /// case) from a plain index list.
  static CsrBatch FromIndices(std::vector<int64_t> idx) {
    CsrBatch b;
    b.offsets.resize(idx.size() + 1);
    for (size_t i = 0; i <= idx.size(); ++i) {
      b.offsets[i] = static_cast<int64_t>(i);
    }
    b.indices = std::move(idx);
    return b;
  }
};

}  // namespace ttrec
