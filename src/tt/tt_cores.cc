#include "tt/tt_cores.h"

#include <utility>

#include "tensor/check.h"
#include "tensor/gemm.h"
#include "tensor/parallel.h"

namespace ttrec {

TtCores::TtCores(TtShape shape) : shape_(std::move(shape)) {
  shape_.Validate();
  const int d = shape_.num_cores();
  cores_.reserve(static_cast<size_t>(d));
  prodn_.resize(static_cast<size_t>(d));
  int64_t prod = 1;
  for (int k = 0; k < d; ++k) {
    const int64_t mk = shape_.row_factors[static_cast<size_t>(k)];
    cores_.emplace_back(
        std::vector<int64_t>{mk, SliceRows(k) * SliceCols(k)});
    prod *= shape_.col_factors[static_cast<size_t>(k)];
    prodn_[static_cast<size_t>(k)] = prod;
  }
}

Tensor& TtCores::core(int k) {
  TTREC_CHECK_INDEX(k >= 0 && k < num_cores(), "core index out of range");
  return cores_[static_cast<size_t>(k)];
}

const Tensor& TtCores::core(int k) const {
  TTREC_CHECK_INDEX(k >= 0 && k < num_cores(), "core index out of range");
  return cores_[static_cast<size_t>(k)];
}

int64_t TtCores::SliceRows(int k) const {
  TTREC_CHECK_INDEX(k >= 0 && k < num_cores(), "core index out of range");
  return shape_.ranks[static_cast<size_t>(k)];
}

int64_t TtCores::SliceCols(int k) const {
  TTREC_CHECK_INDEX(k >= 0 && k < num_cores(), "core index out of range");
  return shape_.col_factors[static_cast<size_t>(k)] *
         shape_.ranks[static_cast<size_t>(k) + 1];
}

float* TtCores::Slice(int k, int64_t ik) {
  return const_cast<float*>(std::as_const(*this).Slice(k, ik));
}

const float* TtCores::Slice(int k, int64_t ik) const {
  const Tensor& c = core(k);
  TTREC_CHECK_INDEX(ik >= 0 && ik < c.dim(0), "slice index ", ik,
                    " out of range for core ", k);
  return c.data() + ik * SliceSize(k);
}

void TtCores::MaterializeRow(int64_t row, float* out) const {
  const int d = num_cores();
  const std::vector<int64_t> digits = shape_.RowDigits(row);

  // P_0 = slice_0(i_0), an (n_0 x R_1) matrix; then
  // P_k = reshape(P_{k-1} ((prod n_j, j<=k-1) x R_k-rows...) * slice_k).
  // Final P_{d-1} has prod(n) = emb_dim elements.
  const float* src = Slice(0, digits[0]);
  std::vector<float> cur(src, src + SliceSize(0));
  std::vector<float> next;
  for (int k = 1; k < d; ++k) {
    const int64_t m = prodn_[static_cast<size_t>(k - 1)];
    const int64_t kk = shape_.ranks[static_cast<size_t>(k)];
    const int64_t nn = SliceCols(k);
    next.assign(static_cast<size_t>(m * nn), 0.0f);
    Gemm(Trans::kNo, Trans::kNo, m, nn, kk, 1.0f, cur.data(),
         Slice(k, digits[static_cast<size_t>(k)]), 0.0f, next.data());
    cur.swap(next);
  }
  TTREC_CHECK_INTERNAL(static_cast<int64_t>(cur.size()) == emb_dim(),
                       "materialized row has wrong length");
  std::copy(cur.begin(), cur.end(), out);
}

Tensor TtCores::MaterializeFull() const {
  Tensor out({num_rows(), emb_dim()});
  ParallelFor(
      num_rows(),
      [&](int64_t begin, int64_t end) {
        for (int64_t r = begin; r < end; ++r) {
          MaterializeRow(r, out.data() + r * emb_dim());
        }
      },
      /*grain=*/8);
  return out;
}

}  // namespace ttrec
