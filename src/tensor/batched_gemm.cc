#include "tensor/batched_gemm.h"

#include "tensor/check.h"
#include "tensor/parallel.h"

namespace ttrec {

namespace {

void CheckShape(const BatchedGemmShape& s) {
  TTREC_CHECK_SHAPE(s.m >= 0 && s.n >= 0 && s.k >= 0,
                    "BatchedGemm dims must be non-negative");
}

}  // namespace

void BatchedGemm(const BatchedGemmShape& shape, std::span<const float* const> a,
                 std::span<const float* const> b, std::span<float* const> c) {
  CheckShape(shape);
  TTREC_CHECK_SHAPE(a.size() == b.size() && b.size() == c.size(),
                    "BatchedGemm: pointer array sizes differ: ", a.size(), "/",
                    b.size(), "/", c.size());
  const int64_t count = static_cast<int64_t>(a.size());
  if (count == 0) return;

  auto run_one = [&](int64_t i) {
    TTREC_CHECK_INDEX(a[i] != nullptr && b[i] != nullptr && c[i] != nullptr,
                      "BatchedGemm: null pointer in problem ", i);
    Gemm(shape.ta, shape.tb, shape.m, shape.n, shape.k, shape.alpha, a[i],
         (shape.ta == Trans::kNo) ? shape.k : shape.m, b[i],
         (shape.tb == Trans::kNo) ? shape.n : shape.k, shape.beta, c[i],
         shape.n);
  };

  // Nested calls (issued from inside a ParallelFor chunk — e.g. a TT block
  // task) go inline explicitly: the pool's re-entrancy would run them inline
  // anyway, but taking the branch here skips queue bookkeeping and documents
  // that a batched GEMM inside an outer parallel region is
  // sequential-in-order, which the TT kernels' determinism contract relies
  // on.
  if (ThreadPool::InParallelRegion()) {
    for (int64_t i = 0; i < count; ++i) run_one(i);
    return;
  }
  // Grain sized so each worker gets a few thousand FLOPs minimum; tiny TT
  // problems otherwise drown in scheduling overhead.
  const int64_t flops = std::max<int64_t>(1, shape.m * shape.n * shape.k);
  const int64_t grain = std::max<int64_t>(1, 16384 / flops);
  ParallelFor(
      count,
      [&](int64_t begin, int64_t end) {
        for (int64_t i = begin; i < end; ++i) run_one(i);
      },
      grain);
}

}  // namespace ttrec
