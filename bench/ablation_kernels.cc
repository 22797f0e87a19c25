// Ablations of TT-Rec's kernel-level design choices (DESIGN.md §3):
//  1. Naive per-row execution vs the slice-bucketed GEMM chain across
//     block sizes — the CPU counterpart of the paper's batched cuBLAS
//     launches (§4.1) — with the workspace each block size needs.
//  2. TT rank: FLOPs per lookup, forward time and compression.
//  3. Block dedup of repeated rows under Zipf traffic.
//  4. Number of TT cores d.
#include <cstdio>
#include <vector>

#include "harness.h"
#include "tt/tt_embedding.h"

using namespace ttrec;
using namespace ttrec::bench;

namespace {

CsrBatch ZipfBatch(int64_t rows, int64_t batch, uint64_t seed) {
  Rng rng(seed);
  ZipfSampler zipf(rows, 1.15);
  IndexShuffle shuffle(rows, seed + 1);
  std::vector<int64_t> idx(static_cast<size_t>(batch));
  for (int64_t& i : idx) i = shuffle.Map(zipf.Sample(rng));
  return CsrBatch::FromIndices(std::move(idx));
}

}  // namespace

int main() {
  const BenchEnv env = BenchEnv::FromEnvironment();
  PrintHeader("ablation_kernels",
              "Ablations: GEMM batching, rank, dedup, core count "
              "(design choices of paper §4.1)",
              env);

  const int64_t rows = env.full ? 1000000 : 200000;
  const int64_t dim = 16;
  const int64_t rank = 32;
  const int64_t batch = 2048;
  const int reps = 5;

  CsrBatch lookups = ZipfBatch(rows, batch, 11);
  std::vector<float> out(static_cast<size_t>(batch * dim));
  std::vector<float> grad(out.size(), 1.0f);

  // 1. Execution strategy: the naive per-row path (MaterializeRow with
  // per-call temporaries — what a straightforward implementation or
  // T3nsor-style gather does) vs the chain across block sizes. Within a
  // block, the lookups that share a core slice share one stacked GEMM, so
  // the block size decides how many rows each GEMM carries (bs = 1 runs a
  // GEMM per lookup per stage). A CPU has no kernel launch to amortize, so
  // what stacking buys here is operand reuse, traded against workspace.
  std::printf("1) execution strategy (forward, %lld lookups, rank %lld):\n",
              static_cast<long long>(batch), static_cast<long long>(rank));
  std::printf("%-18s %14s %16s %14s\n", "strategy", "fwd ms",
              "vs naive/row", "workspace");
  double naive_ms = 0.0;
  {
    TtEmbeddingConfig cfg;
    cfg.shape = MakeTtShape(rows, dim, 3, rank);
    Rng rng(3);
    TtEmbeddingBag emb(cfg, TtInit::kSampledGaussian, rng);
    std::vector<float> row(static_cast<size_t>(dim));
    WallTimer t;
    for (int r = 0; r < reps; ++r) {
      for (int64_t idx : lookups.indices) {
        emb.cores().MaterializeRow(idx, row.data());
      }
    }
    naive_ms = t.Seconds() * 1000.0 / reps;
    std::printf("%-18s %14.3f %15.2fx %14s\n", "naive per-row", naive_ms,
                1.0, "per-call alloc");
  }
  for (int64_t bs : {1, 256, 4096}) {
    TtEmbeddingConfig cfg;
    cfg.shape = MakeTtShape(rows, dim, 3, rank);
    cfg.block_size = bs;
    Rng rng(3);
    TtEmbeddingBag emb(cfg, TtInit::kSampledGaussian, rng);
    emb.Forward(lookups, out.data());
    WallTimer t;
    for (int r = 0; r < reps; ++r) emb.Forward(lookups, out.data());
    const double ms = t.Seconds() * 1000.0 / reps;
    char name[32];
    std::snprintf(name, sizeof(name), "chain bs=%lld",
                  static_cast<long long>(bs));
    std::printf("%-18s %14.3f %15.2fx %14s\n", name, ms, naive_ms / ms,
                FormatBytes(emb.WorkspaceBytes()).c_str());
  }

  // 2. Rank sweep: flops per lookup and achieved throughput.
  std::printf("\n2) rank sweep (forward, %lld lookups):\n",
              static_cast<long long>(batch));
  std::printf("%-8s %14s %16s %14s %14s\n", "rank", "fwd ms",
              "kflop/lookup", "params", "reduction");
  for (int64_t r : {2, 8, 16, 32, 64}) {
    TtEmbeddingConfig cfg;
    cfg.shape = MakeTtShape(rows, dim, 3, r);
    Rng rng(3);
    TtEmbeddingBag emb(cfg, TtInit::kSampledGaussian, rng);
    emb.Forward(lookups, out.data());
    WallTimer t;
    for (int rep = 0; rep < reps; ++rep) emb.Forward(lookups, out.data());
    const double ms = t.Seconds() * 1000.0 / reps;
    const double kflop =
        static_cast<double>(emb.stats().forward_flops) /
        static_cast<double>(emb.stats().lookups) / 1000.0;
    std::printf("%-8lld %14.3f %16.2f %14lld %13.0fx\n",
                static_cast<long long>(r), ms, kflop,
                static_cast<long long>(emb.shape().TotalParams()),
                emb.shape().CompressionRatio());
  }
  // 3. Index deduplication: Zipf traffic repeats hot rows within a block;
  // dedup runs the TT chain once per distinct row.
  std::printf("\n3) block dedup on Zipf traffic (%lld lookups, rank %lld):\n",
              static_cast<long long>(batch), static_cast<long long>(rank));
  std::printf("%-18s %14s %14s\n", "zipf exponent", "plain f+b ms",
              "dedup f+b ms");
  for (double zipf_s : {0.0, 1.05, 1.4}) {
    Rng trng(21);
    ZipfSampler zipf(rows, zipf_s);
    IndexShuffle shuffle(rows, 22);
    std::vector<int64_t> idx(static_cast<size_t>(batch));
    for (int64_t& i : idx) i = shuffle.Map(zipf.Sample(trng));
    CsrBatch zb = CsrBatch::FromIndices(std::move(idx));
    double times[2];
    for (bool dedup : {false, true}) {
      TtEmbeddingConfig cfg;
      cfg.shape = MakeTtShape(rows, dim, 3, rank);
      cfg.deduplicate = dedup;
      Rng rng(3);
      TtEmbeddingBag emb(cfg, TtInit::kSampledGaussian, rng);
      emb.Forward(zb, out.data());
      WallTimer t;
      for (int r = 0; r < reps; ++r) {
        emb.Forward(zb, out.data());
        emb.Backward(zb, grad.data());
        emb.ApplySgd(0.01f);
      }
      times[dedup ? 1 : 0] = t.Seconds() * 1000.0 / reps;
    }
    std::printf("%-18.2f %14.3f %14.3f  (%.2fx)\n", zipf_s, times[0],
                times[1], times[0] / times[1]);
  }

  // 4. Number of TT cores d: the paper fixes d = 3 (Table 2); this sweep
  // shows why — d = 2 compresses little, d >= 4 adds compute and more
  // rank-bottlenecked stages for marginal size gains at dim 16.
  std::printf("\n4) TT core count d (rank %lld, %lld lookups):\n",
              static_cast<long long>(rank), static_cast<long long>(batch));
  std::printf("%-6s %14s %14s %14s %16s\n", "d", "fwd ms", "params",
              "reduction", "kflop/lookup");
  for (int d : {2, 3, 4}) {
    TtEmbeddingConfig cfg;
    cfg.shape = MakeTtShape(rows, dim, d, rank);
    Rng rng(3);
    TtEmbeddingBag emb(cfg, TtInit::kSampledGaussian, rng);
    emb.Forward(lookups, out.data());
    WallTimer t;
    for (int r = 0; r < reps; ++r) emb.Forward(lookups, out.data());
    const double ms = t.Seconds() * 1000.0 / reps;
    const double kflop = static_cast<double>(emb.stats().forward_flops) /
                         static_cast<double>(emb.stats().lookups) / 1000.0;
    std::printf("%-6d %14.3f %14lld %13.0fx %16.2f\n", d, ms,
                static_cast<long long>(emb.shape().TotalParams()),
                emb.shape().CompressionRatio(), kflop);
  }

  std::printf(
      "\nExpected: the block size sets how many lookups share each slice's "
      "GEMM. bs = 1 runs a GEMM per lookup per stage and dispatches every "
      "lookup, so it trails naive per-row execution; a few hundred lookups "
      "per block stack enough rows to beat it several-fold, while one block "
      "for the whole batch gives up block parallelism and grows the "
      "workspace. The other CPU levers are dedup (section 3) and rank. "
      "Forward cost scales ~quadratically in rank "
      "while params scale ~R^2; dedup wins grow with traffic skew. The d sweep "
      "trades compute for compression: d = 2 is cheap but its factor "
      "sizes scale as sqrt(rows) (poor at the paper's 10M-row tables), "
      "d = 4 doubles compute for little size gain at dim 16 — d = 3 (the "
      "paper's choice) is the sweet spot at production scale.\n");
  return 0;
}
