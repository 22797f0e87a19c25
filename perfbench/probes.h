// Every layer probe of the traced run lives here: the EmbeddingOp timing
// wrapper, the replays of single layers, and the hot-swap timer. This is
// the only benchmark file that names concrete operator classes, so a
// redesign of EmbeddingOp or its adapters touches probes.cc alone.
#pragma once

#include <array>
#include <atomic>
#include <cstdint>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

#include "data/batch_source.h"
#include "dlrm/model.h"
#include "report.h"

namespace ttrec::serve {
class InferenceServer;
}

namespace perfbench {

/// The per-layer metrics a traced run prints: all of them, always, in the
/// order of BENCHMARK.json's per_layer list. A metric that does not apply
/// to a workload reads 0.
class Ledger {
 public:
  Ledger();
  /// Throws std::logic_error on a name outside the list.
  void Set(const std::string& name, double value);
  void AddTo(Result& result) const;

 private:
  std::vector<double> values_;
};

/// Table families the wrapper times separately.
enum class Family : int { kDense = 0, kTt = 1, kCachedTt = 2 };
enum class Phase : int { kForward = 0, kBackward = 1, kUpdate = 2, kInfer = 3 };

/// One ForwardInference call on a wrapped table.
struct InferCall {
  int64_t start_ns = 0;
  int table = 0;
  int64_t bags = 0;
};

/// Timing wrappers around every table of a model. A wrapped table is an
/// exact copy of the original (weights, cache contents, counters), so the
/// model computes bitwise what it did before. Must outlive every model it
/// instrumented.
class TableProbes {
 public:
  TableProbes() = default;
  TableProbes(const TableProbes&) = delete;
  TableProbes& operator=(const TableProbes&) = delete;

  /// Replaces every table of `model` with a timed copy.
  void Instrument(ttrec::DlrmModel& model);

  /// Wall time in seconds spent in one family and phase so far.
  double Seconds(Family f, Phase p) const;

  /// While on, every ForwardInference call is appended to the call log.
  void LogInferenceCalls(bool on) { logging_.store(on); }
  std::vector<InferCall> TakeCallLog();

  // Called by the wrappers.
  void Record(Family f, Phase p, int64_t ns);
  void RecordInference(Family f, int table, int64_t bags, int64_t start_ns,
                       int64_t end_ns);

 private:
  std::array<std::array<std::atomic<int64_t>, 4>, 3> ns_{};
  std::atomic<bool> logging_{false};
  std::mutex log_mu_;
  std::vector<InferCall> log_;
};

/// Forward + backward of the bottom MLP, the dot interaction and the top
/// MLP, replayed standalone at the workload's dims and batch size.
struct TowerTimes {
  double bottom_us = 0.0;
  double interaction_us = 0.0;
  double top_us = 0.0;
};
TowerTimes ReplayDenseTowers(const ttrec::DlrmConfig& config, int num_tables,
                             int64_t batch);

/// The staged const forward (dense, embeddings, tail) and the whole
/// unsharded const forward, medians over `batches`.
struct InferStageTimes {
  double dense_us = 0.0;
  double emb_us = 0.0;
  double tail_us = 0.0;
  double full_us = 0.0;
};
InferStageTimes ReplayInferStages(const ttrec::DlrmModel& model,
                                  const std::vector<ttrec::MiniBatch>& batches);

/// ShardRouter::Run on a row-range plan of `num_shards`, median over
/// `batches`, and max / mean of the lookups each shard received.
struct RouterTimes {
  double run_us = 0.0;
  double lookup_imbalance = 0.0;
};
RouterTimes ReplayRouter(std::shared_ptr<const ttrec::DlrmModel> model,
                         const std::vector<ttrec::MiniBatch>& batches,
                         int num_shards);

/// The TT cores behind every cached table, run forward and backward on all
/// of `batch`'s lookups as if each one missed (gradients discarded). Scaled
/// by the measured miss share, this is the TT miss path of a step: TT cost
/// is per lookup, and at the end of a lookahead run the caches hold the
/// last batch, so its own misses would undercount.
struct TtMissTimes {
  double fwd_us = 0.0;
  double bwd_us = 0.0;
};
TtMissTimes ReplayCachedTt(ttrec::DlrmModel& model,
                           const ttrec::MiniBatch& batch);

/// Hot swaps from a checkpoint file, each one timed.
struct SwapLog {
  Samples ms;
  int64_t ok = 0;
  int64_t rejected = 0;
  std::string last_error;
};
void TimedSwap(ttrec::serve::InferenceServer& server,
               const std::string& checkpoint, SwapLog& log);

/// A completed request, in submission order.
struct Completed {
  int64_t submit_ns = 0;
  int64_t done_ns = 0;
  int64_t micro_batch = 0;
};

/// Queue wait of each completed request: from Submit to the first table
/// lookup of its micro-batch. Micro-batches are rebuilt from the call log
/// (across its calls, every table sees each micro-batch's bags exactly
/// once) and matched in order to the FIFO runs of completed requests. Valid
/// for one consumer thread on a one-worker pool.
Samples ReconstructQueueWaits(const std::vector<InferCall>& log,
                              int num_tables, int max_calls_per_table,
                              int64_t samples_per_request,
                              const std::vector<Completed>& completed,
                              int64_t* matched_batches);

}  // namespace perfbench
