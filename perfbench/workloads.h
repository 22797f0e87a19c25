// The four workloads of the benchmark (README.md says why each exists).
#pragma once

#include <cstdint>
#include <string>

#include "probes.h"
#include "report.h"

namespace perfbench {

/// The tail percentile of step and request times, reported per window and
/// in the traced run's obs.latency_tail_us. On a shared host even this p90
/// spread more between runs (0.27 of its median over ten seeds) than any
/// end-to-end bound may allow, so it is not gated.
inline constexpr double kTailPercentile = 90.0;

struct RunOptions {
  std::string workload;
  uint64_t seed = 1;
  double seconds = 10.0;
  /// Traced run: install the layer probes and fill a Ledger instead of the
  /// end-to-end metrics.
  bool trace = false;
  /// Scratch directory for checkpoints; the caller creates and removes it.
  std::string workdir;
};

/// The caller has set the global ThreadPool to one worker and confined the
/// process to one CPU. With `ledger` non-null (traced runs) the workload
/// fills it and the result carries no end-to-end metrics; otherwise the
/// result carries them all.
Result RunTraining(const RunOptions& options, Ledger* ledger);  // train_*
Result RunServing(const RunOptions& options, Ledger* ledger);   // serve_*

bool IsTrainingWorkload(const std::string& name);
bool IsServingWorkload(const std::string& name);

}  // namespace perfbench
