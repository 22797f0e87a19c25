// Skew-shifted multi-table traffic scenario for cache-autotuning studies.
//
// The paper's cache evaluation (Fig 9/10) assumes a stable hot set and a
// fixed per-table skew, which is exactly the setting where any static
// capacity split looks fine. Production traffic is not that polite: tables
// trade popularity (a feature launches, a campaign ends) and each table's
// hot rows drift. This scenario manufactures the adversarial case a global
// cache autotuner must win: several tables of different sizes and Zipf
// exponents share one lookup stream, and at every phase boundary
//   1. the traffic shares rotate across tables (the heavy-traffic table
//      becomes a light one), and
//   2. every table's hot-set bijection is re-seeded (rank 0 lands on a
//      different row id), so old cached rows go cold.
// A static split sized for phase 0 strands capacity on the wrong tables in
// phase 1; an MRC-driven re-apportionment follows the traffic.
#pragma once

#include <cstdint>
#include <span>
#include <vector>

#include "data/csr_batch.h"
#include "tensor/random.h"

namespace ttrec {

class BinaryWriter;
class BinaryReader;

struct SkewShiftTableConfig {
  int64_t rows = 0;
  /// Zipf exponent of this table's index stream.
  double zipf_exponent = 1.15;
  /// Relative share of the per-iteration lookup budget routed here during
  /// phase 0 (shares rotate by one table per phase boundary).
  double traffic_share = 1.0;
};

struct SkewShiftConfig {
  std::vector<SkewShiftTableConfig> tables;
  /// Total lookups per iteration, split across tables by the current
  /// traffic shares (each table always gets at least 1).
  int64_t lookups_per_iteration = 256;
  /// Iterations per phase; 0 = one endless phase (no shifts).
  int64_t phase_length = 0;
  uint64_t seed = 0x5EED;
};

class SkewShiftScenario {
 public:
  explicit SkewShiftScenario(SkewShiftConfig config);

  int num_tables() const { return static_cast<int>(config_.tables.size()); }
  const SkewShiftConfig& config() const { return config_; }
  int64_t iteration() const { return iteration_; }
  /// Phase index the NEXT NextBatch call draws from.
  int64_t phase() const;
  /// This table's lookups per iteration under the current rotation.
  int64_t LookupsFor(int table) const;

  /// Advances one iteration and returns one single-bag CsrBatch per table
  /// (LookupsFor(t) Zipf-distributed indices each), applying the phase
  /// rotation/reshuffle at boundaries.
  std::vector<CsrBatch> NextBatch();

  /// NextBatch without the allocations: appends the iteration's bag for
  /// table t to bags[t] (its indices, then its end offset; the offsets must
  /// already hold their leading 0). bags.size() must equal num_tables().
  /// Draws the same stream as NextBatch.
  void AppendNext(std::span<CsrBatch> bags);

  /// Replaces the sampling RNG without touching the phase machinery or the
  /// rank->row bijections (those stay functions of config.seed). Lets a
  /// held-out stream draw different indices from the *same* shuffled tables
  /// as training — the property an eval set needs.
  void ReseedStream(uint64_t seed) { rng_ = Rng(seed); }

  /// Serializes / restores the stream cursor (iteration counter + RNG).
  /// The phase rotation and shuffles are reconstructed from the config on
  /// load, so a restored scenario replays the exact iteration stream an
  /// uninterrupted one would have produced.
  void SaveState(BinaryWriter& w) const;
  void LoadState(BinaryReader& r);

 private:
  void EnterPhase(int64_t phase);

  SkewShiftConfig config_;
  std::vector<ZipfSampler> zipf_;
  std::vector<IndexShuffle> shuffle_;  // re-seeded per phase
  std::vector<int64_t> lookups_;      // per table, current rotation
  int64_t iteration_ = 0;
  int64_t current_phase_ = 0;
  Rng rng_;
};

}  // namespace ttrec
