#include "data/skew_shift.h"

#include <algorithm>
#include <cmath>

#include "tensor/check.h"
#include "tensor/serialize.h"

namespace ttrec {

SkewShiftScenario::SkewShiftScenario(SkewShiftConfig config)
    : config_(std::move(config)), rng_(config_.seed) {
  TTREC_CHECK_CONFIG(!config_.tables.empty(),
                     "SkewShiftScenario: need at least one table");
  TTREC_CHECK_CONFIG(config_.lookups_per_iteration >= 1,
                     "SkewShiftScenario: lookups_per_iteration must be >= 1");
  TTREC_CHECK_CONFIG(config_.phase_length >= 0,
                     "SkewShiftScenario: phase_length must be >= 0");
  double share_sum = 0.0;
  for (const SkewShiftTableConfig& t : config_.tables) {
    TTREC_CHECK_CONFIG(t.rows >= 1, "SkewShiftScenario: rows must be >= 1");
    TTREC_CHECK_CONFIG(t.traffic_share > 0.0,
                       "SkewShiftScenario: traffic_share must be > 0");
    share_sum += t.traffic_share;
  }
  TTREC_CHECK_CONFIG(share_sum > 0.0,
                     "SkewShiftScenario: shares must sum > 0");
  zipf_.reserve(config_.tables.size());
  for (const SkewShiftTableConfig& t : config_.tables) {
    zipf_.emplace_back(t.rows, t.zipf_exponent);
  }
  EnterPhase(0);
}

int64_t SkewShiftScenario::phase() const {
  return config_.phase_length > 0 ? iteration_ / config_.phase_length : 0;
}

int64_t SkewShiftScenario::LookupsFor(int table) const {
  TTREC_CHECK_INDEX(table >= 0 && table < num_tables(),
                    "SkewShiftScenario: bad table ", table);
  return lookups_[static_cast<size_t>(table)];
}

void SkewShiftScenario::EnterPhase(int64_t phase) {
  const size_t n = config_.tables.size();
  // Rotate the traffic shares: table t draws the share configured for
  // table (t + phase) mod n, so the heavy-traffic table changes identity
  // every phase.
  double share_sum = 0.0;
  std::vector<double> share(n, 0.0);
  for (size_t t = 0; t < n; ++t) {
    share[t] =
        config_.tables[(t + static_cast<size_t>(phase)) % n].traffic_share;
    share_sum += share[t];
  }
  lookups_.assign(n, 1);
  for (size_t t = 0; t < n; ++t) {
    lookups_[t] = std::max<int64_t>(
        1, static_cast<int64_t>(std::llround(
               static_cast<double>(config_.lookups_per_iteration) *
               share[t] / share_sum)));
  }
  // Re-seed every table's rank->row bijection: the hot rows move, so
  // whatever a cache learned last phase is now cold.
  shuffle_.clear();
  shuffle_.reserve(n);
  for (size_t t = 0; t < n; ++t) {
    shuffle_.emplace_back(config_.tables[t].rows,
                          config_.seed ^ (0x9E37u + 131u * t) ^
                              (static_cast<uint64_t>(phase) << 32));
  }
  current_phase_ = phase;
}

std::vector<CsrBatch> SkewShiftScenario::NextBatch() {
  std::vector<CsrBatch> out(config_.tables.size());
  for (CsrBatch& batch : out) batch.offsets.push_back(0);
  AppendNext(out);
  return out;
}

void SkewShiftScenario::AppendNext(std::span<CsrBatch> bags) {
  TTREC_CHECK_SHAPE(bags.size() == config_.tables.size(),
                    "SkewShiftScenario::AppendNext: ", bags.size(),
                    " bags for ", config_.tables.size(), " tables");
  if (config_.phase_length > 0) {
    const int64_t p = iteration_ / config_.phase_length;
    if (p != current_phase_) EnterPhase(p);
  }
  for (size_t t = 0; t < config_.tables.size(); ++t) {
    CsrBatch& batch = bags[t];
    for (int64_t l = 0; l < lookups_[t]; ++l) {
      const int64_t rank = zipf_[t].Sample(rng_);
      batch.indices.push_back(shuffle_[t].Map(rank));
    }
    batch.offsets.push_back(static_cast<int64_t>(batch.indices.size()));
  }
  ++iteration_;
}

void SkewShiftScenario::SaveState(BinaryWriter& w) const {
  w.WriteI64(iteration_);
  uint64_t s[4];
  rng_.GetState(s);
  for (uint64_t word : s) w.WriteI64(static_cast<int64_t>(word));
}

void SkewShiftScenario::LoadState(BinaryReader& r) {
  const int64_t iteration = r.ReadI64();
  TTREC_CHECK_CONFIG(iteration >= 0,
                     "SkewShiftScenario::LoadState: negative iteration ",
                     iteration);
  uint64_t s[4];
  for (uint64_t& word : s) word = static_cast<uint64_t>(r.ReadI64());
  iteration_ = iteration;
  rng_.SetState(s);
  // Shuffles and lookup splits are pure functions of (config, phase);
  // re-derive them for the restored cursor's phase.
  EnterPhase(phase());
}

}  // namespace ttrec
