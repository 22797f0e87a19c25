#include "data/skew_shift_source.h"

#include <cmath>
#include <utility>

#include "tensor/check.h"
#include "tensor/serialize.h"

namespace ttrec {

namespace {

uint64_t Mix64(uint64_t z) {
  z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ull;
  z = (z ^ (z >> 27)) * 0x94d049bb133111ebull;
  return z ^ (z >> 31);
}

}  // namespace

SkewShiftBatchSource::SkewShiftBatchSource(SkewShiftSourceConfig config)
    : config_(std::move(config)),
      scenario_(config_.scenario),
      label_rng_(Mix64(config_.scenario.seed ^ 0x1ABE15ull)) {
  TTREC_CHECK_CONFIG(config_.num_dense >= 1,
                     "SkewShiftBatchSource: num_dense must be >= 1");
  TTREC_CHECK_CONFIG(
      config_.label_flip_prob >= 0.0 && config_.label_flip_prob <= 0.5,
      "SkewShiftBatchSource: label flip probability must be in [0, 0.5]");
  Rng setup(Mix64(config_.scenario.seed ^ 0x7EAC4Eull));
  for (int t = 0; t < scenario_.num_tables(); ++t) {
    table_weight_.push_back(setup.Normal(0.0, 1.0));
  }
  for (int64_t j = 0; j < config_.num_dense; ++j) {
    dense_weight_.push_back(setup.Normal(0.0, 1.0));
  }
}

double SkewShiftBatchSource::TeacherValue(int table, int64_t row) const {
  TTREC_CHECK_INDEX(table >= 0 && table < num_tables(),
                    "TeacherValue: table out of range");
  const uint64_t h = Mix64(
      config_.scenario.seed ^
      Mix64((static_cast<uint64_t>(table) * 0x9E3779B9ull) ^
            (static_cast<uint64_t>(row) + 0x7F4A7C15ull)));
  return static_cast<double>(h >> 11) * 0x1.0p-52 - 1.0;  // [-1, 1)
}

MiniBatch SkewShiftBatchSource::Assemble(int64_t batch_size,
                                         SkewShiftScenario& scenario,
                                         Rng& label_rng) const {
  TTREC_CHECK_CONFIG(batch_size >= 1, "batch size must be >= 1");
  const int T = num_tables();
  const int64_t nd = config_.num_dense;

  MiniBatch batch;
  batch.dense = Tensor({batch_size, nd});
  batch.labels.resize(static_cast<size_t>(batch_size));
  batch.sparse.resize(static_cast<size_t>(T));
  for (int t = 0; t < T; ++t) {
    // Room for the whole batch at the current phase's budgets; a phase
    // boundary inside the batch may grow a table's indices once.
    CsrBatch& cb = batch.sparse[static_cast<size_t>(t)];
    cb.offsets.reserve(static_cast<size_t>(batch_size) + 1);
    cb.offsets.push_back(0);
    cb.indices.reserve(
        static_cast<size_t>(batch_size * scenario.LookupsFor(t)));
  }

  const double norm =
      std::sqrt(static_cast<double>(T) + static_cast<double>(nd));
  for (int64_t b = 0; b < batch_size; ++b) {
    float* dense_row = batch.dense.data() + b * batch.dense.dim(1);
    for (int64_t j = 0; j < nd; ++j) {
      dense_row[j] = static_cast<float>(label_rng.Normal(0.0, 1.0));
    }
    // One scenario iteration = one sample: table t's bag is the scenario's
    // whole per-iteration lookup budget for that table, so phase rotations
    // land mid-batch exactly as they do in the cache benches.
    scenario.AppendNext(batch.sparse);
    double logit = 0.0;
    for (int t = 0; t < T; ++t) {
      const CsrBatch& cb = batch.sparse[static_cast<size_t>(t)];
      // The teacher models the bag's first lookup (the dominant feature);
      // the rest of the bag acts as structured noise, as in SyntheticCriteo.
      const int64_t first = cb.offsets[static_cast<size_t>(b)];
      logit += table_weight_[static_cast<size_t>(t)] *
               TeacherValue(t, cb.indices[static_cast<size_t>(first)]);
    }
    for (int64_t j = 0; j < nd; ++j) {
      logit += dense_weight_[static_cast<size_t>(j)] * dense_row[j];
    }
    logit = config_.teacher_scale * logit / norm;
    const double p_click = 1.0 / (1.0 + std::exp(-logit));
    bool y = label_rng.Bernoulli(p_click);
    if (label_rng.Bernoulli(config_.label_flip_prob)) y = !y;
    batch.labels[static_cast<size_t>(b)] = y ? 1.0f : 0.0f;
  }
  return batch;
}

MiniBatch SkewShiftBatchSource::NextBatch(int64_t batch_size) {
  return Assemble(batch_size, scenario_, label_rng_);
}

MiniBatch SkewShiftBatchSource::EvalBatch(int64_t batch_size,
                                          uint64_t eval_seed) const {
  // A fresh phase-0 scenario with a reseeded sampling stream: the rank->row
  // bijections match training's phase 0 (they derive from config.seed, not
  // the stream seed), but the drawn indices, dense features, and label coin
  // flips are an independent held-out stream.
  SkewShiftScenario scenario(config_.scenario);
  scenario.ReseedStream(
      Mix64(config_.scenario.seed ^ (eval_seed * 0x5851F42D4C957F2Dull)) |
      1ull);
  Rng label_rng(
      Mix64(config_.scenario.seed ^ 0xE7A1ull ^ (eval_seed << 17)) | 1ull);
  return Assemble(batch_size, scenario, label_rng);
}

void SkewShiftBatchSource::SaveState(BinaryWriter& w) const {
  scenario_.SaveState(w);
  uint64_t s[4];
  label_rng_.GetState(s);
  for (uint64_t word : s) w.WriteI64(static_cast<int64_t>(word));
}

void SkewShiftBatchSource::LoadState(BinaryReader& r) {
  scenario_.LoadState(r);
  uint64_t s[4];
  for (uint64_t& word : s) word = static_cast<uint64_t>(r.ReadI64());
  label_rng_.SetState(s);
}

}  // namespace ttrec
