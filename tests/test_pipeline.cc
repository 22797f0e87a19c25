// The staged training pipeline's core guarantee: execution strategy is
// bitwise-invisible. For any fixed lookahead depth, threaded and inline
// staging produce identical models, loss histories, and snapshots at any
// thread count; depth 0 is the classic synchronous loop. Plus the failure
// modes: a throwing source surfaces as PipelineError (never a deadlock), a
// slow source changes nothing but wall-clock, async checkpoints write the
// same bytes as sync ones, and TrainConfig::Validate rejects every
// inconsistent knob combination.
#include <gtest/gtest.h>

#include <algorithm>
#include <chrono>
#include <cstdint>
#include <filesystem>
#include <fstream>
#include <limits>
#include <memory>
#include <set>
#include <sstream>
#include <stdexcept>
#include <thread>
#include <vector>

#include "cache/cached_tt_embedding.h"
#include "dlrm/checkpoint.h"
#include "dlrm/embedding_adapters.h"
#include "dlrm/embedding_bag.h"
#include "dlrm/model.h"
#include "dlrm/train_stages.h"
#include "dlrm/trainer.h"
#include "tensor/check.h"
#include "tensor/serialize.h"

namespace ttrec {
namespace {

namespace fs = std::filesystem;

DlrmConfig TinyConfig() {
  DlrmConfig cfg;
  cfg.emb_dim = 8;
  cfg.bottom_hidden = {16};
  cfg.top_hidden = {16};
  return cfg;
}

SyntheticCriteoConfig TinyData() {
  SyntheticCriteoConfig cfg;
  cfg.spec.name = "tiny";
  cfg.spec.table_rows = {200, 150, 120};
  cfg.teacher_scale = 4.0;
  cfg.seed = 11;
  return cfg;
}

/// Mixed-architecture model with a cache-backed table (table 2) — the case
/// where lookahead prefetch actually mutates state between steps.
std::unique_ptr<DlrmModel> MakeCachedModel(uint64_t seed,
                                           int64_t cache_capacity = 8) {
  Rng rng(seed);
  std::vector<std::unique_ptr<EmbeddingOp>> tables;
  tables.push_back(std::make_unique<DenseEmbeddingBag>(
      200, 8, PoolingMode::kSum, DenseEmbeddingInit::UniformScaled(), rng));
  TtEmbeddingConfig tcfg;
  tcfg.shape = MakeTtShape(150, 8, 3, 4);
  tables.push_back(
      std::make_unique<TtEmbeddingAdapter>(tcfg, TtInit::kGaussian, rng));
  CachedTtConfig ccfg;
  ccfg.tt.shape = MakeTtShape(120, 8, 3, 4);
  ccfg.cache_capacity = cache_capacity;
  ccfg.warmup_iterations = 3;
  ccfg.refresh_interval = 1;
  tables.push_back(std::make_unique<CachedTtEmbeddingAdapter>(
      ccfg, TtInit::kGaussian, rng));
  return std::make_unique<DlrmModel>(TinyConfig(), std::move(tables), rng);
}

/// Dense + plain TT only — no cache, so resume-under-lookahead is exact
/// (the documented cached-table caveat does not apply).
std::unique_ptr<DlrmModel> MakeUncachedModel(uint64_t seed) {
  Rng rng(seed);
  std::vector<std::unique_ptr<EmbeddingOp>> tables;
  tables.push_back(std::make_unique<DenseEmbeddingBag>(
      200, 8, PoolingMode::kSum, DenseEmbeddingInit::UniformScaled(), rng));
  TtEmbeddingConfig tcfg;
  tcfg.shape = MakeTtShape(150, 8, 3, 4);
  tables.push_back(
      std::make_unique<TtEmbeddingAdapter>(tcfg, TtInit::kGaussian, rng));
  TtEmbeddingConfig t2 = tcfg;
  t2.shape = MakeTtShape(120, 8, 3, 4);
  tables.push_back(
      std::make_unique<TtEmbeddingAdapter>(t2, TtInit::kGaussian, rng));
  return std::make_unique<DlrmModel>(TinyConfig(), std::move(tables), rng);
}

/// The reference for a prefetch plan: std::sort + std::unique.
std::vector<int64_t> SortThenUnique(std::vector<int64_t> ids) {
  std::sort(ids.begin(), ids.end());
  ids.erase(std::unique(ids.begin(), ids.end()), ids.end());
  return ids;
}

std::string CheckpointBytes(const DlrmModel& model) {
  std::stringstream ss;
  model.SaveCheckpoint(ss);
  return ss.str();
}

std::string ReadFile(const std::string& path) {
  std::ifstream is(path, std::ios::binary);
  std::stringstream ss;
  ss << is.rdbuf();
  return ss.str();
}

class ScratchDir {
 public:
  explicit ScratchDir(const std::string& name)
      : path_((fs::temp_directory_path() / name).string()) {
    fs::remove_all(path_);
  }
  ~ScratchDir() { fs::remove_all(path_); }
  const std::string& path() const { return path_; }

 private:
  std::string path_;
};

TrainConfig BaseTrain() {
  TrainConfig cfg;
  cfg.iterations = 24;
  cfg.batch_size = 16;
  cfg.lr = 0.05f;
  cfg.eval_batches = 2;
  cfg.eval_batch_size = 64;
  cfg.log_every = 4;
  return cfg;
}

struct RunOutput {
  std::string model_bytes;
  std::vector<double> loss;
  TrainResult result;
};

RunOutput RunTrain(const TrainConfig& cfg, bool cached = true,
              uint64_t seed = 42) {
  auto model = cached ? MakeCachedModel(seed) : MakeUncachedModel(seed);
  SyntheticCriteo data(TinyData());
  RunOutput out;
  out.result = TrainDlrm(*model, data, cfg);
  out.model_bytes = CheckpointBytes(*model);
  out.loss = out.result.loss_history;
  return out;
}

// --- Bitwise identity across execution strategies -------------------------

TEST(Pipeline, ThreadingIsBitwiseInvisibleAtEveryDepth) {
  for (const int64_t depth : {int64_t{0}, int64_t{1}, int64_t{4}}) {
    for (const auto opt :
         {OptimizerConfig::Kind::kSgd, OptimizerConfig::Kind::kAdagrad}) {
      SCOPED_TRACE("depth=" + std::to_string(depth) +
                   " adagrad=" + std::to_string(opt ==
                                                OptimizerConfig::Kind::kAdagrad));
      TrainConfig cfg = BaseTrain();
      cfg.optimizer = opt;
      cfg.lookahead_depth = depth;
      cfg.lookahead_threaded = false;
      cfg.num_threads = 1;
      const RunOutput base = RunTrain(cfg);

      for (const int threads : {1, 2, 8}) {
        SCOPED_TRACE("threads=" + std::to_string(threads));
        TrainConfig alt = cfg;
        alt.lookahead_threaded = true;
        alt.num_threads = threads;
        const RunOutput got = RunTrain(alt);
        EXPECT_EQ(got.model_bytes, base.model_bytes);
        EXPECT_EQ(got.loss, base.loss);
        EXPECT_EQ(got.result.final_eval.accuracy,
                  base.result.final_eval.accuracy);
        EXPECT_EQ(got.result.final_eval.loss, base.result.final_eval.loss);
      }
    }
  }
}

TEST(Pipeline, PrefetchRunsAtDepthOneAndAboveOnly) {
  TrainConfig cfg = BaseTrain();
  cfg.lookahead_depth = 0;
  EXPECT_EQ(RunTrain(cfg).result.prefetched_rows, 0);

  cfg.lookahead_depth = 4;
  const RunOutput deep = RunTrain(cfg);
  EXPECT_GT(deep.result.prefetched_rows, 0);
  EXPECT_GE(deep.result.prefetch_seconds, 0.0);
}

TEST(Pipeline, WindowSizedCacheHitsEveryLookupAfterWarmup) {
  // With room for the union of any depth + 1 consecutive plans, the window
  // rule keeps every row the next batches need resident, so once the
  // warm-up's last refresh is behind, every lookup of the cached table
  // hits. Evicting by count alone, as a single-plan prefetch does, drops
  // rows that an earlier batch of the window still needs.
  constexpr int kCachedTable = 2;
  constexpr int64_t kWarmup = 3;  // MakeCachedModel's warm-up window
  for (const int64_t depth : {int64_t{1}, int64_t{2}, int64_t{4}}) {
    SCOPED_TRACE("depth=" + std::to_string(depth));
    TrainConfig cfg = BaseTrain();
    cfg.eval_batches = 0;  // evaluation lookups would count too
    cfg.lookahead_depth = depth;
    TrainConfig warm = cfg;
    warm.iterations = kWarmup + 1;

    // The largest window union over the whole stream both runs draw.
    SyntheticCriteo probe(TinyData());
    std::vector<std::vector<int64_t>> rows;
    for (int64_t i = 0; i < warm.iterations + cfg.iterations; ++i) {
      rows.push_back(probe.NextBatch(cfg.batch_size)
                         .sparse[kCachedTable]
                         .indices);
    }
    size_t capacity = 0;
    for (size_t first = 0; first < rows.size(); ++first) {
      std::set<int64_t> window;
      for (size_t j = first;
           j < std::min(rows.size(), first + static_cast<size_t>(depth) + 1);
           ++j) {
        window.insert(rows[j].begin(), rows[j].end());
      }
      capacity = std::max(capacity, window.size());
    }

    auto model = MakeCachedModel(42, static_cast<int64_t>(capacity));
    SyntheticCriteo data(TinyData());
    TrainDlrm(*model, data, warm);  // ends on the refresh at kWarmup
    CachedTtEmbeddingBag* bag = model->table(kCachedTable).cached_bag();
    ASSERT_NE(bag, nullptr);
    ASSERT_TRUE(bag->warmed_up());
    bag->ResetStats();
    TrainDlrm(*model, data, cfg);
    int64_t lookups = 0;
    for (size_t i = static_cast<size_t>(warm.iterations); i < rows.size();
         ++i) {
      lookups += static_cast<int64_t>(rows[i].size());
    }
    EXPECT_EQ(bag->cache().misses(), 0);
    EXPECT_EQ(bag->cache().hits(), lookups);
  }
}

TEST(Pipeline, PipelineMetricsArePublished) {
  obs::MetricRegistry reg;
  TrainConfig cfg = BaseTrain();
  cfg.lookahead_depth = 2;
  cfg.lookahead_threaded = true;
  cfg.metrics = &reg;
  RunTrain(cfg);
  EXPECT_EQ(reg.counter("train.pipeline.batches_produced").Total(),
            cfg.iterations);
  EXPECT_EQ(reg.gauge("train.pipeline.depth").Value(), 2.0);
  EXPECT_EQ(reg.gauge("train.pipeline.threaded").Value(), 1.0);
  EXPECT_GT(reg.counter("train.pipeline.prefetch_rows").Total(), 0);
  EXPECT_GE(reg.gauge("train.pipeline.max_queue_depth").Value(), 1.0);
}

// --- Checkpointing under lookahead ---------------------------------------

TEST(Pipeline, SplicedSnapshotBytesMatchDirectSave) {
  auto model = MakeCachedModel(7);
  SyntheticCriteo data(TinyData());
  data.NextBatch(16);  // advance the cursor off its initial state
  SnapshotMeta meta;
  meta.iteration = 1;

  std::ostringstream payload_ss;
  BinaryWriter w(payload_ss);
  data.SaveState(w);

  std::ostringstream direct, spliced;
  SaveTrainingSnapshot(direct, *model, data, meta);
  SaveTrainingSnapshot(spliced, *model, std::string_view(payload_ss.str()),
                       meta);
  EXPECT_EQ(direct.str(), spliced.str());
}

TEST(Pipeline, SnapshotFilesIdenticalAcrossThreadingAtFixedDepth) {
  ScratchDir d1("ttrec_pipe_ck_inline");
  ScratchDir d2("ttrec_pipe_ck_threaded");
  TrainConfig cfg = BaseTrain();
  cfg.eval_batches = 0;
  cfg.lookahead_depth = 4;
  cfg.checkpoint_every = 5;

  cfg.lookahead_threaded = false;
  cfg.checkpoint_dir = d1.path();
  RunTrain(cfg);
  cfg.lookahead_threaded = true;
  cfg.checkpoint_dir = d2.path();
  RunTrain(cfg);

  CheckpointManagerConfig c1, c2;
  c1.directory = d1.path();
  c2.directory = d2.path();
  const auto s1 = CheckpointManager(c1).ListSnapshots();
  const auto s2 = CheckpointManager(c2).ListSnapshots();
  ASSERT_FALSE(s1.empty());
  ASSERT_EQ(s1.size(), s2.size());
  for (size_t i = 0; i < s1.size(); ++i) {
    EXPECT_EQ(ReadFile(s1[i]), ReadFile(s2[i])) << s1[i];
  }
}

TEST(Pipeline, ResumeUnderLookaheadReplaysExactStream) {
  // The producer runs ahead of the optimizer, so the snapshot at iteration
  // N must embed the cursor as of batch N — not wherever the source
  // happens to be. If that capture were wrong, the resumed run would train
  // on a shifted stream and the final models would differ.
  ScratchDir dir("ttrec_pipe_resume");
  TrainConfig cfg = BaseTrain();
  cfg.eval_batches = 0;
  cfg.lookahead_depth = 3;
  cfg.iterations = 12;

  const RunOutput full = RunTrain(cfg, /*cached=*/false);

  TrainConfig crash = cfg;
  crash.iterations = 7;  // snapshot lands at iteration 5
  crash.checkpoint_every = 5;
  crash.checkpoint_dir = dir.path();
  RunTrain(crash, /*cached=*/false);

  TrainConfig resumed = crash;
  resumed.iterations = 12;
  resumed.resume = true;
  const RunOutput rerun = RunTrain(resumed, /*cached=*/false);
  EXPECT_EQ(rerun.result.start_iteration, 5);
  EXPECT_EQ(rerun.model_bytes, full.model_bytes);
}

TEST(Pipeline, AsyncCheckpointWritesIdenticalBytesOffTheCriticalPath) {
  ScratchDir d1("ttrec_pipe_sync_ck");
  ScratchDir d2("ttrec_pipe_async_ck");
  TrainConfig cfg = BaseTrain();
  cfg.eval_batches = 0;
  cfg.lookahead_depth = 2;
  cfg.checkpoint_every = 4;

  cfg.checkpoint_dir = d1.path();
  const RunOutput sync = RunTrain(cfg);
  cfg.checkpoint_dir = d2.path();
  cfg.async_checkpoint = true;
  const RunOutput async = RunTrain(cfg);

  EXPECT_EQ(async.model_bytes, sync.model_bytes);
  EXPECT_GT(async.result.checkpoint_background_seconds, 0.0);
  EXPECT_EQ(async.result.robustness.checkpoints_written,
            sync.result.robustness.checkpoints_written);

  CheckpointManagerConfig c1, c2;
  c1.directory = d1.path();
  c2.directory = d2.path();
  const auto s1 = CheckpointManager(c1).ListSnapshots();
  const auto s2 = CheckpointManager(c2).ListSnapshots();
  ASSERT_EQ(s1.size(), s2.size());
  ASSERT_FALSE(s1.empty());
  for (size_t i = 0; i < s1.size(); ++i) {
    EXPECT_EQ(ReadFile(s1[i]), ReadFile(s2[i])) << s1[i];
  }

  // A fresh run can restore from the async-written snapshots.
  auto model = MakeCachedModel(42);
  SyntheticCriteo data(TinyData());
  SnapshotMeta meta;
  CheckpointManager mgr(c2);
  EXPECT_TRUE(mgr.RestoreLatest(*model, data, &meta));
  EXPECT_EQ(meta.iteration, 24);
}

TEST(Pipeline, AsyncWriteFailureSurfacesTypedFromWaitIdle) {
  ScratchDir dir("ttrec_pipe_async_fail");
  CheckpointManagerConfig cc;
  cc.directory = dir.path();
  CheckpointManager mgr(cc);

  auto model = MakeUncachedModel(3);
  SyntheticCriteo data(TinyData());
  std::ostringstream ss;
  BinaryWriter w(ss);
  data.SaveState(w);

  // Sabotage the directory: replace it with a regular file so the atomic
  // temp-file write cannot open.
  fs::remove_all(dir.path());
  std::ofstream(dir.path()) << "not a directory";

  SnapshotMeta meta;
  meta.iteration = 1;
  mgr.SaveAsync(*model, ss.str(), meta);
  EXPECT_THROW(mgr.WaitIdle(), TtRecError);
  // Once rethrown, the manager is idle again and does not re-throw.
  mgr.WaitIdle();
}

// --- Fault injection ------------------------------------------------------

/// SyntheticCriteo whose training stream throws on the Nth NextBatch call.
class ThrowingSource : public SyntheticCriteo {
 public:
  ThrowingSource(const SyntheticCriteoConfig& cfg, int64_t throw_at)
      : SyntheticCriteo(cfg), throw_at_(throw_at) {}
  MiniBatch NextBatch(int64_t batch_size) override {
    if (calls_++ == throw_at_) {
      throw std::runtime_error("injected source failure");
    }
    return SyntheticCriteo::NextBatch(batch_size);
  }

 private:
  int64_t throw_at_;
  int64_t calls_ = 0;
};

/// SyntheticCriteo whose `batch`-th training batch (0-based) carries `id`
/// as the first lookup of `table`.
class PoisonedSource : public SyntheticCriteo {
 public:
  PoisonedSource(const SyntheticCriteoConfig& cfg, int64_t batch, int table,
                 int64_t id)
      : SyntheticCriteo(cfg), batch_(batch), table_(table), id_(id) {}
  MiniBatch NextBatch(int64_t batch_size) override {
    MiniBatch b = SyntheticCriteo::NextBatch(batch_size);
    if (calls_++ == batch_) {
      b.sparse[static_cast<size_t>(table_)].indices.front() = id_;
    }
    return b;
  }

 private:
  int64_t batch_;
  int table_;
  int64_t id_;
  int64_t calls_ = 0;
};

/// SyntheticCriteo that stalls on every batch — the slow-producer case.
class SlowSource : public SyntheticCriteo {
 public:
  explicit SlowSource(const SyntheticCriteoConfig& cfg)
      : SyntheticCriteo(cfg) {}
  MiniBatch NextBatch(int64_t batch_size) override {
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
    return SyntheticCriteo::NextBatch(batch_size);
  }
};

TEST(Pipeline, SourceFailurePropagatesAsPipelineErrorWithoutDeadlock) {
  for (const bool threaded : {false, true}) {
    for (const int64_t throw_at : {int64_t{0}, int64_t{5}}) {
      SCOPED_TRACE("threaded=" + std::to_string(threaded) +
                   " throw_at=" + std::to_string(throw_at));
      auto model = MakeCachedModel(42);
      ThrowingSource data(TinyData(), throw_at);
      TrainConfig cfg = BaseTrain();
      cfg.eval_batches = 0;
      cfg.lookahead_depth = 2;
      cfg.lookahead_threaded = threaded;
      EXPECT_THROW(TrainDlrm(*model, data, cfg), PipelineError);
    }
  }
}

TEST(Pipeline, DepthZeroSourceFailureIsAlsoTyped) {
  auto model = MakeCachedModel(42);
  ThrowingSource data(TinyData(), 3);
  TrainConfig cfg = BaseTrain();
  cfg.eval_batches = 0;
  EXPECT_THROW(TrainDlrm(*model, data, cfg), PipelineError);
}

TEST(Pipeline, SlowSourceChangesNothingButWallClock) {
  TrainConfig cfg = BaseTrain();
  cfg.iterations = 12;
  cfg.lookahead_depth = 2;
  cfg.lookahead_threaded = false;
  auto run = [&cfg](bool slow) {
    auto model = MakeCachedModel(42);
    std::unique_ptr<SyntheticCriteo> data =
        slow ? std::make_unique<SlowSource>(TinyData())
             : std::make_unique<SyntheticCriteo>(TinyData());
    TrainDlrm(*model, *data, cfg);
    return CheckpointBytes(*model);
  };
  const std::string fast_inline = run(false);
  EXPECT_EQ(run(true), fast_inline);
  cfg.lookahead_threaded = true;
  EXPECT_EQ(run(true), fast_inline);
}

// --- LookaheadStage unit behavior ----------------------------------------

TEST(LookaheadStage, DeliversTheExactStreamInOrder) {
  SyntheticCriteo staged_src(TinyData());
  LookaheadOptions lo;
  lo.depth = 3;
  lo.threaded = true;
  lo.batch_size = 8;
  lo.total_batches = 10;
  LookaheadStage stage(staged_src, lo);

  SyntheticCriteo direct(TinyData());
  for (int64_t i = 0; i < 10; ++i) {
    ASSERT_FALSE(stage.Exhausted());
    StagedBatch sb = stage.Next();
    EXPECT_EQ(sb.index, i);
    const MiniBatch want = direct.NextBatch(8);
    EXPECT_EQ(sb.batch.labels, want.labels);
    for (size_t t = 0; t < want.sparse.size(); ++t) {
      EXPECT_EQ(sb.batch.sparse[t].indices, want.sparse[t].indices);
    }
  }
  EXPECT_TRUE(stage.Exhausted());
  EXPECT_EQ(stage.stats().batches_produced, 10);
  EXPECT_LE(stage.stats().max_queue_depth, 3);
}

TEST(LookaheadStage, PlansAreSortedUniquePerSelectedTable) {
  SyntheticCriteo src(TinyData());
  LookaheadOptions lo;
  lo.depth = 1;
  lo.threaded = false;
  lo.batch_size = 32;
  lo.total_batches = 3;
  lo.plan_tables = {false, false, true};
  LookaheadStage stage(src, lo);
  for (int64_t i = 0; i < 3; ++i) {
    StagedBatch sb = stage.Next();
    ASSERT_EQ(sb.plan.size(), 3u);
    EXPECT_TRUE(sb.plan[0].empty());
    EXPECT_TRUE(sb.plan[1].empty());
    ASSERT_FALSE(sb.plan[2].empty());
    for (size_t k = 1; k < sb.plan[2].size(); ++k) {
      EXPECT_LT(sb.plan[2][k - 1], sb.plan[2][k]);
    }
    EXPECT_EQ(sb.plan[2], SortThenUnique(sb.batch.sparse[2].indices));
  }
}

TEST(LookaheadStage, SortUniqueIdsMatchesSortThenUnique) {
  // The plan builder's radix sort against std::sort + std::unique: edge
  // sizes, one-pass and multi-pass key widths, negative ids (which plans
  // must carry through to PrefetchRows' validation) and the int64 extremes.
  constexpr int64_t kMin = std::numeric_limits<int64_t>::min();
  constexpr int64_t kMax = std::numeric_limits<int64_t>::max();
  std::vector<std::vector<int64_t>> inputs = {
      {}, {7}, {-3}, {5, 5, 5, 5}, {kMax, kMin}, {kMin, kMin, kMax, 0, -1, 1},
      {3, 2047, 2048, 0, 2047}};
  Rng rng(91);
  const auto draw = [&rng](int64_t n, const auto& id) {
    std::vector<int64_t> v;
    for (int64_t i = 0; i < n; ++i) v.push_back(id());
    return v;
  };
  for (const int64_t n : {int64_t{2}, int64_t{100}, int64_t{5000}}) {
    // Rows of a 200k-row table (two passes), and a hot few (one pass).
    inputs.push_back(draw(n, [&] { return rng.RandInt(200000); }));
    inputs.push_back(draw(n, [&] { return rng.RandInt(40); }));
    // Negative ids, alone and mixed with valid rows.
    inputs.push_back(draw(n, [&] { return -1 - rng.RandInt(5000); }));
    inputs.push_back(draw(n, [&] { return rng.RandInt(5000) - 2500; }));
    // Spans past 2^33 and up to the full int64 range: many passes.
    inputs.push_back(draw(n, [&] {
      return static_cast<int64_t>(rng.NextUInt64() >> 29) - (int64_t{1} << 33);
    }));
    inputs.push_back(
        draw(n, [&] { return static_cast<int64_t>(rng.NextUInt64()); }));
    std::vector<int64_t> extremes =
        draw(n, [&] { return rng.RandInt(1000); });
    extremes.insert(extremes.end(), {kMin, kMax, kMin + 1, kMax - 1, kMax});
    inputs.push_back(extremes);
  }
  for (size_t i = 0; i < inputs.size(); ++i) {
    SCOPED_TRACE("input " + std::to_string(i) + ", " +
                 std::to_string(inputs[i].size()) + " ids");
    std::vector<int64_t> got = inputs[i];
    SortUniqueIds(got);
    EXPECT_EQ(got, SortThenUnique(inputs[i]));
  }
}

TEST(Pipeline, OutOfRangePlanRowThrowsTypedBeforeAnyCacheChanges) {
  // A staged batch whose cached-table bag holds a negative id or an id
  // past the table reaches PrefetchRows through its plan, and the first
  // window that holds it throws IndexError before any cache mutation.
  constexpr int kCachedTable = 2;
  constexpr int64_t kRows = 120;  // MakeCachedModel's cached table
  for (const int64_t bad : {int64_t{-1}, kRows}) {
    for (const bool threaded : {false, true}) {
      SCOPED_TRACE("bad=" + std::to_string(bad) +
                   " threaded=" + std::to_string(threaded));
      auto model = MakeCachedModel(42, /*cache_capacity=*/16);
      TrainConfig cfg = BaseTrain();
      cfg.eval_batches = 0;
      cfg.lookahead_depth = 2;
      cfg.lookahead_threaded = threaded;
      cfg.iterations = 6;  // past the warm-up: the cache is populated
      SyntheticCriteo clean(TinyData());
      TrainDlrm(*model, clean, cfg);
      CachedTtEmbeddingBag* bag = model->table(kCachedTable).cached_bag();
      ASSERT_NE(bag, nullptr);
      ASSERT_GT(bag->cache().size(), 0);
      const std::string before = CheckpointBytes(*model);
      const std::vector<int64_t> rows_before = bag->cache().CachedRows();
      const int64_t inserts_before = bag->prefetch_inserts();

      // The bad id sits in the window's second batch, not its front.
      PoisonedSource poisoned(TinyData(), /*batch=*/1, kCachedTable, bad);
      EXPECT_THROW(TrainDlrm(*model, poisoned, cfg), IndexError);
      EXPECT_EQ(CheckpointBytes(*model), before);
      EXPECT_EQ(bag->cache().CachedRows(), rows_before);
      EXPECT_EQ(bag->prefetch_inserts(), inserts_before);
    }
  }
}

TEST(LookaheadStage, RestartRebasesAfterCursorRestore) {
  SyntheticCriteo src(TinyData());
  std::ostringstream cursor0;
  BinaryWriter w(cursor0);
  src.SaveState(w);

  LookaheadOptions lo;
  lo.depth = 2;
  lo.threaded = true;
  lo.batch_size = 8;
  lo.total_batches = 6;
  LookaheadStage stage(src, lo);
  const StagedBatch first = stage.Next();
  stage.Next();

  stage.Pause();
  std::istringstream is(cursor0.str());
  BinaryReader r(is);
  src.LoadState(r);
  stage.Restart(0);

  const StagedBatch replayed = stage.Next();
  EXPECT_EQ(replayed.index, 0);
  EXPECT_EQ(replayed.batch.labels, first.batch.labels);
  EXPECT_EQ(stage.stats().restarts, 1);
}

// --- TrainConfig::Validate ------------------------------------------------

TEST(TrainConfigValidate, AcceptsDefaultsAndFullyLoadedValidConfig) {
  TrainConfig cfg;
  cfg.Validate();

  cfg.lookahead_depth = 4;
  cfg.num_threads = 2;
  cfg.cache_budget_bytes = 1 << 20;
  cfg.cache_retune_interval = 10;
  cfg.checkpoint_every = 5;
  cfg.checkpoint_dir = "/tmp/x";
  cfg.async_checkpoint = true;
  cfg.resume = true;
  cfg.fault.on_fault = FaultToleranceConfig::OnFault::kRollback;
  cfg.fault.spike_factor = 3.0;
  cfg.Validate();
}

TEST(TrainConfigValidate, RejectsEveryInconsistentKnobCombination) {
  const auto expect_bad = [](void (*mutate)(TrainConfig&)) {
    TrainConfig cfg;
    cfg.checkpoint_every = 5;  // valid checkpointing baseline
    cfg.checkpoint_dir = "/tmp/x";
    mutate(cfg);
    EXPECT_THROW(cfg.Validate(), ConfigError);
  };
  expect_bad([](TrainConfig& c) { c.iterations = 0; });
  expect_bad([](TrainConfig& c) { c.batch_size = 0; });
  expect_bad([](TrainConfig& c) { c.eval_batch_size = 0; });
  expect_bad([](TrainConfig& c) { c.log_every = -1; });
  expect_bad([](TrainConfig& c) { c.num_threads = -1; });
  expect_bad([](TrainConfig& c) { c.cache_budget_bytes = 1024; });
  expect_bad([](TrainConfig& c) { c.cache_retune_interval = 8; });
  expect_bad([](TrainConfig& c) { c.lookahead_depth = -1; });
  expect_bad([](TrainConfig& c) { c.checkpoint_every = -1; });
  expect_bad([](TrainConfig& c) { c.checkpoint_dir.clear(); });
  expect_bad([](TrainConfig& c) { c.checkpoint_keep_last = 0; });
  expect_bad([](TrainConfig& c) {
    c.checkpoint_every = 0;
    c.checkpoint_dir.clear();
    c.resume = true;
  });
  expect_bad([](TrainConfig& c) {
    c.checkpoint_every = 0;
    c.async_checkpoint = true;
  });
  expect_bad([](TrainConfig& c) {
    c.checkpoint_every = 0;
    c.fault.on_fault = FaultToleranceConfig::OnFault::kRollback;
  });
  expect_bad([](TrainConfig& c) { c.fault.max_rollbacks = -1; });
  expect_bad([](TrainConfig& c) { c.fault.grad_clip_norm = -1.0f; });
  expect_bad([](TrainConfig& c) { c.fault.spike_factor = -0.5; });
  expect_bad([](TrainConfig& c) { c.fault.spike_warmup = -1; });
  expect_bad([](TrainConfig& c) { c.fault.spike_ema_beta = 0.0; });
  expect_bad([](TrainConfig& c) { c.fault.spike_ema_beta = 1.0; });
  expect_bad([](TrainConfig& c) { c.report_interval_ms = -1; });
}

}  // namespace
}  // namespace ttrec
