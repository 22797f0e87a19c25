// BatchSource contract: trace record/replay round-trips the stream
// bitwise, cursors save/restore exactly, and the skew-shift source builds
// deterministic full minibatches whose eval stream never perturbs training.
#include <gtest/gtest.h>

#include <cstring>
#include <sstream>
#include <vector>

#include "data/batch_source.h"
#include "data/criteo_synth.h"
#include "data/skew_shift_source.h"
#include "tensor/check.h"
#include "tensor/serialize.h"

namespace ttrec {
namespace {

SyntheticCriteoConfig TinyCriteo() {
  SyntheticCriteoConfig cfg;
  cfg.spec.name = "tiny";
  cfg.spec.table_rows = {200, 150, 120};
  cfg.teacher_scale = 4.0;
  cfg.seed = 11;
  return cfg;
}

SkewShiftSourceConfig TinySkew() {
  SkewShiftSourceConfig cfg;
  cfg.scenario.tables = {{300, 1.2, 4.0}, {200, 1.05, 1.0}, {150, 0.9, 1.0}};
  cfg.scenario.lookups_per_iteration = 12;
  cfg.scenario.phase_length = 16;
  cfg.scenario.seed = 0xBEEF;
  cfg.num_dense = 5;
  return cfg;
}

void ExpectBatchEq(const MiniBatch& a, const MiniBatch& b) {
  ASSERT_EQ(a.dense.shape(), b.dense.shape());
  ASSERT_EQ(0, std::memcmp(a.dense.data(), b.dense.data(),
                           sizeof(float) * a.dense.numel()));
  ASSERT_EQ(a.labels, b.labels);
  ASSERT_EQ(a.sparse.size(), b.sparse.size());
  for (size_t t = 0; t < a.sparse.size(); ++t) {
    EXPECT_EQ(a.sparse[t].indices, b.sparse[t].indices) << "table " << t;
    EXPECT_EQ(a.sparse[t].offsets, b.sparse[t].offsets) << "table " << t;
    EXPECT_EQ(a.sparse[t].weights, b.sparse[t].weights) << "table " << t;
  }
}

std::string StateOf(const BatchSource& s) {
  std::ostringstream ss;
  BinaryWriter w(ss);
  s.SaveState(w);
  return ss.str();
}

void RestoreState(BatchSource& s, const std::string& bytes) {
  std::istringstream ss(bytes);
  BinaryReader r(ss);
  s.LoadState(r);
}

// --- TraceReplaySource ----------------------------------------------------

TEST(TraceReplay, RecordThenReplayMatchesOriginalStreamBitwise) {
  SyntheticCriteo live(TinyCriteo());
  TraceReplaySource trace =
      TraceReplaySource::Record(live, /*train_batches=*/6,
                                /*train_batch_size=*/16, /*eval_batches=*/2,
                                /*eval_batch_size=*/32);
  EXPECT_EQ(trace.num_tables(), live.num_tables());
  EXPECT_EQ(trace.train_size(), 6);

  SyntheticCriteo fresh(TinyCriteo());
  for (int i = 0; i < 6; ++i) {
    SCOPED_TRACE(i);
    ExpectBatchEq(trace.NextBatch(16), fresh.NextBatch(16));
  }
  for (uint64_t s = 1; s <= 2; ++s) {
    ExpectBatchEq(trace.EvalBatch(32, s), fresh.EvalBatch(32, s));
  }
}

TEST(TraceReplay, LoopWrapsAndNoLoopThrowsOnExhaustion) {
  SyntheticCriteo live(TinyCriteo());
  TraceReplaySource looped =
      TraceReplaySource::Record(live, 3, 8, /*eval_batches=*/0, 8);
  MiniBatch first = looped.NextBatch(8);
  looped.NextBatch(8);
  looped.NextBatch(8);
  ExpectBatchEq(looped.NextBatch(8), first);  // wrapped

  SyntheticCriteo live2(TinyCriteo());
  std::vector<MiniBatch> train;
  for (int i = 0; i < 2; ++i) train.push_back(live2.NextBatch(8));
  TraceReplaySource finite(std::move(train), {}, /*loop=*/false);
  finite.NextBatch(8);
  finite.NextBatch(8);
  EXPECT_THROW(finite.NextBatch(8), ConfigError);
}

TEST(TraceReplay, BatchSizeMismatchAndMissingEvalThrowTyped) {
  SyntheticCriteo live(TinyCriteo());
  TraceReplaySource trace = TraceReplaySource::Record(live, 2, 16, 0, 16);
  EXPECT_THROW(trace.NextBatch(8), ConfigError);
  EXPECT_THROW(trace.EvalBatch(16, 1), ConfigError);
}

TEST(TraceReplay, CursorSavesAndRestoresMidTrace) {
  SyntheticCriteo live(TinyCriteo());
  TraceReplaySource a = TraceReplaySource::Record(live, 5, 8, 0, 8);
  TraceReplaySource b = a;  // identical trace, independent cursor
  a.NextBatch(8);
  a.NextBatch(8);
  const std::string cursor = StateOf(a);
  EXPECT_EQ(a.cursor(), 2);

  RestoreState(b, cursor);
  EXPECT_EQ(b.cursor(), 2);
  ExpectBatchEq(a.NextBatch(8), b.NextBatch(8));

  // A cursor beyond the recorded trace is corruption, not silent wrap.
  TraceReplaySource c = TraceReplaySource::Record(live, 1, 8, 0, 8);
  EXPECT_THROW(RestoreState(c, cursor), TtRecError);
}

// --- SkewShiftBatchSource -------------------------------------------------

TEST(SkewShiftSource, BatchesHaveFullMiniBatchShape) {
  SkewShiftBatchSource src(TinySkew());
  EXPECT_EQ(src.num_tables(), 3);
  MiniBatch b = src.NextBatch(20);
  EXPECT_EQ(b.batch_size(), 20);
  ASSERT_EQ(b.dense.shape(), (std::vector<int64_t>{20, 5}));
  ASSERT_EQ(b.sparse.size(), 3u);
  for (const CsrBatch& t : b.sparse) {
    EXPECT_EQ(t.num_bags(), 20);
    t.ValidateStructure();
    EXPECT_GT(t.num_lookups(), 0);
  }
  for (float y : b.labels) EXPECT_TRUE(y == 0.0f || y == 1.0f);
  // One scenario iteration per sample.
  EXPECT_EQ(src.scenario().iteration(), 20);
}

TEST(SkewShiftSource, IdenticalConfigsProduceIdenticalStreams) {
  SkewShiftBatchSource a(TinySkew());
  SkewShiftBatchSource b(TinySkew());
  for (int i = 0; i < 4; ++i) {
    SCOPED_TRACE(i);
    ExpectBatchEq(a.NextBatch(10), b.NextBatch(10));
  }
}

TEST(SkewShiftSource, EvalIsDeterministicPerSeedAndSideEffectFree) {
  SkewShiftBatchSource a(TinySkew());
  SkewShiftBatchSource b(TinySkew());
  a.NextBatch(10);
  b.NextBatch(10);

  // Eval calls on `a` must not perturb its training stream.
  ExpectBatchEq(a.EvalBatch(16, 1), a.EvalBatch(16, 1));
  a.EvalBatch(16, 7);
  ExpectBatchEq(a.NextBatch(10), b.NextBatch(10));

  // Different eval seeds draw different batches (same distribution).
  MiniBatch e1 = a.EvalBatch(64, 1);
  MiniBatch e2 = a.EvalBatch(64, 2);
  bool differs = false;
  for (size_t t = 0; t < e1.sparse.size() && !differs; ++t) {
    differs = e1.sparse[t].indices != e2.sparse[t].indices;
  }
  EXPECT_TRUE(differs);
}

TEST(SkewShiftSource, SaveLoadResumesStreamExactlyAcrossPhaseBoundary) {
  SkewShiftBatchSource a(TinySkew());
  a.NextBatch(10);  // 10 scenario iterations (phase_length 16)
  const std::string cursor = StateOf(a);

  // Continue past the phase boundary on both the original and a restored
  // copy; streams must match bitwise.
  SkewShiftBatchSource b(TinySkew());
  RestoreState(b, cursor);
  for (int i = 0; i < 3; ++i) {
    SCOPED_TRACE(i);
    ExpectBatchEq(a.NextBatch(10), b.NextBatch(10));
  }
  EXPECT_GT(a.scenario().phase(), 0);
}

TEST(SkewShiftSource, TeacherValuesAreBoundedAndSeedStable) {
  SkewShiftBatchSource a(TinySkew());
  SkewShiftBatchSource b(TinySkew());
  for (int t = 0; t < a.num_tables(); ++t) {
    for (int64_t r = 0; r < 50; ++r) {
      const double v = a.TeacherValue(t, r);
      EXPECT_GE(v, -1.0);
      EXPECT_LE(v, 1.0);
      EXPECT_EQ(v, b.TeacherValue(t, r));
    }
  }
}

TEST(SkewShiftScenarioState, SaveLoadReplaysIterationStreamExactly) {
  SkewShiftConfig cfg = TinySkew().scenario;
  SkewShiftScenario a(cfg);
  for (int i = 0; i < 12; ++i) a.NextBatch();

  std::ostringstream os;
  BinaryWriter w(os);
  a.SaveState(w);

  SkewShiftScenario b(cfg);
  std::istringstream is(os.str());
  BinaryReader r(is);
  b.LoadState(r);
  EXPECT_EQ(b.iteration(), 12);

  for (int i = 0; i < 10; ++i) {  // crosses the phase-16 boundary
    const auto ba = a.NextBatch();
    const auto bb = b.NextBatch();
    ASSERT_EQ(ba.size(), bb.size());
    for (size_t t = 0; t < ba.size(); ++t) {
      EXPECT_EQ(ba[t].indices, bb[t].indices) << "iter " << i << " table " << t;
    }
  }
}

TEST(SkewShiftScenarioState, AppendNextPacksTheNextBatchStream) {
  // Appending 40 iterations into one set of bags (two phase boundaries
  // inside) draws the bags NextBatch returns, one after another.
  SkewShiftConfig cfg = TinySkew().scenario;
  SkewShiftScenario a(cfg);
  SkewShiftScenario b(cfg);
  std::vector<CsrBatch> packed(static_cast<size_t>(b.num_tables()));
  for (CsrBatch& bag : packed) bag.offsets.push_back(0);
  for (int i = 0; i < 40; ++i) {
    const std::vector<CsrBatch> want = a.NextBatch();
    b.AppendNext(packed);
    EXPECT_EQ(b.iteration(), a.iteration());
    for (size_t t = 0; t < want.size(); ++t) {
      const CsrBatch& got = packed[t];
      ASSERT_EQ(got.num_bags(), i + 1);
      const auto begin = got.indices.begin() + got.offsets[i];
      const auto end = got.indices.begin() + got.offsets[i + 1];
      EXPECT_EQ(std::vector<int64_t>(begin, end), want[t].indices)
          << "iter " << i << " table " << t;
      EXPECT_EQ(want[t].offsets,
                (std::vector<int64_t>{0, a.LookupsFor(static_cast<int>(t))}));
    }
  }
  EXPECT_EQ(a.phase(), 2);
  std::vector<CsrBatch> too_few(1);
  EXPECT_THROW(b.AppendNext(too_few), ShapeError);
}

}  // namespace
}  // namespace ttrec
