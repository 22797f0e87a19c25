// Serialization: tensor/TT-core roundtrips, checksum protection, format
// validation, file I/O.
#include <gtest/gtest.h>

#include <cstdio>
#include <cstring>
#include <sstream>
#include <string>
#include <vector>

#include "tensor/check.h"
#include "tensor/random.h"
#include "tensor/serialize.h"
#include "tt/tt_embedding.h"
#include "tt/tt_io.h"

namespace ttrec {
namespace {

TEST(Serialize, TensorRoundTrip) {
  Tensor t({3, 4});
  Rng rng(1);
  for (int64_t i = 0; i < t.numel(); ++i) {
    t.data()[i] = static_cast<float>(rng.Uniform(-1, 1));
  }
  std::stringstream ss;
  BinaryWriter w(ss);
  SaveTensor(w, t);
  w.Finish();

  BinaryReader r(ss);
  Tensor back = LoadTensor(r);
  r.Finish();
  EXPECT_EQ(back.shape(), t.shape());
  EXPECT_EQ(MaxAbsDiff(back, t), 0.0);
}

TEST(Serialize, PrimitiveRoundTrip) {
  std::stringstream ss;
  BinaryWriter w(ss);
  w.WriteU32(0xDEADBEEF);
  w.WriteI64(-42);
  w.WriteI64Vec({1, 2, 3});
  w.WriteString("tt-rec");
  w.Finish();

  BinaryReader r(ss);
  EXPECT_EQ(r.ReadU32(), 0xDEADBEEF);
  EXPECT_EQ(r.ReadI64(), -42);
  EXPECT_EQ(r.ReadI64Vec(), (std::vector<int64_t>{1, 2, 3}));
  EXPECT_EQ(r.ReadString(), "tt-rec");
  EXPECT_NO_THROW(r.Finish());
}

TEST(Serialize, ChecksumCatchesCorruption) {
  std::stringstream ss;
  BinaryWriter w(ss);
  w.WriteI64Vec({10, 20, 30, 40});
  w.Finish();
  std::string payload = ss.str();
  payload[12] ^= 0x01;  // flip one bit inside the data

  std::stringstream corrupted(payload);
  BinaryReader r(corrupted);
  (void)r.ReadI64Vec();
  EXPECT_THROW(r.Finish(), TtRecError);
}

TEST(Serialize, TruncatedStreamThrows) {
  std::stringstream ss;
  BinaryWriter w(ss);
  w.WriteI64(7);
  w.Finish();
  std::stringstream truncated(ss.str().substr(0, 4));
  BinaryReader r(truncated);
  EXPECT_THROW(r.ReadI64(), TtRecError);
}

TEST(TtIo, CoresRoundTripPreservesLookups) {
  Rng rng(7);
  TtEmbeddingConfig cfg;
  cfg.shape = MakeTtShape(1000, 16, 3, 8);
  TtEmbeddingBag emb(cfg, TtInit::kSampledGaussian, rng);

  std::stringstream ss;
  SaveTtCores(ss, emb.cores());
  TtCores loaded = LoadTtCores(ss);

  EXPECT_EQ(loaded.shape().num_rows, 1000);
  EXPECT_EQ(loaded.shape().emb_dim, 16);
  std::vector<float> a(16), b(16);
  for (int64_t row : {int64_t{0}, int64_t{517}, int64_t{999}}) {
    emb.cores().MaterializeRow(row, a.data());
    loaded.MaterializeRow(row, b.data());
    for (int j = 0; j < 16; ++j) EXPECT_EQ(a[static_cast<size_t>(j)], b[static_cast<size_t>(j)]);
  }
}

TEST(TtIo, RejectsBadMagicAndVersion) {
  std::stringstream ss;
  BinaryWriter w(ss);
  w.WriteU32(0x12345678);
  w.Finish();
  EXPECT_THROW(LoadTtCores(ss), TtRecError);

  std::stringstream ss2;
  BinaryWriter w2(ss2);
  w2.WriteU32(0x43525454);
  w2.WriteU32(999);  // future version
  w2.Finish();
  EXPECT_THROW(LoadTtCores(ss2), TtRecError);
}

TEST(TtIo, FileRoundTripAndSize) {
  Rng rng(9);
  TtShape shape = MakeTtShape(100000, 16, 3, 16);
  TtCores cores(shape);
  InitializeTtCores(cores, TtInit::kGaussian, rng);

  const std::string path = "/tmp/ttrec_test_cores.bin";
  SaveTtCoresToFile(path, cores);
  TtCores loaded = LoadTtCoresFromFile(path);
  EXPECT_EQ(loaded.TotalParams(), cores.TotalParams());
  for (int k = 0; k < 3; ++k) {
    EXPECT_EQ(MaxAbsDiff(loaded.core(k), cores.core(k)), 0.0);
  }
  // The file is dominated by the core parameters, not overhead.
  std::FILE* f = std::fopen(path.c_str(), "rb");
  ASSERT_NE(f, nullptr);
  std::fseek(f, 0, SEEK_END);
  const long size = std::ftell(f);
  std::fclose(f);
  std::remove(path.c_str());
  EXPECT_LT(size, cores.TotalParams() * 4 + 1024);
  EXPECT_GT(size, cores.TotalParams() * 4);

  EXPECT_THROW(LoadTtCoresFromFile("/nonexistent/path.bin"), TtRecError);
}


// ---------------------------------------------------------------------------
// CRC32-framed sections (the crash-safety layer under TTSN snapshots).

TEST(Serialize, Crc32MatchesKnownVector) {
  // IEEE CRC32 of "123456789" is the classic check value 0xCBF43926.
  EXPECT_EQ(Crc32("123456789", 9), 0xCBF43926u);
  // Incremental computation equals one-shot.
  uint32_t inc = Crc32("12345", 5);
  inc = Crc32("6789", 4, inc);
  EXPECT_EQ(inc, 0xCBF43926u);
  EXPECT_EQ(Crc32(nullptr, 0), 0u);
}

/// The CRC32 definition itself, one bit at a time: the reference the
/// table-driven Crc32 must reproduce.
uint32_t BitwiseCrc32(const unsigned char* p, size_t bytes, uint32_t crc) {
  uint32_t c = crc ^ 0xFFFFFFFFu;
  for (size_t i = 0; i < bytes; ++i) {
    c ^= p[i];
    for (int k = 0; k < 8; ++k) c = (c & 1u) ? 0xEDB88320u ^ (c >> 1) : c >> 1;
  }
  return c ^ 0xFFFFFFFFu;
}

TEST(Serialize, Crc32MatchesBitwiseReference) {
  // Crc32 folds eight bytes per step and the rest one at a time. Every
  // length from 0 to 4096 and every start offset modulo 8 must give the
  // definition's value, from a zero seed, from an arbitrary one, and when
  // the buffer is split in two and the CRC chained across the split.
  Rng rng(0xC3C3);
  std::vector<unsigned char> buf(4096 + 8);
  for (unsigned char& b : buf) b = static_cast<unsigned char>(rng.RandInt(256));
  for (size_t len = 0; len <= 4096; ++len) {
    const unsigned char* p = buf.data() + len % 8;
    const uint32_t seed = static_cast<uint32_t>(rng.RandInt(int64_t{1} << 32));
    ASSERT_EQ(Crc32(p, len), BitwiseCrc32(p, len, 0)) << "length " << len;
    const uint32_t want = BitwiseCrc32(p, len, seed);
    ASSERT_EQ(Crc32(p, len, seed), want) << "length " << len;
    const size_t split = len / 3;
    ASSERT_EQ(Crc32(p + split, len - split, Crc32(p, split, seed)), want)
        << "length " << len << " split at " << split;
  }
}

TEST(Serialize, CheckpointSectionCrcsAndTrailerArePinned) {
  // A small checkpoint-shaped stream: a TTSN-style header, then sections
  // whose payloads run from 24 bytes to 8 KiB and leave every remainder
  // modulo 8. The pinned CRCs and FNV-1a trailer are those of the
  // bytewise CRC32 (zlib's crc32 gives the same); a change to either
  // algorithm would change every checkpoint file and fails here.
  std::ostringstream os;
  BinaryWriter w(os);
  w.WriteU32(0x4E535454u);
  w.WriteU32(1);
  const std::vector<size_t> floats = {0, 1, 3, 64, 1026, 2051, 7, 12};
  w.WriteU32(static_cast<uint32_t>(floats.size()));
  for (size_t s = 0; s < floats.size(); ++s) {
    w.BeginSection("s" + std::to_string(s));
    w.WriteI64(static_cast<int64_t>(s) * 1000 + 7);
    std::vector<float> v(floats[s]);
    for (size_t i = 0; i < v.size(); ++i) {
      v[i] = static_cast<float>(static_cast<int>((i * 37 + s) % 97) - 48) *
             0.125f;
    }
    w.WriteFloats(v.data(), v.size());
    w.WriteString(std::string(s, 'x'));
    w.EndSection();
  }
  w.Finish();
  const std::string bytes = os.str();

  // Walk the frames: [i64 name length][name][i64 size][payload][u32 crc].
  const auto read_at = [&](size_t pos, auto value) {
    EXPECT_LE(pos + sizeof(value), bytes.size());
    std::memcpy(&value, bytes.data() + pos, sizeof(value));
    return value;
  };
  std::vector<uint32_t> crcs;
  size_t pos = 3 * sizeof(uint32_t);
  for (size_t s = 0; s < floats.size(); ++s) {
    pos += sizeof(int64_t) + static_cast<size_t>(read_at(pos, int64_t{0}));
    const auto size = static_cast<size_t>(read_at(pos, int64_t{0}));
    pos += sizeof(int64_t);
    EXPECT_EQ(Crc32(bytes.data() + pos, size), read_at(pos + size, 0u));
    crcs.push_back(read_at(pos + size, 0u));
    pos += size + sizeof(uint32_t);
  }
  ASSERT_EQ(pos + sizeof(uint64_t), bytes.size());
  EXPECT_EQ(crcs, (std::vector<uint32_t>{
                      0x92D9FD57u, 0xE352DD1Au, 0xA9B42192u, 0xB733E3D4u,
                      0x84633D44u, 0x705FE5A1u, 0xF2C717EDu, 0x4BA10390u}));
  EXPECT_EQ(read_at(pos, uint64_t{0}), 0xCC25D54C56221633ull);

  std::istringstream is(bytes);
  BinaryReader r(is);
  r.ReadU32();
  r.ReadU32();
  EXPECT_EQ(r.ReadU32(), floats.size());
  for (size_t s = 0; s < floats.size(); ++s) {
    r.BeginSection("s" + std::to_string(s));
    EXPECT_EQ(r.ReadI64(), static_cast<int64_t>(s) * 1000 + 7);
    std::vector<float> v(floats[s]);
    r.ReadFloats(v.data(), v.size());
    EXPECT_EQ(r.ReadString(), std::string(s, 'x'));
    r.EndSection();
  }
  r.Finish();
}

TEST(Serialize, SectionRoundTrip) {
  std::stringstream ss;
  BinaryWriter w(ss);
  w.WriteU32(0xABCD);  // unsectioned preamble
  w.BeginSection("meta");
  w.WriteI64(42);
  w.WriteString("hello");
  w.EndSection();
  w.BeginSection("empty");
  w.EndSection();
  w.Finish();

  BinaryReader r(ss);
  EXPECT_EQ(r.ReadU32(), 0xABCDu);
  const uint64_t size = r.BeginSection("meta");
  EXPECT_EQ(size, 8u + 8u + 5u);
  EXPECT_EQ(r.ReadI64(), 42);
  EXPECT_EQ(r.ReadString(), "hello");
  EXPECT_EQ(r.SectionRemaining(), 0u);
  r.EndSection();
  EXPECT_EQ(r.BeginSection("empty"), 0u);
  r.EndSection();
  r.Finish();
}

TEST(Serialize, SectionNameMismatchThrows) {
  std::stringstream ss;
  BinaryWriter w(ss);
  w.BeginSection("model");
  w.WriteI64(1);
  w.EndSection();
  w.Finish();
  BinaryReader r(ss);
  EXPECT_THROW(r.BeginSection("optim"), TtRecError);
}

TEST(Serialize, SectionCrcCatchesPayloadFlip) {
  std::stringstream ss;
  BinaryWriter w(ss);
  w.BeginSection("data");
  for (int i = 0; i < 64; ++i) w.WriteI64(i);
  w.EndSection();
  w.Finish();
  std::string bytes = ss.str();
  // Flip a byte well inside the payload (after name + size header).
  bytes[bytes.size() / 2] = static_cast<char>(bytes[bytes.size() / 2] ^ 0x10);
  std::stringstream bad(bytes);
  BinaryReader r(bad);
  const uint64_t size = r.BeginSection("data");
  r.SkipBytes(size);  // CRC accumulates even without interpreting bytes
  EXPECT_THROW(r.EndSection(), TtRecError);
}

TEST(Serialize, SectionOverrunAndUnderrunAreErrors) {
  std::stringstream ss;
  BinaryWriter w(ss);
  w.BeginSection("s");
  w.WriteI64(7);
  w.EndSection();
  w.Finish();
  {
    std::stringstream copy(ss.str());
    BinaryReader r(copy);
    r.BeginSection("s");
    // Unread payload left over -> EndSection refuses.
    EXPECT_THROW(r.EndSection(), TtRecError);
  }
  {
    std::stringstream copy(ss.str());
    BinaryReader r(copy);
    r.BeginSection("s");
    r.ReadI64();
    // Reading past the declared size -> overrun.
    EXPECT_THROW(r.ReadI64(), TtRecError);
  }
}

TEST(Serialize, SkipBytesWalkValidatesWholeFile) {
  // The ttrec_info-verify access pattern: walk headers, skip payloads.
  std::stringstream ss;
  BinaryWriter w(ss);
  w.WriteU32(3);  // section count
  for (const char* name : {"a", "b", "c"}) {
    w.BeginSection(name);
    w.WriteString(name);
    w.WriteI64(1234);
    w.EndSection();
  }
  w.Finish();

  BinaryReader r(ss);
  const uint32_t n = r.ReadU32();
  ASSERT_EQ(n, 3u);
  for (uint32_t i = 0; i < n; ++i) {
    const BinaryReader::SectionHeader h = r.BeginAnySection();
    EXPECT_FALSE(h.name.empty());
    r.SkipBytes(r.SectionRemaining());
    r.EndSection();
  }
  r.Finish();
}

TEST(Serialize, WriterRejectsNestedOrUnbalancedSections) {
  std::stringstream ss;
  BinaryWriter w(ss);
  w.BeginSection("outer");
  EXPECT_THROW(w.BeginSection("inner"), TtRecError);
}

}  // namespace
}  // namespace ttrec
