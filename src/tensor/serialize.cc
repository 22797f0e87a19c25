#include "tensor/serialize.h"

#include <algorithm>
#include <array>
#include <bit>
#include <cstring>
#include <istream>
#include <limits>
#include <ostream>

#include "tensor/check.h"

namespace ttrec {

namespace {
constexpr uint64_t kFnvOffset = 0xcbf29ce484222325ull;
constexpr uint64_t kFnvPrime = 0x100000001b3ull;

uint64_t FnvUpdate(uint64_t h, const void* data, size_t bytes) {
  return Fnv1a(data, bytes, h);
}

// Slicing-by-8 tables: t[0] is the bytewise CRC32 table, and t[k][b] is
// the CRC of byte b followed by k zero bytes, so one step folds eight input
// bytes with eight independent lookups instead of eight dependent table
// walks. The values are the bytewise loop's.
using Crc32Tables = std::array<std::array<uint32_t, 256>, 8>;

Crc32Tables MakeCrc32Tables() {
  Crc32Tables t{};
  for (uint32_t i = 0; i < 256; ++i) {
    uint32_t c = i;
    for (int k = 0; k < 8; ++k) {
      c = (c & 1u) ? 0xEDB88320u ^ (c >> 1) : c >> 1;
    }
    t[0][i] = c;
  }
  for (uint32_t i = 0; i < 256; ++i) {
    for (size_t k = 1; k < t.size(); ++k) {
      t[k][i] = (t[k - 1][i] >> 8) ^ t[0][t[k - 1][i] & 0xFFu];
    }
  }
  return t;
}
}  // namespace

uint64_t Fnv1a(const void* data, size_t bytes, uint64_t h) {
  const auto* p = static_cast<const unsigned char*>(data);
  for (size_t i = 0; i < bytes; ++i) {
    h ^= p[i];
    h *= kFnvPrime;
  }
  return h;
}

uint32_t Crc32(const void* data, size_t bytes, uint32_t crc) {
  static const Crc32Tables t = MakeCrc32Tables();
  static_assert(std::endian::native == std::endian::little,
                "the slicing step reads little-endian words");
  const auto* p = static_cast<const unsigned char*>(data);
  uint32_t c = crc ^ 0xFFFFFFFFu;
  for (; bytes >= 8; bytes -= 8, p += 8) {
    uint32_t lo;
    uint32_t hi;
    std::memcpy(&lo, p, sizeof(lo));
    std::memcpy(&hi, p + 4, sizeof(hi));
    lo ^= c;
    c = t[7][lo & 0xFFu] ^ t[6][(lo >> 8) & 0xFFu] ^
        t[5][(lo >> 16) & 0xFFu] ^ t[4][lo >> 24] ^ t[3][hi & 0xFFu] ^
        t[2][(hi >> 8) & 0xFFu] ^ t[1][(hi >> 16) & 0xFFu] ^ t[0][hi >> 24];
  }
  for (; bytes > 0; --bytes, ++p) {
    c = t[0][(c ^ *p) & 0xFFu] ^ (c >> 8);
  }
  return c ^ 0xFFFFFFFFu;
}

BinaryWriter::BinaryWriter(std::ostream& os) : os_(os), checksum_(kFnvOffset) {}

void BinaryWriter::WriteToStream(const void* data, size_t bytes) {
  os_.write(static_cast<const char*>(data), static_cast<std::streamsize>(bytes));
  TTREC_CHECK(os_.good(), "BinaryWriter: stream write failed");
  checksum_ = FnvUpdate(checksum_, data, bytes);
}

void BinaryWriter::WriteRaw(const void* data, size_t bytes) {
  TTREC_CHECK(!finished_, "BinaryWriter: write after Finish");
  if (in_section_) {
    const auto* p = static_cast<const char*>(data);
    section_buf_.insert(section_buf_.end(), p, p + bytes);
    return;
  }
  WriteToStream(data, bytes);
}

void BinaryWriter::WriteU32(uint32_t v) { WriteRaw(&v, sizeof(v)); }
void BinaryWriter::WriteI64(int64_t v) { WriteRaw(&v, sizeof(v)); }

void BinaryWriter::WriteI64Vec(const std::vector<int64_t>& v) {
  WriteI64(static_cast<int64_t>(v.size()));
  if (!v.empty()) WriteRaw(v.data(), v.size() * sizeof(int64_t));
}

void BinaryWriter::WriteFloats(const float* data, size_t count) {
  WriteI64(static_cast<int64_t>(count));
  if (count > 0) WriteRaw(data, count * sizeof(float));
}

void BinaryWriter::WriteBytes(const void* data, size_t bytes) {
  if (bytes > 0) WriteRaw(data, bytes);
}

void BinaryWriter::WriteString(const std::string& s) {
  WriteI64(static_cast<int64_t>(s.size()));
  if (!s.empty()) WriteRaw(s.data(), s.size());
}

void BinaryWriter::BeginSection(const std::string& name) {
  TTREC_CHECK(!in_section_, "BinaryWriter: sections do not nest (already in '",
              section_name_, "')");
  TTREC_CHECK(!finished_, "BinaryWriter: BeginSection after Finish");
  in_section_ = true;
  section_name_ = name;
  section_buf_.clear();
}

void BinaryWriter::EndSection() {
  TTREC_CHECK(in_section_, "BinaryWriter: EndSection without BeginSection");
  in_section_ = false;
  WriteString(section_name_);
  WriteI64(static_cast<int64_t>(section_buf_.size()));
  if (!section_buf_.empty()) {
    WriteToStream(section_buf_.data(), section_buf_.size());
  }
  WriteU32(Crc32(section_buf_.data(), section_buf_.size()));
  section_buf_.clear();
}

void BinaryWriter::Finish() {
  TTREC_CHECK(!finished_, "BinaryWriter: Finish called twice");
  TTREC_CHECK(!in_section_, "BinaryWriter: Finish inside section '",
              section_name_, "'");
  const uint64_t sum = checksum_;
  os_.write(reinterpret_cast<const char*>(&sum), sizeof(sum));
  TTREC_CHECK(os_.good(), "BinaryWriter: trailer write failed");
  finished_ = true;
}

BinaryReader::BinaryReader(std::istream& is) : is_(is), checksum_(kFnvOffset) {}

void BinaryReader::ReadRaw(void* data, size_t bytes) {
  if (in_section_) {
    TTREC_CHECK(bytes <= section_remaining_, "BinaryReader: section '",
                section_name_, "' overrun (corrupt length: wanted ", bytes,
                " bytes, ", section_remaining_, " left)");
  }
  is_.read(static_cast<char*>(data), static_cast<std::streamsize>(bytes));
  TTREC_CHECK(is_.gcount() == static_cast<std::streamsize>(bytes),
              "BinaryReader: truncated stream (wanted ", bytes, " bytes, got ",
              is_.gcount(), ")");
  checksum_ = FnvUpdate(checksum_, data, bytes);
  if (in_section_) {
    section_remaining_ -= bytes;
    section_crc_ = Crc32(data, bytes, section_crc_);
  }
}

uint32_t BinaryReader::ReadU32() {
  uint32_t v;
  ReadRaw(&v, sizeof(v));
  return v;
}

int64_t BinaryReader::ReadI64() {
  int64_t v;
  ReadRaw(&v, sizeof(v));
  return v;
}

std::vector<int64_t> BinaryReader::ReadI64Vec() {
  const int64_t n = ReadI64();
  TTREC_CHECK(n >= 0 && n < (int64_t{1} << 32),
              "BinaryReader: implausible vector length ", n);
  std::vector<int64_t> v(static_cast<size_t>(n));
  if (n > 0) ReadRaw(v.data(), static_cast<size_t>(n) * sizeof(int64_t));
  return v;
}

void BinaryReader::ReadFloats(float* data, size_t count) {
  const int64_t n = ReadI64();
  TTREC_CHECK(n == static_cast<int64_t>(count),
              "BinaryReader: float section length mismatch: expected ", count,
              ", stored ", n);
  if (count > 0) ReadRaw(data, count * sizeof(float));
}

std::string BinaryReader::ReadString() {
  const int64_t n = ReadI64();
  TTREC_CHECK(n >= 0 && n < (int64_t{1} << 24),
              "BinaryReader: implausible string length ", n);
  std::string s(static_cast<size_t>(n), '\0');
  if (n > 0) ReadRaw(s.data(), static_cast<size_t>(n));
  return s;
}

BinaryReader::SectionHeader BinaryReader::BeginAnySection() {
  TTREC_CHECK(!in_section_, "BinaryReader: sections do not nest (already in '",
              section_name_, "')");
  SectionHeader h;
  h.name = ReadString();
  const int64_t size = ReadI64();
  TTREC_CHECK(size >= 0, "BinaryReader: negative section size for '", h.name,
              "'");
  h.size = static_cast<uint64_t>(size);
  in_section_ = true;
  section_name_ = h.name;
  section_remaining_ = h.size;
  section_crc_ = 0;
  return h;
}

uint64_t BinaryReader::BeginSection(const std::string& expected_name) {
  const SectionHeader h = BeginAnySection();
  TTREC_CHECK(h.name == expected_name, "BinaryReader: expected section '",
              expected_name, "', found '", h.name, "'");
  return h.size;
}

void BinaryReader::EndSection() {
  TTREC_CHECK(in_section_, "BinaryReader: EndSection without BeginSection");
  TTREC_CHECK(section_remaining_ == 0, "BinaryReader: section '",
              section_name_, "' has ", section_remaining_,
              " unread payload bytes");
  const uint32_t computed = section_crc_;
  in_section_ = false;
  const uint32_t stored = ReadU32();
  TTREC_CHECK(stored == computed, "BinaryReader: CRC32 mismatch in section '",
              section_name_, "' (file corrupted)");
}

void BinaryReader::SkipBytes(uint64_t bytes) {
  char buf[4096];
  while (bytes > 0) {
    const size_t chunk =
        static_cast<size_t>(std::min<uint64_t>(bytes, sizeof(buf)));
    ReadRaw(buf, chunk);
    bytes -= chunk;
  }
}

void BinaryReader::Finish() {
  TTREC_CHECK(!in_section_, "BinaryReader: Finish inside section '",
              section_name_, "'");
  const uint64_t computed = checksum_;
  uint64_t stored;
  is_.read(reinterpret_cast<char*>(&stored), sizeof(stored));
  TTREC_CHECK(is_.gcount() == sizeof(stored),
              "BinaryReader: missing checksum trailer");
  TTREC_CHECK(stored == computed, "BinaryReader: checksum mismatch (file "
              "corrupted or format drift)");
}

void SaveTensor(BinaryWriter& w, const Tensor& t) {
  w.WriteI64Vec(t.shape());
  w.WriteFloats(t.data(), static_cast<size_t>(t.numel()));
}

Tensor LoadTensor(BinaryReader& r) {
  std::vector<int64_t> shape = r.ReadI64Vec();
  Tensor t(shape.empty() ? Tensor() : Tensor(shape));
  if (!shape.empty()) {
    r.ReadFloats(t.data(), static_cast<size_t>(t.numel()));
  } else {
    r.ReadFloats(nullptr, 0);
  }
  return t;
}

}  // namespace ttrec
