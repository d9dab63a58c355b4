#include "analysis/store_manifest.h"

#include <cstring>
#include <filesystem>
#include <fstream>

#include "trace/binary_format.h"
#include "util/crc32.h"
#include "util/error.h"

namespace iotaxo::analysis {

namespace {

constexpr char kMagic[6] = {'I', 'O', 'T', 'M', '1', '\n'};

void put_u32(std::vector<std::uint8_t>& out, std::uint32_t v) {
  for (int i = 0; i < 4; ++i) {
    out.push_back(static_cast<std::uint8_t>(v >> (8 * i)));
  }
}

void put_u64(std::vector<std::uint8_t>& out, std::uint64_t v) {
  for (int i = 0; i < 8; ++i) {
    out.push_back(static_cast<std::uint8_t>(v >> (8 * i)));
  }
}

class Reader {
 public:
  explicit Reader(std::span<const std::uint8_t> data) : data_(data) {}

  [[nodiscard]] std::size_t pos() const noexcept { return pos_; }
  [[nodiscard]] bool at_end() const noexcept { return pos_ == data_.size(); }

  std::uint32_t u32() {
    need(4);
    std::uint32_t v = 0;
    for (int i = 0; i < 4; ++i) {
      v |= static_cast<std::uint32_t>(data_[pos_ + i]) << (8 * i);
    }
    pos_ += 4;
    return v;
  }

  std::uint64_t u64() {
    need(8);
    std::uint64_t v = 0;
    for (int i = 0; i < 8; ++i) {
      v |= static_cast<std::uint64_t>(data_[pos_ + i]) << (8 * i);
    }
    pos_ += 8;
    return v;
  }

  std::string str() {
    const std::uint32_t len = u32();
    need(len);
    std::string s(reinterpret_cast<const char*>(data_.data() + pos_), len);
    pos_ += len;
    return s;
  }

 private:
  void need(std::size_t n) const {
    if (data_.size() - pos_ < n) {
      throw FormatError("store manifest: truncated");
    }
  }

  std::span<const std::uint8_t> data_;
  std::size_t pos_ = 0;
};

}  // namespace

std::vector<std::uint8_t> StoreManifest::encode() const {
  std::vector<std::uint8_t> out(kMagic, kMagic + 6);
  put_u64(out, next_seq);
  put_u32(out, static_cast<std::uint32_t>(entries.size()));
  for (const ManifestEntry& e : entries) {
    put_u32(out, static_cast<std::uint32_t>(e.name.size()));
    out.insert(out.end(), e.name.begin(), e.name.end());
    put_u64(out, e.size);
    put_u32(out, e.crc);
    put_u64(out, e.seq);
  }
  put_u32(out, crc32(std::span<const std::uint8_t>(out)));
  return out;
}

StoreManifest StoreManifest::decode(std::span<const std::uint8_t> data) {
  if (data.size() < 6 + 8 + 4 + 4 ||
      std::memcmp(data.data(), kMagic, 6) != 0) {
    throw FormatError("store manifest: bad magic");
  }
  // The sealing CRC covers everything before it — verify before trusting
  // any count or length field.
  std::uint32_t sealed = 0;
  for (int i = 0; i < 4; ++i) {
    sealed |= static_cast<std::uint32_t>(data[data.size() - 4 + i]) << (8 * i);
  }
  if (crc32(data.subspan(0, data.size() - 4)) != sealed) {
    throw FormatError("store manifest: CRC mismatch");
  }
  Reader r(data.subspan(6, data.size() - 6 - 4));
  StoreManifest m;
  m.next_seq = r.u64();
  const std::uint32_t nfiles = r.u32();
  m.entries.reserve(std::min<std::uint32_t>(nfiles, 4096));
  for (std::uint32_t i = 0; i < nfiles; ++i) {
    ManifestEntry e;
    e.name = r.str();
    e.size = r.u64();
    e.crc = r.u32();
    e.seq = r.u64();
    m.entries.push_back(std::move(e));
  }
  if (!r.at_end()) {
    throw FormatError("store manifest: trailing bytes");
  }
  return m;
}

std::optional<StoreManifest> StoreManifest::load(
    const std::string& directory) {
  const std::string path = directory + "/" + std::string(kManifestFileName);
  std::ifstream in(path, std::ios::binary);
  if (!in) {
    return std::nullopt;
  }
  std::vector<std::uint8_t> bytes{std::istreambuf_iterator<char>(in),
                                  std::istreambuf_iterator<char>()};
  if (in.bad()) {
    throw IoError("cannot read store manifest '" + path + "'");
  }
  return decode(bytes);
}

void StoreManifest::store(const std::string& directory) const {
  const std::string path = directory + "/" + std::string(kManifestFileName);
  trace::write_binary_file(path, encode(), "store.manifest");
}

const ManifestEntry* StoreManifest::find(std::string_view name) const {
  for (const ManifestEntry& e : entries) {
    if (e.name == name) {
      return &e;
    }
  }
  return nullptr;
}

std::optional<std::uint64_t> parse_era_seq(std::string_view name) {
  const std::string stem = std::filesystem::path(name).stem().string();
  const std::size_t dash = stem.rfind('-');
  if (dash == std::string::npos || dash + 1 == stem.size()) {
    return std::nullopt;
  }
  std::uint64_t seq = 0;
  for (std::size_t i = dash + 1; i < stem.size(); ++i) {
    if (stem[i] < '0' || stem[i] > '9') {
      return std::nullopt;
    }
    seq = seq * 10 + static_cast<std::uint64_t>(stem[i] - '0');
  }
  return seq;
}

bool is_container_name(std::string_view name) {
  const std::string ext = std::filesystem::path(name).extension().string();
  return ext.rfind(".iotb", 0) == 0;
}

bool era_order_less(std::string_view a, std::string_view b) {
  const std::optional<std::uint64_t> sa = parse_era_seq(a);
  const std::optional<std::uint64_t> sb = parse_era_seq(b);
  if (sa.has_value() != sb.has_value()) {
    return sa.has_value();  // unnumbered names last
  }
  if (sa.has_value() && *sa != *sb) {
    return *sa < *sb;
  }
  return a < b;
}

}  // namespace iotaxo::analysis
