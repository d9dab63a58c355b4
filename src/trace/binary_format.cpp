#include "trace/binary_format.h"

#include <algorithm>
#include <cstring>
#include <filesystem>
#include <string_view>

#include "trace/block_view.h"
#include "util/compress.h"
#include "util/crc32.h"
#include "util/error.h"
#include "util/failpoint.h"
#include "util/metrics.h"
#include "util/strings.h"

#if defined(__unix__) || defined(__APPLE__)
#define IOTAXO_HAVE_POSIX_WRITE 1
#include <cerrno>
#include <fcntl.h>
#include <unistd.h>
#else
#include <cstdio>
#endif

namespace iotaxo::trace {

namespace {

constexpr char kMagicV1[6] = {'I', 'O', 'T', 'B', '1', '\n'};
constexpr char kMagicV2[6] = {'I', 'O', 'T', 'B', '2', '\n'};
constexpr char kMagicV3[6] = {'I', 'O', 'T', 'B', '3', '\n'};
constexpr std::uint8_t kFlagCompressed = 0x01;
constexpr std::uint8_t kFlagEncrypted = 0x02;
constexpr std::uint8_t kFlagChecksummed = 0x04;
constexpr std::uint8_t kFlagProjected = 0x08;
constexpr std::uint8_t kKnownFlags =
    kFlagCompressed | kFlagEncrypted | kFlagChecksummed | kFlagProjected;

class Writer {
 public:
  void u8(std::uint8_t v) { buf_.push_back(v); }
  void u32(std::uint32_t v) {
    for (int i = 0; i < 4; ++i) {
      buf_.push_back(static_cast<std::uint8_t>(v >> (8 * i)));
    }
  }
  void u64(std::uint64_t v) {
    for (int i = 0; i < 8; ++i) {
      buf_.push_back(static_cast<std::uint8_t>(v >> (8 * i)));
    }
  }
  void i64(std::int64_t v) { u64(static_cast<std::uint64_t>(v)); }
  void i32(std::int32_t v) { u32(static_cast<std::uint32_t>(v)); }
  void str(std::string_view s) {
    u32(static_cast<std::uint32_t>(s.size()));
    buf_.insert(buf_.end(), s.begin(), s.end());
  }
  void bytes(std::span<const std::uint8_t> b) {
    buf_.insert(buf_.end(), b.begin(), b.end());
  }
  [[nodiscard]] std::vector<std::uint8_t> take() { return std::move(buf_); }

 private:
  std::vector<std::uint8_t> buf_;
};

[[nodiscard]] std::uint64_t load_u64(const std::uint8_t* p) noexcept {
  std::uint64_t v = 0;
  for (int i = 0; i < 8; ++i) {
    v |= static_cast<std::uint64_t>(p[i]) << (8 * i);
  }
  return v;
}

void encode_record(Writer& w, const EventRecord& rec) {
  w.u8(static_cast<std::uint8_t>(rec.cls));
  w.u32(rec.name);
  // args_begin is not written: batch arg slices are contiguous in record
  // order, so the decoder reconstructs it as a running sum.
  w.u32(rec.args_count);
  w.i64(rec.ret);
  w.i64(rec.local_start);
  w.i64(rec.duration);
  w.i32(rec.rank);
  w.i32(rec.node);
  w.u32(rec.pid);
  w.u32(rec.host);
  w.u32(rec.path);
  w.i32(rec.fd);
  w.i64(rec.bytes);
  w.i64(rec.offset);
  w.u32(rec.uid);
  w.u32(rec.gid);
}

/// The two column groups of one projected record (hotlayout / coldlayout
/// in record_view.h). Their field unions exactly cover encode_record's
/// fields; args_begin stays implicit (running sum) in both layouts.
void encode_hot_record(Writer& w, const EventRecord& rec) {
  w.u8(static_cast<std::uint8_t>(rec.cls));
  w.u32(rec.name);
  w.i32(rec.rank);
  w.i64(rec.local_start);
  w.i64(rec.duration);
  w.i64(rec.bytes);
}

void encode_cold_record(Writer& w, const EventRecord& rec) {
  w.u32(rec.args_count);
  w.i64(rec.ret);
  w.i32(rec.node);
  w.u32(rec.pid);
  w.u32(rec.host);
  w.u32(rec.path);
  w.i32(rec.fd);
  w.i64(rec.offset);
  w.u32(rec.uid);
  w.u32(rec.gid);
}

}  // namespace

std::vector<std::uint8_t> encode_binary_v3(const EventBatch& batch,
                                           const BinaryOptions& options,
                                           std::uint32_t block_records) {
  if (options.encrypt && !options.key.has_value()) {
    throw ConfigError("binary trace: encryption requested without a key");
  }
  if (block_records == 0) {
    throw ConfigError("binary trace v3: block_records must be positive");
  }
  const std::size_t count = batch.size();
  const std::size_t nblocks =
      count == 0 ? 0 : (count + block_records - 1) / block_records;
  const std::size_t nstrings = batch.pool().size();
  const std::size_t bitmap_bytes = (nstrings + 7) / 8;

  Writer payload;  // head, then stored blocks appended in place
  payload.u32(static_cast<std::uint32_t>(nstrings));
  batch.pool().for_each(
      [&payload](StrId /*id*/, std::string_view s) { payload.str(s); });
  payload.u64(batch.arg_ids().size());
  for (const StrId a : batch.arg_ids()) {
    payload.u32(a);
  }
  payload.u32(block_records);
  if (options.encrypt) {
    payload.u64(xtea_encrypt_block(v3layout::kKeyCheckPlain, *options.key));
  }

  // One column group's plain -> stored transform: compress, THEN encrypt
  // (per-block IV derived from the ordinal + group; nothing stored).
  const auto store_group = [&](std::vector<std::uint8_t> plain, std::size_t b,
                               std::uint32_t group) {
    if (options.compress) {
      plain = lz_compress(plain);
    }
    if (options.encrypt) {
      plain = cbc_encrypt_with_iv(plain, *options.key,
                                  v3layout::block_iv(b, group));
    }
    return plain;
  };

  Writer footer;
  std::vector<std::uint8_t> bitmap(bitmap_bytes);
  std::uint64_t block_offset = 0;
  for (std::size_t b = 0; b < nblocks; ++b) {
    const std::size_t first = b * block_records;
    const std::size_t n = std::min<std::size_t>(block_records, count - first);
    Writer plain_w;  // full 81-byte stride, or the hot group when projected
    Writer cold_w;
    SimTime min_time = batch.record(first).local_start;
    SimTime max_time = min_time;
    std::uint8_t flags = 0;
    std::fill(bitmap.begin(), bitmap.end(), 0);
    for (std::size_t i = first; i < first + n; ++i) {
      const EventRecord& rec = batch.record(i);
      if (options.project) {
        encode_hot_record(plain_w, rec);
        encode_cold_record(cold_w, rec);
      } else {
        encode_record(plain_w, rec);
      }
      min_time = std::min(min_time, rec.local_start);
      max_time = std::max(max_time, rec.local_start);
      bitmap[rec.name >> 3] |=
          static_cast<std::uint8_t>(1u << (rec.name & 7u));
      if (rec.path != 0 && rec.fd >= 0) {
        flags |= v3layout::kBlockHasFdPath;
      }
      if (rec.is_io_call()) {
        flags |= v3layout::kBlockHasIoCall;
        if (rec.bytes > 0) {
          flags |= v3layout::kBlockHasIoBytes;
        }
      }
    }
    const std::vector<std::uint8_t> stored = store_group(plain_w.take(), b, 0);
    std::vector<std::uint8_t> cold_stored;
    if (options.project) {
      cold_stored = store_group(cold_w.take(), b, 1);
    }
    footer.u64(block_offset);
    footer.u64(stored.size());
    // Owned-batch arg slices are contiguous in record order, so the block's
    // running args_begin is the first record's (the same invariant that lets
    // the record layout omit args_begin entirely).
    footer.u64(batch.record(first).args_begin);
    footer.u32(static_cast<std::uint32_t>(n));
    footer.u32(options.checksum ? crc32(stored) : 0u);
    footer.i64(min_time);
    footer.i64(max_time);
    footer.u8(flags);
    if (options.project) {
      footer.u64(cold_stored.size());
      footer.u32(options.checksum ? crc32(cold_stored) : 0u);
    }
    for (const std::uint8_t byte : bitmap) {
      footer.u8(byte);
    }
    block_offset += stored.size() + cold_stored.size();
    payload.bytes(stored);
    if (options.project) {
      payload.bytes(cold_stored);
    }
  }

  const std::vector<std::uint8_t> footer_bytes = footer.take();
  payload.bytes(footer_bytes);
  payload.u64(footer_bytes.size());
  payload.u64(nblocks);
  payload.u32(crc32(footer_bytes));
  payload.u32(v3layout::kFooterMagic);

  std::uint8_t container_flags = 0;
  if (options.compress) {
    container_flags |= kFlagCompressed;
  }
  if (options.encrypt) {
    container_flags |= kFlagEncrypted;
  }
  if (options.checksum) {
    container_flags |= kFlagChecksummed;
  }
  if (options.project) {
    container_flags |= kFlagProjected;
  }
  Writer out;
  for (const char c : kMagicV3) {
    out.u8(static_cast<std::uint8_t>(c));
  }
  out.u8(container_flags);
  out.u64(count);
  const std::vector<std::uint8_t> body = payload.take();
  out.u64(body.size());
  std::vector<std::uint8_t> head = out.take();
  head.insert(head.end(), body.begin(), body.end());
  return head;
}

std::vector<std::uint8_t> encode_binary_v3(
    const std::vector<TraceEvent>& events, const BinaryOptions& options,
    std::uint32_t block_records) {
  return encode_binary_v3(EventBatch::from_events(events), options,
                          block_records);
}

BinaryHeader peek_binary_header(std::span<const std::uint8_t> data) {
  if (data.size() >= 6 && (std::memcmp(data.data(), kMagicV1, 6) == 0 ||
                           std::memcmp(data.data(), kMagicV2, 6) == 0)) {
    throw FormatError(strprintf(
        "binary trace: IOTB%c containers are not supported (only IOTB3 is "
        "read)",
        static_cast<char>(data[4])));
  }
  if (data.size() < kContainerHeaderSize ||
      std::memcmp(data.data(), kMagicV3, 6) != 0) {
    throw FormatError("binary trace: bad magic");
  }
  const std::uint8_t flags = data[6];
  if ((flags & ~kKnownFlags) != 0) {
    throw FormatError("binary trace: unknown container flags");
  }
  BinaryHeader h;
  h.compressed = (flags & kFlagCompressed) != 0;
  h.encrypted = (flags & kFlagEncrypted) != 0;
  h.checksummed = (flags & kFlagChecksummed) != 0;
  h.projected = (flags & kFlagProjected) != 0;
  h.count = load_u64(data.data() + 7);
  h.payload_length = load_u64(data.data() + 15);
  return h;
}

std::vector<TraceEvent> decode_binary(std::span<const std::uint8_t> data,
                                      const std::optional<CipherKey>& key) {
  return BlockView(data, key).to_batch().to_events();
}

EventBatch decode_binary_batch(std::span<const std::uint8_t> data,
                               const std::optional<CipherKey>& key) {
  // The block view *is* the decoder: it validates the footer and every
  // block it converts, so a corrupt container throws FormatError.
  return BlockView(data, key).to_batch();
}

bool looks_binary(std::span<const std::uint8_t> data) noexcept {
  return data.size() >= 6 && (std::memcmp(data.data(), kMagicV1, 6) == 0 ||
                              std::memcmp(data.data(), kMagicV2, 6) == 0 ||
                              std::memcmp(data.data(), kMagicV3, 6) == 0);
}

// ------------------------------------------------------- durable file write

#if IOTAXO_HAVE_POSIX_WRITE
namespace {

void write_all(int fd, const std::uint8_t* data, std::size_t len,
               const std::string& path) {
  std::size_t done = 0;
  while (done < len) {
    const ssize_t n = ::write(fd, data + done, len - done);
    if (n < 0) {
      if (errno == EINTR) {
        continue;
      }
      throw IoError("cannot write '" + path + "'");
    }
    done += static_cast<std::size_t>(n);
  }
}

void fsync_or_throw(int fd, const std::string& path) {
  if (::fsync(fd) != 0) {
    throw IoError("cannot fsync '" + path + "'");
  }
}

}  // namespace
#endif

namespace {

/// Handles bound once; every record call is one relaxed load when metrics
/// are disarmed (util/metrics.h).
struct DurableMetrics {
  obs::Counter& files = obs::counter("durable.write.files");
  obs::Counter& bytes = obs::counter("durable.write.bytes");
  obs::Histogram& fsync_ns = obs::histogram("durable.write.fsync_ns");
  obs::Histogram& rename_ns = obs::histogram("durable.write.rename_ns");
};

DurableMetrics& durable_metrics() {
  static DurableMetrics m;
  return m;
}

}  // namespace

void write_binary_file(const std::string& path,
                       std::span<const std::uint8_t> bytes,
                       std::string_view point_prefix) {
  const std::string prefix(point_prefix);
  const std::string tmp = path + ".tmp";
  const std::filesystem::path parent =
      std::filesystem::path(path).parent_path();
  const std::string dir = parent.empty() ? std::string(".") : parent.string();
#if IOTAXO_HAVE_POSIX_WRITE
  const int fd = ::open(tmp.c_str(), O_WRONLY | O_CREAT | O_TRUNC, 0644);
  if (fd < 0) {
    throw IoError("cannot create '" + tmp + "'");
  }
  try {
    fail::point(prefix + ".write");
    // A torn:N spec at the write point models a crash mid-write: the tmp
    // file keeps its first N bytes and the "process" dies — recovery must
    // delete it, never promote it.
    std::size_t len = bytes.size();
    bool torn = false;
    if (const auto limit = fail::torn_limit(prefix + ".write")) {
      len = std::min<std::size_t>(len, *limit);
      torn = true;
    }
    write_all(fd, bytes.data(), len, tmp);
    if (torn) {
      throw fail::CrashError("torn write of '" + tmp + "'");
    }
    fail::point(prefix + ".fsync");
    {
      const obs::ScopedTimer fsync_timer(durable_metrics().fsync_ns);
      fsync_or_throw(fd, tmp);
    }
  } catch (...) {
    ::close(fd);
    throw;
  }
  ::close(fd);
  fail::point(prefix + ".rename");
  {
    const obs::ScopedTimer rename_timer(durable_metrics().rename_ns);
    if (::rename(tmp.c_str(), path.c_str()) != 0) {
      throw IoError("cannot rename '" + tmp + "' to '" + path + "'");
    }
  }
  fail::point(prefix + ".dirsync");
  const int dfd = ::open(dir.c_str(), O_RDONLY);
  if (dfd < 0) {
    throw IoError("cannot open directory '" + dir + "' to fsync it");
  }
  try {
    fsync_or_throw(dfd, dir);
  } catch (...) {
    ::close(dfd);
    throw;
  }
  ::close(dfd);
#else
  // No POSIX fd durability on this platform: keep the tmp + atomic-rename
  // shape (and the failpoints) so behavior stays testable, with flush as
  // the best available stand-in for fsync.
  std::FILE* f = std::fopen(tmp.c_str(), "wb");
  if (f == nullptr) {
    throw IoError("cannot create '" + tmp + "'");
  }
  try {
    fail::point(prefix + ".write");
    std::size_t len = bytes.size();
    bool torn = false;
    if (const auto limit = fail::torn_limit(prefix + ".write")) {
      len = std::min<std::size_t>(len, *limit);
      torn = true;
    }
    if (len > 0 && std::fwrite(bytes.data(), 1, len, f) != len) {
      throw IoError("cannot write '" + tmp + "'");
    }
    if (torn) {
      throw fail::CrashError("torn write of '" + tmp + "'");
    }
    fail::point(prefix + ".fsync");
    {
      const obs::ScopedTimer fsync_timer(durable_metrics().fsync_ns);
      if (std::fflush(f) != 0) {
        throw IoError("cannot flush '" + tmp + "'");
      }
    }
  } catch (...) {
    std::fclose(f);
    throw;
  }
  std::fclose(f);
  fail::point(prefix + ".rename");
  {
    const obs::ScopedTimer rename_timer(durable_metrics().rename_ns);
    std::error_code ec;
    std::filesystem::rename(tmp, path, ec);
    if (ec) {
      throw IoError("cannot rename '" + tmp + "' to '" + path + "'");
    }
  }
  fail::point(prefix + ".dirsync");
#endif
  // Counted only once the file is fully durable (rename + dirsync done):
  // the counters answer "how many era/manifest files landed", not "how
  // many attempts started".
  durable_metrics().files.add(1);
  durable_metrics().bytes.add(bytes.size());
}

}  // namespace iotaxo::trace
