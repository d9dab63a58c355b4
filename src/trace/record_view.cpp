#include "trace/record_view.h"

#include <algorithm>
#include <cstring>

#include "trace/scan_kernels.h"
#include "util/crc32.h"
#include "util/error.h"
#include "util/strings.h"

#if defined(__unix__) || defined(__APPLE__)
#define IOTAXO_HAVE_MMAP 1
#include <cerrno>
#include <fcntl.h>
#include <sys/mman.h>
#include <sys/stat.h>
#include <unistd.h>
#else
#include <cstdio>
#endif

namespace iotaxo::trace {

namespace {

[[nodiscard]] std::uint32_t load_u32(const std::uint8_t* p) noexcept {
  std::uint32_t v = 0;
  for (int i = 0; i < 4; ++i) {
    v |= static_cast<std::uint32_t>(p[i]) << (8 * i);
  }
  return v;
}

[[nodiscard]] std::uint64_t load_u64(const std::uint8_t* p) noexcept {
  std::uint64_t v = 0;
  for (int i = 0; i < 8; ++i) {
    v |= static_cast<std::uint64_t>(p[i]) << (8 * i);
  }
  return v;
}

}  // namespace

BatchView::BatchView(std::span<const std::uint8_t> data) : buffer_(data) {
  header_ = peek_binary_header(data);  // validates magic + header bounds
  if (header_.version != 2) {
    throw FormatError("zero-copy view: requires an IOTB2 container");
  }
  if (header_.compressed || header_.encrypted) {
    throw FormatError(
        "zero-copy view: compressed or encrypted containers cannot be "
        "viewed in place (decode_binary_batch them instead)");
  }
  // Subtract-and-compare instead of add-and-compare: a hostile
  // payload_length near 2^64 must not wrap the right-hand side into a
  // passing equality.
  const std::size_t crc_size = header_.checksummed ? 4 : 0;
  const std::size_t avail = data.size() - kContainerHeaderSize;  // header ok
  if (avail < crc_size || header_.payload_length != avail - crc_size) {
    throw FormatError("binary trace: length mismatch");
  }
  const std::span<const std::uint8_t> body =
      data.subspan(kContainerHeaderSize,
                   static_cast<std::size_t>(header_.payload_length));
  body_ = body;
  if (header_.checksummed) {
    // Deferred: record the expected CRC now, hash the payload on the first
    // record/string touch (ensure_checksum). The structural pass below is
    // fully bounds-checked, so walking unverified bytes is safe — a
    // corruption it happens to miss is caught by the CRC before any record
    // content is served.
    stored_crc_ = load_u32(data.data() + kContainerHeaderSize + body.size());
  }

  // --- string table: one bounds-checked walk, string_views in place ------
  std::size_t pos = 0;
  const auto need = [&](std::size_t n) {
    if (pos + n > body.size()) {
      throw FormatError("binary trace: truncated record");
    }
  };
  need(4);
  const std::uint32_t nstrings = load_u32(body.data() + pos);
  pos += 4;
  if (nstrings == 0) {
    throw FormatError("binary trace v2: empty string table");
  }
  // Each table entry occupies at least its 4-byte length prefix; a count
  // the body cannot hold is corruption, and must not reach reserve() as a
  // giant allocation.
  if (nstrings > body.size() / 4) {
    throw FormatError("binary trace v2: string table exceeds payload");
  }
  strings_.reserve(nstrings);
  for (std::uint32_t i = 0; i < nstrings; ++i) {
    need(4);
    const std::uint32_t len = load_u32(body.data() + pos);
    pos += 4;
    need(len);
    strings_.emplace_back(reinterpret_cast<const char*>(body.data() + pos),
                          len);
    string_bytes_ += len;
    pos += len;
  }
  if (!strings_.front().empty()) {
    throw FormatError("binary trace v2: string id 0 must be empty");
  }
  // Reject duplicate table entries exactly as decode_binary_batch does —
  // duplicates would make interned-id equality scans (find_string + id
  // compare) silently miss records referencing the later copy.
  if (!all_distinct(strings_)) {
    throw FormatError("binary trace v2: string table is not interned");
  }

  // --- argument-id table --------------------------------------------------
  need(8);
  const std::uint64_t nargids = load_u64(body.data() + pos);
  pos += 8;
  if (nargids > (body.size() - pos) / 4) {
    throw FormatError("binary trace v2: arg-id table exceeds payload");
  }
  args_ = body.subspan(pos, static_cast<std::size_t>(nargids) * 4);
  pos += args_.size();

  // --- fixed-stride record section ---------------------------------------
  count_ = static_cast<std::size_t>(header_.count);
  const std::size_t avail_records = body.size() - pos;
  if (avail_records / v2layout::kStride < count_) {
    throw FormatError("binary trace: truncated record");
  }
  const std::size_t records_bytes = count_ * v2layout::kStride;
  if (header_.indexed) {
    // The record section is located by the envelope count, never the
    // footer trailer — so a corrupt or truncated footer degrades to a
    // scan fallback (persisted_index() nullopt), not an open failure.
    persisted_ = parse_v2_index_footer(body.subspan(pos + records_bytes),
                                       header_.count, nstrings,
                                       &footer_error_);
  } else if (avail_records != records_bytes) {
    throw FormatError("binary trace: trailing bytes after records");
  }
  records_ = body.subspan(pos, records_bytes);

  // --- one validation pass over the records so every accessor after this
  // point is an unchecked load. When a validated index footer is present
  // the pass is deferred to the first record touch instead (same gate as
  // the deferred CRC): an index-adopting open must stay O(strings), and a
  // query the footer lets skip this pool must never page the record
  // section in at all. ----------------------------------------------------
  if (persisted_.has_value()) {
    crc_gate_ = std::make_shared<CrcGate>();
  } else {
    validate_records();
    records_validated_ = true;
    // Arm the deferred-CRC gate last: the accessors the pass above used
    // run gate-free during construction (the structural pass must not pay
    // the hash the laziness exists to avoid).
    if (header_.checksummed) {
      crc_gate_ = std::make_shared<CrcGate>();
    }
  }
}

void BatchView::validate_records() const {
  const std::size_t nstrings = strings_.size();
  // Validate the arg table's values, not just its slice bounds: consumers
  // (materialize, the replay adapter) dereference arg ids long after open.
  // Branch-free max fold (SSE/NEON fast path in scan_kernels) — a throw
  // inside the loop would cost real time on big argument tables.
  const std::size_t nargids = arg_id_count();
  if (nargids > 0) {
    const std::uint32_t max_arg_id = scan::max_u32_le(args_.data(), nargids);
    if (max_arg_id >= nstrings) {
      throw FormatError(strprintf(
          "binary trace v2: arg string id %u out of range", max_arg_id));
    }
  }
  std::uint64_t args_sum = 0;
  for (std::size_t i = 0; i < count_; ++i) {
    const RecordView rec(records_.data() + i * v2layout::kStride);
    if (static_cast<std::uint8_t>(rec.cls()) >
        static_cast<std::uint8_t>(EventClass::kAnnotation)) {
      throw FormatError("binary trace: bad event class");
    }
    if (rec.name() >= nstrings || rec.host() >= nstrings ||
        rec.path() >= nstrings) {
      throw FormatError(
          strprintf("event batch: string id %u out of range",
                    std::max({rec.name(), rec.host(), rec.path()})));
    }
    args_sum += rec.args_count();
  }
  if (args_sum > arg_id_count()) {
    throw FormatError("binary trace v2: record args out of range");
  }
}

void BatchView::verify_checksum_slow() const {
  std::lock_guard<std::mutex> lock(crc_gate_->m);
  const int state = crc_gate_->state.load(std::memory_order_acquire);
  if (state == 1) {
    return;
  }
  if (state == 2 ||
      (header_.checksummed && crc32(body_) != stored_crc_)) {
    crc_gate_->state.store(2, std::memory_order_release);
    throw FormatError("binary trace: checksum mismatch");
  }
  if (!records_validated_) {
    // Index-adopting opens deferred the structural record pass; it runs
    // here, after the CRC vouched for the bytes, so every accessor behind
    // the gate is still an unchecked load.
    try {
      validate_records();
    } catch (const FormatError&) {
      crc_gate_->state.store(2, std::memory_order_release);
      throw;
    }
    records_validated_ = true;
  }
  crc_gate_->state.store(1, std::memory_order_release);
}

std::string_view BatchView::string(StrId id) const {
  ensure_checksum();  // string bytes are payload the CRC covers
  if (id >= strings_.size()) {
    throw FormatError(strprintf("string pool: id %u out of range (size %zu)",
                                id, strings_.size()));
  }
  return strings_[id];
}

std::optional<StrId> BatchView::find_string(std::string_view s) const {
  ensure_checksum();
  return find_string_unchecked(s);
}

std::optional<StrId> BatchView::find_string_unchecked(
    std::string_view s) const noexcept {
  for (std::size_t id = 0; id < strings_.size(); ++id) {
    if (strings_[id] == s) {
      return static_cast<StrId>(id);
    }
  }
  return std::nullopt;
}

StrId BatchView::arg_id(std::size_t j) const {
  ensure_checksum();
  if (j >= arg_id_count()) {
    throw FormatError(
        strprintf("binary trace v2: arg index %zu out of range", j));
  }
  return load_u32(args_.data() + j * 4);
}

TraceEvent BatchView::materialize(std::size_t i,
                                  std::uint32_t args_begin) const {
  const RecordView rec = record(i);
  TraceEvent ev;
  ev.cls = rec.cls();
  ev.name = std::string(string(rec.name()));
  const std::uint32_t argc = rec.args_count();
  ev.args.reserve(argc);
  for (std::uint32_t j = 0; j < argc; ++j) {
    ev.args.emplace_back(string(arg_id(args_begin + j)));
  }
  ev.ret = rec.ret();
  ev.local_start = rec.local_start();
  ev.duration = rec.duration();
  ev.rank = rec.rank();
  ev.node = rec.node();
  ev.pid = rec.pid();
  ev.host = std::string(string(rec.host()));
  ev.path = std::string(string(rec.path()));
  ev.fd = rec.fd();
  ev.bytes = rec.bytes();
  ev.offset = rec.offset();
  ev.uid = rec.uid();
  ev.gid = rec.gid();
  return ev;
}

// ---------------------------------------------------------------- mapping

MappedTraceFile::MappedTraceFile(const std::string& path, bool prefault)
    : path_(path) {
#if IOTAXO_HAVE_MMAP
  const int fd = ::open(path.c_str(), O_RDONLY);
  if (fd < 0) {
    throw IoError("cannot open trace file: " + path);
  }
  struct stat st {};
  if (::fstat(fd, &st) != 0 || st.st_size < 0) {
    ::close(fd);
    throw IoError("cannot stat trace file: " + path);
  }
  const std::size_t len = static_cast<std::size_t>(st.st_size);
  if (len > 0) {
    // Views are opened to be scanned; prefaulting the whole mapping up
    // front (where the platform offers it) is much cheaper than taking
    // thousands of minor faults mid-scan.
    int flags = MAP_PRIVATE;
#ifdef MAP_POPULATE
    if (prefault) {
      flags |= MAP_POPULATE;
    }
#endif
    void* p = ::mmap(nullptr, len, PROT_READ, flags, fd, 0);
    if (p != MAP_FAILED) {
      map_ = p;
      map_len_ = len;
    } else {
      // mmap can fail on special or network files; fall back to reading.
      // Short reads are normal here (pipes, NFS, signal-adjacent reads):
      // keep asking for the remainder, and retry outright on EINTR — only
      // a real error or EOF-before-len is fatal.
      owned_.resize(len);
      std::size_t got = 0;
      while (got < len) {
        const ssize_t n = ::read(fd, owned_.data() + got, len - got);
        if (n < 0) {
          if (errno == EINTR) {
            continue;
          }
          ::close(fd);
          throw IoError("cannot read trace file: " + path);
        }
        if (n == 0) {
          ::close(fd);
          throw IoError("trace file truncated while reading: " + path);
        }
        got += static_cast<std::size_t>(n);
      }
    }
  }
  ::close(fd);
#else
  (void)prefault;  // the read fallback always loads everything
  std::FILE* f = std::fopen(path.c_str(), "rb");
  if (f == nullptr) {
    throw IoError("cannot open trace file: " + path);
  }
  std::fseek(f, 0, SEEK_END);
  const long len = std::ftell(f);
  std::fseek(f, 0, SEEK_SET);
  if (len < 0) {
    std::fclose(f);
    throw IoError("cannot stat trace file: " + path);
  }
  owned_.resize(static_cast<std::size_t>(len));
  if (len > 0 &&
      std::fread(owned_.data(), 1, owned_.size(), f) != owned_.size()) {
    std::fclose(f);
    throw IoError("cannot read trace file: " + path);
  }
  std::fclose(f);
#endif
}

MappedTraceFile::~MappedTraceFile() { release(); }

MappedTraceFile::MappedTraceFile(MappedTraceFile&& other) noexcept
    : path_(std::move(other.path_)),
      map_(other.map_),
      map_len_(other.map_len_),
      owned_(std::move(other.owned_)) {
  other.map_ = nullptr;
  other.map_len_ = 0;
}

MappedTraceFile& MappedTraceFile::operator=(MappedTraceFile&& other) noexcept {
  if (this != &other) {
    release();
    path_ = std::move(other.path_);
    map_ = other.map_;
    map_len_ = other.map_len_;
    owned_ = std::move(other.owned_);
    other.map_ = nullptr;
    other.map_len_ = 0;
  }
  return *this;
}

void MappedTraceFile::release() noexcept {
#if IOTAXO_HAVE_MMAP
  if (map_ != nullptr) {
    ::munmap(map_, map_len_);
    map_ = nullptr;
    map_len_ = 0;
  }
#endif
}

std::span<const std::uint8_t> MappedTraceFile::bytes() const noexcept {
  if (map_ != nullptr) {
    return {static_cast<const std::uint8_t*>(map_), map_len_};
  }
  return {owned_.data(), owned_.size()};
}

}  // namespace iotaxo::trace
