// In-place record access for the IOTB3 container: the three fixed-stride
// record layouts (the 81-byte whole record, and the 33-byte hot + 48-byte
// cold column groups of projected containers), the RecordView and
// HotRecordView that read fields straight out of decoded block bytes, and
// MappedTraceFile, which owns a container's bytes for file-backed
// trace::BlockViews (block_view.h). No EventBatch is allocated and no
// string is copied: scanning a record is a sequence of little-endian loads
// out of the decoded block, which is what makes multi-million-event
// analysis over on-disk stores run at hardware speed (Recorder-style
// compact storage read back without materialization).
//
// MappedTraceFile mmaps the file read-only where the platform allows and
// falls back to reading the bytes into an owned buffer otherwise. Moving a
// MappedTraceFile never relocates the bytes, so views into it stay valid
// across moves (the unified store relies on this when it files
// block-backed pools).
#pragma once

#include <cstdint>
#include <span>
#include <string>
#include <vector>

#include "trace/event_batch.h"

namespace iotaxo::trace {

/// Byte layout of one fixed-stride whole record (little-endian, matching
/// encode_binary_v3's writer; see the container comment in
/// binary_format.h). Offsets are within the record, not the payload.
namespace v2layout {
inline constexpr std::size_t kCls = 0;          // u8
inline constexpr std::size_t kName = 1;         // u32
inline constexpr std::size_t kArgsCount = 5;    // u32
inline constexpr std::size_t kRet = 9;          // i64
inline constexpr std::size_t kLocalStart = 17;  // i64
inline constexpr std::size_t kDuration = 25;    // i64
inline constexpr std::size_t kRank = 33;        // i32
inline constexpr std::size_t kNode = 37;        // i32
inline constexpr std::size_t kPid = 41;         // u32
inline constexpr std::size_t kHost = 45;        // u32
inline constexpr std::size_t kPath = 49;        // u32
inline constexpr std::size_t kFd = 53;          // i32
inline constexpr std::size_t kBytes = 57;       // i64
inline constexpr std::size_t kOffset = 65;      // i64
inline constexpr std::size_t kUid = 73;         // u32
inline constexpr std::size_t kGid = 77;         // u32
inline constexpr std::size_t kStride = 81;      // total record size
}  // namespace v2layout

/// Byte layout of one record's HOT column group in a projected IOTB3 block
/// (see binary_format.h): the fields every windowed / rate / call-stats /
/// DFG scan reads, packed at a 33-byte stride so narrow queries decode a
/// fraction of the stored bytes. hot + cold strides sum to the whole 81.
namespace hotlayout {
inline constexpr std::size_t kCls = 0;          // u8
inline constexpr std::size_t kName = 1;         // u32
inline constexpr std::size_t kRank = 5;         // i32
inline constexpr std::size_t kLocalStart = 9;   // i64
inline constexpr std::size_t kDuration = 17;    // i64
inline constexpr std::size_t kBytes = 25;       // i64
inline constexpr std::size_t kStride = 33;
}  // namespace hotlayout

/// The COLD remainder of a projected record: everything the whole record
/// carries that the hot group does not (args, ret, ids, fd, offset,
/// uid/gid).
namespace coldlayout {
inline constexpr std::size_t kArgsCount = 0;    // u32
inline constexpr std::size_t kRet = 4;          // i64
inline constexpr std::size_t kNode = 12;        // i32
inline constexpr std::size_t kPid = 16;         // u32
inline constexpr std::size_t kHost = 20;        // u32
inline constexpr std::size_t kPath = 24;        // u32
inline constexpr std::size_t kFd = 28;          // i32
inline constexpr std::size_t kOffset = 32;      // i64
inline constexpr std::size_t kUid = 40;         // u32
inline constexpr std::size_t kGid = 44;         // u32
inline constexpr std::size_t kStride = 48;
}  // namespace coldlayout

/// One whole record read in place from a decoded block. Field accessors are
/// unchecked single loads; the owning BlockView validated class bytes and
/// string ids when it decoded the block, so accessors cannot observe
/// malformed values.
class RecordView {
 public:
  explicit RecordView(const std::uint8_t* p) noexcept : p_(p) {}

  [[nodiscard]] EventClass cls() const noexcept {
    return static_cast<EventClass>(p_[v2layout::kCls]);
  }
  [[nodiscard]] StrId name() const noexcept { return u32(v2layout::kName); }
  [[nodiscard]] std::uint32_t args_count() const noexcept {
    return u32(v2layout::kArgsCount);
  }
  [[nodiscard]] long long ret() const noexcept { return i64(v2layout::kRet); }
  [[nodiscard]] SimTime local_start() const noexcept {
    return i64(v2layout::kLocalStart);
  }
  [[nodiscard]] SimTime duration() const noexcept {
    return i64(v2layout::kDuration);
  }
  [[nodiscard]] std::int32_t rank() const noexcept {
    return i32(v2layout::kRank);
  }
  [[nodiscard]] std::int32_t node() const noexcept {
    return i32(v2layout::kNode);
  }
  [[nodiscard]] std::uint32_t pid() const noexcept {
    return u32(v2layout::kPid);
  }
  [[nodiscard]] StrId host() const noexcept { return u32(v2layout::kHost); }
  [[nodiscard]] StrId path() const noexcept { return u32(v2layout::kPath); }
  [[nodiscard]] std::int32_t fd() const noexcept { return i32(v2layout::kFd); }
  [[nodiscard]] Bytes bytes() const noexcept { return i64(v2layout::kBytes); }
  [[nodiscard]] Bytes offset() const noexcept {
    return i64(v2layout::kOffset);
  }
  [[nodiscard]] std::uint32_t uid() const noexcept {
    return u32(v2layout::kUid);
  }
  [[nodiscard]] std::uint32_t gid() const noexcept {
    return u32(v2layout::kGid);
  }

  [[nodiscard]] bool is_io_call() const noexcept {
    const EventClass c = cls();
    return c == EventClass::kSyscall || c == EventClass::kLibraryCall ||
           c == EventClass::kFsOperation;
  }

  /// Flat copy into the owned-record form. `args_begin` is the running sum
  /// of preceding records' args_count (the serialized form omits it; see
  /// the layout comment in binary_format.h). Inline like the accessors —
  /// store scans call this per record.
  [[nodiscard]] EventRecord to_record(std::uint32_t args_begin = 0)
      const noexcept {
    EventRecord rec;
    rec.cls = cls();
    rec.name = name();
    rec.args_begin = args_begin;
    rec.args_count = args_count();
    rec.ret = ret();
    rec.local_start = local_start();
    rec.duration = duration();
    rec.rank = rank();
    rec.node = node();
    rec.pid = pid();
    rec.host = host();
    rec.path = path();
    rec.fd = fd();
    rec.bytes = bytes();
    rec.offset = offset();
    rec.uid = uid();
    rec.gid = gid();
    return rec;
  }

 private:
  // The payload is not alignment-guaranteed within the container, so the
  // loads assemble bytes explicitly. The fully unrolled little-endian
  // OR-of-shifts is the idiom compilers fold into one unaligned mov; these
  // must stay inline — field accessors run millions of times per scan.
  [[nodiscard]] std::uint32_t u32(std::size_t off) const noexcept {
    const std::uint8_t* p = p_ + off;
    return static_cast<std::uint32_t>(p[0]) |
           (static_cast<std::uint32_t>(p[1]) << 8) |
           (static_cast<std::uint32_t>(p[2]) << 16) |
           (static_cast<std::uint32_t>(p[3]) << 24);
  }
  [[nodiscard]] std::uint64_t u64(std::size_t off) const noexcept {
    return static_cast<std::uint64_t>(u32(off)) |
           (static_cast<std::uint64_t>(u32(off + 4)) << 32);
  }
  [[nodiscard]] std::int32_t i32(std::size_t off) const noexcept {
    return static_cast<std::int32_t>(u32(off));
  }
  [[nodiscard]] std::int64_t i64(std::size_t off) const noexcept {
    return static_cast<std::int64_t>(u64(off));
  }

  const std::uint8_t* p_;
};

/// One record's hot column group read in place from a projected IOTB3
/// block's decoded hot bytes (hotlayout stride). Same unchecked-load
/// contract as RecordView: the owning BlockView validated the group.
class HotRecordView {
 public:
  explicit HotRecordView(const std::uint8_t* p) noexcept : p_(p) {}

  [[nodiscard]] EventClass cls() const noexcept {
    return static_cast<EventClass>(p_[hotlayout::kCls]);
  }
  [[nodiscard]] StrId name() const noexcept { return u32(hotlayout::kName); }
  [[nodiscard]] std::int32_t rank() const noexcept {
    return static_cast<std::int32_t>(u32(hotlayout::kRank));
  }
  [[nodiscard]] SimTime local_start() const noexcept {
    return i64(hotlayout::kLocalStart);
  }
  [[nodiscard]] SimTime duration() const noexcept {
    return i64(hotlayout::kDuration);
  }
  [[nodiscard]] Bytes bytes() const noexcept { return i64(hotlayout::kBytes); }

  [[nodiscard]] bool is_io_call() const noexcept {
    const EventClass c = cls();
    return c == EventClass::kSyscall || c == EventClass::kLibraryCall ||
           c == EventClass::kFsOperation;
  }

 private:
  [[nodiscard]] std::uint32_t u32(std::size_t off) const noexcept {
    const std::uint8_t* p = p_ + off;
    return static_cast<std::uint32_t>(p[0]) |
           (static_cast<std::uint32_t>(p[1]) << 8) |
           (static_cast<std::uint32_t>(p[2]) << 16) |
           (static_cast<std::uint32_t>(p[3]) << 24);
  }
  [[nodiscard]] std::int64_t i64(std::size_t off) const noexcept {
    return static_cast<std::int64_t>(
        static_cast<std::uint64_t>(u32(off)) |
        (static_cast<std::uint64_t>(u32(off + 4)) << 32));
  }

  const std::uint8_t* p_;
};

/// Read-only bytes of a trace file, mmapped when possible. Move-only; the
/// mapped (or owned) bytes never move, so spans into bytes() survive moves
/// of the MappedTraceFile itself.
class MappedTraceFile {
 public:
  MappedTraceFile() = default;
  /// Opens and maps `path`; falls back to reading the file into an owned
  /// buffer when mmap is unavailable. Throws IoError when the file cannot
  /// be opened or read. `prefault` faults the whole mapping in up front —
  /// right for opens that will scan every record, wrong for store ingests
  /// that only touch the head and footer pages at open (block pages then
  /// fault in lazily if a query ever needs them).
  explicit MappedTraceFile(const std::string& path, bool prefault = true);
  ~MappedTraceFile();

  MappedTraceFile(MappedTraceFile&& other) noexcept;
  MappedTraceFile& operator=(MappedTraceFile&& other) noexcept;
  MappedTraceFile(const MappedTraceFile&) = delete;
  MappedTraceFile& operator=(const MappedTraceFile&) = delete;

  [[nodiscard]] std::span<const std::uint8_t> bytes() const noexcept;
  [[nodiscard]] std::size_t size() const noexcept { return bytes().size(); }
  /// True when the bytes come from an mmap (false: read fallback).
  [[nodiscard]] bool is_mapped() const noexcept { return map_ != nullptr; }
  [[nodiscard]] const std::string& path() const noexcept { return path_; }

 private:
  void release() noexcept;

  std::string path_;
  void* map_ = nullptr;
  std::size_t map_len_ = 0;
  std::vector<std::uint8_t> owned_;
};

}  // namespace iotaxo::trace
