// EventBatch: a contiguous buffer of fixed-size event records plus the
// string pool their name/path/host/arg fields are interned into. This is
// the batched counterpart of std::vector<TraceEvent>: appending an event
// copies each distinct string once into the pool and each record is a flat
// POD, so capture layers can buffer millions of events without per-event
// heap traffic and sinks/stores can iterate them columnar-style.
//
// Batches are the unit of delivery through EventSink::on_batch, the payload
// of the IOTB3 binary container, and the internal representation of
// analysis::UnifiedTraceStore.
#pragma once

#include <cstdint>
#include <span>
#include <vector>

#include "trace/event.h"
#include "trace/string_pool.h"

namespace iotaxo::trace {

/// One event in flat form. String-typed TraceEvent fields become StrIds
/// into the owning batch's pool; args become a [args_begin, args_begin +
/// args_count) slice of the batch's arg-id table.
struct EventRecord {
  EventClass cls = EventClass::kSyscall;
  StrId name = 0;
  std::uint32_t args_begin = 0;
  std::uint32_t args_count = 0;
  long long ret = 0;
  SimTime local_start = 0;
  SimTime duration = 0;
  std::int32_t rank = -1;
  std::int32_t node = -1;
  std::uint32_t pid = 0;
  StrId host = 0;
  StrId path = 0;
  std::int32_t fd = -1;
  Bytes bytes = 0;
  Bytes offset = -1;
  std::uint32_t uid = 0;
  std::uint32_t gid = 0;

  [[nodiscard]] bool is_io_call() const noexcept {
    return cls == EventClass::kSyscall || cls == EventClass::kLibraryCall ||
           cls == EventClass::kFsOperation;
  }

  bool operator==(const EventRecord&) const = default;
};

class EventBatch {
 public:
  /// Append one event, interning its strings.
  void append(const TraceEvent& ev);

  /// Append every record of `other`, remapping its string ids into this
  /// batch's pool.
  void append(const EventBatch& other);

  /// Append a record whose string ids already refer to *this* batch's pool
  /// (decoder / builder path). Throws FormatError on out-of-range ids.
  void append_raw(EventRecord rec, std::span<const StrId> args);

  /// Append a record by interning the given string fields into this batch's
  /// pool (decoder fast path: no TraceEvent materialization). String-id
  /// fields of `rec` are overwritten; args_begin/args_count are set from
  /// `args`.
  void append_interning(EventRecord rec, std::string_view name,
                        std::string_view host, std::string_view path,
                        std::span<const std::string_view> args);

  /// Pre-size the record and arg-id containers (decode / merge paths that
  /// know the incoming sizes).
  void reserve(std::size_t records, std::size_t args) {
    records_.reserve(records_.size() + records);
    arg_ids_.reserve(arg_ids_.size() + args);
  }

  [[nodiscard]] std::size_t size() const noexcept { return records_.size(); }
  [[nodiscard]] bool empty() const noexcept { return records_.empty(); }

  /// Drop the records but keep the pool: a capture buffer that is flushed
  /// and refilled re-interns nothing.
  void clear() noexcept {
    records_.clear();
    arg_ids_.clear();
  }
  /// Drop records and pool both.
  void reset() {
    clear();
    pool_.clear();
  }

  [[nodiscard]] const std::vector<EventRecord>& records() const noexcept {
    return records_;
  }
  [[nodiscard]] const EventRecord& record(std::size_t i) const {
    return records_[i];
  }
  [[nodiscard]] const StringPool& pool() const noexcept { return pool_; }
  [[nodiscard]] StringPool& pool() noexcept { return pool_; }
  [[nodiscard]] const std::vector<StrId>& arg_ids() const noexcept {
    return arg_ids_;
  }

  [[nodiscard]] std::string_view name(std::size_t i) const {
    return pool_.view(records_[i].name);
  }
  [[nodiscard]] std::string_view host(std::size_t i) const {
    return pool_.view(records_[i].host);
  }
  [[nodiscard]] std::string_view path(std::size_t i) const {
    return pool_.view(records_[i].path);
  }
  [[nodiscard]] std::span<const StrId> args(std::size_t i) const {
    const EventRecord& r = records_[i];
    return std::span<const StrId>(arg_ids_).subspan(r.args_begin,
                                                    r.args_count);
  }
  [[nodiscard]] std::string_view arg(std::size_t i, std::size_t j) const {
    return pool_.view(args(i)[j]);
  }

  /// Timeline normalization hook (the unified store rewrites local_start
  /// onto the common timeline in place).
  void set_local_start(std::size_t i, SimTime t) noexcept {
    records_[i].local_start = t;
  }

  /// Rebuild the i-th event as a heap-owning TraceEvent.
  [[nodiscard]] TraceEvent materialize(std::size_t i) const;

  /// Explode into per-event form (tests, compatibility edges).
  [[nodiscard]] std::vector<TraceEvent> to_events() const;

  [[nodiscard]] static EventBatch from_events(
      const std::vector<TraceEvent>& events);

 private:
  std::vector<EventRecord> records_;
  std::vector<StrId> arg_ids_;
  StringPool pool_;
};

}  // namespace iotaxo::trace
