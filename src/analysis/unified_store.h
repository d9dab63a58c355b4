// UnifiedTraceStore — the paper's §6 future-work goal, implemented:
// "We intend to build a common framework for diverse trace aggregation.
// With such a framework, we would be able to present a single trace-data
// API to developers for use while building trace analysis tools."
//
// The store ingests bundles captured by *any* framework (ptrace text
// traces, Tracefs binary VFS streams, //TRACE interposition traces) — or
// raw EventBatches straight off the batched capture pipeline, or IOTB3
// containers mapped and read in place through trace::BlockView — normalizes
// timestamps onto a common timeline when skew/drift probes are available,
// and answers the queries analysis tools need: per-call statistics,
// per-rank activity, time-windowed I/O rates, and file heat.
//
// Internally every source lives in a *pool* of one of two kinds: an owned
// trace::EventBatch (fixed-size records plus an interned string pool), or a
// mapped block pool (a MappedTraceFile plus a BlockView over its IOTB3
// container — compressed/checksummed/encrypted blocks decoded lazily, only
// when a query touches them). Queries iterate flat records and compare
// interned ids instead of strings, so aggregate scans stay cheap at millions
// of events (the columnar bulk-iteration the DFG syscall-inspection line of
// work depends on).
//
// Each pool carries an index — min/max corrected timestamp and a name-id
// presence filter — that lets the windowed and transfer-oriented queries
// skip whole pools before scanning a record. Owned pools build theirs by a
// record scan at ingest; block pools take theirs straight from the
// container footer, so no record is decoded at ingest. Below the pool index
// sits the *segment* seam: every accessor partitions its records into
// index-carrying segments (one per owned pool, one per block), and scans
// skip or stream segments the same way they skip pools — a narrow window on
// a compressed era decompresses only the blocks it overlaps. Block segments
// also expose their decoded hot column group in its fixed stride, which the
// queries feed to the SIMD scan kernels (trace/scan_kernels.h) instead of
// per-record accessor loops. set_use_indexes(false) disables both skip
// levels for benchmarking; results are identical either way.
// compact(era_bytes) merges runs of small owned pools into era-sized
// batches (re-interned once, source infos preserved) so pool count stays
// bounded in long-lived aggregation services; the cold-tier overload
// additionally writes each era out as an IOTB3 file and re-files it as a
// block pool, so old eras shrink to compressed storage yet stay queryable.
//
// Every query (rank_timeline included), the DFG pool pass and the live DFG
// fold run through one scan driver, scan_pools(), which owns index skips,
// scan counters, prefetch and damage handling; each caller declares a
// ScanPredicate and supplies a per-segment kernel plus a merge. Scans run
// pools in parallel when set_query_threads allows: each worker chunk
// builds a partial and the partials are merged in pool (== source) order,
// so results are bit-identical to the serial scan. Queries remain const
// and safe to issue concurrently; ingest, compact and the setters are
// configuration and must not race with them.
#pragma once

#include <algorithm>
#include <atomic>
#include <functional>
#include <map>
#include <memory>
#include <optional>
#include <string>
#include <thread>
#include <vector>

#include "analysis/skew_drift.h"
#include "trace/binary_format.h"
#include "trace/block_view.h"
#include "trace/bundle.h"
#include "trace/event_batch.h"
#include "trace/record_view.h"
#include "util/error.h"
#include "util/thread_pool.h"

namespace iotaxo::analysis {

// Every scan sees a pool's records through one of two accessors with the
// same shape: BatchAccess over an owned EventBatch, BlockAccess over a
// lazily-decoded IOTB3 BlockView. Both are cheap value types; the dispatch
// happens once per pool (UnifiedTraceStore::with_pool_access), so
// per-record loops stay monomorphized. The seam is public so code that
// reads a pool directly (DfgMerge's pool-local string remap) reuses it
// instead of materializing batches or growing friend access; queries scan
// through UnifiedTraceStore::scan_pools, which walks this seam for them.
//
// Besides per-record access, every accessor exposes the *segment* seam:
// segment_count() index-carrying record ranges (a single whole-pool
// segment for owned pools, one per block for block pools). The
// segment_has_* / segment_overlaps predicates are conservative — "true"
// means "may contain" — so skipping a false segment is always exact.
// segment_hot_bytes() and segment_cold_bytes() return the segment's two
// decoded column groups (hotlayout and coldlayout strides), or nullptr
// when the pool's records are not serialized (owned batches); a scan that
// reads only hot columns decodes only the hot group, a fraction of the
// stored bytes. segment_prefetch() decodes a set of segments across
// threads (parallel_for) before a serial scan walks them (block pools only
// — a no-op for owned pools).

struct BatchAccess {
  const trace::EventBatch* b;

  [[nodiscard]] std::size_t size() const noexcept { return b->size(); }
  [[nodiscard]] const trace::EventRecord& record(std::size_t i) const {
    return b->record(i);
  }
  [[nodiscard]] std::size_t string_count() const noexcept {
    return b->pool().size();
  }
  [[nodiscard]] std::string_view string(trace::StrId id) const {
    return b->pool().view(id);
  }
  /// args_begin is carried by the owned record itself; the parameter keeps
  /// the signature uniform with BlockAccess.
  [[nodiscard]] trace::TraceEvent materialize(std::size_t i,
                                              std::uint32_t /*args_begin*/)
      const {
    return b->materialize(i);
  }

  // Segment seam: one segment, no finer index, records not serialized.
  [[nodiscard]] std::size_t segment_count() const noexcept { return 1; }
  [[nodiscard]] std::size_t segment_begin(std::size_t) const noexcept {
    return 0;
  }
  [[nodiscard]] std::size_t segment_end(std::size_t) const noexcept {
    return b->size();
  }
  [[nodiscard]] std::uint32_t segment_args_begin(std::size_t) const noexcept {
    return 0;
  }
  [[nodiscard]] bool segment_overlaps(std::size_t, SimTime,
                                      SimTime) const noexcept {
    return true;
  }
  [[nodiscard]] bool segment_has_name(std::size_t,
                                      trace::StrId id) const noexcept {
    return id != 0;
  }
  [[nodiscard]] bool segment_has_fd_path(std::size_t) const noexcept {
    return true;
  }
  [[nodiscard]] bool segment_has_io_bytes(std::size_t) const noexcept {
    return true;
  }
  [[nodiscard]] bool segment_has_io_call(std::size_t) const noexcept {
    return true;
  }
  [[nodiscard]] const std::uint8_t* segment_hot_bytes(std::size_t) const {
    return nullptr;
  }
  [[nodiscard]] const std::uint8_t* segment_cold_bytes(std::size_t) const {
    return nullptr;
  }
  void segment_prefetch(const std::vector<std::size_t>&, std::size_t,
                        bool) const noexcept {}
};

struct BlockAccess {
  const trace::BlockView* v;

  [[nodiscard]] std::size_t size() const noexcept { return v->size(); }
  [[nodiscard]] trace::EventRecord record(std::size_t i) const {
    return v->record(i).to_record();
  }
  [[nodiscard]] std::size_t string_count() const noexcept {
    return v->string_count();
  }
  [[nodiscard]] std::string_view string(trace::StrId id) const {
    return v->string(id);
  }
  [[nodiscard]] trace::TraceEvent materialize(std::size_t i,
                                              std::uint32_t args_begin) const {
    return v->materialize(i, args_begin);
  }

  // Segment seam: one segment per block, backed by the footer mini-index;
  // touching a segment's records (or bytes) decodes and verifies exactly
  // that block.
  [[nodiscard]] std::size_t segment_count() const noexcept {
    return v->block_count();
  }
  [[nodiscard]] std::size_t segment_begin(std::size_t k) const noexcept {
    return v->block_first(k);
  }
  [[nodiscard]] std::size_t segment_end(std::size_t k) const noexcept {
    return v->block_first(k) + v->block_size(k);
  }
  [[nodiscard]] std::uint32_t segment_args_begin(std::size_t k) const noexcept {
    // Cannot wrap: BlockView::open rejects containers declaring more than
    // 2^32 argument ids, and every block's args_begin <= nargids.
    return static_cast<std::uint32_t>(v->block_args_begin(k));
  }
  /// True when some record's stamp may lie in the half-open [begin, end).
  [[nodiscard]] bool segment_overlaps(std::size_t k, SimTime begin,
                                      SimTime end) const noexcept {
    return v->block_max_time(k) >= begin && v->block_min_time(k) < end;
  }
  [[nodiscard]] bool segment_has_name(std::size_t k,
                                      trace::StrId id) const noexcept {
    return v->block_has_name(k, id);
  }
  [[nodiscard]] bool segment_has_fd_path(std::size_t k) const noexcept {
    return v->block_has_fd_path(k);
  }
  [[nodiscard]] bool segment_has_io_bytes(std::size_t k) const noexcept {
    return v->block_has_io_bytes(k);
  }
  [[nodiscard]] bool segment_has_io_call(std::size_t k) const noexcept {
    return v->block_has_io_call(k);
  }
  /// The segment's hot column group (hotlayout stride); decodes only that
  /// group.
  [[nodiscard]] const std::uint8_t* segment_hot_bytes(std::size_t k) const {
    return v->hot_bytes(k).data();
  }
  /// The segment's cold column group (coldlayout stride); decodes the hot
  /// group first if it has not been.
  [[nodiscard]] const std::uint8_t* segment_cold_bytes(std::size_t k) const {
    return v->cold_bytes(k).data();
  }
  /// Parallel-decode `segs` before a serial scan: failures stay sticky in
  /// the block cache and rethrow deterministically when the scan touches
  /// the failed segment.
  void segment_prefetch(const std::vector<std::size_t>& segs,
                        std::size_t threads, bool hot_only) const {
    v->decode_blocks(segs, threads, hot_only);
  }
};

/// An owned record behind the RecordView getters the scans read, so one
/// kernel body compiles for hot columns (the HotRecordView subset), decoded
/// column groups and owned records alike.
struct RecordFields {
  const trace::EventRecord& r;

  [[nodiscard]] trace::EventClass cls() const noexcept { return r.cls; }
  [[nodiscard]] trace::StrId name() const noexcept { return r.name; }
  [[nodiscard]] std::uint32_t args_count() const noexcept {
    return r.args_count;
  }
  [[nodiscard]] std::int32_t rank() const noexcept { return r.rank; }
  [[nodiscard]] SimTime local_start() const noexcept { return r.local_start; }
  [[nodiscard]] SimTime duration() const noexcept { return r.duration; }
  [[nodiscard]] trace::StrId path() const noexcept { return r.path; }
  [[nodiscard]] std::int32_t fd() const noexcept { return r.fd; }
  [[nodiscard]] Bytes bytes() const noexcept { return r.bytes; }
  [[nodiscard]] bool is_io_call() const noexcept { return r.is_io_call(); }
};

/// A table keyed by an int field that containers supply and so cannot be
/// trusted (an fd, a rank). Keys in [0, kFlatKeys) index a flat vector
/// grown to the largest such key seen; every other key lives in an
/// ordered map. No allocation grows with a key's value, and clear() keeps
/// the vector's capacity for the next pool. Absent keys read as T{}.
template <class T>
class IntKeyTable {
 public:
  static constexpr std::int32_t kFlatKeys = 1 << 16;

  [[nodiscard]] T& operator[](std::int32_t key) {
    if (key >= 0 && key < kFlatKeys) {
      const auto k = static_cast<std::size_t>(key);
      if (k >= flat_.size()) {
        flat_.resize(k + 1);
      }
      return flat_[k];
    }
    return spill_[key];
  }

  [[nodiscard]] T get(std::int32_t key) const {
    if (key >= 0 && key < kFlatKeys) {
      const auto k = static_cast<std::size_t>(key);
      return k < flat_.size() ? flat_[k] : T{};
    }
    const auto it = spill_.find(key);
    return it == spill_.end() ? T{} : it->second;
  }

  /// fn(key, value) for every key whose value is not T{}.
  template <class Fn>
  void for_each(Fn&& fn) const {
    for (std::size_t k = 0; k < flat_.size(); ++k) {
      if (flat_[k] != T{}) {
        fn(static_cast<std::int32_t>(k), flat_[k]);
      }
    }
    for (const auto& [key, value] : spill_) {
      if (value != T{}) {
        fn(key, value);
      }
    }
  }

  void clear() noexcept {
    flat_.clear();
    spill_.clear();
  }

 private:
  std::vector<T> flat_;
  std::map<std::int32_t, T> spill_;
};

/// One segment's records as the scan driver hands them to a kernel:
/// records [begin, end) of segment `segment`, read through `acc`. For block
/// pools `hot` points at their rows in the decoded hot column group
/// (hotlayout stride), and `cold` at their rows in the cold group
/// (coldlayout stride) when the scan's predicate clears hot_only; owned
/// pools leave both null and hand out EventRecords.
template <class Acc>
struct ScanRows {
  const Acc& acc;
  std::size_t segment;
  std::size_t begin;
  std::size_t end;
  const std::uint8_t* hot;
  const std::uint8_t* cold;

  [[nodiscard]] std::size_t size() const noexcept { return end - begin; }

  /// fn(rec) for each record in order, rec offering the HotRecordView
  /// getters whichever form the records are in.
  template <class Fn>
  void for_each(Fn&& fn) const {
    if (hot != nullptr) {
      for (std::size_t j = 0; j < size(); ++j) {
        fn(trace::HotRecordView(hot + j * trace::hotlayout::kStride));
      }
    } else {
      for_each_whole(fn);
    }
  }

  /// fn(rec) for each record in order, rec offering the RecordFields
  /// getters (cold columns included). For scans whose predicate clears
  /// hot_only: only they are handed cold rows.
  template <class Fn>
  void for_each_whole(Fn&& fn) const {
    if (hot != nullptr) {
      for (std::size_t j = 0; j < size(); ++j) {
        fn(trace::RecordView(hot + j * trace::hotlayout::kStride,
                             cold + j * trace::coldlayout::kStride));
      }
    } else {
      for (std::size_t i = begin; i < end; ++i) {
        fn(RecordFields{acc.record(i)});
      }
    }
  }
};

/// What a scan reads, and so which pools and segments the driver may skip
/// by index without changing its answer. Each set field narrows the
/// records the kernel can use; a pool or segment whose index proves it
/// holds none of them is skipped (empty pools always are).
struct ScanPredicate {
  struct Window {
    SimTime begin = 0;
    SimTime end = 0;
  };
  /// Only records stamped inside [begin, end) matter.
  std::optional<Window> window;
  /// Only SYS_write / SYS_read records matter.
  bool transfer = false;
  /// Only records with an fd and a path, or I/O calls that moved bytes,
  /// matter.
  bool fd_path_or_io_bytes = false;
  /// Only I/O calls matter.
  bool io_call = false;
  /// The kernel reads hot columns only, so block pools decode just their
  /// hot group; false hands the kernel whole records.
  bool hot_only = true;
};

/// Restricts a scan to records [begin, end) of one pool.
struct ScanRange {
  std::size_t pool = 0;
  std::size_t begin = 0;
  std::size_t end = 0;
};

struct StoreSourceInfo {
  std::string framework;
  std::string application;
  long long events = 0;
  bool time_corrected = false;
  /// True when the source is served from a mapped IOTB3 container (a block
  /// pool) rather than an owned batch.
  bool view_backed = false;
};

struct CallStats {
  long long count = 0;
  SimTime total_time = 0;
  Bytes total_bytes = 0;
  bool operator==(const CallStats&) const = default;
};

struct FileHeat {
  std::string path;
  long long ops = 0;
  Bytes bytes = 0;
  bool operator==(const FileHeat&) const = default;
};

/// Shape of one storage pool, reported by pool_infos() so tools and
/// benches can describe a store (pool count, sizes, eras, owned vs block)
/// without friend access to the pool internals.
struct StorePoolInfo {
  /// Sources [first_source, first_source + source_count) live in this pool
  /// (source_count > 1 only after compact()).
  std::size_t first_source = 0;
  std::size_t source_count = 1;
  long long records = 0;
  /// Approximate resident footprint: in-memory batch bytes for owned
  /// pools, container file bytes for block pools.
  std::size_t approx_bytes = 0;
  /// True for pools served from an IOTB3 BlockView (cold-tier compaction
  /// output, ingest_view or attach_dir); `blocks` is then the container's
  /// block count, else 0.
  bool block_backed = false;
  std::size_t blocks = 0;
  /// Block-backed container flags and the decode footprint so far:
  /// stored_bytes is the container's total stored block bytes,
  /// decoded_stored_bytes how many of them queries have decoded (hot and
  /// cold groups counted separately). Zero for non-block pools.
  bool encrypted = false;
  std::size_t stored_bytes = 0;
  std::size_t decoded_stored_bytes = 0;
  /// Blocks whose decode has failed sticky so far (block-backed pools;
  /// grows as queries touch damaged blocks — see ScanPolicy::skip_damaged).
  std::size_t damaged_blocks = 0;
  /// Pool-index time span (valid iff `any`): min/max corrected stamp.
  bool any = false;
  SimTime min_time = 0;
  SimTime max_time = 0;
  /// Streaming-ingest state: open_era is true while this pool is the
  /// store's growing open batch (seal_open_era / a large ingest closes it);
  /// flushes_absorbed counts the ingest calls folded into it (0 for pools
  /// that never streamed).
  bool open_era = false;
  std::size_t flushes_absorbed = 0;
  bool operator==(const StorePoolInfo&) const = default;
};

/// One container attach_dir could not serve, and why. `file` is the name
/// within the directory (no path components).
struct QuarantinedFile {
  std::string file;
  std::string reason;
  bool operator==(const QuarantinedFile&) const = default;
};

/// What attach_dir found and did: the recovery report. The store serves
/// exactly `recovered_eras` containers; everything in `quarantined` stays
/// on disk, reported but unserved (nothing but `.tmp` files is deleted).
struct StoreHealth {
  std::size_t recovered_eras = 0;
  std::size_t torn_tmps_removed = 0;
  std::vector<QuarantinedFile> quarantined;
  [[nodiscard]] bool healthy() const noexcept { return quarantined.empty(); }
};

/// Knobs for attach_dir.
struct AttachOptions {
  /// Key for encrypted containers in the directory.
  std::optional<CipherKey> key;
  /// Source metadata applied to every attached container ("framework",
  /// "application").
  std::map<std::string, std::string> metadata;
};

/// Knobs for streaming (era-aware) ingest: set_stream_ingest routes small
/// flushes into one growing *open era* pool instead of filing a pool per
/// flush, so a long capture session produces tens of pools, not tens of
/// thousands. The open era's index is maintained incrementally per append
/// (stamp bounds extended, presence flags OR'd — never a rescan).
struct StreamIngestOptions {
  /// Flushes of at most this many events are absorbed into the open era;
  /// larger ingests seal it and file their own pool as before.
  std::size_t flush_events = 4096;
  /// Seal the open era once its approximate in-memory footprint exceeds
  /// this (the same quantity compact() sizes eras by).
  std::size_t era_bytes = 8u << 20;
};

/// How scans react to damaged data (sticky per-block decode failures). It
/// covers every scan_pools() caller: the five queries, DfgBuilder::build
/// and the LiveDfg fold.
struct ScanPolicy {
  /// Default off: the first touched bad block fails the scan (FormatError).
  /// Opt in to skip damaged segments instead: the scan completes over
  /// everything healthy and the store accumulates skipped_blocks /
  /// skipped_records (damage_counters(), pool_infos()).
  bool skip_damaged = false;
};

/// Cumulative damage skipped by scans since the last reset (only grows
/// under ScanPolicy::skip_damaged). A segment is counted once per scan
/// that skips it, so an uncorrupted twin store always reports {0, 0}.
struct DamageCounters {
  std::uint64_t skipped_blocks = 0;
  std::uint64_t skipped_records = 0;
  bool operator==(const DamageCounters&) const = default;
};

class UnifiedTraceStore {
 public:
  /// Ingest a bundle. If it carries clock probes, a skew/drift model is
  /// fitted and all of its event timestamps are corrected onto the common
  /// timeline; otherwise node-local stamps are used as-is (flagged in the
  /// source info). Returns the source index.
  std::size_t ingest(const trace::TraceBundle& bundle);

  /// Ingest a capture batch directly — no per-event heap objects are
  /// rebuilt; records are re-interned into the store's source batch.
  /// `metadata` mirrors the bundle keys ("framework", "application");
  /// `clock_probes` enables timeline correction exactly as for bundles.
  std::size_t ingest(
      const trace::EventBatch& batch,
      const std::map<std::string, std::string>& metadata = {},
      const std::vector<trace::TraceEvent>& clock_probes = {},
      const std::vector<trace::DependencyEdge>& dependencies = {});

  /// Ingest an IOTB3 container in place: the store takes ownership of the
  /// mapped file and serves the source from a BlockView over it. The pool
  /// index is built from the footer mini-index alone, so no block is
  /// decoded (or decompressed, or decrypted) at ingest. Block sources use
  /// raw node-local stamps (no timeline correction; decode to a batch and
  /// use the batch overload when probes must be applied). `key` opens
  /// encrypted containers (a wrong or missing key throws FormatError at
  /// ingest; blocks decrypt lazily as queries touch them). Throws
  /// FormatError if the container does not open (IOTB1/IOTB2 included).
  std::size_t ingest_view(trace::MappedTraceFile file,
                          const std::map<std::string, std::string>& metadata = {},
                          const std::optional<CipherKey>& key = std::nullopt);
  /// Convenience: map `path` (without prefaulting: the open touches only
  /// the head and footer pages) and ingest it in place.
  std::size_t ingest_view(const std::string& path,
                          const std::map<std::string, std::string>& metadata = {},
                          const std::optional<CipherKey>& key = std::nullopt);
  /// Ingest an already-opened pair: `view` must borrow `file`'s bytes
  /// (checked; ConfigError otherwise). Callers that opened the container
  /// themselves (the CLI prints its block table first) file it without
  /// paying the open-time validation a second time.
  std::size_t ingest_view(trace::MappedTraceFile file, trace::BlockView view,
                          const std::map<std::string, std::string>& metadata = {});

  /// Attach a crash-safe store directory (one the cold tier spills into),
  /// recovering from whatever a crash left behind: orphaned `<name>.tmp`
  /// files are deleted, the directory's MANIFEST.iotm (when present)
  /// decides which containers are committed, and every committed container
  /// that still matches its recorded size + CRC and opens cleanly is
  /// ingested in place. Containers that fail any validation — and
  /// committed-looking files the manifest does not list (a crash between
  /// the era rename and the manifest rename) — are *quarantined*: reported
  /// in the returned StoreHealth, left on disk, not served, and never
  /// aborting the attach. Without a manifest (or with a corrupt one, which
  /// is itself quarantined) every container that opens cleanly is served.
  /// Also advances the cold-era counter past everything seen, so later
  /// cold compactions into the directory cannot collide. Throws IoError
  /// only when the directory itself cannot be read.
  StoreHealth attach_dir(const std::string& directory,
                         const AttachOptions& options = {});

  /// Merge runs of adjacent small *owned* pools into era-sized batches of
  /// at most ~era_bytes each (approximate in-memory footprint). Source
  /// infos, source indexing and every query result are preserved exactly;
  /// block pools are never touched. Bounds pool count for long-lived
  /// aggregation services. Returns the pool count after compaction.
  std::size_t compact(std::size_t era_bytes);

  /// How compact(era_bytes, cold) writes its cold tier.
  struct ColdTierOptions {
    /// Directory the era containers are written into (must exist).
    std::string directory;
    /// Container options for the eras: compress/checksum/encrypt flow to
    /// the encoder, which stores every block as hot + cold column groups
    /// (encrypt requires `binary.key`, which is also used to open the
    /// written era for swap-in).
    trace::BinaryOptions binary;
    std::uint32_t block_records = trace::v3layout::kDefaultBlockRecords;
    /// Era files are named <directory>/<file_prefix>-<n>.iotb3, where n is
    /// a store-lifetime monotonic counter: repeated cold compactions never
    /// reuse a number, so an era a live pool still mmaps is never
    /// truncated. A name that nevertheless already exists on disk (another
    /// store writing the same prefix) raises IoError instead of
    /// overwriting.
    std::string file_prefix = "era";
  };

  /// Era compaction with a cold tier: merge owned pools exactly as
  /// compact(era_bytes), then spill each merged era to an IOTB3 container
  /// under `cold.directory` and swap the pool to a block-backed view of
  /// the mapped file — the in-memory batch is released, and later queries
  /// decode only the blocks they touch. Query results are preserved
  /// exactly; covered sources become block-backed (source_batch() then
  /// throws for them). Returns the pool count.
  std::size_t compact(std::size_t era_bytes, const ColdTierOptions& cold);

  /// Number of internal storage pools (== sources until compact() merges
  /// some).
  [[nodiscard]] std::size_t pool_count() const noexcept {
    return pools_.size();
  }

  /// Per-pool shape (record count, footprint, index time span, owned vs
  /// block), in pool (== source) order.
  [[nodiscard]] std::vector<StorePoolInfo> pool_infos() const;

  /// Run fn with pool `p`'s accessor (BatchAccess or BlockAccess): the
  /// same seam scan_pools walks, for callers that read pool records
  /// themselves. Throws ConfigError on an out-of-range pool.
  template <class Fn>
  decltype(auto) with_pool_access(std::size_t p, Fn&& fn) const {
    check_pool_index(p);
    const StorePool& pool = pools_[p];
    if (pool.blocks.has_value()) {
      return fn(BlockAccess{&*pool.blocks});
    }
    return fn(BatchAccess{&pool.batch});
  }

  /// The scan driver under every query, the DFG pool pass and the live DFG
  /// fold. It first walks the pool indexes of every pool (or, given a
  /// `range`, just its pool) and counts the pools `pred` rules out as
  /// skipped. The pools that remain are split into contiguous chunks:
  /// min(thread budget, pools left) of them, at least one, where the
  /// budget is `threads` (0 = hardware concurrency). A probe that leaves
  /// one pool therefore runs inline, with no workers. For every remaining
  /// pool it calls
  ///   visit(part, pool, acc, segments)
  /// with the chunk's partial (a copy of `init`) and the pool's accessor.
  /// visit calls segments(kernel) once; the driver then runs
  /// kernel(const ScanRows&) over each segment `pred` does not rule out,
  /// after prefetching them on the threads the chunks leave over. Under
  /// ScanPolicy::skip_damaged a segment that fails to decode is skipped
  /// and counted (decode precedes the kernel, so it contributes nothing);
  /// otherwise its FormatError ends the scan. Returns the chunk partials
  /// in pool order. Callers merge them; only src/analysis/ scans.
  template <class Part, class Visit>
  [[nodiscard]] std::vector<Part> scan_pools(
      const ScanPredicate& pred, std::size_t threads, Part init,
      Visit&& visit, const ScanRange* range = nullptr) const;

  /// Worker threads the queries' scans may use: 0 = auto (hardware
  /// concurrency), 1 = serial. Scans go parallel only when several sources
  /// are ingested; partial merges keep results identical either way.
  void set_query_threads(std::size_t threads) noexcept {
    query_threads_ = threads;
  }
  [[nodiscard]] std::size_t query_threads() const noexcept {
    return query_threads_;
  }

  /// Pool-index skips on/off (default on). Results are identical either
  /// way; the off position exists so bench_zero_copy can measure the win.
  void set_use_indexes(bool use) noexcept { use_indexes_ = use; }
  [[nodiscard]] bool use_indexes() const noexcept { return use_indexes_; }

  /// Enable streaming ingest (see StreamIngestOptions). Query results are
  /// identical to one-pool-per-flush ingest — the open era batch is exactly
  /// what compact() would have produced from the individual pools.
  void set_stream_ingest(const StreamIngestOptions& options) {
    stream_ = options;
  }
  /// Disable streaming ingest, sealing any open era first.
  void disable_stream_ingest() {
    seal_open_era();
    stream_.reset();
  }
  [[nodiscard]] bool stream_ingest_enabled() const noexcept {
    return stream_.has_value();
  }
  /// Close the open era batch (it becomes an ordinary sealed pool that
  /// compact() / the cold tier may merge or spill). Returns whether an open
  /// era existed. The next absorbed flush starts a fresh era.
  bool seal_open_era();

  /// Called after records [begin_record, end_record) of pool `pool` are
  /// filed (any ingest path: new pool, open-era append, attached
  /// container). At most one listener; set an empty function to detach.
  /// A listener that throws fails the ingest: the records are un-filed,
  /// leaving the store as it was before the call, and the exception
  /// propagates (attach_dir then quarantines the container). The live-DFG
  /// maintainer (analysis/dfg/live_dfg.h) hangs off this seam.
  using IngestListener =
      std::function<void(std::size_t pool, std::size_t begin_record,
                         std::size_t end_record)>;
  void set_ingest_listener(IngestListener listener) {
    ingest_listener_ = std::move(listener);
  }

  /// Damage tolerance for queries (ScanPolicy::skip_damaged); default is
  /// fail-fast.
  void set_scan_policy(ScanPolicy policy) noexcept { scan_policy_ = policy; }
  [[nodiscard]] ScanPolicy scan_policy() const noexcept {
    return scan_policy_;
  }

  /// Damage skipped by queries so far (grows only under skip_damaged).
  [[nodiscard]] DamageCounters damage_counters() const noexcept {
    return {damage_->blocks.load(std::memory_order_relaxed),
            damage_->records.load(std::memory_order_relaxed)};
  }
  void reset_damage_counters() noexcept {
    damage_->blocks.store(0, std::memory_order_relaxed);
    damage_->records.store(0, std::memory_order_relaxed);
  }

  [[nodiscard]] const std::vector<StoreSourceInfo>& sources() const noexcept {
    return sources_;
  }
  [[nodiscard]] long long total_events() const noexcept {
    return total_events_;
  }

  /// A source's events in normalized columnar form (local_start already on
  /// the common timeline). Only available while the source still has its
  /// own owned pool: throws ConfigError for block-backed sources (their
  /// records live in the mapped file, not an EventBatch) and for sources
  /// merged away by compact().
  [[nodiscard]] const trace::EventBatch& source_batch(
      std::size_t source) const;

  /// Per-call-name statistics across every ingested source.
  [[nodiscard]] std::map<std::string, CallStats> call_stats() const;

  /// Every event whose rank is `rank`, across all sources, materialized
  /// and ordered by corrected stamp (local_start). Events with equal stamps
  /// come out in store order: pool (== source) order, then record order
  /// within the pool. The order is the same at every thread count and for
  /// owned and block pools alike, encrypted or not. Only the returned rows
  /// are materialized.
  [[nodiscard]] std::vector<trace::TraceEvent> rank_timeline(int rank) const;

  /// Bytes moved by I/O calls inside [begin, end) on the common timeline.
  [[nodiscard]] Bytes bytes_in_window(SimTime begin, SimTime end) const;

  /// I/O rate series: total bytes per fixed-width bucket across the span
  /// of ingested events. Returns (bucket start, bytes) pairs.
  [[nodiscard]] std::vector<std::pair<SimTime, Bytes>> io_rate_series(
      SimTime bucket_width) const;

  /// Hottest files by byte volume (descending), up to `limit`. Every I/O
  /// call that moved bytes counts once toward its file: the record's own
  /// path, else the path of the latest record in store order that paired
  /// its fd with a path, else "(unknown)". That fd -> path state carries
  /// across pools in store order. A file's bytes are the larger of its
  /// library-call sum and its syscall + VFS sum, since a library wrapper
  /// and the syscall beneath it report the same transfer; ops count both.
  [[nodiscard]] std::vector<FileHeat> hottest_files(std::size_t limit) const;

  /// All dependency edges across sources.
  [[nodiscard]] const std::vector<trace::DependencyEdge>& dependencies()
      const noexcept {
    return dependencies_;
  }

 private:
  /// Built once per pool at ingest (and rebuilt on compaction merge): the
  /// facts that let queries skip a pool without touching its records.
  struct PoolIndex {
    bool any = false;          // pool has at least one record
    SimTime min_time = 0;      // min/max corrected local_start (valid iff any)
    SimTime max_time = 0;
    bool has_fd_path = false;  // some record carries fd >= 0 with a path
    bool has_io_bytes = false; // some I/O-class record moved bytes > 0
    /// Interned ids of the transfer syscalls in this pool's string table
    /// (0 = not interned), resolved once at ingest so windowed queries
    /// never re-search the table (linear for block pools).
    trace::StrId sys_write_id = 0;
    trace::StrId sys_read_id = 0;
    /// name_present[id]: some record's *name* is string id `id` (ids that
    /// only appear as args/paths/hosts stay false).
    std::vector<bool> name_present;

    /// Extend the stamp bounds over [lo, hi].
    void widen(SimTime lo, SimTime hi) noexcept {
      min_time = any ? std::min(min_time, lo) : lo;
      max_time = any ? std::max(max_time, hi) : hi;
      any = true;
    }

    /// True when string id `id` appears as some record's name (id 0 means
    /// "string not interned in this pool": always false).
    [[nodiscard]] bool has_name(trace::StrId id) const noexcept {
      return id != 0 && id < name_present.size() && name_present[id];
    }

    /// The pool holds no record `pred` can use.
    [[nodiscard]] bool rules_out(const ScanPredicate& pred) const noexcept {
      return !any ||
             (pred.window.has_value() && (max_time < pred.window->begin ||
                                          min_time >= pred.window->end)) ||
             (pred.transfer && !has_name(sys_write_id) &&
              !has_name(sys_read_id)) ||
             (pred.fd_path_or_io_bytes && !has_fd_path && !has_io_bytes);
    }

    /// Segment `k` of this pool holds no record `pred` can use.
    template <class Acc>
    [[nodiscard]] bool rules_out(const Acc& acc, std::size_t k,
                                 const ScanPredicate& pred) const {
      return (pred.window.has_value() &&
              !acc.segment_overlaps(k, pred.window->begin,
                                    pred.window->end)) ||
             (pred.transfer && !acc.segment_has_name(k, sys_write_id) &&
              !acc.segment_has_name(k, sys_read_id)) ||
             (pred.fd_path_or_io_bytes && !acc.segment_has_fd_path(k) &&
              !acc.segment_has_io_bytes(k)) ||
             (pred.io_call && !acc.segment_has_io_call(k));
    }
  };

  /// One storage unit: an owned batch (`blocks` disengaged) or a mapped
  /// IOTB3 file served through `blocks`. Covers sources [first_source,
  /// first_source + source_count) — more than one only after compact().
  struct StorePool {
    trace::EventBatch batch;
    trace::MappedTraceFile file;
    std::optional<trace::BlockView> blocks;
    PoolIndex index;
    std::size_t first_source = 0;
    std::size_t source_count = 1;
    /// Streaming ingest: true while this is the store's open era batch
    /// (always the LAST pool — any non-absorbing ingest seals it first, so
    /// pools stay sorted by first_source); flushes counts the ingest calls
    /// absorbed (0 for pools that never streamed).
    bool open = false;
    std::size_t flushes = 0;
  };

  [[nodiscard]] std::optional<SkewDriftModel> fit_model(
      const std::vector<trace::TraceEvent>& clock_probes,
      StoreSourceInfo& info) const;

  /// Shared tail of the owned-batch ingest overloads: timeline-correct the
  /// batch, account it, index it, and file it as a new source.
  std::size_t ingest_source(
      StoreSourceInfo info, trace::EventBatch batch,
      const std::optional<SkewDriftModel>& model,
      const std::vector<trace::DependencyEdge>& dependencies);

  [[nodiscard]] const StorePool& pool_for(std::size_t source) const;

  /// Bounds check shared by the inline pool accessors.
  void check_pool_index(std::size_t p) const;

  /// (Re)build a pool's skip index: OR a block pool's footer mini-index
  /// together, or fold an owned pool's records through the same seam
  /// open-era appends extend through (fold_index_records).
  void index_pool(StorePool& pool);

  /// The one index-maintenance seam for owned pools: fold records
  /// [begin, end) of `batch` into `idx` (stamp bounds, presence flags, name
  /// filter). Callers size idx.name_present and resolve the transfer-call
  /// ids; both full ingest scans and incremental open-era appends run
  /// through this.
  static void fold_index_records(PoolIndex& idx,
                                 const trace::EventBatch& batch,
                                 std::size_t begin, std::size_t end);

  /// Account a new source holding `events` records (and its dependency
  /// edges); returns its index. drop_source undoes the latest add_source
  /// that added `dependencies` edges.
  std::size_t add_source(StoreSourceInfo info, std::size_t events,
                         const std::vector<trace::DependencyEdge>& dependencies);
  void drop_source(std::size_t dependencies);

  /// File `pool` as the last pool, holding one new source, and notify the
  /// listener. If it throws, the pool and source are un-filed (and the open
  /// era the caller sealed for it, `sealed_era`, reopened) before the
  /// exception propagates. Returns the source index.
  std::size_t file_pool(StorePool pool, StoreSourceInfo info,
                        const std::vector<trace::DependencyEdge>& dependencies,
                        bool sealed_era);

  /// Absorb a small flush into the open era batch (creating it if needed),
  /// extending the pool index over just the appended suffix, then seal by
  /// size/flush-count. Un-files the flush if the listener throws. Returns
  /// the new source index.
  std::size_t stream_append(
      StoreSourceInfo info, trace::EventBatch batch,
      const std::vector<trace::DependencyEdge>& dependencies);

  /// Re-resolve the open era's transfer-call ids and grow its name filter
  /// after an append re-interned strings, then fold the appended suffix.
  void extend_open_index(StorePool& pool, std::size_t begin, std::size_t end);

  void notify_ingest(std::size_t pool, std::size_t begin, std::size_t end);

  /// Damage skipped by scans under ScanPolicy::skip_damaged. Atomics
  /// because parallel scan chunks bump them concurrently; boxed so the
  /// store itself stays movable (callers return stores by value).
  struct DamageTally {
    std::atomic<std::uint64_t> blocks{0};
    std::atomic<std::uint64_t> records{0};
  };

  /// Record a skipped segment (const: scans are const, the tally is
  /// deliberately mutable state like the lazy block caches). Also feeds
  /// the store.query.damage_skipped_* metrics; defined out of line so the
  /// header does not pull in util/metrics.h.
  void note_damage(std::uint64_t records) const noexcept;

  /// Feed scan_pools' skip and scan counts to the store.query.* metrics
  /// (out of line for the same reason as note_damage).
  void note_scan(std::size_t pools_skipped, std::size_t segments_scanned,
                 std::size_t segments_skipped) const noexcept;

  std::vector<StoreSourceInfo> sources_;
  /// Storage pools in source order (each covering >= 1 source).
  std::vector<StorePool> pools_;
  std::vector<trace::DependencyEdge> dependencies_;
  long long total_events_ = 0;
  std::size_t query_threads_ = 0;  // 0 = auto
  ScanPolicy scan_policy_{};
  std::unique_ptr<DamageTally> damage_ = std::make_unique<DamageTally>();
  /// Next cold-era file number; never reset, so successive cold
  /// compactions cannot collide with era files earlier calls spilled (and
  /// still serve block-backed pools from).
  std::size_t cold_era_seq_ = 0;
  bool use_indexes_ = true;
  std::optional<StreamIngestOptions> stream_;
  IngestListener ingest_listener_;
};

template <class Part, class Visit>
std::vector<Part> UnifiedTraceStore::scan_pools(
    const ScanPredicate& pred, std::size_t threads, Part init,
    Visit&& visit, const ScanRange* range) const {
  // A null range scans every pool. It is read once, into locals.
  const bool ranged = range != nullptr;
  const ScanRange bounds = ranged ? *range : ScanRange{};
  const std::size_t first = ranged ? bounds.pool : 0;
  const std::size_t last = ranged ? first + 1 : pools_.size();
  if (ranged) {
    check_pool_index(first);
  }
  const bool indexed = use_indexes_;
  std::vector<std::size_t> survivors;
  for (std::size_t p = first; p < last; ++p) {
    if (!indexed || !pools_[p].index.rules_out(pred)) {
      survivors.push_back(p);
    }
  }
  note_scan(last - first - survivors.size(), 0, 0);
  // Contiguous chunks of the surviving pools, one per thread; whatever the
  // chunks leave over decodes blocks in parallel inside each pool, which is
  // the whole budget for a single big cold pool. The workers are per call
  // (parallel_for): scans are far rarer than captures, so resident threads
  // have not been worth their keep.
  const std::size_t budget =
      threads != 0
          ? threads
          : std::max<std::size_t>(1, std::thread::hardware_concurrency());
  const std::size_t npools = survivors.size();
  const std::size_t chunks = std::max<std::size_t>(std::min(budget, npools), 1);
  const std::size_t decode_threads = std::max<std::size_t>(budget / chunks, 1);
  std::vector<Part> parts(chunks - 1, init);
  parts.push_back(std::move(init));
  const auto run_chunk = [&](std::size_t c) {
    for (std::size_t j = npools * c / chunks; j < npools * (c + 1) / chunks;
         ++j) {
      const std::size_t p = survivors[j];
      with_pool_access(p, [&](const auto& acc) {
        const PoolIndex& index = pools_[p].index;
        const std::size_t lo = ranged ? bounds.begin : 0;
        const std::size_t hi = ranged ? bounds.end : acc.size();
        visit(parts[c], p, acc, [&](auto&& kernel) {
          std::vector<std::size_t> touched;
          std::size_t skipped = 0;
          for (std::size_t k = 0; k < acc.segment_count(); ++k) {
            if (std::max(lo, acc.segment_begin(k)) >=
                std::min(hi, acc.segment_end(k))) {
              continue;  // empty, or outside the range
            }
            if (indexed && index.rules_out(acc, k, pred)) {
              ++skipped;  // skipped blocks stay compressed on disk
              continue;
            }
            touched.push_back(k);
          }
          note_scan(0, touched.size(), skipped);
          acc.segment_prefetch(touched, decode_threads, pred.hot_only);
          for (const std::size_t k : touched) {
            const std::size_t seg_first = acc.segment_begin(k);
            const std::size_t begin = std::max(lo, seg_first);
            const std::size_t end = std::min(hi, acc.segment_end(k));
            // Segment decode is all-or-nothing and precedes the kernel, so
            // a damaged block throws before it contributes a record:
            // skipping it drops exactly its records.
            try {
              ScanRows<std::decay_t<decltype(acc)>> rows{
                  acc, k, begin, end, acc.segment_hot_bytes(k), nullptr};
              if (rows.hot != nullptr) {
                rows.hot += (begin - seg_first) * trace::hotlayout::kStride;
                if (!pred.hot_only) {
                  rows.cold = acc.segment_cold_bytes(k) +
                              (begin - seg_first) * trace::coldlayout::kStride;
                }
              }
              kernel(rows);
            } catch (const FormatError&) {
              if (!scan_policy_.skip_damaged) {
                throw;
              }
              note_damage(end - begin);
            }
          }
        });
      });
    }
  };
  if (chunks <= 1) {
    run_chunk(0);
  } else {
    parallel_for(chunks, run_chunk, chunks);
  }
  return parts;
}

}  // namespace iotaxo::analysis
