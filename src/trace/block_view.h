// Lazy read path over the IOTB3 block container (block_view.cpp) — the one
// reader of the binary container: decode_binary_batch is to_batch() over a
// BlockView, and the unified store files every mapped container as one.
// The constructor validates only the cheap, always-needed parts — envelope
// bounds, the uncompressed head (string + argument-id tables, walked and
// range-checked: sizes bounded by the payload, id 0 empty, no duplicate
// entries, every argument id in range; plus the key check for encrypted
// containers: a wrong key is rejected at open, not at first block touch)
// and the footer mini-index (whose own CRC is always verified: the index
// must be trustworthy before any skip decision is made on it). Record
// blocks are NOT touched at open.
//
// Every block is a hot and a cold column group, decoded separately on
// first touch: hot_bytes(b) decodes the hot group (the fields windowed /
// rate / call-stats / DFG scans read, at hotlayout::kStride), cold_bytes(b)
// the cold group (coldlayout::kStride) after hot_bytes(b) has validated.
// record(), for_each() and materialize() read both. Decoding a group pays
// for exactly that group: CRC over its stored bytes (when the container is
// checksummed), XTEA-CBC decryption (when encrypted; the CRC covers the
// stored ciphertext, so integrity is checked before the cipher runs), LZ
// decompression (when compressed; stored bytes are served zero-copy when
// neither transform applies), and a structural pass that validates every
// class byte and string id AND cross-checks the footer against the rows:
// the hot pass checks min/max stamps, the name bitmap and the I/O flag
// bits, the cold pass host and path ids, the args slice and the fd+path
// flag bit (an index that lies about a block is corruption and rejects
// that block). Narrow queries therefore decode a fraction of the stored
// bytes, and cold-group corruption fails only whole-record touches while
// hot queries keep working.
//
// Decoded groups are cached for the life of the view; failures are sticky
// (copies of a view share the cache AND the failure state — concurrent
// first touches of one block elect a single decoder via a per-slot atomic
// state machine, losers wait on a striped condvar, and every toucher of a
// failed block sees the identical error text). decode_blocks() prefetches
// a set of blocks across threads (parallel_for), so multi-block scans
// decode in parallel; per-block errors stay sticky and are rethrown
// deterministically by the caller's serial pass.
//
// Queries consult the per-block mini-index (block_min_time / block_has_name
// / block flag accessors) to skip blocks entirely — the unified store's
// segment seam routes its windowed and name-filtered scans through it, so
// a narrow query on a compressed 10M-event era decompresses only the
// blocks its window overlaps.
#pragma once

#include <atomic>
#include <condition_variable>
#include <cstdint>
#include <memory>
#include <mutex>
#include <span>
#include <string>
#include <string_view>
#include <vector>

#include "trace/binary_format.h"
#include "trace/record_view.h"

namespace iotaxo::trace {

/// A validated-on-demand window onto one IOTB3 container. The view borrows
/// `data`; the caller keeps the buffer alive (MappedTraceFile, or the
/// store's block-backed pool) for the view's lifetime. Copies share the
/// decoded-block cache and its sticky failure state.
class BlockView {
 public:
  explicit BlockView(std::span<const std::uint8_t> data,
                     std::optional<CipherKey> key = std::nullopt);

  [[nodiscard]] const BinaryHeader& header() const noexcept {
    return header_;
  }
  /// The container bytes this view borrows (the constructor argument).
  [[nodiscard]] std::span<const std::uint8_t> buffer() const noexcept {
    return buffer_;
  }

  [[nodiscard]] std::size_t size() const noexcept { return count_; }
  [[nodiscard]] bool empty() const noexcept { return count_ == 0; }
  [[nodiscard]] bool encrypted() const noexcept { return header_.encrypted; }

  // --- per-block mini-index (footer; CRC-verified at open) ---------------

  [[nodiscard]] std::size_t block_count() const noexcept {
    return meta_.size();
  }
  /// Records per full block; record i lives in block i / this.
  [[nodiscard]] std::uint32_t block_records_nominal() const noexcept {
    return nominal_;
  }
  [[nodiscard]] std::size_t block_of(std::size_t i) const noexcept {
    return i / nominal_;
  }
  /// Index of block b's first record.
  [[nodiscard]] std::size_t block_first(std::size_t b) const noexcept {
    return b * nominal_;
  }
  /// Record count of block b (== nominal except for the last block).
  [[nodiscard]] std::uint32_t block_size(std::size_t b) const noexcept {
    return meta_[b].records;
  }
  /// Running args_begin at block b's first record.
  [[nodiscard]] std::uint64_t block_args_begin(std::size_t b) const noexcept {
    return meta_[b].args_begin;
  }
  [[nodiscard]] SimTime block_min_time(std::size_t b) const noexcept {
    return meta_[b].min_time;
  }
  [[nodiscard]] SimTime block_max_time(std::size_t b) const noexcept {
    return meta_[b].max_time;
  }
  /// Total stored byte length of block b (hot + cold groups; possibly
  /// compressed and encrypted).
  [[nodiscard]] std::uint64_t block_stored_len(std::size_t b) const noexcept {
    return meta_[b].stored_len + meta_[b].cold_len;
  }
  /// Stored byte length of block b's hot group.
  [[nodiscard]] std::uint64_t block_hot_stored_len(
      std::size_t b) const noexcept {
    return meta_[b].stored_len;
  }
  /// True when some record in block b has name id `id` (id 0 means "not
  /// interned": always false, mirroring the store's PoolIndex::has_name).
  [[nodiscard]] bool block_has_name(std::size_t b, StrId id) const noexcept {
    if (id == 0 || id >= strings_.size()) {
      return false;
    }
    return (bitmap_of(b)[id >> 3] & (1u << (id & 7u))) != 0;
  }
  /// Block b's footer name bitmap: (string_count() + 7) / 8 bytes, bit
  /// `id` set iff some record's name is string id `id`.
  [[nodiscard]] std::span<const std::uint8_t> block_name_bitmap(
      std::size_t b) const noexcept {
    return {bitmap_of(b), bitmap_bytes_};
  }
  [[nodiscard]] bool block_has_fd_path(std::size_t b) const noexcept {
    return (meta_[b].flags & v3layout::kBlockHasFdPath) != 0;
  }
  [[nodiscard]] bool block_has_io_bytes(std::size_t b) const noexcept {
    return (meta_[b].flags & v3layout::kBlockHasIoBytes) != 0;
  }
  [[nodiscard]] bool block_has_io_call(std::size_t b) const noexcept {
    return (meta_[b].flags & v3layout::kBlockHasIoCall) != 0;
  }

  /// Stored bytes successfully decoded so far (hot and cold groups count
  /// separately as they are touched) — shared across copies. A narrow
  /// query's footprint is this vs the stored total.
  [[nodiscard]] std::uint64_t decoded_stored_bytes() const noexcept {
    return lazy_->decoded_stored.load(std::memory_order_relaxed);
  }
  /// Total stored bytes of all blocks (both groups).
  [[nodiscard]] std::uint64_t stored_bytes_total() const noexcept {
    return blocks_.size();
  }

  /// Blocks whose decode has failed sticky so far (either group) — shared
  /// across copies, grows as touches hit damaged blocks. The store's
  /// pool_infos() surfaces this as damaged_blocks.
  [[nodiscard]] std::size_t failed_blocks() const noexcept {
    std::size_t n = 0;
    for (std::size_t b = 0; b < meta_.size(); ++b) {
      if (lazy_->hot[b].state.load(std::memory_order_acquire) == kFailed ||
          lazy_->cold[b].state.load(std::memory_order_acquire) == kFailed) {
        ++n;
      }
    }
    return n;
  }

  // --- string / argument tables (uncompressed head, validated at open) ---

  [[nodiscard]] std::size_t string_count() const noexcept {
    return strings_.size();
  }
  [[nodiscard]] std::size_t string_table_bytes() const noexcept {
    return string_bytes_;
  }
  /// The string for an id, pointing into the container buffer. Throws
  /// FormatError on an out-of-range id.
  [[nodiscard]] std::string_view string(StrId id) const;
  [[nodiscard]] std::optional<StrId> find_string(
      std::string_view s) const noexcept;
  [[nodiscard]] std::size_t arg_id_count() const noexcept {
    return args_.size() / 4;
  }
  [[nodiscard]] StrId arg_id(std::size_t j) const;

  // --- record access (lazy per-block decode + verify) --------------------

  /// Block b's HOT column group (block_size(b) records of
  /// hotlayout::kStride each) — decoded, CRC-verified, decrypted and
  /// validated on first touch, cached after; zero-copy into the container
  /// buffer when neither compressed nor encrypted. Cold-group corruption is
  /// invisible here. Throws FormatError when the group is corrupt (sticky:
  /// every later touch rethrows the identical error).
  [[nodiscard]] std::span<const std::uint8_t> hot_bytes(std::size_t b) const {
    return group_bytes(lazy_->hot, b, /*hot=*/true);
  }

  /// Block b's COLD column group (block_size(b) records of
  /// coldlayout::kStride each), with the same first-touch decode and
  /// caching. Decoded only after hot_bytes(b) has validated, so a
  /// hot-group failure is sticky here too, with the same text.
  [[nodiscard]] std::span<const std::uint8_t> cold_bytes(std::size_t b) const {
    return group_bytes(lazy_->cold, b, /*hot=*/false);
  }

  /// Prefetch-decode `blocks` across up to `threads` workers (no-op for
  /// 0/1 blocks or threads). hot_only decodes just the hot groups (both
  /// groups otherwise). Per-block failures are swallowed here — they are
  /// recorded sticky, and the caller's serial scan rethrows them
  /// deterministically on first touch.
  void decode_blocks(const std::vector<std::size_t>& blocks,
                     std::size_t threads, bool hot_only) const;

  /// Record i, touching (and possibly decoding) both groups of its block.
  [[nodiscard]] RecordView record(std::size_t i) const {
    const std::size_t b = block_of(i);
    const std::size_t r = i - block_first(b);
    const std::uint8_t* cold = cold_bytes(b).data();
    return RecordView(hot_bytes(b).data() + r * hotlayout::kStride,
                      cold + r * coldlayout::kStride);
  }

  /// Visit records in order: fn(index, RecordView, args_begin). Streams
  /// block by block; every block is touched.
  template <class Fn>
  void for_each(Fn&& fn) const {
    std::size_t i = 0;
    for (std::size_t b = 0; b < meta_.size(); ++b) {
      const std::uint8_t* cold = cold_bytes(b).data();
      const std::uint8_t* hot = hot_bytes(b).data();
      // Cannot wrap: open rejects containers with > 2^32 argument ids.
      auto args_begin = static_cast<std::uint32_t>(meta_[b].args_begin);
      const std::size_t n = meta_[b].records;
      for (std::size_t r = 0; r < n; ++r, ++i) {
        const RecordView rec(hot + r * hotlayout::kStride,
                             cold + r * coldlayout::kStride);
        fn(i, rec, args_begin);
        args_begin += rec.args_count();
      }
    }
  }

  /// Rebuild record `i` as a heap-owning TraceEvent (`args_begin` as for
  /// for_each).
  [[nodiscard]] TraceEvent materialize(std::size_t i,
                                       std::uint32_t args_begin) const;

  /// Decode the whole container into an owned EventBatch (touches every
  /// block) — what decode_binary_batch returns.
  [[nodiscard]] EventBatch to_batch() const;

 private:
  struct BlockMeta {
    std::uint64_t offset = 0;
    std::uint64_t stored_len = 0;  // hot group
    std::uint64_t cold_len = 0;
    std::uint64_t args_begin = 0;
    std::uint32_t records = 0;
    std::uint32_t crc = 0;
    std::uint32_t cold_crc = 0;
    SimTime min_time = 0;
    SimTime max_time = 0;
    std::uint8_t flags = 0;
  };

  // Per-slot decode state machine: a first toucher CASes kUntouched ->
  // kDecoding and decodes outside any lock; concurrent touchers of the
  // same block park on the slot's stripe condvar until the winner
  // publishes kReady or kFailed (both terminal).
  static constexpr int kUntouched = 0;
  static constexpr int kDecoding = 1;
  static constexpr int kReady = 2;
  static constexpr int kFailed = 3;

  struct BlockSlot {
    std::atomic<int> state{kUntouched};
    std::vector<std::uint8_t> owned;      // decoded bytes, if not zero-copy
    std::span<const std::uint8_t> bytes;  // the group's record bytes
    std::string error;                    // sticky failure message
  };

  /// Shared decode cache: slot vectors are sized once and never
  /// reallocated, so the per-slot atomic fast paths read stable storage.
  /// The stripe mutexes guard only the publish/wait handshake — decode
  /// itself runs lock-free in the CAS winner, so distinct blocks decode
  /// concurrently.
  struct LazyState {
    static constexpr std::size_t kStripes = 16;
    std::vector<BlockSlot> hot;
    std::vector<BlockSlot> cold;
    std::atomic<std::uint64_t> decoded_stored{0};
    std::mutex stripe_m[kStripes];
    std::condition_variable stripe_cv[kStripes];
    explicit LazyState(std::size_t n) : hot(n), cold(n) {}
  };

  /// Footer bitmap of block b (bitmap_bytes_ bytes, after the fixed entry
  /// fields).
  [[nodiscard]] const std::uint8_t* bitmap_of(std::size_t b) const noexcept {
    return footer_.data() + b * (v3layout::kEntryFixedSize + bitmap_bytes_) +
           v3layout::kEntryFixedSize;
  }

  /// One group's cached bytes: the ready fast path inline, the first touch
  /// (or a sticky failure) through acquire_slot.
  [[nodiscard]] std::span<const std::uint8_t> group_bytes(
      std::vector<BlockSlot>& slots, std::size_t b, bool hot) const {
    const BlockSlot& slot = slots[b];
    if (slot.state.load(std::memory_order_acquire) == kReady) {
      return slot.bytes;
    }
    return acquire_slot(slots, b, hot);
  }

  std::span<const std::uint8_t> acquire_slot(std::vector<BlockSlot>& slots,
                                             std::size_t b, bool hot) const;
  std::span<const std::uint8_t> decode_group_plain(
      std::size_t b, std::uint32_t group, std::vector<std::uint8_t>& owned)
      const;
  void validate_hot(std::size_t b, std::span<const std::uint8_t> hot) const;
  void validate_cold(std::size_t b, std::span<const std::uint8_t> cold) const;

  BinaryHeader header_;
  std::optional<CipherKey> key_;
  std::span<const std::uint8_t> buffer_;  // the whole borrowed container
  std::span<const std::uint8_t> blocks_;  // stored-block region
  std::span<const std::uint8_t> args_;    // nargids * 4 bytes
  std::span<const std::uint8_t> footer_;  // footer region (entries)
  std::vector<std::string_view> strings_;
  std::size_t string_bytes_ = 0;
  std::size_t count_ = 0;
  std::uint32_t nominal_ = 1;  // records per full block
  std::size_t bitmap_bytes_ = 0;
  std::vector<BlockMeta> meta_;
  std::shared_ptr<LazyState> lazy_;
};

}  // namespace iotaxo::trace
