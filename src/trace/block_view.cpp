#include "trace/block_view.h"

#include <algorithm>
#include <cstring>

#include "trace/scan_kernels.h"
#include "util/compress.h"
#include "util/crc32.h"
#include "util/error.h"
#include "util/metrics.h"
#include "util/strings.h"
#include "util/thread_pool.h"

namespace iotaxo::trace {

namespace {

/// Handles bound once; every record call is one relaxed load when metrics
/// are disarmed (util/metrics.h). `stored_bytes` is bumped exactly where
/// LazyState::decoded_stored is, so the metric total cross-checks
/// pool_infos() decoded accounting bit-for-bit.
struct DecodeMetrics {
  obs::Histogram& crc_ns = obs::histogram("block.decode.crc_ns");
  obs::Histogram& decrypt_ns = obs::histogram("block.decode.decrypt_ns");
  obs::Histogram& decompress_ns = obs::histogram("block.decode.decompress_ns");
  obs::Counter& stored_bytes = obs::counter("block.decode.stored_bytes");
  obs::Counter& full_blocks = obs::counter("block.decode.full_blocks");
  obs::Counter& hot_blocks = obs::counter("block.decode.hot_blocks");
  obs::Counter& failures = obs::counter("block.decode.failures");
  obs::Counter& waits = obs::counter("block.decode.contention_waits");
};

DecodeMetrics& metrics() {
  static DecodeMetrics m;
  return m;
}

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

/// PKCS#7-padded length of an x-byte plaintext (always 1..8 pad bytes).
[[nodiscard]] constexpr std::uint64_t padded_len(std::uint64_t x) noexcept {
  return x + (8 - x % 8);
}

}  // namespace

BlockView::BlockView(std::span<const std::uint8_t> data,
                     std::optional<CipherKey> key)
    : key_(std::move(key)), buffer_(data) {
  // Validates magic + header bounds and rejects IOTB1/IOTB2 by name.
  header_ = peek_binary_header(data);
  if (header_.encrypted && !key_.has_value()) {
    throw FormatError("binary trace v3: encrypted container requires a key");
  }
  // v3 carries no trailing file CRC — the payload is everything after the
  // envelope header. Subtract-and-compare so a hostile payload_length near
  // 2^64 cannot wrap into a passing equality.
  const std::size_t avail = data.size() - kContainerHeaderSize;  // header ok
  if (header_.payload_length != avail) {
    throw FormatError("binary trace: length mismatch");
  }
  const std::span<const std::uint8_t> body = data.subspan(
      kContainerHeaderSize, static_cast<std::size_t>(header_.payload_length));

  // --- head: string table + argument-id table + block_records ------------
  std::size_t pos = 0;
  const auto need = [&](std::size_t n) {
    if (n > body.size() || pos > body.size() - n) {
      throw FormatError("binary trace: truncated record");
    }
  };
  need(4);
  const std::uint32_t nstrings = load_u32(body.data() + pos);
  pos += 4;
  if (nstrings == 0) {
    throw FormatError("binary trace v3: empty string table");
  }
  if (nstrings > body.size() / 4) {
    throw FormatError("binary trace v3: string table exceeds payload");
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
    throw FormatError("binary trace v3: string id 0 must be empty");
  }
  if (!all_distinct(strings_)) {
    throw FormatError("binary trace v3: string table is not interned");
  }

  need(8);
  const std::uint64_t nargids = load_u64(body.data() + pos);
  pos += 8;
  if (nargids > (body.size() - pos) / 4) {
    throw FormatError("binary trace v3: arg-id table exceeds payload");
  }
  // args_begin travels through the accessor seam (and materialize) as
  // u32; cap the table so those casts can never wrap.
  if (nargids > UINT32_MAX) {
    throw FormatError("binary trace v3: arg-id table exceeds 2^32 entries");
  }
  args_ = body.subspan(pos, static_cast<std::size_t>(nargids) * 4);
  pos += args_.size();
  if (nargids > 0) {
    const std::uint32_t max_arg_id = scan::max_u32_le(
        args_.data(), static_cast<std::size_t>(nargids));
    if (max_arg_id >= nstrings) {
      throw FormatError(strprintf(
          "binary trace v3: arg string id %u out of range", max_arg_id));
    }
  }

  need(4);
  nominal_ = load_u32(body.data() + pos);
  pos += 4;
  count_ = static_cast<std::size_t>(header_.count);
  if (count_ > 0 && nominal_ == 0) {
    throw FormatError("binary trace v3: block_records must be positive");
  }
  if (nominal_ == 0) {
    nominal_ = 1;  // keep block_of well-defined on empty containers
  }
  if (header_.encrypted) {
    // The head's key check is the known constant encrypted under the
    // container key: reject a wrong key here, at open, instead of letting
    // it surface later as per-block "padding corrupt" decode failures.
    need(8);
    const std::uint64_t key_check = load_u64(body.data() + pos);
    pos += 8;
    if (key_check != xtea_encrypt_block(v3layout::kKeyCheckPlain, *key_)) {
      throw FormatError("binary trace v3: wrong key");
    }
  }

  // --- trailer + footer ---------------------------------------------------
  if (body.size() - pos < v3layout::kTrailerSize) {
    throw FormatError("binary trace v3: truncated footer");
  }
  const std::uint8_t* trailer =
      body.data() + body.size() - v3layout::kTrailerSize;
  const std::uint64_t footer_len = load_u64(trailer);
  const std::uint64_t nblocks = load_u64(trailer + 8);
  const std::uint32_t footer_crc = load_u32(trailer + 16);
  const std::uint32_t footer_magic = load_u32(trailer + 20);
  if (footer_magic != v3layout::kFooterMagic) {
    throw FormatError("binary trace v3: bad footer magic");
  }
  const std::size_t tail_room = body.size() - pos - v3layout::kTrailerSize;
  if (footer_len > tail_room) {
    throw FormatError("binary trace v3: truncated footer");
  }
  footer_ = body.subspan(body.size() - v3layout::kTrailerSize -
                             static_cast<std::size_t>(footer_len),
                         static_cast<std::size_t>(footer_len));
  // The footer CRC is always verified — skip decisions are made on the
  // index before any block is decoded, so it must be trustworthy first.
  if (crc32(footer_) != footer_crc) {
    throw FormatError("binary trace v3: footer checksum mismatch");
  }
  bitmap_bytes_ = (static_cast<std::size_t>(nstrings) + 7) / 8;
  entry_fixed_ = v3layout::kEntryFixedSize +
                 (header_.projected ? v3layout::kEntryProjectedExtra : 0);
  const std::size_t entry_size = entry_fixed_ + bitmap_bytes_;
  // An overstated (or understated) block count cannot pass: the footer
  // must hold exactly nblocks entries, and nblocks must match the record
  // count the envelope declared.
  if (nblocks > footer_.size() / entry_size ||
      footer_.size() != nblocks * entry_size) {
    throw FormatError("binary trace v3: footer size does not match block "
                      "count");
  }
  const std::uint64_t expected_blocks =
      count_ == 0 ? 0 : (count_ + nominal_ - 1) / nominal_;
  if (nblocks != expected_blocks) {
    throw FormatError("binary trace v3: block count does not match record "
                      "count");
  }
  blocks_ = body.subspan(pos, tail_room - static_cast<std::size_t>(footer_len));

  meta_.reserve(static_cast<std::size_t>(nblocks));
  std::uint64_t running_offset = 0;
  std::uint64_t prev_args_begin = 0;
  for (std::uint64_t b = 0; b < nblocks; ++b) {
    const std::uint8_t* e = footer_.data() + b * entry_size;
    BlockMeta m;
    m.offset = load_u64(e + v3layout::kEntryOffset);
    m.stored_len = load_u64(e + v3layout::kEntryStoredLen);
    m.args_begin = load_u64(e + v3layout::kEntryArgsBegin);
    m.records = load_u32(e + v3layout::kEntryRecords);
    m.crc = load_u32(e + v3layout::kEntryCrc);
    m.min_time = static_cast<SimTime>(load_u64(e + v3layout::kEntryMinTime));
    m.max_time = static_cast<SimTime>(load_u64(e + v3layout::kEntryMaxTime));
    m.flags = e[v3layout::kEntryFlags];
    if (header_.projected) {
      m.cold_len = load_u64(e + v3layout::kEntryColdLen);
      m.cold_crc = load_u32(e + v3layout::kEntryColdCrc);
    }
    // Stored groups are contiguous and exactly fill the block region.
    if (m.offset != running_offset ||
        m.stored_len > blocks_.size() - running_offset) {
      throw FormatError("binary trace v3: block table exceeds payload");
    }
    running_offset += m.stored_len;
    if (m.cold_len > blocks_.size() - running_offset) {
      throw FormatError("binary trace v3: block table exceeds payload");
    }
    running_offset += m.cold_len;
    const bool last = b + 1 == nblocks;
    const std::uint64_t expect_records =
        last ? count_ - (nblocks - 1) * nominal_ : nominal_;
    if (m.records != expect_records) {
      throw FormatError("binary trace v3: block record count mismatch");
    }
    // Exact stored-size cross-checks where the transform chain admits
    // them: plain groups are records * stride; encrypted-uncompressed
    // groups are that plus PKCS#7 padding. (Compressed lengths are only
    // bounded, not predicted.)
    const std::uint64_t hot_plain =
        static_cast<std::uint64_t>(m.records) *
        (header_.projected ? hotlayout::kStride : v2layout::kStride);
    const std::uint64_t cold_plain =
        header_.projected
            ? static_cast<std::uint64_t>(m.records) * coldlayout::kStride
            : 0;
    if (!header_.compressed) {
      const std::uint64_t expect_hot =
          header_.encrypted ? padded_len(hot_plain) : hot_plain;
      const std::uint64_t expect_cold =
          header_.projected
              ? (header_.encrypted ? padded_len(cold_plain) : cold_plain)
              : 0;
      if (m.stored_len != expect_hot || m.cold_len != expect_cold) {
        throw FormatError("binary trace v3: block size mismatch");
      }
    } else if (header_.encrypted &&
               (m.stored_len % 8 != 0 || m.stored_len == 0 ||
                (header_.projected &&
                 (m.cold_len % 8 != 0 || m.cold_len == 0)))) {
      throw FormatError("binary trace v3: block size mismatch");
    }
    if (m.args_begin > nargids ||
        (b > 0 && m.args_begin < prev_args_begin) ||
        (b == 0 && m.args_begin != 0)) {
      throw FormatError("binary trace v3: record args out of range");
    }
    prev_args_begin = m.args_begin;
    meta_.push_back(m);
  }
  if (running_offset != blocks_.size()) {
    throw FormatError("binary trace: trailing bytes after records");
  }

  lazy_ = std::make_shared<LazyState>(meta_.size(), header_.projected);
}

std::span<const std::uint8_t> BlockView::decode_group_plain(
    std::size_t b, std::uint32_t group,
    std::vector<std::uint8_t>& owned) const {
  const BlockMeta& m = meta_[b];
  const std::uint64_t off = group == 0 ? m.offset : m.offset + m.stored_len;
  const std::uint64_t len = group == 0 ? m.stored_len : m.cold_len;
  const std::uint32_t crc_expect = group == 0 ? m.crc : m.cold_crc;
  const std::span<const std::uint8_t> stored =
      blocks_.subspan(static_cast<std::size_t>(off),
                      static_cast<std::size_t>(len));
  // CRC over the STORED bytes — the ciphertext when encrypted — before
  // any decryption or decompression touches them.
  if (header_.checksummed) {
    const obs::ScopedTimer timer(metrics().crc_ns);
    if (crc32(stored) != crc_expect) {
      throw FormatError(
          strprintf("binary trace v3: block %zu checksum mismatch", b));
    }
  }
  std::span<const std::uint8_t> plain = stored;
  if (header_.encrypted) {
    const obs::ScopedTimer timer(metrics().decrypt_ns);
    try {
      owned = cbc_decrypt_with_iv(stored, *key_, v3layout::block_iv(b, group));
    } catch (const Error&) {
      throw FormatError(
          strprintf("binary trace v3: block %zu ciphertext is corrupt", b));
    }
    plain = owned;
  }
  const std::size_t stride =
      !header_.projected ? v2layout::kStride
                         : (group == 0 ? hotlayout::kStride
                                       : coldlayout::kStride);
  const std::size_t plain_size = static_cast<std::size_t>(m.records) * stride;
  if (header_.compressed) {
    const obs::ScopedTimer timer(metrics().decompress_ns);
    try {
      owned = lz_decompress(plain, plain_size);
    } catch (const Error&) {
      throw FormatError(strprintf("binary trace v3: block %zu is corrupt", b));
    }
    plain = owned;
  }
  if (plain.size() != plain_size) {
    throw FormatError(
        strprintf("binary trace v3: block %zu size mismatch", b));
  }
  lazy_->decoded_stored.fetch_add(len, std::memory_order_relaxed);
  metrics().stored_bytes.add(len);
  return plain;
}

void BlockView::validate_full(std::size_t b,
                              std::span<const std::uint8_t> plain) const {
  // Structural validation + index cross-check: the records must agree with
  // everything the footer claimed about this block, or the mini-index was
  // lying and skip decisions made on it were unsound.
  const BlockMeta& m = meta_[b];
  const std::size_t n = m.records;
  const std::uint32_t nstrings = static_cast<std::uint32_t>(strings_.size());
  std::uint64_t args_sum = 0;
  std::vector<std::uint8_t> bitmap(bitmap_bytes_, 0);
  std::uint8_t flags = 0;
  for (std::size_t r = 0; r < n; ++r) {
    const RecordView rec(plain.data() + r * v2layout::kStride);
    if (static_cast<std::uint8_t>(rec.cls()) >
        static_cast<std::uint8_t>(EventClass::kAnnotation)) {
      throw FormatError(strprintf("binary trace v3: block %zu is corrupt", b));
    }
    const StrId name = rec.name();
    if (name >= nstrings || rec.host() >= nstrings || rec.path() >= nstrings) {
      throw FormatError(strprintf("binary trace v3: block %zu is corrupt", b));
    }
    args_sum += rec.args_count();
    bitmap[name >> 3] |= static_cast<std::uint8_t>(1u << (name & 7u));
    if (rec.path() != 0 && rec.fd() >= 0) {
      flags |= v3layout::kBlockHasFdPath;
    }
    if (rec.is_io_call()) {
      flags |= v3layout::kBlockHasIoCall;
      if (rec.bytes() > 0) {
        flags |= v3layout::kBlockHasIoBytes;
      }
    }
  }
  SimTime lo = 0;
  SimTime hi = 0;
  if (n > 0) {
    scan::minmax_stamps(plain.data(), n, &lo, &hi);
  }
  const std::uint64_t args_end = b + 1 < meta_.size()
                                     ? meta_[b + 1].args_begin
                                     : static_cast<std::uint64_t>(
                                           arg_id_count());
  const bool index_ok =
      m.args_begin + args_sum == args_end && lo == m.min_time &&
      hi == m.max_time && flags == m.flags &&
      std::equal(bitmap.begin(), bitmap.end(), bitmap_of(b));
  if (!index_ok) {
    throw FormatError(
        strprintf("binary trace v3: block %zu disagrees with its index", b));
  }
}

void BlockView::validate_hot(std::size_t b,
                             std::span<const std::uint8_t> hot) const {
  // The hot-group subset of validate_full: everything checkable without
  // the cold fields. args_sum and has_fd_path live in the cold group, so
  // those footer claims are cross-checked only by a full-record decode.
  const BlockMeta& m = meta_[b];
  const std::size_t n = m.records;
  const std::uint32_t nstrings = static_cast<std::uint32_t>(strings_.size());
  std::vector<std::uint8_t> bitmap(bitmap_bytes_, 0);
  std::uint8_t flags = 0;
  for (std::size_t r = 0; r < n; ++r) {
    const HotRecordView rec(hot.data() + r * hotlayout::kStride);
    if (static_cast<std::uint8_t>(rec.cls()) >
        static_cast<std::uint8_t>(EventClass::kAnnotation)) {
      throw FormatError(strprintf("binary trace v3: block %zu is corrupt", b));
    }
    const StrId name = rec.name();
    if (name >= nstrings) {
      throw FormatError(strprintf("binary trace v3: block %zu is corrupt", b));
    }
    bitmap[name >> 3] |= static_cast<std::uint8_t>(1u << (name & 7u));
    if (rec.is_io_call()) {
      flags |= v3layout::kBlockHasIoCall;
      if (rec.bytes() > 0) {
        flags |= v3layout::kBlockHasIoBytes;
      }
    }
  }
  SimTime lo = 0;
  SimTime hi = 0;
  if (n > 0) {
    scan::minmax_stamps_hot(hot.data(), n, &lo, &hi);
  }
  constexpr std::uint8_t kHotFlags =
      v3layout::kBlockHasIoCall | v3layout::kBlockHasIoBytes;
  const bool index_ok =
      lo == m.min_time && hi == m.max_time &&
      (flags & kHotFlags) == (m.flags & kHotFlags) &&
      std::equal(bitmap.begin(), bitmap.end(), bitmap_of(b));
  if (!index_ok) {
    throw FormatError(
        strprintf("binary trace v3: block %zu disagrees with its index", b));
  }
}

std::span<const std::uint8_t> BlockView::decode_full_plain(
    std::size_t b, std::vector<std::uint8_t>& owned) const {
  if (!header_.projected) {
    const std::span<const std::uint8_t> plain =
        decode_group_plain(b, 0, owned);
    validate_full(b, plain);
    return plain;
  }
  // Projected: stitch the hot group (cached + validated via its own slot,
  // so a hot failure is sticky in both caches with identical text) and
  // the cold group back into the full 81-byte stride, then run the full
  // cross-check on the stitched records.
  const std::span<const std::uint8_t> hot = hot_bytes(b);
  std::vector<std::uint8_t> cold_owned;
  const std::span<const std::uint8_t> cold =
      decode_group_plain(b, 1, cold_owned);
  const std::size_t n = meta_[b].records;
  owned.resize(n * v2layout::kStride);
  for (std::size_t r = 0; r < n; ++r) {
    const std::uint8_t* h = hot.data() + r * hotlayout::kStride;
    const std::uint8_t* c = cold.data() + r * coldlayout::kStride;
    std::uint8_t* f = owned.data() + r * v2layout::kStride;
    f[v2layout::kCls] = h[hotlayout::kCls];
    std::memcpy(f + v2layout::kName, h + hotlayout::kName, 4);
    std::memcpy(f + v2layout::kArgsCount, c + coldlayout::kArgsCount, 4);
    std::memcpy(f + v2layout::kRet, c + coldlayout::kRet, 8);
    std::memcpy(f + v2layout::kLocalStart, h + hotlayout::kLocalStart, 8);
    std::memcpy(f + v2layout::kDuration, h + hotlayout::kDuration, 8);
    std::memcpy(f + v2layout::kRank, h + hotlayout::kRank, 4);
    std::memcpy(f + v2layout::kNode, c + coldlayout::kNode, 4);
    std::memcpy(f + v2layout::kPid, c + coldlayout::kPid, 4);
    std::memcpy(f + v2layout::kHost, c + coldlayout::kHost, 4);
    std::memcpy(f + v2layout::kPath, c + coldlayout::kPath, 4);
    std::memcpy(f + v2layout::kFd, c + coldlayout::kFd, 4);
    std::memcpy(f + v2layout::kBytes, h + hotlayout::kBytes, 8);
    std::memcpy(f + v2layout::kOffset, c + coldlayout::kOffset, 8);
    std::memcpy(f + v2layout::kUid, c + coldlayout::kUid, 4);
    std::memcpy(f + v2layout::kGid, c + coldlayout::kGid, 4);
  }
  validate_full(b, owned);
  return owned;
}

std::span<const std::uint8_t> BlockView::acquire_slot(
    std::vector<BlockSlot>& slots, std::size_t b, bool hot) const {
  BlockSlot& slot = slots[b];
  LazyState& lz = *lazy_;
  const std::size_t stripe = b % LazyState::kStripes;
  const auto publish = [&](int state) {
    {
      // Flip the state under the stripe mutex so a waiter checking its
      // predicate cannot miss the transition between check and sleep.
      const std::lock_guard<std::mutex> lk(lz.stripe_m[stripe]);
      slot.state.store(state, std::memory_order_release);
    }
    lz.stripe_cv[stripe].notify_all();
  };
  for (;;) {
    const int s = slot.state.load(std::memory_order_acquire);
    if (s == kReady) {
      return slot.bytes;
    }
    if (s == kFailed) {
      throw FormatError(slot.error);
    }
    if (s == kUntouched) {
      int expected = kUntouched;
      if (slot.state.compare_exchange_strong(expected, kDecoding,
                                             std::memory_order_acq_rel)) {
        // This thread won the decode; it runs outside any lock so other
        // blocks decode concurrently on other threads.
        try {
          std::vector<std::uint8_t> owned;
          const std::span<const std::uint8_t> plain =
              hot ? [&] {
                const std::span<const std::uint8_t> p =
                    decode_group_plain(b, 0, owned);
                validate_hot(b, p);
                return p;
              }()
                  : decode_full_plain(b, owned);
          // Moving the vector never relocates its heap buffer, so spans
          // into `owned` stay valid across the move.
          slot.owned = std::move(owned);
          slot.bytes = plain;
          // First-touch decode win: a hot-slot claim is a hot-group-only
          // decode; a full-slot claim decoded (or stitched) whole records.
          (hot ? metrics().hot_blocks : metrics().full_blocks).add(1);
          publish(kReady);
          return slot.bytes;
        } catch (const Error& err) {
          metrics().failures.add(1);
          slot.error = err.what();
          publish(kFailed);
          throw FormatError(slot.error);
        }
      }
      continue;  // lost the claim race; re-read the winner's state
    }
    // kDecoding: park until the winner publishes ready or failed.
    metrics().waits.add(1);
    std::unique_lock<std::mutex> lk(lz.stripe_m[stripe]);
    lz.stripe_cv[stripe].wait(lk, [&] {
      return slot.state.load(std::memory_order_acquire) != kDecoding;
    });
  }
}

std::span<const std::uint8_t> BlockView::decode_block_slow(
    std::size_t b) const {
  return acquire_slot(lazy_->full, b, /*hot=*/false);
}

std::span<const std::uint8_t> BlockView::hot_bytes(std::size_t b) const {
  if (!header_.projected) {
    throw ConfigError("block view: hot_bytes requires a projected container");
  }
  BlockSlot& slot = lazy_->hot[b];
  if (slot.state.load(std::memory_order_acquire) == kReady) {
    return slot.bytes;
  }
  return acquire_slot(lazy_->hot, b, /*hot=*/true);
}

void BlockView::decode_blocks(const std::vector<std::size_t>& blocks,
                              std::size_t threads, bool hot_only) const {
  if (blocks.size() <= 1 || threads <= 1) {
    return;  // the caller's serial pass decodes (and throws) in order
  }
  const bool hot = hot_only && header_.projected;
  parallel_for(
      blocks.size(),
      [&](std::size_t i) {
        try {
          if (hot) {
            (void)hot_bytes(blocks[i]);
          } else {
            (void)block_bytes(blocks[i]);
          }
        } catch (const Error&) {
          // Recorded sticky in the slot; the serial scan that follows
          // rethrows it deterministically on first touch.
        }
      },
      std::min(threads, blocks.size()));
}

std::string_view BlockView::string(StrId id) const {
  if (id >= strings_.size()) {
    throw FormatError(strprintf("string pool: id %u out of range (size %zu)",
                                id, strings_.size()));
  }
  return strings_[id];
}

std::optional<StrId> BlockView::find_string(std::string_view s) const
    noexcept {
  for (std::size_t id = 0; id < strings_.size(); ++id) {
    if (strings_[id] == s) {
      return static_cast<StrId>(id);
    }
  }
  return std::nullopt;
}

StrId BlockView::arg_id(std::size_t j) const {
  if (j >= arg_id_count()) {
    throw FormatError(
        strprintf("binary trace v3: arg index %zu out of range", j));
  }
  return load_u32(args_.data() + j * 4);
}

TraceEvent BlockView::materialize(std::size_t i,
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

EventBatch BlockView::to_batch() const {
  EventBatch batch;
  StringPool& pool = batch.pool();
  pool.reserve(strings_.size());
  for (const std::string_view s : strings_) {
    pool.intern(s);
  }
  const std::size_t nargids = arg_id_count();
  std::vector<StrId> arg_ids;
  arg_ids.reserve(nargids);
  for (std::size_t j = 0; j < nargids; ++j) {
    arg_ids.push_back(load_u32(args_.data() + j * 4));
  }
  batch.reserve(count_, nargids);
  for_each([&](std::size_t /*i*/, const RecordView& rec,
               std::uint32_t args_begin) {
    batch.append_raw(rec.to_record(),
                     std::span<const StrId>(arg_ids).subspan(
                         args_begin, rec.args_count()));
  });
  return batch;
}

}  // namespace iotaxo::trace
