// Binary trace container (the Tracefs output path): IOTB3, a block-
// structured record container with optional checksumming, compression and
// encryption per block — the feature set §4.2 of the paper attributes to
// Tracefs ("Binary, with optional checksumming, compression, encryption, or
// buffering").
//
// Envelope:
//   magic   "IOTB3\n"   6 bytes
//   flags   u8  (bit0 compressed, bit1 encrypted, bit2 checksummed,
//                bit3 column groups: required, always set by the writer)
//   count   u64 LE   number of event records
//   paylen  u64 LE   payload length (everything after this header)
//   payload
//
// Strings are serialized exactly once in an interned table and records are
// fixed-size, referencing the table by id. The record section is split into
// fixed-record-count blocks that are independently compressed, checksummed
// and (flags bit1) encrypted, plus a per-block mini-index, so compressed
// cold storage stays queryable without decoding whole files
// (trace::BlockView touches only the blocks a query's window/name filter
// reaches). Payload layout:
//   head    (never compressed or encrypted)
//     nstrings       u32 LE   string-table size (id 0 = "")
//     strings        nstrings x (u32 len + bytes), in id order
//     nargids        u64 LE   length of the argument-id table
//     argids         nargids x u32 LE, interned ids, all records' args
//     block_records  u32 LE   records per block (> 0; every block except
//                             the last holds exactly this many, so record
//                             i lives in block i / block_records)
//     key_check      u64 LE   ONLY when flags bit1 (encrypted):
//                             xtea_encrypt_block(kKeyCheckPlain, key), so
//                             a wrong key is rejected at open rather than
//                             surfacing as per-block padding corruption
//   blocks  concatenated stored blocks. Each block is two column groups
//           stored back to back: a hot group at the 33-byte hotlayout
//           stride (record_view.h: cls, name, rank, local_start, duration,
//           bytes — everything the windowed / rate / call-stats / DFG
//           scans read), then a cold group at the 48-byte coldlayout
//           stride (args count, ret, node, pid, host-id, path-id, fd,
//           offset, uid, gid). Args slices are contiguous in record order,
//           so a record's args_begin is the running sum of counts.
//           Each group's stored form is lz_compress(plain) when bit0 is
//           set, then cbc_encrypt_with_iv(..., block_iv(b, group)) when
//           bit1 is set (IV derived from the block ordinal + group; not
//           stored). Narrow queries decode only the hot group.
//           Decode contract: a stored group always decodes to exactly
//           records x stride bytes (the footer's record count times the
//           group's stride), and the reader hands that size to the LZ
//           decoder, which writes into one buffer of that size and rejects
//           a stream that would overrun it or end short of it.
//   footer  nblocks fixed entries (offsets in v3layout below):
//             u64 offset       byte offset of the block's hot group in
//                              `blocks` (the cold group follows it)
//             u64 stored_len   stored byte length of the hot group
//             u64 args_begin   running sum of args_count at block start
//             u32 records      record count (== block_records except last)
//             u32 crc          CRC-32 of the hot group's STORED bytes (0
//                              when bit2 off)
//             i64 min_time     min/max local_start over the block
//             i64 max_time
//             u8  flags        bit0 has_fd_path, bit1 has_io_bytes,
//                              bit2 has_io_call (mirrors the store's
//                              PoolIndex, per block)
//             u64 cold_len     the cold group's stored length
//             u32 cold_crc     and CRC (0 when bit2 off)
//             name bitmap      (nstrings + 7) / 8 bytes; bit id is set iff
//                              some record's *name* is string id `id`
//   trailer (24 bytes, last in the payload)
//     footer_len  u64 LE   byte length of the footer region
//     nblocks     u64 LE
//     footer_crc  u32 LE   CRC-32 of the footer region (always present —
//                          the index must be trustworthy before any block
//                          is trusted)
//     magic       u32 LE   v3layout::kFooterMagic
// flags bit2 (checksummed) governs the per-block CRCs; bit1 (encrypted)
// encrypts each stored group AFTER compression, leaving head, footer and
// trailer plaintext so index skips still work without the key.
//
// What encryption protects: the records only. Without the key anyone can
// read every interned string (call names, paths, hosts, argument
// strings), the argument-id table, and each block's record count, time
// range, flag bits and call-name bitmap. The key hides the records
// themselves: their numeric fields and the string ids they refer to.
// Callers that need the names secret encrypt them before encoding
// (anon::EncryptingAnonymizer, which Tracefs::anonymize applies).
//
// Compatibility: IOTB3 with column groups is the only container written or
// read. The older IOTB1 (self-delimiting records) and IOTB2 (one unblocked
// record section under whole-body transforms) magics are still recognised,
// by looks_binary and by peek_binary_header, which rejects them with a
// FormatError naming the version. peek_binary_header likewise rejects an
// IOTB3 container whose flags bit3 is clear (blocks of 81-byte whole
// records, which earlier writers produced unless asked to project), with a
// FormatError naming that layout. Every reader (BlockView,
// decode_binary_batch, the store) therefore refuses them the same way.
//
// Durability / recovery protocol
// ------------------------------
// Containers that must survive a crash (cold-tier eras, the store
// manifest, `--binary-out` files) go through write_binary_file:
//
//   1. the full container is written to `<name>.tmp`
//   2. the tmp file is fsync'd and closed
//   3. `<name>.tmp` is atomically renamed onto `<name>`
//   4. the parent directory is fsync'd so the rename itself is durable
//
// A crash at any step leaves either the old state or the new file —
// never a half-written `<name>` (a torn write can only strand a `.tmp`,
// which recovery deletes). Each step carries a fail::point
// ("<prefix>.write/.fsync/.rename/.dirsync") so the crash-matrix tests
// can kill the protocol at every stage.
//
// Store directories additionally carry a `MANIFEST.iotm`
// (analysis::StoreManifest, written with the same protocol): magic
// "IOTM1\n", the next unused era sequence number, and one entry per
// committed container (file name, byte size, CRC-32 of the full file
// bytes, era seq), sealed by a trailing CRC-32 of everything before it.
// The manifest rename is the commit point for a cold-compaction era:
// recovery (UnifiedTraceStore::attach_dir, `iotaxo fsck`) deletes
// orphaned `.tmp` files, serves exactly the manifest's entries that
// still match their recorded size + CRC and open cleanly, and
// quarantines (reports without serving) everything else — a container
// present on disk but absent from the manifest is an uncommitted
// leftover from a crash between the era rename and the manifest rename.
#pragma once

#include <cstdint>
#include <optional>
#include <span>
#include <string>
#include <string_view>
#include <vector>

#include "trace/event_batch.h"
#include "util/cipher.h"

namespace iotaxo::trace {

/// Size of the container envelope header: magic + flags + count + paylen.
/// The payload starts at this offset and runs to the end of the container.
/// Shared by the codec and trace::BlockView.
inline constexpr std::size_t kContainerHeaderSize = 6 + 1 + 8 + 8;

/// Byte layout of the IOTB3 footer (see the container comment above).
/// Shared by the encoder, trace::BlockView and the corruption tests.
namespace v3layout {
/// Per-block footer entry: fixed fields, then the name-presence bitmap of
/// (nstrings + 7) / 8 bytes. Offsets are within the entry.
inline constexpr std::size_t kEntryOffset = 0;      // u64
inline constexpr std::size_t kEntryStoredLen = 8;   // u64
inline constexpr std::size_t kEntryArgsBegin = 16;  // u64
inline constexpr std::size_t kEntryRecords = 24;    // u32
inline constexpr std::size_t kEntryCrc = 28;        // u32
inline constexpr std::size_t kEntryMinTime = 32;    // i64
inline constexpr std::size_t kEntryMaxTime = 40;    // i64
inline constexpr std::size_t kEntryFlags = 48;      // u8
inline constexpr std::size_t kEntryColdLen = 49;    // u64
inline constexpr std::size_t kEntryColdCrc = 57;    // u32
inline constexpr std::size_t kEntryFixedSize = 61;  // bitmap follows

inline constexpr std::uint8_t kBlockHasFdPath = 0x01;
inline constexpr std::uint8_t kBlockHasIoBytes = 0x02;
inline constexpr std::uint8_t kBlockHasIoCall = 0x04;

/// Trailer: footer_len u64 + nblocks u64 + footer_crc u32 + magic u32.
inline constexpr std::size_t kTrailerSize = 24;
inline constexpr std::uint32_t kFooterMagic = 0x33425846u;  // "FXB3" LE

inline constexpr std::uint32_t kDefaultBlockRecords = 4096;

/// Known plaintext whose XTEA encryption under the container key is stored
/// in the encrypted head (key_check): lets BlockView reject a wrong key at
/// open instead of at first block touch.
inline constexpr std::uint64_t kKeyCheckPlain = 0x33425846'1077B3AAULL;

/// Per-(block, column-group) CBC IV, a pure function of the ordinals
/// (splitmix64 finalizer) — the decoder re-derives it, nothing is stored
/// with the ciphertext. Group 0 is the hot group, group 1 cold.
[[nodiscard]] constexpr std::uint64_t block_iv(std::uint64_t block,
                                               std::uint32_t group) noexcept {
  std::uint64_t x = 0x1077B3C0DEC0FFEEULL ^ (block << 1) ^ group;
  x = (x ^ (x >> 30)) * 0xBF58476D1CE4E5B9ULL;
  x = (x ^ (x >> 27)) * 0x94D049BB133111EBULL;
  return x ^ (x >> 31);
}
}  // namespace v3layout

struct BinaryOptions {
  bool compress = false;
  bool encrypt = false;
  bool checksum = true;
  /// Ignored: every block is stored as a hot + cold column group pair.
  /// Kept so callers written when projection was optional still compile.
  bool project = false;
  /// Required when encrypt is true.
  std::optional<CipherKey> key;
};

/// Serialize a batch to the IOTB3 block container: hot + cold column
/// groups per block, per-group compression, CRC and encryption, plus the
/// footer mini-index. Throws ConfigError when options.encrypt is set
/// without a key or block_records is 0.
[[nodiscard]] std::vector<std::uint8_t> encode_binary_v3(
    const EventBatch& batch, const BinaryOptions& options,
    std::uint32_t block_records = v3layout::kDefaultBlockRecords);

/// Convenience: intern `events` into a batch, then encode as v3.
[[nodiscard]] std::vector<std::uint8_t> encode_binary_v3(
    const std::vector<TraceEvent>& events, const BinaryOptions& options,
    std::uint32_t block_records = v3layout::kDefaultBlockRecords);

/// Parse a container into per-event form; verifies CRCs, decrypts,
/// decompresses. `key` must be supplied for encrypted files. Throws
/// FormatError on any corruption or a wrong key.
[[nodiscard]] std::vector<TraceEvent> decode_binary(
    std::span<const std::uint8_t> data,
    const std::optional<CipherKey>& key = std::nullopt);

/// Parse a container straight into batch form, without rebuilding
/// per-event heap objects: BlockView(data, key).to_batch().
[[nodiscard]] EventBatch decode_binary_batch(
    std::span<const std::uint8_t> data,
    const std::optional<CipherKey>& key = std::nullopt);

/// Durably write `bytes` to `path` via the tmp + fsync + atomic-rename +
/// directory-fsync protocol documented above. `point_prefix` names the
/// fail::point sites ("<prefix>.write", ".fsync", ".rename", ".dirsync")
/// so distinct write phases (era spill vs manifest) get distinct
/// failpoints. Throws IoError on any failure; a torn `<path>.tmp` may be
/// left behind for recovery to delete, but `path` itself is never
/// half-written.
void write_binary_file(const std::string& path,
                       std::span<const std::uint8_t> bytes,
                       std::string_view point_prefix = "binary.file");

/// Inspect a container's flags without decoding the payload.
struct BinaryHeader {
  bool compressed = false;
  bool encrypted = false;
  bool checksummed = false;
  std::uint64_t count = 0;
  std::uint64_t payload_length = 0;
};
/// Throws FormatError on a short buffer, an unknown magic or an unknown
/// flag bit, on IOTB1/IOTB2 containers (the message names the version) and
/// on IOTB3 containers without column groups (the message names the
/// whole-record layout).
[[nodiscard]] BinaryHeader peek_binary_header(
    std::span<const std::uint8_t> data);

/// Heuristic used by the taxonomy classifier to label a framework's output
/// format: true if the buffer starts with any of the binary magics.
[[nodiscard]] bool looks_binary(std::span<const std::uint8_t> data) noexcept;

}  // namespace iotaxo::trace
