// Per-directory commit record for crash-safe store directories.
//
// Every directory the cold tier spills eras into carries a
// `MANIFEST.iotm` listing exactly the containers that are *committed*:
// written in full, fsync'd, and renamed into place. The manifest itself
// is written with the same tmp + fsync + atomic-rename protocol
// (trace::write_binary_file), and its rename is the commit point — a
// crash anywhere earlier leaves the previous manifest (and therefore the
// previous committed set) intact.
//
// Binary layout (all integers LE):
//   magic     "IOTM1\n"                        6 bytes
//   next_seq  u64    next unused era sequence number
//   nfiles    u32
//   entries   nfiles x:
//     name    u32 len + bytes   file name within the directory
//     size    u64               committed byte size
//     crc     u32               CRC-32 of the full file bytes
//     seq     u64               era sequence number
//   crc       u32    CRC-32 of everything above
//
// Recovery (UnifiedTraceStore::attach_dir, `iotaxo fsck`) trusts the
// manifest over the directory listing: entries that still match their
// recorded size + CRC are served, everything else is quarantined.
#pragma once

#include <cstdint>
#include <optional>
#include <span>
#include <string>
#include <string_view>
#include <vector>

namespace iotaxo::analysis {

inline constexpr std::string_view kManifestFileName = "MANIFEST.iotm";

struct ManifestEntry {
  std::string name;  // file name within the directory, no path components
  std::uint64_t size = 0;
  std::uint32_t crc = 0;  // CRC-32 of the full committed file bytes
  std::uint64_t seq = 0;  // era sequence number
  bool operator==(const ManifestEntry&) const = default;
};

struct StoreManifest {
  /// The next era sequence number a writer may use: max committed seq + 1.
  std::uint64_t next_seq = 0;
  std::vector<ManifestEntry> entries;

  [[nodiscard]] std::vector<std::uint8_t> encode() const;
  /// Throws FormatError on bad magic, truncation or a CRC mismatch.
  [[nodiscard]] static StoreManifest decode(
      std::span<const std::uint8_t> data);

  /// Read `<directory>/MANIFEST.iotm`. nullopt when the file does not
  /// exist; FormatError when it exists but is corrupt.
  [[nodiscard]] static std::optional<StoreManifest> load(
      const std::string& directory);
  /// Durably write `<directory>/MANIFEST.iotm` via write_binary_file
  /// (failpoint prefix "store.manifest").
  void store(const std::string& directory) const;

  [[nodiscard]] const ManifestEntry* find(std::string_view name) const;

  bool operator==(const StoreManifest&) const = default;
};

// Era order of a store directory's container files, shared by recovery
// (UnifiedTraceStore::attach_dir) and `iotaxo fsck` so both walk a
// directory in the order its eras were committed. Attach order is pool
// order, which the DFG's directly-follows edges and hottest_files' fd
// carry-over between pools both depend on.

/// The era sequence number of a "<prefix>-<n>.<ext>" name ("era-7.iotb3"
/// -> 7); nullopt when the stem has no trailing "-<digits>".
[[nodiscard]] std::optional<std::uint64_t> parse_era_seq(
    std::string_view name);

/// Container candidates are the ".iotb*" files; anything else in a store
/// directory (logs, READMEs) is ignored.
[[nodiscard]] bool is_container_name(std::string_view name);

/// Strict weak order for container names: numbered names by sequence
/// number, then unnumbered names last; ties by name.
[[nodiscard]] bool era_order_less(std::string_view a, std::string_view b);

}  // namespace iotaxo::analysis
