// Byte-oriented compression for binary trace output (Tracefs offers optional
// compression of its binary traces; we implement an LZ77-family codec from
// scratch since no external compression library is assumed).
//
// Format: a stream of ops. Each op starts with a control byte:
//   0x00..0x7F  -> literal run of (ctrl + 1) bytes following verbatim
//   0x80..0xFF  -> match: length = (ctrl & 0x7F) + kMinMatch,
//                  followed by a 2-byte little-endian backward distance.
#pragma once

#include <cstdint>
#include <span>
#include <vector>

namespace iotaxo {

/// Compress `input`. Worst case output is input.size() + input.size()/128 + 16.
[[nodiscard]] std::vector<std::uint8_t> lz_compress(
    std::span<const std::uint8_t> input);

/// Decompress a buffer produced by lz_compress that must decode to exactly
/// `size` bytes (the caller knows the plain size; the IOTB3 footer records
/// it per block). The output is allocated once; corrupt input, or a stream
/// that would write past `size` or ends short of it, throws FormatError
/// (the overrun before any byte is written past `size`).
[[nodiscard]] std::vector<std::uint8_t> lz_decompress(
    std::span<const std::uint8_t> input, std::size_t size);

}  // namespace iotaxo
