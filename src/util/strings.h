// Small string utilities used across the toolkit: splitting, trimming,
// hex encoding, human-friendly byte/duration formatting.
#pragma once

#include <cstdint>
#include <optional>
#include <span>
#include <string>
#include <string_view>
#include <vector>

#include "util/types.h"

namespace iotaxo {

/// Split `s` on `sep`; empty fields are preserved.
[[nodiscard]] std::vector<std::string> split(std::string_view s, char sep);

/// Split on any run of whitespace; empty fields are dropped.
[[nodiscard]] std::vector<std::string> split_ws(std::string_view s);

[[nodiscard]] std::string join(std::span<const std::string> parts,
                               std::string_view sep);

[[nodiscard]] std::string_view trim(std::string_view s) noexcept;

[[nodiscard]] bool starts_with(std::string_view s,
                               std::string_view prefix) noexcept;
[[nodiscard]] bool ends_with(std::string_view s,
                             std::string_view suffix) noexcept;

[[nodiscard]] std::string to_lower(std::string_view s);

/// Shell-style glob match supporting '*' and '?'.
[[nodiscard]] bool glob_match(std::string_view pattern,
                              std::string_view text) noexcept;

[[nodiscard]] std::string hex_encode(std::span<const std::uint8_t> data);
[[nodiscard]] std::vector<std::uint8_t> hex_decode(std::string_view hex);

/// "64 KiB", "8.0 MiB", "100 GiB".
[[nodiscard]] std::string format_bytes(Bytes n);

/// "12.4 ms", "3.2 s", "1 h 02 m".
[[nodiscard]] std::string format_duration(SimTime t);

/// Fixed-precision percentage: format_pct(0.124) == "12.4%".
[[nodiscard]] std::string format_pct(double fraction, int decimals = 1);

/// Decimal form of `v`, the same bytes as strprintf("%lld", v) (and "%d"
/// for an int), without the format-string parse: the capture layers render
/// every fd, offset and size argument through it.
[[nodiscard]] std::string decimal(long long v);

/// The value `s` spells in decimal (an optional '-', then digits, nothing
/// else), or nullopt when it is not one or does not fit a long long. The
/// strict inverse of decimal() for parsers of untrusted text.
[[nodiscard]] std::optional<long long> parse_decimal(std::string_view s) noexcept;

/// printf-style into std::string (type-safe enough for internal use).
[[nodiscard]] std::string strprintf(const char* fmt, ...)
    __attribute__((format(printf, 1, 2)));

}  // namespace iotaxo
