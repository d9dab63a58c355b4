#include "util/strings.h"

#include <cctype>
#include <charconv>
#include <cstdarg>
#include <cstdio>

#include "util/error.h"

namespace iotaxo {

std::vector<std::string> split(std::string_view s, char sep) {
  std::vector<std::string> out;
  std::size_t start = 0;
  for (std::size_t i = 0; i <= s.size(); ++i) {
    if (i == s.size() || s[i] == sep) {
      out.emplace_back(s.substr(start, i - start));
      start = i + 1;
    }
  }
  return out;
}

std::vector<std::string> split_ws(std::string_view s) {
  std::vector<std::string> out;
  std::size_t i = 0;
  while (i < s.size()) {
    while (i < s.size() && std::isspace(static_cast<unsigned char>(s[i]))) {
      ++i;
    }
    const std::size_t start = i;
    while (i < s.size() && !std::isspace(static_cast<unsigned char>(s[i]))) {
      ++i;
    }
    if (i > start) {
      out.emplace_back(s.substr(start, i - start));
    }
  }
  return out;
}

std::string join(std::span<const std::string> parts, std::string_view sep) {
  std::string out;
  for (std::size_t i = 0; i < parts.size(); ++i) {
    if (i != 0) {
      out += sep;
    }
    out += parts[i];
  }
  return out;
}

std::string_view trim(std::string_view s) noexcept {
  std::size_t b = 0;
  std::size_t e = s.size();
  while (b < e && std::isspace(static_cast<unsigned char>(s[b]))) {
    ++b;
  }
  while (e > b && std::isspace(static_cast<unsigned char>(s[e - 1]))) {
    --e;
  }
  return s.substr(b, e - b);
}

bool starts_with(std::string_view s, std::string_view prefix) noexcept {
  return s.size() >= prefix.size() && s.substr(0, prefix.size()) == prefix;
}

bool ends_with(std::string_view s, std::string_view suffix) noexcept {
  return s.size() >= suffix.size() &&
         s.substr(s.size() - suffix.size()) == suffix;
}

std::string to_lower(std::string_view s) {
  std::string out(s);
  for (char& c : out) {
    c = static_cast<char>(std::tolower(static_cast<unsigned char>(c)));
  }
  return out;
}

bool glob_match(std::string_view pattern, std::string_view text) noexcept {
  // Iterative two-pointer algorithm with backtracking for '*'.
  std::size_t p = 0;
  std::size_t t = 0;
  std::size_t star = std::string_view::npos;
  std::size_t match = 0;
  while (t < text.size()) {
    if (p < pattern.size() &&
        (pattern[p] == '?' || pattern[p] == text[t])) {
      ++p;
      ++t;
    } else if (p < pattern.size() && pattern[p] == '*') {
      star = p++;
      match = t;
    } else if (star != std::string_view::npos) {
      p = star + 1;
      t = ++match;
    } else {
      return false;
    }
  }
  while (p < pattern.size() && pattern[p] == '*') {
    ++p;
  }
  return p == pattern.size();
}

std::string hex_encode(std::span<const std::uint8_t> data) {
  static constexpr char kDigits[] = "0123456789abcdef";
  std::string out;
  out.reserve(data.size() * 2);
  for (const std::uint8_t b : data) {
    out.push_back(kDigits[b >> 4]);
    out.push_back(kDigits[b & 0xF]);
  }
  return out;
}

std::vector<std::uint8_t> hex_decode(std::string_view hex) {
  if (hex.size() % 2 != 0) {
    throw FormatError("hex string has odd length");
  }
  auto nibble = [](char c) -> std::uint8_t {
    if (c >= '0' && c <= '9') return static_cast<std::uint8_t>(c - '0');
    if (c >= 'a' && c <= 'f') return static_cast<std::uint8_t>(c - 'a' + 10);
    if (c >= 'A' && c <= 'F') return static_cast<std::uint8_t>(c - 'A' + 10);
    throw FormatError("invalid hex digit");
  };
  std::vector<std::uint8_t> out;
  out.reserve(hex.size() / 2);
  for (std::size_t i = 0; i < hex.size(); i += 2) {
    out.push_back(static_cast<std::uint8_t>((nibble(hex[i]) << 4) |
                                            nibble(hex[i + 1])));
  }
  return out;
}

std::string format_bytes(Bytes n) {
  const char* units[] = {"B", "KiB", "MiB", "GiB", "TiB"};
  double v = static_cast<double>(n);
  int u = 0;
  while (v >= 1024.0 && u < 4) {
    v /= 1024.0;
    ++u;
  }
  if (u == 0) {
    return strprintf("%lld B", static_cast<long long>(n));
  }
  return strprintf("%.1f %s", v, units[u]);
}

std::string format_duration(SimTime t) {
  const double s = to_seconds(t);
  if (s < 1e-6) {
    return strprintf("%.0f ns", s * 1e9);
  }
  if (s < 1e-3) {
    return strprintf("%.1f us", s * 1e6);
  }
  if (s < 1.0) {
    return strprintf("%.1f ms", s * 1e3);
  }
  if (s < 120.0) {
    return strprintf("%.2f s", s);
  }
  const auto total_minutes = static_cast<long long>(s / 60.0);
  const double rem = s - static_cast<double>(total_minutes) * 60.0;
  return strprintf("%lld m %04.1f s", total_minutes, rem);
}

std::string format_pct(double fraction, int decimals) {
  return strprintf("%.*f%%", decimals, fraction * 100.0);
}

std::string decimal(long long v) {
  char buf[24];  // 19 digits of INT64_MIN, its sign, spare
  const auto res = std::to_chars(buf, buf + sizeof buf, v);
  return std::string(buf, res.ptr);
}

std::optional<long long> parse_decimal(std::string_view s) noexcept {
  long long v = 0;
  const char* end = s.data() + s.size();
  const auto res = std::from_chars(s.data(), end, v);
  if (s.empty() || res.ec != std::errc{} || res.ptr != end) {
    return std::nullopt;
  }
  return v;
}

std::string strprintf(const char* fmt, ...) {
  std::va_list args;
  va_start(args, fmt);
  std::va_list args_copy;
  va_copy(args_copy, args);
  const int needed = std::vsnprintf(nullptr, 0, fmt, args);
  va_end(args);
  std::string out;
  if (needed > 0) {
    out.resize(static_cast<std::size_t>(needed) + 1);
    std::vsnprintf(out.data(), out.size(), fmt, args_copy);
    out.resize(static_cast<std::size_t>(needed));
  }
  va_end(args_copy);
  return out;
}

}  // namespace iotaxo
