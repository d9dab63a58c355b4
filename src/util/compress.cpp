#include "util/compress.h"

#include <algorithm>
#include <array>
#include <cstring>

#include "util/error.h"

namespace iotaxo {

namespace {

constexpr std::size_t kMinMatch = 4;
constexpr std::size_t kMaxMatch = 0x7F + kMinMatch;
constexpr std::size_t kWindow = 0xFFFF;
constexpr std::size_t kHashBits = 15;

[[nodiscard]] std::uint32_t hash4(const std::uint8_t* p) noexcept {
  std::uint32_t v;
  std::memcpy(&v, p, 4);
  return (v * 2654435761u) >> (32 - kHashBits);
}

}  // namespace

std::vector<std::uint8_t> lz_compress(std::span<const std::uint8_t> input) {
  std::vector<std::uint8_t> out;
  out.reserve(input.size() / 2 + 16);

  std::array<std::size_t, 1u << kHashBits> head{};
  head.fill(SIZE_MAX);

  std::size_t literal_start = 0;
  auto flush_literals = [&](std::size_t end) {
    std::size_t n = end - literal_start;
    while (n > 0) {
      const std::size_t chunk = n > 128 ? 128 : n;
      out.push_back(static_cast<std::uint8_t>(chunk - 1));
      out.insert(out.end(), input.begin() + static_cast<std::ptrdiff_t>(end - n),
                 input.begin() + static_cast<std::ptrdiff_t>(end - n + chunk));
      n -= chunk;
    }
  };

  std::size_t i = 0;
  while (i + kMinMatch <= input.size()) {
    const std::uint32_t h = hash4(&input[i]);
    const std::size_t candidate = head[h];
    head[h] = i;

    std::size_t match_len = 0;
    if (candidate != SIZE_MAX && i - candidate <= kWindow &&
        std::memcmp(&input[candidate], &input[i], kMinMatch) == 0) {
      match_len = kMinMatch;
      const std::size_t limit =
          std::min(kMaxMatch, input.size() - i);
      while (match_len < limit &&
             input[candidate + match_len] == input[i + match_len]) {
        ++match_len;
      }
    }

    if (match_len >= kMinMatch) {
      flush_literals(i);
      const auto dist = static_cast<std::uint16_t>(i - candidate);
      out.push_back(static_cast<std::uint8_t>(
          0x80u | static_cast<std::uint8_t>(match_len - kMinMatch)));
      out.push_back(static_cast<std::uint8_t>(dist & 0xFF));
      out.push_back(static_cast<std::uint8_t>(dist >> 8));
      // Insert hash entries inside the match for better future matches.
      const std::size_t stop = std::min(i + match_len, input.size() - kMinMatch);
      for (std::size_t j = i + 1; j < stop; ++j) {
        head[hash4(&input[j])] = j;
      }
      i += match_len;
      literal_start = i;
    } else {
      ++i;
    }
  }
  flush_literals(input.size());
  return out;
}

namespace {

/// Output slack past the decoded size: a wild copy writes whole 16-byte
/// chunks, so it may spill up to 15 bytes beyond the bytes it produces.
constexpr std::size_t kWildCopy = 16;
constexpr std::size_t kSlack = 2 * kWildCopy;
/// Longest literal run one control byte (0x00..0x7F) encodes.
constexpr std::size_t kMaxLiteral = 0x7F + 1;

}  // namespace

std::vector<std::uint8_t> lz_decompress(std::span<const std::uint8_t> input,
                                        std::size_t size) {
  // A literal op yields fewer bytes than it reads and a 3-byte match op at
  // most kMaxMatch, so a size the input cannot reach is rejected before
  // anything is allocated for it.
  if (size > input.size() + kMaxMatch * (input.size() / 3)) {
    throw FormatError("lz: declared size exceeds what the input can encode");
  }
  // One buffer of exactly `size` bytes plus slack; every op is checked
  // against it before it writes.
  const std::uint8_t* in = input.data();
  const std::uint8_t* const in_end = in + input.size();
  std::vector<std::uint8_t> out(size + kSlack);
  std::uint8_t* op = out.data();
  std::uint8_t* const limit = op + size;
  while (in < in_end) {
    const std::uint8_t ctrl = *in++;
    if (ctrl < 0x80) {
      const std::size_t n = static_cast<std::size_t>(ctrl) + 1;
      if (n > static_cast<std::size_t>(in_end - in)) {
        throw FormatError("lz: literal run past end of input");
      }
      if (n > static_cast<std::size_t>(limit - op)) {
        throw FormatError("lz: output exceeds the declared size");
      }
      // Wild 16-byte chunks read up to 15 bytes past the literal but never
      // more than a longest literal in all, so they run only while the
      // input holds that many bytes; the input's tail copies exactly.
      if (static_cast<std::size_t>(in_end - in) >= kMaxLiteral) {
        for (std::size_t k = 0; k < n; k += kWildCopy) {
          std::memcpy(op + k, in + k, kWildCopy);
        }
      } else {
        std::memcpy(op, in, n);
      }
      in += n;
      op += n;
    } else {
      if (in_end - in < 2) {
        throw FormatError("lz: truncated match");
      }
      const std::size_t len = static_cast<std::size_t>(ctrl & 0x7F) + kMinMatch;
      const std::size_t dist = static_cast<std::size_t>(in[0]) |
                               (static_cast<std::size_t>(in[1]) << 8);
      in += 2;
      if (dist == 0 || dist > static_cast<std::size_t>(op - out.data())) {
        throw FormatError("lz: invalid match distance");
      }
      if (len > static_cast<std::size_t>(limit - op)) {
        throw FormatError("lz: output exceeds the declared size");
      }
      const std::uint8_t* src = op - dist;
      if (dist >= kWildCopy) {
        // Each chunk's source ends at or before its destination starts,
        // and every source byte is already final: earlier output or an
        // earlier chunk of this match.
        for (std::size_t k = 0; k < len; k += kWildCopy) {
          std::memcpy(op + k, src + k, kWildCopy);
        }
      } else {
        // Overlapping (run-length style) copy: a byte may read one this
        // loop just wrote.
        for (std::size_t k = 0; k < len; ++k) {
          op[k] = src[k];
        }
      }
      op += len;
    }
  }
  if (op != limit) {
    throw FormatError("lz: output is shorter than the declared size");
  }
  out.resize(size);
  return out;
}

}  // namespace iotaxo
