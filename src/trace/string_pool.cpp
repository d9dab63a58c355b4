#include "trace/string_pool.h"

#include <algorithm>
#include <bit>
#include <functional>

#include "util/error.h"
#include "util/strings.h"

namespace iotaxo::trace {

namespace {

constexpr std::uint64_t kTagMask = 0xFFFFFFFF00000000ULL;
constexpr std::uint64_t kIdMask = 0xFFFFFFFFULL;
constexpr std::size_t kMinSlots = 16;

[[nodiscard]] std::uint64_t tag_of(std::string_view s) noexcept {
  return std::hash<std::string_view>{}(s) & kTagMask;
}

/// Home slot of a tag in a power-of-two array: the hash's top bits.
[[nodiscard]] std::size_t home(std::uint64_t tag, std::size_t slots) noexcept {
  return static_cast<std::size_t>(tag >> (std::countl_zero(slots) + 1));
}

/// The one linear probe: the slot holding `s`, or the empty slot where it
/// would go. `at(i)` is entry i's string; most probes settle on the tag
/// without touching string bytes.
template <class At>
[[nodiscard]] std::size_t probe(const std::vector<std::uint64_t>& slots,
                                std::uint64_t tag, std::string_view s,
                                const At& at) {
  const std::size_t mask = slots.size() - 1;
  for (std::size_t pos = home(tag, slots.size());; pos = (pos + 1) & mask) {
    const std::uint64_t slot = slots[pos];
    if (slot == 0 ||
        ((slot & kTagMask) == tag && at((slot & kIdMask) - 1) == s)) {
      return pos;
    }
  }
}

}  // namespace

StringPool::StringPool() { (void)intern(std::string_view{}); }

StrId StringPool::intern(std::string_view s) {
  if (slots_.empty()) {
    grow(kMinSlots);  // fresh or moved-from
  }
  const std::uint64_t tag = tag_of(s);
  const auto at = [this](std::size_t i) -> std::string_view {
    return strings_[i];
  };
  std::size_t pos = probe(slots_, tag, s, at);
  if (slots_[pos] != 0) {
    return static_cast<StrId>((slots_[pos] & kIdMask) - 1);
  }
  if (2 * (strings_.size() + 1) > slots_.size()) {
    grow(2 * slots_.size());
    pos = probe(slots_, tag, s, at);
  }
  const StrId id = static_cast<StrId>(strings_.size());
  strings_.emplace_back(s);
  slots_[pos] = tag | (static_cast<std::uint64_t>(id) + 1);
  bytes_ += s.size() + sizeof(std::string);
  return id;
}

std::optional<StrId> StringPool::find(std::string_view s) const {
  if (slots_.empty()) {
    return std::nullopt;
  }
  const std::size_t pos =
      probe(slots_, tag_of(s), s,
            [this](std::size_t i) -> std::string_view { return strings_[i]; });
  if (slots_[pos] == 0) {
    return std::nullopt;
  }
  return static_cast<StrId>((slots_[pos] & kIdMask) - 1);
}

const std::string& StringPool::str(StrId id) const {
  if (id >= strings_.size()) {
    throw FormatError(strprintf("string pool: id %u out of range (size %zu)",
                                id, strings_.size()));
  }
  return strings_[id];
}

void StringPool::reserve(std::size_t n) {
  if (2 * n > slots_.size()) {
    grow(std::bit_ceil(std::max(2 * n, kMinSlots)));
  }
}

void StringPool::grow(std::size_t slots) {
  // Every entry is distinct, so re-placing a slot needs only its tag.
  std::vector<std::uint64_t> next(slots, 0);
  const std::size_t mask = slots - 1;
  for (const std::uint64_t slot : slots_) {
    if (slot != 0) {
      std::size_t pos = home(slot & kTagMask, slots);
      while (next[pos] != 0) {
        pos = (pos + 1) & mask;
      }
      next[pos] = slot;
    }
  }
  slots_ = std::move(next);
}

void StringPool::clear() {
  strings_.clear();
  slots_.clear();
  bytes_ = 0;
  (void)intern(std::string_view{});
}

bool all_distinct(std::span<const std::string_view> table) {
  std::size_t cap = kMinSlots;
  while (cap < 2 * table.size()) {
    cap *= 2;
  }
  std::vector<std::uint64_t> slots(cap, 0);
  const auto at = [table](std::size_t i) { return table[i]; };
  for (std::size_t i = 0; i < table.size(); ++i) {
    const std::uint64_t tag = tag_of(table[i]);
    const std::size_t pos = probe(slots, tag, table[i], at);
    if (slots[pos] != 0) {
      return false;
    }
    slots[pos] = tag | (i + 1);
  }
  return true;
}

}  // namespace iotaxo::trace
