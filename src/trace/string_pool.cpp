#include "trace/string_pool.h"

#include "util/error.h"
#include "util/strings.h"

namespace iotaxo::trace {

StringPool::StringPool() { (void)intern(std::string_view{}); }

StringPool::StringPool(const StringPool& other)
    : index_(other.index_), bytes_(other.bytes_) {
  by_id_.assign(other.by_id_.size(), nullptr);
  for (const auto& [s, id] : index_) {
    by_id_[id] = &s;
  }
}

StringPool& StringPool::operator=(const StringPool& other) {
  if (this != &other) {
    index_ = other.index_;
    bytes_ = other.bytes_;
    by_id_.assign(other.by_id_.size(), nullptr);
    for (const auto& [s, id] : index_) {
      by_id_[id] = &s;
    }
  }
  return *this;
}

StrId StringPool::intern(std::string_view s) {
  const auto it = index_.find(s);
  if (it != index_.end()) {
    return it->second;
  }
  const StrId id = static_cast<StrId>(by_id_.size());
  const auto [inserted, ok] = index_.emplace(std::string(s), id);
  (void)ok;
  by_id_.push_back(&inserted->first);
  bytes_ += s.size() + sizeof(std::string);
  return id;
}

std::optional<StrId> StringPool::find(std::string_view s) const {
  const auto it = index_.find(s);
  if (it == index_.end()) {
    return std::nullopt;
  }
  return it->second;
}

std::string_view StringPool::view(StrId id) const { return str(id); }

const std::string& StringPool::str(StrId id) const {
  if (id >= by_id_.size()) {
    throw FormatError(strprintf("string pool: id %u out of range (size %zu)",
                                id, by_id_.size()));
  }
  return *by_id_[id];
}

void StringPool::clear() {
  index_.clear();
  by_id_.clear();
  bytes_ = 0;
  (void)intern(std::string_view{});
}

bool all_distinct(std::span<const std::string_view> table) {
  // Linear probing at load <= 1/2. A slot packs the upper half of the
  // string's hash over its index + 1 (0 = empty), so most probes settle
  // on the tag without touching the string bytes.
  std::size_t cap = 16;
  while (cap < 2 * table.size()) {
    cap *= 2;
  }
  const std::size_t mask = cap - 1;
  std::vector<std::uint64_t> slots(cap, 0);
  const std::hash<std::string_view> hash;
  for (std::size_t i = 0; i < table.size(); ++i) {
    const std::uint64_t h = hash(table[i]);
    const std::uint64_t tag = h & 0xFFFFFFFF00000000ULL;
    for (std::size_t pos = h & mask;; pos = (pos + 1) & mask) {
      const std::uint64_t slot = slots[pos];
      if (slot == 0) {
        slots[pos] = tag | (i + 1);
        break;
      }
      if ((slot & 0xFFFFFFFF00000000ULL) == tag &&
          table[(slot & 0xFFFFFFFFULL) - 1] == table[i]) {
        return false;
      }
    }
  }
  return true;
}

}  // namespace iotaxo::trace
