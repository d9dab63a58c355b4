// StringPool: interned ids for the strings trace events repeat millions of
// times (call names, paths, hosts). Interning turns the per-event cost of
// carrying those strings into a one-time cost per *distinct* string, which
// is what makes batch-scale capture and the IOTB3 container format viable
// (Recorder-style compact trace representations).
//
// Id 0 is always the empty string, so zero-initialized records are valid.
#pragma once

#include <algorithm>
#include <cstdint>
#include <optional>
#include <span>
#include <string>
#include <string_view>
#include <unordered_map>
#include <vector>

namespace iotaxo::trace {

/// Interned string id. Ids are dense: 0 .. size()-1.
using StrId = std::uint32_t;

class StringPool {
 public:
  StringPool();

  // by_id_ points into index_'s nodes, so copies must rebuild it against
  // their own map (a defaulted copy would alias the source's storage).
  StringPool(const StringPool& other);
  StringPool& operator=(const StringPool& other);
  StringPool(StringPool&&) noexcept = default;
  StringPool& operator=(StringPool&&) noexcept = default;

  /// Return the id for `s`, interning it on first sight.
  StrId intern(std::string_view s);

  /// Id for `s` if already interned.
  [[nodiscard]] std::optional<StrId> find(std::string_view s) const;

  /// The string for an id. Throws FormatError on an out-of-range id.
  [[nodiscard]] std::string_view view(StrId id) const;
  [[nodiscard]] const std::string& str(StrId id) const;

  /// Number of distinct strings (including the implicit empty string).
  [[nodiscard]] std::size_t size() const noexcept { return by_id_.size(); }

  /// Total bytes of interned string payload plus per-entry overhead, kept
  /// incrementally so size estimates (era seal checks run once per flush)
  /// never have to walk the pool.
  [[nodiscard]] std::size_t byte_size() const noexcept { return bytes_; }

  /// Pre-size for ~n distinct strings. The re-intern paths (batch append,
  /// container decode) know the incoming pool size up front; reserving
  /// avoids the rehash cascade that otherwise shows up in ingest profiles.
  /// Growth is geometric: a stream of small appends each asking for "size
  /// + a little more" must not re-reserve (and rehash/copy) every call.
  void reserve(std::size_t n) {
    if (n <= by_id_.capacity()) {
      return;
    }
    const std::size_t want = std::max(n, by_id_.capacity() * 2);
    index_.reserve(want);
    by_id_.reserve(want);
  }

  /// Visit every interned string in id order (serialization).
  template <class Fn>
  void for_each(Fn&& fn) const {
    for (StrId id = 0; id < by_id_.size(); ++id) {
      fn(id, std::string_view(*by_id_[id]));
    }
  }

  /// Drop everything except the implicit empty string.
  void clear();

 private:
  // Transparent hashing so intern/find of an already-interned string never
  // allocates — that is the capture hot path.
  struct Hash {
    using is_transparent = void;
    [[nodiscard]] std::size_t operator()(std::string_view s) const noexcept {
      return std::hash<std::string_view>{}(s);
    }
  };

  // Keys own the storage; node pointers stay stable across rehashing, so
  // by_id_ can point straight into the map.
  std::unordered_map<std::string, StrId, Hash, std::equal_to<>> index_;
  std::vector<const std::string*> by_id_;
  std::size_t bytes_ = 0;
};

/// True when no two entries of `table` are equal: the interning invariant
/// a container's string table must hold, since readers compare ids and
/// never strings. One flat open-addressing pass, one allocation.
[[nodiscard]] bool all_distinct(std::span<const std::string_view> table);

}  // namespace iotaxo::trace
