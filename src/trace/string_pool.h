// StringPool: interned ids for the strings trace events repeat millions of
// times (call names, paths, hosts). Interning turns the per-event cost of
// carrying those strings into a one-time cost per *distinct* string, which
// is what makes batch-scale capture and the IOTB3 container format viable
// (Recorder-style compact trace representations).
//
// Id 0 is always the empty string, so zero-initialized records are valid.
//
// Layout: the strings live in a deque, indexed by id, so str() references
// stay valid as the pool grows. Lookup is one flat linear-probe slot array
// over them (load <= 1/2). A slot packs the upper half of the string's
// hash over its id + 1 (0 = empty); the hash's top bits pick the home
// slot, so growing the array re-places slots without rehashing a string.
// all_distinct() runs the same probe over a borrowed table.
#pragma once

#include <cstdint>
#include <deque>
#include <optional>
#include <span>
#include <string>
#include <string_view>
#include <vector>

namespace iotaxo::trace {

/// Interned string id. Ids are dense: 0 .. size()-1.
using StrId = std::uint32_t;

class StringPool {
 public:
  StringPool();

  StringPool(const StringPool&) = default;
  StringPool& operator=(const StringPool&) = default;
  // noexcept so vectors of batches move, not copy, on reallocation. A
  // moved-from pool is empty (no id-0 entry) but safe to clear() or to
  // intern into.
  StringPool(StringPool&&) noexcept = default;
  StringPool& operator=(StringPool&&) noexcept = default;

  /// Return the id for `s`, interning it on first sight.
  StrId intern(std::string_view s);

  /// Id for `s` if already interned.
  [[nodiscard]] std::optional<StrId> find(std::string_view s) const;

  /// The string for an id. Throws FormatError on an out-of-range id.
  [[nodiscard]] std::string_view view(StrId id) const { return str(id); }
  [[nodiscard]] const std::string& str(StrId id) const;

  /// Number of distinct strings (including the implicit empty string).
  [[nodiscard]] std::size_t size() const noexcept { return strings_.size(); }

  /// Total bytes of interned string payload plus per-entry overhead, kept
  /// incrementally so size estimates (era seal checks run once per flush)
  /// never have to walk the pool.
  [[nodiscard]] std::size_t byte_size() const noexcept { return bytes_; }

  /// Pre-size the slot array for ~n distinct strings. The re-intern paths
  /// (batch append, container decode) know the incoming pool size up
  /// front. Growth stays geometric: the array only ever doubles, so a
  /// stream of small appends asking for "size + a little more" does not
  /// re-place every slot on each call.
  void reserve(std::size_t n);

  /// Visit every interned string in id order (serialization).
  template <class Fn>
  void for_each(Fn&& fn) const {
    StrId id = 0;
    for (const std::string& s : strings_) {
      fn(id++, std::string_view(s));
    }
  }

  /// Drop everything except the implicit empty string.
  void clear();

 private:
  void grow(std::size_t slots);

  std::deque<std::string> strings_;  // by id
  std::vector<std::uint64_t> slots_;  // power-of-two size, or empty
  std::size_t bytes_ = 0;
};

/// True when no two entries of `table` are equal: the interning invariant
/// a container's string table must hold, since readers compare ids and
/// never strings. One flat open-addressing pass, one allocation.
[[nodiscard]] bool all_distinct(std::span<const std::string_view> table);

}  // namespace iotaxo::trace
