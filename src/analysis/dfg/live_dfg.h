// Incremental DFG maintenance over a streaming UnifiedTraceStore.
//
// The cold path (DfgBuilder) rescans every pool on each build() — fine for
// post-hoc analysis, wasteful when a monitoring loop wants the graph after
// every flush of a long capture session. LiveDfg hangs off the store's
// ingest-listener seam and mines each filed record range as it arrives, so
// snapshot() is a copy + canonicalize of already-merged state instead of a
// full rescan.
//
// Bit-identity with the cold builder holds by construction: both run the
// same pool pass and merge (DfgMerge). The cold build merges one partial
// per pool; the live fold merges one per filed range (a suffix of the open
// era's one owned segment, or a whole pool) into one DfgMerge kept across
// calls. So
//   live.snapshot() == DfgBuilder(store).build(equivalent options)
// holds exactly (operator==), at any thread count, under the store's
// ScanPolicy, for any interleaving of flushes, era seals, and compact()
// calls (the merge state is keyed by rank, not pool, so no re-fold is
// needed). A fold that throws merges nothing, and the store then un-files
// the ingest that triggered it.
//
// Opt-in: construct via set_live_dfg(store). The returned handle owns the
// listener registration and detaches on destruction; destroy it before
// the store. Folding happens synchronously inside the ingest call, under
// the maintainer's own mutex — snapshot() is safe from other threads.
#pragma once

#include <memory>
#include <mutex>
#include <optional>

#include "analysis/dfg/dfg.h"

namespace iotaxo::analysis::dfg {

struct LiveDfgOptions {
  /// Restrict maintenance to one rank (mirrors DfgOptions::rank).
  std::optional<int> rank;
  /// Retain per-rank event sequences (mirrors DfgOptions::keep_sequences).
  bool keep_sequences = false;
};

class LiveDfg {
 public:
  /// Registers as the store's ingest listener and folds all records the
  /// store already holds, so a maintainer attached mid-session still
  /// matches a cold rebuild. Replaces any previously set listener.
  LiveDfg(UnifiedTraceStore& store, const LiveDfgOptions& options);
  ~LiveDfg();

  LiveDfg(const LiveDfg&) = delete;
  LiveDfg& operator=(const LiveDfg&) = delete;

  /// The graph over everything folded so far, canonicalized — comparable
  /// with == against DfgBuilder::build over the same store.
  [[nodiscard]] Dfg snapshot() const;

  /// Records folded so far (after class/rank filtering).
  [[nodiscard]] long long events_folded() const;

 private:
  void on_records(std::size_t pool, std::size_t begin, std::size_t end);

  UnifiedTraceStore* store_;
  /// The cold-build options these LiveDfgOptions mirror, serial.
  DfgOptions options_;
  mutable std::mutex mu_;
  DfgMerge merge_;
};

/// Attach incremental DFG maintenance to a store (the opt-in entry point).
[[nodiscard]] std::unique_ptr<LiveDfg> set_live_dfg(
    UnifiedTraceStore& store, const LiveDfgOptions& options = {});

}  // namespace iotaxo::analysis::dfg
