// Directly-follows-graph (DFG) mining over the unified store — the
// pattern-analysis workload class the syscall-inspection line of work
// (Sankaran et al.) builds on: for each rank, a graph whose nodes are call
// names and whose edges count "call B directly follows call A", annotated
// with transition-latency statistics and byte weights. Where the store's
// aggregate queries answer "how much", a DFG answers "in what order" —
// I/O phases, loops, and per-rank behavioral divergence that flat
// aggregates cannot expose.
//
// Graphs are mined straight off the store's pools through the store's scan
// driver (UnifiedTraceStore::scan_pools): owned batches and mapped IOTB3
// block pools feed identical graphs, nothing is materialized, and the
// driver's index skips, parallel chunks and ScanPolicy damage handling
// apply exactly as they do to the store's queries. Node and
// edge keys are interned call-name ids in the Dfg's own name table
// (`names`), assigned in sorted-name order (id 0 stays ""), so graph
// comparisons are id compares — and the table is independent of how the
// records were split into pools.
//
// Directly-follows semantics: within one rank, events are taken in store
// order — pool (== source) order, record order within a pool — which is
// capture order for every built-in pipeline. Only I/O call classes
// (syscall, library call, VFS op) participate; clock probes, annotations
// and rank-less records (rank < 0) are skipped. A rank that spans several
// pools is stitched across the boundary (the last kept event of pool k
// transitions into the first kept event of pool k+1), so graphs are
// invariant to how the same record stream is split into sources — and to
// compact().
#pragma once

#include <algorithm>
#include <map>
#include <optional>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "analysis/unified_store.h"
#include "trace/string_pool.h"

namespace iotaxo::analysis::dfg {

/// Per-node (call-name) statistics of one rank's graph.
struct NodeStats {
  long long count = 0;           // occurrences of this call
  SimTime total_duration = 0;    // summed call durations
  Bytes bytes = 0;               // payload moved by this call (transfers)
  bool operator==(const NodeStats&) const = default;
};

/// Per-edge statistics: "to" directly followed "from" `count` times. The
/// gap is the inter-call latency, next.start - prev.end (negative when
/// calls overlap); bytes weight the edge with the destination call's
/// payload, so transfer-heavy transitions stand out in exports.
struct EdgeStats {
  long long count = 0;
  Bytes bytes = 0;
  SimTime gap_min = 0;
  SimTime gap_max = 0;
  SimTime gap_sum = 0;
  [[nodiscard]] SimTime gap_mean() const noexcept {
    return count > 0 ? gap_sum / count : 0;
  }
  bool operator==(const EdgeStats&) const = default;
};

/// One kept event of a rank's sequence (name is a Dfg-global id). Retained
/// only when DfgOptions::keep_sequences — the phase segmenter needs the
/// sequence, the graph alone does not.
struct SeqEvent {
  trace::StrId name = 0;
  SimTime start = 0;
  SimTime end = 0;  // start + duration
  Bytes bytes = 0;
  bool operator==(const SeqEvent&) const = default;
};

/// Edge key: (from node, to node) as Dfg-global name ids.
using EdgeKey = std::pair<trace::StrId, trace::StrId>;

struct RankDfg {
  int rank = -1;
  std::map<trace::StrId, NodeStats> nodes;
  std::map<EdgeKey, EdgeStats> edges;
  /// Kept events in directly-follows order (empty unless keep_sequences).
  std::vector<SeqEvent> sequence;

  /// Total transitions (== sum of edge counts == kept events - 1).
  [[nodiscard]] long long transitions() const noexcept {
    long long total = 0;
    for (const auto& [key, stats] : edges) {
      total += stats.count;
    }
    return total;
  }
  bool operator==(const RankDfg&) const = default;
};

/// The mined graph set: one RankDfg per rank (ascending), sharing one name
/// table. Equality is structural — the build is deterministic (serial ==
/// parallel, owned == view, pre- == post-compaction), so tests and benches
/// compare whole graphs with ==.
struct Dfg {
  /// Global name table: id -> call name (id 0 is "", never used by a node).
  std::vector<std::string> names;
  std::vector<RankDfg> ranks;

  [[nodiscard]] std::string_view name(trace::StrId id) const {
    return names.at(id);
  }
  /// The rank's graph, or nullptr when the rank has no kept events.
  [[nodiscard]] const RankDfg* find_rank(int rank) const noexcept {
    for (const RankDfg& r : ranks) {
      if (r.rank == rank) {
        return &r;
      }
    }
    return nullptr;
  }
  [[nodiscard]] long long total_events() const noexcept {
    long long total = 0;
    for (const RankDfg& r : ranks) {
      for (const auto& [id, stats] : r.nodes) {
        total += stats.count;
      }
    }
    return total;
  }
  bool operator==(const Dfg&) const = default;
};

struct DfgOptions {
  /// Worker threads for the per-pool partial phase: 0 = auto (hardware
  /// concurrency), 1 = serial — the same knob semantics as
  /// UnifiedTraceStore::set_query_threads. The merge is always serial and
  /// in pool order, so results are identical for every setting.
  std::size_t threads = 0;
  /// Restrict mining to one rank (the CLI's --rank).
  std::optional<int> rank{};
  /// Retain per-rank event sequences (required by PhaseSegmenter; off by
  /// default to keep graph-only mining at ~node+edge memory).
  bool keep_sequences = false;
};

/// The one pool pass and merge behind both DfgBuilder and LiveDfg. mine()
/// streams pools through the store's scan driver into pool-local partial
/// graphs, then merges them in pool order into this state: a name table,
/// per-rank graphs, and each rank's last event, which stitches the rank
/// across partial boundaries (the last kept event of one partial
/// transitions into the first of the next). A partial names calls by
/// dense slots, handed out first-seen within its pool, and holds each
/// rank's edges by slot pair; merge() interns just those slots' names.
/// Edge and node stats merge associatively, so the graph does not depend
/// on where the record stream was cut into partials — whole pools for a
/// cold build, filed record ranges for the live fold.
class DfgMerge {
 public:
  /// Mine every pool, or just `range`, and merge the result after
  /// everything merged so far. Every partial is built before any is
  /// merged, so a scan that throws merges nothing.
  void mine(const UnifiedTraceStore& store, const DfgOptions& options,
            const std::optional<ScanRange>& range = {});

  /// The graph over everything merged so far, canonicalized (copy the
  /// merge first to keep merging).
  [[nodiscard]] Dfg graph() &&;

  /// Events merged so far (after class/rank filtering).
  [[nodiscard]] long long events() const noexcept;

 private:
  struct PoolPartial;
  class PoolMiner;

  void merge(const UnifiedTraceStore& store, const PoolPartial& partial);

  /// Merge-global ids, first-seen; graph() re-keys onto sorted names.
  trace::StringPool names_;
  std::map<int, RankDfg> ranks_;
  std::map<int, SeqEvent> last_by_rank_;
};

/// Mines DFGs from a UnifiedTraceStore without materializing its sources:
/// one DfgMerge::mine over every pool (parallel across pools when
/// options.threads allows) — bit-identical results at any thread count.
/// The store must not be mutated (ingest/compact) during build().
class DfgBuilder {
 public:
  explicit DfgBuilder(const UnifiedTraceStore& store) : store_(&store) {}

  [[nodiscard]] Dfg build(const DfgOptions& options = {}) const;

 private:
  const UnifiedTraceStore* store_;
};

/// Re-key a graph onto ids assigned in sorted-name order (id 0 stays "").
/// Merge-time ids depend on the order names were first seen, which
/// depends on how the records were cut into partials, so DfgMerge
/// canonicalizes before returning a Dfg.
void canonicalize(Dfg& dfg);

}  // namespace iotaxo::analysis::dfg
