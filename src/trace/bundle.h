// TraceBundle: the uniform artifact a tracing run produces, regardless of
// which framework captured it. This realizes the paper's future-work goal
// of "a single trace-data API ... for use while building trace analysis
// tools" (§6): analysis, anonymization and replay all operate on bundles.
#pragma once

#include <map>
#include <optional>
#include <string>
#include <utility>
#include <vector>

#include "trace/event.h"
#include "trace/sink.h"

namespace iotaxo::trace {

/// A discovered causal dependency between ranks (produced by //TRACE's
/// throttling analysis): `to` cannot pass `via_barrier` until `from` has
/// finished its I/O.
struct DependencyEdge {
  int from_rank = -1;
  int to_rank = -1;
  std::string via;  // label of the synchronization point
  bool operator==(const DependencyEdge&) const = default;
};

struct RankStream {
  int rank = -1;
  std::string host;
  std::uint32_t pid = 0;
  std::vector<TraceEvent> events;
};

/// Builds a bundle's raw per-rank streams straight from delivery: every
/// record is materialized once, into its rank's stream, in delivery order.
/// A RankBatcher batch holds one rank, so the stream lookup runs once per
/// batch. A stream's host and pid are those of its last event.
class RankStreamSink : public EventSink {
 public:
  void on_event(const TraceEvent& ev) override;
  void on_batch(const EventBatch& batch) override;
  /// Hand the streams over in ascending rank order and start empty.
  [[nodiscard]] std::vector<RankStream> take();

 private:
  [[nodiscard]] RankStream& stream(int rank);

  std::map<int, RankStream> streams_;
};

/// Keeps every MPI_Barrier event in delivery order: the barriers.trace of
/// frameworks whose barriers arrive through their capture sink.
class BarrierSink : public EventSink {
 public:
  void on_event(const TraceEvent& ev) override;
  void on_batch(const EventBatch& batch) override;
  [[nodiscard]] std::vector<TraceEvent> take() noexcept {
    return std::move(events_);
  }

 private:
  std::vector<TraceEvent> events_;
};

class TraceBundle {
 public:
  /// Free-form run metadata (application command line, framework name,
  /// trace format, workload parameters...).
  std::map<std::string, std::string> metadata;

  /// Raw per-rank event streams. May be empty when the capture used a
  /// counting/summary sink (benchmark mode).
  std::vector<RankStream> ranks;

  /// Clock-probe events from skew/drift accounting jobs (LANL-Trace's
  /// pre/post barrier job). Empty for frameworks that don't support it.
  std::vector<TraceEvent> clock_probes;

  /// MPI_Barrier events retained even in summary mode (needed for the
  /// aggregate-timing output and bandwidth windows).
  std::vector<TraceEvent> barrier_events;

  /// Aggregated call summary (always available).
  std::map<std::string, SummarySink::Entry> call_summary;

  /// Inter-rank dependencies (only from frameworks that reveal them).
  std::vector<DependencyEdge> dependencies;

  [[nodiscard]] long long total_events() const noexcept;
  [[nodiscard]] bool has_raw_streams() const noexcept { return !ranks.empty(); }

  /// Merge a per-rank summary into the bundle's call summary.
  void merge_summary(const SummarySink& sink);

  /// Serialize to / from a directory on the host file system (one text
  /// trace per rank plus TSV sidecars). Used by examples and distribution
  /// workflows; throws on I/O failure.
  void save(const std::string& directory) const;
  [[nodiscard]] static TraceBundle load(const std::string& directory);
};

}  // namespace iotaxo::trace
