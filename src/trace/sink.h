// Event sinks: where interposers deliver trace events.
//
// Sinks decouple capture from retention so that benchmark-scale runs can
// count millions of events without materializing them, while tests and
// examples keep full streams.
//
// Delivery comes in two granularities: per-event (on_event) and batched
// (on_batch, an EventBatch of interned records). on_batch's default
// implementation falls back to per-event delivery, so existing sinks keep
// working; the built-in sinks override it natively so the batched pipeline
// never rebuilds per-event heap objects it does not need. A bundle's raw
// per-rank streams come from trace::RankStreamSink (trace/bundle.h), which
// materializes each delivered record once, straight into its rank's stream.
//
// Thread-safety contract: sinks are single-threaded. Nothing in this
// header takes a lock, and the capture layers deliver inline from the
// (single-threaded) simulation loop. An off-thread delivery queue was
// measured on the paper's worst-case capture and did not pay for itself,
// so the capture path has none.
#pragma once

#include <algorithm>
#include <map>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "trace/event.h"
#include "trace/event_batch.h"
#include "util/metrics.h"

namespace iotaxo::trace {

class EventSink {
 public:
  virtual ~EventSink() = default;
  virtual void on_event(const TraceEvent& ev) = 0;
  /// Batched delivery. Default: explode into per-event delivery so sinks
  /// that only implement on_event observe an identical stream.
  virtual void on_batch(const EventBatch& batch) {
    for (std::size_t i = 0; i < batch.size(); ++i) {
      on_event(batch.materialize(i));
    }
  }
  virtual void flush() {}
};

using SinkPtr = std::shared_ptr<EventSink>;

/// Retains every event as one flat stream, in delivery order (tests and
/// naive references; bundles build their streams with RankStreamSink).
class VectorSink : public EventSink {
 public:
  void on_event(const TraceEvent& ev) override { events_.push_back(ev); }
  void on_batch(const EventBatch& batch) override {
    // No reserve: an exact-size reserve per delivery would defeat
    // push_back's geometric growth across repeated batch flushes.
    for (std::size_t i = 0; i < batch.size(); ++i) {
      events_.push_back(batch.materialize(i));
    }
  }
  [[nodiscard]] const std::vector<TraceEvent>& events() const noexcept {
    return events_;
  }
  [[nodiscard]] std::vector<TraceEvent> take() noexcept {
    return std::move(events_);
  }

 private:
  std::vector<TraceEvent> events_;
};

/// Retains batches in interned form — the columnar twin of VectorSink for
/// consumers (unified store, binary v2 writers) that stay batched.
class BatchSink : public EventSink {
 public:
  void on_event(const TraceEvent& ev) override { batch_.append(ev); }
  void on_batch(const EventBatch& batch) override { batch_.append(batch); }
  [[nodiscard]] const EventBatch& batch() const noexcept { return batch_; }
  /// Hand the accumulated batch over and start a fresh one (a moved-from
  /// batch's pool would lack the id-0-is-empty invariant).
  [[nodiscard]] EventBatch take() {
    return std::exchange(batch_, EventBatch{});
  }

 private:
  EventBatch batch_;
};

/// Aggregates per-call-name counts and total durations — exactly the data
/// LANL-Trace's "Call Summary" output reports (Figure 1, third block).
class SummarySink : public EventSink {
 public:
  struct Entry {
    long long count = 0;
    SimTime total_duration = 0;
    bool operator==(const Entry&) const = default;
  };

  void on_event(const TraceEvent& ev) override {
    Entry& e = entries_[ev.name];
    ++e.count;
    e.total_duration += ev.duration;
    ++total_events_;
  }

  void on_batch(const EventBatch& batch) override {
    // One map lookup per *distinct* name per batch; every other record is
    // a flat-array hit. The scratch is grow-only and epoch-stamped so a
    // delivery costs O(batch), never O(largest name id) — string ids are
    // pool-local, so the epoch bump also invalidates slots left by batches
    // from other pools.
    ++scratch_epoch_;
    for (std::size_t i = 0; i < batch.size(); ++i) {
      const EventRecord& rec = batch.record(i);
      if (rec.name >= scratch_.size()) {
        scratch_.resize(static_cast<std::size_t>(rec.name) + 1);
      }
      Slot& slot = scratch_[rec.name];
      if (slot.epoch != scratch_epoch_) {
        slot.entry = &entries_[std::string(batch.name(i))];
        slot.epoch = scratch_epoch_;
      }
      ++slot.entry->count;
      slot.entry->total_duration += rec.duration;
    }
    total_events_ += static_cast<long long>(batch.size());
  }

  [[nodiscard]] const std::map<std::string, Entry>& entries() const noexcept {
    return entries_;
  }
  [[nodiscard]] long long total_events() const noexcept {
    return total_events_;
  }

 private:
  struct Slot {
    Entry* entry = nullptr;
    std::uint64_t epoch = 0;  // valid iff == scratch_epoch_
  };

  std::map<std::string, Entry> entries_;
  std::vector<Slot> scratch_;  // indexed by StrId, grow-only
  std::uint64_t scratch_epoch_ = 0;
  long long total_events_ = 0;
};

/// Counts only; the cheapest possible sink for overhead benchmarking.
class CountingSink : public EventSink {
 public:
  void on_event(const TraceEvent& ev) override {
    ++count_;
    total_bytes_ += ev.bytes;
  }
  void on_batch(const EventBatch& batch) override {
    count_ += static_cast<long long>(batch.size());
    for (const EventRecord& rec : batch.records()) {
      total_bytes_ += rec.bytes;
    }
  }
  [[nodiscard]] long long count() const noexcept { return count_; }
  [[nodiscard]] Bytes total_bytes() const noexcept { return total_bytes_; }

 private:
  long long count_ = 0;
  Bytes total_bytes_ = 0;
};

/// Fans an event out to several sinks.
class MultiSink : public EventSink {
 public:
  explicit MultiSink(std::vector<SinkPtr> sinks) : sinks_(std::move(sinks)) {}
  void on_event(const TraceEvent& ev) override {
    for (const auto& s : sinks_) {
      s->on_event(ev);
    }
  }
  void on_batch(const EventBatch& batch) override {
    for (const auto& s : sinks_) {
      s->on_batch(batch);
    }
  }
  void flush() override {
    for (const auto& s : sinks_) {
      s->flush();
    }
  }

 private:
  std::vector<SinkPtr> sinks_;
};

/// Per-rank batch buffering in front of a sink — the building block every
/// capture layer (ptrace tracers, dynamic interposition, the VFS shim)
/// threads its events through. Events accumulate into one EventBatch per
/// rank; a rank's batch is delivered via on_batch when it reaches
/// `capacity` and any remainder on flush(). With capacity <= 1 events skip
/// the buffer entirely and go straight to on_event, preserving the
/// interleaved per-event observation order for direct/manual use.
/// Each batch delivery counts one `sink.batch.flushes` and its records in
/// `sink.batch.events` (util/metrics.h; one relaxed load each, disarmed).
class RankBatcher {
 public:
  /// ~64k distinct strings per rank buffer before the pool is rebuilt;
  /// bounds memory at a few MiB per rank while keeping the common
  /// (low-cardinality) vocabulary interned across flushes.
  static constexpr std::size_t kPoolResetThreshold = 1 << 16;

  /// Ranks below this index their buffer straight out of a dense vector —
  /// one bounds-check on the hot path instead of a map walk. Negative or
  /// larger ranks (sentinel ranks, pathological inputs) fall back to a map.
  static constexpr int kDenseRankLimit = 1 << 16;

  RankBatcher(SinkPtr sink, std::size_t capacity)
      : sink_(std::move(sink)), capacity_(capacity == 0 ? 1 : capacity) {}

  void add(const TraceEvent& ev) {
    if (capacity_ <= 1) {
      sink_->on_event(ev);  // unbuffered: no intern/materialize detour
      return;
    }
    EventBatch& batch = bucket(ev.rank);
    batch.append(ev);
    if (batch.size() >= capacity_) {
      deliver(batch);
    }
  }

  /// Deliver every non-empty rank buffer (ascending rank order: sparse
  /// negatives, dense, sparse overflow) and the sink's own flush.
  void flush() {
    const auto non_negative = sparse_.lower_bound(0);
    for (auto it = sparse_.begin(); it != non_negative; ++it) {
      deliver_non_empty(it->second);
    }
    for (const auto& slot : dense_) {
      if (slot) {
        deliver_non_empty(*slot);
      }
    }
    for (auto it = non_negative; it != sparse_.end(); ++it) {
      deliver_non_empty(it->second);
    }
    sink_->flush();
  }

  [[nodiscard]] std::size_t capacity() const noexcept { return capacity_; }
  [[nodiscard]] const SinkPtr& sink() const noexcept { return sink_; }

 private:
  [[nodiscard]] EventBatch& bucket(int rank) {
    if (rank >= 0 && rank < kDenseRankLimit) {
      const auto i = static_cast<std::size_t>(rank);
      if (i >= dense_.size()) {
        dense_.resize(i + 1);
      }
      if (!dense_[i]) {
        // unique_ptr slots keep never-seen ranks at pointer cost instead of
        // a default EventBatch (whose pool owns an index) per gap.
        dense_[i] = std::make_unique<EventBatch>();
      }
      return *dense_[i];
    }
    return sparse_[rank];
  }

  void deliver_non_empty(EventBatch& batch) {
    if (!batch.empty()) {
      deliver(batch);
    }
  }

  void deliver(EventBatch& batch) {
    static obs::Counter& flushes = obs::counter("sink.batch.flushes");
    static obs::Counter& events = obs::counter("sink.batch.events");
    flushes.add(1);
    events.add(batch.size());
    sink_->on_batch(batch);
    // Keep the pool so repeated names intern once per rank, unless
    // high-cardinality strings (per-I/O offset args) have grown it past
    // the bound; then start over.
    if (batch.pool().size() > kPoolResetThreshold) {
      batch.reset();
    } else {
      batch.clear();
    }
  }

  SinkPtr sink_;
  std::size_t capacity_;
  std::vector<std::unique_ptr<EventBatch>> dense_;  // index == rank
  std::map<int, EventBatch> sparse_;
};

}  // namespace iotaxo::trace
