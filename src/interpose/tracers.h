// Observer-based interposers: strace/ltrace (ptrace) and //TRACE-style
// dynamic library interposition. These attach to the MPI runtime's event
// stream, forward matching events to a sink, and charge the mechanism's
// per-event cost to the traced rank.
//
// Delivery to the sink goes through per-rank batch buffers (trace::
// RankBatcher): with batch_capacity > 1 a rank's events are interned into
// an EventBatch and handed to the sink in bulk via on_batch — the capture
// hot path stops paying per-event heap and virtual-call costs. The runtime
// calls flush() at end of run; manual drivers (tests) call it explicitly.
// batch_capacity == 1 (the default for direct construction) delivers each
// event immediately, preserving interleaved observation order. Delivery is
// inline on the simulation thread, so everything the sink holds is final
// by the time the runtime calls on_run_end().
#pragma once

#include <memory>
#include <set>
#include <string>
#include <vector>

#include "interpose/mechanism.h"
#include "mpi/runtime.h"
#include "trace/event.h"
#include "trace/sink.h"

namespace iotaxo::interpose {

/// strace / ltrace. Mode selects the captured event classes:
/// kStrace -> syscalls only; kLtrace -> syscalls + library calls.
/// This is LANL-Trace's "control of trace granularity" (§4.1.1).
class PtraceTracer : public mpi::IoObserver {
 public:
  enum class Mode { kStrace, kLtrace };

  PtraceTracer(Mode mode, trace::SinkPtr sink, InterposeCosts costs = {},
               std::size_t batch_capacity = 1);

  [[nodiscard]] SimTime on_event(const trace::TraceEvent& ev) override;
  void flush() override;

  [[nodiscard]] Mode mode() const noexcept { return mode_; }
  [[nodiscard]] long long events_captured() const noexcept {
    return events_captured_;
  }

 private:
  Mode mode_;
  trace::RankBatcher batcher_;
  InterposeCosts costs_;
  long long events_captured_ = 0;
};

/// LD_PRELOAD-style interposition of I/O library calls (//TRACE's capture
/// mechanism, [11] in the paper). Sees library-level I/O calls only; like
/// ptrace tracers it cannot observe memory-mapped I/O.
class DynLibInterposer : public mpi::IoObserver {
 public:
  explicit DynLibInterposer(trace::SinkPtr sink, InterposeCosts costs = {},
                            std::size_t batch_capacity = 1);

  [[nodiscard]] SimTime on_event(const trace::TraceEvent& ev) override;
  void flush() override;

  [[nodiscard]] long long events_captured() const noexcept {
    return events_captured_;
  }

  /// The I/O call names this interposer wraps.
  [[nodiscard]] static const std::set<std::string>& wrapped_calls();

 private:
  trace::RankBatcher batcher_;
  InterposeCosts costs_;
  long long events_captured_ = 0;
};

/// Zero-cost collector for clock probes and annotations (the LANL-Trace
/// wrapper script consumes these itself; they are not ptrace events).
class ProbeCollector : public mpi::IoObserver {
 public:
  [[nodiscard]] SimTime on_event(const trace::TraceEvent& ev) override;

  [[nodiscard]] const std::vector<trace::TraceEvent>& probes() const noexcept {
    return probes_;
  }
  [[nodiscard]] const std::vector<trace::TraceEvent>& annotations()
      const noexcept {
    return annotations_;
  }
  [[nodiscard]] const std::vector<trace::TraceEvent>& barriers()
      const noexcept {
    return barriers_;
  }

 private:
  std::vector<trace::TraceEvent> probes_;
  std::vector<trace::TraceEvent> annotations_;
  std::vector<trace::TraceEvent> barriers_;
};

}  // namespace iotaxo::interpose
