// The replayer: run a pseudo-application on a (fresh) simulated cluster and
// file system, optionally re-tracing it so its trace can be compared with
// the original (the paper's two fidelity checks: trace-vs-trace comparison
// and end-to-end runtime comparison).
#pragma once

#include <memory>

#include "analysis/trace_diff.h"
#include "fs/vfs.h"
#include "mpi/runtime.h"
#include "replay/pseudo_app.h"
#include "sim/cluster.h"
#include "trace/bundle.h"

namespace iotaxo::replay {

struct ReplayResult {
  mpi::RunResult run;
  /// Trace of the replay itself (captured with library interposition),
  /// populated when ReplayOptions::capture_trace is set.
  trace::TraceBundle bundle;
};

struct ReplayOptions {
  PseudoAppOptions pseudo{};
  bool capture_trace = true;
  /// Startup charged to the replay job (the replayer binary is lighter
  /// than an mpirun of the full application stack).
  SimTime startup = from_millis(220.0);
  /// Per-rank sink-delivery batch size for the replay's own capture
  /// (1 = per-event delivery).
  std::size_t batch_capacity = 256;
};

class Replayer {
 public:
  Replayer(const sim::Cluster& cluster, fs::VfsPtr vfs);

  [[nodiscard]] ReplayResult replay(const trace::TraceBundle& original,
                                    const ReplayOptions& options = {});

  /// Replay straight from a capture batch (plus any discovered dependency
  /// edges): the batched pipeline end-to-end, no per-event rehydration of
  /// the original trace.
  [[nodiscard]] ReplayResult replay(
      const trace::EventBatch& original,
      const std::vector<trace::DependencyEdge>& dependencies,
      const ReplayOptions& options = {});

  /// Convenience: replay and score fidelity against the original capture.
  [[nodiscard]] analysis::FidelityReport verify(
      const trace::TraceBundle& original, SimTime original_elapsed,
      const ReplayOptions& options = {});

 private:
  /// Run generated rank programs and capture the replay's own trace.
  [[nodiscard]] ReplayResult run_programs(
      const std::vector<mpi::Program>& programs, const ReplayOptions& options);

  const sim::Cluster& cluster_;
  fs::VfsPtr vfs_;
};

}  // namespace iotaxo::replay
