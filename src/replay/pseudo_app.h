// Pseudo-application generation: turn a captured trace back into rank
// programs that reproduce the original I/O signature (§3.1 "Replayable
// trace generation": "generate a pseudo-application from collected trace
// data with the aim of reproducing the I/O signature of the original
// application").
//
// Synchronization strategy is the key fidelity lever:
//  * kBarriers      — replay every MPI_Barrier found in the trace (needs a
//                     trace that recorded them; LANL-Trace ltrace mode and
//                     //TRACE both do).
//  * kDependencies  — the //TRACE model: the replayer only knows the
//                     *discovered* inter-rank dependency edges and inserts
//                     point-to-point sync for exactly those. Undiscovered
//                     dependencies are silently dropped, which is how an
//                     incomplete throttling sample degrades replay fidelity.
//  * kNone          — free-running replay (think times only).
#pragma once

#include <vector>

#include "mpi/program.h"
#include "trace/bundle.h"
#include "trace/event_batch.h"

namespace iotaxo::replay {

enum class SyncStrategy { kBarriers, kDependencies, kNone };

struct PseudoAppOptions {
  SyncStrategy sync = SyncStrategy::kBarriers;
  /// Replayer bookkeeping per replayed I/O op (reading the trace record,
  /// computing the offset): a mechanical source of baseline replay error.
  SimTime per_op_overhead = from_micros(40.0);
  /// Think-time gaps are quantized to this grain, as a real replayer's
  /// sleep/poll loop would.
  SimTime gap_quantum = from_micros(100.0);
  /// Gaps below this threshold are dropped entirely.
  SimTime min_gap = from_micros(50.0);
  /// Merge runs of same-size equally-strided I/O ops into one batched op
  /// (smaller pseudo-apps; identical I/O signature).
  bool coalesce = true;
};

/// Generate one program per rank present in the bundle. Requires raw rank
/// streams (throws FormatError otherwise).
[[nodiscard]] std::vector<mpi::Program> generate_pseudo_app(
    const trace::TraceBundle& bundle, const PseudoAppOptions& options = {});

/// Generate straight from a capture batch (records grouped by rank,
/// within-rank order preserved): the batched pipeline's events are read
/// through string views and never exploded back into per-event heap
/// objects. Throws FormatError on an empty batch.
[[nodiscard]] std::vector<mpi::Program> generate_pseudo_app(
    const trace::EventBatch& batch,
    const std::vector<trace::DependencyEdge>& dependencies,
    const PseudoAppOptions& options = {});

/// Coalescing post-pass (exposed for tests): merges adjacent kWriteBlocks /
/// kReadBlocks ops with identical slot/block/api whose offsets advance by a
/// constant stride. I/O bytes and ordering are preserved exactly.
[[nodiscard]] mpi::Program coalesce_program(const mpi::Program& program);

}  // namespace iotaxo::replay
