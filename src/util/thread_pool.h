// Per-call worker threads behind every concurrent layer of the pipeline:
// whole-simulation fan-out (the overhead sweep), block-parallel decode, and
// the store's parallel scans in analysis::UnifiedTraceStore (per-chunk
// partials merged deterministically). The simulator core and capture stay
// single-threaded and deterministic; concurrency enters only where state is
// sharded or handed off whole.
#pragma once

#include <cstddef>
#include <functional>

namespace iotaxo {

/// Run fn(i) for every i in [0, n) on min(threads, n) threads started for
/// this call (threads == 0 selects hardware_concurrency), which take
/// indices in order from one shared counter, and wait for all of them.
/// Every index runs even after another throws; once every thread is
/// joined, the exception of the lowest failing index is rethrown.
void parallel_for(std::size_t n, const std::function<void(std::size_t)>& fn,
                  std::size_t threads = 0);

}  // namespace iotaxo
