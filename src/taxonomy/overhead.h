// The taxonomy's quantitative element: the overhead-measurement harness
// (§3.1 "Elapsed time overhead" and the bandwidth-overhead methodology of
// §4.1.2). It runs the same job untraced and traced against fresh file
// systems and reports both overheads plus the bandwidths of the I/O window.
#pragma once

#include <functional>
#include <vector>

#include "frameworks/framework.h"
#include "workload/mpi_io_test.h"

namespace iotaxo::taxonomy {

/// Produces a fresh file system per run (traced and untraced runs must not
/// share state).
using VfsFactory = std::function<fs::VfsPtr()>;

struct OverheadPoint {
  Bytes block = 0;
  double bw_untraced_mibps = 0.0;
  double bw_traced_mibps = 0.0;
  /// Bandwidth overhead of the I/O phase (fraction).
  double bandwidth_overhead = 0.0;
  SimTime elapsed_untraced = 0;
  SimTime elapsed_traced = 0;  // framework-apparent (startup + postproc)
  /// The paper's elapsed-time overhead formula (fraction).
  double elapsed_overhead = 0.0;
  long long events = 0;
};

class OverheadHarness {
 public:
  OverheadHarness(const sim::Cluster& cluster, VfsFactory vfs_factory);

  /// Measure one job under one framework.
  [[nodiscard]] OverheadPoint measure(frameworks::TracingFramework& framework,
                                      const mpi::Job& job);

  /// Block-size sweep of mpi_io_test under `base` parameters (the Figures
  /// 2-4 experiment). Runs are independent; `parallel` runs them across
  /// threads (parallel_for).
  [[nodiscard]] std::vector<OverheadPoint> sweep_block_sizes(
      frameworks::TracingFramework& framework,
      workload::MpiIoTestParams base, const std::vector<Bytes>& blocks,
      bool parallel = true);

 private:
  const sim::Cluster& cluster_;
  VfsFactory vfs_factory_;
};

/// Standard block-size ladder used by the paper's figures (64 KiB .. 8 MiB).
[[nodiscard]] std::vector<Bytes> figure_block_sizes();

}  // namespace iotaxo::taxonomy
