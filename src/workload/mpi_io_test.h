// mpi_io_test — the LANL bandwidth benchmark ([4] in the paper) "used to
// perform parameter studies on the various LANL supercomputers", and the
// synthetic application behind the paper's overhead experiments.
//
// Three parallel I/O access patterns (§4.1.2, citing [12] for terminology):
//   N-to-N            N processes each write their own file
//   N-to-1 non-strided  N processes write disjoint contiguous regions of
//                       one shared file
//   N-to-1 strided      N processes interleave blocks round-robin within
//                       one shared file ("often used to keep similar data
//                       grouped by proximity within the file")
//
// The generated job brackets its write phase with labelled barriers
// ("io_begin"/"io_end") so bandwidth is measured exactly the way the real
// tool reports it, and splits the work into `nobj` objects with a barrier
// between objects, as the real benchmark does.
#pragma once

#include <string>

#include "mpi/program.h"
#include "util/types.h"

namespace iotaxo::workload {

enum class Pattern { kNtoN, kNto1NonStrided, kNto1Strided };

[[nodiscard]] const char* to_string(Pattern p) noexcept;

struct MpiIoTestParams {
  Pattern pattern = Pattern::kNto1Strided;
  int nranks = 32;
  /// I/O block size per call.
  Bytes block = 64 * kKiB;
  /// Total bytes written by the whole job (paper: one 100 GiB file for
  /// N-to-1, N x 10 GiB files for N-to-N; benches default to a scaled-down
  /// total, bench::kScaledTotalN1 / kScaledTotalNN).
  Bytes total_bytes = 4 * kGiB;
  /// Number of objects; a barrier separates consecutive objects.
  int nobj = 1;
  /// Output path (N-to-1) or path prefix (N-to-N).
  std::string path = "/pfs/mpi_io_test.out";
  /// Compute time between consecutive writes (usually zero: pure I/O).
  SimTime think_time = 0;
};

/// Build the job. Block counts are rounded so every rank writes the same
/// whole number of blocks per object (the real tool requires this too).
[[nodiscard]] mpi::Job make_mpi_io_test(const MpiIoTestParams& params);

/// The command line the real tool would have been launched with (quoted in
/// trace annotations, Figure 1 style).
[[nodiscard]] std::string mpi_io_test_cmdline(const MpiIoTestParams& params);

}  // namespace iotaxo::workload
