// Interposition mechanisms and their cost models.
//
// Each I/O tracing framework captures events through a different layer, and
// each layer has a characteristic per-event cost — this is the axis the
// paper's overhead measurements quantify:
//
//   kPtraceSyscall  strace-style: the kernel stops the tracee at syscall
//                   entry/exit; the tracer (a separate process) reads
//                   registers, formats a line and writes it out. Hundreds
//                   of microseconds per event.
//   kPtraceLibrary  ltrace-style: breakpoint-based library call tracing on
//                   top of ptrace; slightly costlier per event.
//   kDynLibInterpose //TRACE-style LD_PRELOAD wrappers executing inside the
//                   application process: tens of microseconds.
//   kVfsStack       Tracefs-style in-kernel stackable file system: an
//                   in-kernel record append with buffered flushing; the
//                   cheapest mechanism per event.
#pragma once

#include "util/types.h"

namespace iotaxo::interpose {

enum class Mechanism {
  kPtraceSyscall,
  kPtraceLibrary,
  kDynLibInterpose,
  kVfsStack,
};

[[nodiscard]] const char* to_string(Mechanism m) noexcept;

/// Per-event capture costs. Defaults are calibrated so the LANL-Trace
/// overhead experiments land on the paper's anchor points (§4.1.2);
/// bench_anchor_overheads prints the paper-vs-measured table.
struct InterposeCosts {
  SimTime ptrace_syscall_event = from_micros(300.0);
  SimTime ptrace_library_event = from_micros(329.0);
  SimTime dynlib_event = from_micros(14.0);
  /// VFS record build cost; flush amortization is configured separately on
  /// the shim (buffer size, checksum, compression, encryption).
  SimTime vfs_record_event = from_micros(24.0);
};

[[nodiscard]] SimTime event_cost(const InterposeCosts& costs,
                                 Mechanism m) noexcept;

}  // namespace iotaxo::interpose
