#include "interpose/tracers.h"

#include <utility>

#include "util/error.h"

namespace iotaxo::interpose {

using trace::EventClass;
using trace::TraceEvent;

const char* to_string(Mechanism m) noexcept {
  switch (m) {
    case Mechanism::kPtraceSyscall:
      return "ptrace-syscall";
    case Mechanism::kPtraceLibrary:
      return "ptrace-library";
    case Mechanism::kDynLibInterpose:
      return "dynlib-interpose";
    case Mechanism::kVfsStack:
      return "vfs-stack";
  }
  return "?";
}

SimTime event_cost(const InterposeCosts& costs, Mechanism m) noexcept {
  switch (m) {
    case Mechanism::kPtraceSyscall:
      return costs.ptrace_syscall_event;
    case Mechanism::kPtraceLibrary:
      return costs.ptrace_library_event;
    case Mechanism::kDynLibInterpose:
      return costs.dynlib_event;
    case Mechanism::kVfsStack:
      return costs.vfs_record_event;
  }
  return 0;
}

namespace {

[[nodiscard]] trace::SinkPtr require_sink(trace::SinkPtr sink,
                                          const char* who) {
  if (!sink) {
    throw ConfigError(std::string(who) + " needs a sink");
  }
  return sink;
}

}  // namespace

PtraceTracer::PtraceTracer(Mode mode, trace::SinkPtr sink,
                           InterposeCosts costs, std::size_t batch_capacity)
    : mode_(mode),
      batcher_(require_sink(std::move(sink), "PtraceTracer"), batch_capacity),
      costs_(costs) {}

void PtraceTracer::flush() { batcher_.flush(); }

SimTime PtraceTracer::on_event(const TraceEvent& ev) {
  switch (ev.cls) {
    case EventClass::kSyscall: {
      batcher_.add(ev);
      ++events_captured_;
      return mode_ == Mode::kStrace ? costs_.ptrace_syscall_event
                                    : costs_.ptrace_library_event;
    }
    case EventClass::kLibraryCall: {
      if (mode_ == Mode::kStrace) {
        return 0;  // strace does not see library calls
      }
      batcher_.add(ev);
      ++events_captured_;
      return costs_.ptrace_library_event;
    }
    case EventClass::kFsOperation:
    case EventClass::kClockProbe:
    case EventClass::kAnnotation:
      return 0;
  }
  return 0;
}

DynLibInterposer::DynLibInterposer(trace::SinkPtr sink, InterposeCosts costs,
                                   std::size_t batch_capacity)
    : batcher_(require_sink(std::move(sink), "DynLibInterposer"),
               batch_capacity),
      costs_(costs) {}

void DynLibInterposer::flush() { batcher_.flush(); }

const std::set<std::string>& DynLibInterposer::wrapped_calls() {
  static const std::set<std::string> kCalls = {
      "open",           "close",          "read",
      "write",          "fsync",          "stat",
      "statfs",         "mkdir",          "unlink",
      "readdir",        "mmap",           "MPI_File_open",
      "MPI_File_close", "MPI_File_write_at", "MPI_File_read_at",
      "MPI_Barrier",    "MPI_Send",       "MPI_Recv",
  };
  return kCalls;
}

SimTime DynLibInterposer::on_event(const TraceEvent& ev) {
  if (ev.cls != EventClass::kLibraryCall) {
    return 0;  // wrappers live at the library boundary only
  }
  if (!wrapped_calls().contains(ev.name)) {
    return 0;
  }
  batcher_.add(ev);
  ++events_captured_;
  return costs_.dynlib_event;
}

SimTime ProbeCollector::on_event(const TraceEvent& ev) {
  switch (ev.cls) {
    case EventClass::kClockProbe:
      probes_.push_back(ev);
      return 0;
    case EventClass::kAnnotation:
      annotations_.push_back(ev);
      return 0;
    case EventClass::kLibraryCall:
      if (ev.name == "MPI_Barrier") {
        barriers_.push_back(ev);
      }
      return 0;
    default:
      return 0;
  }
}

}  // namespace iotaxo::interpose
