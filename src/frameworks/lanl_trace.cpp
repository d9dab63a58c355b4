#include "frameworks/lanl_trace.h"

#include <utility>

#include "trace/bundle.h"
#include "util/error.h"

namespace iotaxo::frameworks {

using interpose::PtraceTracer;

LanlTrace::LanlTrace(LanlTraceParams params) : params_(params) {}

InstallProfile LanlTrace::install_profile() const {
  InstallProfile p;
  p.requires_root = false;
  p.kernel_module = false;
  p.interpreter_deps = {"perl"};
  p.binary_deps = params_.mode == PtraceTracer::Mode::kLtrace
                      ? std::vector<std::string>{"ltrace", "strace"}
                      : std::vector<std::string>{"strace"};
  p.config_steps = 1;
  return p;
}

Capabilities LanlTrace::capabilities() const {
  Capabilities c;
  c.anonymization_level = 0;
  c.granularity_level = 1;  // simple: pick strace vs ltrace
  c.replayable_traces = false;  // beta pseudo-app generator not shipped
  c.reveals_dependencies = false;
  c.analysis_tools = false;  // only the simple timing aggregation
  c.human_readable_output = true;
  c.accounts_skew_drift = true;
  c.event_types = params_.mode == PtraceTracer::Mode::kLtrace
                      ? "System calls, library calls"
                      : "System calls";
  c.sees_mmap_io = false;
  return c;
}

bool LanlTrace::supports_fs(fs::FsKind /*kind*/) const {
  // ptrace sits above the VFS entirely; any file system works out of the
  // box ("we experienced no difficulty using our parallel file system").
  return true;
}

mpi::Job LanlTrace::wrap_job(const mpi::Job& app) {
  mpi::Job wrapped;
  wrapped.cmdline = app.cmdline;
  wrapped.programs.reserve(app.programs.size());
  for (std::size_t r = 0; r < app.programs.size(); ++r) {
    mpi::ScriptBuilder b;
    // Pre-application skew/drift job: "reports the observed time for each
    // node, does a barrier, and then reports the time again" (§4.1.1).
    b.clock_probe("pre_free");
    b.barrier("probe_pre");
    b.clock_probe("pre_sync");
    if (r == 0) {
      b.annotate("Barrier before " + app.cmdline);
    }
    b.barrier("before_app");
    mpi::Program prog = std::move(b).build();
    prog.insert(prog.end(), app.programs[r].begin(), app.programs[r].end());

    mpi::ScriptBuilder e;
    if (r == 0) {
      e.annotate("Barrier after " + app.cmdline);
    }
    e.barrier("after_app");
    e.clock_probe("post_free");
    e.barrier("probe_post");
    e.clock_probe("post_sync");
    const mpi::Program epilog = std::move(e).build();
    prog.insert(prog.end(), epilog.begin(), epilog.end());
    wrapped.programs.push_back(std::move(prog));
  }
  return wrapped;
}

TraceRunResult LanlTrace::trace(const sim::Cluster& cluster,
                                const mpi::Job& job, fs::VfsPtr vfs,
                                const TraceJobOptions& options) {
  if (!vfs) {
    throw ConfigError("LanlTrace::trace needs a file system");
  }
  const mpi::Job wrapped = wrap_job(job);

  auto summary = std::make_shared<trace::SummarySink>();
  std::shared_ptr<trace::RankStreamSink> raw;
  std::vector<trace::SinkPtr> sinks{summary};
  if (options.store_raw_streams) {
    raw = std::make_shared<trace::RankStreamSink>();
    sinks.push_back(raw);
  }
  auto tracer = std::make_shared<PtraceTracer>(
      params_.mode, std::make_shared<trace::MultiSink>(sinks), params_.costs,
      params_.batch_capacity);
  auto collector = std::make_shared<interpose::ProbeCollector>();

  mpi::RunOptions run_options;
  run_options.vfs = std::move(vfs);
  run_options.startup = options.app_startup + params_.wrapper_startup;
  run_options.cmdline = job.cmdline;
  run_options.observers = {tracer, collector};

  mpi::Runtime runtime(cluster, run_options);
  TraceRunResult result;
  result.run = runtime.run(wrapped.programs);

  // Post-processing: rank 0 gathers and merges every node's raw trace.
  result.apparent_elapsed =
      result.run.elapsed +
      params_.postprocess_per_event * tracer->events_captured();

  trace::TraceBundle& b = result.bundle;
  b.metadata["framework"] = name();
  b.metadata["mode"] = params_.mode == PtraceTracer::Mode::kLtrace
                           ? "ltrace"
                           : "strace";
  b.metadata["application"] = job.cmdline;
  b.metadata["format"] = "text";
  b.merge_summary(*summary);
  b.clock_probes = collector->probes();
  b.barrier_events = collector->barriers();

  // Barrier events belong in the raw streams too (ltrace records them as
  // ordinary library calls); they are already there via the tracer when in
  // ltrace mode.
  if (raw) {
    b.ranks = raw->take();
  }
  return result;
}

}  // namespace iotaxo::frameworks
