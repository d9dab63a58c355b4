#include "frameworks/partrace.h"

#include <algorithm>
#include <cmath>
#include <utility>

#include "trace/bundle.h"
#include "util/error.h"
#include "util/strings.h"

namespace iotaxo::frameworks {

using trace::EventClass;
using trace::TraceEvent;

ThrottleEngine::ThrottleEngine(int nranks, double sampling, SimTime delay)
    : nranks_(nranks),
      sampled_count_(static_cast<int>(
          std::ceil(std::clamp(sampling, 0.0, 1.0) * nranks))),
      delay_(delay) {
  if (nranks_ <= 0) {
    throw ConfigError("ThrottleEngine needs at least one rank");
  }
}

int ThrottleEngine::throttled_rank_for_phase(int phase) const noexcept {
  if (sampled_count_ <= 0) {
    return -1;
  }
  const int idx = phase % nranks_;
  return idx < sampled_count_ ? idx : -1;
}

SimTime ThrottleEngine::delay(const TraceEvent& ev) {
  if (ev.cls != EventClass::kSyscall ||
      (ev.name != "SYS_write" && ev.name != "SYS_read")) {
    return 0;
  }
  return ev.rank == throttled_rank_for_phase(phase_) ? delay_ : 0;
}

SimTime ThrottleEngine::on_event(const TraceEvent& ev) {
  if (ev.cls != EventClass::kLibraryCall || ev.name != "MPI_Barrier") {
    return 0;
  }
  current_label_ = ev.path;
  current_records_.push_back(BarrierRecord{ev.rank, ev.duration});
  if (++barrier_events_in_phase_ == nranks_) {
    finalize_phase(current_label_);
    barrier_events_in_phase_ = 0;
    current_records_.clear();
    ++phase_;
  }
  return 0;  // pure observation; throttling enters via delay()
}

void ThrottleEngine::finalize_phase(const std::string& label) {
  const int throttled = throttled_rank_for_phase(phase_);
  if (throttled < 0 || current_records_.empty()) {
    return;
  }
  // The rank every other rank waited on arrives last, i.e. waits least.
  const auto last =
      std::min_element(current_records_.begin(), current_records_.end(),
                       [](const BarrierRecord& a, const BarrierRecord& b) {
                         return a.wait < b.wait;
                       });
  if (last->rank != throttled) {
    return;  // the injected delay did not dominate this phase; no signal
  }
  for (const BarrierRecord& rec : current_records_) {
    if (rec.rank != throttled && rec.wait > last->wait + kWaitMargin) {
      edges_.push_back(
          trace::DependencyEdge{throttled, rec.rank, label});
    }
  }
}

void ThrottleEngine::on_run_end() {
  // Flush a trailing partial phase (jobs whose rank count changed mid-run
  // don't exist in this simulator, but stay defensive).
  if (!current_records_.empty() &&
      barrier_events_in_phase_ == nranks_) {
    finalize_phase(current_label_);
  }
}

Partrace::Partrace(PartraceParams params) : params_(params) {
  if (params_.sampling < 0.0 || params_.sampling > 1.0) {
    throw ConfigError("partrace sampling must be in [0, 1]");
  }
}

InstallProfile Partrace::install_profile() const {
  InstallProfile p;
  p.requires_root = false;
  p.kernel_module = false;
  p.binary_deps = {"libpartrace.so"};  // LD_PRELOAD shim
  p.config_steps = 1;
  return p;
}

Capabilities Partrace::capabilities() const {
  Capabilities c;
  c.anonymization_level = 0;
  c.granularity_level = 0;  // "All I/O system calls are captured"
  c.replayable_traces = true;
  c.reveals_dependencies = params_.sampling > 0.0;
  c.analysis_tools = false;
  c.human_readable_output = true;
  c.accounts_skew_drift = false;
  c.event_types = "I/O system calls";
  c.sees_mmap_io = false;
  return c;
}

bool Partrace::supports_fs(fs::FsKind /*kind*/) const {
  // Developed for MPI/MPI-IO applications; interposition is fs-agnostic.
  return true;
}

TraceRunResult Partrace::trace(const sim::Cluster& cluster,
                               const mpi::Job& job, fs::VfsPtr vfs,
                               const TraceJobOptions& options) {
  if (!vfs) {
    throw ConfigError("Partrace::trace needs a file system");
  }
  auto summary = std::make_shared<trace::SummarySink>();
  std::shared_ptr<trace::RankStreamSink> raw;
  std::shared_ptr<trace::BarrierSink> barriers;
  std::vector<trace::SinkPtr> sinks{summary};
  if (options.store_raw_streams) {
    raw = std::make_shared<trace::RankStreamSink>();
    barriers = std::make_shared<trace::BarrierSink>();
    sinks.push_back(raw);
    sinks.push_back(barriers);
  }
  auto interposer = std::make_shared<interpose::DynLibInterposer>(
      std::make_shared<trace::MultiSink>(sinks), params_.costs,
      params_.batch_capacity);
  auto engine = std::make_shared<ThrottleEngine>(
      job.nranks(), params_.sampling, params_.throttle_delay);

  mpi::RunOptions run_options;
  run_options.vfs = std::move(vfs);
  run_options.startup = options.app_startup + params_.preload_setup;
  run_options.cmdline = job.cmdline;
  run_options.observers = {interposer, engine};
  run_options.throttler = engine;

  mpi::Runtime runtime(cluster, run_options);
  TraceRunResult result;
  result.run = runtime.run(job.programs);
  result.apparent_elapsed =
      result.run.elapsed +
      params_.analysis_per_event * interposer->events_captured();

  trace::TraceBundle& b = result.bundle;
  b.metadata["framework"] = name();
  b.metadata["application"] = job.cmdline;
  b.metadata["format"] = "text";
  b.metadata["sampling"] = strprintf("%.3f", params_.sampling);
  b.merge_summary(*summary);
  b.dependencies = engine->edges();

  if (raw) {
    b.ranks = raw->take();
    b.barrier_events = barriers->take();
  }
  return result;
}

replay::ReplayOptions Partrace::replay_options() const {
  replay::ReplayOptions options;
  options.pseudo.sync = replay::SyncStrategy::kDependencies;
  return options;
}

}  // namespace iotaxo::frameworks
