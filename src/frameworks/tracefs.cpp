#include "frameworks/tracefs.h"

#include <utility>

#include "trace/binary_format.h"
#include "trace/bundle.h"
#include "util/error.h"

namespace iotaxo::frameworks {

Tracefs::Tracefs(TracefsParams params) : params_(std::move(params)) {}

InstallProfile Tracefs::install_profile() const {
  InstallProfile p;
  p.requires_root = true;   // mounting on compute nodes
  p.kernel_module = true;   // "implemented as a kernel module"
  p.config_steps = 4;       // build module, load, mount per fs, configure
  return p;
}

Capabilities Tracefs::capabilities() const {
  Capabilities c;
  c.anonymization_level = 4;  // advanced but reversible (CBC, not random)
  c.granularity_level = 5;    // declarative filter language
  c.replayable_traces = false;  // their future work
  c.reveals_dependencies = false;
  c.analysis_tools = false;
  c.human_readable_output = false;  // binary
  c.accounts_skew_drift = false;    // no parallel awareness
  c.event_types = "File system operations";
  c.sees_mmap_io = true;  // VFS layer sees memory-mapped I/O
  return c;
}

bool Tracefs::supports_fs(fs::FsKind kind) const {
  switch (kind) {
    case fs::FsKind::kLocal:
    case fs::FsKind::kNfs:
      return true;
    case fs::FsKind::kParallel:
      return params_.enable_pfs_adaptation;
  }
  return false;
}

std::shared_ptr<interpose::VfsShim> Tracefs::mount(
    fs::VfsPtr inner, trace::SinkPtr sink, const sim::Cluster* cluster) const {
  if (!inner) {
    throw ConfigError("Tracefs::mount needs an inner file system");
  }
  if (!supports_fs(inner->kind())) {
    throw UnsupportedError(
        "tracefs is not compatible out of the box with the parallel file "
        "system (fstype " +
        inner->fstype() + ")");
  }
  return std::make_shared<interpose::VfsShim>(
      std::move(inner), std::move(sink), params_.shim, cluster,
      compile_tracefs_filter(params_.filter));
}

TraceRunResult Tracefs::trace(const sim::Cluster& cluster, const mpi::Job& job,
                              fs::VfsPtr vfs, const TraceJobOptions& options) {
  auto summary = std::make_shared<trace::SummarySink>();
  std::shared_ptr<trace::RankStreamSink> raw;
  std::vector<trace::SinkPtr> sinks{summary};
  if (options.store_raw_streams) {
    raw = std::make_shared<trace::RankStreamSink>();
    sinks.push_back(raw);
  }
  const auto shim =
      mount(std::move(vfs), std::make_shared<trace::MultiSink>(sinks), &cluster);

  mpi::RunOptions run_options;
  run_options.vfs = shim;
  run_options.startup = options.app_startup;
  run_options.cmdline = job.cmdline;

  mpi::Runtime runtime(cluster, run_options);
  TraceRunResult result;
  result.run = runtime.run(job.programs);
  // Unmount: drain the shim's per-rank batch buffers before reading sinks.
  shim->flush();
  result.apparent_elapsed = result.run.elapsed + params_.mount_setup;

  trace::TraceBundle& b = result.bundle;
  b.metadata["framework"] = name();
  b.metadata["application"] = job.cmdline;
  b.metadata["format"] = "binary";
  b.metadata["filter"] = params_.filter.empty() ? "all" : params_.filter;
  b.merge_summary(*summary);

  if (raw) {
    b.ranks = raw->take();
  }
  return result;
}

trace::TraceBundle Tracefs::anonymize(const trace::TraceBundle& bundle) const {
  anon::EncryptingAnonymizer anonymizer(params_.anonymize_fields,
                                        params_.passphrase);
  return anonymizer.apply(bundle);
}

std::vector<std::uint8_t> Tracefs::encode_output(
    const trace::TraceBundle& bundle) const {
  trace::EventBatch batch;
  for (const trace::RankStream& rs : bundle.ranks) {
    for (const trace::TraceEvent& ev : rs.events) {
      batch.append(ev);
    }
  }
  trace::BinaryOptions opts;
  opts.compress = params_.shim.compress;
  opts.checksum = true;
  opts.encrypt = params_.shim.encrypt;
  if (opts.encrypt) {
    opts.key = derive_key(params_.passphrase);
  }
  // IOTB3: the batch's string table is serialized once instead of repeating
  // every name/path/host per record, and compression and encryption apply
  // per block, so the output stays queryable through trace::BlockView.
  // The string table and block index stay plaintext (see tracefs.h).
  return trace::encode_binary_v3(batch, opts);
}

}  // namespace iotaxo::frameworks
