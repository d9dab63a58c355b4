#include "replay/replayer.h"

#include <utility>

#include "interpose/tracers.h"
#include "trace/sink.h"
#include "util/error.h"

namespace iotaxo::replay {

Replayer::Replayer(const sim::Cluster& cluster, fs::VfsPtr vfs)
    : cluster_(cluster), vfs_(std::move(vfs)) {
  if (!vfs_) {
    throw ConfigError("Replayer needs a file system");
  }
}

ReplayResult Replayer::replay(const trace::TraceBundle& original,
                              const ReplayOptions& options) {
  return run_programs(generate_pseudo_app(original, options.pseudo), options);
}

ReplayResult Replayer::replay(
    const trace::EventBatch& original,
    const std::vector<trace::DependencyEdge>& dependencies,
    const ReplayOptions& options) {
  return run_programs(generate_pseudo_app(original, dependencies,
                                          options.pseudo),
                      options);
}

ReplayResult Replayer::run_programs(const std::vector<mpi::Program>& programs,
                                    const ReplayOptions& options) {
  mpi::RunOptions run_options;
  run_options.vfs = vfs_;
  run_options.startup = options.startup;
  run_options.cmdline = "/pseudo_app.exe";

  auto vec_sink = std::make_shared<trace::VectorSink>();
  auto sum_sink = std::make_shared<trace::SummarySink>();
  std::shared_ptr<interpose::DynLibInterposer> capture;
  if (options.capture_trace) {
    auto multi = std::make_shared<trace::MultiSink>(
        std::vector<trace::SinkPtr>{vec_sink, sum_sink});
    capture = std::make_shared<interpose::DynLibInterposer>(
        multi, interpose::InterposeCosts{}, options.batch_capacity);
    run_options.observers.push_back(capture);
  }

  mpi::Runtime runtime(cluster_, run_options);
  ReplayResult result;
  result.run = runtime.run(programs);

  if (options.capture_trace) {
    trace::TraceBundle& b = result.bundle;
    b.metadata["application"] = "pseudo_app (replay)";
    b.metadata["sync"] =
        options.pseudo.sync == SyncStrategy::kBarriers      ? "barriers"
        : options.pseudo.sync == SyncStrategy::kDependencies ? "dependencies"
                                                              : "none";
    // Split the flat capture into per-rank streams.
    std::map<int, trace::RankStream> by_rank;
    for (const trace::TraceEvent& ev : vec_sink->events()) {
      trace::RankStream& rs = by_rank[ev.rank];
      rs.rank = ev.rank;
      rs.host = ev.host;
      rs.pid = ev.pid;
      if (ev.name == "MPI_Barrier") {
        b.barrier_events.push_back(ev);
      }
      rs.events.push_back(ev);
    }
    for (auto& [rank, rs] : by_rank) {
      b.ranks.push_back(std::move(rs));
    }
    b.merge_summary(*sum_sink);
  }
  return result;
}

analysis::FidelityReport Replayer::verify(const trace::TraceBundle& original,
                                          SimTime original_elapsed,
                                          const ReplayOptions& options) {
  ReplayResult r = replay(original, options);
  return analysis::compare_traces(original, r.bundle, original_elapsed,
                                  r.run.elapsed);
}

}  // namespace iotaxo::replay
