// Tests for the three I/O tracing frameworks: LANL-Trace, Tracefs, //TRACE.
#include <gtest/gtest.h>

#include <map>
#include <memory>
#include <string>
#include <vector>

#include "analysis/aggregate_timing.h"
#include "analysis/call_summary.h"
#include "anon/anonymizer.h"
#include "frameworks/lanl_trace.h"
#include "frameworks/partrace.h"
#include "frameworks/tracefs.h"
#include "fs/memfs.h"
#include "fs/nfs.h"
#include "pfs/pfs.h"
#include "trace/binary_format.h"
#include "util/error.h"
#include "workload/io_intensive.h"
#include "workload/mpi_io_test.h"
#include "workload/probe_app.h"

namespace iotaxo::frameworks {
namespace {

class FrameworksFixture : public ::testing::Test {
 protected:
  FrameworksFixture() : cluster_(make_params()) {}

  static sim::ClusterParams make_params() {
    sim::ClusterParams p;
    p.node_count = 8;
    return p;
  }

  [[nodiscard]] static mpi::Job small_parallel_job() {
    workload::MpiIoTestParams params;
    params.nranks = 8;
    params.block = 64 * kKiB;
    params.total_bytes = 16 * kMiB;
    return workload::make_mpi_io_test(params);
  }

  [[nodiscard]] static mpi::Job small_local_job() {
    workload::IoIntensiveParams params;
    params.nranks = 2;
    params.files_per_rank = 10;
    params.mmap_files_per_rank = 2;
    return workload::make_io_intensive(params);
  }

  sim::Cluster cluster_;
};

TEST_F(FrameworksFixture, InstallScores) {
  LanlTrace lanl;
  Tracefs tracefs;
  Partrace partrace;
  // Table 2: ease of installation 2 (Easy), 4 (Difficult), 2 (Easy).
  EXPECT_EQ(ease_of_install_score(lanl.install_profile()), 2);
  EXPECT_EQ(ease_of_install_score(tracefs.install_profile()), 4);
  EXPECT_EQ(ease_of_install_score(partrace.install_profile()), 2);
  // All three are passive.
  EXPECT_EQ(intrusiveness_score(lanl.install_profile()), 1);
  EXPECT_EQ(intrusiveness_score(tracefs.install_profile()), 1);
  EXPECT_EQ(intrusiveness_score(partrace.install_profile()), 1);
}

TEST_F(FrameworksFixture, FsSupportMatrix) {
  LanlTrace lanl;
  Tracefs tracefs;
  Partrace partrace;
  EXPECT_TRUE(lanl.supports_fs(fs::FsKind::kParallel));
  EXPECT_TRUE(partrace.supports_fs(fs::FsKind::kParallel));
  EXPECT_FALSE(tracefs.supports_fs(fs::FsKind::kParallel));
  EXPECT_TRUE(tracefs.supports_fs(fs::FsKind::kLocal));
  EXPECT_TRUE(tracefs.supports_fs(fs::FsKind::kNfs));

  TracefsParams adapted;
  adapted.enable_pfs_adaptation = true;
  EXPECT_TRUE(Tracefs(adapted).supports_fs(fs::FsKind::kParallel));
}

TEST_F(FrameworksFixture, LanlTraceProducesThreeOutputTypes) {
  LanlTrace lanl;
  TraceJobOptions options;
  options.store_raw_streams = true;
  const TraceRunResult result = lanl.trace(
      cluster_, small_parallel_job(), std::make_shared<pfs::Pfs>(), options);

  // 1. raw trace data, per node
  ASSERT_EQ(result.bundle.ranks.size(), 8u);
  EXPECT_GT(result.bundle.ranks[0].events.size(), 10u);

  // 2. aggregate timing information (renderable; includes barriers)
  ASSERT_FALSE(result.bundle.barrier_events.empty());
  const std::string timing = analysis::render_aggregate_timing(
      result.bundle.barrier_events, result.bundle.metadata.at("application"));
  EXPECT_NE(timing.find("Entered barrier at"), std::string::npos);
  EXPECT_NE(timing.find("host0.lanl.gov"), std::string::npos);

  // 3. call summary
  const std::string summary =
      analysis::render_call_summary(result.bundle);
  EXPECT_NE(summary.find("SYS_write"), std::string::npos);
  EXPECT_NE(summary.find("MPI_Barrier"), std::string::npos);
}

TEST_F(FrameworksFixture, LanlTraceClockProbesSupportSkewAccounting) {
  LanlTrace lanl;
  const TraceRunResult result = lanl.trace(
      cluster_, small_parallel_job(), std::make_shared<pfs::Pfs>(), {});
  // probe / barrier / probe before and after: 4 probes per rank.
  EXPECT_EQ(result.bundle.clock_probes.size(), 4u * 8u);
}

TEST_F(FrameworksFixture, LanlTraceStraceSeesOnlySyscalls) {
  LanlTraceParams params;
  params.mode = interpose::PtraceTracer::Mode::kStrace;
  LanlTrace strace_mode(params);
  TraceJobOptions options;
  options.store_raw_streams = true;
  const TraceRunResult result = strace_mode.trace(
      cluster_, small_parallel_job(), std::make_shared<pfs::Pfs>(), options);
  for (const trace::RankStream& rs : result.bundle.ranks) {
    for (const trace::TraceEvent& ev : rs.events) {
      EXPECT_EQ(ev.cls, trace::EventClass::kSyscall) << ev.name;
    }
  }
  EXPECT_EQ(strace_mode.capabilities().event_types, "System calls");
}

TEST_F(FrameworksFixture, LanlTraceApparentElapsedIncludesPostprocessing) {
  LanlTrace lanl;
  const TraceRunResult result = lanl.trace(
      cluster_, small_parallel_job(), std::make_shared<pfs::Pfs>(), {});
  EXPECT_GT(result.apparent_elapsed, result.run.elapsed);
}

TEST_F(FrameworksFixture, TracefsRefusesParallelFsOutOfTheBox) {
  Tracefs tracefs;
  EXPECT_THROW((void)tracefs.trace(cluster_, small_parallel_job(),
                                   std::make_shared<pfs::Pfs>(), {}),
               UnsupportedError);
  // With the adaptation shim it works (the paper's anticipated port).
  TracefsParams adapted;
  adapted.enable_pfs_adaptation = true;
  Tracefs ported(adapted);
  const TraceRunResult result = ported.trace(
      cluster_, small_parallel_job(), std::make_shared<pfs::Pfs>(), {});
  EXPECT_GT(result.bundle.total_events(), 0);
}

TEST_F(FrameworksFixture, TracefsWorksOnLocalAndNfs) {
  Tracefs tracefs;
  const TraceRunResult local = tracefs.trace(
      cluster_, small_local_job(), std::make_shared<fs::MemFs>(), {});
  EXPECT_GT(local.bundle.total_events(), 0);

  auto nfs = std::make_shared<fs::NfsFs>(std::make_shared<fs::MemFs>());
  const TraceRunResult remote =
      tracefs.trace(cluster_, small_local_job(), nfs, {});
  EXPECT_GT(remote.bundle.total_events(), 0);
}

TEST_F(FrameworksFixture, TracefsSeesMmapIoThatPtraceMisses) {
  Tracefs tracefs;
  TraceJobOptions options;
  options.store_raw_streams = true;
  const TraceRunResult vfs_view = tracefs.trace(
      cluster_, small_local_job(), std::make_shared<fs::MemFs>(), options);
  EXPECT_TRUE(vfs_view.bundle.call_summary.contains("vfs_mmap_write"));

  LanlTrace lanl;
  const TraceRunResult ptrace_view = lanl.trace(
      cluster_, small_local_job(), std::make_shared<fs::MemFs>(), options);
  for (const auto& [name, entry] : ptrace_view.bundle.call_summary) {
    EXPECT_EQ(name.find("mmap_write"), std::string::npos);
  }
}

TEST_F(FrameworksFixture, TracefsFilterReducesEventsAndOverhead) {
  TracefsParams all;
  TracefsParams meta_only;
  meta_only.filter = "metadata";
  Tracefs full(all);
  Tracefs filtered(meta_only);

  const TraceRunResult everything = full.trace(
      cluster_, small_local_job(), std::make_shared<fs::MemFs>(), {});
  const TraceRunResult metadata = filtered.trace(
      cluster_, small_local_job(), std::make_shared<fs::MemFs>(), {});
  EXPECT_LT(metadata.bundle.total_events(), everything.bundle.total_events());
  EXPECT_LE(metadata.run.elapsed, everything.run.elapsed);
}

TEST_F(FrameworksFixture, TracefsAnonymizationScrubs) {
  Tracefs tracefs;
  TraceJobOptions options;
  options.store_raw_streams = true;
  workload::IoIntensiveParams params;
  params.nranks = 1;
  params.files_per_rank = 5;
  params.root = "/secret_project/data";
  const TraceRunResult result =
      tracefs.trace(cluster_, workload::make_io_intensive(params),
                    std::make_shared<fs::MemFs>(), options);
  EXPECT_TRUE(anon::leaks_any(result.bundle, {"secret_project"}));
  const auto scrubbed = tracefs.anonymize_bundle(result.bundle);
  ASSERT_TRUE(scrubbed.has_value());
  EXPECT_FALSE(anon::leaks_any(*scrubbed, {"secret_project"}));
}

TEST_F(FrameworksFixture, TracefsNativeOutputIsBinary) {
  Tracefs tracefs;
  TraceJobOptions options;
  options.store_raw_streams = true;
  const TraceRunResult result = tracefs.trace(
      cluster_, small_local_job(), std::make_shared<fs::MemFs>(), options);
  const auto blob = tracefs.export_native(result.bundle);
  EXPECT_TRUE(trace::looks_binary(blob));
  // And it decodes back to the same number of events.
  long long raw_events = 0;
  for (const trace::RankStream& rs : result.bundle.ranks) {
    raw_events += static_cast<long long>(rs.events.size());
  }
  EXPECT_EQ(static_cast<long long>(trace::decode_binary(blob).size()),
            raw_events);
}

TEST_F(FrameworksFixture, LanlTraceNativeOutputIsText) {
  LanlTrace lanl;
  TraceJobOptions options;
  options.store_raw_streams = true;
  const TraceRunResult result = lanl.trace(
      cluster_, small_parallel_job(), std::make_shared<pfs::Pfs>(), options);
  EXPECT_FALSE(trace::looks_binary(lanl.export_native(result.bundle)));
}

TEST_F(FrameworksFixture, PartraceDiscoversDependencies) {
  PartraceParams params;
  params.sampling = 1.0;
  Partrace partrace(params);
  workload::ProbeAppParams app;
  app.nranks = 8;
  app.phases = 16;
  const TraceRunResult result =
      partrace.trace(cluster_, workload::make_probe_app(app),
                     std::make_shared<pfs::Pfs>(), {});
  ASSERT_FALSE(result.bundle.dependencies.empty());
  std::set<int> sources;
  for (const trace::DependencyEdge& e : result.bundle.dependencies) {
    EXPECT_GE(e.from_rank, 0);
    EXPECT_LT(e.from_rank, 8);
    EXPECT_NE(e.from_rank, e.to_rank);
    sources.insert(e.from_rank);
  }
  // Full sampling with phases >= nranks rotates through every node.
  EXPECT_GE(sources.size(), 6u);
}

TEST_F(FrameworksFixture, PartraceSamplingZeroFindsNothingAndCostsLittle) {
  PartraceParams off;
  off.sampling = 0.0;
  Partrace unthrottled(off);
  workload::ProbeAppParams app;
  app.nranks = 8;
  app.phases = 16;
  const mpi::Job job = workload::make_probe_app(app);
  const TraceRunResult quiet =
      unthrottled.trace(cluster_, job, std::make_shared<pfs::Pfs>(), {});
  EXPECT_TRUE(quiet.bundle.dependencies.empty());

  PartraceParams on;
  on.sampling = 1.0;
  Partrace throttled(on);
  const TraceRunResult loud =
      throttled.trace(cluster_, job, std::make_shared<pfs::Pfs>(), {});
  EXPECT_GT(loud.run.elapsed, quiet.run.elapsed);
}

TEST_F(FrameworksFixture, PartraceOverheadGrowsWithSampling) {
  workload::ProbeAppParams app;
  app.nranks = 8;
  app.phases = 16;
  const mpi::Job job = workload::make_probe_app(app);
  SimTime prev = 0;
  for (const double s : {0.0, 0.5, 1.0}) {
    PartraceParams params;
    params.sampling = s;
    Partrace partrace(params);
    const TraceRunResult r =
        partrace.trace(cluster_, job, std::make_shared<pfs::Pfs>(), {});
    EXPECT_GE(r.run.elapsed, prev);
    prev = r.run.elapsed;
  }
}

TEST_F(FrameworksFixture, PartraceRejectsBadSampling) {
  PartraceParams params;
  params.sampling = 1.5;
  EXPECT_THROW(Partrace bad(params), ConfigError);
}

TEST_F(FrameworksFixture, ThrottleEnginePhaseRotation) {
  ThrottleEngine engine(4, 0.5, from_millis(1.0));
  // ceil(0.5 * 4) = 2 sampled nodes: phases 0,1 throttle ranks 0,1;
  // phases 2,3 throttle nobody.
  EXPECT_EQ(engine.throttled_rank_for_phase(0), 0);
  EXPECT_EQ(engine.throttled_rank_for_phase(1), 1);
  EXPECT_EQ(engine.throttled_rank_for_phase(2), -1);
  EXPECT_EQ(engine.throttled_rank_for_phase(3), -1);
  EXPECT_EQ(engine.throttled_rank_for_phase(4), 0);
}

TEST_F(FrameworksFixture, CapabilitiesMatchTable2) {
  LanlTrace lanl;
  Tracefs tracefs;
  Partrace partrace;
  EXPECT_EQ(lanl.capabilities().anonymization_level, 0);
  EXPECT_EQ(tracefs.capabilities().anonymization_level, 4);
  EXPECT_EQ(partrace.capabilities().anonymization_level, 0);

  EXPECT_FALSE(lanl.capabilities().replayable_traces);
  EXPECT_FALSE(tracefs.capabilities().replayable_traces);
  EXPECT_TRUE(partrace.capabilities().replayable_traces);

  EXPECT_TRUE(lanl.capabilities().accounts_skew_drift);
  EXPECT_FALSE(tracefs.capabilities().accounts_skew_drift);
  EXPECT_FALSE(partrace.capabilities().accounts_skew_drift);

  EXPECT_TRUE(lanl.capabilities().human_readable_output);
  EXPECT_FALSE(tracefs.capabilities().human_readable_output);
  EXPECT_TRUE(partrace.capabilities().human_readable_output);
}

TEST_F(FrameworksFixture, UntracedBaselineIsFastest) {
  const mpi::Job job = small_parallel_job();
  const mpi::RunResult baseline =
      run_untraced(cluster_, job, std::make_shared<pfs::Pfs>());
  LanlTrace lanl;
  const TraceRunResult traced =
      lanl.trace(cluster_, job, std::make_shared<pfs::Pfs>(), {});
  EXPECT_GT(traced.run.elapsed, baseline.elapsed);
  EXPECT_GT(traced.apparent_elapsed, traced.run.elapsed);
}

// ------------------------------------------------------ capture identity
//
// Each framework's bundle must equal a naive reference: the same capture
// mechanism, at the same batch capacity, delivering into one flat
// VectorSink whose events are then grouped by rank the obvious way.

struct Reference {
  std::vector<trace::RankStream> ranks;
  std::vector<trace::TraceEvent> barriers;  // MPI_Barrier, delivery order
  std::map<std::string, trace::SummarySink::Entry> summary;
};

[[nodiscard]] Reference group_by_rank(
    const std::vector<trace::TraceEvent>& flat) {
  Reference ref;
  std::map<int, trace::RankStream> by_rank;
  trace::SummarySink summary;
  for (const trace::TraceEvent& ev : flat) {
    trace::RankStream& rs = by_rank[ev.rank];
    rs.rank = ev.rank;
    rs.host = ev.host;
    rs.pid = ev.pid;
    rs.events.push_back(ev);
    if (ev.name == "MPI_Barrier") {
      ref.barriers.push_back(ev);
    }
    summary.on_event(ev);
  }
  for (auto& [rank, rs] : by_rank) {
    ref.ranks.push_back(std::move(rs));
  }
  ref.summary = summary.entries();
  return ref;
}

void expect_same_streams(const trace::TraceBundle& b, const Reference& ref) {
  ASSERT_EQ(b.ranks.size(), ref.ranks.size());
  for (std::size_t i = 0; i < ref.ranks.size(); ++i) {
    EXPECT_EQ(b.ranks[i].rank, ref.ranks[i].rank) << i;
    EXPECT_EQ(b.ranks[i].host, ref.ranks[i].host) << i;
    EXPECT_EQ(b.ranks[i].pid, ref.ranks[i].pid) << i;
    EXPECT_TRUE(b.ranks[i].events == ref.ranks[i].events) << "rank " << i;
  }
  EXPECT_EQ(b.call_summary, ref.summary);
}

[[nodiscard]] mpi::RunOptions run_options(fs::VfsPtr vfs, const mpi::Job& job,
                                          SimTime framework_startup) {
  mpi::RunOptions options;
  options.vfs = std::move(vfs);
  options.startup = TraceJobOptions{}.app_startup + framework_startup;
  options.cmdline = job.cmdline;
  return options;
}

TEST_F(FrameworksFixture, LanlTraceStreamsEqualNaiveReference) {
  using Mode = interpose::PtraceTracer::Mode;
  const mpi::Job job = small_parallel_job();
  for (const Mode mode : {Mode::kLtrace, Mode::kStrace}) {
    for (const std::size_t capacity : {std::size_t{1}, std::size_t{256}}) {
      SCOPED_TRACE(::testing::Message() << "mode " << static_cast<int>(mode)
                                        << " capacity " << capacity);
      LanlTraceParams params;
      params.mode = mode;
      params.batch_capacity = capacity;
      const TraceRunResult r = LanlTrace(params).trace(
          cluster_, job, std::make_shared<pfs::Pfs>(), {});

      auto flat = std::make_shared<trace::VectorSink>();
      auto tracer = std::make_shared<interpose::PtraceTracer>(
          mode, flat, params.costs, capacity);
      auto collector = std::make_shared<interpose::ProbeCollector>();
      mpi::RunOptions options = run_options(std::make_shared<pfs::Pfs>(), job,
                                            params.wrapper_startup);
      options.observers = {tracer, collector};
      mpi::Runtime runtime(cluster_, options);
      (void)runtime.run(LanlTrace::wrap_job(job).programs);

      ASSERT_EQ(r.bundle.ranks.size(), 8u);
      expect_same_streams(r.bundle, group_by_rank(flat->events()));
      EXPECT_TRUE(r.bundle.barrier_events == collector->barriers());
    }
  }
}

TEST_F(FrameworksFixture, PartraceStreamsAndBarriersEqualNaiveReference) {
  const mpi::Job job = small_parallel_job();
  for (const std::size_t capacity : {std::size_t{1}, std::size_t{256}}) {
    SCOPED_TRACE(::testing::Message() << "capacity " << capacity);
    PartraceParams params;
    params.sampling = 0.5;
    params.batch_capacity = capacity;
    const TraceRunResult r = Partrace(params).trace(
        cluster_, job, std::make_shared<pfs::Pfs>(), {});

    auto flat = std::make_shared<trace::VectorSink>();
    auto interposer = std::make_shared<interpose::DynLibInterposer>(
        flat, params.costs, capacity);
    auto engine = std::make_shared<ThrottleEngine>(
        job.nranks(), params.sampling, params.throttle_delay);
    mpi::RunOptions options = run_options(std::make_shared<pfs::Pfs>(), job,
                                          params.preload_setup);
    options.observers = {interposer, engine};
    options.throttler = engine;
    mpi::Runtime runtime(cluster_, options);
    (void)runtime.run(job.programs);

    const Reference ref = group_by_rank(flat->events());
    expect_same_streams(r.bundle, ref);
    ASSERT_FALSE(ref.barriers.empty());
    EXPECT_TRUE(r.bundle.barrier_events == ref.barriers);
    ASSERT_FALSE(engine->edges().empty());
    EXPECT_EQ(r.bundle.dependencies, engine->edges());
  }
}

TEST_F(FrameworksFixture, TracefsStreamsEqualNaiveReference) {
  const mpi::Job job = small_parallel_job();
  for (const std::size_t capacity : {std::size_t{1}, std::size_t{256}}) {
    SCOPED_TRACE(::testing::Message() << "capacity " << capacity);
    TracefsParams params;
    params.shim.batch_capacity = capacity;
    Tracefs tracefs(params);
    const TraceRunResult r =
        tracefs.trace(cluster_, job, std::make_shared<fs::MemFs>(), {});

    auto flat = std::make_shared<trace::VectorSink>();
    const auto shim =
        tracefs.mount(std::make_shared<fs::MemFs>(), flat, &cluster_);
    mpi::Runtime runtime(cluster_, run_options(shim, job, 0));
    (void)runtime.run(job.programs);
    shim->flush();

    ASSERT_EQ(r.bundle.ranks.size(), 8u);
    expect_same_streams(r.bundle, group_by_rank(flat->events()));
  }
}

}  // namespace
}  // namespace iotaxo::frameworks
