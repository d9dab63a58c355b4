// Tests for pseudo-application generation and replay: op-mix preservation,
// fidelity under different synchronization strategies, dependency-driven
// sync.
#include <gtest/gtest.h>

#include "frameworks/lanl_trace.h"
#include "frameworks/partrace.h"
#include "pfs/pfs.h"
#include "replay/pseudo_app.h"
#include "replay/replayer.h"
#include "sim/cluster.h"
#include "trace/binary_format.h"
#include "trace/record_view.h"
#include "util/error.h"
#include "workload/probe_app.h"

namespace iotaxo::replay {
namespace {

class ReplayFixture : public ::testing::Test {
 protected:
  ReplayFixture() : cluster_(make_params()) {}

  static sim::ClusterParams make_params() {
    sim::ClusterParams p;
    p.node_count = 8;
    return p;
  }

  [[nodiscard]] frameworks::TraceRunResult capture_with_partrace(
      double sampling = 1.0) {
    frameworks::PartraceParams params;
    params.sampling = sampling;
    frameworks::Partrace partrace(params);
    workload::ProbeAppParams app;
    app.nranks = 8;
    app.phases = 16;
    frameworks::TraceJobOptions options;
    options.store_raw_streams = true;
    return partrace.trace(cluster_, workload::make_probe_app(app),
                          std::make_shared<pfs::Pfs>(), options);
  }

  sim::Cluster cluster_;
};

TEST_F(ReplayFixture, RequiresRawStreams) {
  trace::TraceBundle empty;
  EXPECT_THROW((void)generate_pseudo_app(empty), FormatError);
}

TEST_F(ReplayFixture, PseudoAppReproducesOpStructure) {
  const auto traced = capture_with_partrace();
  PseudoAppOptions options;
  options.sync = SyncStrategy::kBarriers;
  const auto programs = generate_pseudo_app(traced.bundle, options);
  ASSERT_EQ(programs.size(), 8u);

  // Count write ops per rank: probe app writes 16 phases * 4 shared blocks
  // + 16 * 2 posix blocks (+ 2 mmap writes invisible to the capture).
  for (const mpi::Program& prog : programs) {
    long long writes = 0;
    long long opens = 0;
    long long barriers = 0;
    for (const mpi::Op& op : prog) {
      if (op.type == mpi::OpType::kWriteBlocks) {
        writes += op.count;
      }
      if (op.type == mpi::OpType::kOpen) {
        ++opens;
      }
      if (op.type == mpi::OpType::kBarrier) {
        ++barriers;
      }
    }
    EXPECT_EQ(writes, 16 * 4 + 16 * 2);
    EXPECT_EQ(opens, 2);
    EXPECT_GE(barriers, 16);
  }
}

TEST_F(ReplayFixture, StridedHintInferredFromOffsets) {
  const auto traced = capture_with_partrace();
  const auto programs = generate_pseudo_app(traced.bundle);
  bool found_strided_open = false;
  for (const mpi::Op& op : programs[0]) {
    if (op.type == mpi::OpType::kOpen &&
        op.hint == fs::AccessHint::kStrided) {
      found_strided_open = true;
    }
  }
  EXPECT_TRUE(found_strided_open)
      << "shared-file strided access must be re-detected from the trace";
}

TEST_F(ReplayFixture, BarrierSyncReplayIsFaithful) {
  const auto traced = capture_with_partrace();
  Replayer replayer(cluster_, std::make_shared<pfs::Pfs>());
  ReplayOptions options;
  options.pseudo.sync = SyncStrategy::kBarriers;
  const analysis::FidelityReport report =
      replayer.verify(traced.bundle, traced.run.elapsed, options);
  EXPECT_LT(report.runtime_error, 0.15);
  EXPECT_LT(report.op_mix_error, 0.05);
  EXPECT_NEAR(report.byte_ratio, 1.0, 0.05);
}

TEST_F(ReplayFixture, DependencySyncWorksWithFullMap) {
  const auto traced = capture_with_partrace(1.0);
  ASSERT_FALSE(traced.bundle.dependencies.empty());
  Replayer replayer(cluster_, std::make_shared<pfs::Pfs>());
  ReplayOptions options;
  options.pseudo.sync = SyncStrategy::kDependencies;
  const ReplayResult result = replayer.replay(traced.bundle, options);
  EXPECT_GT(result.run.elapsed, 0);
  // The replay reproduces the captured I/O; only the memory-mapped writes
  // (invisible to //TRACE's interposition) are missing.
  const double ratio = static_cast<double>(result.run.bytes_written) /
                       static_cast<double>(traced.run.bytes_written);
  EXPECT_GT(ratio, 0.98);
  EXPECT_LE(ratio, 1.0);
}

TEST_F(ReplayFixture, FidelityDegradesWithoutDependencies) {
  const auto traced = capture_with_partrace(1.0);

  auto runtime_error_with = [&](SyncStrategy sync,
                                const trace::TraceBundle& bundle) {
    Replayer replayer(cluster_, std::make_shared<pfs::Pfs>());
    ReplayOptions options;
    options.pseudo.sync = sync;
    return replayer.verify(bundle, traced.run.elapsed, options).runtime_error;
  };

  const double with_deps =
      runtime_error_with(SyncStrategy::kDependencies, traced.bundle);

  trace::TraceBundle stripped = traced.bundle;
  stripped.dependencies.clear();  // nothing was discovered
  const double without_deps =
      runtime_error_with(SyncStrategy::kDependencies, stripped);

  EXPECT_LT(with_deps, without_deps)
      << "a complete dependency map must replay more faithfully than none";
}

TEST_F(ReplayFixture, CapturedReplayTraceHasRankStreams) {
  const auto traced = capture_with_partrace();
  Replayer replayer(cluster_, std::make_shared<pfs::Pfs>());
  ReplayOptions options;
  options.capture_trace = true;
  const ReplayResult result = replayer.replay(traced.bundle, options);
  EXPECT_EQ(result.bundle.ranks.size(), 8u);
  EXPECT_GT(result.bundle.total_events(), 0);
}

TEST_F(ReplayFixture, GapQuantizationInsertsThinkTime) {
  // Build a tiny synthetic trace with a large gap between two writes.
  trace::TraceBundle bundle;
  trace::RankStream rs;
  rs.rank = 0;
  trace::TraceEvent open = trace::make_libcall(
      "open", {"/f", "577", "0666"}, 5);
  open.cls = trace::EventClass::kLibraryCall;
  open.path = "/f";
  open.local_start = kSecond;
  open.duration = kMillisecond;
  rs.events.push_back(open);

  trace::TraceEvent w1 = trace::make_libcall("write", {"5", "1024", "0"}, 1024);
  w1.fd = 5;
  w1.bytes = 1024;
  w1.offset = 0;
  w1.local_start = kSecond + 2 * kMillisecond;
  w1.duration = kMillisecond;
  rs.events.push_back(w1);

  trace::TraceEvent w2 = w1;
  w2.offset = 1024;
  w2.args = {"5", "1024", "1024"};
  w2.local_start = kSecond + 500 * kMillisecond;  // 497 ms think time
  rs.events.push_back(w2);
  bundle.ranks.push_back(rs);

  const auto programs = generate_pseudo_app(bundle);
  SimTime total_compute = 0;
  for (const mpi::Op& op : programs[0]) {
    if (op.type == mpi::OpType::kCompute) {
      total_compute += op.duration;
    }
  }
  EXPECT_GT(total_compute, from_millis(400.0));
}

TEST_F(ReplayFixture, LanlTraceRawStreamsAreReplayableToo) {
  // The paper: "it is trivial to imagine a replayer being built that reads
  // and replays the raw trace files" — we built it.
  frameworks::LanlTrace lanl;
  workload::ProbeAppParams app;
  app.nranks = 4;
  app.phases = 4;
  frameworks::TraceJobOptions options;
  options.store_raw_streams = true;
  const auto traced = lanl.trace(cluster_, workload::make_probe_app(app),
                                 std::make_shared<pfs::Pfs>(), options);

  Replayer replayer(cluster_, std::make_shared<pfs::Pfs>());
  ReplayOptions ropts;
  ropts.pseudo.sync = SyncStrategy::kBarriers;
  const ReplayResult result = replayer.replay(traced.bundle, ropts);
  EXPECT_GT(result.run.bytes_written, 0);
}

// A decoded container must generate exactly the programs the capture batch
// generates: same ops in the same order, field for field.
void expect_programs_equal(const std::vector<mpi::Program>& a,
                           const std::vector<mpi::Program>& b) {
  ASSERT_EQ(a.size(), b.size());
  for (std::size_t r = 0; r < a.size(); ++r) {
    ASSERT_EQ(a[r].size(), b[r].size()) << "rank " << r;
    for (std::size_t i = 0; i < a[r].size(); ++i) {
      const mpi::Op& x = a[r][i];
      const mpi::Op& y = b[r][i];
      EXPECT_EQ(x.type, y.type) << "rank " << r << " op " << i;
      EXPECT_EQ(x.api, y.api);
      EXPECT_EQ(x.path, y.path);
      EXPECT_EQ(x.slot, y.slot);
      EXPECT_EQ(x.block, y.block);
      EXPECT_EQ(x.count, y.count);
      EXPECT_EQ(x.start_offset, y.start_offset);
      EXPECT_EQ(x.stride, y.stride);
      EXPECT_EQ(x.duration, y.duration);
      EXPECT_EQ(x.peer, y.peer);
      EXPECT_EQ(x.tag, y.tag);
      EXPECT_EQ(x.label, y.label);
    }
  }
}

TEST_F(ReplayFixture, DecodedContainerReplaysLikeTheBatch) {
  // A container replays through decode_binary_batch and the batch
  // overloads: the generated programs and the replay itself match the
  // capture batch they were encoded from.
  const frameworks::TraceRunResult result = capture_with_partrace();
  trace::EventBatch batch;
  for (const trace::RankStream& rs : result.bundle.ranks) {
    for (const trace::TraceEvent& ev : rs.events) {
      batch.append(ev);
    }
  }
  trace::BinaryOptions options;
  options.compress = true;
  const trace::EventBatch decoded =
      trace::decode_binary_batch(trace::encode_binary_v3(batch, options));

  expect_programs_equal(
      generate_pseudo_app(batch, result.bundle.dependencies),
      generate_pseudo_app(decoded, result.bundle.dependencies));
  Replayer batch_replayer(cluster_, std::make_shared<pfs::Pfs>());
  const ReplayResult from_batch =
      batch_replayer.replay(batch, result.bundle.dependencies);
  Replayer decoded_replayer(cluster_, std::make_shared<pfs::Pfs>());
  const ReplayResult from_decoded =
      decoded_replayer.replay(decoded, result.bundle.dependencies);
  EXPECT_EQ(from_batch.run.elapsed, from_decoded.run.elapsed);
  EXPECT_EQ(from_batch.run.bytes_written, from_decoded.run.bytes_written);
  EXPECT_EQ(from_batch.bundle.total_events(),
            from_decoded.bundle.total_events());

  // An empty container decodes to an empty batch, which generation refuses.
  EXPECT_THROW((void)generate_pseudo_app(
                   trace::decode_binary_batch(
                       trace::encode_binary_v3(trace::EventBatch{}, {})),
                   {}),
               FormatError);
}

}  // namespace
}  // namespace iotaxo::replay
