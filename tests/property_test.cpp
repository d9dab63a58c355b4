// Property-based tests over randomized inputs: format round-trips on
// arbitrary event streams, runtime determinism invariants, coalescing
// signature preservation, filter-language algebraic identities, and
// anonymizer idempotence.
#include <gtest/gtest.h>

#include "anon/anonymizer.h"
#include "frameworks/tracefs_filter.h"
#include "fs/memfs.h"
#include "mpi/runtime.h"
#include "pfs/pfs.h"
#include "replay/pseudo_app.h"
#include "sim/cluster.h"
#include "trace/binary_format.h"
#include "trace/text_format.h"
#include "util/rng.h"
#include "util/strings.h"
#include "workload/mpi_io_test.h"

namespace iotaxo {
namespace {

using trace::EventClass;
using trace::TraceEvent;

/// Generate a random but *well-formed* event stream (the kind any of our
/// tracers could emit).
[[nodiscard]] std::vector<TraceEvent> random_stream(Rng& rng, int n) {
  std::vector<TraceEvent> events;
  events.reserve(static_cast<std::size_t>(n));
  SimTime t = 1159808385LL * kSecond;
  int next_fd = 3;
  std::vector<int> open_fds;

  for (int i = 0; i < n; ++i) {
    t += rng.uniform(10, 500000) * kMicrosecond / 100;
    const int kind = static_cast<int>(rng.uniform(0, 5));
    TraceEvent ev;
    ev.local_start = t;
    ev.duration = rng.uniform(1, 40000) * kMicrosecond / 10;
    ev.rank = 7;
    ev.pid = 10378;
    ev.host = "host13.lanl.gov";
    switch (kind) {
      case 0: {  // open
        const int fd = next_fd++;
        open_fds.push_back(fd);
        ev.cls = EventClass::kSyscall;
        ev.name = "SYS_open";
        ev.path = "/data/f" + rng.token(6);
        ev.args = {ev.path, "577", "0666"};
        ev.ret = fd;
        ev.fd = fd;
        break;
      }
      case 1:
      case 2: {  // write / read
        if (open_fds.empty()) {
          --i;
          continue;
        }
        const int fd =
            open_fds[static_cast<std::size_t>(rng.uniform(
                0, static_cast<std::int64_t>(open_fds.size()) - 1))];
        const Bytes bytes = rng.uniform(1, 1 << 20);
        const Bytes offset = rng.uniform(0, 1 << 30);
        ev.cls = EventClass::kSyscall;
        ev.name = kind == 1 ? "SYS_write" : "SYS_read";
        ev.args = {strprintf("%d", fd),
                   strprintf("%lld", static_cast<long long>(bytes)),
                   strprintf("%lld", static_cast<long long>(offset))};
        ev.ret = bytes;
        ev.fd = fd;
        ev.bytes = bytes;
        ev.offset = offset;
        break;
      }
      case 3: {  // barrier
        ev.cls = EventClass::kLibraryCall;
        ev.name = "MPI_Barrier";
        ev.args = {"MPI_COMM_WORLD"};
        ev.path = "phase_" + rng.token(3);
        break;
      }
      default: {  // stat
        ev.cls = EventClass::kSyscall;
        ev.name = "SYS_stat";
        ev.path = "/data/s" + rng.token(5);
        ev.args = {ev.path};
        ev.ret = rng.uniform(0, 1 << 16);
        break;
      }
    }
    events.push_back(std::move(ev));
  }
  return events;
}

class StreamSeeds : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(StreamSeeds, BinaryRoundTripIsLossless) {
  Rng rng(GetParam());
  const auto events = random_stream(rng, 200);
  for (const int mask : {0, 1, 3, 7, 15}) {
    trace::BinaryOptions options;
    options.compress = (mask & 1) != 0;
    options.encrypt = (mask & 2) != 0;
    options.checksum = (mask & 4) != 0;
    options.project = (mask & 8) != 0;
    if (options.encrypt) {
      options.key = derive_key("prop");
    }
    const auto blob = trace::encode_binary_v3(events, options, 64);
    const auto decoded = trace::decode_binary(
        blob, options.encrypt ? options.key : std::nullopt);
    ASSERT_EQ(decoded.size(), events.size());
    for (std::size_t i = 0; i < events.size(); ++i) {
      EXPECT_EQ(decoded[i], events[i]) << "event " << i << " mask " << mask;
    }
  }
}

TEST_P(StreamSeeds, TextRoundTripPreservesReplaySemantics) {
  Rng rng(GetParam() ^ 0xABCD);
  const auto events = random_stream(rng, 150);
  trace::TextTraceWriter::StreamMeta meta{"host13.lanl.gov", 7, 10378};
  const auto parsed =
      trace::TextTraceParser::parse(trace::TextTraceWriter::render(meta, events));
  ASSERT_EQ(parsed.events.size(), events.size());
  for (std::size_t i = 0; i < events.size(); ++i) {
    const TraceEvent& o = events[i];
    const TraceEvent& p = parsed.events[i];
    EXPECT_EQ(p.cls, o.cls);
    EXPECT_EQ(p.name, o.name);
    EXPECT_EQ(p.ret, o.ret);
    EXPECT_EQ(p.fd, o.fd);
    EXPECT_EQ(p.bytes, o.bytes);
    EXPECT_EQ(p.path, o.path);
    // Timestamps survive to microsecond precision (ltrace's own precision).
    EXPECT_LE(std::llabs(p.local_start - o.local_start), 1000);
  }
}

TEST_P(StreamSeeds, AnonymizationIsIdempotentAndLeakFree) {
  Rng rng(GetParam() ^ 0x5151);
  trace::TraceBundle bundle;
  trace::RankStream rs;
  rs.rank = 7;
  rs.host = "host13.lanl.gov";
  rs.events = random_stream(rng, 100);
  bundle.ranks.push_back(rs);

  std::vector<std::string> secrets;
  for (const TraceEvent& ev : bundle.ranks[0].events) {
    if (!ev.path.empty()) {
      secrets.push_back(ev.path);
    }
  }
  ASSERT_FALSE(secrets.empty());

  anon::RandomizingAnonymizer anonymizer(anon::FieldPolicy{}, GetParam());
  const trace::TraceBundle once = anonymizer.apply(bundle);
  EXPECT_FALSE(anon::leaks_any(once, secrets));

  // Scrubbing an already-scrubbed bundle preserves event structure (counts,
  // classes, sizes): anonymization is structure-preserving.
  const trace::TraceBundle twice = anonymizer.apply(once);
  ASSERT_EQ(twice.ranks[0].events.size(), bundle.ranks[0].events.size());
  for (std::size_t i = 0; i < twice.ranks[0].events.size(); ++i) {
    EXPECT_EQ(twice.ranks[0].events[i].cls, bundle.ranks[0].events[i].cls);
    EXPECT_EQ(twice.ranks[0].events[i].bytes, bundle.ranks[0].events[i].bytes);
    EXPECT_EQ(twice.ranks[0].events[i].ret, bundle.ranks[0].events[i].ret);
  }
}

TEST_P(StreamSeeds, CoalescePreservesIoSignature) {
  Rng rng(GetParam() ^ 0xC0A1);
  // Random program of writes with varying offsets/blocks.
  mpi::Program prog;
  Bytes offset = 0;
  for (int i = 0; i < 120; ++i) {
    mpi::Op op;
    op.type = mpi::OpType::kWriteBlocks;
    op.slot = 0;
    op.block = (1 + rng.uniform(0, 3)) * 32 * kKiB;
    op.count = 1;
    if (rng.chance(0.7)) {
      offset += op.block;  // often contiguous
    } else {
      offset += rng.uniform(1, 64) * 32 * kKiB;
    }
    op.start_offset = offset;
    prog.push_back(op);
    if (rng.chance(0.1)) {
      mpi::Op barrier;
      barrier.type = mpi::OpType::kBarrier;
      prog.push_back(barrier);
    }
  }
  const mpi::Program merged = replay::coalesce_program(prog);
  EXPECT_LE(merged.size(), prog.size());

  // Expand both programs to (offset, bytes) lists — must be identical.
  auto expand = [](const mpi::Program& p) {
    std::vector<std::pair<Bytes, Bytes>> extents;
    for (const mpi::Op& op : p) {
      if (op.type != mpi::OpType::kWriteBlocks) {
        continue;
      }
      const Bytes stride = op.stride == 0 ? op.block : op.stride;
      for (long long i = 0; i < op.count; ++i) {
        extents.emplace_back(op.start_offset + i * stride, op.block);
      }
    }
    return extents;
  };
  EXPECT_EQ(expand(merged), expand(prog));
}

TEST_P(StreamSeeds, FilterAlgebraHolds) {
  Rng rng(GetParam() ^ 0xF11E);
  const auto events = random_stream(rng, 100);
  const auto set_filter =
      frameworks::compile_tracefs_filter("op in {open, write, stat}");
  const auto or_filter = frameworks::compile_tracefs_filter(
      "op == open or op == write or op == stat");
  const auto all = frameworks::compile_tracefs_filter("all");
  const auto not_none = frameworks::compile_tracefs_filter("not none");
  const auto de_morgan_a = frameworks::compile_tracefs_filter(
      "not (op == write or uid == 0)");
  const auto de_morgan_b = frameworks::compile_tracefs_filter(
      "not op == write and not uid == 0");
  for (TraceEvent ev : events) {
    ev.cls = EventClass::kFsOperation;
    ev.name = "vfs_" + std::string(ev.name == "MPI_Barrier" ? "fsync"
                                    : ev.name == "SYS_open"  ? "open"
                                    : ev.name == "SYS_write" ? "write"
                                    : ev.name == "SYS_read"  ? "read"
                                                              : "stat");
    EXPECT_EQ(set_filter(ev), or_filter(ev));
    EXPECT_EQ(all(ev), not_none(ev));
    EXPECT_EQ(de_morgan_a(ev), de_morgan_b(ev));
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, StreamSeeds,
                         ::testing::Values(1, 2, 17, 99, 4242, 0xBEEF,
                                           987654321));

class DeterminismSeeds : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(DeterminismSeeds, RuntimeElapsedInvariantToObserverOrder) {
  sim::ClusterParams cparams;
  cparams.node_count = 4;
  cparams.seed = GetParam();
  const sim::Cluster cluster(cparams);

  std::vector<mpi::Program> job;
  for (int r = 0; r < 4; ++r) {
    mpi::ScriptBuilder b;
    b.open(0, strprintf("/pfs/f%d", r), fs::OpenMode::write_create());
    b.write_blocks(0, 128 * kKiB, 16);
    b.barrier("m");
    b.close(0);
    job.push_back(std::move(b).build());
  }

  class FixedCost : public mpi::IoObserver {
   public:
    explicit FixedCost(SimTime cost) : cost_(cost) {}
    SimTime on_event(const TraceEvent& ev) override {
      return ev.cls == EventClass::kSyscall ? cost_ : 0;
    }

   private:
    SimTime cost_;
  };

  auto run_with = [&](bool swap) {
    auto a = std::make_shared<FixedCost>(from_micros(100.0));
    auto b = std::make_shared<FixedCost>(from_micros(50.0));
    mpi::RunOptions options;
    options.vfs = std::make_shared<pfs::Pfs>();
    options.observers = swap ? std::vector<std::shared_ptr<mpi::IoObserver>>{b, a}
                             : std::vector<std::shared_ptr<mpi::IoObserver>>{a, b};
    mpi::Runtime runtime(cluster, options);
    return runtime.run(job).elapsed;
  };
  EXPECT_EQ(run_with(false), run_with(true));
}

TEST_P(DeterminismSeeds, RepeatRunsAreBitIdentical) {
  sim::ClusterParams cparams;
  cparams.node_count = 8;
  cparams.seed = GetParam();
  const sim::Cluster cluster(cparams);

  workload::MpiIoTestParams params;
  params.nranks = 8;
  params.block = 128 * kKiB;
  params.total_bytes = 32 * kMiB;
  const mpi::Job job = workload::make_mpi_io_test(params);

  auto once = [&] {
    mpi::RunOptions options;
    options.vfs = std::make_shared<pfs::Pfs>();
    mpi::Runtime runtime(cluster, options);
    return runtime.run(job.programs);
  };
  const mpi::RunResult a = once();
  const mpi::RunResult b = once();
  EXPECT_EQ(a.elapsed, b.elapsed);
  EXPECT_EQ(a.rank_end, b.rank_end);
  EXPECT_EQ(a.barrier_release, b.barrier_release);
}

INSTANTIATE_TEST_SUITE_P(Seeds, DeterminismSeeds,
                         ::testing::Values(3, 1337, 0xABCDEF));

}  // namespace
}  // namespace iotaxo
