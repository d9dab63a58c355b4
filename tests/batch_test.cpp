// Tests for the batched event pipeline: StringPool interning, EventBatch
// round-trips, batched sink delivery equivalence, per-rank batch buffering
// in the capture layers, the IOTB3 binary container's batch decode,
// batch ingestion into the unified store, and batch-driven replay.
#include <gtest/gtest.h>

#include <memory>
#include <optional>
#include <string>
#include <utility>

#include "analysis/unified_store.h"
#include "frameworks/partrace.h"
#include "fs/memfs.h"
#include "interpose/tracers.h"
#include "interpose/vfs_shim.h"
#include "pfs/pfs.h"
#include "replay/replayer.h"
#include "sim/cluster.h"
#include "trace/binary_format.h"
#include "trace/event_batch.h"
#include "trace/sink.h"
#include "trace/string_pool.h"
#include "util/error.h"
#include "util/strings.h"
#include "workload/mpi_io_test.h"

namespace iotaxo::trace {
namespace {

[[nodiscard]] std::vector<TraceEvent> sample_stream() {
  std::vector<TraceEvent> events;

  TraceEvent open_ev = make_syscall("SYS_open", {"/etc/hosts", "0", "0666"}, 3);
  open_ev.local_start = 1159808387LL * kSecond;
  open_ev.duration = 34 * kMicrosecond;
  open_ev.rank = 7;
  open_ev.node = 3;
  open_ev.pid = 10378;
  open_ev.host = "host13.lanl.gov";
  open_ev.path = "/etc/hosts";
  open_ev.fd = 3;
  events.push_back(open_ev);

  for (int i = 0; i < 8; ++i) {
    TraceEvent w = make_syscall(
        "SYS_write", {"5", "65536", strprintf("%d", i * 65536)}, 65536);
    w.local_start = 1159808388LL * kSecond + i * kMillisecond;
    w.duration = from_millis(3.0);
    w.rank = i % 2;
    w.pid = 10378;
    w.host = i % 2 == 0 ? "host13.lanl.gov" : "host14.lanl.gov";
    w.fd = 5;
    w.bytes = 65536;
    w.offset = static_cast<Bytes>(i) * 65536;
    events.push_back(w);
  }

  TraceEvent note;
  note.cls = EventClass::kAnnotation;
  note.name = "Barrier before /app.exe";
  note.rank = 0;
  events.push_back(note);

  TraceEvent unknown = make_syscall("SYS_read", {"9", "4096"}, 4096);
  unknown.bytes = 4096;
  unknown.offset = -1;  // the "unknown offset" sentinel must round-trip
  events.push_back(unknown);
  return events;
}

TEST(StringPool, EmptyStringIsIdZero) {
  StringPool pool;
  EXPECT_EQ(pool.size(), 1u);
  EXPECT_EQ(pool.intern(""), 0u);
  EXPECT_EQ(pool.view(0), "");
}

TEST(StringPool, InternIsIdempotentAndDense) {
  StringPool pool;
  const StrId a = pool.intern("SYS_write");
  const StrId b = pool.intern("/pfs/out.dat");
  EXPECT_EQ(a, 1u);
  EXPECT_EQ(b, 2u);
  EXPECT_EQ(pool.intern("SYS_write"), a);
  EXPECT_EQ(pool.size(), 3u);
  EXPECT_EQ(pool.view(a), "SYS_write");
  EXPECT_EQ(pool.str(b), "/pfs/out.dat");
}

TEST(StringPool, FindDoesNotIntern) {
  StringPool pool;
  EXPECT_FALSE(pool.find("missing").has_value());
  const StrId id = pool.intern("present");
  ASSERT_TRUE(pool.find("present").has_value());
  EXPECT_EQ(*pool.find("present"), id);
  EXPECT_EQ(pool.size(), 2u);
}

TEST(StringPool, OutOfRangeIdThrows) {
  StringPool pool;
  EXPECT_THROW((void)pool.view(99), FormatError);
}

TEST(StringPool, CopiesOwnTheirStorage) {
  auto original = std::make_unique<StringPool>();
  const StrId id = original->intern("SYS_write");
  StringPool copy = *original;
  original.reset();  // a shallow copy would leave dangling node pointers
  EXPECT_EQ(copy.view(id), "SYS_write");
  EXPECT_EQ(copy.intern("SYS_write"), id);
  EXPECT_EQ(copy.intern("new-string"), id + 1);
}

TEST(StringPool, DenseIdsAndStableReferencesThroughManyGrowths) {
  StringPool pool;
  const StrId first = pool.intern("s0");
  const std::string& early = pool.str(first);  // taken before any growth
  constexpr int kStrings = 70000;  // past 65,536: several slot doublings
  for (int i = 1; i < kStrings; ++i) {
    ASSERT_EQ(pool.intern(strprintf("s%d", i)), static_cast<StrId>(i + 1));
  }
  EXPECT_EQ(pool.size(), static_cast<std::size_t>(kStrings) + 1);
  EXPECT_EQ(&pool.str(first), &early);
  EXPECT_EQ(early, "s0");
  for (int i = 0; i < kStrings; i += 997) {
    const std::string s = strprintf("s%d", i);
    const std::optional<StrId> id = pool.find(s);
    ASSERT_TRUE(id.has_value()) << s;
    EXPECT_EQ(*id, static_cast<StrId>(i + 1));
    EXPECT_EQ(pool.view(*id), s);
    EXPECT_EQ(pool.intern(s), *id);  // a hit interns nothing
  }
  EXPECT_EQ(pool.size(), static_cast<std::size_t>(kStrings) + 1);
  EXPECT_FALSE(pool.find("s70000").has_value());
  // for_each walks ids in order.
  StrId expect = 0;
  pool.for_each([&](StrId id, std::string_view s) {
    EXPECT_EQ(id, expect++);
    if (id == 0) {
      EXPECT_EQ(s, "");
    }
  });
  EXPECT_EQ(expect, pool.size());
}

TEST(StringPool, MovedFromPoolCanBeClearedOrInternedInto) {
  StringPool source;
  (void)source.intern("a");
  StringPool target = std::move(source);
  EXPECT_EQ(target.view(1), "a");
  // NOLINTNEXTLINE(bugprone-use-after-move): the moved-from contract
  EXPECT_FALSE(source.find("a").has_value());
  const StrId x = source.intern("x");
  EXPECT_EQ(source.view(x), "x");
  EXPECT_EQ(source.intern("x"), x);
  source.clear();
  EXPECT_EQ(source.size(), 1u);
  EXPECT_EQ(source.intern("y"), 1u);

  StringPool assigned;
  assigned = std::move(target);
  EXPECT_EQ(*assigned.find("a"), 1u);
  // NOLINTNEXTLINE(bugprone-use-after-move)
  target.clear();
  EXPECT_EQ(target.intern(""), 0u);
  EXPECT_EQ(target.intern("b"), 1u);
}

TEST(StringPool, CopiesStayIndependentAfterFurtherInterns) {
  StringPool original;
  (void)original.intern("shared");
  StringPool copy = original;
  StringPool assigned;
  assigned = original;
  EXPECT_EQ(original.intern("only-original"), 2u);
  EXPECT_EQ(copy.intern("only-copy"), 2u);
  EXPECT_FALSE(copy.find("only-original").has_value());
  EXPECT_FALSE(original.find("only-copy").has_value());
  EXPECT_FALSE(assigned.find("only-original").has_value());
  EXPECT_EQ(assigned.size(), 2u);
  EXPECT_EQ(copy.view(2), "only-copy");
  EXPECT_EQ(original.view(2), "only-original");
}

TEST(StringPool, ClearKeepsOnlyTheEmptyStringAndRestartsIds) {
  StringPool pool;
  const std::size_t empty_bytes = pool.byte_size();
  for (int i = 0; i < 100; ++i) {
    (void)pool.intern(strprintf("n%d", i));
  }
  EXPECT_EQ(pool.byte_size(),
            empty_bytes + 100 * sizeof(std::string) + 10 * 2 + 90 * 3);
  pool.clear();
  EXPECT_EQ(pool.size(), 1u);
  EXPECT_EQ(pool.byte_size(), empty_bytes);
  EXPECT_FALSE(pool.find("n5").has_value());
  EXPECT_EQ(pool.intern("n5"), 1u);
  EXPECT_EQ(pool.intern(""), 0u);
}

TEST(StringPool, ReserveChangesNoIdsOrContents) {
  StringPool pool;
  (void)pool.intern("before");
  pool.reserve(10000);
  pool.reserve(3);  // smaller than what is there: a no-op
  EXPECT_EQ(pool.size(), 2u);
  EXPECT_EQ(*pool.find("before"), 1u);
  for (int i = 0; i < 5000; ++i) {
    ASSERT_EQ(pool.intern(strprintf("r%d", i)), static_cast<StrId>(i + 2));
  }
  EXPECT_EQ(pool.view(5001), "r4999");
}

TEST(EventBatch, RoundTripsEvents) {
  const auto original = sample_stream();
  const EventBatch batch = EventBatch::from_events(original);
  ASSERT_EQ(batch.size(), original.size());
  const auto rebuilt = batch.to_events();
  ASSERT_EQ(rebuilt.size(), original.size());
  for (std::size_t i = 0; i < original.size(); ++i) {
    EXPECT_EQ(rebuilt[i], original[i]) << "event " << i;
  }
}

TEST(EventBatch, InternsRepeatedStringsOnce) {
  const EventBatch batch = EventBatch::from_events(sample_stream());
  // 8 writes share one name/host pair each; the pool holds each distinct
  // string exactly once.
  std::size_t sys_write_count = 0;
  batch.pool().for_each([&](StrId, std::string_view s) {
    if (s == "SYS_write") {
      ++sys_write_count;
    }
  });
  EXPECT_EQ(sys_write_count, 1u);
}

TEST(EventBatch, AppendBatchRemapsAcrossPools) {
  EventBatch a = EventBatch::from_events(sample_stream());
  EventBatch b;
  TraceEvent ev = make_syscall("SYS_write", {"1"}, 7);
  ev.host = "other.host";
  b.append(ev);
  b.append(a);
  ASSERT_EQ(b.size(), a.size() + 1);
  const auto rebuilt = b.to_events();
  const auto original = sample_stream();
  for (std::size_t i = 0; i < original.size(); ++i) {
    EXPECT_EQ(rebuilt[i + 1], original[i]) << "event " << i;
  }
}

TEST(EventBatch, SelfAppendDuplicates) {
  EventBatch batch = EventBatch::from_events(sample_stream());
  const std::size_t n = batch.size();
  batch.append(batch);
  ASSERT_EQ(batch.size(), 2 * n);
  const auto events = batch.to_events();
  const auto original = sample_stream();
  for (std::size_t i = 0; i < n; ++i) {
    EXPECT_EQ(events[i], original[i]) << i;
    EXPECT_EQ(events[n + i], original[i]) << i;
  }
}

TEST(EventBatch, AppendRawValidatesIds) {
  EventBatch batch;
  EventRecord rec;
  rec.name = 42;  // not in the pool
  EXPECT_THROW(batch.append_raw(rec, {}), FormatError);
}

TEST(EventBatch, ClearKeepsPoolResetDropsIt) {
  EventBatch batch = EventBatch::from_events(sample_stream());
  const std::size_t pool_size = batch.pool().size();
  batch.clear();
  EXPECT_TRUE(batch.empty());
  EXPECT_EQ(batch.pool().size(), pool_size);
  batch.reset();
  EXPECT_EQ(batch.pool().size(), 1u);
}

TEST(BatchedSinks, SummaryIdenticalToPerEvent) {
  const auto events = sample_stream();
  SummarySink per_event;
  for (const TraceEvent& ev : events) {
    per_event.on_event(ev);
  }
  SummarySink batched;
  batched.on_batch(EventBatch::from_events(events));

  EXPECT_EQ(batched.total_events(), per_event.total_events());
  ASSERT_EQ(batched.entries().size(), per_event.entries().size());
  for (const auto& [name, entry] : per_event.entries()) {
    const auto it = batched.entries().find(name);
    ASSERT_NE(it, batched.entries().end()) << name;
    EXPECT_EQ(it->second.count, entry.count) << name;
    EXPECT_EQ(it->second.total_duration, entry.total_duration) << name;
  }
}

TEST(BatchedSinks, CountingIdenticalToPerEvent) {
  const auto events = sample_stream();
  CountingSink per_event;
  for (const TraceEvent& ev : events) {
    per_event.on_event(ev);
  }
  CountingSink batched;
  batched.on_batch(EventBatch::from_events(events));
  EXPECT_EQ(batched.count(), per_event.count());
  EXPECT_EQ(batched.total_bytes(), per_event.total_bytes());
}

TEST(BatchedSinks, VectorSinkMaterializesBatches) {
  const auto events = sample_stream();
  VectorSink sink;
  sink.on_batch(EventBatch::from_events(events));
  ASSERT_EQ(sink.events().size(), events.size());
  EXPECT_EQ(sink.events(), events);
}

TEST(BatchedSinks, MultiSinkFansBatchesOut) {
  auto counting = std::make_shared<CountingSink>();
  auto summary = std::make_shared<SummarySink>();
  MultiSink multi({counting, summary});
  multi.on_batch(EventBatch::from_events(sample_stream()));
  EXPECT_EQ(counting->count(),
            static_cast<long long>(sample_stream().size()));
  EXPECT_EQ(summary->total_events(),
            static_cast<long long>(sample_stream().size()));
}

TEST(BatchedSinks, BatchSinkAccumulatesInterned) {
  BatchSink sink;
  sink.on_batch(EventBatch::from_events(sample_stream()));
  sink.on_event(make_syscall("SYS_close", {"3"}, 0));
  EXPECT_EQ(sink.batch().size(), sample_stream().size() + 1);
}

TEST(BatchedSinks, BatchSinkIsReusableAfterTake) {
  BatchSink sink;
  sink.on_event(make_syscall("SYS_close", {"3"}, 0));
  const EventBatch first = sink.take();
  EXPECT_EQ(first.size(), 1u);
  // The fresh batch must keep the id-0-is-empty pool invariant, so events
  // with empty host/path still round-trip (and encode) correctly.
  TraceEvent ev = make_syscall("SYS_open", {"/f"}, 4);
  sink.on_event(ev);
  EXPECT_EQ(sink.batch().to_events(), std::vector<TraceEvent>{ev});
  const auto blob = encode_binary_v3(sink.batch(), {});
  EXPECT_EQ(decode_binary(blob), std::vector<TraceEvent>{ev});
}

TEST(RankBatcher, BuffersUntilCapacityAndFlush) {
  auto sink = std::make_shared<VectorSink>();
  RankBatcher batcher(sink, 4);
  const auto events = sample_stream();  // ranks 7, 0, 1, -1 interleaved
  for (const TraceEvent& ev : events) {
    batcher.add(ev);
  }
  // 8 write events alternate rank 0/1: each rank hits capacity 4 once.
  EXPECT_EQ(sink->events().size(), 8u);
  batcher.flush();
  EXPECT_EQ(sink->events().size(), events.size());
}

TEST(RankBatcher, CapacityOneDeliversImmediately) {
  auto sink = std::make_shared<VectorSink>();
  RankBatcher batcher(sink, 1);
  const auto events = sample_stream();
  for (const TraceEvent& ev : events) {
    batcher.add(ev);
  }
  // Immediate delivery preserves the interleaved observation order.
  EXPECT_EQ(sink->events(), events);
}

TEST(BatchedCapture, PtraceTracerEqualsPerEventDelivery) {
  const auto events = sample_stream();
  auto unbatched_sink = std::make_shared<SummarySink>();
  auto batched_sink = std::make_shared<SummarySink>();
  interpose::PtraceTracer unbatched(interpose::PtraceTracer::Mode::kStrace,
                                    unbatched_sink);
  interpose::PtraceTracer batched(interpose::PtraceTracer::Mode::kStrace,
                                  batched_sink, {}, 64);
  for (const TraceEvent& ev : events) {
    EXPECT_EQ(unbatched.on_event(ev), batched.on_event(ev));
  }
  batched.flush();
  EXPECT_EQ(batched.events_captured(), unbatched.events_captured());
  EXPECT_EQ(batched_sink->total_events(), unbatched_sink->total_events());
  ASSERT_EQ(batched_sink->entries().size(), unbatched_sink->entries().size());
  for (const auto& [name, entry] : unbatched_sink->entries()) {
    EXPECT_EQ(batched_sink->entries().at(name).count, entry.count);
  }
}

TEST(BatchedCapture, VfsShimFlushDrainsBatches) {
  auto inner = std::make_shared<fs::MemFs>();
  auto sink = std::make_shared<VectorSink>();
  interpose::VfsShimOptions options;
  options.batch_capacity = 128;
  interpose::VfsShim shim(inner, sink, options, nullptr);
  fs::OpCtx ctx;
  const int fd = static_cast<int>(
      shim.open("/f", fs::OpenMode::write_create(), ctx).value);
  for (int i = 0; i < 10; ++i) {
    (void)shim.write(fd, i * 64, 64, ctx, nullptr);
  }
  (void)shim.close(fd, ctx);
  EXPECT_TRUE(sink->events().empty());  // still buffered
  shim.flush();
  EXPECT_EQ(sink->events().size(), 12u);
  EXPECT_EQ(shim.events_captured(), 12);
}

TEST(BinaryContainer, DecodesToBatchWithInternedTable) {
  const auto original = sample_stream();
  const auto blob = encode_binary_v3(original, {});
  const EventBatch batch = decode_binary_batch(blob);
  ASSERT_EQ(batch.size(), original.size());
  EXPECT_EQ(batch.to_events(), original);
  // The decoded pool is the encoded pool: dense and duplicate-free.
  EXPECT_EQ(batch.pool().size(),
            EventBatch::from_events(original).pool().size());
}

TEST(BinaryContainer, HugeRecordCountIsFormatErrorNotBadAlloc) {
  BinaryOptions plain;
  plain.checksum = false;
  auto blob = encode_binary_v3(sample_stream(), plain);
  // count is the u64 at offset 7 (after magic + flags).
  for (int i = 0; i < 8; ++i) {
    blob[7 + static_cast<std::size_t>(i)] = 0xFF;
  }
  EXPECT_THROW((void)decode_binary(blob), FormatError);
}

TEST(BinaryContainer, HugeCountsAnywhereAreFormatErrors) {
  BinaryOptions plain;
  plain.checksum = false;  // unchecksummed, so the tampered body is decoded
  const auto blob = encode_binary_v3(sample_stream(), plain);
  // Rather than locating each count field, assert that *any* 8 bytes
  // overwritten with a huge value still surfaces as FormatError (never
  // bad_alloc/length_error).
  const std::size_t header = 6 + 1 + 8 + 8;
  for (std::size_t pos = header; pos + 8 <= blob.size(); pos += 7) {
    auto corrupted = blob;
    for (int i = 0; i < 8; ++i) {
      corrupted[pos + static_cast<std::size_t>(i)] = 0xFF;
    }
    try {
      (void)decode_binary(corrupted);  // some positions may still decode
    } catch (const FormatError&) {
      // expected failure mode
    }
  }
}

}  // namespace
}  // namespace iotaxo::trace

namespace iotaxo {
namespace {

using trace::EventBatch;
using trace::TraceEvent;

[[nodiscard]] sim::Cluster small_cluster() {
  sim::ClusterParams p;
  p.node_count = 4;
  return sim::Cluster(p);
}

[[nodiscard]] frameworks::TraceRunResult partrace_capture(
    const sim::Cluster& cluster) {
  frameworks::Partrace partrace;
  workload::MpiIoTestParams params;
  params.nranks = 4;
  params.total_bytes = 16 * kMiB;
  frameworks::TraceJobOptions options;
  options.store_raw_streams = true;
  return partrace.trace(cluster, workload::make_mpi_io_test(params),
                        std::make_shared<pfs::Pfs>(), options);
}

TEST(StoreBatchIngest, MatchesBundleIngest) {
  const sim::Cluster cluster = small_cluster();
  const auto capture = partrace_capture(cluster);

  analysis::UnifiedTraceStore from_bundle;
  from_bundle.ingest(capture.bundle);

  EventBatch batch;
  for (const trace::RankStream& rs : capture.bundle.ranks) {
    for (const TraceEvent& ev : rs.events) {
      batch.append(ev);
    }
  }
  analysis::UnifiedTraceStore from_batch;
  from_batch.ingest(batch, capture.bundle.metadata, {},
                    capture.bundle.dependencies);

  EXPECT_EQ(from_batch.total_events(), from_bundle.total_events());
  EXPECT_EQ(from_batch.sources()[0].framework, "//TRACE");
  EXPECT_EQ(from_batch.dependencies().size(),
            from_bundle.dependencies().size());
  EXPECT_EQ(from_batch.call_stats(), from_bundle.call_stats());
  EXPECT_EQ(from_batch.rank_timeline(1).size(),
            from_bundle.rank_timeline(1).size());
  EXPECT_EQ(from_batch.source_batch(0).size(),
            from_bundle.source_batch(0).size());
}

TEST(ReplayFromBatch, DropsRanklessRecordsInsteadOfPhantomRank) {
  const sim::Cluster cluster = small_cluster();
  const auto capture = partrace_capture(cluster);

  EventBatch batch;
  TraceEvent rankless;  // rank = -1: an annotation that reached the sink
  rankless.cls = trace::EventClass::kAnnotation;
  rankless.name = "note";
  batch.append(rankless);
  for (const trace::RankStream& rs : capture.bundle.ranks) {
    for (const TraceEvent& ev : rs.events) {
      batch.append(ev);
    }
  }
  // 4 ranked sources -> exactly 4 programs; the rankless record must not
  // shift program-to-rank assignment.
  const auto programs = replay::generate_pseudo_app(batch, {}, {});
  EXPECT_EQ(programs.size(), capture.bundle.ranks.size());

  EventBatch only_rankless;
  only_rankless.append(rankless);
  EXPECT_THROW((void)replay::generate_pseudo_app(only_rankless, {}, {}),
               FormatError);
}

TEST(ReplayFromBatch, MatchesReplayFromBundle) {
  const sim::Cluster cluster = small_cluster();
  const auto capture = partrace_capture(cluster);

  replay::ReplayOptions options;
  options.pseudo.sync = replay::SyncStrategy::kDependencies;

  replay::Replayer from_bundle(cluster, std::make_shared<pfs::Pfs>());
  const auto bundle_result = from_bundle.replay(capture.bundle, options);

  EventBatch batch;
  for (const trace::RankStream& rs : capture.bundle.ranks) {
    for (const TraceEvent& ev : rs.events) {
      batch.append(ev);
    }
  }
  replay::Replayer from_batch(cluster, std::make_shared<pfs::Pfs>());
  const auto batch_result =
      from_batch.replay(batch, capture.bundle.dependencies, options);

  // Identical pseudo-apps on identical fresh file systems: identical runs.
  EXPECT_EQ(batch_result.run.elapsed, bundle_result.run.elapsed);
  EXPECT_EQ(batch_result.run.bytes_written, bundle_result.run.bytes_written);
  EXPECT_EQ(batch_result.bundle.total_events(),
            bundle_result.bundle.total_events());
}

}  // namespace
}  // namespace iotaxo
