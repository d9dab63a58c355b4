// Tests for the concurrent trace pipeline: async batch flush (ownership
// transfer, backpressure, drain-barrier determinism), sharded summary
// merging, flat RankBatcher rank tables (dense + sparse + pool rebuild),
// MultiSink flush propagation, capture layers in async-flush mode, and
// parallel unified-store scans (every query and the DFG build) matching
// the serial results exactly.
#include <gtest/gtest.h>

#include <memory>
#include <string>
#include <vector>

#include "analysis/dfg/dfg.h"
#include "analysis/unified_store.h"
#include "fs/memfs.h"
#include "interpose/tracers.h"
#include "interpose/vfs_shim.h"
#include "trace/async_sink.h"
#include "trace/event_batch.h"
#include "trace/sink.h"
#include "util/metrics.h"
#include "util/strings.h"

namespace iotaxo::trace {
namespace {

[[nodiscard]] std::vector<TraceEvent> mixed_rank_stream(int events,
                                                        int ranks) {
  static const char* kNames[] = {"SYS_write", "SYS_read", "SYS_open", "write"};
  std::vector<TraceEvent> out;
  out.reserve(static_cast<std::size_t>(events));
  for (int i = 0; i < events; ++i) {
    TraceEvent ev = make_syscall(kNames[i % 4],
                                 {"5", strprintf("%d", i * 64)}, 64);
    ev.rank = ranks > 0 ? i % ranks : -1;
    ev.host = strprintf("host%02d", ev.rank);
    ev.path = "/pfs/out.dat";
    ev.fd = 5;
    ev.bytes = 64;
    ev.local_start = static_cast<SimTime>(i) * kMicrosecond;
    ev.duration = 2 * kMicrosecond;
    out.push_back(std::move(ev));
  }
  return out;
}

[[nodiscard]] std::vector<EventBatch> flush_units(
    const std::vector<TraceEvent>& events, std::size_t unit) {
  std::vector<EventBatch> batches;
  for (std::size_t begin = 0; begin < events.size(); begin += unit) {
    EventBatch batch;
    const std::size_t end = std::min(events.size(), begin + unit);
    for (std::size_t i = begin; i < end; ++i) {
      batch.append(events[i]);
    }
    batches.push_back(std::move(batch));
  }
  return batches;
}

[[nodiscard]] SummarySink reference_summary(
    const std::vector<TraceEvent>& events) {
  SummarySink sink;
  for (const TraceEvent& ev : events) {
    sink.on_event(ev);
  }
  return sink;
}

void expect_same_entries(const std::map<std::string, SummarySink::Entry>& got,
                         const SummarySink& want) {
  ASSERT_EQ(got.size(), want.entries().size());
  for (const auto& [name, entry] : want.entries()) {
    const auto it = got.find(name);
    ASSERT_NE(it, got.end()) << name;
    EXPECT_EQ(it->second.count, entry.count) << name;
    EXPECT_EQ(it->second.total_duration, entry.total_duration) << name;
  }
}

TEST(AsyncBatchSink, OwnedBatchesAreConsumedAndDelivered) {
  auto downstream = std::make_shared<SummarySink>();
  AsyncBatchSink async(downstream);
  const auto events = mixed_rank_stream(512, 4);
  for (EventBatch& batch : flush_units(events, 64)) {
    async.on_batch_owned(std::move(batch));
  }
  async.flush();
  EXPECT_EQ(async.pending(), 0u);
  expect_same_entries(downstream->entries(), reference_summary(events));
}

TEST(AsyncBatchSink, ConstBatchesAreCopiedNotConsumed) {
  auto downstream = std::make_shared<CountingSink>();
  AsyncBatchSink async(downstream);
  const EventBatch batch =
      EventBatch::from_events(mixed_rank_stream(32, 2));
  async.on_batch(batch);
  async.flush();
  EXPECT_EQ(batch.size(), 32u);  // source intact
  EXPECT_EQ(downstream->count(), 32);
}

TEST(AsyncBatchSink, BackpressureTinyQueueStillDeliversEverything) {
  auto downstream = std::make_shared<SummarySink>();
  AsyncOptions options;
  options.queue_capacity = 1;  // every enqueue may block on the worker
  options.workers = 1;
  AsyncBatchSink async(downstream, options);
  const auto events = mixed_rank_stream(1000, 8);
  for (EventBatch& batch : flush_units(events, 16)) {
    async.on_batch_owned(std::move(batch));
  }
  async.flush();
  expect_same_entries(downstream->entries(), reference_summary(events));
}

TEST(AsyncBatchSink, SingleWorkerPreservesDeliveryOrder) {
  auto downstream = std::make_shared<VectorSink>();
  AsyncOptions options;
  options.workers = 1;  // FIFO queue + one consumer => arrival order
  AsyncBatchSink async(downstream, options);
  const auto events = mixed_rank_stream(300, 3);
  for (EventBatch& batch : flush_units(events, 32)) {
    async.on_batch_owned(std::move(batch));
  }
  async.flush();
  EXPECT_EQ(downstream->events(), events);
}

TEST(AsyncBatchSink, FlushIsADrainBarrierAcrossRounds) {
  auto downstream = std::make_shared<CountingSink>();
  AsyncBatchSink async(downstream, {.queue_capacity = 4, .workers = 2});
  const auto events = mixed_rank_stream(256, 4);
  auto batches = flush_units(events, 16);
  const std::size_t half = batches.size() / 2;
  for (std::size_t i = 0; i < half; ++i) {
    async.on_batch_owned(std::move(batches[i]));
  }
  async.flush();
  // Determinism at the barrier: everything handed off so far is visible.
  EXPECT_EQ(downstream->count(), static_cast<long long>(half * 16));
  for (std::size_t i = half; i < batches.size(); ++i) {
    async.on_batch_owned(std::move(batches[i]));
  }
  async.flush();
  EXPECT_EQ(downstream->count(), static_cast<long long>(events.size()));
}

TEST(AsyncBatchSink, PerEventDeliveryWorksToo) {
  auto downstream = std::make_shared<SummarySink>();
  AsyncBatchSink async(downstream);
  const auto events = mixed_rank_stream(64, 4);
  for (const TraceEvent& ev : events) {
    async.on_event(ev);
  }
  async.flush();
  EXPECT_EQ(downstream->total_events(),
            static_cast<long long>(events.size()));
}

TEST(ShardedSummarySink, MergedEntriesMatchUnsharded) {
  const auto events = mixed_rank_stream(2048, 13);  // ranks straddle shards
  ShardedSummarySink sharded(4);
  for (const EventBatch& batch : flush_units(events, 64)) {
    sharded.on_batch(batch);
  }
  sharded.flush();
  EXPECT_EQ(sharded.total_events(), static_cast<long long>(events.size()));
  expect_same_entries(sharded.entries(), reference_summary(events));
}

TEST(ShardedSummarySink, PerEventAndNegativeRanksRouteSomewhere) {
  ShardedSummarySink sharded(8);
  auto events = mixed_rank_stream(16, 0);  // all rank -1
  for (const TraceEvent& ev : events) {
    sharded.on_event(ev);
  }
  sharded.flush();
  EXPECT_EQ(sharded.total_events(), 16);
  expect_same_entries(sharded.entries(), reference_summary(events));
}

TEST(ShardedSummarySink, ConcurrentDeliveryUnderAsyncWorkers) {
  const auto events = mixed_rank_stream(4096, 32);
  auto sharded = std::make_shared<ShardedSummarySink>(8);
  AsyncOptions options;
  options.queue_capacity = 8;
  options.workers = 4;
  options.concurrent_downstream = true;  // shards synchronize internally
  {
    AsyncBatchSink async(sharded, options);
    for (EventBatch& batch : flush_units(events, 32)) {
      async.on_batch_owned(std::move(batch));
    }
    async.flush();
  }
  sharded->flush();
  expect_same_entries(sharded->entries(), reference_summary(events));
}

/// Records flush() calls; MultiSink must propagate them to every child.
class FlushRecordingSink : public EventSink {
 public:
  void on_event(const TraceEvent&) override {}
  void flush() override { ++flushes_; }
  [[nodiscard]] int flushes() const noexcept { return flushes_; }

 private:
  int flushes_ = 0;
};

TEST(MultiSink, FlushPropagatesToEveryChild) {
  auto a = std::make_shared<FlushRecordingSink>();
  auto b = std::make_shared<FlushRecordingSink>();
  MultiSink multi({a, b});
  multi.flush();
  multi.flush();
  EXPECT_EQ(a->flushes(), 2);
  EXPECT_EQ(b->flushes(), 2);
}

TEST(RankBatcher, SparseAndNegativeRanksCoexistWithDense) {
  auto sink = std::make_shared<VectorSink>();
  RankBatcher batcher(sink, 100);  // nothing reaches capacity
  const int ranks[] = {-3, 0, 5, RankBatcher::kDenseRankLimit + 7, -3, 5};
  for (const int r : ranks) {
    TraceEvent ev = make_syscall("SYS_write", {"1"}, 1);
    ev.rank = r;
    batcher.add(ev);
  }
  EXPECT_TRUE(sink->events().empty());
  batcher.flush();
  ASSERT_EQ(sink->events().size(), 6u);
  // Ascending flush order: sparse negatives, dense, sparse overflow.
  std::vector<int> flushed;
  for (const TraceEvent& ev : sink->events()) {
    flushed.push_back(ev.rank);
  }
  EXPECT_EQ(flushed, (std::vector<int>{-3, -3, 0, 5, 5,
                                       RankBatcher::kDenseRankLimit + 7}));
}

TEST(RankBatcher, PoolRebuildPastThresholdKeepsDeliveryIntact) {
  auto sink = std::make_shared<CountingSink>();
  RankBatcher batcher(sink, 4);
  // Every event brings two fresh strings (name + arg), so one rank's buffer
  // pool crosses kPoolResetThreshold and is rebuilt mid-stream.
  const int events =
      static_cast<int>(RankBatcher::kPoolResetThreshold / 2) + 4096;
  for (int i = 0; i < events; ++i) {
    TraceEvent ev = make_syscall(strprintf("call_%d", i),
                                 {strprintf("arg_%d", i)}, 8);
    ev.rank = 0;
    ev.bytes = 8;
    batcher.add(ev);
  }
  batcher.flush();
  EXPECT_EQ(sink->count(), events);
  EXPECT_EQ(sink->total_bytes(), static_cast<Bytes>(events) * 8);
  // The rebuilt buffer keeps working: one more full round delivers fine.
  for (int i = 0; i < 4; ++i) {
    TraceEvent ev = make_syscall("steady", {"x"}, 8);
    ev.rank = 0;
    batcher.add(ev);
  }
  EXPECT_EQ(sink->count(), events + 4);
}

TEST(RankBatcher, AsyncSinkConsumesBatchesWithoutCorruption) {
  auto downstream = std::make_shared<SummarySink>();
  auto async = std::make_shared<AsyncBatchSink>(downstream);
  RankBatcher batcher(async, 32);  // deliver() hands ownership to the queue
  const auto events = mixed_rank_stream(1024, 4);
  for (const TraceEvent& ev : events) {
    batcher.add(ev);
  }
  batcher.flush();  // drains the async queue via the sink's flush
  expect_same_entries(downstream->entries(), reference_summary(events));
}

}  // namespace
}  // namespace iotaxo::trace

namespace iotaxo {
namespace {

using trace::EventBatch;
using trace::TraceEvent;

TEST(AsyncCapture, PtraceTracerAsyncModeMatchesInline) {
  const auto events = trace::mixed_rank_stream(600, 6);
  auto inline_sink = std::make_shared<trace::SummarySink>();
  auto async_sink = std::make_shared<trace::SummarySink>();
  interpose::PtraceTracer inline_tracer(interpose::PtraceTracer::Mode::kStrace,
                                        inline_sink, {}, 64);
  trace::AsyncFlushMode async;
  async.enabled = true;
  async.options.workers = 2;
  interpose::PtraceTracer async_tracer(interpose::PtraceTracer::Mode::kStrace,
                                       async_sink, {}, 64, async);
  for (const TraceEvent& ev : events) {
    EXPECT_EQ(inline_tracer.on_event(ev), async_tracer.on_event(ev));
  }
  inline_tracer.flush();
  async_tracer.flush();  // the runtime's pre-on_run_end drain barrier
  EXPECT_EQ(async_tracer.events_captured(), inline_tracer.events_captured());
  EXPECT_EQ(async_sink->total_events(), inline_sink->total_events());
  EXPECT_EQ(async_sink->entries(), inline_sink->entries());
}

TEST(AsyncCapture, VfsShimAsyncModeMatchesInline) {
  const auto run = [](bool enable_async) {
    auto inner = std::make_shared<fs::MemFs>();
    auto sink = std::make_shared<trace::SummarySink>();
    interpose::VfsShimOptions options;
    options.batch_capacity = 16;
    options.async_flush.enabled = enable_async;
    options.async_flush.options.workers = 2;
    interpose::VfsShim shim(inner, sink, options, nullptr);
    fs::OpCtx ctx;
    const int fd = static_cast<int>(
        shim.open("/f", fs::OpenMode::write_create(), ctx).value);
    for (int i = 0; i < 100; ++i) {
      (void)shim.write(fd, i * 64, 64, ctx, nullptr);
    }
    (void)shim.close(fd, ctx);
    shim.flush();
    return std::pair{shim.events_captured(), sink->entries()};
  };
  const auto [inline_count, inline_entries] = run(false);
  const auto [async_count, async_entries] = run(true);
  EXPECT_EQ(async_count, inline_count);
  EXPECT_EQ(async_entries, inline_entries);
}

[[nodiscard]] analysis::UnifiedTraceStore multi_source_store() {
  analysis::UnifiedTraceStore store;
  for (int s = 0; s < 6; ++s) {
    EventBatch batch;
    for (int i = 0; i < 400; ++i) {
      TraceEvent ev = trace::make_syscall(
          i % 3 == 0 ? "SYS_read" : "SYS_write",
          {"5", strprintf("%d", i * 512)}, 512);
      ev.rank = i % 8;
      ev.bytes = 512;
      ev.fd = 5;
      // Source 0 names the path; later sources only carry the fd, so
      // hottest_files' fd carryover threads across source boundaries.
      ev.path = s == 0 && i == 0 ? "/pfs/carried.dat" : "";
      ev.local_start = static_cast<SimTime>(s * 400 + i) * kMicrosecond;
      ev.duration = kMicrosecond;
      batch.append(ev);
    }
    store.ingest(batch, {{"framework", "test"},
                         {"application", strprintf("app%d", s)}});
  }
  return store;
}

TEST(ParallelStoreQueries, IdenticalToSerialScan) {
  analysis::UnifiedTraceStore store = multi_source_store();

  store.set_query_threads(1);
  const auto serial_stats = store.call_stats();
  const auto serial_timeline = store.rank_timeline(3);
  const auto serial_window = store.bytes_in_window(0, from_millis(900.0));
  const auto serial_series = store.io_rate_series(from_millis(100.0));
  const auto serial_heat = store.hottest_files(10);
  const auto serial_dfg =
      analysis::dfg::DfgBuilder(store).build({.threads = 1});

  store.set_query_threads(4);
  EXPECT_EQ(store.call_stats(), serial_stats);
  EXPECT_EQ(store.rank_timeline(3), serial_timeline);
  EXPECT_EQ(store.bytes_in_window(0, from_millis(900.0)), serial_window);
  EXPECT_EQ(store.io_rate_series(from_millis(100.0)), serial_series);
  EXPECT_EQ(store.hottest_files(10), serial_heat);
  EXPECT_EQ(analysis::dfg::DfgBuilder(store).build({.threads = 4}),
            serial_dfg);
  EXPECT_EQ(serial_timeline.size(), 6u * 400 / 8);
  EXPECT_EQ(serial_dfg.total_events(), 6 * 400);

  // The fd opened in source 0 must resolve transfers from every source.
  ASSERT_FALSE(serial_heat.empty());
  EXPECT_EQ(serial_heat[0].path, "/pfs/carried.dat");
  EXPECT_EQ(serial_heat[0].ops, 6 * 400);

  // A window inside source 2 that the other five pools' indexes rule out:
  // the same answer and the same skip count at every thread count.
  obs::set_enabled(true);
  obs::Counter& pools_skipped = obs::counter("store.query.pools_skipped");
  std::vector<std::pair<Bytes, std::uint64_t>> narrow;
  for (const std::size_t threads : {1u, 4u}) {
    store.set_query_threads(threads);
    const std::uint64_t before = pools_skipped.value();
    const Bytes bytes =
        store.bytes_in_window(810 * kMicrosecond, 850 * kMicrosecond);
    narrow.emplace_back(bytes, pools_skipped.value() - before);
  }
  obs::set_enabled(false);
  EXPECT_EQ(narrow[0], narrow[1]);
  EXPECT_EQ(narrow[0].first, 40 * 512);
  EXPECT_EQ(narrow[0].second, 5u);
}

TEST(ParallelStoreQueries, FdCarryoverRespectsSourceOrder) {
  // Source 0 maps fd 5 -> /a; source 1 remaps fd 5 -> /b and then
  // transfers path-lessly; source 2 transfers path-lessly again. Serial
  // semantics: source 1's transfer resolves to its own (local) /b write,
  // source 2's resolves to the carried /b.
  analysis::UnifiedTraceStore store;
  const auto io = [](const char* path, int fd, Bytes bytes) {
    TraceEvent ev = trace::make_syscall("SYS_write", {"x"}, bytes);
    ev.path = path;
    ev.fd = fd;
    ev.bytes = bytes;
    return ev;
  };
  EventBatch s0;
  s0.append(io("/a", 5, 100));
  store.ingest(s0);
  EventBatch s1;
  s1.append(io("", 5, 7));   // resolves against carried /a
  s1.append(io("/b", 5, 100));
  s1.append(io("", 5, 11));  // resolves against local /b
  store.ingest(s1);
  EventBatch s2;
  s2.append(io("", 5, 13));  // resolves against carried /b
  store.ingest(s2);

  store.set_query_threads(1);
  const auto serial = store.hottest_files(10);
  store.set_query_threads(3);
  const auto parallel = store.hottest_files(10);
  EXPECT_EQ(parallel, serial);

  Bytes a_bytes = 0;
  Bytes b_bytes = 0;
  for (const auto& heat : parallel) {
    if (heat.path == "/a") {
      a_bytes = heat.bytes;
    } else if (heat.path == "/b") {
      b_bytes = heat.bytes;
    }
  }
  EXPECT_EQ(a_bytes, 107);  // 100 + the carried-resolution 7
  EXPECT_EQ(b_bytes, 124);  // 100 + local 11 + carried 13
}

}  // namespace
}  // namespace iotaxo
