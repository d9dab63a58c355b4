// Tests for the concurrent trace pipeline: flat RankBatcher rank tables
// (dense + sparse + pool rebuild), MultiSink flush propagation, and
// parallel unified-store scans (every query and the DFG build) matching
// the serial results exactly.
#include <gtest/gtest.h>

#include <memory>
#include <string>
#include <vector>

#include "analysis/dfg/dfg.h"
#include "analysis/unified_store.h"
#include "trace/event_batch.h"
#include "trace/sink.h"
#include "util/metrics.h"
#include "util/strings.h"

namespace iotaxo::trace {
namespace {

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

}  // namespace
}  // namespace iotaxo::trace

namespace iotaxo {
namespace {

using trace::EventBatch;
using trace::TraceEvent;

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
