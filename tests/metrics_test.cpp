// Self-metrics layer tests: the obs registry (counters, gauges,
// histograms, snapshots, deltas, JSON), concurrent-hammer exactness, the
// disarmed path's inertness (bit-identical query results and error text
// with metrics on or off), the capture batch counters and per-block encode
// timers, and the cold-store decode cross-check — the
// block.decode.stored_bytes counter must equal the store's own
// pool_infos() decoded-byte accounting exactly.
#include <gtest/gtest.h>

#include <array>
#include <cstdint>
#include <filesystem>
#include <limits>
#include <ostream>
#include <string>
#include <thread>
#include <vector>

#include "analysis/dfg/dfg.h"
#include "analysis/unified_store.h"
#include "frameworks/lanl_trace.h"
#include "pfs/pfs.h"
#include "trace/binary_format.h"
#include "trace/block_view.h"
#include "trace/event_batch.h"
#include "trace/sink.h"
#include "util/error.h"
#include "util/metrics.h"
#include "util/strings.h"
#include "workload/mpi_io_test.h"

namespace iotaxo {
namespace {

using analysis::UnifiedTraceStore;
using trace::EventBatch;
using trace::TraceEvent;

/// Arm metrics for one test and guarantee the disarmed default is
/// restored (and values zeroed) however the test exits, so test order
/// never leaks armed state into the inertness checks.
struct ArmGuard {
  ArmGuard() {
    obs::set_enabled(true);
    obs::reset();
  }
  ~ArmGuard() {
    obs::set_enabled(false);
    obs::reset();
  }
};

[[nodiscard]] std::vector<TraceEvent> sample_events(int count) {
  std::vector<TraceEvent> events;
  for (int i = 0; i < count; ++i) {
    TraceEvent ev = trace::make_syscall(
        i % 3 == 0 ? "SYS_read" : "SYS_write",
        {"5", "4096", strprintf("%d", i)}, 4096);
    ev.rank = i % 4;
    ev.host = "host00";
    ev.path = i % 2 == 0 ? strprintf("/pfs/f%d.dat", i % 8) : "";
    ev.fd = 5;
    ev.bytes = 4096;
    ev.local_start = static_cast<SimTime>(i) * kMillisecond;
    ev.duration = 10 * kMicrosecond;
    events.push_back(std::move(ev));
  }
  return events;
}

std::string make_scratch_dir(const char* tag) {
  const std::string dir =
      strprintf("/tmp/iotaxo_metrics_%s_%d", tag,
                ::testing::UnitTest::GetInstance()->random_seed());
  std::filesystem::remove_all(dir);
  std::filesystem::create_directories(dir);
  return dir;
}

void write_file(const std::string& path,
                const std::vector<std::uint8_t>& bytes) {
  std::FILE* f = std::fopen(path.c_str(), "wb");
  ASSERT_NE(f, nullptr) << path;
  ASSERT_EQ(std::fwrite(bytes.data(), 1, bytes.size(), f), bytes.size());
  std::fclose(f);
}

[[nodiscard]] std::uint64_t counter_value(const obs::MetricsSnapshot& snap,
                                          const std::string& name) {
  const auto it = snap.values.find(name);
  return it == snap.values.end() ? 0 : it->second.value;
}

[[nodiscard]] std::uint64_t hist_count(const obs::MetricsSnapshot& snap,
                                       const std::string& name) {
  const auto it = snap.values.find(name);
  return it == snap.values.end() ? 0 : it->second.count;
}

// -------------------------------------------------------------- inertness

// Must run before anything arms the registry in this process: the
// check_build --metrics smoke additionally runs this test alone under
// `env -u IOTAXO_METRICS` to pin the static-init default.
TEST(Metrics, InactiveByDefault) {
  ASSERT_FALSE(obs::enabled());
  obs::Counter& c = obs::counter("test.inactive.counter");
  obs::Histogram& h = obs::histogram("test.inactive.hist_ns");
  obs::Gauge& g = obs::gauge("test.inactive.gauge");
  c.add(7);
  g.set(9);
  h.record(1234);
  { const obs::ScopedTimer t(h); }
  EXPECT_EQ(c.value(), 0u);
  EXPECT_EQ(g.value(), 0u);
  EXPECT_EQ(g.high_water(), 0u);
  EXPECT_EQ(h.count(), 0u);
  EXPECT_EQ(h.sum(), 0u);
}

TEST(Metrics, ArmDisarmRoundTrip) {
  obs::Counter& c = obs::counter("test.roundtrip.counter");
  {
    const ArmGuard guard;
    c.add(3);
    EXPECT_EQ(c.value(), 3u);
  }
  EXPECT_FALSE(obs::enabled());
  c.add(5);  // disarmed again: must not record
  EXPECT_EQ(c.value(), 0u);  // guard reset zeroed the armed-time value too
}

// -------------------------------------------------------- concurrency

TEST(Metrics, CounterConcurrentHammer) {
  const ArmGuard guard;
  obs::Counter& c = obs::counter("test.hammer.counter");
  constexpr int kThreads = 8;
  constexpr std::uint64_t kAdds = 100000;
  std::vector<std::thread> threads;
  threads.reserve(kThreads);
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&c] {
      for (std::uint64_t i = 0; i < kAdds; ++i) {
        c.add(3);
      }
    });
  }
  for (std::thread& t : threads) {
    t.join();
  }
  EXPECT_EQ(c.value(), kThreads * kAdds * 3);
}

TEST(Metrics, HistogramConcurrentHammer) {
  const ArmGuard guard;
  obs::Histogram& h = obs::histogram("test.hammer.hist_ns");
  constexpr int kThreads = 8;
  constexpr std::uint64_t kRecords = 50000;
  std::vector<std::thread> threads;
  threads.reserve(kThreads);
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&h] {
      for (std::uint64_t i = 0; i < kRecords; ++i) {
        h.record(i % 1024);
      }
    });
  }
  for (std::thread& t : threads) {
    t.join();
  }
  constexpr std::uint64_t kTotal = kThreads * kRecords;
  EXPECT_EQ(h.count(), kTotal);
  // Exact serial sum: each thread records 0..1023 cyclically.
  constexpr std::uint64_t kCycleSum = 1023 * 1024 / 2;
  EXPECT_EQ(h.sum(), kThreads * (kRecords / 1024) * kCycleSum +
                         kThreads * ((kRecords % 1024) *
                                     ((kRecords % 1024) - 1) / 2));
  std::uint64_t bucket_total = 0;
  for (std::size_t b = 0; b < obs::Histogram::kBuckets; ++b) {
    bucket_total += h.bucket(b);
  }
  EXPECT_EQ(bucket_total, kTotal);
}

// ----------------------------------------------------------- primitives

TEST(Metrics, Log2BucketBoundaries) {
  using H = obs::Histogram;
  EXPECT_EQ(H::bucket_of(0), 0u);
  EXPECT_EQ(H::bucket_of(1), 1u);
  EXPECT_EQ(H::bucket_of(2), 2u);
  EXPECT_EQ(H::bucket_of(3), 2u);
  EXPECT_EQ(H::bucket_of(4), 3u);
  EXPECT_EQ(H::bucket_of(7), 3u);
  EXPECT_EQ(H::bucket_of(8), 4u);
  EXPECT_EQ(H::bucket_of((1ull << 62) - 1), 62u);
  EXPECT_EQ(H::bucket_of(1ull << 62), 63u);
  EXPECT_EQ(H::bucket_of(std::numeric_limits<std::uint64_t>::max()), 63u);

  const ArmGuard guard;
  obs::Histogram& h = obs::histogram("test.bucket.hist_ns");
  h.record(0);
  h.record(1);
  h.record(3);
  h.record(1ull << 40);
  EXPECT_EQ(h.bucket(0), 1u);
  EXPECT_EQ(h.bucket(1), 1u);
  EXPECT_EQ(h.bucket(2), 1u);
  EXPECT_EQ(h.bucket(41), 1u);
  EXPECT_EQ(h.count(), 4u);
}

TEST(Metrics, GaugeHighWaterMark) {
  const ArmGuard guard;
  obs::Gauge& g = obs::gauge("test.gauge.depth");
  g.set(5);
  g.set(12);
  g.set(3);
  EXPECT_EQ(g.value(), 3u);
  EXPECT_EQ(g.high_water(), 12u);
  g.reset();
  EXPECT_EQ(g.value(), 0u);
  EXPECT_EQ(g.high_water(), 0u);
}

TEST(Metrics, KindMismatchThrows) {
  (void)obs::counter("test.kind.once");
  EXPECT_THROW((void)obs::gauge("test.kind.once"), ConfigError);
  EXPECT_THROW((void)obs::histogram("test.kind.once"), ConfigError);
}

// ------------------------------------------------------ snapshot / JSON

TEST(Metrics, SnapshotCarriesFullCatalogAndJsonIsDeterministic) {
  const obs::MetricsSnapshot snap = obs::snapshot();
  // A selection spanning every instrumented layer: pre-registration means
  // they are present (zero) even though nothing ran in this test.
  for (const char* name :
       {"sink.batch.flushes", "sink.batch.events",
        "block.encode.compress_ns", "block.decode.stored_bytes",
        "block.decode.crc_ns", "store.query.count",
        "store.query.segments_skipped", "store.compact.eras_spilled",
        "store.attach.duration_ns", "durable.write.fsync_ns",
        "durable.write.files"}) {
    EXPECT_TRUE(snap.values.contains(name)) << name;
  }
  const std::string a = obs::to_json(snap);
  const std::string b = obs::to_json(obs::snapshot());
  EXPECT_EQ(a, b);  // same state -> byte-identical JSON
  EXPECT_EQ(a.rfind("{\n  \"metrics_schema\": 1", 0), 0u);
  EXPECT_NE(a.find("\"counters\""), std::string::npos);
  EXPECT_NE(a.find("\"gauges\""), std::string::npos);
  EXPECT_NE(a.find("\"histograms\""), std::string::npos);
  // The text report renders without throwing and mentions every kind.
  const std::string text = obs::render_text(snap);
  EXPECT_NE(text.find("store.query.count"), std::string::npos);
}

TEST(Metrics, SnapshotDeltaExactAcrossCompactAndQueryCycle) {
  const ArmGuard guard;
  const std::string dir = make_scratch_dir("delta");
  UnifiedTraceStore store;
  store.ingest(EventBatch::from_events(sample_events(120)),
               {{"framework", "test"}, {"application", "delta"}});

  UnifiedTraceStore::ColdTierOptions cold;
  cold.directory = dir;
  cold.binary.compress = true;
  cold.binary.checksum = true;
  cold.block_records = 16;

  const obs::MetricsSnapshot before = obs::snapshot();
  store.compact(static_cast<std::size_t>(-1), cold);
  (void)store.call_stats();
  (void)store.bytes_in_window(0, 200 * kMillisecond);
  (void)store.hottest_files(4);
  const obs::MetricsSnapshot after = obs::snapshot();
  const obs::MetricsSnapshot d = obs::delta(before, after);

  // compact(era_bytes, cold) routes through compact(era_bytes), so one
  // cold call counts one compaction.
  EXPECT_EQ(counter_value(d, "store.compact.calls"), 1u);
  EXPECT_EQ(counter_value(d, "store.compact.eras_spilled"), 1u);
  EXPECT_EQ(counter_value(d, "store.compact.manifest_commits"), 1u);
  // The era file on disk is exactly the spilled container bytes.
  std::uint64_t era_bytes = 0;
  for (const auto& entry : std::filesystem::directory_iterator(dir)) {
    if (entry.path().extension() == ".iotb3") {
      era_bytes += entry.file_size();
    }
  }
  EXPECT_EQ(counter_value(d, "store.compact.bytes_written"), era_bytes);
  // Era + manifest both go through the durable write protocol.
  EXPECT_EQ(counter_value(d, "durable.write.files"), 2u);
  EXPECT_GT(counter_value(d, "durable.write.bytes"), era_bytes);
  EXPECT_EQ(hist_count(d, "store.compact.spill_ns"), 1u);
  EXPECT_EQ(counter_value(d, "store.query.count"), 3u);
  EXPECT_EQ(hist_count(d, "store.query.call_stats_ns"), 1u);
  EXPECT_EQ(hist_count(d, "store.query.bytes_in_window_ns"), 1u);
  EXPECT_EQ(hist_count(d, "store.query.hottest_files_ns"), 1u);

  // Delta exactness: a second identical query round must produce the
  // identical query-count delta (nothing lost, nothing double-counted).
  const obs::MetricsSnapshot before2 = obs::snapshot();
  (void)store.call_stats();
  (void)store.bytes_in_window(0, 200 * kMillisecond);
  (void)store.hottest_files(4);
  const obs::MetricsSnapshot d2 = obs::delta(before2, obs::snapshot());
  EXPECT_EQ(counter_value(d2, "store.query.count"), 3u);

  // attach_dir recovery over the directory just committed.
  const obs::MetricsSnapshot before3 = obs::snapshot();
  UnifiedTraceStore recovered;
  const analysis::StoreHealth health = recovered.attach_dir(dir);
  const obs::MetricsSnapshot d3 = obs::delta(before3, obs::snapshot());
  EXPECT_TRUE(health.healthy());
  EXPECT_EQ(counter_value(d3, "store.attach.recovered_eras"), 1u);
  EXPECT_EQ(counter_value(d3, "store.attach.quarantined"), 0u);
  EXPECT_EQ(hist_count(d3, "store.attach.duration_ns"), 1u);

  std::filesystem::remove_all(dir);
}

// --------------------------------------------------- disarmed inertness

TEST(Metrics, DisarmedQueriesAreBitIdentical) {
  ASSERT_FALSE(obs::enabled());
  const EventBatch batch = EventBatch::from_events(sample_events(96));
  trace::BinaryOptions options;
  options.compress = true;
  options.checksum = true;
  const std::vector<std::uint8_t> container =
      trace::encode_binary_v3(batch, options, 16);
  const std::string dir = make_scratch_dir("inert");
  const std::string path = dir + "/c.iotb3";
  write_file(path, container);

  const auto run_queries = [&path] {
    UnifiedTraceStore store;
    store.ingest_view(path);
    return std::tuple{store.call_stats(),
                      store.bytes_in_window(0, 50 * kMillisecond),
                      store.hottest_files(8)};
  };
  const auto disarmed = run_queries();
  std::string armed_json;
  {
    const ArmGuard guard;
    const auto armed = run_queries();
    EXPECT_EQ(std::get<0>(disarmed), std::get<0>(armed));
    EXPECT_EQ(std::get<1>(disarmed), std::get<1>(armed));
    EXPECT_EQ(std::get<2>(disarmed).size(), std::get<2>(armed).size());
    for (std::size_t i = 0; i < std::get<2>(disarmed).size(); ++i) {
      EXPECT_EQ(std::get<2>(disarmed)[i].path, std::get<2>(armed)[i].path);
      EXPECT_EQ(std::get<2>(disarmed)[i].bytes, std::get<2>(armed)[i].bytes);
    }
  }

  // Error text identical too: corrupt one stored block byte and decode it
  // armed and disarmed — instrumentation must not change the error path.
  std::vector<std::uint8_t> corrupt = container;
  corrupt[corrupt.size() / 2] ^= 0x40;
  const auto decode_error = [&corrupt] {
    try {
      const trace::BlockView view(corrupt);
      for (std::size_t b = 0; b < view.block_count(); ++b) {
        (void)view.cold_bytes(b);  // decodes the hot group first
      }
      return std::string("(no error)");
    } catch (const Error& err) {
      return std::string(err.what());
    }
  };
  const std::string disarmed_error = decode_error();
  std::string armed_error;
  {
    const ArmGuard guard;
    armed_error = decode_error();
  }
  EXPECT_NE(disarmed_error, "(no error)");
  EXPECT_EQ(disarmed_error, armed_error);
  std::filesystem::remove_all(dir);
}

// --------------------------------------------------- decode cross-check

TEST(Metrics, ColdStoreDecodeCrossChecksPoolAccounting) {
  const ArmGuard guard;
  const EventBatch batch = EventBatch::from_events(sample_events(192));
  trace::BinaryOptions options;
  options.compress = true;
  options.checksum = true;
  options.encrypt = true;
  options.key = derive_key("metrics-test-key");
  const std::vector<std::uint8_t> container =
      trace::encode_binary_v3(batch, options, 16);
  const std::string dir = make_scratch_dir("crosscheck");
  const std::string path = dir + "/c.iotb3";
  write_file(path, container);

  UnifiedTraceStore store;
  store.ingest_view(path, {}, options.key);

  const auto decoded_now = [&store] {
    std::uint64_t total = 0;
    for (const analysis::StorePoolInfo& info : store.pool_infos()) {
      total += info.decoded_stored_bytes;
    }
    return total;
  };

  // A narrow window, then a full scan: hot-only decodes first, cold
  // groups after. After every step the metric must equal the store's own
  // accounting bit for bit.
  const obs::MetricsSnapshot before = obs::snapshot();
  const std::uint64_t decoded_before = decoded_now();
  (void)store.bytes_in_window(60 * kMillisecond, 120 * kMillisecond);
  const obs::MetricsSnapshot mid = obs::delta(before, obs::snapshot());
  EXPECT_EQ(counter_value(mid, "block.decode.stored_bytes"),
            decoded_now() - decoded_before);
  EXPECT_GT(counter_value(mid, "block.decode.hot_blocks"), 0u);
  EXPECT_GT(counter_value(mid, "store.query.segments_skipped"), 0u);
  EXPECT_GT(hist_count(mid, "block.decode.crc_ns"), 0u);
  EXPECT_GT(hist_count(mid, "block.decode.decrypt_ns"), 0u);
  EXPECT_GT(hist_count(mid, "block.decode.decompress_ns"), 0u);

  (void)store.hottest_files(8);  // needs cold columns: cold-group decodes
  const obs::MetricsSnapshot d = obs::delta(before, obs::snapshot());
  EXPECT_EQ(counter_value(d, "block.decode.stored_bytes"),
            decoded_now() - decoded_before);
  EXPECT_GT(counter_value(d, "block.decode.full_blocks"), 0u);
  EXPECT_EQ(counter_value(d, "block.decode.failures"), 0u);
  std::filesystem::remove_all(dir);
}

// ------------------------------------------------- per-scan skip work

/// Four blocks of 16 records, block b stamped 16b..16b+15 ms:
///   0: SYS_write transfers (fd + path, bytes moved)
///   1: SYS_read transfers (fd + path, bytes moved)
///   2: annotations (no I/O call, no fd or path, no bytes)
///   3: SYS_open calls (fd + path, no bytes)
[[nodiscard]] std::vector<TraceEvent> four_block_events() {
  std::vector<TraceEvent> events;
  for (int i = 0; i < 64; ++i) {
    TraceEvent ev;
    if (i / 16 == 2) {
      ev.cls = trace::EventClass::kAnnotation;
      ev.name = "checkpoint";
    } else {
      static const char* kNames[] = {"SYS_write", "SYS_read", "", "SYS_open"};
      ev = trace::make_syscall(kNames[i / 16], {"5"}, 0);
      ev.path = "/pfs/f.dat";
      ev.fd = 5;
      ev.bytes = i / 16 == 3 ? 0 : 4096;
    }
    ev.rank = i % 4;
    ev.local_start = static_cast<SimTime>(i) * kMillisecond;
    ev.duration = 10 * kMicrosecond;
    events.push_back(std::move(ev));
  }
  return events;
}

/// One scan's index skips and first-touch block decodes.
struct Work {
  std::uint64_t pools_skipped, segments_scanned, segments_skipped,
      hot_blocks, full_blocks;
  bool operator==(const Work&) const = default;
};

std::ostream& operator<<(std::ostream& os, const Work& w) {
  return os << "{pools skipped " << w.pools_skipped << ", segments scanned "
            << w.segments_scanned << ", skipped " << w.segments_skipped
            << ", hot blocks " << w.hot_blocks << ", full blocks "
            << w.full_blocks << "}";
}

TEST(Metrics, EachScanSkipsAndDecodesWhatItsPredicateAllows) {
  const ArmGuard guard;
  trace::BinaryOptions options;
  options.checksum = true;
  options.project = true;
  const std::string dir = make_scratch_dir("scan_work");
  const std::string path = dir + "/four.iotb3";
  write_file(path, trace::encode_binary_v3(
                       EventBatch::from_events(four_block_events()), options,
                       16));
  // Pool 1: owned annotations at 100..107 ms (no I/O, no fd or path).
  std::vector<TraceEvent> notes;
  for (int i = 0; i < 8; ++i) {
    TraceEvent ev;
    ev.cls = trace::EventClass::kAnnotation;
    ev.name = "note";
    ev.rank = 0;
    ev.local_start = (100 + i) * kMillisecond;
    notes.push_back(std::move(ev));
  }

  // A fresh store per scan, so every block decode is a first touch.
  const auto work = [&](const auto& scan) {
    UnifiedTraceStore store;
    store.ingest_view(path);                     // pool 0: four blocks
    store.ingest(EventBatch::from_events(notes));  // pool 1
    store.ingest(EventBatch{});                  // pool 2: empty
    const obs::MetricsSnapshot before = obs::snapshot();
    scan(store);
    const obs::MetricsSnapshot d = obs::delta(before, obs::snapshot());
    return Work{counter_value(d, "store.query.pools_skipped"),
                counter_value(d, "store.query.segments_scanned"),
                counter_value(d, "store.query.segments_skipped"),
                counter_value(d, "block.decode.hot_blocks"),
                counter_value(d, "block.decode.full_blocks")};
  };

  // The empty pool is skipped by every scan. call_stats reads every block,
  // hot columns only, and the owned pool.
  EXPECT_EQ(work([](const auto& s) { (void)s.call_stats(); }),
            (Work{1, 5, 0, 4, 0}));
  // materialize() needs whole records: a projected full decode first
  // decodes the hot group, so every block counts both.
  EXPECT_EQ(work([](const auto& s) { (void)s.rank_timeline(0); }),
            (Work{1, 5, 0, 4, 4}));
  // [20, 60) ms: block 0 lies before it; blocks 2 and 3 hold no transfer;
  // the owned pool lies after it.
  EXPECT_EQ(work([](const auto& s) {
              (void)s.bytes_in_window(20 * kMillisecond, 60 * kMillisecond);
            }),
            (Work{2, 1, 3, 1, 0}));
  // Transfers only: blocks 0 and 1; the span comes from the pool indexes.
  EXPECT_EQ(work([](const auto& s) {
              (void)s.io_rate_series(5 * kMillisecond);
            }),
            (Work{2, 2, 2, 2, 0}));
  // fd + path or bytes moved: blocks 0, 1 and 3, whole records.
  EXPECT_EQ(work([](const auto& s) { (void)s.hottest_files(8); }),
            (Work{2, 3, 1, 3, 3}));
  // I/O calls: blocks 0, 1 and 3, hot columns; owned segments carry no
  // finer index, so the owned pool is scanned.
  EXPECT_EQ(work([](const auto& s) {
              (void)analysis::dfg::DfgBuilder(s).build();
            }),
            (Work{1, 4, 1, 3, 0}));
  std::filesystem::remove_all(dir);
}

// ------------------------------------------------- capture and encode

TEST(Metrics, CaptureCountsBatchFlushesAndEncodeTimesEachStage) {
  const ArmGuard guard;
  const sim::Cluster cluster([] {
    sim::ClusterParams p;
    p.node_count = 4;
    return p;
  }());
  workload::MpiIoTestParams params;
  params.nranks = 4;
  params.block = 64 * kKiB;
  params.total_bytes = 32 * kMiB;
  frameworks::LanlTrace lanl;  // ltrace mode, batch capacity 256
  const obs::MetricsSnapshot before = obs::snapshot();
  const frameworks::TraceRunResult run =
      lanl.trace(cluster, workload::make_mpi_io_test(params),
                 std::make_shared<pfs::Pfs>(), frameworks::TraceJobOptions{});
  const obs::MetricsSnapshot d = obs::delta(before, obs::snapshot());
  // RankBatcher delivers each rank's events in ceil(n_r / 256) batches.
  std::uint64_t flushes = 0;
  std::uint64_t events = 0;
  for (const trace::RankStream& rs : run.bundle.ranks) {
    flushes += (rs.events.size() + 255) / 256;
    events += rs.events.size();
  }
  ASSERT_EQ(run.bundle.ranks.size(), 4u);
  EXPECT_GT(flushes, 4u);  // several full batches per rank, then remainders
  EXPECT_EQ(counter_value(d, "sink.batch.flushes"), flushes);
  EXPECT_EQ(counter_value(d, "sink.batch.events"), events);
  EXPECT_EQ(events, static_cast<std::uint64_t>(run.bundle.total_events()));

  // A 3-block container records one sample per block for each stage it
  // runs, and none for a stage that is switched off.
  const EventBatch batch = EventBatch::from_events(sample_events(300));
  using Samples = std::array<std::uint64_t, 3>;  // compress, crc, encrypt
  const auto stage_samples = [&batch](const trace::BinaryOptions& options) {
    const obs::MetricsSnapshot b = obs::snapshot();
    (void)trace::encode_binary_v3(batch, options, 128);
    const obs::MetricsSnapshot e = obs::delta(b, obs::snapshot());
    return Samples{hist_count(e, "block.encode.compress_ns"),
                   hist_count(e, "block.encode.crc_ns"),
                   hist_count(e, "block.encode.encrypt_ns")};
  };
  trace::BinaryOptions all;
  all.compress = true;
  all.checksum = true;
  all.encrypt = true;
  all.key = derive_key("metrics");
  // Two column groups per block, still one sample per stage.
  EXPECT_EQ(stage_samples(all), (Samples{3, 3, 3}));
  trace::BinaryOptions crc_only;
  crc_only.checksum = true;
  EXPECT_EQ(stage_samples(crc_only), (Samples{0, 3, 0}));
  trace::BinaryOptions none;
  none.checksum = false;
  EXPECT_EQ(stage_samples(none), (Samples{0, 0, 0}));
}

}  // namespace
}  // namespace iotaxo
