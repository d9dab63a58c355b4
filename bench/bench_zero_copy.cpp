// In-place container scans, indexed store queries, and era compaction:
//
//   1. Opening a 200k-event uncompressed IOTB3 file through
//      MappedTraceFile + BlockView and scanning it in place must be >= 5x
//      faster than reading the file, decoding it into an EventBatch
//      (decode_binary_batch) and running the same scan. The gated file is
//      unchecksummed so the metric isolates the read-path difference (the
//      CRC pass costs both sides the same and would only dilute it); the
//      checksummed variant is reported alongside.
//   2. On a 32-source store, the windowed queries (a dashboard-shaped mix
//      of 16 narrow bytes_in_window probes plus one io_rate_series) must
//      run >= 3x faster with the pool indexes than with
//      set_use_indexes(false), with identical results. Measured serial so
//      the number is the index win, not thread-pool noise.
//   3. compact() must shrink the pool count while keeping the five store
//      queries identical to the uncompacted store, serial and parallel
//      alike.
//
// Writes BENCH_zero_copy.json through the shared harness (bench_common.h)
// and exits 1 when a gate or a check fails.
#include <cstdio>
#include <string>
#include <vector>

#include "analysis/unified_store.h"
#include "bench_common.h"
#include "trace/binary_format.h"
#include "trace/block_view.h"
#include "trace/event_batch.h"
#include "util/strings.h"

namespace {

using namespace iotaxo;
using trace::BlockView;
using trace::EventBatch;
using trace::EventRecord;
using trace::MappedTraceFile;
using trace::RecordView;
using trace::TraceEvent;

constexpr std::size_t kEvents = 200'000;
constexpr std::size_t kStoreSources = 32;
constexpr int kWindowProbes = 16;

constexpr double kViewScanFloor = 5.0;
constexpr double kIndexedQueryFloor = 3.0;

[[nodiscard]] std::vector<std::uint8_t> read_file(const std::string& path) {
  std::FILE* f = std::fopen(path.c_str(), "rb");
  if (f == nullptr) {
    std::fprintf(stderr, "FAIL: cannot read %s\n", path.c_str());
    std::exit(1);
  }
  std::fseek(f, 0, SEEK_END);
  const long len = std::ftell(f);
  std::fseek(f, 0, SEEK_SET);
  std::vector<std::uint8_t> bytes(static_cast<std::size_t>(len));
  if (std::fread(bytes.data(), 1, bytes.size(), f) != bytes.size()) {
    std::fprintf(stderr, "FAIL: short read on %s\n", path.c_str());
    std::exit(1);
  }
  std::fclose(f);
  return bytes;
}

/// The aggregate both read paths compute, so the comparison is scan vs
/// scan of identical work (and a correctness cross-check for free).
struct ScanResult {
  long long writes = 0;
  Bytes write_bytes = 0;
  SimTime total_duration = 0;
  bool operator==(const ScanResult&) const = default;
};

[[nodiscard]] ScanResult scan_batch(const EventBatch& batch) {
  ScanResult out;
  const trace::StrId w = batch.pool().find("SYS_write").value_or(0);
  for (const EventRecord& rec : batch.records()) {
    out.total_duration += rec.duration;
    if (rec.cls == trace::EventClass::kSyscall && w != 0 && rec.name == w) {
      ++out.writes;
      out.write_bytes += rec.bytes;
    }
  }
  return out;
}

[[nodiscard]] ScanResult scan_view(const BlockView& view) {
  ScanResult out;
  const trace::StrId w = view.find_string("SYS_write").value_or(0);
  view.for_each(
      [&](std::size_t, const RecordView& rec, std::uint32_t /*args_begin*/) {
        out.total_duration += rec.duration();
        if (rec.cls() == trace::EventClass::kSyscall && w != 0 &&
            rec.name() == w) {
          ++out.writes;
          out.write_bytes += rec.bytes();
        }
      });
  return out;
}

/// decode-then-scan vs view open+scan over one on-disk container; checks
/// that both sides agree.
[[nodiscard]] bench::Pairs view_vs_decode(const std::string& path,
                                          bool* identical) {
  ScanResult decoded_result;
  ScanResult view_result;
  const bench::Pairs pairs = bench::pairs(
      [&] {
        const std::vector<std::uint8_t> bytes = read_file(path);
        const EventBatch batch = trace::decode_binary_batch(bytes);
        decoded_result = scan_batch(batch);
      },
      [&] {
        const MappedTraceFile file(path);
        const BlockView view(file.bytes());
        view_result = scan_view(view);
      });
  *identical = *identical && decoded_result == view_result;
  return pairs;
}

}  // namespace

int main() {
  const std::vector<TraceEvent> events = bench::synth_events(kEvents);
  const EventBatch batch = EventBatch::from_events(events);

  // --- gate 1: in-place view vs decode -------------------------------------
  trace::BinaryOptions plain;
  plain.checksum = false;
  const std::string plain_path = "bench_zero_copy_plain.iotb3";
  trace::write_binary_file(plain_path, trace::encode_binary_v3(batch, plain));
  trace::BinaryOptions checksummed;  // defaults: checksum on
  const std::string crc_path = "bench_zero_copy_crc.iotb3";
  trace::write_binary_file(crc_path,
                           trace::encode_binary_v3(batch, checksummed));

  bool scans_identical = true;
  const bench::Pairs view = view_vs_decode(plain_path, &scans_identical);
  const bench::Pairs view_crc = view_vs_decode(crc_path, &scans_identical);
  std::remove(plain_path.c_str());
  std::remove(crc_path.c_str());

  // --- gate 2: indexed vs unindexed windowed queries -----------------------
  analysis::UnifiedTraceStore store;
  {
    const std::size_t chunk = kEvents / kStoreSources;
    for (std::size_t s = 0; s < kStoreSources; ++s) {
      EventBatch source;
      const std::size_t begin = s * chunk;
      const std::size_t end = s + 1 == kStoreSources ? kEvents : begin + chunk;
      for (std::size_t i = begin; i < end; ++i) {
        source.append(events[i]);
      }
      store.ingest(source, {{"framework", "bench"},
                            {"application", strprintf("era%zu", s)}});
    }
  }
  const SimTime span = static_cast<SimTime>(kEvents) * kMicrosecond;
  const SimTime era = span / static_cast<SimTime>(kStoreSources);
  const SimTime bucket = from_millis(5.0);
  // A dashboard-shaped mix: narrow probes into scattered eras plus one
  // rate series over the full span.
  const auto windowed_queries = [&] {
    Bytes window_total = 0;
    for (int w = 0; w < kWindowProbes; ++w) {
      const SimTime begin =
          (static_cast<SimTime>(w) * 7 % kStoreSources) * era + era / 4;
      window_total += store.bytes_in_window(begin, begin + era / 2);
    }
    return std::pair{window_total, store.io_rate_series(bucket)};
  };
  store.set_query_threads(1);  // isolate the index win from thread effects
  store.set_use_indexes(false);
  const auto unindexed_results = windowed_queries();
  store.set_use_indexes(true);
  const bool indexed_identical = windowed_queries() == unindexed_results;
  const auto windowed = [&](bool use_indexes) {
    return [&, use_indexes](bench::Timer& timer) {
      store.set_use_indexes(use_indexes);
      (void)timer.time(windowed_queries);
    };
  };
  const bench::Pairs indexed = bench::pairs(windowed(false), windowed(true));
  store.set_use_indexes(true);

  // --- gate 3: era compaction keeps results identical ----------------------
  store.set_query_threads(1);
  const auto before_serial = bench::query_suite(store, span);
  store.set_query_threads(4);
  const auto before_parallel = bench::query_suite(store, span);
  const std::size_t pools_before = store.pool_count();
  const std::size_t pools_after = store.compact(8 * kMiB);
  store.set_query_threads(1);
  const bool compact_serial_identical =
      bench::query_suite(store, span) == before_serial;
  store.set_query_threads(4);
  const bool compact_parallel_identical =
      bench::query_suite(store, span) == before_parallel;

  bench::Report report("zero_copy");
  report.value("events", kEvents);
  report.value("store_sources", kStoreSources);
  report.gate("view_scan_speedup", view.ratio, kViewScanFloor);
  report.value("view_scan_speedup_checksummed", view_crc.ratio.median);
  report.check("scans_identical", scans_identical);
  report.gate("indexed_query_speedup", indexed.ratio, kIndexedQueryFloor);
  report.check("indexed_identical", indexed_identical);
  report.value("pools_before", pools_before);
  report.value("pools_after", pools_after);
  report.check("compacted", pools_after < pools_before);
  report.check("compaction_identical",
               compact_serial_identical && compact_parallel_identical);
  report.check("parallel_identical", before_parallel == before_serial);

  // --- armed replay for the embedded metrics object ------------------------
  // All gated timings above ran disarmed; one armed pass over the windowed
  // mix plus the query suite feeds the artifact's "metrics" object.
  const obs::MetricsSnapshot metrics_before = bench::metrics_baseline();
  (void)windowed_queries();
  (void)bench::query_suite(store, span);
  report.metrics(metrics_before);
  return report.finish();
}
