// Streaming ingest, footer-indexed restarts, and the live DFG:
//
//   1. Feeding 1000 small flushes through a streaming store (era-aware
//      open batches) and then answering the five-query dashboard suite
//      must be >= 3x faster end to end than one-pool-per-flush ingest of
//      the same flushes, with bit-identical results. The win is
//      structural: the flush storm lands in a handful of era pools, so
//      per-pool constants stop multiplying by 1000.
//   2. Restart on a 1000-source store: attaching 1000 checksummed IOTB3
//      containers in place and answering a first indexed query must be
//      >= 5x faster than decoding each container into an owned batch
//      (decode_binary_batch), ingesting it, and answering the same query.
//      An attached pool's index comes from the container footer, and no
//      block is decoded (or CRC-checked) for pools the query's index skip
//      rejects.
//   3. A live-DFG snapshot over the streamed store must be >= 2x faster
//      than a cold DfgBuilder rebuild, and bit-identical to it.
//
// Writes BENCH_ingest.json through the shared harness (bench_common.h) and
// exits 1 when a gate or a check fails.
#include <unistd.h>

#include <cstdio>
#include <filesystem>
#include <string>
#include <vector>

#include "analysis/dfg/dfg.h"
#include "analysis/dfg/live_dfg.h"
#include "analysis/unified_store.h"
#include "bench_common.h"
#include "trace/binary_format.h"
#include "trace/event_batch.h"
#include "trace/record_view.h"
#include "util/strings.h"

namespace {

using namespace iotaxo;
using analysis::UnifiedTraceStore;
using trace::EventBatch;
using trace::TraceEvent;

constexpr std::size_t kFlushes = 1000;
constexpr std::size_t kPerFlush = 10;
constexpr std::size_t kSources = 1000;
constexpr std::size_t kPerSource = 4000;
// Small enough that the 1000-flush storm seals a handful of eras (the
// bounded-pool-count story), large enough that an era still absorbs
// hundreds of flushes.
constexpr std::size_t kEraBytes = 128 * 1024;

constexpr double kIngestFloor = 3.0;
constexpr double kRestartFloor = 5.0;
constexpr double kLiveDfgFloor = 2.0;

/// One flush of the capture-shaped stream: a few ranks interleaving
/// transfer calls over shared paths, stamps advancing monotonically so
/// flushes (and sources) occupy disjoint eras.
[[nodiscard]] EventBatch make_flush(std::size_t flush, std::size_t count) {
  static const char* kNames[] = {"SYS_write", "SYS_read", "SYS_lseek",
                                 "MPI_File_write_at"};
  EventBatch batch;
  for (std::size_t i = 0; i < count; ++i) {
    const std::size_t seq = flush * count + i;
    TraceEvent ev = trace::make_syscall(
        kNames[seq % (sizeof(kNames) / sizeof(kNames[0]))],
        {"5", "65536", strprintf("%zu", (seq % 64) * 65536)}, 65536);
    ev.rank = static_cast<int>(seq % 8);
    ev.node = ev.rank;
    ev.host = strprintf("host%02d", ev.rank);
    ev.path = seq % 2 == 0 ? "/pfs/shared/out.dat" : "/pfs/rank/out.dat";
    ev.fd = 5;
    ev.bytes = 65536;
    ev.local_start = static_cast<SimTime>(seq) * kMicrosecond;
    ev.duration = 3 * kMicrosecond;
    batch.append(ev);
  }
  return batch;
}

}  // namespace

int main() {
  // --- gate 1: 1000-flush ingest-to-queryable ------------------------------
  std::vector<EventBatch> flushes;
  flushes.reserve(kFlushes);
  for (std::size_t f = 0; f < kFlushes; ++f) {
    flushes.push_back(make_flush(f, kPerFlush));
  }
  const SimTime flush_span =
      static_cast<SimTime>(kFlushes * kPerFlush) * kMicrosecond;
  const std::map<std::string, std::string> meta = {{"framework", "bench"},
                                                   {"application", "ingest"}};
  analysis::StreamIngestOptions stream_options;
  stream_options.era_bytes = kEraBytes;
  const auto ingest_to_queryable = [&](bool streamed) {
    UnifiedTraceStore store;
    if (streamed) {
      store.set_stream_ingest(stream_options);
    }
    for (const EventBatch& flush : flushes) {
      store.ingest(flush, meta);
    }
    return std::pair{bench::query_suite(store, flush_span),
                     store.pool_count()};
  };
  const auto [streamed_results, streamed_pools] = ingest_to_queryable(true);
  const auto [per_flush_results, per_flush_pools] = ingest_to_queryable(false);
  const bool ingest_identical = streamed_results == per_flush_results;
  const bench::Pairs ingest =
      bench::pairs([&] { (void)ingest_to_queryable(false); },
                   [&] { (void)ingest_to_queryable(true); });

  // --- gate 2: restart from footer indexes --------------------------------
  const std::string dir =
      strprintf("/tmp/iotaxo_bench_ingest_%d", static_cast<int>(::getpid()));
  std::filesystem::remove_all(dir);
  std::filesystem::create_directories(dir);
  trace::BinaryOptions bopts;
  bopts.checksum = true;
  const auto era_path = [&dir](std::size_t s) {
    return strprintf("%s/era-%zu.iotb3", dir.c_str(), s);
  };
  for (std::size_t s = 0; s < kSources; ++s) {
    trace::write_binary_file(
        era_path(s), encode_binary_v3(make_flush(s, kPerSource), bopts));
  }
  const SimTime source_span =
      static_cast<SimTime>(kSources * kPerSource) * kMicrosecond;
  // Restart = file every container + the first indexed query of a
  // monitoring session (a narrow window past the capture's end: the pool
  // indexes reject every pool, so attached restarts never touch a block).
  // The baseline decodes each container into an owned batch and ingests
  // that instead.
  const auto fill = [&](UnifiedTraceStore& store, bool attach) {
    for (std::size_t s = 0; s < kSources; ++s) {
      if (attach) {
        store.ingest_view(era_path(s), meta);
      } else {
        const trace::MappedTraceFile file(era_path(s));
        store.ingest(trace::decode_binary_batch(file.bytes()), meta);
      }
    }
  };
  const auto restart = [&](bool attach) {
    UnifiedTraceStore store;
    fill(store, attach);
    return store.bytes_in_window(source_span + kSecond,
                                 source_span + 2 * kSecond);
  };
  const Bytes attached_probe = restart(true);
  const Bytes decoded_probe = restart(false);
  const bench::Pairs restarts = bench::pairs([&] { (void)restart(false); },
                                             [&] { (void)restart(true); });
  // Identity across the full suite, not just the probe: an attached store
  // must answer everything exactly like one holding the decoded batches.
  bool restart_identical = attached_probe == decoded_probe;
  {
    UnifiedTraceStore attached_store;
    UnifiedTraceStore decoded_store;
    fill(attached_store, true);
    fill(decoded_store, false);
    restart_identical =
        restart_identical &&
        bench::query_suite(attached_store, source_span) ==
            bench::query_suite(decoded_store, source_span);
  }

  // --- gate 3: live DFG vs cold rebuild ------------------------------------
  namespace dfg = analysis::dfg;
  UnifiedTraceStore live_store;
  live_store.set_stream_ingest(stream_options);
  const std::unique_ptr<dfg::LiveDfg> live = dfg::set_live_dfg(live_store);
  for (const EventBatch& flush : flushes) {
    live_store.ingest(flush, meta);
  }
  const dfg::Dfg snap = live->snapshot();
  const dfg::Dfg cold = dfg::DfgBuilder(live_store).build();
  const bool dfg_identical = snap == cold;
  const bench::Pairs live_dfg =
      bench::pairs([&] { (void)dfg::DfgBuilder(live_store).build(); },
                   [&] { (void)live->snapshot(); });

  bench::Report report("ingest");
  report.value("flushes", kFlushes);
  report.value("events_per_flush", kPerFlush);
  report.value("restart_sources", kSources);
  report.value("streamed_pools", streamed_pools);
  report.value("per_flush_pools", per_flush_pools);
  report.check("streamed_pools_bounded",
               streamed_pools * 10 <= per_flush_pools);
  report.gate("ingest_speedup", ingest.ratio, kIngestFloor);
  report.check("ingest_identical", ingest_identical);
  report.gate("restart_speedup", restarts.ratio, kRestartFloor);
  report.check("restart_identical", restart_identical);
  report.gate("live_dfg_speedup", live_dfg.ratio, kLiveDfgFloor);
  report.check("live_dfg_identical", dfg_identical);

  // --- armed replay for the embedded metrics object ------------------------
  // The gated timings above ran disarmed; one armed streamed ingest plus an
  // attached restart feeds the artifact's "metrics" object (flush/era-seal/
  // footer-index counters included).
  const obs::MetricsSnapshot metrics_before = bench::metrics_baseline();
  (void)ingest_to_queryable(true);
  (void)restart(true);
  report.metrics(metrics_before);
  std::filesystem::remove_all(dir);
  return report.finish();
}
