// Streaming-ingest tests: restarts that index attached containers from
// their footers (no block decoded) in era order, era-aware open batches
// (bit-identical to one-pool-per-flush across every query and the mined
// DFG, bounded pool counts, seal semantics), and the live DFG maintainer
// (snapshot == cold rebuild at any thread count, for any flush
// interleaving, rank filters and sequences included).
#include <gtest/gtest.h>

#include <filesystem>
#include <string>
#include <vector>

#include "analysis/dfg/dfg.h"
#include "analysis/dfg/live_dfg.h"
#include "analysis/unified_store.h"
#include "trace/binary_format.h"
#include "trace/event_batch.h"
#include "util/error.h"
#include "util/metrics.h"
#include "util/strings.h"

namespace iotaxo::trace {
namespace {

using analysis::StreamIngestOptions;
using analysis::UnifiedTraceStore;

/// Metrics record only while armed; scope the arming so other tests keep
/// seeing the (cheaper) disarmed counters.
struct ObsGuard {
  ObsGuard() { obs::set_enabled(true); }
  ~ObsGuard() { obs::set_enabled(false); }
};

[[nodiscard]] std::uint64_t metric_delta(const obs::MetricsSnapshot& before,
                                         const char* name) {
  const obs::MetricsSnapshot d = obs::delta(before, obs::snapshot());
  const auto it = d.values.find(name);
  return it == d.values.end() ? 0 : it->second.value;
}

/// One flush of the synthetic capture stream: a few ranks doing interleaved
/// reads/writes plus the occasional probe and rank-less annotation, so the
/// index flags, the DFG class filter, and the name bitmap all have work to
/// do.
[[nodiscard]] std::vector<TraceEvent> flush_events(int flush, int count) {
  std::vector<TraceEvent> events;
  for (int i = 0; i < count; ++i) {
    const int seq = flush * count + i;
    TraceEvent ev;
    if (seq % 13 == 5) {
      ev.cls = EventClass::kClockProbe;
      ev.name = "clock_probe";
    } else if (seq % 17 == 3) {
      ev.cls = EventClass::kAnnotation;
      ev.name = "phase marker";
    } else {
      ev = make_syscall(seq % 3 == 0 ? "SYS_read" : "SYS_write",
                        {"5", "4096", strprintf("%d", seq)}, 4096);
      ev.path = seq % 2 == 0 ? strprintf("/pfs/out%d.dat", flush % 4) : "";
      ev.fd = 5;
      ev.bytes = 4096;
    }
    ev.rank = seq % 5 == 0 ? -1 : seq % 4;
    ev.host = strprintf("host%02d", seq % 4);
    ev.local_start = static_cast<SimTime>(seq) * kMillisecond;
    ev.duration = 10 * kMicrosecond;
    events.push_back(std::move(ev));
  }
  return events;
}

[[nodiscard]] auto all_queries(const UnifiedTraceStore& store) {
  return std::tuple{store.call_stats(), store.rank_timeline(1),
                    store.bytes_in_window(0, 100 * kSecond),
                    store.io_rate_series(from_millis(50.0)),
                    store.hottest_files(8)};
}

[[nodiscard]] std::string scratch_dir(const char* tag) {
  const std::string dir =
      strprintf("/tmp/iotaxo_stream_%s_%d", tag,
                ::testing::UnitTest::GetInstance()->random_seed());
  std::filesystem::remove_all(dir);
  std::filesystem::create_directories(dir);
  return dir;
}

// ------------------------------------------------------ restart / attach

TEST(IndexFooter, AttachDirIndexesFromFootersWithoutDecoding) {
  const std::string dir = scratch_dir("attach_footer");
  BinaryOptions options;
  options.compress = true;
  options.checksum = true;
  constexpr int kEras = 3;
  UnifiedTraceStore owned;
  for (int era = 0; era < kEras; ++era) {
    const EventBatch batch = EventBatch::from_events(flush_events(era, 32));
    write_binary_file(strprintf("%s/era-%d.iotb3", dir.c_str(), era),
                      encode_binary_v3(batch, options, 8));
    owned.ingest(batch, {{"framework", "test"}});
  }
  ObsGuard obs_guard;
  const obs::MetricsSnapshot before = obs::snapshot();
  UnifiedTraceStore store;
  const analysis::StoreHealth health = store.attach_dir(dir);
  EXPECT_TRUE(health.healthy());
  EXPECT_EQ(store.pool_count(), static_cast<std::size_t>(kEras));
  // Every attached container's pool index came from its footer: one
  // adoption per container, and not a single block decoded to build them.
  EXPECT_EQ(metric_delta(before, "ingest.index_adopted"),
            static_cast<std::uint64_t>(kEras));
  EXPECT_EQ(metric_delta(before, "block.decode.full_blocks"), 0u);
  EXPECT_EQ(metric_delta(before, "block.decode.hot_blocks"), 0u);
  EXPECT_EQ(metric_delta(before, "block.decode.stored_bytes"), 0u);
  for (const analysis::StorePoolInfo& info : store.pool_infos()) {
    EXPECT_TRUE(info.block_backed);
    EXPECT_EQ(info.decoded_stored_bytes, 0u);
  }
  // The footer-built indexes answer exactly as scanned owned pools do.
  EXPECT_EQ(all_queries(store), all_queries(owned));
  std::filesystem::remove_all(dir);
}

TEST(AttachDir, AttachesErasInSequenceOrderUnnumberedLast) {
  // A manifest-less directory: attach order must be era order (pool order
  // is the DFG's directly-follows order and the order hottest_files
  // carries fds across pools), with names lacking a "-<n>" suffix last.
  const std::string dir = scratch_dir("attach_order");
  const auto write_era = [&dir](const char* name, SimTime stamp) {
    TraceEvent ev = make_syscall("SYS_write", {"5", "4096"}, 4096);
    ev.rank = 0;
    ev.local_start = stamp;
    write_binary_file(dir + "/" + name,
                      encode_binary_v3(std::vector<TraceEvent>{ev}, {}));
  };
  write_era("era-1.iotb3", 1000);
  write_era("era-0.iotb3", 0);
  write_era("zz.iotb3", 2000);

  UnifiedTraceStore store;
  EXPECT_TRUE(store.attach_dir(dir).healthy());
  const std::vector<analysis::StorePoolInfo> infos = store.pool_infos();
  ASSERT_EQ(infos.size(), 3u);
  EXPECT_EQ(infos[0].min_time, 0);     // era-0
  EXPECT_EQ(infos[1].min_time, 1000);  // era-1
  EXPECT_EQ(infos[2].min_time, 2000);  // zz, unnumbered
  std::filesystem::remove_all(dir);
}

// ------------------------------------------------------ era-aware ingest

TEST(StreamIngest, EraIngestMatchesOnePoolPerFlush) {
  constexpr int kFlushes = 60;
  constexpr int kPerFlush = 24;

  UnifiedTraceStore streamed;
  StreamIngestOptions sopts;
  sopts.era_bytes = 64 * kKiB;  // force several seals mid-run
  streamed.set_stream_ingest(sopts);
  UnifiedTraceStore per_flush;
  for (int f = 0; f < kFlushes; ++f) {
    const EventBatch batch = EventBatch::from_events(flush_events(f, kPerFlush));
    streamed.ingest(batch, {{"framework", "test"}});
    per_flush.ingest(batch, {{"framework", "test"}});
  }

  // The tentpole's point: a flush storm lands in a handful of pools...
  EXPECT_EQ(per_flush.pool_count(), static_cast<std::size_t>(kFlushes));
  EXPECT_LT(streamed.pool_count(), per_flush.pool_count() / 4);
  EXPECT_EQ(streamed.sources().size(), per_flush.sources().size());

  // ...with bit-identical answers from every query and the mined DFG.
  EXPECT_EQ(all_queries(streamed), all_queries(per_flush));
  namespace dfg = analysis::dfg;
  EXPECT_EQ(dfg::DfgBuilder(streamed).build({.keep_sequences = true}),
            dfg::DfgBuilder(per_flush).build({.keep_sequences = true}));

  // The last pool is the open era; sealed pools report their flush counts.
  const std::vector<analysis::StorePoolInfo> infos = streamed.pool_infos();
  std::size_t open = 0;
  std::size_t flushes_absorbed = 0;
  for (std::size_t p = 0; p < infos.size(); ++p) {
    open += infos[p].open_era ? 1 : 0;
    flushes_absorbed += infos[p].flushes_absorbed;
    if (infos[p].open_era) {
      EXPECT_EQ(p, infos.size() - 1) << "open era must be the last pool";
    }
  }
  EXPECT_LE(open, 1u);
  EXPECT_EQ(flushes_absorbed, static_cast<std::size_t>(kFlushes));
}

TEST(StreamIngest, SealSemanticsAndLargeFlushBypass) {
  UnifiedTraceStore store;
  StreamIngestOptions sopts;
  sopts.flush_events = 32;
  store.set_stream_ingest(sopts);

  EXPECT_FALSE(store.seal_open_era());  // nothing open yet
  store.ingest(EventBatch::from_events(flush_events(0, 8)),
               {{"framework", "test"}});
  store.ingest(EventBatch::from_events(flush_events(1, 8)),
               {{"framework", "test"}});
  EXPECT_EQ(store.pool_count(), 1u);
  ASSERT_FALSE(store.pool_infos().empty());
  EXPECT_TRUE(store.pool_infos().back().open_era);
  EXPECT_EQ(store.pool_infos().back().flushes_absorbed, 2u);

  // A flush above the threshold seals the open era and files its own pool.
  store.ingest(EventBatch::from_events(flush_events(2, 40)),
               {{"framework", "test"}});
  EXPECT_EQ(store.pool_count(), 2u);
  EXPECT_FALSE(store.pool_infos().front().open_era);
  EXPECT_FALSE(store.pool_infos().back().open_era);

  // New small flushes open a fresh era; sealing it is idempotent.
  store.ingest(EventBatch::from_events(flush_events(3, 8)),
               {{"framework", "test"}});
  EXPECT_EQ(store.pool_count(), 3u);
  EXPECT_TRUE(store.seal_open_era());
  EXPECT_FALSE(store.seal_open_era());

  // era_flushes caps absorption by flush count.
  UnifiedTraceStore capped;
  StreamIngestOptions copts;
  copts.era_flushes = 3;
  capped.set_stream_ingest(copts);
  for (int f = 0; f < 9; ++f) {
    capped.ingest(EventBatch::from_events(flush_events(f, 4)),
                  {{"framework", "test"}});
  }
  EXPECT_EQ(capped.pool_count(), 3u);
  for (const analysis::StorePoolInfo& info : capped.pool_infos()) {
    EXPECT_EQ(info.flushes_absorbed, 3u);
  }
}

TEST(StreamIngest, CompactSealsAndPreservesQueries) {
  UnifiedTraceStore store;
  store.set_stream_ingest(StreamIngestOptions{});
  for (int f = 0; f < 10; ++f) {
    store.ingest(EventBatch::from_events(flush_events(f, 16)),
                 {{"framework", "test"}});
  }
  const auto before = all_queries(store);
  // compact() must seal the open era before merging (an open pool merged
  // under a growing batch would corrupt the incremental index).
  (void)store.compact(static_cast<std::size_t>(-1));
  EXPECT_FALSE(store.pool_infos().empty());
  EXPECT_FALSE(store.pool_infos().back().open_era);
  EXPECT_EQ(all_queries(store), before);
}

// ------------------------------------------------------ live DFG

TEST(LiveDfg, MatchesColdRebuildAcrossThreadCounts) {
  namespace dfg = analysis::dfg;
  UnifiedTraceStore store;
  StreamIngestOptions sopts;
  sopts.era_bytes = 48 * kKiB;
  store.set_stream_ingest(sopts);
  const std::unique_ptr<dfg::LiveDfg> live = dfg::set_live_dfg(store);

  for (int f = 0; f < 40; ++f) {
    store.ingest(EventBatch::from_events(flush_events(f, 24)),
                 {{"framework", "test"}});
    if (f % 13 == 7) {
      // Mid-stream snapshots must match a cold rebuild at that instant.
      EXPECT_EQ(live->snapshot(), dfg::DfgBuilder(store).build())
          << "after flush " << f;
    }
  }
  const dfg::Dfg snap = live->snapshot();
  EXPECT_GT(live->events_folded(), 0);
  for (const std::size_t threads : {1u, 2u, 4u}) {
    EXPECT_EQ(snap, dfg::DfgBuilder(store).build({.threads = threads}))
        << "threads=" << threads;
  }

  // compact() rewrites pool boundaries, not the record stream — the live
  // state needs no re-fold and still matches a cold rebuild.
  (void)store.compact(static_cast<std::size_t>(-1));
  EXPECT_EQ(live->snapshot(), dfg::DfgBuilder(store).build());
}

TEST(LiveDfg, RankFilterAndSequencesMatchCold) {
  namespace dfg = analysis::dfg;
  UnifiedTraceStore store;
  store.set_stream_ingest(StreamIngestOptions{});
  dfg::LiveDfgOptions lopts;
  lopts.rank = 2;
  lopts.keep_sequences = true;
  const std::unique_ptr<dfg::LiveDfg> live = dfg::set_live_dfg(store, lopts);
  for (int f = 0; f < 12; ++f) {
    store.ingest(EventBatch::from_events(flush_events(f, 20)),
                 {{"framework", "test"}});
  }
  EXPECT_EQ(live->snapshot(),
            dfg::DfgBuilder(store).build({.rank = 2, .keep_sequences = true}));
}

TEST(LiveDfg, AttachMidSessionCatchesUp) {
  namespace dfg = analysis::dfg;
  UnifiedTraceStore store;
  store.set_stream_ingest(StreamIngestOptions{});
  for (int f = 0; f < 8; ++f) {
    store.ingest(EventBatch::from_events(flush_events(f, 16)),
                 {{"framework", "test"}});
  }
  // The maintainer folds what the store already holds at construction.
  const std::unique_ptr<dfg::LiveDfg> live = dfg::set_live_dfg(store);
  EXPECT_EQ(live->snapshot(), dfg::DfgBuilder(store).build());
  for (int f = 8; f < 16; ++f) {
    store.ingest(EventBatch::from_events(flush_events(f, 16)),
                 {{"framework", "test"}});
  }
  EXPECT_EQ(live->snapshot(), dfg::DfgBuilder(store).build());
}

}  // namespace
}  // namespace iotaxo::trace
