// Tests for the DFG mining subsystem (PR 4): builder determinism (serial
// == parallel, owned == block-backed, pre- == post-compaction, invariance
// to source splits), edge/gap/byte statistics, rank filtering and edge
// cases, phase segmentation (gap cuts, loop detection, labels), graph
// comparison and outlier flagging, DOT/JSON export, and the store's
// pool_infos() introspection accessor.
#include <gtest/gtest.h>

#include <cstdio>
#include <string>
#include <vector>

#include "analysis/dfg/dfg.h"
#include "analysis/dfg/dfg_compare.h"
#include "analysis/dfg/dfg_export.h"
#include "analysis/dfg/phase_segmenter.h"
#include "analysis/unified_store.h"
#include "trace/binary_format.h"
#include "trace/event_batch.h"
#include "util/error.h"
#include "util/strings.h"

namespace iotaxo::analysis::dfg {
namespace {

using trace::EventBatch;
using trace::TraceEvent;

[[nodiscard]] TraceEvent io_event(const char* name, int rank, SimTime start,
                                  SimTime duration, Bytes bytes = 0) {
  TraceEvent ev = trace::make_syscall(name, {}, bytes);
  ev.rank = rank;
  ev.local_start = start;
  ev.duration = duration;
  ev.bytes = bytes;
  return ev;
}

/// A two-rank stream with known transitions: rank 0 runs open, 3x write,
/// close; rank 1 runs open, 2x read, close. Events are 100us apart with
/// 10us durations, so every gap is 90us.
[[nodiscard]] std::vector<TraceEvent> small_stream() {
  std::vector<TraceEvent> events;
  SimTime t0 = 0;
  events.push_back(io_event("SYS_open", 0, t0, 10 * kMicrosecond));
  for (int i = 0; i < 3; ++i) {
    events.push_back(io_event("SYS_write", 0,
                              t0 + (i + 1) * 100 * kMicrosecond,
                              10 * kMicrosecond, 4096));
  }
  events.push_back(
      io_event("SYS_close", 0, t0 + 400 * kMicrosecond, 10 * kMicrosecond));
  SimTime t1 = 50 * kMicrosecond;
  events.push_back(io_event("SYS_open", 1, t1, 10 * kMicrosecond));
  for (int i = 0; i < 2; ++i) {
    events.push_back(io_event("SYS_read", 1,
                              t1 + (i + 1) * 100 * kMicrosecond,
                              10 * kMicrosecond, 8192));
  }
  events.push_back(
      io_event("SYS_close", 1, t1 + 300 * kMicrosecond, 10 * kMicrosecond));
  return events;
}

[[nodiscard]] UnifiedTraceStore store_of(const std::vector<TraceEvent>& events,
                                         std::size_t sources = 1) {
  UnifiedTraceStore store;
  const std::size_t chunk = (events.size() + sources - 1) / sources;
  for (std::size_t s = 0; s < sources; ++s) {
    EventBatch batch;
    const std::size_t begin = s * chunk;
    const std::size_t end = std::min(events.size(), begin + chunk);
    for (std::size_t i = begin; i < end; ++i) {
      batch.append(events[i]);
    }
    store.ingest(batch, {{"framework", "test"},
                         {"application", strprintf("part%zu", s)}});
  }
  return store;
}

[[nodiscard]] trace::StrId id_of(const Dfg& dfg, std::string_view name) {
  for (trace::StrId id = 0; id < dfg.names.size(); ++id) {
    if (dfg.names[id] == name) {
      return id;
    }
  }
  ADD_FAILURE() << "name not in table: " << name;
  return 0;
}

TEST(DfgBuilder, CountsNodesEdgesAndGaps) {
  const UnifiedTraceStore store = store_of(small_stream());
  const Dfg dfg = DfgBuilder(store).build();

  ASSERT_EQ(dfg.ranks.size(), 2u);
  const RankDfg& r0 = dfg.ranks[0];
  EXPECT_EQ(r0.rank, 0);
  EXPECT_EQ(r0.nodes.size(), 3u);  // open, write, close
  EXPECT_EQ(r0.transitions(), 4);

  const trace::StrId open_id = id_of(dfg, "SYS_open");
  const trace::StrId write_id = id_of(dfg, "SYS_write");
  const trace::StrId close_id = id_of(dfg, "SYS_close");

  const NodeStats& write_node = r0.nodes.at(write_id);
  EXPECT_EQ(write_node.count, 3);
  EXPECT_EQ(write_node.bytes, 3 * 4096);
  EXPECT_EQ(write_node.total_duration, 30 * kMicrosecond);

  // open -> write once, write -> write twice, write -> close once; every
  // gap is 90us and edges into writes carry the write's payload.
  const EdgeStats& ow = r0.edges.at({open_id, write_id});
  EXPECT_EQ(ow.count, 1);
  EXPECT_EQ(ow.bytes, 4096);
  EXPECT_EQ(ow.gap_min, 90 * kMicrosecond);
  EXPECT_EQ(ow.gap_max, 90 * kMicrosecond);
  const EdgeStats& ww = r0.edges.at({write_id, write_id});
  EXPECT_EQ(ww.count, 2);
  EXPECT_EQ(ww.bytes, 2 * 4096);
  EXPECT_EQ(ww.gap_mean(), 90 * kMicrosecond);
  const EdgeStats& wc = r0.edges.at({write_id, close_id});
  EXPECT_EQ(wc.count, 1);
  EXPECT_EQ(wc.bytes, 0);  // close moves nothing

  const RankDfg& r1 = dfg.ranks[1];
  EXPECT_EQ(r1.rank, 1);
  EXPECT_EQ(r1.nodes.at(id_of(dfg, "SYS_read")).bytes, 2 * 8192);
  EXPECT_EQ(r1.transitions(), 3);
}

TEST(DfgBuilder, SerialEqualsParallel) {
  std::vector<TraceEvent> events;
  for (int i = 0; i < 4096; ++i) {
    events.push_back(io_event(i % 3 == 0 ? "SYS_write" : "SYS_read", i % 8,
                              i * kMicrosecond, kMicrosecond, 512));
  }
  const UnifiedTraceStore store = store_of(events, 16);
  DfgOptions serial;
  serial.threads = 1;
  serial.keep_sequences = true;
  DfgOptions parallel = serial;
  parallel.threads = 4;
  const DfgBuilder builder(store);
  EXPECT_EQ(builder.build(serial), builder.build(parallel));
  parallel.threads = 3;  // uneven chunking
  EXPECT_EQ(builder.build(serial), builder.build(parallel));
}

TEST(DfgBuilder, InvariantToSourceSplits) {
  const std::vector<TraceEvent> events = small_stream();
  const Dfg one = DfgBuilder(store_of(events, 1)).build();
  const Dfg four = DfgBuilder(store_of(events, 4)).build();
  // Splitting the same record stream into pools changes nothing: the rank
  // boundary stitch reproduces the concatenated transitions and the name
  // table is canonical.
  EXPECT_EQ(one, four);
}

TEST(DfgBuilder, OwnedEqualsBlockBacked) {
  const std::vector<TraceEvent> events = small_stream();
  const Dfg owned = DfgBuilder(store_of(events, 2)).build();

  trace::BinaryOptions options;
  options.compress = true;
  const std::vector<std::uint8_t> bytes = trace::encode_binary_v3(
      EventBatch::from_events(events), options, /*block_records=*/4);
  const std::string path = "dfg_test_block.iotb3";
  std::FILE* f = std::fopen(path.c_str(), "wb");
  ASSERT_NE(f, nullptr);
  ASSERT_EQ(std::fwrite(bytes.data(), 1, bytes.size(), f), bytes.size());
  std::fclose(f);
  UnifiedTraceStore block_store;
  block_store.ingest_view(path, {{"framework", "test"}});
  const Dfg blocked = DfgBuilder(block_store).build();
  std::remove(path.c_str());

  EXPECT_EQ(owned, blocked);
}

TEST(DfgBuilder, CompactionPreservesGraphs) {
  std::vector<TraceEvent> events;
  for (int i = 0; i < 512; ++i) {
    events.push_back(io_event(i % 2 == 0 ? "SYS_write" : "SYS_lseek", i % 4,
                              i * kMicrosecond, kMicrosecond, 256));
  }
  UnifiedTraceStore store = store_of(events, 8);
  const Dfg before = DfgBuilder(store).build();
  const std::size_t pools = store.compact(64 * kMiB);
  EXPECT_LT(pools, 8u);
  EXPECT_EQ(before, DfgBuilder(store).build());
}

TEST(DfgBuilder, EmptyStoreAndEmptySource) {
  const UnifiedTraceStore empty;
  EXPECT_TRUE(DfgBuilder(empty).build().ranks.empty());

  UnifiedTraceStore store;
  store.ingest(EventBatch{}, {{"framework", "test"}});
  EXPECT_TRUE(DfgBuilder(store).build().ranks.empty());
}

TEST(DfgBuilder, SingleEventRankHasNoEdges) {
  const UnifiedTraceStore store =
      store_of({io_event("SYS_open", 3, 0, kMicrosecond)});
  const Dfg dfg = DfgBuilder(store).build();
  ASSERT_EQ(dfg.ranks.size(), 1u);
  EXPECT_EQ(dfg.ranks[0].rank, 3);
  EXPECT_EQ(dfg.ranks[0].nodes.size(), 1u);
  EXPECT_TRUE(dfg.ranks[0].edges.empty());
  EXPECT_EQ(dfg.ranks[0].transitions(), 0);
}

TEST(DfgBuilder, SkipsRanklessAndNonIoRecords) {
  std::vector<TraceEvent> events = small_stream();
  TraceEvent probe;
  probe.cls = trace::EventClass::kClockProbe;
  probe.name = "clock_probe";
  probe.rank = 0;
  events.push_back(probe);
  TraceEvent note;
  note.cls = trace::EventClass::kAnnotation;
  note.name = "note";
  note.rank = 1;
  events.push_back(note);
  TraceEvent rankless = io_event("SYS_write", -1, 0, kMicrosecond, 64);
  events.push_back(rankless);

  const Dfg dfg = DfgBuilder(store_of(events)).build();
  EXPECT_EQ(dfg, DfgBuilder(store_of(small_stream())).build());
  for (trace::StrId id = 0; id < dfg.names.size(); ++id) {
    EXPECT_NE(dfg.names[id], "clock_probe");
    EXPECT_NE(dfg.names[id], "note");
  }
}

TEST(DfgBuilder, RankFilterMinesOnlyThatRank) {
  DfgOptions options;
  options.rank = 1;
  const Dfg dfg = DfgBuilder(store_of(small_stream())).build(options);
  ASSERT_EQ(dfg.ranks.size(), 1u);
  EXPECT_EQ(dfg.ranks[0].rank, 1);
  EXPECT_EQ(dfg.ranks[0].transitions(), 3);
}

TEST(DfgBuilder, SequencesOnlyWhenRequested) {
  const UnifiedTraceStore store = store_of(small_stream());
  EXPECT_TRUE(DfgBuilder(store).build().ranks[0].sequence.empty());
  DfgOptions options;
  options.keep_sequences = true;
  const Dfg dfg = DfgBuilder(store).build(options);
  EXPECT_EQ(dfg.ranks[0].sequence.size(), 5u);
  EXPECT_EQ(dfg.ranks[0].sequence[1].name, id_of(dfg, "SYS_write"));
  EXPECT_EQ(dfg.ranks[0].sequence[1].bytes, 4096);
}

// --------------------------------------------------------------- phases

/// One rank: a 3-call open/write/close loop repeated 4 times back-to-back,
/// a long idle gap, then a run of stat calls, another gap, then mixed
/// read+write transfers of equal weight.
[[nodiscard]] std::vector<TraceEvent> phased_stream() {
  std::vector<TraceEvent> events;
  SimTime t = 0;
  for (int i = 0; i < 4; ++i) {
    events.push_back(io_event("SYS_open", 0, t, kMicrosecond));
    t += 2 * kMicrosecond;
    events.push_back(io_event("SYS_write", 0, t, kMicrosecond, 65536));
    t += 2 * kMicrosecond;
    events.push_back(io_event("SYS_close", 0, t, kMicrosecond));
    t += 2 * kMicrosecond;
  }
  t += from_millis(50.0);  // phase boundary
  for (int i = 0; i < 6; ++i) {
    events.push_back(io_event("SYS_stat", 0, t, kMicrosecond));
    t += 2 * kMicrosecond;
  }
  t += from_millis(50.0);  // phase boundary
  for (int i = 0; i < 4; ++i) {
    events.push_back(io_event("SYS_read", 0, t, kMicrosecond, 4096));
    t += 2 * kMicrosecond;
    events.push_back(io_event("SYS_write", 0, t, kMicrosecond, 4096));
    t += 2 * kMicrosecond;
  }
  return events;
}

TEST(PhaseSegmenter, CutsLabelsAndDetectsLoops) {
  DfgOptions options;
  options.keep_sequences = true;
  const Dfg dfg = DfgBuilder(store_of(phased_stream())).build(options);
  const std::vector<Phase> phases = PhaseSegmenter(dfg).segment(0);

  ASSERT_EQ(phases.size(), 3u);

  EXPECT_EQ(phases[0].count, 12u);
  EXPECT_EQ(phases[0].label, PhaseLabel::kWriteDominant);
  EXPECT_EQ(phases[0].loop_period, 3u);
  EXPECT_EQ(phases[0].loop_iterations, 4);
  EXPECT_EQ(phases[0].write_bytes, 4 * 65536);
  EXPECT_EQ(phases[0].read_bytes, 0);

  EXPECT_EQ(phases[1].count, 6u);
  EXPECT_EQ(phases[1].label, PhaseLabel::kMetadataHeavy);
  EXPECT_EQ(phases[1].loop_period, 1u);  // stat repeats exactly
  EXPECT_EQ(phases[1].metadata_ops, 6);

  EXPECT_EQ(phases[2].count, 8u);
  EXPECT_EQ(phases[2].label, PhaseLabel::kMixed);
  EXPECT_EQ(phases[2].loop_period, 2u);  // read/write alternation
  EXPECT_EQ(phases[2].read_bytes, phases[2].write_bytes);

  // Phases tile the sequence in order.
  EXPECT_EQ(phases[0].begin, 0u);
  EXPECT_EQ(phases[1].begin, 12u);
  EXPECT_EQ(phases[2].begin, 18u);
}

TEST(PhaseSegmenter, ReadDominantLabel) {
  std::vector<TraceEvent> events;
  SimTime t = 0;
  for (int i = 0; i < 8; ++i) {
    events.push_back(io_event("SYS_read", 0, t, kMicrosecond, 65536));
    t += 2 * kMicrosecond;
  }
  events.push_back(io_event("SYS_write", 0, t, kMicrosecond, 4096));
  DfgOptions options;
  options.keep_sequences = true;
  const Dfg dfg = DfgBuilder(store_of(events)).build(options);
  const std::vector<Phase> phases = PhaseSegmenter(dfg).segment(0);
  // The read loop is its own phase; the trailing lone write becomes a
  // (write-dominant) phase of its own.
  ASSERT_EQ(phases.size(), 2u);
  EXPECT_EQ(phases[0].label, PhaseLabel::kReadDominant);
  EXPECT_EQ(phases[0].count, 8u);
  EXPECT_EQ(phases[0].read_bytes, 8 * 65536);
  EXPECT_EQ(phases[1].label, PhaseLabel::kWriteDominant);
  EXPECT_EQ(phases[1].write_bytes, 4096);
}

TEST(PhaseSegmenter, RequiresSequences) {
  const Dfg dfg = DfgBuilder(store_of(small_stream())).build();
  const PhaseSegmenter segmenter(dfg);
  EXPECT_THROW((void)segmenter.segment(0), ConfigError);
  EXPECT_THROW((void)segmenter.segment(99), ConfigError);  // no such rank
}

// --------------------------------------------------------------- compare

TEST(DfgCompare, IdenticalRanksDivergeZero) {
  const Dfg dfg = DfgBuilder(store_of(small_stream())).build();
  const RankDelta self = compare_ranks(dfg, 0, dfg, 0);
  EXPECT_DOUBLE_EQ(self.divergence, 0.0);
}

TEST(DfgCompare, DisjointRanksDivergeFully) {
  const Dfg dfg = DfgBuilder(store_of(small_stream())).build();
  // Rank 0 writes, rank 1 reads: transition sets share open->x / x->close
  // shapes but differ on the transfer edges.
  const RankDelta delta = compare_ranks(dfg, 0, dfg, 1);
  EXPECT_GT(delta.divergence, 0.3);
  EXPECT_LE(delta.divergence, 1.0);
  ASSERT_FALSE(delta.edges.empty());
  // Deltas are sorted by contribution, descending.
  for (std::size_t i = 1; i < delta.edges.size(); ++i) {
    EXPECT_GE(delta.edges[i - 1].divergence, delta.edges[i].divergence);
  }
}

TEST(DfgCompare, MissingRankIsFullyDivergent) {
  const Dfg dfg = DfgBuilder(store_of(small_stream())).build();
  // Rank 99 was never mined: missing behavior scores 1, empty-vs-empty 0.
  EXPECT_DOUBLE_EQ(compare_ranks(dfg, 0, dfg, 99).divergence, 1.0);
  EXPECT_DOUBLE_EQ(compare_ranks(dfg, 99, dfg, 0).divergence, 1.0);
  EXPECT_DOUBLE_EQ(compare_ranks(dfg, 99, dfg, 98).divergence, 0.0);
}

TEST(DfgCompare, RunVsRunPairsRanks) {
  const Dfg a = DfgBuilder(store_of(small_stream())).build();
  DfgOptions only_rank0;
  only_rank0.rank = 0;
  const Dfg b = DfgBuilder(store_of(small_stream())).build(only_rank0);
  const DfgComparison cmp = compare_dfgs(a, b);
  EXPECT_EQ(cmp.ranks.size(), 1u);
  EXPECT_DOUBLE_EQ(cmp.divergence, 0.0);
  ASSERT_EQ(cmp.only_in_a.size(), 1u);
  EXPECT_EQ(cmp.only_in_a[0], 1);
  EXPECT_TRUE(cmp.only_in_b.empty());
}

TEST(DfgCompare, FlagsTheOddRankOut) {
  std::vector<TraceEvent> events;
  for (int rank = 0; rank < 8; ++rank) {
    SimTime t = rank * kMicrosecond;
    for (int i = 0; i < 16; ++i) {
      events.push_back(io_event("SYS_write", rank, t, kMicrosecond, 1024));
      t += 2 * kMicrosecond;
    }
  }
  // Rank 8 reads instead: a behavioral outlier.
  SimTime t = 0;
  for (int i = 0; i < 16; ++i) {
    events.push_back(io_event("SYS_read", 8, t, kMicrosecond, 1024));
    t += 2 * kMicrosecond;
  }
  const Dfg dfg = DfgBuilder(store_of(events)).build();
  const std::vector<int> outliers = outlier_ranks(dfg);
  ASSERT_EQ(outliers.size(), 1u);
  EXPECT_EQ(outliers[0], 8);
}

TEST(DfgCompare, UniformRanksHaveNoOutliers) {
  std::vector<TraceEvent> events;
  for (int rank = 0; rank < 6; ++rank) {
    SimTime t = 0;
    for (int i = 0; i < 8; ++i) {
      events.push_back(io_event("SYS_write", rank, t, kMicrosecond, 1024));
      t += 2 * kMicrosecond;
    }
  }
  const Dfg dfg = DfgBuilder(store_of(events)).build();
  EXPECT_TRUE(outlier_ranks(dfg).empty());
}

// --------------------------------------------------------------- export

TEST(DfgExport, DotNamesEveryNodeAndEdge) {
  const Dfg dfg = DfgBuilder(store_of(small_stream())).build();
  const std::string dot = to_dot(dfg);
  EXPECT_NE(dot.find("digraph dfg {"), std::string::npos);
  EXPECT_NE(dot.find("cluster_rank_0"), std::string::npos);
  EXPECT_NE(dot.find("cluster_rank_1"), std::string::npos);
  EXPECT_NE(dot.find("SYS_write"), std::string::npos);
  EXPECT_NE(dot.find("->"), std::string::npos);

  ExportOptions rank1;
  rank1.rank = 1;
  const std::string filtered = to_dot(dfg, rank1);
  EXPECT_EQ(filtered.find("cluster_rank_0"), std::string::npos);
  EXPECT_NE(filtered.find("SYS_read"), std::string::npos);
}

TEST(DfgExport, JsonCarriesStatsAndEscapes) {
  const Dfg dfg = DfgBuilder(store_of(small_stream())).build();
  const std::string json = to_json(dfg);
  EXPECT_NE(json.find("\"ranks\": ["), std::string::npos);
  EXPECT_NE(json.find("\"name\": \"SYS_write\""), std::string::npos);
  EXPECT_NE(json.find("\"gap_mean_ns\": 90000"), std::string::npos);
  EXPECT_NE(json.find("\"transitions\": 4"), std::string::npos);

  // A hostile call name must come out escaped, not raw.
  Dfg hostile;
  hostile.names = {"", "evil\"\ncall"};
  RankDfg r;
  r.rank = 0;
  r.nodes[1] = NodeStats{1, 0, 0};
  hostile.ranks.push_back(std::move(r));
  const std::string escaped = to_json(hostile);
  EXPECT_EQ(escaped.find("evil\"\ncall"), std::string::npos);
  EXPECT_NE(escaped.find("evil\\\"\\ncall"), std::string::npos);
}

TEST(DfgExport, EqualGraphsExportByteEqual) {
  const std::vector<TraceEvent> events = small_stream();
  const Dfg a = DfgBuilder(store_of(events, 1)).build();
  const Dfg b = DfgBuilder(store_of(events, 3)).build();
  EXPECT_EQ(to_dot(a), to_dot(b));
  EXPECT_EQ(to_json(a), to_json(b));
}

// ------------------------------------------------------------ pool_infos

TEST(PoolInfos, ReportsShapeOwnedBlockAndCompacted) {
  const std::vector<TraceEvent> events = small_stream();
  UnifiedTraceStore store = store_of(events, 2);

  const std::vector<std::uint8_t> bytes = trace::encode_binary_v3(
      EventBatch::from_events(events), trace::BinaryOptions{});
  const std::string path = "dfg_test_pool_infos.iotb3";
  std::FILE* f = std::fopen(path.c_str(), "wb");
  ASSERT_NE(f, nullptr);
  ASSERT_EQ(std::fwrite(bytes.data(), 1, bytes.size(), f), bytes.size());
  std::fclose(f);
  store.ingest_view(path, {{"framework", "test"}});
  std::remove(path.c_str());

  std::vector<StorePoolInfo> infos = store.pool_infos();
  ASSERT_EQ(infos.size(), 3u);
  EXPECT_FALSE(infos[0].block_backed);
  EXPECT_FALSE(infos[1].block_backed);
  EXPECT_TRUE(infos[2].block_backed);
  EXPECT_EQ(infos[2].records, static_cast<long long>(events.size()));
  EXPECT_EQ(infos[2].approx_bytes, bytes.size());
  long long total = 0;
  for (const StorePoolInfo& info : infos) {
    total += info.records;
    EXPECT_TRUE(info.any);
    EXPECT_LE(info.min_time, info.max_time);
    EXPECT_GT(info.approx_bytes, 0u);
  }
  EXPECT_EQ(total, store.total_events());
  EXPECT_EQ(infos[0].first_source, 0u);
  EXPECT_EQ(infos[1].first_source, 1u);
  EXPECT_EQ(infos[2].first_source, 2u);

  // Compaction merges the two owned pools; the block pool stays.
  EXPECT_EQ(store.compact(64 * kMiB), 2u);
  infos = store.pool_infos();
  ASSERT_EQ(infos.size(), 2u);
  EXPECT_EQ(infos[0].source_count, 2u);
  EXPECT_FALSE(infos[0].block_backed);
  EXPECT_TRUE(infos[1].block_backed);
}

TEST(PoolInfos, ValidatedPairIngestMatchesPathIngest) {
  const std::vector<TraceEvent> events = small_stream();
  const std::vector<std::uint8_t> bytes = trace::encode_binary_v3(
      EventBatch::from_events(events), trace::BinaryOptions{});
  const std::string path = "dfg_test_pair.iotb3";
  std::FILE* f = std::fopen(path.c_str(), "wb");
  ASSERT_NE(f, nullptr);
  ASSERT_EQ(std::fwrite(bytes.data(), 1, bytes.size(), f), bytes.size());
  std::fclose(f);

  UnifiedTraceStore by_path;
  by_path.ingest_view(path, {{"framework", "test"}});

  // Probe-then-file: the already-validated view is ingested without a
  // second open-time validation, and must behave identically.
  UnifiedTraceStore by_pair;
  trace::MappedTraceFile file(path);
  trace::BlockView view(file.bytes());
  by_pair.ingest_view(std::move(file), std::move(view),
                      {{"framework", "test"}});
  EXPECT_EQ(by_path.total_events(), by_pair.total_events());
  EXPECT_EQ(by_path.call_stats(), by_pair.call_stats());
  EXPECT_EQ(DfgBuilder(by_path).build(), DfgBuilder(by_pair).build());

  // A view that does not borrow the given file is rejected.
  trace::MappedTraceFile file2(path);
  const trace::BlockView foreign(bytes);  // borrows the local buffer
  UnifiedTraceStore store;
  EXPECT_THROW(store.ingest_view(std::move(file2), foreign, {}), ConfigError);
  std::remove(path.c_str());
}

TEST(PoolInfos, WithPoolAccessBoundsChecked) {
  const UnifiedTraceStore store = store_of(small_stream());
  EXPECT_THROW(store.with_pool_access(1, [](const auto&) {}), ConfigError);
  const std::size_t n =
      store.with_pool_access(0, [](const auto& acc) { return acc.size(); });
  EXPECT_EQ(n, small_stream().size());
}

}  // namespace
}  // namespace iotaxo::analysis::dfg
