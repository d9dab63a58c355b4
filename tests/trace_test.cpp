// Tests for the trace data model: sinks, text format (write + parse),
// binary format (with compression/encryption/checksums), bundles.
#include <gtest/gtest.h>

#include <cstdio>
#include <filesystem>
#include <fstream>
#include <limits>
#include <string>

#include "trace/binary_format.h"
#include "trace/bundle.h"
#include "trace/event.h"
#include "trace/sink.h"
#include "trace/text_format.h"
#include "util/error.h"
#include "util/rng.h"
#include "util/strings.h"

namespace iotaxo::trace {
namespace {

[[nodiscard]] TraceEvent sample_syscall() {
  TraceEvent ev = make_syscall("SYS_open", {"/etc/hosts", "0", "0666"}, 3);
  ev.local_start = 1159808387LL * kSecond + 105818 * kMicrosecond;
  ev.duration = 34 * kMicrosecond;
  ev.rank = 7;
  ev.node = 3;
  ev.pid = 10378;
  ev.host = "host13.lanl.gov";
  ev.path = "/etc/hosts";
  ev.fd = 3;
  return ev;
}

[[nodiscard]] std::vector<TraceEvent> sample_stream() {
  std::vector<TraceEvent> events;
  events.push_back(sample_syscall());

  TraceEvent w = make_syscall("SYS_write", {"5", "65536", "131072"}, 65536);
  w.local_start = 1159808388LL * kSecond;
  w.duration = from_millis(31.0);
  w.rank = 7;
  w.pid = 10378;
  w.host = "host13.lanl.gov";
  w.fd = 5;
  w.bytes = 65536;
  w.offset = 131072;
  events.push_back(w);

  TraceEvent lib = make_libcall("MPI_File_open",
                                {"MPI_COMM_WORLD", "/pfs/out.dat",
                                 "MPI_MODE_CREATE|MPI_MODE_WRONLY"},
                                5);
  lib.local_start = 1159808389LL * kSecond;
  lib.duration = from_millis(1.2);
  lib.rank = 7;
  lib.pid = 10378;
  lib.host = "host13.lanl.gov";
  lib.path = "/pfs/out.dat";
  lib.fd = 5;
  events.push_back(lib);

  TraceEvent probe;
  probe.cls = EventClass::kClockProbe;
  probe.name = "clock_probe";
  probe.args = {"pre_sync", "1159808385.170918"};
  probe.local_start = 1159808385LL * kSecond + 170918 * kMicrosecond;
  probe.duration = 2 * kMicrosecond;
  probe.rank = 7;
  probe.pid = 10378;
  probe.host = "host13.lanl.gov";
  events.push_back(probe);

  TraceEvent note;
  note.cls = EventClass::kAnnotation;
  note.name = "Barrier before /mpi_io_test.exe -type 1";
  note.rank = 7;
  note.pid = 10378;
  note.host = "host13.lanl.gov";
  events.push_back(note);
  return events;
}

TEST(Sinks, SummaryAggregates) {
  SummarySink sink;
  for (const TraceEvent& ev : sample_stream()) {
    sink.on_event(ev);
  }
  EXPECT_EQ(sink.total_events(), 5);
  EXPECT_EQ(sink.entries().at("SYS_open").count, 1);
  EXPECT_EQ(sink.entries().at("SYS_write").total_duration, from_millis(31.0));
}

TEST(Sinks, CountingCountsBytes) {
  CountingSink sink;
  for (const TraceEvent& ev : sample_stream()) {
    sink.on_event(ev);
  }
  EXPECT_EQ(sink.count(), 5);
  EXPECT_EQ(sink.total_bytes(), 65536);
}

TEST(Sinks, MultiFansOut) {
  auto a = std::make_shared<CountingSink>();
  auto b = std::make_shared<VectorSink>();
  MultiSink multi({a, b});
  multi.on_event(sample_syscall());
  EXPECT_EQ(a->count(), 1);
  EXPECT_EQ(b->events().size(), 1u);
}

TEST(TextFormat, LineMatchesLtraceShape) {
  const std::string line = TextTraceWriter::line(sample_syscall());
  // e.g. "10:59:47.105818 SYS_open("/etc/hosts", 0, 0666) = 3 <0.000034>"
  EXPECT_NE(line.find("SYS_open(\"/etc/hosts\", 0, 0666) = 3 <0.000034>"),
            std::string::npos)
      << line;
  EXPECT_EQ(line.find("10:59:47.105818"), 0u) << line;
}

TEST(TextFormat, AnnotationRendersAsComment) {
  TraceEvent note;
  note.cls = EventClass::kAnnotation;
  note.name = "Barrier before /app";
  EXPECT_EQ(TextTraceWriter::line(note), "# Barrier before /app");
}

TEST(TextFormat, StreamRoundTripPreservesSemantics) {
  const auto original = sample_stream();
  TextTraceWriter::StreamMeta meta{"host13.lanl.gov", 7, 10378};
  const std::string text = TextTraceWriter::render(meta, original);
  const auto parsed = TextTraceParser::parse(text);

  EXPECT_EQ(parsed.meta.host, "host13.lanl.gov");
  EXPECT_EQ(parsed.meta.rank, 7);
  EXPECT_EQ(parsed.meta.pid, 10378u);
  ASSERT_EQ(parsed.events.size(), original.size());

  for (std::size_t i = 0; i < original.size(); ++i) {
    const TraceEvent& o = original[i];
    const TraceEvent& p = parsed.events[i];
    EXPECT_EQ(p.cls, o.cls) << i;
    if (o.cls == EventClass::kAnnotation) {
      EXPECT_EQ(p.name, o.name);
      continue;
    }
    EXPECT_EQ(p.name, o.name) << i;
    EXPECT_EQ(p.ret, o.ret) << i;
    // Text timestamps are truncated to microseconds.
    EXPECT_NEAR(static_cast<double>(p.local_start),
                static_cast<double>(o.local_start), 1000.0)
        << i;
    EXPECT_NEAR(static_cast<double>(p.duration),
                static_cast<double>(o.duration), 1000.0)
        << i;
    // Replayer-critical semantic fields are reconstructed from args.
    EXPECT_EQ(p.path, o.path) << i;
    EXPECT_EQ(p.fd, o.fd) << i;
    EXPECT_EQ(p.bytes, o.bytes) << i;
  }
}

TEST(TextFormat, ParserRejectsGarbage) {
  EXPECT_THROW((void)TextTraceParser::parse("this is not a trace"),
               FormatError);
  TextTraceWriter::StreamMeta meta;
  EXPECT_THROW(
      (void)TextTraceParser::parse_line("10:00:00.000000 no_call_syntax",
                                        meta, 0),
      FormatError);
}

TEST(TextFormat, ParserRejectsHostileStampsAndDurations) {
  TextTraceWriter::StreamMeta meta;
  for (const char* line : {
           // fields format_timestamp cannot emit, overflowing ones included
           "99999999999:00:00.000000 SYS_open() = 0 <0.000001>",
           "00:2147483647:00.000000 SYS_open() = 0 <0.000001>",
           "00:00:00.9223372036854775807 SYS_open() = 0 <0.000001>",
           "24:00:00.000000 SYS_open() = 0 <0.000001>",
           "10:60:00.000000 SYS_open() = 0 <0.000001>",
           "10:00:00.1000000 SYS_open() = 0 <0.000001>",
           "10:-5:00.000000 SYS_open() = 0 <0.000001>",
           "+1:00:00.000000 SYS_open() = 0 <0.000001>",
           "10:00:00 SYS_open() = 0 <0.000001>",
           "10:00:00.00x SYS_open() = 0 <0.000001>",
           // durations from_seconds cannot represent
           "10:00:00.000000 SYS_open() = 0 <1e300>",
           "10:00:00.000000 SYS_open() = 0 <-1e300>",
           "10:00:00.000000 SYS_open() = 0 <inf>",
           "10:00:00.000000 SYS_open() = 0 <nan>",
       }) {
    EXPECT_THROW((void)TextTraceParser::parse_line(line, meta, 0),
                 FormatError)
        << line;
  }
  // A day base the stamp cannot be added to.
  EXPECT_THROW(
      (void)TextTraceParser::parse_line(
          "10:00:00.000000 SYS_open() = 0 <0.000001>", meta,
          std::numeric_limits<SimTime>::max()),
      FormatError);
  EXPECT_THROW((void)TextTraceParser::parse(
                   "# iotaxo raw trace v1\n# daybase 12ab\n"),
               FormatError);
  // Stamps before the UTC offset render with negative fields; they still
  // round-trip.
  TraceEvent early = make_syscall("SYS_close", {"3"}, 0);
  early.local_start = kSecond;
  const auto parsed = TextTraceParser::parse(
      TextTraceWriter::render(TextTraceWriter::StreamMeta{}, {early}));
  ASSERT_EQ(parsed.events.size(), 1u);
  EXPECT_EQ(parsed.events[0].local_start, kSecond);
}

class BinaryRoundTrip : public ::testing::TestWithParam<int> {
 protected:
  [[nodiscard]] static BinaryOptions options_for(int mask) {
    BinaryOptions o;
    o.compress = (mask & 1) != 0;
    o.encrypt = (mask & 2) != 0;
    o.checksum = (mask & 4) != 0;
    if (o.encrypt) {
      o.key = derive_key("test-key");
    }
    return o;
  }
};

TEST_P(BinaryRoundTrip, EncodeDecode) {
  const BinaryOptions options = options_for(GetParam());
  const auto original = sample_stream();
  // Two-record blocks, so every flag combination spans several blocks.
  const auto blob = encode_binary_v3(original, options, 2);
  const auto decoded = decode_binary(
      blob, options.encrypt ? options.key : std::nullopt);
  ASSERT_EQ(decoded.size(), original.size());
  for (std::size_t i = 0; i < original.size(); ++i) {
    EXPECT_EQ(decoded[i], original[i]) << "event " << i;
  }
}

INSTANTIATE_TEST_SUITE_P(FlagCombos, BinaryRoundTrip,
                         ::testing::Range(0, 8));

TEST(BinaryFormat, HeaderPeek) {
  BinaryOptions o;
  o.compress = true;
  const auto blob = encode_binary_v3(sample_stream(), o);
  const BinaryHeader h = peek_binary_header(blob);
  EXPECT_TRUE(h.compressed);
  EXPECT_FALSE(h.encrypted);
  EXPECT_TRUE(h.checksummed);
  EXPECT_EQ(h.count, 5u);
  EXPECT_TRUE(looks_binary(blob));
}

TEST(BinaryFormat, ChecksumDetectsCorruption) {
  const auto blob = encode_binary_v3(sample_stream(), BinaryOptions{});
  auto corrupted = blob;
  corrupted[corrupted.size() / 2] ^= 0xFF;
  EXPECT_THROW((void)decode_binary(corrupted), FormatError);
}

TEST(BinaryFormat, EncryptedNeedsKey) {
  BinaryOptions o;
  o.encrypt = true;
  o.key = derive_key("k1");
  const auto blob = encode_binary_v3(sample_stream(), o);
  EXPECT_THROW((void)decode_binary(blob), FormatError);
  EXPECT_THROW((void)decode_binary(blob, derive_key("wrong")), FormatError);
  EXPECT_EQ(decode_binary(blob, derive_key("k1")).size(), 5u);
}

TEST(BinaryFormat, EncryptWithoutKeyRejected) {
  BinaryOptions o;
  o.encrypt = true;
  EXPECT_THROW((void)encode_binary_v3(sample_stream(), o), ConfigError);
}

TEST(BinaryFormat, TextIsNotBinary) {
  const std::string text = "# iotaxo raw trace v1\n";
  EXPECT_FALSE(looks_binary(std::span<const std::uint8_t>(
      reinterpret_cast<const std::uint8_t*>(text.data()), text.size())));
}

TEST(BinaryFormat, CompressionShrinksRepetitiveTraces) {
  std::vector<TraceEvent> events;
  for (int i = 0; i < 2000; ++i) {
    TraceEvent ev = make_syscall(
        "SYS_write", {"5", "65536", strprintf("%d", i * 65536)}, 65536);
    ev.host = "host13.lanl.gov";
    ev.rank = 7;
    events.push_back(ev);
  }
  BinaryOptions plain;
  BinaryOptions compressed;
  compressed.compress = true;
  EXPECT_LT(encode_binary_v3(events, compressed).size(),
            encode_binary_v3(events, plain).size() / 2);
}

TEST(Bundle, SummaryMergeAndTotals) {
  TraceBundle b;
  SummarySink s1;
  SummarySink s2;
  s1.on_event(sample_syscall());
  s2.on_event(sample_syscall());
  b.merge_summary(s1);
  b.merge_summary(s2);
  EXPECT_EQ(b.call_summary.at("SYS_open").count, 2);
  EXPECT_EQ(b.total_events(), 2);
}

TEST(Bundle, SaveLoadRoundTrip) {
  TraceBundle b;
  b.metadata["framework"] = "LANL-Trace";
  b.metadata["application"] = "/mpi_io_test.exe -type 1";
  RankStream rs;
  rs.rank = 7;
  rs.host = "host13.lanl.gov";
  rs.pid = 10378;
  rs.events = sample_stream();
  b.ranks.push_back(rs);
  b.clock_probes.push_back(rs.events[3]);
  b.dependencies.push_back(DependencyEdge{0, 3, "obj_1"});
  SummarySink sink;
  for (const TraceEvent& ev : rs.events) {
    sink.on_event(ev);
  }
  b.merge_summary(sink);

  const std::string dir =
      (std::filesystem::temp_directory_path() / "iotaxo_bundle_test").string();
  std::filesystem::remove_all(dir);
  b.save(dir);
  const TraceBundle loaded = TraceBundle::load(dir);

  EXPECT_EQ(loaded.metadata.at("framework"), "LANL-Trace");
  ASSERT_EQ(loaded.ranks.size(), 1u);
  EXPECT_EQ(loaded.ranks[0].rank, 7);
  EXPECT_EQ(loaded.ranks[0].events.size(), rs.events.size());
  EXPECT_EQ(loaded.clock_probes.size(), 1u);
  ASSERT_EQ(loaded.dependencies.size(), 1u);
  EXPECT_EQ(loaded.dependencies[0], (DependencyEdge{0, 3, "obj_1"}));
  EXPECT_EQ(loaded.call_summary.at("SYS_open").count, 1);
  std::filesystem::remove_all(dir);
}

TEST(Bundle, LoadRejectsMalformedNumbers) {
  TraceBundle b;
  RankStream rs;
  rs.rank = 2;
  rs.host = "host02";
  rs.pid = 77;
  rs.events = sample_stream();
  b.ranks.push_back(rs);
  b.dependencies.push_back(DependencyEdge{0, 2, "obj_1"});
  SummarySink sink;
  sink.on_event(sample_syscall());
  b.merge_summary(sink);
  const std::filesystem::path dir =
      std::filesystem::temp_directory_path() / "iotaxo_bundle_hostile";
  const auto write = [&dir](const char* name, const std::string& text) {
    std::ofstream(dir / name, std::ios::binary) << text;
  };
  const std::string rank_text =
      TextTraceWriter::render({"host02", 2, 77}, rs.events);
  const std::string header = "# host host02 rank 2 pid 77";
  ASSERT_NE(rank_text.find(header), std::string::npos);
  const auto with_header = [&](const std::string& replacement) {
    std::string text = rank_text;
    text.replace(text.find(header), header.size(), replacement);
    return text;
  };
  struct Case {
    const char* file;
    std::string text;
  };
  const Case cases[] = {
      {"call_summary.tsv", "name\tcount\ttotal_ns\nSYS_open\tmany\t34000\n"},
      {"call_summary.tsv", "name\tcount\ttotal_ns\nSYS_open\t1\t34us\n"},
      {"call_summary.tsv", "name\tcount\ttotal_ns\nSYS_open\t1\n"},
      {"call_summary.tsv",
       "name\tcount\ttotal_ns\nSYS_open\t99999999999999999999\t1\n"},
      {"dependencies.tsv", "from\tto\tvia\nzero\t2\tobj_1\n"},
      {"dependencies.tsv", "from\tto\tvia\n0\t4294967298\tobj_1\n"},
      {"dependencies.tsv", "from\tto\tvia\n0\t2\n"},
      {"rank_0002.trace", with_header("# host host02 rank two pid 77")},
      {"rank_0002.trace", with_header("# host host02 rank 2 pid -1")},
      {"rank_0002.trace", with_header("# host host02 rank 2 pid 4294967296")},
  };
  for (const Case& c : cases) {
    std::filesystem::remove_all(dir);
    b.save(dir.string());
    ASSERT_NO_THROW((void)TraceBundle::load(dir.string()));
    write(c.file, c.text);
    EXPECT_THROW((void)TraceBundle::load(dir.string()), FormatError)
        << c.file << ": " << c.text;
  }
  std::filesystem::remove_all(dir);
}

TEST(Bundle, LoadMissingDirectoryThrows) {
  EXPECT_THROW((void)TraceBundle::load("/nonexistent/iotaxo"), IoError);
}

}  // namespace
}  // namespace iotaxo::trace
