// End-to-end integration tests: trace -> analyze -> anonymize -> save/load
// -> replay pipelines crossing every module boundary.
#include <gtest/gtest.h>

#include <algorithm>
#include <filesystem>
#include <set>
#include <span>
#include <string_view>

#include "analysis/bandwidth.h"
#include "analysis/call_summary.h"
#include "analysis/skew_drift.h"
#include "anon/anonymizer.h"
#include "frameworks/lanl_trace.h"
#include "frameworks/partrace.h"
#include "frameworks/tracefs.h"
#include "fs/memfs.h"
#include "pfs/pfs.h"
#include "replay/replayer.h"
#include "sim/cluster.h"
#include "taxonomy/overhead.h"
#include "trace/binary_format.h"
#include "trace/block_view.h"
#include "trace/text_format.h"
#include "util/error.h"
#include "workload/io_intensive.h"
#include "workload/mpi_io_test.h"
#include "workload/probe_app.h"

namespace iotaxo {
namespace {

class IntegrationFixture : public ::testing::Test {
 protected:
  IntegrationFixture() : cluster_(make_params()) {}

  static sim::ClusterParams make_params() {
    sim::ClusterParams p;
    p.node_count = 8;
    return p;
  }

  sim::Cluster cluster_;
};

TEST_F(IntegrationFixture, TraceAnonymizeSaveLoadReplay) {
  // 1. Capture with //TRACE on the parallel file system.
  frameworks::PartraceParams params;
  params.sampling = 1.0;
  frameworks::Partrace partrace(params);
  workload::ProbeAppParams app;
  app.nranks = 8;
  app.phases = 16;
  app.shared_path = "/secret_project/shared.out";
  app.scratch_root = "/secret_project/scratch";
  frameworks::TraceJobOptions topts;
  topts.store_raw_streams = true;
  const auto traced = partrace.trace(cluster_, workload::make_probe_app(app),
                                     std::make_shared<pfs::Pfs>(), topts);

  // 2. Anonymize for distribution (LANL's release workflow).
  anon::RandomizingAnonymizer anonymizer(anon::FieldPolicy{}, 0xA5A5);
  const trace::TraceBundle scrubbed = anonymizer.apply(traced.bundle);
  EXPECT_FALSE(anon::leaks_any(scrubbed, {"secret_project"}));
  // Dependency edges survive anonymization (they carry only ranks+labels).
  EXPECT_EQ(scrubbed.dependencies.size(), traced.bundle.dependencies.size());

  // 3. Round-trip through disk.
  const std::string dir =
      (std::filesystem::temp_directory_path() / "iotaxo_integration").string();
  std::filesystem::remove_all(dir);
  scrubbed.save(dir);
  const trace::TraceBundle loaded = trace::TraceBundle::load(dir);
  EXPECT_EQ(loaded.ranks.size(), scrubbed.ranks.size());
  EXPECT_EQ(loaded.dependencies.size(), scrubbed.dependencies.size());

  // 4. Replay the anonymized, disk-round-tripped trace. I/O structure is
  //    preserved even though paths are scrubbed tokens.
  replay::Replayer replayer(cluster_, std::make_shared<pfs::Pfs>());
  replay::ReplayOptions ropts;
  ropts.pseudo.sync = replay::SyncStrategy::kDependencies;
  const replay::ReplayResult result = replayer.replay(loaded, ropts);
  const double ratio = static_cast<double>(result.run.bytes_written) /
                       static_cast<double>(traced.run.bytes_written);
  EXPECT_GT(ratio, 0.98);  // only the capture-invisible mmap bytes missing
  EXPECT_LE(ratio, 1.0);

  std::filesystem::remove_all(dir);
}

TEST_F(IntegrationFixture, LanlTraceSkewCorrectionEndToEnd) {
  frameworks::LanlTrace lanl;
  workload::MpiIoTestParams params;
  params.nranks = 8;
  params.total_bytes = 32 * kMiB;
  params.block = 256 * kKiB;
  frameworks::TraceJobOptions topts;
  topts.store_raw_streams = true;
  const auto traced = lanl.trace(cluster_, workload::make_mpi_io_test(params),
                                 std::make_shared<pfs::Pfs>(), topts);

  // Fit the skew/drift model from the wrapper job's probes and verify the
  // correction brings simultaneous barrier exits into alignment.
  const analysis::SkewDriftModel model =
      analysis::SkewDriftModel::fit(traced.bundle.clock_probes);
  EXPECT_GT(model.max_skew(), from_millis(1.0));  // clocks really disagreed

  // Find the io_end barrier exits: corrected exit times must cluster far
  // tighter than raw local times.
  std::vector<std::pair<int, SimTime>> exits;
  for (const trace::TraceEvent& ev : traced.bundle.barrier_events) {
    if (ev.path == "io_end") {
      exits.emplace_back(ev.rank, ev.local_start + ev.duration);
    }
  }
  ASSERT_EQ(exits.size(), 8u);
  SimTime raw_min = exits[0].second, raw_max = exits[0].second;
  SimTime cor_min = 0, cor_max = 0;
  bool first = true;
  for (const auto& [rank, local] : exits) {
    raw_min = std::min(raw_min, local);
    raw_max = std::max(raw_max, local);
    const SimTime corrected = model.correct(rank, local);
    if (first) {
      cor_min = cor_max = corrected;
      first = false;
    } else {
      cor_min = std::min(cor_min, corrected);
      cor_max = std::max(cor_max, corrected);
    }
  }
  EXPECT_LT(cor_max - cor_min, (raw_max - raw_min) / 10)
      << "correction must shrink apparent barrier-exit spread by >10x";
}

TEST_F(IntegrationFixture, RawTraceTextIsExternallyParseable) {
  frameworks::LanlTrace lanl;
  workload::MpiIoTestParams params;
  params.nranks = 4;
  params.total_bytes = 8 * kMiB;
  params.block = 256 * kKiB;
  frameworks::TraceJobOptions topts;
  topts.store_raw_streams = true;
  const auto traced = lanl.trace(cluster_, workload::make_mpi_io_test(params),
                                 std::make_shared<pfs::Pfs>(), topts);

  // Render rank 0's stream to text and parse it back (what an external
  // analysis tool consuming published traces does).
  const trace::RankStream& rs = traced.bundle.ranks.front();
  trace::TextTraceWriter::StreamMeta meta{rs.host, rs.rank, rs.pid};
  const std::string text = trace::TextTraceWriter::render(meta, rs.events);
  const auto parsed = trace::TextTraceParser::parse(text);
  EXPECT_EQ(parsed.events.size(), rs.events.size());

  // I/O semantics survive the text round trip.
  Bytes original_bytes = 0;
  Bytes parsed_bytes = 0;
  for (std::size_t i = 0; i < rs.events.size(); ++i) {
    if (rs.events[i].name == "SYS_write") {
      original_bytes += rs.events[i].bytes;
      parsed_bytes += parsed.events[i].bytes;
    }
  }
  EXPECT_GT(original_bytes, 0);
  EXPECT_EQ(parsed_bytes, original_bytes);
}

TEST_F(IntegrationFixture, TracefsEncryptedArchiveRoundTrip) {
  frameworks::TracefsParams params;
  params.shim.compress = true;
  params.shim.encrypt = true;
  params.passphrase = "archive-key";
  frameworks::Tracefs tracefs(params);
  workload::IoIntensiveParams app;
  app.nranks = 1;
  app.files_per_rank = 20;
  frameworks::TraceJobOptions topts;
  topts.store_raw_streams = true;
  const auto traced = tracefs.trace(cluster_, workload::make_io_intensive(app),
                                    std::make_shared<fs::MemFs>(), topts);

  const auto blob = tracefs.export_native(traced.bundle);
  // Encrypted: undecodable without the key...
  EXPECT_THROW((void)trace::decode_binary(blob), FormatError);
  // ...but intact with it.
  const auto events = trace::decode_binary(blob, derive_key("archive-key"));
  EXPECT_EQ(static_cast<long long>(events.size()),
            [&] {
              long long n = 0;
              for (const auto& rs : traced.bundle.ranks) {
                n += static_cast<long long>(rs.events.size());
              }
              return n;
            }());
}

TEST_F(IntegrationFixture, TracefsEncryptionCoversRecordsNotStrings) {
  // Tracefs's encrypt option is IOTB3's per-block encryption: the record
  // blocks are ciphertext, while the string table and the block index
  // stay plaintext so the file remains queryable by block. Names are kept
  // secret by exporting the anonymized bundle.
  frameworks::TracefsParams params;
  params.shim.encrypt = true;
  params.passphrase = "archive-key";
  frameworks::Tracefs tracefs(params);
  workload::IoIntensiveParams app;
  app.nranks = 2;
  app.files_per_rank = 6;
  frameworks::TraceJobOptions topts;
  topts.store_raw_streams = true;
  const auto traced = tracefs.trace(cluster_, workload::make_io_intensive(app),
                                    std::make_shared<fs::MemFs>(), topts);
  const trace::TraceBundle& bundle = traced.bundle;

  std::set<std::string> paths;
  std::set<std::string> hosts;
  std::set<std::string> args;
  std::size_t n_events = 0;
  for (const trace::RankStream& rs : bundle.ranks) {
    for (const trace::TraceEvent& ev : rs.events) {
      ++n_events;
      if (!ev.path.empty()) {
        paths.insert(ev.path);
      }
      if (!ev.host.empty()) {
        hosts.insert(ev.host);
      }
      for (const std::string& a : ev.args) {
        if (!a.empty()) {
          args.insert(a);
        }
      }
    }
  }
  ASSERT_FALSE(paths.empty());
  ASSERT_FALSE(hosts.empty());
  ASSERT_FALSE(args.empty());

  auto contains = [](std::span<const std::uint8_t> blob,
                     std::span<const std::uint8_t> needle) {
    return std::search(blob.begin(), blob.end(), needle.begin(),
                       needle.end()) != blob.end();
  };
  auto contains_text = [&](std::span<const std::uint8_t> blob,
                           std::string_view s) {
    return contains(blob, {reinterpret_cast<const std::uint8_t*>(s.data()),
                           s.size()});
  };

  // Neither reader opens the container without the key...
  const auto blob = tracefs.export_native(bundle);
  EXPECT_THROW((void)trace::decode_binary(blob), FormatError);
  EXPECT_THROW((void)trace::BlockView(blob), FormatError);

  // ...and no record is stored in the clear: none of the 81-byte records
  // of the same export without encryption appears in the encrypted one.
  frameworks::TracefsParams plain_params = params;
  plain_params.shim.encrypt = false;
  const auto plain_blob =
      frameworks::Tracefs(plain_params).export_native(bundle);
  const trace::BlockView plain(plain_blob);
  ASSERT_EQ(plain.size(), n_events);
  for (std::size_t b = 0; b < plain.block_count(); ++b) {
    const auto records = plain.block_bytes(b);
    for (std::size_t off = 0; off < records.size();
         off += trace::v2layout::kStride) {
      const auto record = records.subspan(off, trace::v2layout::kStride);
      ASSERT_TRUE(contains(plain_blob, record));
      EXPECT_FALSE(contains(blob, record)) << "record at byte " << off;
    }
  }

  // The head is plaintext: every path, host and argument string can be
  // read without the key.
  for (const auto* strings : {&paths, &hosts, &args}) {
    for (const std::string& s : *strings) {
      EXPECT_TRUE(contains_text(blob, s)) << s;
    }
  }

  // Exporting the anonymized bundle keeps paths and hosts secret: they are
  // field-encrypted before they reach the string table, and the same
  // passphrase reverses them after decoding.
  const auto anon_blob = tracefs.export_native(tracefs.anonymize(bundle));
  for (const auto* strings : {&paths, &hosts}) {
    for (const std::string& s : *strings) {
      EXPECT_FALSE(contains_text(anon_blob, s)) << s;
    }
  }
  const auto decoded =
      trace::decode_binary(anon_blob, derive_key(params.passphrase));
  ASSERT_EQ(decoded.size(), n_events);
  const anon::EncryptingAnonymizer anonymizer(params.anonymize_fields,
                                              params.passphrase);
  std::size_t i = 0;
  for (const trace::RankStream& rs : bundle.ranks) {
    for (const trace::TraceEvent& ev : rs.events) {
      const trace::TraceEvent restored = anonymizer.reverse(decoded[i++]);
      EXPECT_EQ(restored.path, ev.path);
      EXPECT_EQ(restored.host, ev.host);
    }
  }
}

TEST_F(IntegrationFixture, PatternsOrderAsInFigures) {
  // At 64 KiB the paper's Figures 2-4 order bandwidth: strided < non-strided
  // (both shared-file) while N-to-N is far faster.
  taxonomy::OverheadHarness harness(
      cluster_, [] { return std::make_shared<pfs::Pfs>(); });
  frameworks::LanlTrace lanl;

  auto bw_for = [&](workload::Pattern pattern) {
    workload::MpiIoTestParams params;
    params.pattern = pattern;
    params.nranks = 8;
    params.block = 64 * kKiB;
    params.total_bytes = 64 * kMiB;
    return harness.measure(lanl, workload::make_mpi_io_test(params));
  };
  const auto strided = bw_for(workload::Pattern::kNto1Strided);
  const auto seq = bw_for(workload::Pattern::kNto1NonStrided);
  const auto nn = bw_for(workload::Pattern::kNtoN);

  EXPECT_LT(strided.bw_untraced_mibps, seq.bw_untraced_mibps);
  EXPECT_LT(seq.bw_untraced_mibps, nn.bw_untraced_mibps);
}

}  // namespace
}  // namespace iotaxo
