// Tests for the in-place read path over IOTB3 containers: the BlockView
// (hostile-input rejection, old-version and old-layout rejection, per-block
// CRC/compression/encryption, the hot and cold column groups, footer
// mini-index cross-checks, lying-index rejection, block-parallel decode),
// plus
// MappedTraceFile, block-backed and compacted unified-store sources, the
// pool-index query skips, and the cold-tier era spill.
#include <gtest/gtest.h>

#include <cstdio>
#include <cstring>
#include <filesystem>
#include <functional>
#include <limits>
#include <map>
#include <thread>

#include "analysis/dfg/dfg.h"
#include "analysis/unified_store.h"
#include "trace/binary_format.h"
#include "trace/block_view.h"
#include "trace/event_batch.h"
#include "trace/record_view.h"
#include "util/cipher.h"
#include "util/compress.h"
#include "util/crc32.h"
#include "util/error.h"
#include "util/rng.h"
#include "util/strings.h"

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

  for (int i = 0; i < 24; ++i) {
    TraceEvent w = make_syscall(
        "SYS_write", {"5", "65536", strprintf("%d", i * 65536)}, 65536);
    w.local_start = 1159808388LL * kSecond + i * kMillisecond;
    w.duration = from_millis(3.0);
    w.rank = i % 4;
    w.pid = 10378;
    w.host = i % 2 == 0 ? "host13.lanl.gov" : "host14.lanl.gov";
    w.path = i % 3 == 0 ? "/pfs/out.dat" : "";
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
  unknown.offset = -1;
  events.push_back(unknown);
  return events;
}

/// The sample stream in 8-record blocks, so edits can target one block.
[[nodiscard]] std::vector<std::uint8_t> encode_sample(
    const BinaryOptions& options = {}) {
  return encode_binary_v3(EventBatch::from_events(sample_stream()), options,
                          8);
}

// Header field offsets of the shared container envelope (binary_format.h):
// magic 0..6, flags 6, count 7..15, paylen 15..23.
constexpr std::size_t kFlagsOff = 6;
constexpr std::size_t kCountOff = 7;
constexpr std::size_t kPaylenOff = 15;

void put_u64(std::vector<std::uint8_t>& buf, std::size_t off,
             std::uint64_t v) {
  for (int i = 0; i < 8; ++i) {
    buf[off + static_cast<std::size_t>(i)] =
        static_cast<std::uint8_t>(v >> (8 * i));
  }
}

[[nodiscard]] std::uint64_t get_u64(const std::vector<std::uint8_t>& buf,
                                    std::size_t off) {
  std::uint64_t v = 0;
  for (int i = 0; i < 8; ++i) {
    v |= static_cast<std::uint64_t>(buf[off + static_cast<std::size_t>(i)])
         << (8 * i);
  }
  return v;
}

class MappedFileTest : public ::testing::Test {
 protected:
  [[nodiscard]] std::string temp_path() const {
    return strprintf("/tmp/iotaxo_zero_copy_%d_%s.iotb", ::testing::UnitTest::
                         GetInstance()->random_seed(),
                     ::testing::UnitTest::GetInstance()
                         ->current_test_info()
                         ->name());
  }

  void write_bytes(const std::string& path,
                   const std::vector<std::uint8_t>& bytes) {
    std::FILE* f = std::fopen(path.c_str(), "wb");
    ASSERT_NE(f, nullptr);
    ASSERT_EQ(std::fwrite(bytes.data(), 1, bytes.size(), f), bytes.size());
    std::fclose(f);
  }

  void TearDown() override { std::remove(temp_path().c_str()); }
};

TEST_F(MappedFileTest, MapsAndViewsRoundTrip) {
  const std::vector<std::uint8_t> bytes = encode_sample();
  write_bytes(temp_path(), bytes);

  MappedTraceFile file(temp_path());
  ASSERT_EQ(file.size(), bytes.size());
  EXPECT_EQ(std::memcmp(file.bytes().data(), bytes.data(), bytes.size()), 0);

  const BlockView view(file.bytes());
  EXPECT_EQ(view.size(), sample_stream().size());

  // Views must survive moves of the backing file object.
  MappedTraceFile moved = std::move(file);
  EXPECT_EQ(view.materialize(0, 0), sample_stream()[0]);
  EXPECT_EQ(moved.size(), bytes.size());
}

TEST_F(MappedFileTest, MissingFileThrows) {
  EXPECT_THROW((void)MappedTraceFile("/nonexistent/iotaxo.iotb"), IoError);
}

// ---------------------------------------------------------------- IOTB3

/// Stamp-ordered syscalls (1 ms apart from t=1 s) so block min/max windows
/// partition the timeline: every record carries 3 args and 4096 bytes.
[[nodiscard]] std::vector<TraceEvent> ordered_stream(int count) {
  std::vector<TraceEvent> events;
  events.reserve(static_cast<std::size_t>(count));
  for (int i = 0; i < count; ++i) {
    TraceEvent ev = make_syscall(i % 3 == 0 ? "SYS_read" : "SYS_write",
                                 {"5", "4096", strprintf("%d", i)}, 4096);
    ev.local_start = kSecond + static_cast<SimTime>(i) * kMillisecond;
    ev.duration = 10 * kMicrosecond;
    ev.rank = i % 4;
    ev.host = i % 2 == 0 ? "host00" : "host01";
    ev.path = i % 5 == 0 ? "/pfs/block.dat" : "";
    ev.fd = 5;
    ev.bytes = 4096;
    ev.offset = static_cast<Bytes>(i) * 4096;
    events.push_back(std::move(ev));
  }
  return events;
}

/// Stored bytes of one uncompressed, unencrypted 8-record block: its hot
/// group, then its cold group.
constexpr std::size_t kPlainHot8 = 8 * hotlayout::kStride;
constexpr std::size_t kPlainBlock8 =
    kPlainHot8 + 8 * coldlayout::kStride;

/// Byte positions of the v3 regions, parsed the same way the view does:
/// head_end is the first stored-block byte, footer the entry region.
struct V3Regions {
  std::size_t head_end = 0;
  std::size_t footer_begin = 0;
  std::size_t footer_len = 0;
  std::size_t entry_size = 0;
};

[[nodiscard]] V3Regions locate_v3(const std::vector<std::uint8_t>& bytes) {
  const auto u32_at = [&bytes](std::size_t off) {
    std::uint32_t v = 0;
    for (std::size_t i = 0; i < 4; ++i) {
      v |= static_cast<std::uint32_t>(bytes[off + i]) << (8 * i);
    }
    return v;
  };
  // Container flag bit 0x02 (binary_format.cpp): encrypted, so the head
  // grows a key-check u64.
  const std::uint8_t flags = bytes[kFlagsOff];
  std::size_t pos = kContainerHeaderSize;
  const std::uint32_t nstrings = u32_at(pos);
  pos += 4;
  for (std::uint32_t i = 0; i < nstrings; ++i) {
    pos += 4 + u32_at(pos);
  }
  const std::uint64_t nargids = get_u64(bytes, pos);
  pos += 8 + 4 * static_cast<std::size_t>(nargids);
  pos += 4;  // block_records
  if ((flags & 0x02) != 0) {
    pos += 8;  // key_check
  }
  V3Regions r;
  r.head_end = pos;
  r.footer_len =
      static_cast<std::size_t>(get_u64(bytes, bytes.size() - v3layout::kTrailerSize));
  r.footer_begin = bytes.size() - v3layout::kTrailerSize - r.footer_len;
  r.entry_size = v3layout::kEntryFixedSize + (nstrings + 7) / 8;
  return r;
}

/// Re-seal the always-verified footer CRC after a test edits footer bytes
/// (to plant index lies the open-time check must not catch).
void reseal_footer_crc(std::vector<std::uint8_t>& bytes) {
  const V3Regions r = locate_v3(bytes);
  const std::uint32_t crc = crc32(
      std::span<const std::uint8_t>(bytes).subspan(r.footer_begin,
                                                   r.footer_len));
  for (std::size_t i = 0; i < 4; ++i) {
    bytes[bytes.size() - 8 + i] = static_cast<std::uint8_t>(crc >> (8 * i));
  }
}

TEST(BlockView, HeaderAndStringTableAccessors) {
  const std::vector<std::uint8_t> bytes = encode_sample();
  const BlockView view(bytes);
  EXPECT_TRUE(view.header().checksummed);
  EXPECT_FALSE(view.header().compressed);
  EXPECT_EQ(view.header().count, sample_stream().size());
  EXPECT_EQ(view.string(0), "");
  EXPECT_GT(view.string_table_bytes(), 0u);
  ASSERT_TRUE(view.find_string("SYS_write").has_value());
  EXPECT_EQ(view.string(*view.find_string("SYS_write")), "SYS_write");
  EXPECT_FALSE(view.find_string("not-in-table").has_value());
  EXPECT_THROW((void)view.string(static_cast<StrId>(view.string_count())),
               FormatError);
  EXPECT_THROW((void)view.arg_id(view.arg_id_count()), FormatError);
}

TEST(BlockView, RejectsTruncatedBuffer) {
  const std::vector<std::uint8_t> bytes = encode_sample();
  for (const std::size_t keep :
       {std::size_t{0}, std::size_t{5}, std::size_t{22}, bytes.size() / 2,
        bytes.size() - 1}) {
    const std::vector<std::uint8_t> cut(bytes.begin(),
                                        bytes.begin() + static_cast<long>(keep));
    EXPECT_THROW((void)BlockView(cut), FormatError) << "keep=" << keep;
  }
}

/// Open `bytes` and touch both groups of every block: hostile input must
/// surface as a FormatError at open or on the first touch of the damaged
/// block.
void open_and_touch_all(const std::vector<std::uint8_t>& bytes) {
  const BlockView view(bytes);
  for (std::size_t b = 0; b < view.block_count(); ++b) {
    (void)view.cold_bytes(b);  // decodes the hot group first
  }
}

TEST(BlockView, RejectsHostileHeadAndRecordEdits) {
  // A plain container (no checksum, no compression) so each edit reaches
  // the structural check it targets instead of a CRC mismatch.
  BinaryOptions plain;
  plain.checksum = false;
  const std::vector<std::uint8_t> base = encode_sample(plain);
  const auto u32_at = [&base](std::size_t off) {
    std::uint32_t v = 0;
    for (std::size_t i = 0; i < 4; ++i) {
      v |= static_cast<std::uint32_t>(base[off + i]) << (8 * i);
    }
    return v;
  };
  // The argument-id table follows the length-prefixed strings and its u64
  // count. The last block's cold group ends where the footer begins, and
  // its hot group sits right before the cold group.
  std::size_t args_off = kContainerHeaderSize + 4;
  for (std::uint32_t i = 0; i < u32_at(kContainerHeaderSize); ++i) {
    args_off += 4 + u32_at(args_off);
  }
  ASSERT_GT(get_u64(base, args_off), 0u);  // sample stream has args
  args_off += 8;
  const BlockView base_view(base);
  const std::size_t last_n =
      base_view.block_size(base_view.block_count() - 1);
  const std::size_t last_cold_row =
      locate_v3(base).footer_begin - coldlayout::kStride;
  const std::size_t last_hot_row = locate_v3(base).footer_begin -
                                   last_n * coldlayout::kStride -
                                   hotlayout::kStride;
  const auto fill = [](std::vector<std::uint8_t>& b, std::size_t off,
                       std::size_t n) {
    for (std::size_t i = 0; i < n; ++i) {
      b[off + i] = 0xff;
    }
  };
  struct Case {
    const char* what;
    std::function<void(std::vector<std::uint8_t>&)> edit;
  };
  const std::vector<Case> cases = {
      // Rejected up front, never fed to reserve() as a giant allocation.
      {"huge nstrings",
       [&](std::vector<std::uint8_t>& b) { fill(b, kContainerHeaderSize, 4); }},
      // header + paylen wraps around 2^64 to the true buffer size.
      {"payload_length wrapping 2^64",
       [](std::vector<std::uint8_t>& b) {
         put_u64(b, kPaylenOff,
                 ~std::uint64_t{0} - kContainerHeaderSize + 1 +
                     (b.size() - kContainerHeaderSize));
       }},
      {"overstated record count",
       [](std::vector<std::uint8_t>& b) {
         put_u64(b, kCountOff, get_u64(b, kCountOff) + 3);
       }},
      {"huge record count",
       [](std::vector<std::uint8_t>& b) { put_u64(b, kCountOff, ~0ULL); }},
      {"trailing bytes after the trailer",
       [](std::vector<std::uint8_t>& b) {
         b.insert(b.end(), {0xde, 0xad, 0xbe, 0xef});
         put_u64(b, kPaylenOff, get_u64(b, kPaylenOff) + 4);
       }},
      // Consumers dereference arg ids long after open (materialize, the
      // replay generator), so the table's values are checked at open.
      {"out-of-range arg-id value",
       [&](std::vector<std::uint8_t>& b) { fill(b, args_off, 4); }},
      {"out-of-range record name id (hot group)",
       [&](std::vector<std::uint8_t>& b) {
         fill(b, last_hot_row + hotlayout::kName, 2);
       }},
      {"args_count overrun (cold group)",
       [&](std::vector<std::uint8_t>& b) {
         fill(b, last_cold_row + coldlayout::kArgsCount, 2);
       }},
      {"out-of-range record path id (cold group)",
       [&](std::vector<std::uint8_t>& b) {
         fill(b, last_cold_row + coldlayout::kPath, 2);
       }},
  };
  ASSERT_NO_THROW(open_and_touch_all(base));
  for (const Case& c : cases) {
    std::vector<std::uint8_t> bytes = base;
    c.edit(bytes);
    EXPECT_THROW(open_and_touch_all(bytes), FormatError) << c.what;
    EXPECT_THROW((void)decode_binary_batch(bytes), FormatError) << c.what;
  }
}

TEST(BlockView, RejectsOldContainerVersionsByName) {
  // IOTB1 and IOTB2 bytes (the envelope magic is all that is read before
  // the version is refused) get a FormatError naming the version from
  // every reader.
  const std::vector<std::uint8_t> v3 = encode_sample();
  for (const char version : {'1', '2'}) {
    std::vector<std::uint8_t> old = v3;
    old[4] = static_cast<std::uint8_t>(version);
    const std::string name = std::string("IOTB") + version;
    EXPECT_TRUE(looks_binary(old));
    const auto expect_named = [&name](const auto& read) {
      try {
        read();
        FAIL() << name << " was read";
      } catch (const FormatError& err) {
        EXPECT_NE(std::string(err.what()).find(name), std::string::npos)
            << err.what();
      }
    };
    expect_named([&] { (void)peek_binary_header(old); });
    expect_named([&] { (void)BlockView(old); });
    expect_named([&] { (void)decode_binary_batch(old); });
  }

  // Recovery quarantines old-version files beside a healthy container
  // instead of failing the attach.
  const std::string dir =
      strprintf("/tmp/iotaxo_old_versions_%d",
                ::testing::UnitTest::GetInstance()->random_seed());
  std::filesystem::remove_all(dir);
  std::filesystem::create_directories(dir);
  write_binary_file(dir + "/era-0.iotb3", v3);
  for (const char version : {'1', '2'}) {
    std::vector<std::uint8_t> old = v3;
    old[4] = static_cast<std::uint8_t>(version);
    write_binary_file(dir + "/old-" + version + ".iotb", old);
  }
  analysis::UnifiedTraceStore store;
  const analysis::StoreHealth health = store.attach_dir(dir);
  EXPECT_EQ(health.recovered_eras, 1u);
  ASSERT_EQ(health.quarantined.size(), 2u);
  for (const analysis::QuarantinedFile& q : health.quarantined) {
    const std::string name = std::string("IOTB") + q.file[4];
    EXPECT_NE(q.reason.find(name), std::string::npos) << q.reason;
  }
  EXPECT_EQ(store.total_events(),
            static_cast<long long>(sample_stream().size()));
  std::filesystem::remove_all(dir);
}

TEST(BlockView, RejectsWholeRecordLayoutByName) {
  // An IOTB3 container with flags bit3 clear stores 81-byte whole records;
  // every reader refuses it with a FormatError naming that layout, before
  // reading the head or footer.
  std::vector<std::uint8_t> whole = encode_sample();
  ASSERT_NE(whole[kFlagsOff] & 0x08, 0);  // the writer always sets bit3
  whole[kFlagsOff] &= static_cast<std::uint8_t>(~0x08);
  EXPECT_TRUE(looks_binary(whole));
  const auto expect_named = [](const auto& read) {
    try {
      read();
      FAIL() << "a whole-record container was read";
    } catch (const FormatError& err) {
      EXPECT_NE(std::string(err.what()).find("whole-record"),
                std::string::npos)
          << err.what();
    }
  };
  expect_named([&] { (void)peek_binary_header(whole); });
  expect_named([&] { (void)BlockView(whole); });
  expect_named([&] { (void)decode_binary_batch(whole); });

  const std::string dir =
      strprintf("/tmp/iotaxo_whole_record_%d",
                ::testing::UnitTest::GetInstance()->random_seed());
  std::filesystem::remove_all(dir);
  std::filesystem::create_directories(dir);
  write_binary_file(dir + "/whole.iotb3", whole);
  {
    analysis::UnifiedTraceStore store;
    expect_named([&] { store.ingest_view(dir + "/whole.iotb3"); });
    EXPECT_EQ(store.total_events(), 0);
  }
  // Recovery quarantines it beside a healthy container, with the reason.
  write_binary_file(dir + "/era-0.iotb3", encode_sample());
  analysis::UnifiedTraceStore store;
  const analysis::StoreHealth health = store.attach_dir(dir);
  EXPECT_EQ(health.recovered_eras, 1u);
  ASSERT_EQ(health.quarantined.size(), 1u);
  EXPECT_EQ(health.quarantined[0].file, "whole.iotb3");
  EXPECT_NE(health.quarantined[0].reason.find("whole-record"),
            std::string::npos)
      << health.quarantined[0].reason;
  EXPECT_EQ(store.total_events(),
            static_cast<long long>(sample_stream().size()));
  std::filesystem::remove_all(dir);
}

TEST(BlockView, RejectsDuplicateStringTableEntries) {
  // A hand-built body whose string table interns "dup" twice must be
  // rejected ("not interned") — records could otherwise reference the
  // second copy and dodge id-equality scans. The same container with a
  // distinct third entry opens cleanly, so the duplicate is what the
  // rejection is about.
  const auto container = [](std::string_view third) {
    std::vector<std::uint8_t> body;
    const auto u32 = [&body](std::uint32_t v) {
      for (int i = 0; i < 4; ++i) {
        body.push_back(static_cast<std::uint8_t>(v >> (8 * i)));
      }
    };
    const auto u64 = [&body](std::uint64_t v) {
      for (int i = 0; i < 8; ++i) {
        body.push_back(static_cast<std::uint8_t>(v >> (8 * i)));
      }
    };
    u32(3);  // nstrings: "", "dup", third
    u32(0);
    u32(3);
    body.insert(body.end(), {'d', 'u', 'p'});
    u32(static_cast<std::uint32_t>(third.size()));
    body.insert(body.end(), third.begin(), third.end());
    u64(0);  // nargids
    u32(1);  // block_records; zero blocks, so an empty footer
    u64(0);  // trailer: footer_len
    u64(0);  //          nblocks
    u32(0);  //          footer CRC (CRC-32 of no bytes)
    u32(v3layout::kFooterMagic);

    std::vector<std::uint8_t> bytes = {'I', 'O', 'T', 'B', '3', '\n'};
    bytes.push_back(0x08);  // flags: column groups, no transforms
    bytes.resize(kContainerHeaderSize, 0);
    put_u64(bytes, kCountOff, 0);
    put_u64(bytes, kPaylenOff, body.size());
    bytes.insert(bytes.end(), body.begin(), body.end());
    return bytes;
  };
  EXPECT_THROW((void)BlockView(container("dup")), FormatError);
  EXPECT_THROW((void)decode_binary_batch(container("dup")), FormatError);
  EXPECT_NO_THROW((void)BlockView(container("dup2")));
}

TEST(BlockView, RoundTripMatchesOwnedBatch) {
  const EventBatch batch = EventBatch::from_events(ordered_stream(44));
  for (const bool compress : {false, true}) {
    for (const bool checksum : {false, true}) {
      BinaryOptions options;
      options.compress = compress;
      options.checksum = checksum;
      const std::vector<std::uint8_t> bytes =
          encode_binary_v3(batch, options, 8);
      const BlockView view(bytes);
      ASSERT_EQ(view.size(), batch.size());
      ASSERT_EQ(view.block_count(), 6u);  // ceil(44 / 8)
      ASSERT_EQ(view.string_count(), batch.pool().size());
      for (StrId id = 0; id < view.string_count(); ++id) {
        EXPECT_EQ(view.string(id), batch.pool().view(id));
      }
      ASSERT_EQ(view.arg_id_count(), batch.arg_ids().size());
      view.for_each([&](std::size_t i, const RecordView& rec,
                        std::uint32_t args_begin) {
        EXPECT_EQ(rec.to_record(args_begin), batch.record(i))
            << "record " << i;
        EXPECT_EQ(view.materialize(i, args_begin), batch.materialize(i))
            << "record " << i;
      });
      // The generic decoder routes v3 through the same view.
      const EventBatch decoded = decode_binary_batch(bytes);
      ASSERT_EQ(decoded.size(), batch.size());
      EXPECT_EQ(decoded.record(10), batch.record(10));
      EXPECT_EQ(decoded.materialize(43), batch.materialize(43));
    }
  }
}

TEST(BlockView, FooterIndexDescribesBlocks) {
  std::vector<TraceEvent> events = ordered_stream(40);
  for (int i = 0; i < 8; ++i) {
    TraceEvent note;
    note.cls = EventClass::kAnnotation;
    note.name = "phase-marker";
    note.rank = 0;
    note.local_start = 10 * kSecond + static_cast<SimTime>(i) * kMillisecond;
    events.push_back(std::move(note));
  }
  BinaryOptions options;
  options.compress = true;
  options.checksum = true;
  const std::vector<std::uint8_t> bytes =
      encode_binary_v3(EventBatch::from_events(events), options, 8);
  const BlockView view(bytes);

  ASSERT_EQ(view.block_count(), 6u);
  EXPECT_EQ(view.block_records_nominal(), 8u);
  for (std::size_t b = 0; b < 6; ++b) {
    EXPECT_EQ(view.block_size(b), 8u);
    // Stamps are increasing, so each block's window is exactly its record
    // range's first/last stamp.
    EXPECT_EQ(view.block_min_time(b), events[b * 8].local_start) << b;
    EXPECT_EQ(view.block_max_time(b), events[b * 8 + 7].local_start) << b;
    EXPECT_EQ(view.block_args_begin(b),
              static_cast<std::uint64_t>(std::min<std::size_t>(b * 8, 40) * 3))
        << b;
  }
  // The last block holds only annotations: no I/O, no fd/path, and only
  // the marker name in its bitmap.
  EXPECT_TRUE(view.block_has_io_call(0));
  EXPECT_TRUE(view.block_has_io_bytes(0));
  EXPECT_TRUE(view.block_has_fd_path(0));
  EXPECT_FALSE(view.block_has_io_call(5));
  EXPECT_FALSE(view.block_has_io_bytes(5));
  EXPECT_FALSE(view.block_has_fd_path(5));
  const StrId write_id = *view.find_string("SYS_write");
  const StrId marker_id = *view.find_string("phase-marker");
  EXPECT_TRUE(view.block_has_name(0, write_id));
  EXPECT_FALSE(view.block_has_name(5, write_id));
  EXPECT_TRUE(view.block_has_name(5, marker_id));
  EXPECT_FALSE(view.block_has_name(0, marker_id));
  EXPECT_FALSE(view.block_has_name(0, 0));  // id 0 is never "present"
}

TEST(BlockView, CorruptBlockRejectsOnlyItself) {
  const EventBatch batch = EventBatch::from_events(ordered_stream(24));
  BinaryOptions options;
  options.checksum = true;  // uncompressed: stored offsets are record math
  std::vector<std::uint8_t> bytes = encode_binary_v3(batch, options, 8);
  const V3Regions r = locate_v3(bytes);
  // Flip one byte inside block 1's hot group (records 8..15).
  bytes[r.head_end + kPlainBlock8 + 40] ^= 0x20;

  const BlockView view(bytes);  // footer intact, blocks untouched: opens
  EXPECT_EQ(view.record(0).to_record(batch.record(0).args_begin),
            batch.record(0));
  const auto failure = [&view](std::size_t i) {
    try {
      (void)view.record(i);
    } catch (const FormatError& e) {
      return std::string(e.what());
    }
    return std::string("(no FormatError)");
  };
  const std::string first = failure(8);  // block 1 rejects
  const std::string again = failure(12);  // ... and stays dead
  // The kind prefix appears once, on the first touch and on later ones.
  EXPECT_EQ(first.rfind("format error: ", 0), 0u) << first;
  EXPECT_EQ(first.find("format error: ", 1), std::string::npos) << first;
  EXPECT_EQ(again, first);
  // Blocks 0 and 2 still serve records.
  EXPECT_EQ(view.record(16).to_record(batch.record(16).args_begin),
            batch.record(16));
}

TEST(BlockView, RejectsTruncatedFooter) {
  BinaryOptions options;
  options.checksum = true;
  const std::vector<std::uint8_t> bytes =
      encode_binary_v3(EventBatch::from_events(ordered_stream(24)), options, 8);
  const V3Regions r = locate_v3(bytes);
  // Truncations with paylen patched to stay self-consistent: the trailer
  // magic / footer bounds / footer CRC checks must reject at open.
  for (const std::size_t drop :
       {std::size_t{1}, std::size_t{4}, v3layout::kTrailerSize,
        r.footer_len}) {
    std::vector<std::uint8_t> cut(bytes.begin(),
                                  bytes.end() - static_cast<long>(drop));
    put_u64(cut, kPaylenOff, get_u64(bytes, kPaylenOff) - drop);
    EXPECT_THROW((void)BlockView(cut), FormatError) << "drop=" << drop;
  }
  // Unpatched truncation is a plain envelope length mismatch.
  const std::vector<std::uint8_t> cut(bytes.begin(), bytes.end() - 5);
  EXPECT_THROW((void)BlockView(cut), FormatError);
}

TEST(BlockView, RejectsOverstatedBlockCount) {
  BinaryOptions options;
  options.checksum = true;
  std::vector<std::uint8_t> bytes =
      encode_binary_v3(EventBatch::from_events(ordered_stream(24)), options, 8);
  const std::size_t nblocks_off = bytes.size() - 16;  // trailer: u64 @ -16
  put_u64(bytes, nblocks_off, get_u64(bytes, nblocks_off) + 1);
  EXPECT_THROW((void)BlockView(bytes), FormatError);
  // A wildly corrupt count must be rejected up front too.
  put_u64(bytes, nblocks_off, ~0ULL);
  EXPECT_THROW((void)BlockView(bytes), FormatError);
}

TEST(BlockView, RejectsIndexThatLiesAboutABlock) {
  const EventBatch batch = EventBatch::from_events(ordered_stream(24));
  BinaryOptions options;
  options.compress = true;
  options.checksum = true;
  const std::vector<std::uint8_t> base = encode_binary_v3(batch, options, 8);
  const V3Regions r = locate_v3(base);
  const std::size_t entry1 = r.footer_begin + r.entry_size;  // block 1

  // (a) min-stamp lie: the window says "starts a second early". The hot
  // group decides stamps, so hot-only and whole-record reads both reject.
  std::vector<std::uint8_t> lie = base;
  put_u64(lie, entry1 + v3layout::kEntryMinTime,
          static_cast<std::uint64_t>(batch.record(8).local_start - kSecond));
  reseal_footer_crc(lie);
  {
    const BlockView view(lie);  // footer CRC is consistent: opens
    EXPECT_EQ(view.record(0).to_record(batch.record(0).args_begin),
              batch.record(0));  // block 0 is honest
    EXPECT_THROW((void)view.hot_bytes(1), FormatError);
    EXPECT_THROW((void)view.record(8), FormatError);
  }

  // (b) bitmap lie: a spurious name-presence bit (id 0 is never set).
  std::vector<std::uint8_t> lie2 = base;
  lie2[entry1 + v3layout::kEntryFixedSize] ^= 0x01;
  reseal_footer_crc(lie2);
  EXPECT_THROW((void)BlockView(lie2).hot_bytes(1), FormatError);
  EXPECT_THROW((void)BlockView(lie2).record(8), FormatError);

  // (c) flags lie: claim an all-syscall block has no I/O.
  std::vector<std::uint8_t> lie3 = base;
  lie3[entry1 + v3layout::kEntryFlags] = 0;
  reseal_footer_crc(lie3);
  EXPECT_THROW((void)BlockView(lie3).record(8), FormatError);

  // (d) fd+path lie: the cold group decides that bit, so hot-only reads
  // still serve and the first whole-record read rejects.
  std::vector<std::uint8_t> lie4 = base;
  lie4[entry1 + v3layout::kEntryFlags] ^= v3layout::kBlockHasFdPath;
  reseal_footer_crc(lie4);
  {
    const BlockView view(lie4);
    EXPECT_NO_THROW((void)view.hot_bytes(1));
    EXPECT_THROW((void)view.cold_bytes(1), FormatError);
    EXPECT_THROW((void)view.record(8), FormatError);
  }
}

// ------------------------------------------------- encryption (per block)

constexpr CipherKey kTestKey{0x1111, 0x2222, 0x3333, 0x4444};

TEST(BlockView, EncryptWithoutKeyRejectedAtEncode) {
  BinaryOptions options;
  options.encrypt = true;  // no key
  EXPECT_THROW((void)encode_binary_v3(
                   EventBatch::from_events(ordered_stream(4)), options, 8),
               ConfigError);
}

TEST(BlockView, EncryptedRoundTripMatchesOwnedBatch) {
  const EventBatch batch = EventBatch::from_events(ordered_stream(44));
  for (const bool compress : {false, true}) {
    BinaryOptions options;
    options.compress = compress;
    options.encrypt = true;
    options.key = kTestKey;
    const std::vector<std::uint8_t> bytes = encode_binary_v3(batch, options, 8);
    const BlockView view(bytes, kTestKey);
    EXPECT_TRUE(view.encrypted());
    ASSERT_EQ(view.size(), batch.size());
    view.for_each([&](std::size_t i, const RecordView& rec,
                      std::uint32_t args_begin) {
      EXPECT_EQ(rec.to_record(args_begin), batch.record(i))
          << "record " << i << " compress=" << compress;
    });
    // The generic decoder accepts the key too.
    EXPECT_EQ(decode_binary_batch(bytes, kTestKey).record(10),
              batch.record(10));
  }
}

TEST(BlockView, MissingKeyRejectedAtOpen) {
  BinaryOptions options;
  options.encrypt = true;
  options.key = kTestKey;
  const std::vector<std::uint8_t> bytes =
      encode_binary_v3(EventBatch::from_events(ordered_stream(16)), options, 8);
  try {
    const BlockView view(bytes);
    FAIL() << "opened an encrypted container without a key";
  } catch (const FormatError& err) {
    EXPECT_NE(std::string(err.what()).find("requires a key"),
              std::string::npos);
  }
}

TEST(BlockView, WrongKeyRejectedAtOpen) {
  BinaryOptions options;
  options.encrypt = true;
  options.key = kTestKey;
  const std::vector<std::uint8_t> bytes =
      encode_binary_v3(EventBatch::from_events(ordered_stream(16)), options, 8);
  try {
    const BlockView view(bytes, CipherKey{0x9999, 0x2222, 0x3333, 0x4444});
    FAIL() << "opened an encrypted container with the wrong key";
  } catch (const FormatError& err) {
    EXPECT_NE(std::string(err.what()).find("wrong key"), std::string::npos);
  }
}

TEST(BlockView, CorruptCiphertextRejectsOnlyThatBlock) {
  const EventBatch batch = EventBatch::from_events(ordered_stream(24));
  BinaryOptions options;
  options.encrypt = true;
  options.key = kTestKey;
  options.checksum = false;  // reach the cipher, not the CRC
  std::vector<std::uint8_t> bytes = encode_binary_v3(batch, options, 8);
  const V3Regions r = locate_v3(bytes);
  // Uncompressed encrypted blocks store pad8(8 * 33) + pad8(8 * 48) =
  // 272 + 392 = 664 bytes each. Smash block 1's trailing cipher block (the
  // end of its cold group) so PKCS#7 unpadding fails.
  constexpr std::size_t kStored = 664;
  bytes[r.head_end + 2 * kStored - 3] ^= 0x20;

  const BlockView view(bytes, kTestKey);
  EXPECT_EQ(view.record(0).to_record(batch.record(0).args_begin),
            batch.record(0));
  try {
    (void)view.record(8);
    FAIL() << "decoded a block with corrupt ciphertext";
  } catch (const FormatError& err) {
    // The failure names the block ordinal.
    EXPECT_NE(std::string(err.what()).find("block 1"), std::string::npos)
        << err.what();
  }
  EXPECT_THROW((void)view.record(12), FormatError);  // sticky
  EXPECT_EQ(view.record(16).to_record(batch.record(16).args_begin),
            batch.record(16));  // block 2 unharmed
}

// ------------------------------------------------- hot and cold groups

TEST(BlockView, HotGroupServesHotColumns) {
  const EventBatch batch = EventBatch::from_events(ordered_stream(24));
  const std::vector<std::uint8_t> bytes = encode_binary_v3(batch, {}, 8);
  const BlockView view(bytes);
  for (std::size_t b = 0; b < view.block_count(); ++b) {
    // The hot group is strictly smaller than the block's full extent.
    EXPECT_LT(view.block_hot_stored_len(b), view.block_stored_len(b)) << b;
    const std::span<const std::uint8_t> hot = view.hot_bytes(b);
    ASSERT_EQ(hot.size(), view.block_size(b) * hotlayout::kStride);
    for (std::size_t i = 0; i < view.block_size(b); ++i) {
      const HotRecordView rec(hot.data() + i * hotlayout::kStride);
      const EventRecord& want = batch.record(b * 8 + i);
      EXPECT_EQ(rec.cls(), want.cls);
      EXPECT_EQ(rec.name(), want.name);
      EXPECT_EQ(rec.rank(), want.rank);
      EXPECT_EQ(rec.local_start(), want.local_start);
      EXPECT_EQ(rec.duration(), want.duration);
      EXPECT_EQ(rec.bytes(), want.bytes);
    }
  }
}

TEST(BlockView, ColdGroupCorruptionLeavesHotQueriesWorking) {
  const EventBatch batch = EventBatch::from_events(ordered_stream(24));
  BinaryOptions options;
  options.checksum = true;  // uncompressed: stored offsets are record math
  std::vector<std::uint8_t> bytes = encode_binary_v3(batch, options, 8);
  const V3Regions r = locate_v3(bytes);
  // Uncompressed blocks store hot 8*33 = 264 then cold 8*48 = 384 bytes,
  // 648 per block. Corrupt block 1's COLD group only.
  bytes[r.head_end + kPlainBlock8 + kPlainHot8 + 100] ^= 0x40;

  const BlockView view(bytes);
  // Hot decode of the same block still verifies (its own CRC) and serves.
  const std::span<const std::uint8_t> hot = view.hot_bytes(1);
  EXPECT_EQ(HotRecordView(hot.data()).local_start(),
            batch.record(8).local_start);
  // A whole-record read needs the cold group — and rejects.
  try {
    (void)view.record(8);
    FAIL() << "read a corrupt cold group";
  } catch (const FormatError& err) {
    EXPECT_NE(std::string(err.what()).find("block 1"), std::string::npos)
        << err.what();
  }
  // Other blocks decode fully.
  EXPECT_EQ(view.record(16).to_record(batch.record(16).args_begin),
            batch.record(16));
}

TEST(BlockView, HotGroupCorruptionRejectsBothPaths) {
  const EventBatch batch = EventBatch::from_events(ordered_stream(24));
  BinaryOptions options;
  options.checksum = true;
  std::vector<std::uint8_t> bytes = encode_binary_v3(batch, options, 8);
  const V3Regions r = locate_v3(bytes);
  bytes[r.head_end + kPlainBlock8 + 10] ^= 0x04;  // block 1's hot group

  const BlockView view(bytes);
  // The cold group is served only beside a valid hot group: touched first,
  // it fails with the hot group's error, sticky and verbatim.
  const auto failure = [](const auto& touch) {
    try {
      touch();
    } catch (const FormatError& e) {
      return std::string(e.what());
    }
    return std::string("(no FormatError)");
  };
  const std::string cold_error = failure([&] { (void)view.cold_bytes(1); });
  EXPECT_NE(cold_error.find("block 1 checksum mismatch"), std::string::npos)
      << cold_error;
  EXPECT_EQ(failure([&] { (void)view.hot_bytes(1); }), cold_error);
  EXPECT_EQ(failure([&] { (void)view.record(8); }), cold_error);
  EXPECT_EQ(view.failed_blocks(), 1u);
  EXPECT_EQ(view.record(0).to_record(batch.record(0).args_begin),
            batch.record(0));
}

// ------------------------------------------------- block-parallel decode

TEST(BlockView, DecodeBlocksPrefetchMatchesSerialDecode) {
  const EventBatch batch = EventBatch::from_events(ordered_stream(64));
  BinaryOptions options;
  options.compress = true;
  options.checksum = true;
  const std::vector<std::uint8_t> bytes = encode_binary_v3(batch, options, 8);
  for (const std::size_t threads : {1u, 2u, 4u}) {
    const BlockView view(bytes, std::nullopt);
    std::vector<std::size_t> all(view.block_count());
    for (std::size_t b = 0; b < all.size(); ++b) {
      all[b] = b;
    }
    view.decode_blocks(all, threads, /*hot_only=*/false);
    view.for_each([&](std::size_t i, const RecordView& rec,
                      std::uint32_t args_begin) {
      ASSERT_EQ(rec.to_record(args_begin), batch.record(i))
          << "threads=" << threads << " record " << i;
    });
  }
}

TEST(BlockView, SharedStickyFailureAcrossCopiesUnderConcurrentDecode) {
  const EventBatch batch = EventBatch::from_events(ordered_stream(24));
  BinaryOptions options;
  options.checksum = true;
  std::vector<std::uint8_t> bytes = encode_binary_v3(batch, options, 8);
  const V3Regions r = locate_v3(bytes);
  bytes[r.head_end + kPlainBlock8 + 40] ^= 0x20;  // block 1's hot group

  const BlockView view(bytes);
  const BlockView copy = view;  // copies share the decode slots
  std::string err_a;
  std::string err_b;
  std::thread ta([&] {
    try {
      (void)view.record(8);
    } catch (const FormatError& err) {
      err_a = err.what();
    }
  });
  std::thread tb([&] {
    try {
      (void)copy.record(9);
    } catch (const FormatError& err) {
      err_b = err.what();
    }
  });
  ta.join();
  tb.join();
  // Whoever lost the decode race sees the winner's sticky error, verbatim.
  EXPECT_FALSE(err_a.empty());
  EXPECT_EQ(err_a, err_b);
  EXPECT_NE(err_a.find("block 1"), std::string::npos) << err_a;
}

TEST(BlockView, MutatedCompressedGroupsThrowOrDecodeExactly) {
  // The stored hot and cold groups of a real compressed container, cut out
  // of the block region and mutated under a fixed seed and budget. The sized LZ decoder writes 16-byte wild copies
  // into slack past the declared size, so every mutant must either be
  // rejected or decode to exactly records x stride bytes; the ASan and
  // UBSan builds run this loop too.
  const EventBatch batch = EventBatch::from_events(ordered_stream(700));
  struct Group {
    std::vector<std::uint8_t> stored;
    std::size_t size = 0;
  };
  std::vector<Group> groups;
  BinaryOptions options;
  options.checksum = false;
  options.compress = true;
  const std::vector<std::uint8_t> bytes =
      encode_binary_v3(batch, options, /*block_records=*/128);
  const BlockView view(bytes);
  std::size_t off = locate_v3(bytes).head_end;
  const auto cut = [&bytes, &off](std::size_t len) {
    const auto first = bytes.begin() + static_cast<std::ptrdiff_t>(off);
    off += len;
    return std::vector<std::uint8_t>(first,
                                     first + static_cast<std::ptrdiff_t>(len));
  };
  for (std::size_t b = 0; b < view.block_count(); ++b) {
    // Each group, checked against what the view serves.
    const std::size_t hot_len = view.block_hot_stored_len(b);
    const std::pair<std::size_t, std::span<const std::uint8_t>> parts[] = {
        {hot_len, view.hot_bytes(b)},
        {view.block_stored_len(b) - hot_len, view.cold_bytes(b)}};
    for (const auto& [len, plain] : parts) {
      groups.push_back({cut(len), plain.size()});
      ASSERT_EQ(lz_decompress(groups.back().stored, plain.size()),
                std::vector<std::uint8_t>(plain.begin(), plain.end()));
    }
  }

  Rng rng(0x1A2B3C);
  std::size_t rejected = 0;
  std::size_t decoded = 0;
  for (int iter = 0; iter < 4000; ++iter) {
    const Group& g = groups[static_cast<std::size_t>(
        rng.uniform(0, static_cast<std::int64_t>(groups.size()) - 1))];
    std::vector<std::uint8_t> mutant = g.stored;
    if (iter % 2 == 0) {
      const std::int64_t flips = rng.uniform(1, 4);
      for (std::int64_t f = 0; f < flips; ++f) {
        const auto bit = static_cast<std::size_t>(rng.uniform(
            0, static_cast<std::int64_t>(mutant.size() * 8) - 1));
        mutant[bit / 8] ^= static_cast<std::uint8_t>(1u << (bit % 8));
      }
    } else {
      mutant.resize(static_cast<std::size_t>(
          rng.uniform(0, static_cast<std::int64_t>(mutant.size()) - 1)));
    }
    try {
      const std::vector<std::uint8_t> out = lz_decompress(mutant, g.size);
      EXPECT_EQ(out.size(), g.size) << "iteration " << iter;
      ++decoded;
    } catch (const FormatError&) {
      ++rejected;
    }
  }
  // Both outcomes occur, so the loop exercises more than one path.
  EXPECT_GT(rejected, 0u);
  EXPECT_GT(decoded, 0u);
}

TEST(BlockView, EmptyContainer) {
  const std::vector<std::uint8_t> bytes = encode_binary_v3(EventBatch{}, {});
  const BlockView view(bytes);
  EXPECT_EQ(view.size(), 0u);
  EXPECT_TRUE(view.empty());
  EXPECT_EQ(view.block_count(), 0u);
  EXPECT_EQ(view.to_batch().size(), 0u);
}

TEST(BlockViewStore, CorruptBlockFailsOnlyQueriesThatTouchIt) {
  const EventBatch batch = EventBatch::from_events(ordered_stream(24));
  BinaryOptions options;
  options.checksum = true;
  std::vector<std::uint8_t> bytes = encode_binary_v3(batch, options, 8);
  const V3Regions r = locate_v3(bytes);
  bytes[r.head_end + kPlainBlock8 + 40] ^= 0x20;  // block 1's hot group

  const std::string path = "/tmp/iotaxo_iotb3_corrupt_test.iotb3";
  {
    std::FILE* f = std::fopen(path.c_str(), "wb");
    ASSERT_NE(f, nullptr);
    ASSERT_EQ(std::fwrite(bytes.data(), 1, bytes.size(), f), bytes.size());
    std::fclose(f);
  }
  analysis::UnifiedTraceStore store;
  store.ingest_view(path, {{"framework", "test"}});
  std::remove(path.c_str());

  // A window the footer maps onto block 0 alone never touches the corrupt
  // block: all 8 records are 4 KiB transfers.
  EXPECT_EQ(store.bytes_in_window(kSecond, kSecond + 8 * kMillisecond),
            8 * 4096);
  // A whole-span query must decode block 1 — and surface its corruption.
  EXPECT_THROW((void)store.bytes_in_window(0, 100 * kSecond), FormatError);
}

}  // namespace
}  // namespace iotaxo::trace

namespace iotaxo::analysis {
namespace {

using trace::EventBatch;
using trace::TraceEvent;

[[nodiscard]] std::vector<TraceEvent> era_events(int era, int count) {
  std::vector<TraceEvent> events;
  for (int i = 0; i < count; ++i) {
    TraceEvent ev = trace::make_syscall(
        i % 3 == 0 ? "SYS_read" : "SYS_write",
        {"5", "4096", strprintf("%d", i)}, 4096);
    ev.rank = i % 4;
    ev.host = "host00";
    ev.path = i % 2 == 0 ? strprintf("/pfs/era%d.dat", era) : "";
    ev.fd = 5;
    ev.bytes = 4096;
    ev.local_start = static_cast<SimTime>(era) * kSecond +
                     static_cast<SimTime>(i) * kMillisecond;
    ev.duration = 10 * kMicrosecond;
    events.push_back(std::move(ev));
  }
  return events;
}

[[nodiscard]] auto all_queries(const UnifiedTraceStore& store) {
  return std::tuple{store.call_stats(), store.bytes_in_window(kSecond / 2,
                                                              5 * kSecond / 2),
                    store.io_rate_series(from_millis(25.0)),
                    store.hottest_files(8)};
}

TEST(StoreZeroCopy, IndexSkipsKeepResultsIdentical) {
  UnifiedTraceStore store;
  for (int era = 0; era < 6; ++era) {
    store.ingest(EventBatch::from_events(era_events(era, 40)),
                 {{"framework", "test"},
                  {"application", strprintf("era%d", era)}});
  }
  // One source with no I/O at all (annotations only) — the index must let
  // every query skip it without changing any result.
  TraceEvent note;
  note.cls = trace::EventClass::kAnnotation;
  note.name = "checkpoint";
  note.rank = 0;
  note.local_start = 10 * kSecond;
  store.ingest(EventBatch::from_events({note}), {{"framework", "test"}});

  ASSERT_TRUE(store.use_indexes());
  const auto indexed = all_queries(store);
  store.set_use_indexes(false);
  const auto unindexed = all_queries(store);
  EXPECT_EQ(indexed, unindexed);
}

TEST(StoreZeroCopy, CompactMergesOwnedPoolsAndPreservesResults) {
  UnifiedTraceStore store;
  for (int era = 0; era < 8; ++era) {
    store.ingest(EventBatch::from_events(era_events(era, 50)),
                 {{"framework", "test"},
                  {"application", strprintf("era%d", era)}});
  }
  ASSERT_EQ(store.pool_count(), 8u);
  const auto before = all_queries(store);
  const auto timeline_before = store.rank_timeline(2);
  const auto sources_before = store.sources();

  const std::size_t pools = store.compact(1u << 20);
  EXPECT_LT(pools, 8u);
  EXPECT_EQ(store.pool_count(), pools);

  // Source infos survive compaction verbatim; query results are identical
  // serial and parallel.
  ASSERT_EQ(store.sources().size(), sources_before.size());
  for (std::size_t s = 0; s < sources_before.size(); ++s) {
    EXPECT_EQ(store.sources()[s].application, sources_before[s].application);
    EXPECT_EQ(store.sources()[s].events, sources_before[s].events);
  }
  store.set_query_threads(1);
  EXPECT_EQ(all_queries(store), before);
  store.set_query_threads(4);
  EXPECT_EQ(all_queries(store), before);
  EXPECT_EQ(store.rank_timeline(2), timeline_before);
  // Per-source batches are gone once merged into an era.
  EXPECT_THROW((void)store.source_batch(0), ConfigError);
}

TEST(StoreZeroCopy, CompactLeavesBlockPoolsAlone) {
  const EventBatch batch = EventBatch::from_events(era_events(1, 30));
  const std::vector<std::uint8_t> bytes = trace::encode_binary_v3(batch, {});
  const std::string path = "/tmp/iotaxo_store_compact_block_test.iotb3";
  {
    std::FILE* f = std::fopen(path.c_str(), "wb");
    ASSERT_NE(f, nullptr);
    ASSERT_EQ(std::fwrite(bytes.data(), 1, bytes.size(), f), bytes.size());
    std::fclose(f);
  }

  UnifiedTraceStore store;
  store.ingest(EventBatch::from_events(era_events(0, 30)),
               {{"framework", "test"}});
  store.ingest_view(path, {{"framework", "test"}});
  store.ingest(EventBatch::from_events(era_events(2, 30)),
               {{"framework", "test"}});
  std::remove(path.c_str());

  const auto before = all_queries(store);
  // The block pool splits the owned run, so nothing can merge across it.
  EXPECT_EQ(store.compact(1u << 30), 3u);
  EXPECT_EQ(all_queries(store), before);
  // The block source still refuses to hand out an owned batch.
  EXPECT_THROW((void)store.source_batch(1), ConfigError);
}

TEST(StoreZeroCopy, CompactRespectsEraBudget) {
  UnifiedTraceStore store;
  for (int era = 0; era < 4; ++era) {
    store.ingest(EventBatch::from_events(era_events(era, 50)),
                 {{"framework", "test"}});
  }
  // A budget smaller than any single pool merges nothing.
  EXPECT_EQ(store.compact(1), 4u);
  // An unbounded budget merges everything into one era.
  EXPECT_EQ(store.compact(static_cast<std::size_t>(-1)), 1u);
  EXPECT_EQ(store.total_events(), 200);
}

TEST(StoreZeroCopy, BlockBackedSourceMatchesOwnedIngest) {
  const std::vector<TraceEvent> events = era_events(0, 120);
  const EventBatch batch = EventBatch::from_events(events);
  trace::BinaryOptions options;
  options.compress = true;
  options.checksum = true;
  const std::vector<std::uint8_t> bytes =
      trace::encode_binary_v3(batch, options, 16);
  const std::string path = "/tmp/iotaxo_store_block_test.iotb3";
  {
    std::FILE* f = std::fopen(path.c_str(), "wb");
    ASSERT_NE(f, nullptr);
    ASSERT_EQ(std::fwrite(bytes.data(), 1, bytes.size(), f), bytes.size());
    std::fclose(f);
  }

  UnifiedTraceStore owned;
  owned.ingest(batch, {{"framework", "test"}, {"application", "a"}});
  UnifiedTraceStore blocked;
  blocked.ingest_view(path, {{"framework", "test"}, {"application", "a"}});
  std::remove(path.c_str());

  ASSERT_EQ(blocked.sources().size(), 1u);
  EXPECT_TRUE(blocked.sources()[0].view_backed);
  EXPECT_FALSE(owned.sources()[0].view_backed);
  ASSERT_EQ(blocked.pool_infos().size(), 1u);
  EXPECT_TRUE(blocked.pool_infos()[0].block_backed);
  EXPECT_EQ(blocked.pool_infos()[0].blocks, 8u);  // 120 records / 16
  EXPECT_FALSE(owned.pool_infos()[0].block_backed);

  EXPECT_EQ(blocked.total_events(), owned.total_events());
  EXPECT_EQ(all_queries(blocked), all_queries(owned));
  EXPECT_EQ(blocked.rank_timeline(1), owned.rank_timeline(1));
  // Identical with the per-block index skips disabled too.
  blocked.set_use_indexes(false);
  EXPECT_EQ(all_queries(blocked), all_queries(owned));
  blocked.set_use_indexes(true);
  // Block-backed sources have no owned batch to hand out.
  EXPECT_THROW((void)blocked.source_batch(0), ConfigError);
  EXPECT_EQ(owned.source_batch(0).size(), events.size());
}

/// Fresh scratch directory for cold-tier spills. Cold compaction now
/// commits each era through the directory's MANIFEST.iotm, which makes
/// directory state sticky across compactions — tests sharing /tmp would
/// inherit each other's era numbering, so every test gets its own dir.
std::string make_scratch_dir(const char* tag) {
  const std::string dir =
      strprintf("/tmp/iotaxo_scratch_%s_%d", tag,
                ::testing::UnitTest::GetInstance()->random_seed());
  std::filesystem::remove_all(dir);
  std::filesystem::create_directories(dir);
  return dir;
}

TEST(StoreZeroCopy, ColdCompactSpillsErasAndPreservesResults) {
  UnifiedTraceStore store;
  for (int era = 0; era < 6; ++era) {
    store.ingest(EventBatch::from_events(era_events(era, 40)),
                 {{"framework", "test"},
                  {"application", strprintf("era%d", era)}});
  }
  UnifiedTraceStore owned;
  for (int era = 0; era < 6; ++era) {
    owned.ingest(EventBatch::from_events(era_events(era, 40)),
                 {{"framework", "test"},
                  {"application", strprintf("era%d", era)}});
  }
  const auto before = all_queries(store);
  const auto timeline_before = store.rank_timeline(2);

  const std::string dir = make_scratch_dir("cold_spill");
  UnifiedTraceStore::ColdTierOptions cold;
  cold.directory = dir;
  cold.file_prefix = "era";
  cold.binary.compress = true;
  cold.binary.checksum = true;
  cold.block_records = 16;
  const std::size_t pools = store.compact(static_cast<std::size_t>(-1), cold);
  EXPECT_EQ(pools, 1u);

  // Every pool is now served from the spilled IOTB3 container.
  ASSERT_EQ(store.pool_infos().size(), 1u);
  EXPECT_TRUE(store.pool_infos()[0].block_backed);
  EXPECT_EQ(store.pool_infos()[0].blocks, 15u);  // 240 records / 16
  for (const auto& source : store.sources()) {
    EXPECT_TRUE(source.view_backed);
  }
  EXPECT_THROW((void)store.source_batch(0), ConfigError);

  EXPECT_EQ(all_queries(store), before);
  EXPECT_EQ(store.rank_timeline(2), timeline_before);
  store.set_use_indexes(false);
  EXPECT_EQ(all_queries(store), before);
  store.set_use_indexes(true);
  // The miner sees identical graphs through the block-backed seam.
  EXPECT_EQ(dfg::DfgBuilder(store).build({}),
            dfg::DfgBuilder(owned).build({}));

  std::filesystem::remove_all(dir);
}

TEST(StoreZeroCopy, RepeatedColdCompactNeverRewritesLiveEras) {
  UnifiedTraceStore store;
  UnifiedTraceStore owned;
  const auto ingest_both = [&](int era) {
    const std::map<std::string, std::string> meta = {
        {"framework", "test"}, {"application", strprintf("era%d", era)}};
    store.ingest(EventBatch::from_events(era_events(era, 40)), meta);
    owned.ingest(EventBatch::from_events(era_events(era, 40)), meta);
  };
  ingest_both(0);
  ingest_both(1);

  const std::string dir = make_scratch_dir("cold_seq");
  UnifiedTraceStore::ColdTierOptions cold;
  cold.directory = dir;
  cold.file_prefix = "era";
  cold.binary.compress = true;
  cold.binary.checksum = true;
  cold.block_records = 16;
  const auto era_path = [&](int n) {
    return strprintf("%s/%s-%d.iotb3", dir.c_str(), cold.file_prefix.c_str(),
                     n);
  };
  ASSERT_EQ(store.compact(static_cast<std::size_t>(-1), cold), 1u);
  ASSERT_TRUE(std::filesystem::exists(era_path(0)));

  // More sources arrive and a second compaction runs with the SAME
  // options. It must spill to a fresh era number — era 0 still backs the
  // first pool's mapping, and rewriting it would tear that pool's records
  // out from under every later query.
  ingest_both(2);
  ingest_both(3);
  EXPECT_EQ(store.compact(static_cast<std::size_t>(-1), cold), 2u);
  EXPECT_TRUE(std::filesystem::exists(era_path(0)));
  EXPECT_TRUE(std::filesystem::exists(era_path(1)));
  const auto infos = store.pool_infos();
  ASSERT_EQ(infos.size(), 2u);
  EXPECT_TRUE(infos[0].block_backed);
  EXPECT_TRUE(infos[1].block_backed);
  // Queries decode blocks from BOTH eras; identical to the owned store.
  EXPECT_EQ(all_queries(store), all_queries(owned));
  EXPECT_EQ(store.rank_timeline(1), owned.rank_timeline(1));

  // A foreign file already sitting at the next era number is refused, not
  // truncated.
  {
    FILE* f = std::fopen(era_path(2).c_str(), "wb");
    ASSERT_NE(f, nullptr);
    std::fputs("not an era", f);
    std::fclose(f);
  }
  ingest_both(4);
  EXPECT_THROW(store.compact(static_cast<std::size_t>(-1), cold), IoError);

  std::filesystem::remove_all(dir);
}

TEST(StoreZeroCopy, EncryptedIngestViewMatchesOwned) {
  const CipherKey key = derive_key("store-test-pass");
  const std::vector<TraceEvent> events = era_events(0, 120);
  const EventBatch batch = EventBatch::from_events(events);
  trace::BinaryOptions options;
  options.checksum = true;
  options.encrypt = true;
  options.key = key;
  const std::vector<std::uint8_t> bytes =
      trace::encode_binary_v3(batch, options, 16);
  const std::string path = "/tmp/iotaxo_store_enc_test.iotb3";
  {
    std::FILE* f = std::fopen(path.c_str(), "wb");
    ASSERT_NE(f, nullptr);
    ASSERT_EQ(std::fwrite(bytes.data(), 1, bytes.size(), f), bytes.size());
    std::fclose(f);
  }

  // No key: rejected at ingest, before any query can dereference blocks.
  {
    UnifiedTraceStore keyless;
    EXPECT_THROW(keyless.ingest_view(path, {{"framework", "test"}}),
                 FormatError);
  }

  UnifiedTraceStore owned;
  owned.ingest(batch, {{"framework", "test"}, {"application", "a"}});
  UnifiedTraceStore store;
  store.ingest_view(path, {{"framework", "test"}, {"application", "a"}}, key);
  std::remove(path.c_str());

  ASSERT_EQ(store.pool_infos().size(), 1u);
  EXPECT_TRUE(store.pool_infos()[0].encrypted);
  EXPECT_GT(store.pool_infos()[0].stored_bytes, 0u);
  EXPECT_EQ(store.pool_infos()[0].decoded_stored_bytes, 0u);  // still lazy

  // A hot-column query decodes strictly less than half the stored bytes
  // (uncompressed blocks: 33 of every 81 record bytes are hot).
  EXPECT_EQ(store.bytes_in_window(0, 10 * kSecond),
            owned.bytes_in_window(0, 10 * kSecond));
  const auto info = store.pool_infos()[0];
  EXPECT_GT(info.decoded_stored_bytes, 0u);
  EXPECT_LE(info.decoded_stored_bytes, info.stored_bytes / 2);

  EXPECT_EQ(all_queries(store), all_queries(owned));
  EXPECT_EQ(store.rank_timeline(1), owned.rank_timeline(1));
  EXPECT_EQ(dfg::DfgBuilder(store).build({}), dfg::DfgBuilder(owned).build({}));
}

TEST(StoreZeroCopy, ColdCompactEncryptedErasPreserveResults) {
  const CipherKey key = derive_key("cold-era-pass");
  UnifiedTraceStore store;
  UnifiedTraceStore owned;
  for (int era = 0; era < 4; ++era) {
    const std::map<std::string, std::string> meta = {
        {"framework", "test"}, {"application", strprintf("era%d", era)}};
    store.ingest(EventBatch::from_events(era_events(era, 40)), meta);
    owned.ingest(EventBatch::from_events(era_events(era, 40)), meta);
  }
  const auto before = all_queries(store);

  const std::string dir = make_scratch_dir("cold_enc");
  UnifiedTraceStore::ColdTierOptions cold;
  cold.directory = dir;
  cold.file_prefix = "era";
  cold.binary.compress = true;
  cold.binary.checksum = true;
  cold.binary.encrypt = true;
  cold.binary.key = key;
  cold.block_records = 16;
  ASSERT_EQ(store.compact(static_cast<std::size_t>(-1), cold), 1u);

  const auto infos = store.pool_infos();
  ASSERT_EQ(infos.size(), 1u);
  EXPECT_TRUE(infos[0].block_backed);
  EXPECT_TRUE(infos[0].encrypted);

  EXPECT_EQ(all_queries(store), before);
  EXPECT_EQ(all_queries(store), all_queries(owned));
  EXPECT_EQ(store.rank_timeline(2), owned.rank_timeline(2));

  // The spilled era cannot be opened without the key.
  const std::string era0 =
      strprintf("%s/%s-0.iotb3", dir.c_str(), cold.file_prefix.c_str());
  UnifiedTraceStore keyless;
  EXPECT_THROW(keyless.ingest_view(era0, {{"framework", "test"}}),
               FormatError);

  std::filesystem::remove_all(dir);
}

TEST(StoreZeroCopy, ParallelColdScanIsDeterministicAcrossThreadCounts) {
  // One big block-backed pool: the cold full-scan case block-parallel
  // decode targets (also the --tsan smoke for the decode slots).
  const EventBatch batch = EventBatch::from_events(era_events(0, 240));
  trace::BinaryOptions options;
  options.compress = true;
  options.checksum = true;
  const std::vector<std::uint8_t> bytes =
      trace::encode_binary_v3(batch, options, 16);
  const std::string path = "/tmp/iotaxo_store_parallel_scan_test.iotb3";
  {
    std::FILE* f = std::fopen(path.c_str(), "wb");
    ASSERT_NE(f, nullptr);
    ASSERT_EQ(std::fwrite(bytes.data(), 1, bytes.size(), f), bytes.size());
    std::fclose(f);
  }
  UnifiedTraceStore owned;
  owned.ingest(batch, {{"framework", "test"}});
  const auto want = all_queries(owned);
  const auto timeline = owned.rank_timeline(1);

  for (const std::size_t threads : {1u, 2u, 4u}) {
    UnifiedTraceStore store;  // fresh store: decode caches start cold
    store.ingest_view(path, {{"framework", "test"}});
    store.set_query_threads(threads);
    EXPECT_EQ(all_queries(store), want) << "threads=" << threads;
    EXPECT_EQ(store.rank_timeline(1), timeline) << "threads=" << threads;
    EXPECT_EQ(dfg::DfgBuilder(store).build({}),
              dfg::DfgBuilder(owned).build({}))
        << "threads=" << threads;
  }
  std::remove(path.c_str());
}

/// Write each batch as a container under /tmp and attach it to `store`.
void attach_containers(UnifiedTraceStore& store,
                       const std::vector<EventBatch>& batches,
                       const trace::BinaryOptions& options,
                       const std::string& tag) {
  for (std::size_t s = 0; s < batches.size(); ++s) {
    const std::string path =
        strprintf("/tmp/iotaxo_store_%s_%zu.iotb3", tag.c_str(), s);
    trace::write_binary_file(
        path, trace::encode_binary_v3(batches[s], options, 16));
    store.ingest_view(path, {{"framework", "test"}},
                      options.encrypt ? options.key : std::nullopt);
    std::remove(path.c_str());  // the mapping keeps the bytes
  }
}

TEST(StoreZeroCopy, RankTimelineTiesKeepStoreOrder) {
  // Two sources whose rank-1 events share four stamps, within and across
  // the sources. Events with equal stamps come out in store order: source,
  // then record. `ret` tells the events apart.
  std::vector<EventBatch> batches(2);
  std::vector<TraceEvent> want;
  for (int s = 0; s < 2; ++s) {
    for (int i = 0; i < 90; ++i) {
      TraceEvent ev =
          trace::make_syscall("SYS_write", {"5"}, s * 1000 + i);
      ev.rank = i % 3 == 0 ? 0 : 1;
      ev.local_start = (3 - i % 4) * kMicrosecond;
      ev.bytes = 64;
      batches[s].append(ev);
      if (ev.rank == 1) {
        want.push_back(std::move(ev));
      }
    }
  }
  std::stable_sort(want.begin(), want.end(),
                   [](const TraceEvent& a, const TraceEvent& b) {
                     return a.local_start < b.local_start;
                   });

  UnifiedTraceStore owned;
  for (const EventBatch& batch : batches) {
    owned.ingest(batch, {{"framework", "test"}});
  }
  trace::BinaryOptions compressed;
  compressed.compress = true;
  UnifiedTraceStore compressed_store;
  attach_containers(compressed_store, batches, compressed, "tie_compressed");
  trace::BinaryOptions encrypted;
  encrypted.checksum = true;
  encrypted.encrypt = true;
  encrypted.key = derive_key("tie-order");
  UnifiedTraceStore encrypted_store;
  attach_containers(encrypted_store, batches, encrypted, "tie_encrypted");

  const std::pair<const char*, UnifiedTraceStore*> stores[] = {
      {"owned", &owned},
      {"compressed", &compressed_store},
      {"encrypted", &encrypted_store}};
  for (const auto& [kind, store] : stores) {
    for (const std::size_t threads : {1u, 4u}) {
      store->set_query_threads(threads);
      EXPECT_EQ(store->rank_timeline(1), want)
          << kind << " pools, threads " << threads;
    }
  }
}

TEST(StoreZeroCopy, HostileFdAndRankValuesAndManyNamesStayBounded) {
  // fd and rank come from the container, so they may take any int value.
  // Values on both sides of the flat tables' bound and at INT32_MAX must
  // answer exactly, with no allocation sized by the value.
  constexpr int kBound = IntKeyTable<trace::StrId>::kFlatKeys;
  constexpr int kMax = std::numeric_limits<std::int32_t>::max();
  constexpr int kValues[] = {kBound - 1, kBound, kMax};
  SimTime t = 0;
  const auto io = [&t](const std::string& name, int rank, int fd,
                       const std::string& path, Bytes bytes) {
    TraceEvent ev = trace::make_syscall(name, {}, bytes);
    ev.rank = rank;
    ev.fd = fd;
    ev.path = path;
    ev.bytes = bytes;
    ev.local_start = t += kMicrosecond;
    ev.duration = kMicrosecond;
    return ev;
  };
  // Source 0 names each fd and moves bytes through fd INT32_MAX
  // path-lessly; source 1 moves bytes through every fd path-lessly, so
  // those resolve through the fd -> path state carried across pools.
  std::vector<EventBatch> batches(2);
  for (const int v : kValues) {
    batches[0].append(io("SYS_open", v, v, strprintf("/f%d", v), 0));
  }
  batches[0].append(io("SYS_write", kMax, kMax, "", 50));
  for (const int v : kValues) {
    batches[1].append(io("SYS_write", v, v, "", 100));
  }
  // One rank issuing 3,000 distinct call names.
  for (int i = 0; i < 3000; ++i) {
    batches[1].append(io(strprintf("call_%04d", i), 7, -1, "", 0));
  }

  UnifiedTraceStore owned;
  for (const EventBatch& batch : batches) {
    owned.ingest(batch, {{"framework", "test"}});
  }
  trace::BinaryOptions options;
  options.compress = true;
  UnifiedTraceStore blocks;
  attach_containers(blocks, batches, options, "hostile_values");

  for (const UnifiedTraceStore* store : {&owned, &blocks}) {
    std::map<std::string, FileHeat> heat;
    for (const FileHeat& h : store->hottest_files(8)) {
      heat[h.path] = h;
    }
    ASSERT_EQ(heat.size(), 3u);
    EXPECT_EQ(heat[strprintf("/f%d", kBound - 1)].bytes, 100);
    EXPECT_EQ(heat[strprintf("/f%d", kBound)].bytes, 100);
    EXPECT_EQ(heat[strprintf("/f%d", kMax)].bytes, 150);
    EXPECT_EQ(heat[strprintf("/f%d", kMax)].ops, 2);

    const std::vector<TraceEvent> timeline = store->rank_timeline(kMax);
    ASSERT_EQ(timeline.size(), 3u);
    EXPECT_EQ(timeline[0].name, "SYS_open");
    EXPECT_EQ(timeline[1].bytes, 50);
    EXPECT_EQ(timeline[2].bytes, 100);
    EXPECT_EQ(store->rank_timeline(kBound).size(), 2u);
    EXPECT_EQ(store->rank_timeline(kBound - 1).size(), 2u);

    const dfg::Dfg graph = dfg::DfgBuilder(*store).build({});
    for (const int v : kValues) {
      const dfg::RankDfg* rank = graph.find_rank(v);
      ASSERT_NE(rank, nullptr) << v;
      EXPECT_EQ(rank->nodes.size(), 2u) << v;
      EXPECT_EQ(rank->transitions(), v == kMax ? 2 : 1) << v;
    }
    const dfg::RankDfg* many = graph.find_rank(7);
    ASSERT_NE(many, nullptr);
    EXPECT_EQ(many->nodes.size(), 3000u);
    EXPECT_EQ(many->edges.size(), 2999u);
    for (const auto& [key, edge] : many->edges) {
      EXPECT_EQ(edge.count, 1);
    }
  }
  EXPECT_EQ(blocks.hottest_files(8), owned.hottest_files(8));
  EXPECT_EQ(blocks.rank_timeline(kMax), owned.rank_timeline(kMax));
  EXPECT_EQ(dfg::DfgBuilder(blocks).build({}),
            dfg::DfgBuilder(owned).build({}));
}

}  // namespace
}  // namespace iotaxo::analysis
