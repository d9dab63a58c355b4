// Unit and property tests for the util module: RNG, strings, CRC-32,
// cipher, compression, tables, thread pool.
#include <gtest/gtest.h>

#include <atomic>
#include <cstring>
#include <set>

#include "util/ascii_chart.h"
#include "util/cipher.h"
#include "util/compress.h"
#include "util/crc32.h"
#include "util/error.h"
#include "util/rng.h"
#include "util/strings.h"
#include "util/table.h"
#include "util/thread_pool.h"
#include "util/types.h"

namespace iotaxo {
namespace {

TEST(Types, SecondConversionsRoundTrip) {
  EXPECT_EQ(from_seconds(1.0), kSecond);
  EXPECT_EQ(from_millis(1.0), kMillisecond);
  EXPECT_EQ(from_micros(1.0), kMicrosecond);
  EXPECT_DOUBLE_EQ(to_seconds(kSecond), 1.0);
  EXPECT_EQ(from_seconds(to_seconds(123456789)), 123456789);
}

TEST(Rng, DeterministicForEqualSeeds) {
  Rng a(42);
  Rng b(42);
  for (int i = 0; i < 100; ++i) {
    EXPECT_EQ(a.next_u64(), b.next_u64());
  }
}

TEST(Rng, DifferentSeedsDiverge) {
  Rng a(1);
  Rng b(2);
  int equal = 0;
  for (int i = 0; i < 64; ++i) {
    if (a.next_u64() == b.next_u64()) {
      ++equal;
    }
  }
  EXPECT_LT(equal, 3);
}

TEST(Rng, ForkIsDeterministicAndIndependent) {
  const Rng base(7);
  Rng f1 = base.fork("pfs");
  Rng f2 = base.fork("pfs");
  Rng f3 = base.fork("net");
  EXPECT_EQ(f1.next_u64(), f2.next_u64());
  Rng f4 = base.fork("pfs");
  EXPECT_NE(f3.next_u64(), f4.next_u64());
}

TEST(Rng, UniformStaysInRange) {
  Rng rng(3);
  for (int i = 0; i < 10000; ++i) {
    const auto v = rng.uniform(-5, 17);
    EXPECT_GE(v, -5);
    EXPECT_LE(v, 17);
  }
}

TEST(Rng, UniformSingletonRange) {
  Rng rng(3);
  for (int i = 0; i < 10; ++i) {
    EXPECT_EQ(rng.uniform(9, 9), 9);
  }
}

TEST(Rng, NormalHasRoughlyRightMoments) {
  Rng rng(11);
  double sum = 0;
  double sq = 0;
  const int n = 20000;
  for (int i = 0; i < n; ++i) {
    const double x = rng.normal(10.0, 2.0);
    sum += x;
    sq += x * x;
  }
  const double mean = sum / n;
  const double var = sq / n - mean * mean;
  EXPECT_NEAR(mean, 10.0, 0.1);
  EXPECT_NEAR(var, 4.0, 0.3);
}

TEST(Rng, TokenHasRequestedLengthAndAlphabet) {
  Rng rng(5);
  const std::string t = rng.token(16);
  EXPECT_EQ(t.size(), 16u);
  for (const char c : t) {
    EXPECT_TRUE((c >= 'a' && c <= 'z') || (c >= '0' && c <= '9'));
  }
}

TEST(Strings, SplitPreservesEmptyFields) {
  const auto parts = split("a,,b,", ',');
  ASSERT_EQ(parts.size(), 4u);
  EXPECT_EQ(parts[0], "a");
  EXPECT_EQ(parts[1], "");
  EXPECT_EQ(parts[2], "b");
  EXPECT_EQ(parts[3], "");
}

TEST(Strings, SplitWsDropsEmpty) {
  const auto parts = split_ws("  one \t two\nthree  ");
  ASSERT_EQ(parts.size(), 3u);
  EXPECT_EQ(parts[0], "one");
  EXPECT_EQ(parts[2], "three");
}

TEST(Strings, TrimBothEnds) {
  EXPECT_EQ(trim("  x  "), "x");
  EXPECT_EQ(trim("\t\n"), "");
  EXPECT_EQ(trim(""), "");
}

TEST(Strings, JoinRoundTrip) {
  const std::vector<std::string> parts = {"a", "b", "c"};
  EXPECT_EQ(join(parts, "/"), "a/b/c");
}

TEST(Strings, StartsEndsWith) {
  EXPECT_TRUE(starts_with("SYS_open", "SYS_"));
  EXPECT_FALSE(starts_with("SY", "SYS_"));
  EXPECT_TRUE(ends_with("trace.out", ".out"));
  EXPECT_FALSE(ends_with("x", ".out"));
}

struct GlobCase {
  const char* pattern;
  const char* text;
  bool expect;
};

class GlobTest : public ::testing::TestWithParam<GlobCase> {};

TEST_P(GlobTest, Matches) {
  const GlobCase& c = GetParam();
  EXPECT_EQ(glob_match(c.pattern, c.text), c.expect)
      << c.pattern << " vs " << c.text;
}

INSTANTIATE_TEST_SUITE_P(
    Patterns, GlobTest,
    ::testing::Values(
        GlobCase{"*", "anything", true}, GlobCase{"*", "", true},
        GlobCase{"/data/*", "/data/f.out", true},
        GlobCase{"/data/*", "/other/f.out", false},
        GlobCase{"*.trace", "rank_0001.trace", true},
        GlobCase{"*.trace", "rank_0001.trc", false},
        GlobCase{"a?c", "abc", true}, GlobCase{"a?c", "ac", false},
        GlobCase{"/pfs/*/out*", "/pfs/job1/out.7", true},
        GlobCase{"exact", "exact", true}, GlobCase{"exact", "exac", false}));

TEST(Strings, HexRoundTrip) {
  const std::vector<std::uint8_t> data = {0x00, 0x01, 0xFF, 0xAB, 0x7E};
  const std::string hex = hex_encode(data);
  EXPECT_EQ(hex, "0001ffab7e");
  EXPECT_EQ(hex_decode(hex), data);
}

TEST(Strings, HexDecodeRejectsBadInput) {
  EXPECT_THROW((void)hex_decode("abc"), FormatError);
  EXPECT_THROW((void)hex_decode("zz"), FormatError);
}

TEST(Strings, FormatBytes) {
  EXPECT_EQ(format_bytes(512), "512 B");
  EXPECT_EQ(format_bytes(64 * kKiB), "64.0 KiB");
  EXPECT_EQ(format_bytes(8 * kMiB), "8.0 MiB");
  EXPECT_EQ(format_bytes(100 * kGiB), "100.0 GiB");
}

TEST(Strings, FormatDuration) {
  EXPECT_EQ(format_duration(500), "500 ns");
  EXPECT_EQ(format_duration(from_micros(12.4)), "12.4 us");
  EXPECT_EQ(format_duration(from_millis(3.5)), "3.5 ms");
  EXPECT_EQ(format_duration(from_seconds(2.25)), "2.25 s");
}

TEST(Strings, FormatPct) {
  EXPECT_EQ(format_pct(0.124), "12.4%");
  EXPECT_EQ(format_pct(2.22), "222.0%");
  EXPECT_EQ(format_pct(0.0551, 0), "6%");
}

TEST(Crc32, KnownVector) {
  // CRC-32 of "123456789" is the classic check value 0xCBF43926.
  EXPECT_EQ(crc32(std::string_view("123456789")), 0xCBF43926u);
}

TEST(Crc32, IncrementalMatchesOneShot) {
  Crc32 inc;
  inc.update(std::string_view("hello "));
  inc.update(std::string_view("world"));
  EXPECT_EQ(inc.value(), crc32(std::string_view("hello world")));
}

TEST(Crc32, DetectsSingleBitFlip) {
  std::vector<std::uint8_t> data(100, 0x5A);
  const std::uint32_t before = crc32(data);
  data[50] ^= 0x01;
  EXPECT_NE(before, crc32(data));
}

TEST(Crc32, FoldedPathMatchesBytewise) {
  // One-shot large buffers take the carry-less-multiply fast path (where
  // the CPU has it); byte-at-a-time updates stay on the lookup tables.
  // Both must agree for every length around the 64-byte kernel threshold
  // and the 16-byte fold granularity.
  Rng rng(1234);
  for (const std::size_t len :
       {std::size_t{63}, std::size_t{64}, std::size_t{65}, std::size_t{79},
        std::size_t{80}, std::size_t{127}, std::size_t{128},
        std::size_t{1000}, std::size_t{4096}, std::size_t{65521}}) {
    std::vector<std::uint8_t> data(len);
    for (std::uint8_t& b : data) {
      b = static_cast<std::uint8_t>(rng.next_u64());
    }
    Crc32 bytewise;
    for (std::size_t i = 0; i < len; ++i) {
      bytewise.update(std::span<const std::uint8_t>(&data[i], 1));
    }
    EXPECT_EQ(crc32(data), bytewise.value()) << "len " << len;
  }
}

class CompressRoundTrip : public ::testing::TestWithParam<std::size_t> {};

TEST_P(CompressRoundTrip, RandomData) {
  Rng rng(GetParam() * 7919 + 1);
  std::vector<std::uint8_t> data(GetParam());
  for (auto& b : data) {
    b = static_cast<std::uint8_t>(rng.uniform(0, 255));
  }
  const auto compressed = lz_compress(data);
  EXPECT_EQ(lz_decompress(compressed, data.size()), data);
}

TEST_P(CompressRoundTrip, RepetitiveDataCompresses) {
  std::vector<std::uint8_t> data(GetParam());
  for (std::size_t i = 0; i < data.size(); ++i) {
    data[i] = static_cast<std::uint8_t>(i % 17);
  }
  const auto compressed = lz_compress(data);
  EXPECT_EQ(lz_decompress(compressed, data.size()), data);
  if (data.size() > 256) {
    EXPECT_LT(compressed.size(), data.size() / 2);
  }
}

INSTANTIATE_TEST_SUITE_P(Sizes, CompressRoundTrip,
                         ::testing::Values(0, 1, 3, 4, 64, 255, 256, 1000,
                                           4096, 65536));

TEST(Compress, TraceLikeTextCompressesWell) {
  std::string text;
  for (int i = 0; i < 500; ++i) {
    text += strprintf("10:59:47.%06d SYS_write(5, 65536, %d) = 65536 <0.031>\n",
                      i, i * 65536);
  }
  const std::vector<std::uint8_t> data(text.begin(), text.end());
  const auto compressed = lz_compress(data);
  EXPECT_LT(compressed.size(), data.size() / 3);
  EXPECT_EQ(lz_decompress(compressed, data.size()), data);
}

TEST(Compress, RejectsCorruptStream) {
  // Each declared size is one the input could encode, so the op itself is
  // what gets rejected, not the size.
  const std::vector<std::uint8_t> bogus = {0x85, 0x01};  // truncated match
  EXPECT_THROW((void)lz_decompress(bogus, 2), FormatError);
  const std::vector<std::uint8_t> bad_dist = {0x80, 0xFF, 0x00};
  EXPECT_THROW((void)lz_decompress(bad_dist, 4), FormatError);
}

TEST(Compress, SizedDecodeRejectsHostileStreams) {
  std::vector<std::uint8_t> data(300);
  for (std::size_t i = 0; i < data.size(); ++i) {
    data[i] = static_cast<std::uint8_t>(i % 23);
  }
  const auto stream = lz_compress(data);
  ASSERT_EQ(lz_decompress(stream, data.size()), data);
  // Overrun: the stream produces one byte more than declared.
  EXPECT_THROW((void)lz_decompress(stream, data.size() - 1), FormatError);
  // Short output: the stream ends one byte before the declared size.
  EXPECT_THROW((void)lz_decompress(stream, data.size() + 1), FormatError);
  // A declared size no stream of this length can reach is rejected
  // before it is allocated.
  EXPECT_THROW((void)lz_decompress(stream, std::size_t{1} << 50),
               FormatError);

  // Ops after a 2-byte literal "ab": each stream claims exactly the size
  // its ops would produce, so only the op itself can be at fault.
  const std::vector<std::uint8_t> dist0 = {0x01, 'a', 'b', 0x80, 0x00, 0x00};
  const std::vector<std::uint8_t> dist_past = {0x01, 'a', 'b',
                                               0x80, 0x03, 0x00};
  const std::vector<std::uint8_t> short_literal = {0x01, 'a', 'b',
                                                   0x04, 'c', 'd'};
  const std::vector<std::uint8_t> short_match = {0x01, 'a', 'b', 0x80, 0x02};
  for (const auto* hostile : {&dist0, &dist_past, &short_match}) {
    EXPECT_THROW((void)lz_decompress(*hostile, 6), FormatError);
  }
  EXPECT_THROW((void)lz_decompress(short_literal, 7), FormatError);
}

TEST(Compress, OverlappingMatchesEndOnTheLastByte) {
  // A literal of `dist` distinct bytes, then one match at distance `dist`
  // whose last byte is the last byte of the declared size: distances below
  // the 16-byte wild copy take the overlapping byte loop, the rest the
  // chunked copy, whose spill past the end must land in slack.
  for (std::size_t dist = 1; dist <= 20; ++dist) {
    for (const std::size_t len : {4u, 5u, 15u, 16u, 17u, 31u, 100u, 131u}) {
      std::vector<std::uint8_t> stream;
      std::vector<std::uint8_t> want;
      stream.push_back(static_cast<std::uint8_t>(dist - 1));
      for (std::size_t k = 0; k < dist; ++k) {
        stream.push_back(static_cast<std::uint8_t>(0x41 + k));
        want.push_back(static_cast<std::uint8_t>(0x41 + k));
      }
      stream.push_back(static_cast<std::uint8_t>(0x80 | (len - 4)));
      stream.push_back(static_cast<std::uint8_t>(dist));
      stream.push_back(0);
      for (std::size_t k = 0; k < len; ++k) {
        want.push_back(want[want.size() - dist]);
      }
      EXPECT_EQ(lz_decompress(stream, want.size()), want)
          << "dist " << dist << " len " << len;
    }
  }
}

TEST(Cipher, BlockRoundTrip) {
  const CipherKey key = derive_key("passphrase");
  const std::uint64_t block = 0x0123456789ABCDEFULL;
  EXPECT_EQ(xtea_decrypt_block(xtea_encrypt_block(block, key), key), block);
  EXPECT_NE(xtea_encrypt_block(block, key), block);
}

TEST(Cipher, DifferentKeysDifferentCiphertext) {
  const std::uint64_t block = 42;
  EXPECT_NE(xtea_encrypt_block(block, derive_key("a")),
            xtea_encrypt_block(block, derive_key("b")));
}

class CbcRoundTrip : public ::testing::TestWithParam<std::size_t> {};

TEST_P(CbcRoundTrip, EncryptDecrypt) {
  Rng rng(GetParam() + 99);
  std::vector<std::uint8_t> plain(GetParam());
  for (auto& b : plain) {
    b = static_cast<std::uint8_t>(rng.uniform(0, 255));
  }
  const CipherKey key = derive_key("trace-secret");
  const auto ct = cbc_encrypt(plain, key, GetParam());
  EXPECT_EQ(cbc_decrypt(ct, key), plain);
  // ciphertext must differ from plaintext beyond the IV
  if (!plain.empty()) {
    EXPECT_NE(std::vector<std::uint8_t>(ct.begin() + 8, ct.end()), plain);
  }
}

INSTANTIATE_TEST_SUITE_P(Sizes, CbcRoundTrip,
                         ::testing::Values(0, 1, 7, 8, 9, 100, 4096));

/// CBC decryption chained block by block through xtea_decrypt_block,
/// padding left in place: the reference the lockstep decrypt must match.
[[nodiscard]] std::vector<std::uint8_t> scalar_cbc_chain(
    std::span<const std::uint8_t> ct, const CipherKey& key,
    std::uint64_t iv) {
  std::vector<std::uint8_t> out(ct.size());
  std::uint64_t prev = iv;
  for (std::size_t i = 0; i < ct.size(); i += 8) {
    std::uint64_t c = 0;
    std::memcpy(&c, &ct[i], 8);
    const std::uint64_t p = xtea_decrypt_block(c, key) ^ prev;
    std::memcpy(&out[i], &p, 8);
    prev = c;
  }
  return out;
}

TEST(Cipher, LockstepDecryptMatchesScalarChainAtEveryLength) {
  // 1..100 ciphertext blocks cover every remainder after the 32-block
  // lockstep groups, through both decrypt entry points.
  const CipherKey keys[] = {derive_key("trace-secret"), derive_key("other"),
                            CipherKey{0xFFFFFFFFu, 0, 0x80000000u, 1}};
  const std::uint64_t ivs[] = {0, 0x0123456789ABCDEFULL, ~0ULL};
  Rng rng(4242);
  for (std::size_t blocks = 1; blocks <= 100; ++blocks) {
    for (const CipherKey& key : keys) {
      for (const std::uint64_t iv : ivs) {
        const auto pad = static_cast<std::size_t>(rng.uniform(1, 8));
        std::vector<std::uint8_t> plain(blocks * 8 - pad);
        for (auto& b : plain) {
          b = static_cast<std::uint8_t>(rng.uniform(0, 255));
        }
        const auto ct = cbc_encrypt_with_iv(plain, key, iv);
        ASSERT_EQ(ct.size(), blocks * 8);
        std::vector<std::uint8_t> chain = scalar_cbc_chain(ct, key, iv);
        ASSERT_EQ(chain.back(), pad);
        chain.resize(chain.size() - pad);
        ASSERT_EQ(chain, plain) << "blocks " << blocks;
        EXPECT_EQ(cbc_decrypt_with_iv(ct, key, iv), chain)
            << "blocks " << blocks;
        // cbc_decrypt reads the IV from the first 8 ciphertext bytes.
        std::vector<std::uint8_t> with_iv(8);
        std::memcpy(with_iv.data(), &iv, 8);
        with_iv.insert(with_iv.end(), ct.begin(), ct.end());
        EXPECT_EQ(cbc_decrypt(with_iv, key), chain) << "blocks " << blocks;
      }
    }
  }
}

TEST(Cipher, WrongKeyFailsOrGarbles) {
  const CipherKey key = derive_key("right");
  const CipherKey wrong = derive_key("wrong");
  const std::string secret = "/secret_project/input.dat";
  const auto ct = cbc_encrypt(
      std::span<const std::uint8_t>(
          reinterpret_cast<const std::uint8_t*>(secret.data()), secret.size()),
      key, 1);
  try {
    const auto pt = cbc_decrypt(ct, wrong);
    const std::string recovered(pt.begin(), pt.end());
    EXPECT_NE(recovered, secret);
  } catch (const FormatError&) {
    SUCCEED();  // bad padding detected — also acceptable
  }
}

TEST(Cipher, FieldHelpersRoundTrip) {
  const CipherKey key = derive_key("k");
  const std::string ct = cbc_encrypt_field("host13.lanl.gov", key, 5);
  EXPECT_EQ(cbc_decrypt_field(ct, key), "host13.lanl.gov");
  EXPECT_EQ(ct.find("lanl"), std::string::npos);
}

TEST(Cipher, SameFieldDifferentIvDiffers) {
  const CipherKey key = derive_key("k");
  EXPECT_NE(cbc_encrypt_field("x", key, 1), cbc_encrypt_field("x", key, 2));
}

TEST(Table, RendersHeadersAndRows) {
  TextTable t({"Feature", "Value"});
  t.add_row({"Anonymization", "No"});
  t.add_row({"Ease", "2 (Easy)"});
  const std::string out = t.render();
  EXPECT_NE(out.find("Feature"), std::string::npos);
  EXPECT_NE(out.find("Anonymization"), std::string::npos);
  EXPECT_NE(out.find("2 (Easy)"), std::string::npos);
  EXPECT_NE(out.find("+--"), std::string::npos);
}

TEST(Table, RejectsWrongCellCount) {
  TextTable t({"a", "b"});
  EXPECT_THROW(t.add_row({"only-one"}), ConfigError);
}

TEST(Table, MarkdownRendering) {
  TextTable t({"k", "v"});
  t.set_align(1, Align::kRight);
  t.add_row({"x", "1"});
  const std::string md = t.render_markdown();
  EXPECT_NE(md.find("| k | v |"), std::string::npos);
  EXPECT_NE(md.find("---:"), std::string::npos);
}

TEST(ThreadPool, RunsAllTasks) {
  ThreadPool pool(4);
  std::atomic<int> counter{0};
  std::vector<std::future<int>> futures;
  for (int i = 0; i < 100; ++i) {
    futures.push_back(pool.submit([&counter, i] {
      counter.fetch_add(1);
      return i * 2;
    }));
  }
  for (int i = 0; i < 100; ++i) {
    EXPECT_EQ(futures[static_cast<std::size_t>(i)].get(), i * 2);
  }
  EXPECT_EQ(counter.load(), 100);
}

TEST(ThreadPool, PropagatesExceptions) {
  ThreadPool pool(2);
  auto f = pool.submit([]() -> int { throw std::runtime_error("boom"); });
  EXPECT_THROW((void)f.get(), std::runtime_error);
}

TEST(ThreadPool, ParallelForCoversRange) {
  std::vector<int> hits(50, 0);
  parallel_for(50, [&](std::size_t i) { hits[i] = 1; }, 8);
  for (const int h : hits) {
    EXPECT_EQ(h, 1);
  }
}


TEST(AsciiChart, RendersSeriesAndAxes) {
  ChartSeries up{"up", 'o', {0.0, 1.0, 2.0, 3.0}};
  ChartSeries down{"down", '*', {3.0, 2.0, 1.0, 0.0}};
  ChartOptions options;
  options.width = 32;
  options.height = 8;
  options.y_label = "value";
  options.x_labels = {"a", "b"};
  const std::string chart = render_chart({up, down}, options);
  EXPECT_NE(chart.find('o'), std::string::npos);
  EXPECT_NE(chart.find('*'), std::string::npos);
  EXPECT_NE(chart.find("value"), std::string::npos);
  EXPECT_NE(chart.find("[o] up"), std::string::npos);
  EXPECT_NE(chart.find("+--"), std::string::npos);
  // Rising series: 'o' appears in the top row region and bottom-left.
  const auto lines_out = split(chart, '\n');
  EXPECT_GE(lines_out.size(), 9u);
}

TEST(AsciiChart, RejectsBadInput) {
  EXPECT_THROW((void)render_chart({}), ConfigError);
  ChartSeries a{"a", 'o', {1.0, 2.0}};
  ChartSeries b{"b", '*', {1.0}};
  EXPECT_THROW((void)render_chart({a, b}), ConfigError);
}

TEST(AsciiChart, SinglePointSeries) {
  ChartSeries one{"one", 'x', {5.0}};
  const std::string chart = render_chart({one});
  EXPECT_NE(chart.find('x'), std::string::npos);
}

}  // namespace
}  // namespace iotaxo

