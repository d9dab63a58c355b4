// google-benchmark microbenchmarks for the substrate: trace-record
// encode/decode, text rendering/parsing, XTEA-CBC, LZ compression, PFS
// write-cost evaluation and runtime op throughput. These quantify the
// *simulator's own* costs (host time), complementing the virtual-time
// benches that reproduce the paper's numbers.
#include <benchmark/benchmark.h>

#include "frameworks/lanl_trace.h"
#include "fs/memfs.h"
#include "mpi/runtime.h"
#include "pfs/pfs.h"
#include "sim/cluster.h"
#include "trace/binary_format.h"
#include "trace/text_format.h"
#include "util/cipher.h"
#include "util/compress.h"
#include "util/rng.h"
#include "util/strings.h"
#include "workload/mpi_io_test.h"

namespace {

using namespace iotaxo;

[[nodiscard]] std::vector<trace::TraceEvent> make_events(std::size_t n) {
  std::vector<trace::TraceEvent> events;
  events.reserve(n);
  for (std::size_t i = 0; i < n; ++i) {
    trace::TraceEvent ev = trace::make_syscall(
        "SYS_write",
        {"5", "65536", strprintf("%zu", i * 65536)}, 65536);
    ev.local_start = 1159808385LL * kSecond + static_cast<SimTime>(i) * 31000;
    ev.duration = 31 * kMicrosecond;
    ev.rank = static_cast<int>(i % 32);
    ev.host = "host13.lanl.gov";
    ev.pid = 10378;
    ev.fd = 5;
    ev.bytes = 65536;
    ev.offset = static_cast<Bytes>(i) * 65536;
    events.push_back(std::move(ev));
  }
  return events;
}

void BM_BinaryEncode(benchmark::State& state) {
  const auto events = make_events(static_cast<std::size_t>(state.range(0)));
  trace::BinaryOptions options;
  for (auto _ : state) {
    benchmark::DoNotOptimize(trace::encode_binary_v3(events, options));
  }
  state.SetItemsProcessed(state.iterations() * state.range(0));
}
BENCHMARK(BM_BinaryEncode)->Arg(100)->Arg(10000);

void BM_BinaryDecode(benchmark::State& state) {
  const auto events = make_events(static_cast<std::size_t>(state.range(0)));
  const auto blob = trace::encode_binary_v3(events, {});
  for (auto _ : state) {
    benchmark::DoNotOptimize(trace::decode_binary(blob));
  }
  state.SetItemsProcessed(state.iterations() * state.range(0));
}
BENCHMARK(BM_BinaryDecode)->Arg(100)->Arg(10000);

void BM_TextRender(benchmark::State& state) {
  const auto events = make_events(static_cast<std::size_t>(state.range(0)));
  trace::TextTraceWriter::StreamMeta meta{"host13.lanl.gov", 7, 10378};
  for (auto _ : state) {
    benchmark::DoNotOptimize(trace::TextTraceWriter::render(meta, events));
  }
  state.SetItemsProcessed(state.iterations() * state.range(0));
}
BENCHMARK(BM_TextRender)->Arg(1000);

void BM_TextParse(benchmark::State& state) {
  const auto events = make_events(static_cast<std::size_t>(state.range(0)));
  trace::TextTraceWriter::StreamMeta meta{"host13.lanl.gov", 7, 10378};
  const std::string text = trace::TextTraceWriter::render(meta, events);
  for (auto _ : state) {
    benchmark::DoNotOptimize(trace::TextTraceParser::parse(text));
  }
  state.SetItemsProcessed(state.iterations() * state.range(0));
}
BENCHMARK(BM_TextParse)->Arg(1000);

void BM_XteaCbc(benchmark::State& state) {
  Rng rng(1);
  std::vector<std::uint8_t> data(static_cast<std::size_t>(state.range(0)));
  for (auto& b : data) {
    b = static_cast<std::uint8_t>(rng.uniform(0, 255));
  }
  const CipherKey key = derive_key("bench");
  for (auto _ : state) {
    benchmark::DoNotOptimize(cbc_encrypt(data, key, 1));
  }
  state.SetBytesProcessed(state.iterations() * state.range(0));
}
BENCHMARK(BM_XteaCbc)->Arg(4096)->Arg(65536);

void BM_LzCompressTraceText(benchmark::State& state) {
  const auto events = make_events(static_cast<std::size_t>(state.range(0)));
  trace::TextTraceWriter::StreamMeta meta{"host13.lanl.gov", 7, 10378};
  const std::string text = trace::TextTraceWriter::render(meta, events);
  const std::vector<std::uint8_t> data(text.begin(), text.end());
  for (auto _ : state) {
    benchmark::DoNotOptimize(lz_compress(data));
  }
  state.SetBytesProcessed(state.iterations() *
                          static_cast<std::int64_t>(data.size()));
}
BENCHMARK(BM_LzCompressTraceText)->Arg(1000);

void BM_PfsWriteCost(benchmark::State& state) {
  pfs::Pfs fs;
  fs::OpCtx ctx;
  ctx.hint = fs::AccessHint::kStrided;
  std::vector<int> fds;
  for (int r = 0; r < 32; ++r) {
    fs::OpCtx open_ctx = ctx;
    open_ctx.rank = r;
    fds.push_back(static_cast<int>(
        fs.open("/pfs/bench.out", fs::OpenMode::write_create(), open_ctx)
            .value));
  }
  Bytes offset = 0;
  for (auto _ : state) {
    benchmark::DoNotOptimize(fs.write(fds[0], offset, 64 * kKiB, ctx));
    offset += 64 * kKiB;
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_PfsWriteCost);

void BM_SimulatedJob(benchmark::State& state) {
  // Host cost of simulating one full traced mpi_io_test run.
  sim::ClusterParams cparams;
  cparams.node_count = 32;
  const sim::Cluster cluster(cparams);
  workload::MpiIoTestParams params;
  params.nranks = 32;
  params.block = static_cast<Bytes>(state.range(0)) * kKiB;
  params.total_bytes = kGiB;
  const mpi::Job job = workload::make_mpi_io_test(params);
  frameworks::LanlTrace lanl;
  frameworks::TraceJobOptions options;
  options.store_raw_streams = false;
  for (auto _ : state) {
    benchmark::DoNotOptimize(
        lanl.trace(cluster, job, std::make_shared<pfs::Pfs>(), options));
  }
}
BENCHMARK(BM_SimulatedJob)->Arg(64)->Arg(1024)->Unit(benchmark::kMillisecond);

}  // namespace

BENCHMARK_MAIN();
