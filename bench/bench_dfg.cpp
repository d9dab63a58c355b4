// DFG mining over a 32-source store — the PR 4 gates:
//
//   1. Parallel per-pool graph construction must take the builder thread
//      >= 2x off the serial scan on a 32-source store. The gated metric is
//      the *builder-visible* cost measured with the calling thread's CPU
//      clock (CLOCK_THREAD_CPUTIME_ID): per-pool partials move onto pool
//      workers and the
//      builder thread only dispatches and merges, so its CPU charge is
//      what an interactive analysis session or service front end actually
//      pays, and the number stays meaningful on any core count (wall time
//      would fold the workers' time slices into the builder's number on a
//      small machine). Wall-clock times are reported alongside, ungated.
//   2. The merged graphs must be bit-identical: serial == parallel at
//      several thread counts, owned-batch == IOTB3 container source, and
//      pre- == post-compact() — the determinism the subsystem guarantees.
//   3. `iotaxo dfg` consumes the same containers, so the graphs minted
//      here are what the CLI reports.
//
// Emits BENCH_dfg.json; floors live next to the measured values (*_floor
// keys) so tools/check_build.sh --bench reads thresholds from the
// artifact.
#include <ctime>

#include <cstdio>
#include <string>
#include <vector>

#include "analysis/dfg/dfg.h"
#include "analysis/unified_store.h"
#include "bench_common.h"
#include "trace/binary_format.h"
#include "trace/event_batch.h"
#include "util/strings.h"

namespace {

using namespace iotaxo;
using analysis::UnifiedTraceStore;
using analysis::dfg::Dfg;
using analysis::dfg::DfgBuilder;
using analysis::dfg::DfgOptions;
using trace::EventBatch;
using trace::TraceEvent;

constexpr std::size_t kEvents = 200'000;
constexpr int kRanks = 32;
constexpr std::size_t kStoreSources = 32;
constexpr int kRepetitions = 5;
constexpr std::size_t kParallelThreads = 4;

constexpr double kOffloadFloor = 2.0;

/// The same capture-shaped stream the other pipeline benches use; event i
/// sits at i microseconds so the 32 sources occupy disjoint time eras.
[[nodiscard]] std::vector<TraceEvent> synth_events() {
  static const char* kNames[] = {"SYS_write", "SYS_read",  "SYS_lseek",
                                 "SYS_open",  "SYS_close", "MPI_File_write_at",
                                 "write",     "read"};
  std::vector<TraceEvent> events;
  events.reserve(kEvents);
  for (std::size_t i = 0; i < kEvents; ++i) {
    TraceEvent ev = trace::make_syscall(
        kNames[i % (sizeof(kNames) / sizeof(kNames[0]))],
        {"5", "65536", strprintf("%zu", (i % 4096) * 65536)}, 65536);
    ev.rank = static_cast<int>(i % kRanks);
    ev.node = ev.rank;
    ev.pid = 10000 + static_cast<std::uint32_t>(ev.rank);
    ev.host = strprintf("host%02d.lanl.gov", ev.rank);
    ev.path = ev.rank % 2 == 0 ? "/pfs/shared/out.dat" : "/pfs/rank/out.dat";
    ev.fd = 5;
    ev.bytes = 65536;
    ev.offset = static_cast<Bytes>(i % 4096) * 65536;
    ev.local_start = static_cast<SimTime>(i) * kMicrosecond;
    ev.duration = 3 * kMicrosecond;
    events.push_back(std::move(ev));
  }
  return events;
}

[[nodiscard]] double thread_cpu_seconds() {
  timespec ts{};
  clock_gettime(CLOCK_THREAD_CPUTIME_ID, &ts);
  return static_cast<double>(ts.tv_sec) +
         static_cast<double>(ts.tv_nsec) * 1e-9;
}

[[nodiscard]] double wall_seconds() {
  timespec ts{};
  clock_gettime(CLOCK_MONOTONIC, &ts);
  return static_cast<double>(ts.tv_sec) +
         static_cast<double>(ts.tv_nsec) * 1e-9;
}

struct Timed {
  double cpu = 1e100;   // best-of-k builder-thread CPU seconds
  double wall = 1e100;  // best-of-k wall seconds
};

[[nodiscard]] Timed best_build(const UnifiedTraceStore& store,
                               std::size_t threads, Dfg* out) {
  const DfgBuilder builder(store);
  DfgOptions options;
  options.threads = threads;
  Timed best;
  for (int r = 0; r < kRepetitions; ++r) {
    const double w0 = wall_seconds();
    const double c0 = thread_cpu_seconds();
    Dfg dfg = builder.build(options);
    const double cpu = thread_cpu_seconds() - c0;
    const double wall = wall_seconds() - w0;
    if (cpu < best.cpu) {
      best.cpu = cpu;
    }
    if (wall < best.wall) {
      best.wall = wall;
    }
    *out = std::move(dfg);
  }
  return best;
}

void write_file(const std::string& path, const std::vector<std::uint8_t>& b) {
  std::FILE* f = std::fopen(path.c_str(), "wb");
  if (f == nullptr || std::fwrite(b.data(), 1, b.size(), f) != b.size()) {
    std::fprintf(stderr, "FAIL: cannot write %s\n", path.c_str());
    std::exit(1);
  }
  std::fclose(f);
}

}  // namespace

int main() {
  const std::vector<TraceEvent> events = synth_events();

  // A 32-source store of owned batches (the long-lived-service shape) ...
  UnifiedTraceStore store;
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
  // ... and the same records as one IOTB3 container source.
  const std::string container_path = "bench_dfg.iotb3";
  write_file(container_path,
             trace::encode_binary_v3(EventBatch::from_events(events),
                                     trace::BinaryOptions{}));
  UnifiedTraceStore container_store;
  container_store.ingest_view(container_path, {{"framework", "bench"},
                                               {"application", "container"}});

  // --- gate 1: builder-thread offload, serial vs parallel ------------------
  Dfg serial_dfg;
  const Timed serial = best_build(store, 1, &serial_dfg);
  Dfg parallel_dfg;
  const Timed parallel = best_build(store, kParallelThreads, &parallel_dfg);
  const double offload_speedup = serial.cpu / parallel.cpu;

  // --- gate 2: determinism across thread counts, source kinds, compaction --
  const bool parallel_identical = serial_dfg == parallel_dfg;
  Dfg two_thread_dfg;
  (void)best_build(store, 2, &two_thread_dfg);
  const bool two_thread_identical = serial_dfg == two_thread_dfg;

  Dfg container_dfg;
  (void)best_build(container_store, 1, &container_dfg);
  const bool container_identical = serial_dfg == container_dfg;

  const std::size_t pools_before = store.pool_count();
  const std::size_t pools_after = store.compact(8 * kMiB);
  Dfg compacted_dfg;
  (void)best_build(store, 1, &compacted_dfg);
  const bool compact_identical =
      serial_dfg == compacted_dfg && pools_after < pools_before;

  std::remove(container_path.c_str());

  // Store shape through the introspection accessor (what fed the miner).
  long long store_records = 0;
  for (const analysis::StorePoolInfo& info : container_store.pool_infos()) {
    store_records += info.records;
  }

  const bool pass = parallel_identical && two_thread_identical &&
                    container_identical && compact_identical &&
                    offload_speedup >= kOffloadFloor;

  // --- armed replay for the embedded metrics object ------------------------
  // The gated builds above ran disarmed; one armed pass over the store's
  // aggregate queries feeds the artifact's "metrics" object.
  const obs::MetricsSnapshot metrics_before = bench::metrics_baseline();
  (void)store.call_stats();
  (void)store.hottest_files(10);
  const std::string metrics_json = bench::metrics_delta_json(metrics_before);

  const std::string json = strprintf(
      "{\n"
      "  \"bench\": \"dfg\",\n"
      "  \"events\": %zu,\n"
      "  \"store_sources\": %zu,\n"
      "  \"ranks\": %zu,\n"
      "  \"records_viewed\": %lld,\n"
      "  \"dfg_offload_speedup\": %.2f,\n"
      "  \"dfg_offload_speedup_floor\": %.1f,\n"
      "  \"serial_build_cpu_ms\": %.2f,\n"
      "  \"parallel_build_cpu_ms\": %.2f,\n"
      "  \"serial_build_wall_ms\": %.2f,\n"
      "  \"parallel_build_wall_ms\": %.2f,\n"
      "  \"parallel_identical\": %s,\n"
      "  \"container_identical\": %s,\n"
      "  \"compaction_identical\": %s,\n"
      "  \"metrics\": %s\n"
      "}\n",
      kEvents, kStoreSources, serial_dfg.ranks.size(), store_records,
      offload_speedup, kOffloadFloor, serial.cpu * 1e3, parallel.cpu * 1e3,
      serial.wall * 1e3, parallel.wall * 1e3,
      (parallel_identical && two_thread_identical) ? "true" : "false",
      container_identical ? "true" : "false",
      compact_identical ? "true" : "false", metrics_json.c_str());

  std::printf("=== bench_dfg ===\n");
  std::printf("mined     %zu rank graphs from %zu sources (%zu events)\n",
              serial_dfg.ranks.size(), kStoreSources, kEvents);
  std::printf("offload   builder-thread CPU %.2fx serial (floor %.1fx) | "
              "serial %.2f ms cpu, parallel %.2f ms cpu (%zu workers)\n",
              offload_speedup, kOffloadFloor, serial.cpu * 1e3,
              parallel.cpu * 1e3, kParallelThreads);
  std::printf("wall      serial %.2f ms, parallel %.2f ms (ungated; tracks "
              "core count)\n",
              serial.wall * 1e3, parallel.wall * 1e3);
  std::printf("identity  parallel=%s two-thread=%s container=%s "
              "compacted=%s (%zu -> %zu pools)\n",
              parallel_identical ? "yes" : "no",
              two_thread_identical ? "yes" : "no",
              container_identical ? "yes" : "no",
              compact_identical ? "yes" : "no", pools_before, pools_after);
  std::printf("BENCH_JSON_BEGIN\n%sBENCH_JSON_END\n", json.c_str());

  if (std::FILE* f = std::fopen("BENCH_dfg.json", "w")) {
    std::fputs(json.c_str(), f);
    std::fclose(f);
  }
  if (!pass) {
    std::fprintf(stderr,
                 "FAIL: dfg gates (offload %.2fx >= %.1fx: %d, identical "
                 "parallel=%d two=%d container=%d compact=%d)\n",
                 offload_speedup, kOffloadFloor,
                 offload_speedup >= kOffloadFloor, parallel_identical,
                 two_thread_identical, container_identical,
                 compact_identical);
    return 1;
  }
  return 0;
}
