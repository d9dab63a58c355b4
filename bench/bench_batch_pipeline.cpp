// Batched vs per-event delivery through the trace pipeline, and the IOTB3
// container's encode and batch-decode cost (ungated).
//
// Emits the measurements as BENCH_*.json-compatible output: a JSON object
// printed to stdout (between BENCH_JSON_BEGIN/END markers) and written to
// BENCH_batch_pipeline.json in the working directory.
#include <chrono>
#include <cstdio>
#include <string>
#include <vector>

#include "bench_common.h"
#include "trace/binary_format.h"
#include "trace/event_batch.h"
#include "trace/sink.h"
#include "util/strings.h"

namespace {

using namespace iotaxo;
using trace::EventBatch;
using trace::SummarySink;
using trace::TraceEvent;

constexpr std::size_t kEvents = 200'000;
constexpr std::size_t kFlushUnit = 256;  // frameworks' default batch size
constexpr int kRepetitions = 5;

/// A capture-shaped stream: a handful of call names, per-rank hosts, a few
/// shared paths, distinct offset args — the string mix the interposers
/// actually emit.
[[nodiscard]] std::vector<TraceEvent> synth_events() {
  static const char* kNames[] = {"SYS_write", "SYS_read",  "SYS_lseek",
                                 "SYS_open",  "SYS_close", "MPI_File_write_at",
                                 "write",     "read"};
  std::vector<TraceEvent> events;
  events.reserve(kEvents);
  for (std::size_t i = 0; i < kEvents; ++i) {
    TraceEvent ev = trace::make_syscall(
        kNames[i % (sizeof(kNames) / sizeof(kNames[0]))],
        {"5", "65536", strprintf("%zu", (i % 4096) * 65536)},
        65536);
    ev.rank = static_cast<int>(i % 32);
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

/// Best-of-k wall time of `fn`, in seconds.
template <class Fn>
[[nodiscard]] double best_seconds(Fn&& fn) {
  double best = 1e100;
  for (int r = 0; r < kRepetitions; ++r) {
    const auto t0 = std::chrono::steady_clock::now();
    fn();
    const auto t1 = std::chrono::steady_clock::now();
    best = std::min(best, std::chrono::duration<double>(t1 - t0).count());
  }
  return best;
}

[[nodiscard]] double mevents_per_s(double seconds) {
  return static_cast<double>(kEvents) / seconds / 1e6;
}

}  // namespace

int main() {
  const std::vector<TraceEvent> events = synth_events();

  // Pre-build the batched view in capture-sized flush units, as the
  // RankBatcher hands them to sinks.
  std::vector<EventBatch> batches;
  for (std::size_t begin = 0; begin < events.size(); begin += kFlushUnit) {
    EventBatch batch;
    const std::size_t end = std::min(events.size(), begin + kFlushUnit);
    for (std::size_t i = begin; i < end; ++i) {
      batch.append(events[i]);
    }
    batches.push_back(std::move(batch));
  }

  // --- SummarySink delivery: per-event vs batched -------------------------
  long long check_per_event = 0;
  const double summary_per_event = best_seconds([&] {
    SummarySink sink;
    for (const TraceEvent& ev : events) {
      sink.on_event(ev);
    }
    check_per_event = sink.total_events();
  });
  long long check_batched = 0;
  SimTime dur_per_event = 0;
  SimTime dur_batched = 0;
  {
    SummarySink a;
    SummarySink b;
    for (const TraceEvent& ev : events) {
      a.on_event(ev);
    }
    for (const EventBatch& batch : batches) {
      b.on_batch(batch);
    }
    dur_per_event = a.entries().at("SYS_write").total_duration;
    dur_batched = b.entries().at("SYS_write").total_duration;
  }
  const double summary_batched = best_seconds([&] {
    SummarySink sink;
    for (const EventBatch& batch : batches) {
      sink.on_batch(batch);
    }
    check_batched = sink.total_events();
  });

  // --- CountingSink delivery ----------------------------------------------
  // The sink totals feed a volatile so the optimizer cannot drop the loops.
  volatile Bytes counting_guard = 0;
  const double counting_per_event = best_seconds([&] {
    trace::CountingSink sink;
    for (const TraceEvent& ev : events) {
      sink.on_event(ev);
    }
    counting_guard = sink.total_bytes() + sink.count();
  });
  const double counting_batched = best_seconds([&] {
    trace::CountingSink sink;
    for (const EventBatch& batch : batches) {
      sink.on_batch(batch);
    }
    counting_guard = sink.total_bytes() + sink.count();
  });
  (void)counting_guard;

  // --- binary codec --------------------------------------------------------
  EventBatch whole = EventBatch::from_events(events);
  const trace::BinaryOptions opts;  // checksummed, plain
  std::vector<std::uint8_t> blob;
  const double encode = best_seconds([&] {
    blob = trace::encode_binary_v3(whole, opts);
  });
  const double decode_batch = best_seconds([&] {
    (void)trace::decode_binary_batch(blob);
  });

  const double summary_speedup = summary_per_event / summary_batched;
  const bool identical =
      check_per_event == check_batched && dur_per_event == dur_batched;

  // --- armed replay for the embedded metrics object -----------------------
  // The armed replay drives only the plain sinks, which carry no self-metrics
  // instrumentation — an empty object means those stages stay metric-free.
  const obs::MetricsSnapshot metrics_before = bench::metrics_baseline();
  {
    SummarySink sink;
    for (const EventBatch& batch : batches) {
      sink.on_batch(batch);
    }
    sink.flush();
  }
  const std::string metrics_json = bench::metrics_delta_json(metrics_before);

  const std::string json = strprintf(
      "{\n"
      "  \"bench\": \"batch_pipeline\",\n"
      "  \"events\": %zu,\n"
      "  \"flush_unit\": %zu,\n"
      "  \"summary_sink\": {\n"
      "    \"per_event_mev_s\": %.2f,\n"
      "    \"batched_mev_s\": %.2f,\n"
      "    \"speedup\": %.2f,\n"
      "    \"results_identical\": %s\n"
      "  },\n"
      "  \"counting_sink\": {\n"
      "    \"per_event_mev_s\": %.2f,\n"
      "    \"batched_mev_s\": %.2f,\n"
      "    \"speedup\": %.2f\n"
      "  },\n"
      "  \"binary\": {\n"
      "    \"v3_bytes\": %zu,\n"
      "    \"v3_encode_mev_s\": %.2f,\n"
      "    \"v3_decode_batch_mev_s\": %.2f\n"
      "  },\n"
      "  \"metrics\": %s\n"
      "}\n",
      kEvents, kFlushUnit, mevents_per_s(summary_per_event),
      mevents_per_s(summary_batched), summary_speedup,
      identical ? "true" : "false", mevents_per_s(counting_per_event),
      mevents_per_s(counting_batched), counting_per_event / counting_batched,
      blob.size(), mevents_per_s(encode), mevents_per_s(decode_batch),
      metrics_json.c_str());

  std::printf("=== bench_batch_pipeline ===\n");
  std::printf("SummarySink  per-event %.2f Mev/s | batched %.2f Mev/s | %.2fx\n",
              mevents_per_s(summary_per_event), mevents_per_s(summary_batched),
              summary_speedup);
  std::printf("CountingSink per-event %.2f Mev/s | batched %.2f Mev/s | %.2fx\n",
              mevents_per_s(counting_per_event),
              mevents_per_s(counting_batched),
              counting_per_event / counting_batched);
  std::printf("binary       v3 %zu B | encode %.2f Mev/s | decode %.2f "
              "Mev/s\n",
              blob.size(), mevents_per_s(encode), mevents_per_s(decode_batch));
  std::printf("BENCH_JSON_BEGIN\n%sBENCH_JSON_END\n", json.c_str());

  if (std::FILE* f = std::fopen("BENCH_batch_pipeline.json", "w")) {
    std::fputs(json.c_str(), f);
    std::fclose(f);
  }
  // Gate for the acceptance criterion: identical results, >= 2x throughput.
  if (!identical || summary_speedup < 2.0) {
    std::fprintf(stderr,
                 "FAIL: batched SummarySink must match per-event results and "
                 "be >= 2x faster (got %.2fx, identical=%d)\n",
                 summary_speedup, identical ? 1 : 0);
    return 1;
  }
  return 0;
}
