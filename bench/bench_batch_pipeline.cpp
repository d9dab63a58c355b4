// Batched vs per-event delivery through the trace pipeline, and the IOTB3
// container's encode and batch-decode cost (ungated):
//
//   1. Batched SummarySink delivery (capture-sized flush units, as the
//      RankBatcher hands them to sinks) must be >= 2x faster than
//      per-event delivery of the same 200k events (summary_speedup), with
//      identical totals.
//
// Writes BENCH_batch_pipeline.json through the shared harness
// (bench_common.h) and exits 1 when the gate or the identity check fails.
#include <cstdio>
#include <string>
#include <vector>

#include "bench_common.h"
#include "trace/binary_format.h"
#include "trace/event_batch.h"
#include "trace/sink.h"

namespace {

using namespace iotaxo;
using trace::EventBatch;
using trace::SummarySink;
using trace::TraceEvent;

constexpr std::size_t kEvents = 200'000;
constexpr auto kEventCount = static_cast<long long>(kEvents);
constexpr std::size_t kFlushUnit = 256;  // frameworks' default batch size

constexpr double kSummaryFloor = 2.0;

[[nodiscard]] double mevents_per_s(const std::vector<bench::Sample>& reps) {
  return static_cast<double>(kEvents) /
         bench::summarize(reps, &bench::Sample::wall).median / 1e6;
}

}  // namespace

int main() {
  const std::vector<TraceEvent> events = bench::synth_events(kEvents);

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
  bool identical = true;
  {
    SummarySink a;
    SummarySink b;
    for (const TraceEvent& ev : events) {
      a.on_event(ev);
    }
    for (const EventBatch& batch : batches) {
      b.on_batch(batch);
    }
    identical = a.total_events() == b.total_events() &&
                a.entries().at("SYS_write").total_duration ==
                    b.entries().at("SYS_write").total_duration;
  }
  const bench::Pairs summary = bench::pairs(
      [&] {
        SummarySink sink;
        for (const TraceEvent& ev : events) {
          sink.on_event(ev);
        }
        identical = identical && sink.total_events() == kEventCount;
      },
      [&] {
        SummarySink sink;
        for (const EventBatch& batch : batches) {
          sink.on_batch(batch);
        }
        identical = identical && sink.total_events() == kEventCount;
      });

  // --- CountingSink delivery ----------------------------------------------
  // The sink totals feed a volatile so the optimizer cannot drop the loops.
  volatile Bytes counting_guard = 0;
  const bench::Pairs counting = bench::pairs(
      [&] {
        trace::CountingSink sink;
        for (const TraceEvent& ev : events) {
          sink.on_event(ev);
        }
        counting_guard = sink.total_bytes() + sink.count();
      },
      [&] {
        trace::CountingSink sink;
        for (const EventBatch& batch : batches) {
          sink.on_batch(batch);
        }
        counting_guard = sink.total_bytes() + sink.count();
      });
  (void)counting_guard;

  // --- binary codec --------------------------------------------------------
  const EventBatch whole = EventBatch::from_events(events);
  const trace::BinaryOptions opts;  // checksummed, plain
  std::vector<std::uint8_t> blob;
  const std::vector<bench::Sample> encode =
      bench::repeat([&] { blob = trace::encode_binary_v3(whole, opts); });
  const std::vector<bench::Sample> decode =
      bench::repeat([&] { (void)trace::decode_binary_batch(blob); });

  bench::Report report("batch_pipeline");
  report.value("events", kEvents);
  report.value("flush_unit", kFlushUnit);
  report.gate("summary_speedup", summary.ratio, kSummaryFloor);
  report.check("summary_results_identical", identical);
  report.value("summary_per_event_mev_s", mevents_per_s(summary.baseline));
  report.value("summary_batched_mev_s", mevents_per_s(summary.candidate));
  report.value("counting_speedup", counting.ratio.median);
  report.value("counting_per_event_mev_s", mevents_per_s(counting.baseline));
  report.value("counting_batched_mev_s", mevents_per_s(counting.candidate));
  report.value("v3_bytes", blob.size());
  report.value("v3_encode_mev_s", mevents_per_s(encode));
  report.value("v3_decode_batch_mev_s", mevents_per_s(decode));

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
  report.metrics(metrics_before);
  return report.finish();
}
