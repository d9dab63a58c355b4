// Process-wide self-metrics: the tracer traces itself.
//
// A registry of named counters, gauges (with high-water marks) and fixed
// log2-bucket histograms instruments every pipeline the repo has built —
// capture batch deliveries, encode and BlockView decode stages, store
// queries, cold compaction, durable writes and attach_dir recovery — under
// the same zero-cost discipline as util/failpoint.h:
//
//   disarmed  every record call is one relaxed atomic load and a
//             predictable not-taken branch; ScopedTimer never reads the
//             clock. Query results and error text are bit-identical with
//             metrics on or off — instrumentation never changes control
//             flow.
//   armed     counters are striped across cache lines (relaxed fetch_add
//             on a per-thread stripe, a handful of nanoseconds under
//             contention); histograms are one bucket increment plus
//             count/sum updates.
//
// Arming: obs::set_enabled(true), the CLI's --metrics/--metrics-out
// flags, or the IOTAXO_METRICS environment variable — parsed once at
// static init like IOTAXO_FAILPOINTS:
//
//   IOTAXO_METRICS=stderr       arm, dump the JSON snapshot to stderr at
//                               process exit
//   IOTAXO_METRICS=/path.json   arm, write the snapshot there at exit
//
// Naming convention: every metric is "layer.component.metric", lowercase,
// with the unit as a suffix where one applies (_ns, _bytes):
//
//   layer      the subsystem: sink, block, store, durable
//   component  the mechanism inside it: batch, encode, decode, query,
//              compact, attach, write
//   metric     what is counted/measured: stored_bytes, crc_ns, ...
//
// The full catalog is pre-registered (metrics.cpp kCatalog), so a
// snapshot always carries every known name — JSON consumers can validate
// against a fixed key set, and zero means "did not happen", not
// "missing". `src/analysis/dfg/README.md` documents each metric and the
// JSON schema. Instrumentation sites bind their handles once:
//
//   static obs::Counter& c = obs::counter("block.decode.stored_bytes");
//   c.add(len);
//
//   static obs::Histogram& h = obs::histogram("durable.write.fsync_ns");
//   { const obs::ScopedTimer t(h); fsync(...); }
//
// Registry references are stable for the process lifetime. All entry
// points are thread-safe.
#pragma once

#include <array>
#include <atomic>
#include <bit>
#include <chrono>
#include <cstdint>
#include <map>
#include <string>
#include <string_view>
#include <vector>

namespace iotaxo::obs {

namespace detail {
extern std::atomic<bool> armed;
[[nodiscard]] std::size_t stripe_of_this_thread() noexcept;
}  // namespace detail

/// The fast-path guard every record call reads first.
[[nodiscard]] inline bool enabled() noexcept {
  return detail::armed.load(std::memory_order_relaxed);
}

/// Arm or disarm recording globally. Values already recorded are kept;
/// reset() zeroes them.
void set_enabled(bool on) noexcept;

/// Monotonic event count. Striped across cache lines so concurrent armed
/// writers (query workers, decode threads) do not ping-pong
/// one line; value() folds the stripes.
class Counter {
 public:
  static constexpr std::size_t kStripes = 8;

  void add(std::uint64_t n) noexcept {
    if (!enabled()) {
      return;
    }
    cells_[detail::stripe_of_this_thread()].v.fetch_add(
        n, std::memory_order_relaxed);
  }

  [[nodiscard]] std::uint64_t value() const noexcept {
    std::uint64_t total = 0;
    for (const Cell& cell : cells_) {
      total += cell.v.load(std::memory_order_relaxed);
    }
    return total;
  }

  void reset() noexcept {
    for (Cell& cell : cells_) {
      cell.v.store(0, std::memory_order_relaxed);
    }
  }

 private:
  struct alignas(64) Cell {
    std::atomic<std::uint64_t> v{0};
  };
  std::array<Cell, kStripes> cells_{};
};

/// Last-written level plus the high-water mark since the last reset
/// (e.g. a queue depth). set() is a store plus a CAS-max loop that
/// almost always exits on the first load.
class Gauge {
 public:
  void set(std::uint64_t v) noexcept {
    if (!enabled()) {
      return;
    }
    value_.store(v, std::memory_order_relaxed);
    std::uint64_t seen = high_water_.load(std::memory_order_relaxed);
    while (v > seen && !high_water_.compare_exchange_weak(
                           seen, v, std::memory_order_relaxed)) {
    }
  }

  [[nodiscard]] std::uint64_t value() const noexcept {
    return value_.load(std::memory_order_relaxed);
  }
  [[nodiscard]] std::uint64_t high_water() const noexcept {
    return high_water_.load(std::memory_order_relaxed);
  }

  void reset() noexcept {
    value_.store(0, std::memory_order_relaxed);
    high_water_.store(0, std::memory_order_relaxed);
  }

 private:
  std::atomic<std::uint64_t> value_{0};
  std::atomic<std::uint64_t> high_water_{0};
};

/// Fixed log2-bucket histogram for latencies (ns) and sizes (bytes).
/// Bucket 0 holds the value 0; bucket i (1 <= i < 63) holds
/// [2^(i-1), 2^i); bucket 63 holds everything from 2^62 up. count/sum
/// make exact totals and means recoverable without the buckets.
class Histogram {
 public:
  static constexpr std::size_t kBuckets = 64;

  [[nodiscard]] static constexpr std::size_t bucket_of(
      std::uint64_t v) noexcept {
    const std::size_t b = static_cast<std::size_t>(std::bit_width(v));
    return b < kBuckets ? b : kBuckets - 1;
  }

  void record(std::uint64_t v) noexcept {
    if (!enabled()) {
      return;
    }
    buckets_[bucket_of(v)].fetch_add(1, std::memory_order_relaxed);
    count_.fetch_add(1, std::memory_order_relaxed);
    sum_.fetch_add(v, std::memory_order_relaxed);
  }

  [[nodiscard]] std::uint64_t count() const noexcept {
    return count_.load(std::memory_order_relaxed);
  }
  [[nodiscard]] std::uint64_t sum() const noexcept {
    return sum_.load(std::memory_order_relaxed);
  }
  [[nodiscard]] std::uint64_t bucket(std::size_t i) const noexcept {
    return buckets_[i].load(std::memory_order_relaxed);
  }

  void reset() noexcept {
    for (std::atomic<std::uint64_t>& b : buckets_) {
      b.store(0, std::memory_order_relaxed);
    }
    count_.store(0, std::memory_order_relaxed);
    sum_.store(0, std::memory_order_relaxed);
  }

 private:
  std::array<std::atomic<std::uint64_t>, kBuckets> buckets_{};
  std::atomic<std::uint64_t> count_{0};
  std::atomic<std::uint64_t> sum_{0};
};

/// RAII span: records elapsed ns into a histogram. Disarmed at
/// construction, it never reads the clock (the armed check happens once,
/// so arming mid-span records nothing for that span).
class ScopedTimer {
 public:
  explicit ScopedTimer(Histogram& hist) noexcept
      : hist_(hist), armed_(enabled()) {
    if (armed_) {
      start_ = std::chrono::steady_clock::now();
    }
  }
  ~ScopedTimer() {
    if (armed_) {
      const auto ns = std::chrono::duration_cast<std::chrono::nanoseconds>(
          std::chrono::steady_clock::now() - start_);
      hist_.record(static_cast<std::uint64_t>(ns.count()));
    }
  }

  ScopedTimer(const ScopedTimer&) = delete;
  ScopedTimer& operator=(const ScopedTimer&) = delete;

 private:
  Histogram& hist_;
  bool armed_;
  std::chrono::steady_clock::time_point start_;
};

/// Registry lookups: resolve (and on first use register) the named
/// metric. References are stable for the process lifetime — bind them
/// once in a function-local static at the instrumentation site. Throws
/// ConfigError when `name` is already registered as a different kind.
[[nodiscard]] Counter& counter(std::string_view name);
[[nodiscard]] Gauge& gauge(std::string_view name);
[[nodiscard]] Histogram& histogram(std::string_view name);

enum class MetricKind { kCounter, kGauge, kHistogram };

/// One metric's values at snapshot time. Which fields are meaningful
/// depends on kind: counters use `value`; gauges use `value` +
/// `high_water`; histograms use `count`, `sum` and `buckets` (always
/// Histogram::kBuckets entries).
struct MetricValue {
  MetricKind kind = MetricKind::kCounter;
  std::uint64_t value = 0;
  std::uint64_t high_water = 0;
  std::uint64_t count = 0;
  std::uint64_t sum = 0;
  std::vector<std::uint64_t> buckets;
};

/// A consistent-by-name snapshot of every registered metric (relaxed
/// loads; each metric internally coherent). Map order = sorted names, so
/// rendering is deterministic.
struct MetricsSnapshot {
  std::map<std::string, MetricValue> values;
};

[[nodiscard]] MetricsSnapshot snapshot();

/// after - before, per metric: counters and histograms subtract
/// (count/sum/buckets); gauges keep `after`'s value and high-water (the
/// high-water mark is since arming/reset, not differentiable). Metrics
/// present only in `after` (registered in between) pass through.
[[nodiscard]] MetricsSnapshot delta(const MetricsSnapshot& before,
                                    const MetricsSnapshot& after);

/// Deterministic JSON: {"metrics_schema":1, "counters":{...},
/// "gauges":{name:{value,high_water}}, "histograms":{name:{count,sum,
/// buckets:{"<index>":n, ...nonzero only}}}} — names sorted, buckets in
/// ascending index order.
[[nodiscard]] std::string to_json(const MetricsSnapshot& snap);

/// util/table text report, one row per metric in name order.
[[nodiscard]] std::string render_text(const MetricsSnapshot& snap);

/// Zero every registered metric (tests and benches; recording stays in
/// whatever armed state it had).
void reset();

}  // namespace iotaxo::obs
