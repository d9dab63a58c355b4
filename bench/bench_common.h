// Shared helpers for the reproduction benches: the paper-testbed cluster
// (32 processors, gigabit Ethernet), fresh-PFS factories, formatting of
// paper-vs-measured rows, and the harness of the gated benches.
#pragma once

#include <time.h>

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <iterator>
#include <memory>
#include <span>
#include <string>
#include <tuple>
#include <type_traits>
#include <utility>
#include <vector>

#include "analysis/unified_store.h"
#include "frameworks/lanl_trace.h"
#include "fs/memfs.h"
#include "pfs/pfs.h"
#include "sim/cluster.h"
#include "taxonomy/overhead.h"
#include "trace/binary_format.h"
#include "trace/event.h"
#include "util/metrics.h"
#include "util/strings.h"
#include "util/table.h"
#include "workload/mpi_io_test.h"

namespace iotaxo::bench {

/// The paper's testbed: 32 processors, Linux 2.6, gigabit Ethernet, RAID-5
/// parallel file system with 64 KiB stripes over 252 drives.
[[nodiscard]] inline sim::Cluster paper_cluster() {
  sim::ClusterParams params;
  params.node_count = 32;
  return sim::Cluster(params);
}

[[nodiscard]] inline taxonomy::VfsFactory pfs_factory() {
  return [] { return std::make_shared<pfs::Pfs>(); };
}

[[nodiscard]] inline taxonomy::VfsFactory local_factory() {
  return [] { return std::make_shared<fs::MemFs>(); };
}

/// Benches run a scaled-down total (the simulator reproduces overhead
/// *ratios*, which are scale-free once per-run constants are amortized).
inline constexpr Bytes kScaledTotalN1 = 4 * kGiB;   // paper: one 100 GiB file
inline constexpr Bytes kScaledTotalNN = 4 * kGiB;   // paper: N x 10 GiB files

inline void print_header(const std::string& title,
                         const std::string& paper_ref) {
  std::printf("\n=== %s ===\n", title.c_str());
  std::printf("Reproduces: %s\n\n", paper_ref.c_str());
}

/// Render one figure sweep as a table of block size vs bandwidths/overheads.
inline void print_sweep(const std::vector<taxonomy::OverheadPoint>& points) {
  TextTable table({"Block size", "BW untraced (MiB/s)", "BW traced (MiB/s)",
                   "BW overhead", "Elapsed overhead", "Events"});
  for (std::size_t c = 1; c < 6; ++c) {
    table.set_align(c, Align::kRight);
  }
  for (const taxonomy::OverheadPoint& p : points) {
    table.add_row({format_bytes(p.block), strprintf("%.1f", p.bw_untraced_mibps),
                   strprintf("%.1f", p.bw_traced_mibps),
                   format_pct(p.bandwidth_overhead),
                   format_pct(p.elapsed_overhead),
                   strprintf("%lld", p.events)});
  }
  std::fputs(table.render().c_str(), stdout);
}

// ---------------------------------------------------------------------------
// The gated-bench harness. bench_batch_pipeline, bench_zero_copy, bench_dfg,
// bench_iotb3 and bench_ingest share one synthetic stream, one query suite,
// one timer and one report. A ratio gate times kPairs alternating pairs of
// its baseline and its candidate and is checked on the median per-pair
// ratio, so one slow pair cannot decide it; the interquartile spread of the
// ratios is written beside the median, so a reading near its floor shows
// how far the noise reaches. Each floor is declared once, in a
// Report::gate() call, and checked once, by the process that measured it.

/// The capture-shaped stream the gated benches share: 8 call names over 32
/// ranks, per-rank hosts, two paths and 4096 distinct offset args, the
/// string mix the interposers emit. Event i sits at i microseconds, so
/// equal chunks of the stream occupy disjoint time eras and time windows
/// map cleanly onto blocks.
[[nodiscard]] inline std::vector<trace::TraceEvent> synth_events(
    std::size_t n) {
  static const char* kNames[] = {"SYS_write", "SYS_read",  "SYS_lseek",
                                 "SYS_open",  "SYS_close", "MPI_File_write_at",
                                 "write",     "read"};
  std::vector<trace::TraceEvent> events;
  events.reserve(n);
  for (std::size_t i = 0; i < n; ++i) {
    trace::TraceEvent ev = trace::make_syscall(
        kNames[i % std::size(kNames)],
        {"5", "65536", strprintf("%zu", (i % 4096) * 65536)}, 65536);
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

/// The five store queries over a store spanning [0, span), as one tuple
/// that the identity checks compare whole.
[[nodiscard]] inline auto query_suite(const analysis::UnifiedTraceStore& store,
                                      SimTime span) {
  return std::tuple{store.call_stats(), store.rank_timeline(3),
                    store.bytes_in_window(span / 4, span / 2),
                    store.io_rate_series(from_millis(5.0)),
                    store.hottest_files(8)};
}

/// The pairs a ratio gate runs, and the repetitions of an ungated timing.
inline constexpr int kPairs = 9;

/// One repetition's cost in seconds: wall time (steady_clock) and the
/// calling thread's CPU time (CLOCK_THREAD_CPUTIME_ID).
struct Sample {
  double wall = 0;
  double cpu = 0;
};

/// Times what a repetition hands to time(). A repetition that takes a
/// Timer& keeps its setup and teardown out of the timed region; one that
/// takes nothing is timed whole.
class Timer {
 public:
  /// Run fn() timed and return its result.
  template <class Fn>
  auto time(Fn&& fn) {
    const auto wall0 = std::chrono::steady_clock::now();
    const double cpu0 = thread_cpu_seconds();
    if constexpr (std::is_void_v<std::invoke_result_t<Fn&>>) {
      fn();
      stop(wall0, cpu0);
    } else {
      auto result = fn();
      stop(wall0, cpu0);
      return result;
    }
  }

  [[nodiscard]] Sample sample() const { return sample_; }

 private:
  [[nodiscard]] static double thread_cpu_seconds() {
    timespec ts{};
    clock_gettime(CLOCK_THREAD_CPUTIME_ID, &ts);
    return static_cast<double>(ts.tv_sec) +
           static_cast<double>(ts.tv_nsec) * 1e-9;
  }
  void stop(std::chrono::steady_clock::time_point wall0, double cpu0) {
    sample_.wall = std::chrono::duration<double>(
                       std::chrono::steady_clock::now() - wall0)
                       .count();
    sample_.cpu = thread_cpu_seconds() - cpu0;
  }

  Sample sample_;
};

/// Run one repetition, `rep()` or `rep(timer)`, and return its Sample.
template <class Rep>
[[nodiscard]] Sample run_rep(Rep& rep) {
  Timer timer;
  if constexpr (std::is_invocable_v<Rep&, Timer&>) {
    rep(timer);
  } else {
    timer.time(rep);
  }
  return timer.sample();
}

/// A reading: the median of its samples and their interquartile range.
struct Stat {
  double median = 0;
  double spread = 0;
};

/// Median and interquartile spread of a non-empty sample set, quantiles
/// interpolated linearly between order statistics (for kPairs = 9 samples:
/// the 3rd, 5th and 7th smallest).
[[nodiscard]] inline Stat summarize(std::vector<double> xs) {
  std::sort(xs.begin(), xs.end());
  const auto quantile = [&xs](double q) {
    const double h = q * static_cast<double>(xs.size() - 1);
    const auto lo = static_cast<std::size_t>(h);
    const std::size_t hi = std::min(lo + 1, xs.size() - 1);
    return xs[lo] + (h - static_cast<double>(lo)) * (xs[hi] - xs[lo]);
  };
  return {quantile(0.5), quantile(0.75) - quantile(0.25)};
}

/// Median and spread of one clock (&Sample::wall or &Sample::cpu).
[[nodiscard]] inline Stat summarize(const std::vector<Sample>& reps,
                                    double Sample::*clock) {
  std::vector<double> xs;
  for (const Sample& s : reps) {
    xs.push_back(s.*clock);
  }
  return summarize(std::move(xs));
}

/// A ratio gate's two sides and the summary of their per-pair ratio.
struct Pairs {
  std::vector<Sample> baseline;
  std::vector<Sample> candidate;
  Stat ratio;  // baseline cost / candidate cost, pair by pair
};

/// Time kPairs pairs of baseline and candidate repetitions, the baseline
/// first on even pairs, and summarize the ratio of their `clock`.
template <class Baseline, class Candidate>
[[nodiscard]] Pairs pairs(Baseline&& baseline, Candidate&& candidate,
                          double Sample::*clock = &Sample::wall) {
  Pairs out;
  std::vector<double> ratios;
  for (int i = 0; i < kPairs; ++i) {
    if (i % 2 == 0) {
      out.baseline.push_back(run_rep(baseline));
      out.candidate.push_back(run_rep(candidate));
    } else {
      out.candidate.push_back(run_rep(candidate));
      out.baseline.push_back(run_rep(baseline));
    }
    ratios.push_back(out.baseline.back().*clock /
                     out.candidate.back().*clock);
  }
  out.ratio = summarize(std::move(ratios));
  return out;
}

/// kPairs repetitions of an ungated timing.
template <class Rep>
[[nodiscard]] std::vector<Sample> repeat(Rep&& rep) {
  std::vector<Sample> reps;
  for (int i = 0; i < kPairs; ++i) {
    reps.push_back(run_rep(rep));
  }
  return reps;
}

/// Arm the self-metrics layer (util/metrics.h) and return the baseline for
/// Report::metrics(). Benches call this *after* their timed loops: the
/// gated measurements stay on the disarmed path, and only the armed replay
/// that follows feeds the report's "metrics" object.
[[nodiscard]] inline obs::MetricsSnapshot metrics_baseline() {
  obs::set_enabled(true);
  return obs::snapshot();
}

/// A gated bench's results. finish() prints one line per entry, writes
/// BENCH_<name>.json, and returns the bench's exit status.
class Report {
 public:
  explicit Report(std::string name) : name_(std::move(name)) {}

  /// A gate passes when its median is at or above its floor. The JSON
  /// carries "<metric>", "<metric>_floor" and "<metric>_spread".
  void gate(const std::string& metric, Stat reading, double floor) {
    entries_.push_back({Kind::kGate, metric, reading.median, reading.spread,
                        floor, reading.median >= floor});
  }
  /// A hard check, such as result identity; false fails the bench.
  void check(const std::string& name, bool ok) {
    entries_.push_back({Kind::kCheck, name, 0, 0, 0, ok});
  }
  /// An ungated reading, reported as is.
  void value(const std::string& name, double x) {
    entries_.push_back({Kind::kValue, name, x, 0, 0, true});
  }
  /// The nonzero metric deltas since `before` (metrics_baseline()), as the
  /// JSON's "metrics" object: counters emit their delta, gauges their
  /// high-water mark, histograms ".count" and ".sum". An empty object means
  /// the armed replay touched no instrumented layer.
  void metrics(const obs::MetricsSnapshot& before) {
    const obs::MetricsSnapshot d = obs::delta(before, obs::snapshot());
    metrics_json_ = "{";
    bool first = true;
    const auto emit = [&](const std::string& key, std::uint64_t v) {
      if (v == 0) {
        return;
      }
      metrics_json_ += strprintf("%s\n    \"%s\": %llu", first ? "" : ",",
                                 key.c_str(),
                                 static_cast<unsigned long long>(v));
      first = false;
    };
    for (const auto& [name, m] : d.values) {
      switch (m.kind) {
        case obs::MetricKind::kCounter:
          emit(name, m.value);
          break;
        case obs::MetricKind::kGauge:
          emit(name + ".high_water", m.high_water);
          break;
        case obs::MetricKind::kHistogram:
          emit(name + ".count", m.count);
          emit(name + ".sum", m.sum);
          break;
      }
    }
    metrics_json_ += first ? "}" : "\n  }";
  }

  /// Print one line per entry, write BENCH_<name>.json into `dir`, and
  /// return 1 if and only if a gate's median is below its floor or a check
  /// is false.
  [[nodiscard]] int finish(const std::string& dir = ".") const {
    std::printf("=== bench_%s ===\n", name_.c_str());
    std::string json = strprintf("{\n  \"bench\": \"%s\"", name_.c_str());
    const auto field = [&json](const std::string& key, const std::string& v) {
      json += strprintf(",\n  \"%s\": %s", key.c_str(), v.c_str());
    };
    bool pass = true;
    for (const Entry& e : entries_) {
      pass = pass && e.ok;
      const char* status = e.ok ? "ok" : "FAIL";
      switch (e.kind) {
        case Kind::kGate:
          std::printf("%-4s  %-32s %s (spread %s, floor %s)\n", status,
                      e.name.c_str(), number(e.x).c_str(),
                      number(e.spread).c_str(), number(e.floor).c_str());
          field(e.name, number(e.x));
          field(e.name + "_floor", number(e.floor));
          field(e.name + "_spread", number(e.spread));
          break;
        case Kind::kCheck:
          std::printf("%-4s  %s\n", status, e.name.c_str());
          field(e.name, e.ok ? "true" : "false");
          break;
        case Kind::kValue:
          std::printf("      %-32s %s\n", e.name.c_str(),
                      number(e.x).c_str());
          field(e.name, number(e.x));
          break;
      }
    }
    field("metrics", metrics_json_);
    json += "\n}\n";
    trace::write_binary_file(
        dir + "/BENCH_" + name_ + ".json",
        std::span(reinterpret_cast<const std::uint8_t*>(json.data()),
                  json.size()));
    return pass ? 0 : 1;
  }

 private:
  enum class Kind { kGate, kCheck, kValue };
  struct Entry {
    Kind kind;
    std::string name;
    double x;       // the value, or the gate's median
    double spread;  // gates only
    double floor;   // gates only
    bool ok;
  };

  /// Integers print whole, other readings to three decimals; a reading
  /// that is not finite prints as JSON null.
  [[nodiscard]] static std::string number(double x) {
    if (!std::isfinite(x)) {
      return "null";
    }
    return x == std::floor(x) && std::fabs(x) < 1e15 ? strprintf("%.0f", x)
                                                      : strprintf("%.3f", x);
  }

  std::string name_;
  std::vector<Entry> entries_;
  std::string metrics_json_ = "{}";
};

}  // namespace iotaxo::bench
