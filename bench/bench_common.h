// Shared helpers for the reproduction benches: the paper-testbed cluster
// (32 processors, gigabit Ethernet), fresh-PFS factories, and formatting
// of paper-vs-measured rows.
#pragma once

#include <cstdint>
#include <cstdio>
#include <memory>
#include <string>
#include <vector>

#include "frameworks/lanl_trace.h"
#include "fs/memfs.h"
#include "pfs/pfs.h"
#include "sim/cluster.h"
#include "taxonomy/overhead.h"
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

/// Arm the self-metrics layer (util/metrics.h) and return the baseline
/// snapshot for metrics_delta_json(). Benches call this *after* their
/// timed floor loops — the gated measurements stay on the disarmed path;
/// only the armed replay pass that follows feeds the "metrics" object
/// embedded in the BENCH_*.json artifact.
[[nodiscard]] inline obs::MetricsSnapshot metrics_baseline() {
  obs::set_enabled(true);
  return obs::snapshot();
}

/// Flatten the nonzero part of (now - baseline) into a JSON object body
/// for embedding as `"metrics": {...}` next to a bench's floors: counters
/// emit their delta, gauges their high-water mark, histograms ".count"
/// and ".sum". Dotted metric names never match the `[A-Za-z0-9_]+` floor
/// keys tools/check_build.sh gates on, so the object cannot perturb
/// gating. An empty object means the bench's armed replay touched no
/// instrumented layer.
[[nodiscard]] inline std::string metrics_delta_json(
    const obs::MetricsSnapshot& before) {
  const obs::MetricsSnapshot d = obs::delta(before, obs::snapshot());
  std::string out = "{";
  bool first = true;
  const auto emit = [&](const std::string& key, std::uint64_t v) {
    if (v == 0) {
      return;
    }
    out += strprintf("%s\n    \"%s\": %llu", first ? "" : ",", key.c_str(),
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
  out += first ? "}" : "\n  }";
  return out;
}

}  // namespace iotaxo::bench
