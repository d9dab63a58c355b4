#include "util/metrics.h"

#include <atomic>
#include <cstdio>
#include <cstdlib>
#include <functional>
#include <memory>
#include <mutex>
#include <thread>
#include <utility>

#include "util/error.h"
#include "util/strings.h"
#include "util/table.h"

namespace iotaxo::obs {

namespace detail {

std::atomic<bool> armed{false};

std::size_t stripe_of_this_thread() noexcept {
  // One hash per thread lifetime; the stripe a thread lands on is
  // arbitrary but stable, which is all value()'s fold needs.
  static thread_local const std::size_t stripe =
      std::hash<std::thread::id>{}(std::this_thread::get_id()) %
      Counter::kStripes;
  return stripe;
}

}  // namespace detail

namespace {

/// One registry slot. All three shapes are allocated per entry (about a
/// kilobyte) so a slot never changes type; `kind` says which one is live.
struct Metric {
  MetricKind kind;
  Counter counter;
  Gauge gauge;
  Histogram histogram;
};

struct Registry {
  std::mutex mu;
  // Node-based map: references into entries stay valid as the registry
  // grows, which is what lets sites cache them in function-local statics.
  std::map<std::string, std::unique_ptr<Metric>, std::less<>> entries;
};

const char* kind_name(MetricKind kind) {
  switch (kind) {
    case MetricKind::kCounter:
      return "counter";
    case MetricKind::kGauge:
      return "gauge";
    case MetricKind::kHistogram:
      return "histogram";
  }
  return "?";
}

/// Every metric the instrumented layers emit, pre-registered so a
/// snapshot always carries the complete key set (zero = did not happen).
/// Keep in sync with the catalog table in src/analysis/dfg/README.md.
struct CatalogEntry {
  const char* name;
  MetricKind kind;
};

constexpr CatalogEntry kCatalog[] = {
    // RankBatcher deliveries (trace/sink.h)
    {"sink.batch.events", MetricKind::kCounter},
    {"sink.batch.flushes", MetricKind::kCounter},
    // IOTB3 encode stages, one sample per block (trace/binary_format.cpp)
    {"block.encode.compress_ns", MetricKind::kHistogram},
    {"block.encode.crc_ns", MetricKind::kHistogram},
    {"block.encode.encrypt_ns", MetricKind::kHistogram},
    // BlockView lazy decode (trace/block_view.cpp)
    {"block.decode.contention_waits", MetricKind::kCounter},
    {"block.decode.crc_ns", MetricKind::kHistogram},
    {"block.decode.decompress_ns", MetricKind::kHistogram},
    {"block.decode.decrypt_ns", MetricKind::kHistogram},
    {"block.decode.failures", MetricKind::kCounter},
    {"block.decode.full_blocks", MetricKind::kCounter},
    {"block.decode.hot_blocks", MetricKind::kCounter},
    {"block.decode.stored_bytes", MetricKind::kCounter},
    // Store queries (analysis/unified_store.cpp)
    {"store.query.bytes_in_window_ns", MetricKind::kHistogram},
    {"store.query.call_stats_ns", MetricKind::kHistogram},
    {"store.query.count", MetricKind::kCounter},
    {"store.query.damage_skipped_blocks", MetricKind::kCounter},
    {"store.query.damage_skipped_records", MetricKind::kCounter},
    {"store.query.hottest_files_ns", MetricKind::kHistogram},
    {"store.query.io_rate_series_ns", MetricKind::kHistogram},
    {"store.query.pools_skipped", MetricKind::kCounter},
    {"store.query.rank_timeline_ns", MetricKind::kHistogram},
    {"store.query.segments_scanned", MetricKind::kCounter},
    {"store.query.segments_skipped", MetricKind::kCounter},
    // Cold compaction (analysis/unified_store.cpp)
    {"store.compact.bytes_written", MetricKind::kCounter},
    {"store.compact.calls", MetricKind::kCounter},
    {"store.compact.eras_spilled", MetricKind::kCounter},
    {"store.compact.manifest_commits", MetricKind::kCounter},
    {"store.compact.spill_ns", MetricKind::kHistogram},
    // attach_dir recovery (analysis/unified_store.cpp)
    {"store.attach.duration_ns", MetricKind::kHistogram},
    {"store.attach.quarantined", MetricKind::kCounter},
    {"store.attach.recovered_eras", MetricKind::kCounter},
    {"store.attach.torn_tmps_removed", MetricKind::kCounter},
    // Streaming ingest (analysis/unified_store.cpp)
    {"ingest.era_seals", MetricKind::kCounter},
    {"ingest.events", MetricKind::kCounter},
    {"ingest.flushes", MetricKind::kCounter},
    {"ingest.index_adopted", MetricKind::kCounter},
    // Live DFG maintenance (analysis/dfg/live_dfg.cpp)
    {"dfg.incremental_merges", MetricKind::kCounter},
    // Durable writes (trace/binary_format.cpp write_binary_file)
    {"durable.write.bytes", MetricKind::kCounter},
    {"durable.write.files", MetricKind::kCounter},
    {"durable.write.fsync_ns", MetricKind::kHistogram},
    {"durable.write.rename_ns", MetricKind::kHistogram},
};

Registry& registry() {
  static Registry* r = [] {
    auto* reg = new Registry();
    for (const CatalogEntry& e : kCatalog) {
      auto metric = std::make_unique<Metric>();
      metric->kind = e.kind;
      reg->entries.emplace(e.name, std::move(metric));
    }
    return reg;
  }();
  return *r;
}

Metric& resolve(std::string_view name, MetricKind kind) {
  Registry& reg = registry();
  const std::lock_guard<std::mutex> lock(reg.mu);
  const auto it = reg.entries.find(name);
  if (it != reg.entries.end()) {
    if (it->second->kind != kind) {
      throw ConfigError(strprintf("metric '%s' is a %s, not a %s",
                                  std::string(name).c_str(),
                                  kind_name(it->second->kind),
                                  kind_name(kind)));
    }
    return *it->second;
  }
  auto metric = std::make_unique<Metric>();
  metric->kind = kind;
  Metric& ref = *metric;
  reg.entries.emplace(std::string(name), std::move(metric));
  return ref;
}

/// Where the at-exit dump goes; empty = no dump configured.
std::string& dump_target() {
  static std::string target;
  return target;
}

void dump_at_exit() {
  const std::string& target = dump_target();
  if (target.empty()) {
    return;
  }
  const std::string json = to_json(snapshot());
  if (target == "stderr") {
    std::fputs(json.c_str(), stderr);
    std::fputc('\n', stderr);
    return;
  }
  std::FILE* f = std::fopen(target.c_str(), "wb");
  if (f == nullptr) {
    std::fprintf(stderr, "iotaxo: cannot write IOTAXO_METRICS dump to '%s'\n",
                 target.c_str());
    return;
  }
  std::fwrite(json.data(), 1, json.size(), f);
  std::fputc('\n', f);
  std::fclose(f);
}

// IOTAXO_METRICS, read once at program start (same discipline as
// IOTAXO_FAILPOINTS): any non-empty value arms recording; "stderr" or a
// file path selects the at-exit dump destination. The registry is touched
// before std::atexit so the dump handler runs while it is still alive.
const bool env_configured = [] {
  const char* spec = std::getenv("IOTAXO_METRICS");
  if (spec != nullptr && *spec != '\0') {
    (void)registry();
    detail::armed.store(true, std::memory_order_relaxed);
    dump_target() = spec;
    std::atexit(dump_at_exit);
  }
  return true;
}();

}  // namespace

void set_enabled(bool on) noexcept {
  detail::armed.store(on, std::memory_order_relaxed);
}

Counter& counter(std::string_view name) {
  return resolve(name, MetricKind::kCounter).counter;
}

Gauge& gauge(std::string_view name) {
  return resolve(name, MetricKind::kGauge).gauge;
}

Histogram& histogram(std::string_view name) {
  return resolve(name, MetricKind::kHistogram).histogram;
}

MetricsSnapshot snapshot() {
  Registry& reg = registry();
  const std::lock_guard<std::mutex> lock(reg.mu);
  MetricsSnapshot snap;
  for (const auto& [name, metric] : reg.entries) {
    MetricValue v;
    v.kind = metric->kind;
    switch (metric->kind) {
      case MetricKind::kCounter:
        v.value = metric->counter.value();
        break;
      case MetricKind::kGauge:
        v.value = metric->gauge.value();
        v.high_water = metric->gauge.high_water();
        break;
      case MetricKind::kHistogram:
        v.count = metric->histogram.count();
        v.sum = metric->histogram.sum();
        v.buckets.resize(Histogram::kBuckets);
        for (std::size_t i = 0; i < Histogram::kBuckets; ++i) {
          v.buckets[i] = metric->histogram.bucket(i);
        }
        break;
    }
    snap.values.emplace(name, std::move(v));
  }
  return snap;
}

MetricsSnapshot delta(const MetricsSnapshot& before,
                      const MetricsSnapshot& after) {
  MetricsSnapshot out;
  for (const auto& [name, a] : after.values) {
    MetricValue d = a;
    const auto it = before.values.find(name);
    if (it != before.values.end()) {
      const MetricValue& b = it->second;
      switch (a.kind) {
        case MetricKind::kCounter:
          d.value = a.value - b.value;
          break;
        case MetricKind::kGauge:
          break;  // levels do not differentiate; keep `after`'s reading
        case MetricKind::kHistogram:
          d.count = a.count - b.count;
          d.sum = a.sum - b.sum;
          for (std::size_t i = 0;
               i < d.buckets.size() && i < b.buckets.size(); ++i) {
            d.buckets[i] = a.buckets[i] - b.buckets[i];
          }
          break;
      }
    }
    out.values.emplace(name, std::move(d));
  }
  return out;
}

std::string to_json(const MetricsSnapshot& snap) {
  const auto emit_section = [&snap](std::string& out, MetricKind kind,
                                    const char* section) {
    out += strprintf("  \"%s\": {", section);
    bool first = true;
    for (const auto& [name, v] : snap.values) {
      if (v.kind != kind) {
        continue;
      }
      out += first ? "\n" : ",\n";
      first = false;
      switch (kind) {
        case MetricKind::kCounter:
          out += strprintf("    \"%s\": %llu", name.c_str(),
                           static_cast<unsigned long long>(v.value));
          break;
        case MetricKind::kGauge:
          out += strprintf(
              "    \"%s\": {\"value\": %llu, \"high_water\": %llu}",
              name.c_str(), static_cast<unsigned long long>(v.value),
              static_cast<unsigned long long>(v.high_water));
          break;
        case MetricKind::kHistogram: {
          out += strprintf(
              "    \"%s\": {\"count\": %llu, \"sum\": %llu, \"buckets\": {",
              name.c_str(), static_cast<unsigned long long>(v.count),
              static_cast<unsigned long long>(v.sum));
          bool first_bucket = true;
          for (std::size_t i = 0; i < v.buckets.size(); ++i) {
            if (v.buckets[i] == 0) {
              continue;
            }
            out += strprintf("%s\"%zu\": %llu", first_bucket ? "" : ", ", i,
                             static_cast<unsigned long long>(v.buckets[i]));
            first_bucket = false;
          }
          out += "}}";
          break;
        }
      }
    }
    out += first ? "}" : "\n  }";
  };

  std::string out = "{\n  \"metrics_schema\": 1,\n";
  emit_section(out, MetricKind::kCounter, "counters");
  out += ",\n";
  emit_section(out, MetricKind::kGauge, "gauges");
  out += ",\n";
  emit_section(out, MetricKind::kHistogram, "histograms");
  out += "\n}";
  return out;
}

std::string render_text(const MetricsSnapshot& snap) {
  TextTable table({"Metric", "Kind", "Value", "Detail"});
  table.set_align(2, Align::kRight);
  for (const auto& [name, v] : snap.values) {
    switch (v.kind) {
      case MetricKind::kCounter:
        table.add_row({name, "counter",
                       strprintf("%llu",
                                 static_cast<unsigned long long>(v.value)),
                       ""});
        break;
      case MetricKind::kGauge:
        table.add_row(
            {name, "gauge",
             strprintf("%llu", static_cast<unsigned long long>(v.value)),
             strprintf("high water %llu",
                       static_cast<unsigned long long>(v.high_water))});
        break;
      case MetricKind::kHistogram:
        table.add_row(
            {name, "histogram",
             strprintf("%llu", static_cast<unsigned long long>(v.count)),
             v.count == 0
                 ? ""
                 : strprintf("sum %llu, mean %llu",
                             static_cast<unsigned long long>(v.sum),
                             static_cast<unsigned long long>(v.sum /
                                                             v.count))});
        break;
    }
  }
  return table.render();
}

void reset() {
  Registry& reg = registry();
  const std::lock_guard<std::mutex> lock(reg.mu);
  for (const auto& [name, metric] : reg.entries) {
    switch (metric->kind) {
      case MetricKind::kCounter:
        metric->counter.reset();
        break;
      case MetricKind::kGauge:
        metric->gauge.reset();
        break;
      case MetricKind::kHistogram:
        metric->histogram.reset();
        break;
    }
  }
}

}  // namespace iotaxo::obs
