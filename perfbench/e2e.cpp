// End-to-end benchmark of the iotaxo pipeline, driven from outside through
// public calls only:
//
//   frameworks::*::trace -> trace::EventBatch -> encode_binary_v3 ->
//   write_binary_file -> UnifiedTraceStore::attach_dir -> the five queries
//   -> DfgBuilder::build / LiveDfg
//
//   perfbench_e2e --workload NAME --seed N --seconds S --trace 0|1
//                 --work DIR [--small]
//
// One workload per process (capture_n1_strided, cold_restart,
// stream_ingest; README.md says why each exists). The run sets the
// workload up several times (setup_s is the median), discards one warm-up
// round, then repeats measured rounds until --seconds have passed. A round
// is one timed pass plus the workload's restart repeats and warm probes;
// every answer is checked against a reference computed in set-up, and a
// mismatch counts as a failed operation.
//
// --trace 0 reports the end-to-end metrics. --trace 1 alternates untraced
// and traced rounds: traced rounds arm obs:: and record a span around every
// call above; the per-layer metrics are the traced rounds' span self times
// and obs:: deltas, and the untraced rounds give the tracing overhead.
//
// The last line of standard output is the JSON result; the lines before it
// (prefixed "# ") record the run's conditions and the layer table.
#include <sys/resource.h>
#include <sys/vfs.h>
#include <unistd.h>

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <filesystem>
#include <map>
#include <memory>
#include <optional>
#include <stdexcept>
#include <string>
#include <utility>
#include <vector>

#include "analysis/dfg/dfg.h"
#include "analysis/dfg/live_dfg.h"
#include "analysis/unified_store.h"
#include "frameworks/framework.h"
#include "frameworks/lanl_trace.h"
#include "frameworks/partrace.h"
#include "frameworks/tracefs.h"
#include "fs/memfs.h"
#include "interpose/tracers.h"
#include "mpi/runtime.h"
#include "pfs/pfs.h"
#include "sim/cluster.h"
#include "spans.h"
#include "trace/binary_format.h"
#include "trace/event_batch.h"
#include "trace/sink.h"
#include "util/cipher.h"
#include "util/metrics.h"
#include "util/rng.h"
#include "util/strings.h"
#include "workload/mpi_io_test.h"

namespace perfbench {
namespace {

using namespace iotaxo;
using analysis::UnifiedTraceStore;
namespace dfg = analysis::dfg;
namespace fsys = std::filesystem;
using Clock = std::chrono::steady_clock;

// ------------------------------------------------------------ run settings

struct Options {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10;
  bool trace = false;
  bool small = false;
  std::string work;
};

constexpr int kRanks = 32;
constexpr Bytes kBlock = 64 * kKiB;
constexpr std::size_t kBatchCapacity = 256;  // every framework's default

/// The paper's worst-case overhead point (§4.1.2, Fig. 2): mpi_io_test N-1
/// strided, 64 KiB blocks, on the benches' scaled 4 GiB total.
[[nodiscard]] Bytes job_total(bool small) {
  return small ? 64 * kMiB : 4 * kGiB;
}

[[nodiscard]] sim::Cluster paper_cluster() {
  sim::ClusterParams params;
  params.node_count = kRanks;
  return sim::Cluster(params);
}

[[nodiscard]] mpi::Job make_job(workload::Pattern pattern, bool small) {
  workload::MpiIoTestParams params;
  params.pattern = pattern;
  params.nranks = kRanks;
  params.block = kBlock;
  params.total_bytes = job_total(small);
  return workload::make_mpi_io_test(params);
}

[[nodiscard]] double seconds_since(Clock::time_point t0) {
  return std::chrono::duration<double>(Clock::now() - t0).count();
}

/// Times fn() in seconds, always (the clock reads are the samples).
template <class Fn>
double timed(Fn&& fn) {
  const Clock::time_point t0 = Clock::now();
  fn();
  return seconds_since(t0);
}

[[nodiscard]] double quantile(std::vector<double> v, double q) {
  if (v.empty()) {
    return 0.0;
  }
  std::sort(v.begin(), v.end());
  const double pos = q * static_cast<double>(v.size() - 1);
  const std::size_t lo = static_cast<std::size_t>(pos);
  const std::size_t hi = std::min(lo + 1, v.size() - 1);
  return v[lo] + (v[hi] - v[lo]) * (pos - static_cast<double>(lo));
}

[[nodiscard]] double median(const std::vector<double>& v) {
  return quantile(v, 0.5);
}

[[nodiscard]] double peak_rss_mib() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;  // ru_maxrss is KiB
}

[[nodiscard]] std::string fs_kind(const std::string& dir) {
  struct statfs st{};
  if (statfs(dir.c_str(), &st) != 0) {
    return "unknown";
  }
  constexpr long kTmpfsMagic = 0x01021994;
  constexpr long kExt4Magic = 0xEF53;
  constexpr long kOverlayMagic = 0x794c7630;
  switch (static_cast<long>(st.f_type)) {
    case kTmpfsMagic:
      return "tmpfs";
    case kExt4Magic:
      return "ext2/3/4";
    case kOverlayMagic:
      return "overlayfs";
    default:
      return strprintf("0x%lx", static_cast<unsigned long>(st.f_type));
  }
}

[[nodiscard]] std::uintmax_t container_bytes(const std::string& dir) {
  std::uintmax_t total = 0;
  for (const fsys::directory_entry& e : fsys::directory_iterator(dir)) {
    if (e.path().extension().string().rfind(".iotb", 0) == 0) {
      total += e.file_size();
    }
  }
  return total;
}

void fresh_dir(const std::string& dir) {
  fsys::remove_all(dir);
  fsys::create_directories(dir);
}

// ------------------------------------------------------------ accounting

/// Operations attempted and failed: captures, writes, attaches, queries,
/// probes and ingests. A quarantined file or an answer that disagrees with
/// its reference is a failed operation.
struct Tally {
  long long attempted = 0;
  long long failed = 0;
  std::vector<std::string> first_failures;

  void op(bool ok, const char* what) {
    ++attempted;
    if (!ok) {
      ++failed;
      if (first_failures.size() < 8) {
        first_failures.emplace_back(what);
      }
    }
  }
  void ops(long long n) { attempted += n; }
};

/// Verification that calls into the store runs with spans and obs::
/// disarmed, so checking answers never lands in a layer's numbers.
class Unobserved {
 public:
  Unobserved() : obs_(obs::enabled()), spans_(span_log().armed()) {
    obs::set_enabled(false);
    span_log().set_armed(false);
  }
  ~Unobserved() {
    obs::set_enabled(obs_);
    span_log().set_armed(spans_);
  }
  Unobserved(const Unobserved&) = delete;
  Unobserved& operator=(const Unobserved&) = delete;

 private:
  bool obs_;
  bool spans_;
};

/// Samples of one measured round. Timings in seconds.
struct RoundSamples {
  double pass_s = 0;
  long long pass_events = 0;
  std::vector<double> restart_s;
  std::vector<double> suite_s;
  std::vector<double> probe_s;
};

// ------------------------------------------------------------ query suite

/// The dashboard suite's parameters, fixed per run from the reference
/// store's time span and the seed (which places the suite's window).
struct SuiteParams {
  int rank = 0;
  SimTime window_begin = 0;
  SimTime window_end = 0;
  SimTime bucket = 1;
  /// The restart's first answer: bytes over the newest data — the newest
  /// 1/16 of the span, widened until it holds I/O.
  SimTime newest_begin = 0;
  SimTime newest_end = 0;
};

/// Answers of the five queries and the DFG.
struct SuiteAnswers {
  std::map<std::string, analysis::CallStats> calls;
  std::vector<trace::TraceEvent> timeline;
  Bytes window_bytes = 0;
  std::vector<std::pair<SimTime, Bytes>> rate;
  std::vector<analysis::FileHeat> hot;
  dfg::Dfg graph;
  bool operator==(const SuiteAnswers&) const = default;
};

[[nodiscard]] dfg::DfgOptions serial_dfg() {
  dfg::DfgOptions options;
  options.threads = 1;  // noise rule 1: every thread setting pinned to 1
  return options;
}

[[nodiscard]] std::unique_ptr<UnifiedTraceStore> fresh_store() {
  auto store = std::make_unique<UnifiedTraceStore>();
  store->set_query_threads(1);
  return store;
}

[[nodiscard]] SuiteAnswers run_suite(const UnifiedTraceStore& store,
                                     const SuiteParams& p) {
  SuiteAnswers a;
  {
    const Span s("analysis.query.call_stats");
    a.calls = store.call_stats();
  }
  {
    const Span s("analysis.query.rank_timeline");
    a.timeline = store.rank_timeline(p.rank);
  }
  {
    const Span s("analysis.query.bytes_in_window");
    a.window_bytes = store.bytes_in_window(p.window_begin, p.window_end);
  }
  {
    const Span s("analysis.query.io_rate_series");
    a.rate = store.io_rate_series(p.bucket);
  }
  {
    const Span s("analysis.query.hottest_files");
    a.hot = store.hottest_files(8);
  }
  {
    const Span s("analysis.dfg.build");
    a.graph = dfg::DfgBuilder(store).build(serial_dfg());
  }
  return a;
}

/// Count the suite's six operations, failing them all on a mismatch.
void check_suite(Tally& tally, const SuiteAnswers& got,
                 const SuiteAnswers& want) {
  tally.op(got.calls == want.calls, "call_stats");
  tally.op(got.timeline == want.timeline, "rank_timeline");
  tally.op(got.window_bytes == want.window_bytes, "bytes_in_window");
  tally.op(got.rate == want.rate, "io_rate_series");
  tally.op(got.hot == want.hot, "hottest_files");
  tally.op(got.graph == want.graph, "dfg");
}

[[nodiscard]] std::pair<SimTime, SimTime> store_span(
    const UnifiedTraceStore& store) {
  SimTime lo = 0;
  SimTime hi = 0;
  bool any = false;
  for (const analysis::StorePoolInfo& info : store.pool_infos()) {
    if (!info.any) {
      continue;
    }
    lo = any ? std::min(lo, info.min_time) : info.min_time;
    hi = any ? std::max(hi, info.max_time) : info.max_time;
    any = true;
  }
  if (!any) {
    throw std::runtime_error("reference store holds no events");
  }
  return {lo, hi};
}

[[nodiscard]] SuiteParams suite_params(const UnifiedTraceStore& store,
                                       Rng& rng) {
  const auto [lo, hi] = store_span(store);
  const SimTime span = hi - lo + 1;
  SuiteParams p;
  // A fixed rank: ranks differ in event count (rank 0 carries the wrapper's
  // annotations), and a seed-chosen rank would move time and peak RSS.
  p.rank = 1;
  // An eighth of the span at a seeded place that holds I/O (redrawn while
  // the window would be empty, so the query always scans data).
  const SimTime eighth = std::max<SimTime>(span / 8, 1);
  for (int draw = 0; draw < 64; ++draw) {
    p.window_begin = rng.uniform(lo, std::max(lo, hi - eighth));
    p.window_end = p.window_begin + eighth;
    if (store.bytes_in_window(p.window_begin, p.window_end) > 0) {
      break;
    }
  }
  p.bucket = std::max<SimTime>(span / 256, 1);
  p.newest_end = hi + 1;
  for (SimTime width = std::max<SimTime>(span / 16, 1);; width *= 2) {
    p.newest_begin = std::max(lo, hi - width);
    if (p.newest_begin == lo ||
        store.bytes_in_window(p.newest_begin, p.newest_end) > 0) {
      break;
    }
  }
  return p;
}

/// A bytes_in_window probe's half-open window on the store's timeline.
struct ProbeWindow {
  SimTime begin = 0;
  SimTime end = 0;
};

/// `count` narrow windows inside the pool index spans from pool_infos(),
/// so every probe scans data. The draw is stratified: each pool gets an
/// equal share of the windows, one per equal slice of its span, at a
/// seeded offset inside the slice. Probe cost depends on how many pools
/// and blocks a window overlaps, so plain random draws would let the seed
/// shift the percentiles between cost modes; stratified draws keep the mix
/// the same for every seed.
[[nodiscard]] std::vector<ProbeWindow> draw_pool_windows(
    const UnifiedTraceStore& store, Rng& rng, std::size_t count) {
  std::vector<analysis::StorePoolInfo> pools;
  for (const analysis::StorePoolInfo& info : store.pool_infos()) {
    if (info.any) {
      pools.push_back(info);
    }
  }
  std::vector<ProbeWindow> out;
  out.reserve(count);
  for (std::size_t i = 0; i < count; ++i) {
    const analysis::StorePoolInfo& pool = pools[i % pools.size()];
    const std::size_t slices = (count + pools.size() - 1) / pools.size();
    const double span = static_cast<double>(pool.max_time - pool.min_time);
    const double slice = span / static_cast<double>(slices);
    const double at = (static_cast<double>(i / pools.size()) +
                       rng.next_double()) * slice;
    const SimTime begin = pool.min_time + static_cast<SimTime>(at);
    const SimTime width =
        std::max<SimTime>(static_cast<SimTime>(span / 1000), 1);
    out.push_back({begin, begin + width});
  }
  return out;
}

// ------------------------------------------------------------ capture side

/// Append every captured event into one batch, rank by rank (the CLI's
/// `trace --binary-out` path).
[[nodiscard]] trace::EventBatch bundle_to_batch(
    const trace::TraceBundle& bundle) {
  trace::EventBatch batch;
  for (const trace::RankStream& rs : bundle.ranks) {
    for (const trace::TraceEvent& ev : rs.events) {
      batch.append(ev);
    }
  }
  return batch;
}

/// Every captured event in timeline order: the rank streams merged by
/// node-local stamp (ties keep rank order), as LANL-Trace's post-processing
/// gathers and merges every node's trace. Blocks of the merged stream then
/// cover short time spans, so windowed queries can skip blocks.
[[nodiscard]] trace::EventBatch merged_batch(const trace::TraceBundle& bundle) {
  std::vector<const trace::TraceEvent*> order;
  for (const trace::RankStream& rs : bundle.ranks) {
    for (const trace::TraceEvent& ev : rs.events) {
      order.push_back(&ev);
    }
  }
  std::stable_sort(order.begin(), order.end(),
                   [](const trace::TraceEvent* a, const trace::TraceEvent* b) {
                     return a->local_start < b->local_start;
                   });
  trace::EventBatch batch;
  for (const trace::TraceEvent* ev : order) {
    batch.append(*ev);
  }
  return batch;
}

/// RankBatcher flushes a capture delivered: every rank's full batches plus
/// its remainder at the end-of-run flush.
[[nodiscard]] long long batcher_flushes(const trace::TraceBundle& bundle) {
  long long flushes = 0;
  for (const trace::RankStream& rs : bundle.ranks) {
    const auto n = static_cast<long long>(rs.events.size());
    flushes += (n + static_cast<long long>(kBatchCapacity) - 1) /
               static_cast<long long>(kBatchCapacity);
  }
  return flushes;
}

[[nodiscard]] bool same_records(const trace::EventBatch& a,
                                const trace::EventBatch& b) {
  if (a.size() != b.size()) {
    return false;
  }
  for (std::size_t i = 0; i < a.size(); ++i) {
    if (!(a.materialize(i) == b.materialize(i))) {
      return false;
    }
  }
  return true;
}

/// Keeps every RankBatcher delivery as its own compact batch (only the
/// strings the flush uses are re-interned).
class RecordingSink : public trace::EventSink {
 public:
  void on_event(const trace::TraceEvent& ev) override {
    trace::EventBatch one;
    one.append(ev);
    flushes_.push_back(std::move(one));
  }
  void on_batch(const trace::EventBatch& batch) override {
    trace::EventBatch copy;
    copy.append(batch);
    flushes_.push_back(std::move(copy));
  }
  [[nodiscard]] std::vector<trace::EventBatch> take() {
    return std::move(flushes_);
  }

 private:
  std::vector<trace::EventBatch> flushes_;
};

/// Facts about the captured input, reported with the per-layer metrics.
struct CaptureFacts {
  long long events = 0;
  long long flushes = 0;
  long long batch_strings = 0;
};

// ------------------------------------------------------------ workloads

class Workload {
 public:
  explicit Workload(const Options& options) : opt_(options) {}
  virtual ~Workload() = default;
  Workload(const Workload&) = delete;
  Workload& operator=(const Workload&) = delete;

  /// Prepare the inputs (timed as setup_s); may run several times, each
  /// replacing the previous set-up's state.
  virtual void setup() = 0;
  /// One measured round: the timed pass plus restart repeats and probes.
  virtual void round(RoundSamples& out, Tally& tally) = 0;
  /// Checks made once, after the measured rounds.
  virtual void final_checks(Tally& /*tally*/) {}
  /// Set-up repetitions (setup_s is their median).
  [[nodiscard]] virtual int setup_reps() const { return 5; }

  [[nodiscard]] virtual long long events() const = 0;
  [[nodiscard]] virtual double stored_bytes_per_event() const = 0;
  [[nodiscard]] virtual CaptureFacts capture_facts() const = 0;
  /// Bytes and blocks the benchmark encoded itself per pass (0 where the
  /// store's cold tier encodes).
  [[nodiscard]] virtual std::pair<long long, long long> encoded() const {
    return {0, 0};
  }
  [[nodiscard]] virtual std::string describe() const = 0;

 protected:
  /// A restart: a fresh store attaches `dir` and answers over the newest
  /// data (the restart sample), then, when asked, runs the suite (the
  /// suite sample).
  struct Restart {
    std::unique_ptr<UnifiedTraceStore> store;
    analysis::StoreHealth health;
    Bytes first = 0;
    SuiteAnswers answers;
    double restart_s = 0;
    double suite_s = 0;
  };

  [[nodiscard]] Restart restart(const std::string& dir,
                                const std::optional<CipherKey>& key,
                                bool with_suite = true) const {
    Restart r;
    r.store = fresh_store();
    analysis::AttachOptions attach;
    attach.key = key;
    r.restart_s = timed([&] {
      {
        const Span s("analysis.attach");
        r.health = r.store->attach_dir(dir, attach);
      }
      const Span s("analysis.query.first_answer");
      r.first =
          r.store->bytes_in_window(params_.newest_begin, params_.newest_end);
    });
    if (with_suite) {
      r.suite_s = timed([&] { r.answers = run_suite(*r.store, params_); });
    }
    return r;
  }

  void record_restart(const Restart& r, std::size_t expect_files,
                      RoundSamples& out, Tally& tally) const {
    out.restart_s.push_back(r.restart_s);
    tally.op(r.health.healthy() && r.health.recovered_eras == expect_files,
             "attach_dir");
    tally.op(r.first == first_answer_, "first_answer");
    if (r.suite_s > 0) {
      out.suite_s.push_back(r.suite_s);
      check_suite(tally, r.answers, reference_);
    }
  }

  void restart_reps(int reps, const std::string& dir,
                    const std::optional<CipherKey>& key,
                    std::size_t expect_files, bool with_suite,
                    RoundSamples& out, Tally& tally) const {
    for (int i = 0; i < reps; ++i) {
      Restart r;
      {
        const Span s("restart");
        r = restart(dir, key, with_suite);
      }
      record_restart(r, expect_files, out, tally);
    }
  }

  /// Set-up: draw the warm probe windows inside the reference store's pool
  /// index spans and record its answers.
  void draw_probes(const UnifiedTraceStore& reference, std::size_t count) {
    Rng probe_rng(opt_.seed ^ 0x9e0b5ULL);
    probe_windows_ = draw_pool_windows(reference, probe_rng, count);
    probe_answers_.clear();
    for (const ProbeWindow& w : probe_windows_) {
      probe_answers_.push_back(reference.bytes_in_window(w.begin, w.end));
    }
  }

  /// Warm probes on a store whose blocks the suite already decoded.
  void warm_probes(const UnifiedTraceStore& store, RoundSamples& out,
                   Tally& tally) const {
    std::vector<Bytes> got(probe_windows_.size());
    {
      const Span probes("probes");
      for (std::size_t i = 0; i < probe_windows_.size(); ++i) {
        const ProbeWindow& w = probe_windows_[i];
        const Clock::time_point t0 = Clock::now();
        {
          const Span s("analysis.query.probe");
          got[i] = store.bytes_in_window(w.begin, w.end);
        }
        out.probe_s.push_back(seconds_since(t0));
      }
    }
    for (std::size_t i = 0; i < got.size(); ++i) {
      tally.op(got[i] == probe_answers_[i], "probe");
    }
  }

  [[nodiscard]] std::string dir(const char* name) const {
    return opt_.work + "/" + name;
  }

  const Options& opt_;
  SuiteParams params_;
  SuiteAnswers reference_;
  Bytes first_answer_ = 0;
  std::vector<ProbeWindow> probe_windows_;
  std::vector<Bytes> probe_answers_;
};

// capture_n1_strided: LANL-Trace (ltrace mode) captures mpi_io_test N-1
// strided, 32 ranks, 64 KiB blocks; the pass continues through v3 encode
// (compress + CRC), the durable write, attach_dir, the five queries and
// the DFG. The paper's worst-case overhead point: capture and encode
// dominate the pass.
class CaptureWorkload : public Workload {
 public:
  using Workload::Workload;

  void setup() override {
    cluster_ = std::make_unique<sim::Cluster>(paper_cluster());
    job_ = make_job(workload::Pattern::kNto1Strided, opt_.small);
    // The reference: an owned store that ingested the same EventBatch.
    const frameworks::TraceRunResult result = capture();
    reference_batch_ = bundle_to_batch(result.bundle);
    facts_ = {static_cast<long long>(reference_batch_.size()),
              batcher_flushes(result.bundle),
              static_cast<long long>(reference_batch_.pool().size())};
    std::unique_ptr<UnifiedTraceStore> owned = fresh_store();
    owned->ingest(reference_batch_, metadata());
    Rng params_rng(opt_.seed);
    params_ = suite_params(*owned, params_rng);
    reference_ = run_suite(*owned, params_);
    first_answer_ =
        owned->bytes_in_window(params_.newest_begin, params_.newest_end);
    draw_probes(*owned, kProbesPerRound);
  }

  void round(RoundSamples& out, Tally& tally) override {
    const std::string pass_dir = dir("capture");
    fresh_dir(pass_dir);
    frameworks::TraceRunResult result;
    trace::EventBatch batch;
    std::vector<std::uint8_t> bytes;
    std::unique_ptr<UnifiedTraceStore> store = fresh_store();
    analysis::StoreHealth health;
    SuiteAnswers answers;
    out.pass_s = timed([&] {
      const Span pass("pass");
      {
        const Span s("frameworks.trace");
        result = capture();
      }
      {
        const Span s("trace.batch");
        batch = bundle_to_batch(result.bundle);
      }
      {
        const Span s("trace.encode");
        bytes = trace::encode_binary_v3(batch, container_options());
      }
      {
        const Span s("trace.write");
        trace::write_binary_file(pass_dir + "/capture-0.iotb3", bytes);
      }
      {
        const Span s("analysis.attach");
        health = store->attach_dir(pass_dir);
      }
      answers = run_suite(*store, params_);
    });
    out.pass_events = static_cast<long long>(batch.size());
    encoded_ = {static_cast<long long>(bytes.size()),
                static_cast<long long>(store->pool_infos().front().blocks)};
    stored_bytes_ = static_cast<double>(container_bytes(pass_dir));
    tally.op(batch.size() == reference_batch_.size(), "capture");
    tally.ops(2);  // encode + write: checked through the attach below
    tally.op(health.healthy() && health.recovered_eras == 1, "attach_dir");
    check_suite(tally, answers, reference_);
    warm_probes(*store, out, tally);
    restart_reps(kRestartReps, pass_dir, std::nullopt, 1, true, out, tally);
    last_pass_dir_ = pass_dir;
  }

  void final_checks(Tally& tally) override {
    // Stored records equal captured events, record by record.
    const trace::MappedTraceFile file(last_pass_dir_ + "/capture-0.iotb3");
    tally.op(same_records(trace::decode_binary_batch(file.bytes()),
                          reference_batch_),
             "stored_records");
  }

  [[nodiscard]] long long events() const override {
    return static_cast<long long>(reference_batch_.size());
  }
  [[nodiscard]] double stored_bytes_per_event() const override {
    return stored_bytes_ / static_cast<double>(events());
  }
  [[nodiscard]] CaptureFacts capture_facts() const override { return facts_; }
  [[nodiscard]] std::pair<long long, long long> encoded() const override {
    return encoded_;
  }
  [[nodiscard]] std::string describe() const override {
    return strprintf(
        "LANL-Trace ltrace, mpi_io_test N-1 strided, %d ranks, %lld KiB "
        "blocks, %lld MiB total; %lld events per pass; v3 compress+CRC",
        kRanks, static_cast<long long>(kBlock / kKiB),
        static_cast<long long>(job_total(opt_.small) / kMiB), events());
  }

 private:
  static constexpr int kRestartReps = 4;
  static constexpr std::size_t kProbesPerRound = 200;

  [[nodiscard]] frameworks::TraceRunResult capture() {
    frameworks::LanlTrace lanl;  // ltrace mode, batch capacity 256
    return lanl.trace(*cluster_, job_, std::make_shared<pfs::Pfs>(),
                      frameworks::TraceJobOptions{});
  }

  [[nodiscard]] static trace::BinaryOptions container_options() {
    trace::BinaryOptions options;
    options.compress = true;
    options.checksum = true;
    return options;
  }

  [[nodiscard]] static std::map<std::string, std::string> metadata() {
    return {{"framework", "LANL-Trace"}, {"application", "mpi_io_test"}};
  }

  std::unique_ptr<sim::Cluster> cluster_;
  mpi::Job job_;
  trace::EventBatch reference_batch_;
  CaptureFacts facts_;
  std::pair<long long, long long> encoded_{0, 0};
  double stored_bytes_ = 0;
  std::string last_pass_dir_;
};

// cold_restart: set-up captures the three mpi_io_test patterns under
// LANL-Trace, Tracefs and //TRACE and cold-compacts them into a
// manifest-committed directory of IOTB3 eras with the full §4.2 option set
// (compressed, checksummed, encrypted, projected). The pass is the read
// path alone: fresh store, attach_dir, first answer, the five queries and
// the DFG.
class ColdRestartWorkload : public Workload {
 public:
  using Workload::Workload;

  void setup() override {
    const sim::Cluster cluster = paper_cluster();
    std::unique_ptr<UnifiedTraceStore> owned = fresh_store();
    facts_ = {};
    const workload::Pattern patterns[] = {workload::Pattern::kNtoN,
                                          workload::Pattern::kNto1NonStrided,
                                          workload::Pattern::kNto1Strided};
    for (const workload::Pattern pattern : patterns) {
      const mpi::Job job = make_job(pattern, opt_.small);
      for (int f = 0; f < 3; ++f) {
        std::unique_ptr<frameworks::TracingFramework> framework;
        fs::VfsPtr vfs;
        if (f == 0) {
          framework = std::make_unique<frameworks::LanlTrace>();
          vfs = std::make_shared<pfs::Pfs>();
        } else if (f == 1) {
          // Tracefs does not mount the parallel file system out of the
          // box; it traces the job on a local file system.
          framework = std::make_unique<frameworks::Tracefs>();
          vfs = std::make_shared<fs::MemFs>();
        } else {
          framework = std::make_unique<frameworks::Partrace>();
          vfs = std::make_shared<pfs::Pfs>();
        }
        const frameworks::TraceRunResult result =
            framework->trace(cluster, job, vfs, frameworks::TraceJobOptions{});
        const trace::EventBatch batch = merged_batch(result.bundle);
        facts_.events += static_cast<long long>(batch.size());
        facts_.flushes += batcher_flushes(result.bundle);
        facts_.batch_strings += static_cast<long long>(batch.pool().size());
        owned->ingest(batch,
                      {{"framework", framework->name()},
                       {"application", workload::to_string(pattern)}},
                      result.bundle.clock_probes, result.bundle.dependencies);
      }
    }
    // Restart answers must equal the owned store's before compaction.
    Rng params_rng(opt_.seed);
    params_ = suite_params(*owned, params_rng);
    reference_ = run_suite(*owned, params_);
    first_answer_ =
        owned->bytes_in_window(params_.newest_begin, params_.newest_end);
    draw_probes(*owned, kProbesPerRound);

    store_dir_ = dir("cold");
    fresh_dir(store_dir_);
    UnifiedTraceStore::ColdTierOptions cold;
    cold.directory = store_dir_;
    cold.binary.compress = true;
    cold.binary.checksum = true;
    cold.binary.encrypt = true;
    cold.binary.project = true;
    cold.binary.key = key();
    owned->compact(kEraBytes, cold);
    files_ = owned->pool_count();
    stored_bytes_ = static_cast<double>(container_bytes(store_dir_));
  }

  void round(RoundSamples& out, Tally& tally) override {
    Restart r;
    out.pass_s = timed([&] {
      const Span s("pass");
      r = restart(store_dir_, key());
    });
    out.pass_events = r.store->total_events();
    record_restart(r, files_, out, tally);
    warm_probes(*r.store, out, tally);
    // The pass is one restart; the shorter restart samples get more.
    restart_reps(kRestartOnlyReps, store_dir_, key(), files_, false, out,
                 tally);
  }

  [[nodiscard]] int setup_reps() const override { return 3; }  // ~4 s each
  [[nodiscard]] long long events() const override { return facts_.events; }
  [[nodiscard]] double stored_bytes_per_event() const override {
    return stored_bytes_ / static_cast<double>(events());
  }
  [[nodiscard]] CaptureFacts capture_facts() const override { return facts_; }
  [[nodiscard]] std::string describe() const override {
    return strprintf(
        "3 patterns x {LANL-Trace, Tracefs, //TRACE}, %lld MiB per job; "
        "%lld events in %zu IOTB3 eras (compress+CRC+encrypt+project)",
        static_cast<long long>(job_total(opt_.small) / kMiB), events(),
        files_);
  }

 private:
  static constexpr std::size_t kEraBytes = 8u << 20;
  static constexpr std::size_t kProbesPerRound = 200;
  static constexpr int kRestartOnlyReps = 3;

  [[nodiscard]] static CipherKey key() {
    return derive_key("perfbench-cold-tier");
  }

  CaptureFacts facts_;
  std::string store_dir_;
  std::size_t files_ = 0;
  double stored_bytes_ = 0;
};

// stream_ingest: set-up records the RankBatcher flushes of the
// capture_n1_strided job through a recording sink; the pass streams them
// into a store with set_stream_ingest and a live DFG attached, probing the
// newest window every few flushes, cold-compacting periodically, and
// ending with a live snapshot. The store taking writes beside reads.
class StreamIngestWorkload : public Workload {
 public:
  using Workload::Workload;

  void setup() override {
    const sim::Cluster cluster = paper_cluster();
    const mpi::Job job = frameworks::LanlTrace::wrap_job(
        make_job(workload::Pattern::kNto1Strided, opt_.small));
    auto sink = std::make_shared<RecordingSink>();
    auto tracer = std::make_shared<interpose::PtraceTracer>(
        interpose::PtraceTracer::Mode::kLtrace, sink,
        interpose::InterposeCosts{}, kBatchCapacity);
    mpi::RunOptions run;
    run.vfs = std::make_shared<pfs::Pfs>();
    run.observers = {tracer};
    mpi::Runtime runtime(cluster, run);
    (void)runtime.run(job.programs);
    flushes_ = sink->take();
    facts_ = {0, static_cast<long long>(flushes_.size()), 0};
    for (const trace::EventBatch& f : flushes_) {
      facts_.events += static_cast<long long>(f.size());
      facts_.batch_strings += static_cast<long long>(f.pool().size());
    }

    // The reference: a store holding one pool per flush, probed at the
    // same points over the same windows.
    newest_windows_.clear();
    newest_answers_.clear();
    std::unique_ptr<UnifiedTraceStore> per_flush = fresh_store();
    for (std::size_t i = 0; i < flushes_.size(); ++i) {
      per_flush->ingest(flushes_[i], metadata());
      if ((i + 1) % kProbeEvery == 0) {
        const ProbeWindow w = newest_window(flushes_[i]);
        newest_windows_.push_back(w);
        newest_answers_.push_back(per_flush->bytes_in_window(w.begin, w.end));
      }
    }
    Rng params_rng(opt_.seed);
    params_ = suite_params(*per_flush, params_rng);
    reference_ = run_suite(*per_flush, params_);
    first_answer_ =
        per_flush->bytes_in_window(params_.newest_begin, params_.newest_end);
    // Warm probes on the final store: windows inside the eras' spans,
    // which the per-flush store answers the same.
    std::unique_ptr<UnifiedTraceStore> eras = fresh_store();
    for (const trace::EventBatch& f : flushes_) {
      eras->ingest(f, metadata());
    }
    eras->compact(kEraBytes);
    Rng probe_rng(opt_.seed ^ 0x9e0b5ULL);
    probe_windows_ = draw_pool_windows(*eras, probe_rng, kProbesPerRound);
    probe_answers_.clear();
    for (const ProbeWindow& w : probe_windows_) {
      probe_answers_.push_back(per_flush->bytes_in_window(w.begin, w.end));
    }
  }

  void round(RoundSamples& out, Tally& tally) override {
    const std::string pass_dir = dir("stream");
    fresh_dir(pass_dir);
    std::unique_ptr<UnifiedTraceStore> store = fresh_store();
    std::unique_ptr<dfg::LiveDfg> live;
    UnifiedTraceStore::ColdTierOptions cold;
    cold.directory = pass_dir;
    cold.binary.compress = true;
    cold.binary.checksum = true;
    std::vector<Bytes> probe_got;
    probe_got.reserve(newest_windows_.size());
    dfg::Dfg snapshot;
    out.pass_s = timed([&] {
      const Span pass("pass");
      store->set_stream_ingest(stream_options());
      {
        const Span s("analysis.dfg.live_attach");
        live = dfg::set_live_dfg(*store);
      }
      for (std::size_t i = 0; i < flushes_.size(); ++i) {
        {
          const Span s("analysis.stream.ingest");
          store->ingest(flushes_[i], metadata());
        }
        if ((i + 1) % kProbeEvery == 0) {
          const ProbeWindow& w = newest_windows_[probe_got.size()];
          const Span s("analysis.stream.probe");
          probe_got.push_back(store->bytes_in_window(w.begin, w.end));
        }
        if ((i + 1) % kCompactEvery == 0) {
          const Span s("analysis.stream.compact");
          store->compact(kEraBytes, cold);
        }
      }
      {
        const Span s("analysis.stream.compact");
        store->compact(kEraBytes, cold);
      }
      const Span s("analysis.dfg.live_snapshot");
      snapshot = live->snapshot();
    });
    out.pass_events = store->total_events();
    stored_bytes_ = static_cast<double>(container_bytes(pass_dir));
    files_ = store->pool_count();
    {
      const Unobserved quiet;
      tally.ops(static_cast<long long>(flushes_.size()));  // ingests
      tally.ops(static_cast<long long>(compactions()));    // spills
      for (std::size_t i = 0; i < probe_got.size(); ++i) {
        tally.op(probe_got[i] == newest_answers_[i], "stream_probe");
      }
      tally.op(out.pass_events == facts_.events, "stream_events");
      // LiveDfg::snapshot() equals DfgBuilder::build(); the final suite
      // equals that of the one-pool-per-flush store.
      tally.op(snapshot == dfg::DfgBuilder(*store).build(serial_dfg()),
               "live_snapshot");
      check_suite(tally, run_suite(*store, params_), reference_);
    }
    live.reset();  // detach before the store goes
    warm_probes(*store, out, tally);  // the check's suite warmed every era
    restart_reps(kRestartReps, pass_dir, std::nullopt, files_, true, out,
                 tally);
  }

  [[nodiscard]] long long events() const override { return facts_.events; }
  [[nodiscard]] double stored_bytes_per_event() const override {
    return stored_bytes_ / static_cast<double>(events());
  }
  [[nodiscard]] CaptureFacts capture_facts() const override { return facts_; }
  [[nodiscard]] std::string describe() const override {
    return strprintf(
        "%zu RankBatcher flushes (%lld events) of the capture_n1_strided "
        "job; probe every %zu flushes, compact(%zu KiB, cold) every %zu; "
        "%zu eras per pass",
        flushes_.size(), events(), kProbeEvery, kEraBytes / 1024,
        kCompactEvery, files_);
  }

 private:
  static constexpr std::size_t kProbeEvery = 8;
  static constexpr std::size_t kCompactEvery = 100;
  static constexpr std::size_t kEraBytes = 4u << 20;
  static constexpr int kRestartReps = 2;
  static constexpr std::size_t kProbesPerRound = 200;

  [[nodiscard]] static analysis::StreamIngestOptions stream_options() {
    analysis::StreamIngestOptions options;
    options.era_bytes = kEraBytes;
    return options;
  }

  [[nodiscard]] static std::map<std::string, std::string> metadata() {
    return {{"framework", "LANL-Trace"}, {"application", "mpi_io_test"}};
  }

  [[nodiscard]] std::size_t compactions() const {
    return flushes_.size() / kCompactEvery + 1;
  }

  /// The stamp range of the flush just ingested.
  [[nodiscard]] static ProbeWindow newest_window(const trace::EventBatch& f) {
    SimTime lo = f.record(0).local_start;
    SimTime hi = lo;
    for (const trace::EventRecord& r : f.records()) {
      lo = std::min(lo, r.local_start);
      hi = std::max(hi, r.local_start);
    }
    return {lo, hi + 1};
  }

  std::vector<trace::EventBatch> flushes_;
  std::vector<ProbeWindow> newest_windows_;
  std::vector<Bytes> newest_answers_;
  CaptureFacts facts_;
  double stored_bytes_ = 0;
  std::size_t files_ = 0;
};

// ------------------------------------------------------------ reporting

struct Metric {
  std::string name;
  double value = 0;
  std::string unit;
};

[[nodiscard]] std::string result_json(bool correct, const Tally& tally,
                                      const std::vector<Metric>& metrics) {
  std::string out = strprintf(
      "{\"correct\": %s, \"attempted\": %lld, \"failed\": %lld, "
      "\"metrics\": {",
      correct ? "true" : "false", tally.attempted, tally.failed);
  for (std::size_t i = 0; i < metrics.size(); ++i) {
    const Metric& m = metrics[i];
    out += strprintf("%s\"%s\": {\"value\": %.17g, \"unit\": \"%s\"}",
                     i == 0 ? "" : ", ", m.name.c_str(), m.value,
                     m.unit.c_str());
  }
  out += "}}";
  return out;
}

/// Benchmark glue spans: they structure the log but are no layer.
[[nodiscard]] bool is_glue(const std::string& name) {
  return name == "round" || name == "pass" || name == "restart" ||
         name == "probes";
}

/// One traced round's attribution: self time per layer inside the pass
/// and across the whole round, plus the pass wall time.
struct RoundTrace {
  SelfTimes pass;
  SelfTimes round;
  double pass_wall = 0;
};

[[nodiscard]] double median_of(const std::vector<RoundTrace>& rounds,
                               const std::string& name, bool in_pass) {
  std::vector<double> v;
  for (const RoundTrace& r : rounds) {
    const SelfTimes& t = in_pass ? r.pass : r.round;
    const auto it = t.seconds.find(name);
    v.push_back(it == t.seconds.end() ? 0.0 : it->second);
  }
  return median(v);
}

/// The layer table: self time per pass and per round, share of the pass,
/// calls per round (traced rounds; medians).
void print_layer_table(const std::vector<RoundTrace>& rounds) {
  std::map<std::string, double> calls;
  for (const RoundTrace& r : rounds) {
    for (const auto& [name, n] : r.round.calls) {
      calls[name] += static_cast<double>(n) /
                     static_cast<double>(rounds.size());
    }
  }
  std::vector<double> walls;
  for (const RoundTrace& r : rounds) {
    walls.push_back(r.pass_wall);
  }
  const double wall = median(walls);
  std::printf("# layer table (traced rounds: %zu; medians per round)\n",
              rounds.size());
  std::printf("# %-32s %12s %8s %12s %10s\n", "layer", "pass self ms",
              "pass %", "round self ms", "calls");
  for (const auto& [name, n] : calls) {
    if (is_glue(name)) {
      continue;
    }
    const double in_pass = median_of(rounds, name, true);
    std::printf("# %-32s %12.3f %7.1f%% %12.3f %10.1f\n", name.c_str(),
                in_pass * 1e3, wall > 0 ? 100.0 * in_pass / wall : 0.0,
                median_of(rounds, name, false) * 1e3, n);
  }
  // The ROADMAP item 1 gate: layer self times cover >= 90% of the pass.
  std::vector<double> shares;
  for (const RoundTrace& r : rounds) {
    double attributed = 0;
    for (const auto& [name, s] : r.pass.seconds) {
      if (!is_glue(name)) {
        attributed += s;
      }
    }
    shares.push_back(r.pass_wall > 0 ? attributed / r.pass_wall : 0.0);
  }
  const double share = median(shares);
  std::printf("# pass wall %.3f ms; layers account for %.1f%% of it (gate "
              ">= 90%%): %s\n",
              wall * 1e3, 100.0 * share, share >= 0.9 ? "PASS" : "FAIL");
}

[[nodiscard]] std::unique_ptr<Workload> make_workload(const Options& opt) {
  if (opt.workload == "capture_n1_strided") {
    return std::make_unique<CaptureWorkload>(opt);
  }
  if (opt.workload == "cold_restart") {
    return std::make_unique<ColdRestartWorkload>(opt);
  }
  if (opt.workload == "stream_ingest") {
    return std::make_unique<StreamIngestWorkload>(opt);
  }
  throw std::invalid_argument("unknown workload: " + opt.workload);
}

[[nodiscard]] Options parse(int argc, char** argv) {
  Options opt;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    const auto value = [&]() -> std::string {
      if (i + 1 >= argc) {
        throw std::invalid_argument("missing value for " + arg);
      }
      return argv[++i];
    };
    if (arg == "--workload") {
      opt.workload = value();
    } else if (arg == "--seed") {
      opt.seed = std::stoull(value());
    } else if (arg == "--seconds") {
      opt.seconds = std::stod(value());
    } else if (arg == "--trace") {
      opt.trace = value() == "1";
    } else if (arg == "--work") {
      opt.work = value();
    } else if (arg == "--small") {
      opt.small = true;
    } else {
      throw std::invalid_argument("unknown argument: " + arg);
    }
  }
  if (opt.workload.empty() || opt.work.empty() || !(opt.seconds > 0)) {
    throw std::invalid_argument(
        "usage: perfbench_e2e --workload NAME --seed N --seconds S "
        "--trace 0|1 --work DIR [--small]");
  }
  return opt;
}

int run(const Options& opt) {
  fresh_dir(opt.work);
  std::unique_ptr<Workload> w = make_workload(opt);

  // Set-up, several times: setup_s is the median.
  const int setup_reps = opt.small ? 1 : w->setup_reps();
  std::vector<double> setup_s;
  for (int i = 0; i < setup_reps; ++i) {
    setup_s.push_back(timed([&] { w->setup(); }));
  }

  const double setup_rss_mib = peak_rss_mib();
  Tally tally;
  // The mpi floor: the same job untraced (traced runs only).
  std::vector<double> untraced_run_s;
  if (opt.trace) {
    const sim::Cluster cluster = paper_cluster();
    const mpi::Job job = make_job(workload::Pattern::kNto1Strided, opt.small);
    for (int i = 0; i < 3; ++i) {
      untraced_run_s.push_back(timed([&] {
        (void)frameworks::run_untraced(cluster, job,
                                       std::make_shared<pfs::Pfs>());
      }));
    }
  }

  {
    RoundSamples warmup;  // discarded
    w->round(warmup, tally);
  }

  std::vector<RoundSamples> measured;     // untraced rounds
  std::vector<RoundSamples> traced;       // traced rounds (--trace 1)
  std::vector<RoundTrace> round_traces;
  const obs::MetricsSnapshot before = obs::snapshot();
  const Clock::time_point start = Clock::now();
  const std::size_t min_rounds = opt.trace ? 4 : 3;
  for (std::size_t r = 0;
       r < min_rounds || seconds_since(start) < opt.seconds; ++r) {
    const bool traced_round = opt.trace && r % 2 == 1;
    obs::set_enabled(traced_round);
    span_log().set_armed(traced_round);
    const std::size_t first_span = span_log().size();
    RoundSamples samples;
    {
      const Span s("round");
      w->round(samples, tally);
    }
    obs::set_enabled(false);
    span_log().set_armed(false);
    if (traced_round) {
      round_traces.push_back({span_log().self_times(first_span, "pass"),
                              span_log().self_times(first_span),
                              samples.pass_s});
      traced.push_back(std::move(samples));
    } else {
      measured.push_back(std::move(samples));
    }
  }
  const obs::MetricsSnapshot delta = obs::delta(before, obs::snapshot());
  w->final_checks(tally);

  const auto collect = [](const std::vector<RoundSamples>& rounds,
                          auto field) {
    std::vector<double> v;
    for (const RoundSamples& s : rounds) {
      const auto& part = field(s);
      v.insert(v.end(), part.begin(), part.end());
    }
    return v;
  };
  const auto eps = [](const std::vector<RoundSamples>& rounds) {
    std::vector<double> v;
    for (const RoundSamples& s : rounds) {
      v.push_back(static_cast<double>(s.pass_events) / s.pass_s);
    }
    return median(v);
  };
  const std::vector<double> restart =
      collect(measured, [](const RoundSamples& s) { return s.restart_s; });
  const std::vector<double> suite =
      collect(measured, [](const RoundSamples& s) { return s.suite_s; });
  const std::vector<double> probes =
      collect(measured, [](const RoundSamples& s) { return s.probe_s; });
  const double failed_frac = static_cast<double>(tally.failed) /
                             static_cast<double>(std::max(tally.attempted, 1LL));

  // Probe percentiles are taken per round (>= 10 samples beyond p90 in
  // each) and the median across rounds is reported, so one disturbed
  // round cannot move them.
  const auto probe_pct = [&](double q) {
    std::vector<double> per_round;
    for (const RoundSamples& s : measured) {
      per_round.push_back(quantile(s.probe_s, q));
    }
    return median(per_round) * 1e6;
  };

  std::printf("# workload %s: %s\n", opt.workload.c_str(),
              w->describe().c_str());
  std::printf("# seed %llu (drives the suite's window and every probe "
              "window); threads: query=1 dfg=1 (pinned); nproc %ld\n",
              static_cast<unsigned long long>(opt.seed),
              sysconf(_SC_NPROCESSORS_ONLN));
  std::printf("# work dir %s (%s); events per pass %lld; trace %d\n",
              fsys::absolute(opt.work).string().c_str(),
              fs_kind(opt.work).c_str(), w->events(), opt.trace ? 1 : 0);
  std::printf("# rounds %zu untraced + %zu traced in %.1f s after 1 warm-up; "
              "samples: setup %d, restart %zu, suite %zu, probe %zu (%zu "
              "per round)\n",
              measured.size(), traced.size(), seconds_since(start),
              setup_reps, restart.size(), suite.size(), probes.size(),
              measured.empty() ? 0 : measured.front().probe_s.size());
  std::printf("# pass ms per round:");
  for (const RoundSamples& r : measured) {
    std::printf(" %.1f", r.pass_s * 1e3);
  }
  std::printf("\n");
  std::printf("# probe p50 %.1f us, p90 %.1f us (medians of per-round "
              "percentiles); p99 over all %zu samples %.1f us\n",
              probe_pct(0.5), probe_pct(0.9), probes.size(),
              quantile(probes, 0.99) * 1e6);
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  std::printf("# page faults: minor %ld, major %ld; peak RSS %.1f MiB "
              "(%.1f MiB by the end of set-up)\n",
              usage.ru_minflt, usage.ru_majflt, peak_rss_mib(), setup_rss_mib);
  std::printf("# operations attempted %lld, failed %lld, failed_frac %.6g\n",
              tally.attempted, tally.failed, failed_frac);
  for (const std::string& f : tally.first_failures) {
    std::printf("# FAILED: %s\n", f.c_str());
  }

  std::vector<Metric> metrics;
  if (!opt.trace) {
    metrics = {
        {"setup_s", median(setup_s), "s"},
        {"events_per_s", eps(measured), "1/s"},
        {"restart_ms", median(restart) * 1e3, "ms"},
        {"suite_ms", median(suite) * 1e3, "ms"},
        {"probe_p50_us", probe_pct(0.5), "us"},
        {"probe_p90_us", probe_pct(0.9), "us"},
        {"stored_bytes_per_event", w->stored_bytes_per_event(), "B"},
        {"peak_rss_mib", peak_rss_mib(), "MiB"},
    };
  } else {
    print_layer_table(round_traces);
    const double untraced_eps = eps(measured);
    const double traced_eps = eps(traced);
    std::printf("# tracing overhead: untraced %.0f events/s, traced %.0f "
                "events/s (%+.2f%%)\n",
                untraced_eps, traced_eps,
                100.0 * (untraced_eps / traced_eps - 1.0));
    const double nrounds = static_cast<double>(traced.size());
    const auto counter = [&](const char* name) {
      const auto it = delta.values.find(name);
      return it == delta.values.end()
                 ? 0.0
                 : static_cast<double>(it->second.value) / nrounds;
    };
    const auto hist_sum = [&](const char* name) {
      const auto it = delta.values.find(name);
      return it == delta.values.end()
                 ? 0.0
                 : static_cast<double>(it->second.sum) / nrounds;
    };
    const auto layer_ms = [&](const char* span) {
      return median_of(round_traces, span, false) * 1e3;
    };
    const CaptureFacts facts = w->capture_facts();
    const auto [enc_bytes, enc_blocks] = w->encoded();
    const double scanned = counter("store.query.segments_scanned");
    const double skipped = counter("store.query.segments_skipped");
    metrics = {
        {"mpi.untraced_run_s", median(untraced_run_s), "s"},
        {"frameworks.events", static_cast<double>(facts.events), "count"},
        {"interpose.flushes", static_cast<double>(facts.flushes), "count"},
        {"interpose.events_per_flush",
         static_cast<double>(facts.events) /
             static_cast<double>(std::max(facts.flushes, 1LL)),
         "count"},
        {"trace.batch_strings", static_cast<double>(facts.batch_strings),
         "count"},
        {"trace.encode_bytes", static_cast<double>(enc_bytes), "B"},
        {"trace.encode_blocks", static_cast<double>(enc_blocks), "count"},
        {"durable.write.files", counter("durable.write.files"), "count"},
        {"durable.write.bytes", counter("durable.write.bytes"), "B"},
        {"analysis.attach_s", layer_ms("analysis.attach") / 1e3, "s"},
        {"store.attach.recovered_eras",
         counter("store.attach.recovered_eras"), "count"},
        {"store.attach.quarantined", counter("store.attach.quarantined"),
         "count"},
        {"ingest.index_adopted", counter("ingest.index_adopted"), "count"},
        {"block.decode.hot_blocks", counter("block.decode.hot_blocks"),
         "count"},
        {"block.decode.full_blocks", counter("block.decode.full_blocks"),
         "count"},
        {"block.decode.stored_bytes", counter("block.decode.stored_bytes"),
         "B"},
        {"block.decode.crc_ns", hist_sum("block.decode.crc_ns"), "ns"},
        {"block.decode.decompress_ns", hist_sum("block.decode.decompress_ns"),
         "ns"},
        {"block.decode.failures", counter("block.decode.failures"), "count"},
        {"analysis.query.first_answer_ms",
         layer_ms("analysis.query.first_answer"), "ms"},
        {"analysis.query.call_stats_ms",
         layer_ms("analysis.query.call_stats"), "ms"},
        {"analysis.query.rank_timeline_ms",
         layer_ms("analysis.query.rank_timeline"), "ms"},
        {"analysis.query.bytes_in_window_ms",
         layer_ms("analysis.query.bytes_in_window"), "ms"},
        {"analysis.query.io_rate_series_ms",
         layer_ms("analysis.query.io_rate_series"), "ms"},
        {"analysis.query.hottest_files_ms",
         layer_ms("analysis.query.hottest_files"), "ms"},
        {"analysis.query.probe_ms", layer_ms("analysis.query.probe"), "ms"},
        {"store.query.segments_scanned", scanned, "count"},
        {"store.query.segments_skipped", skipped, "count"},
        {"store.query.pools_skipped", counter("store.query.pools_skipped"),
         "count"},
        {"analysis.query.skip_ratio",
         scanned + skipped > 0 ? skipped / (scanned + skipped) : 0.0,
         "ratio"},
        {"analysis.dfg.build_ms", layer_ms("analysis.dfg.build"), "ms"},
        {"dfg.incremental_merges", counter("dfg.incremental_merges"),
         "count"},
        {"ingest.flushes", counter("ingest.flushes"), "count"},
        {"ingest.events", counter("ingest.events"), "count"},
        {"ingest.era_seals", counter("ingest.era_seals"), "count"},
        {"store.compact.eras_spilled", counter("store.compact.eras_spilled"),
         "count"},
        {"store.compact.bytes_written",
         counter("store.compact.bytes_written"), "B"},
    };
    for (const Metric& m : metrics) {
      std::printf("# %-36s %16.6g %s\n", m.name.c_str(), m.value,
                  m.unit.c_str());
    }
    const std::string spans_path =
        strprintf("%s/spans-%s-seed%llu.json", opt.work.c_str(),
                  opt.workload.c_str(),
                  static_cast<unsigned long long>(opt.seed));
    if (std::FILE* f = std::fopen(spans_path.c_str(), "w")) {
      span_log().write_json(f);
      std::fclose(f);
      std::printf("# spans: %zu written to %s\n", span_log().size(),
                  spans_path.c_str());
    }
  }
  for (const char* data : {"capture", "cold", "stream"}) {
    fsys::remove_all(opt.work + "/" + data);
  }
  const bool correct = tally.failed == 0 && tally.attempted > 0;
  std::printf("%s\n", result_json(correct, tally, metrics).c_str());
  return correct ? 0 : 1;
}

}  // namespace
}  // namespace perfbench

int main(int argc, char** argv) {
  try {
    return perfbench::run(perfbench::parse(argc, argv));
  } catch (const std::exception& e) {
    std::fprintf(stderr, "perfbench_e2e: %s\n", e.what());
    return 2;
  }
}
