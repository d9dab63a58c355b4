// The taxonomy is "a language for I/O Tracing Framework developers to
// categorize the functionality and performance of their tool" (§3). This
// example builds a brand-new toy framework — "DTrace-lite", a dynamic
// library interposer with a randomizing anonymizer bolted on — implements
// the TracingFramework interface, and runs the classifier on it to produce
// its own Table-1 summary.
#include <cstdio>

#include "anon/anonymizer.h"
#include "frameworks/framework.h"
#include "interpose/tracers.h"
#include "sim/cluster.h"
#include "taxonomy/classifier.h"
#include "trace/bundle.h"

using namespace iotaxo;

namespace {

/// A minimal user-defined framework: LD_PRELOAD capture of I/O library
/// calls, human-readable output, built-in randomizing anonymization,
/// no replay, no dependency discovery.
class DtraceLite : public frameworks::TracingFramework {
 public:
  [[nodiscard]] std::string name() const override { return "DTrace-lite"; }

  [[nodiscard]] frameworks::InstallProfile install_profile() const override {
    frameworks::InstallProfile p;
    p.binary_deps = {"libdtrace_lite.so"};
    return p;
  }

  [[nodiscard]] frameworks::Capabilities capabilities() const override {
    frameworks::Capabilities c;
    c.anonymization_level = 5;  // true randomization
    c.granularity_level = 0;
    c.human_readable_output = true;
    c.event_types = "I/O library calls";
    return c;
  }

  [[nodiscard]] bool supports_fs(fs::FsKind) const override { return true; }

  [[nodiscard]] frameworks::TraceRunResult trace(
      const sim::Cluster& cluster, const mpi::Job& job, fs::VfsPtr vfs,
      const frameworks::TraceJobOptions& options) override {
    auto summary = std::make_shared<trace::SummarySink>();
    auto raw = std::make_shared<trace::RankStreamSink>();
    std::vector<trace::SinkPtr> sinks{summary};
    if (options.store_raw_streams) {
      sinks.push_back(raw);
    }
    auto interposer = std::make_shared<interpose::DynLibInterposer>(
        std::make_shared<trace::MultiSink>(sinks));

    mpi::RunOptions run_options;
    run_options.vfs = std::move(vfs);
    run_options.startup = options.app_startup + from_millis(80.0);
    run_options.cmdline = job.cmdline;
    run_options.observers = {interposer};

    mpi::Runtime runtime(cluster, run_options);
    frameworks::TraceRunResult result;
    result.run = runtime.run(job.programs);
    result.apparent_elapsed = result.run.elapsed;
    result.bundle.metadata["framework"] = name();
    result.bundle.metadata["application"] = job.cmdline;
    result.bundle.merge_summary(*summary);
    result.bundle.ranks = raw->take();
    return result;
  }

  [[nodiscard]] std::optional<trace::TraceBundle> anonymize_bundle(
      const trace::TraceBundle& bundle) const override {
    anon::RandomizingAnonymizer anonymizer(anon::FieldPolicy{}, 0xD7);
    return anonymizer.apply(bundle);
  }
};

}  // namespace

int main() {
  sim::ClusterParams params;
  params.node_count = 8;
  const sim::Cluster cluster(params);

  DtraceLite mine;
  taxonomy::Classifier classifier(cluster, {});
  const taxonomy::FrameworkClassification c = classifier.classify(mine);

  std::printf("Classification of a user-defined framework via the taxonomy:\n\n");
  std::fputs(taxonomy::render_summary_table(c).c_str(), stdout);
  std::printf(
      "\nNote how the classifier *measured* everything it could: it mounted\n"
      "DTrace-lite on the parallel file system, traced the probe app,\n"
      "verified the anonymizer leaks nothing, and ran the overhead sweep.\n");
  return 0;
}
