// Table 2: "Classification summary table for various Traces" — the paper's
// case study, regenerated by running the experiment-driven classifier
// against our LANL-Trace, Tracefs and //TRACE implementations.
#include <cstdio>

#include "bench_common.h"
#include "frameworks/partrace.h"
#include "frameworks/tracefs.h"
#include "taxonomy/classifier.h"

using namespace iotaxo;

int main() {
  bench::print_header("Table 2 — classification case study",
                      "Konwinski et al., SC'07, Table 2");

  const sim::Cluster cluster = bench::paper_cluster();
  taxonomy::ClassifierConfig config;
  config.nranks = 8;
  config.probe_phases = 16;
  taxonomy::Classifier classifier(cluster, config);

  frameworks::LanlTrace lanl;
  frameworks::Tracefs tracefs;
  frameworks::Partrace partrace;

  const std::vector<taxonomy::FrameworkClassification> classifications = {
      classifier.classify(lanl),
      classifier.classify(tracefs),
      classifier.classify(partrace),
  };
  std::fputs(taxonomy::render_comparison_table(classifications).c_str(),
             stdout);

  // Cross-check the qualitative cells against the paper's Table 2.
  struct Expected {
    taxonomy::FeatureId id;
    const char* lanl;
    const char* tracefs;
    const char* partrace;
  };
  using taxonomy::FeatureId;
  const std::vector<Expected> expected = {
      {FeatureId::kParallelFsCompatibility, "Yes", "No", "Yes"},
      {FeatureId::kEaseOfInstall, "2 (Easy)", "4 (Advanced)", "2 (Easy)"},
      {FeatureId::kAnonymization, "No", "4 (Advanced)", "No"},
      {FeatureId::kGranularityControl, "1 (Simple)", "5 (V. Advanced)", "No"},
      {FeatureId::kReplayableTraces, "No", "No", "Yes"},
      {FeatureId::kRevealsDependencies, "No", "No", "Yes"},
      {FeatureId::kIntrusiveness, "1 (Passive)", "1 (Passive)", "1 (Passive)"},
      {FeatureId::kAnalysisTools, "No", "No", "No"},
      {FeatureId::kTraceDataFormat, "Human readable", "Binary",
       "Human readable"},
      {FeatureId::kSkewDriftAccounting, "Yes", "N/A", "No"},
  };
  int mismatches = 0;
  for (const Expected& e : expected) {
    const char* got[3] = {
        classifications[0].value(e.id).display.c_str(),
        classifications[1].value(e.id).display.c_str(),
        classifications[2].value(e.id).display.c_str(),
    };
    const char* want[3] = {e.lanl, e.tracefs, e.partrace};
    for (int i = 0; i < 3; ++i) {
      if (std::string(got[i]) != want[i]) {
        std::printf("MISMATCH %s / %s: got '%s', paper '%s'\n",
                    classifications[static_cast<std::size_t>(i)]
                        .framework_name.c_str(),
                    taxonomy::feature_name(e.id), got[i], want[i]);
        ++mismatches;
      }
    }
  }
  std::printf("\nQualitative cells matching the paper's Table 2: %zu/%zu\n",
              expected.size() * 3 - mismatches, expected.size() * 3);
  std::printf(
      "Quantitative rows (replay fidelity, elapsed overhead) are measured\n"
      "on scaled workloads; bench_anchor_overheads prints the §4.1.2\n"
      "overhead anchors paper-vs-measured.\n");
  return mismatches == 0 ? 0 : 1;
}
