#include "analysis/dfg/live_dfg.h"

#include "util/metrics.h"

namespace iotaxo::analysis::dfg {

LiveDfg::LiveDfg(UnifiedTraceStore& store, const LiveDfgOptions& options)
    : store_(&store),
      // The fold runs inside the ingest call, once per flush: serial, so a
      // flush never spins up workers.
      options_(DfgOptions{1, options.rank, options.keep_sequences}) {
  // Catch up on everything already filed: the same pass and merge a cold
  // build runs, over every pool in store order.
  merge_.mine(store, options_);
  store.set_ingest_listener([this](std::size_t pool, std::size_t begin,
                                   std::size_t end) {
    on_records(pool, begin, end);
  });
}

LiveDfg::~LiveDfg() { store_->set_ingest_listener({}); }

void LiveDfg::on_records(std::size_t pool, std::size_t begin,
                         std::size_t end) {
  static obs::Counter& merges = obs::counter("dfg.incremental_merges");
  const std::lock_guard<std::mutex> lock(mu_);
  merge_.mine(*store_, options_, ScanRange{pool, begin, end});
  merges.add(1);
}

Dfg LiveDfg::snapshot() const {
  const std::lock_guard<std::mutex> lock(mu_);
  return DfgMerge(merge_).graph();
}

long long LiveDfg::events_folded() const {
  const std::lock_guard<std::mutex> lock(mu_);
  return merge_.events();
}

std::unique_ptr<LiveDfg> set_live_dfg(UnifiedTraceStore& store,
                                      const LiveDfgOptions& options) {
  return std::make_unique<LiveDfg>(store, options);
}

}  // namespace iotaxo::analysis::dfg
