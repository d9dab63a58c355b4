#include "analysis/dfg/dfg.h"

#include <algorithm>

namespace iotaxo::analysis::dfg {

namespace {

/// One rank's contribution to a partial, keyed by *pool-local* string ids:
/// built in isolation (so pools can run in parallel), remapped to
/// merge-global ids by DfgMerge::merge. first/last are kept regardless of
/// keep_sequences — the merge stitches them across partial boundaries.
struct RankPartial {
  bool any = false;
  SeqEvent first;
  SeqEvent last;
  std::map<trace::StrId, NodeStats> nodes;
  std::map<EdgeKey, EdgeStats> edges;
  std::vector<SeqEvent> sequence;
};

/// Fold edge stats `from` into `into`.
void merge_edge(EdgeStats& into, const EdgeStats& from) {
  if (from.count == 0) {
    return;
  }
  if (into.count == 0) {
    into.gap_min = from.gap_min;
    into.gap_max = from.gap_max;
  } else {
    into.gap_min = std::min(into.gap_min, from.gap_min);
    into.gap_max = std::max(into.gap_max, from.gap_max);
  }
  into.count += from.count;
  into.bytes += from.bytes;
  into.gap_sum += from.gap_sum;
}

/// Fold one directly-follows transition into an edge: the single place a
/// transition turns into stats, inside a partial and across the
/// boundaries DfgMerge stitches between partials.
void add_transition(EdgeStats& edge, SimTime gap, Bytes bytes) {
  merge_edge(edge, EdgeStats{1, bytes, gap, gap, gap});
}

}  // namespace

struct DfgMerge::PoolPartial {
  std::size_t pool = 0;
  std::map<int, RankPartial> ranks;
};

/// Re-key the graph onto ids assigned in sorted-name order. Merge-time ids
/// are handed out first-seen, which depends on how records are split into
/// pools (or, for the live maintainer, filed ranges); sorting detaches the
/// table from intern order so graphs mined from the same events are
/// identical (==) across ingest splits, view vs owned sources, compact(),
/// and live vs cold builds.
void canonicalize(Dfg& dfg) {
  std::vector<trace::StrId> order(dfg.names.size());
  for (trace::StrId id = 0; id < order.size(); ++id) {
    order[id] = id;
  }
  // Id 0 stays the empty string; everything else sorts by name.
  std::sort(order.begin() + 1, order.end(),
            [&](trace::StrId a, trace::StrId b) {
              return dfg.names[a] < dfg.names[b];
            });
  std::vector<trace::StrId> remap(dfg.names.size(), 0);
  std::vector<std::string> sorted_names(dfg.names.size());
  for (trace::StrId pos = 0; pos < order.size(); ++pos) {
    remap[order[pos]] = pos;
    sorted_names[pos] = std::move(dfg.names[order[pos]]);
  }
  dfg.names = std::move(sorted_names);
  for (RankDfg& graph : dfg.ranks) {
    std::map<trace::StrId, NodeStats> nodes;
    for (const auto& [id, stats] : graph.nodes) {
      nodes.emplace(remap[id], stats);
    }
    graph.nodes = std::move(nodes);
    std::map<EdgeKey, EdgeStats> edges;
    for (const auto& [key, stats] : graph.edges) {
      edges.emplace(EdgeKey{remap[key.first], remap[key.second]}, stats);
    }
    graph.edges = std::move(edges);
    for (SeqEvent& ev : graph.sequence) {
      ev.name = remap[ev.name];
    }
  }
}

void DfgMerge::mine(const UnifiedTraceStore& store, const DfgOptions& options,
                    const std::optional<ScanRange>& range) {
  // Every event the miner keeps is an I/O call, so segments whose index
  // says "no I/O call" stay undecoded, and it reads cls/name/rank/start/
  // duration/bytes — exactly the hot column group.
  ScanPredicate pred;
  pred.io_call = true;
  const auto chunks = store.scan_pools(
      pred, options.threads, std::vector<PoolPartial>{},
      [&](auto& partials, std::size_t pool, const auto&, auto&& segments) {
        PoolPartial& partial = partials.emplace_back();
        partial.pool = pool;
        segments([&](const auto& s) {
          s.for_each([&](const auto& rec) {
            if (!rec.is_io_call() || rec.rank() < 0) {
              return;  // probes, annotations, rank-less bookkeeping
            }
            if (options.rank.has_value() && rec.rank() != *options.rank) {
              return;
            }
            SeqEvent ev;
            ev.name = rec.name();  // pool-local id; merge() remaps it
            ev.start = rec.local_start();
            ev.end = rec.local_start() + rec.duration();
            ev.bytes = rec.bytes() > 0 ? rec.bytes() : 0;
            RankPartial& rp = partial.ranks[rec.rank()];
            NodeStats& node = rp.nodes[ev.name];
            ++node.count;
            node.total_duration += rec.duration();
            node.bytes += ev.bytes;
            if (rp.any) {
              add_transition(rp.edges[{rp.last.name, ev.name}],
                             ev.start - rp.last.end, ev.bytes);
            } else {
              rp.first = ev;
              rp.any = true;
            }
            rp.last = ev;
            if (options.keep_sequences) {
              rp.sequence.push_back(ev);
            }
          });
        });
      },
      range);
  for (const auto& partials : chunks) {
    for (const PoolPartial& partial : partials) {
      merge(store, partial);
    }
  }
}

void DfgMerge::merge(const UnifiedTraceStore& store,
                     const PoolPartial& partial) {
  store.with_pool_access(partial.pool, [&](const auto& acc) {
    // Pool-local -> merge-global ids, interned first-seen in merge order,
    // so the table — like the graphs — does not depend on how the
    // partials were built or chunked.
    std::vector<trace::StrId> remap(acc.string_count(), 0);
    for (const auto& [rank, rp] : partial.ranks) {
      if (!rp.any) {
        continue;
      }
      RankDfg& graph = ranks_[rank];
      graph.rank = rank;
      for (const auto& [local, stats] : rp.nodes) {
        if (remap[local] == 0) {
          remap[local] = names_.intern(acc.string(local));
        }
        NodeStats& node = graph.nodes[remap[local]];
        node.count += stats.count;
        node.total_duration += stats.total_duration;
        node.bytes += stats.bytes;
      }
      for (const auto& [key, stats] : rp.edges) {
        merge_edge(graph.edges[{remap[key.first], remap[key.second]}],
                   stats);
      }
      // Stitch the boundary: the rank's previous tail directly precedes
      // this partial's head, exactly as one concatenated partial would
      // count it.
      const auto carried = last_by_rank_.find(rank);
      if (carried != last_by_rank_.end()) {
        add_transition(
            graph.edges[{carried->second.name, remap[rp.first.name]}],
            rp.first.start - carried->second.end, rp.first.bytes);
      }
      SeqEvent tail = rp.last;
      tail.name = remap[tail.name];
      last_by_rank_[rank] = tail;
      graph.sequence.reserve(graph.sequence.size() + rp.sequence.size());
      for (SeqEvent ev : rp.sequence) {
        ev.name = remap[ev.name];
        graph.sequence.push_back(ev);
      }
    }
  });
}

Dfg DfgMerge::graph() && {
  Dfg out;
  out.names.reserve(names_.size());
  for (trace::StrId id = 0; id < names_.size(); ++id) {
    out.names.emplace_back(names_.view(id));
  }
  out.ranks.reserve(ranks_.size());
  for (auto& [rank, graph] : ranks_) {
    out.ranks.push_back(std::move(graph));
  }
  canonicalize(out);
  return out;
}

long long DfgMerge::events() const noexcept {
  long long total = 0;
  for (const auto& [rank, graph] : ranks_) {
    for (const auto& [id, stats] : graph.nodes) {
      total += stats.count;
    }
  }
  return total;
}

Dfg DfgBuilder::build(const DfgOptions& options) const {
  DfgMerge merge;
  merge.mine(*store_, options);
  return std::move(merge).graph();
}

}  // namespace iotaxo::analysis::dfg
