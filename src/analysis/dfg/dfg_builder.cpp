#include "analysis/dfg/dfg.h"

#include <algorithm>
#include <array>

namespace iotaxo::analysis::dfg {

namespace {

/// One edge's transitions, keyed by the partial's name slots. `duration`
/// sums the destination events' durations, so the merge can rebuild node
/// stats from the edges.
struct EdgeTally {
  EdgeKey key;
  EdgeStats stats;
  SimTime duration = 0;
};

/// One rank's contribution to a pool partial, in the partial's name slots:
/// built in isolation (so pools can run in parallel), remapped to
/// merge-global ids by DfgMerge::merge. Node stats are not kept: a node's
/// tally is its in-edges plus the partial's first event. first/last are
/// kept regardless of keep_sequences — the merge stitches them across
/// partial boundaries.
struct RankPartial {
  int rank = 0;
  SeqEvent first;
  SimTime first_duration = 0;
  SeqEvent last;
  std::vector<EdgeTally> edges;
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

/// Cache line hashes for SlotIndex (multiplicative: nearby ids spread).
[[nodiscard]] std::size_t line_of(trace::StrId id) noexcept {
  return (id * 0x9E3779B9u) >> 24;
}

[[nodiscard]] std::size_t line_of(const EdgeKey& key) noexcept {
  return ((key.first * 0x9E3779B9u) ^ (key.second * 0x85EBCA6Bu)) >> 24;
}

/// An ordered map from Key to a dense index, fronted by a direct-mapped
/// cache of recent lookups. Lookups of the few keys a pool repeats (call
/// names, a rank's loop of transitions) hit the cache; everything else
/// costs one map search, so memory grows with distinct keys only.
template <class Key, std::size_t kLines>
class SlotIndex {
 public:
  /// The key's index; a key seen for the first time gets the next one.
  [[nodiscard]] std::uint32_t find_or_add(const Key& key) {
    Line& line = lines_[line_of(key) % kLines];
    if (line.index == 0 || !(line.key == key)) {
      const auto next = static_cast<std::uint32_t>(index_.size());
      line.key = key;
      line.index = index_.try_emplace(key, next).first->second + 1;
    }
    return line.index - 1;
  }
  void clear() {
    index_.clear();
    lines_.fill(Line{});
  }

 private:
  struct Line {
    Key key{};
    std::uint32_t index = 0;  // 1 + the key's index; 0 = empty
  };
  std::array<Line, kLines> lines_{};
  std::map<Key, std::uint32_t> index_;
};

}  // namespace

struct DfgMerge::PoolPartial {
  std::size_t pool = 0;
  /// Slot -> pool-local string id, in first-seen order.
  std::vector<trace::StrId> names;
  std::vector<RankPartial> ranks;
};

/// A chunk's mining scratch, reused across its pools: call names get dense
/// slots in first-seen order, ranks reach their state through a flat rank
/// table, and each rank's edges are found by slot pair. finish_pool()
/// moves the pool's graphs out into `partials` and clears the rest.
class DfgMerge::PoolMiner {
 public:
  std::vector<PoolPartial> partials;

  void add(std::int32_t rank, trace::StrId name, SimTime start,
           SimTime duration, Bytes bytes, bool keep_sequence) {
    const std::uint32_t slot = names_.find_or_add(name);
    if (slot == slot_names_.size()) {
      slot_names_.push_back(name);
    }
    const SeqEvent ev{slot, start, start + duration, bytes > 0 ? bytes : 0};
    std::uint32_t& state = rank_state_[rank];
    if (state == 0) {
      state = open_rank(rank, ev, duration);
    } else {
      RankState& rs = states_[state - 1];
      RankPartial& graph = rs.graph;
      const EdgeKey key{graph.last.name, slot};
      const SimTime gap = ev.start - graph.last.end;
      const std::uint32_t e = rs.edge_index.find_or_add(key);
      if (e == graph.edges.size()) {
        graph.edges.push_back({key, {1, ev.bytes, gap, gap, gap}, duration});
      } else {
        EdgeTally& edge = graph.edges[e];
        add_transition(edge.stats, gap, ev.bytes);
        edge.duration += duration;
      }
      graph.last = ev;
    }
    if (keep_sequence) {
      states_[state - 1].graph.sequence.push_back(ev);
    }
  }

  void finish_pool(std::size_t pool) {
    if (open_ == 0) {
      return;  // nothing kept: no partial, and no scratch to clear
    }
    PoolPartial& out = partials.emplace_back();
    out.pool = pool;
    out.names = std::move(slot_names_);
    out.ranks.reserve(open_);
    for (std::size_t i = 0; i < open_; ++i) {
      out.ranks.push_back(std::move(states_[i].graph));
    }
    slot_names_.clear();
    names_.clear();
    rank_state_.clear();
    open_ = 0;
  }

 private:
  struct RankState {
    RankPartial graph;
    SlotIndex<EdgeKey, 16> edge_index;
  };

  /// Claim the next rank state for `rank`'s first event, reusing one an
  /// earlier pool left; returns 1 + its index.
  std::uint32_t open_rank(std::int32_t rank, const SeqEvent& first,
                          SimTime duration) {
    if (open_ == states_.size()) {
      states_.emplace_back();
    }
    RankState& rs = states_[open_];
    rs.graph.rank = rank;
    rs.graph.first = first;
    rs.graph.first_duration = duration;
    rs.graph.last = first;
    rs.graph.edges.clear();
    rs.graph.sequence.clear();
    rs.edge_index.clear();
    return static_cast<std::uint32_t>(++open_);
  }

  IntKeyTable<std::uint32_t> rank_state_;  // rank -> 1 + index in states_
  std::vector<RankState> states_;
  std::size_t open_ = 0;  // states_ in use by the current pool
  SlotIndex<trace::StrId, 64> names_;
  std::vector<trace::StrId> slot_names_;
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
  const std::optional<int> only_rank = options.rank;
  const bool keep_sequences = options.keep_sequences;
  const auto chunks = store.scan_pools(
      pred, options.threads, PoolMiner{},
      [&](PoolMiner& miner, std::size_t pool, const auto&, auto&& segments) {
        segments([&](const auto& s) {
          s.for_each([&](const auto& rec) {
            const std::int32_t rank = rec.rank();
            if (!rec.is_io_call() || rank < 0) {
              return;  // probes, annotations, rank-less bookkeeping
            }
            if (only_rank.has_value() && rank != *only_rank) {
              return;
            }
            miner.add(rank, rec.name(), rec.local_start(), rec.duration(),
                      rec.bytes(), keep_sequences);
          });
        });
        miner.finish_pool(pool);
      },
      range.has_value() ? &*range : nullptr);
  for (const PoolMiner& miner : chunks) {
    for (const PoolPartial& partial : miner.partials) {
      merge(store, partial);
    }
  }
}

void DfgMerge::merge(const UnifiedTraceStore& store,
                     const PoolPartial& partial) {
  store.with_pool_access(partial.pool, [&](const auto& acc) {
    // Partial slots -> merge-global ids, interned first-seen in merge
    // order, so the table — like the graphs — does not depend on how the
    // partials were built or chunked.
    std::vector<trace::StrId> remap;
    remap.reserve(partial.names.size());
    for (const trace::StrId local : partial.names) {
      remap.push_back(names_.intern(acc.string(local)));
    }
    for (const RankPartial& rp : partial.ranks) {
      RankDfg& graph = ranks_[rp.rank];
      graph.rank = rp.rank;
      NodeStats& head = graph.nodes[remap[rp.first.name]];
      ++head.count;
      head.total_duration += rp.first_duration;
      head.bytes += rp.first.bytes;
      for (const EdgeTally& edge : rp.edges) {
        const EdgeKey key{remap[edge.key.first], remap[edge.key.second]};
        merge_edge(graph.edges[key], edge.stats);
        NodeStats& node = graph.nodes[key.second];
        node.count += edge.stats.count;
        node.total_duration += edge.duration;
        node.bytes += edge.stats.bytes;
      }
      // Stitch the boundary: the rank's previous tail directly precedes
      // this partial's head, exactly as one concatenated partial would
      // count it.
      const auto carried = last_by_rank_.find(rp.rank);
      if (carried != last_by_rank_.end()) {
        add_transition(
            graph.edges[{carried->second.name, remap[rp.first.name]}],
            rp.first.start - carried->second.end, rp.first.bytes);
      }
      SeqEvent tail = rp.last;
      tail.name = remap[tail.name];
      last_by_rank_[rp.rank] = tail;
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
