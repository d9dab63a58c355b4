#include "trace/bundle.h"

#include <algorithm>
#include <filesystem>
#include <fstream>
#include <limits>
#include <optional>
#include <sstream>

#include "trace/text_format.h"
#include "util/error.h"
#include "util/strings.h"

namespace iotaxo::trace {

namespace fsys = std::filesystem;

long long TraceBundle::total_events() const noexcept {
  long long n = 0;
  for (const auto& [name, entry] : call_summary) {
    n += entry.count;
  }
  return n;
}

RankStream& RankStreamSink::stream(int rank) {
  RankStream& rs = streams_[rank];
  rs.rank = rank;
  return rs;
}

void RankStreamSink::on_event(const TraceEvent& ev) {
  RankStream& rs = stream(ev.rank);
  rs.host = ev.host;
  rs.pid = ev.pid;
  rs.events.push_back(ev);
}

void RankStreamSink::on_batch(const EventBatch& batch) {
  for (std::size_t i = 0; i < batch.size();) {
    const int rank = batch.record(i).rank;
    RankStream& rs = stream(rank);
    for (; i < batch.size() && batch.record(i).rank == rank; ++i) {
      rs.events.push_back(batch.materialize(i));
    }
    rs.host = rs.events.back().host;
    rs.pid = rs.events.back().pid;
  }
}

std::vector<RankStream> RankStreamSink::take() {
  std::vector<RankStream> out;
  out.reserve(streams_.size());
  for (auto& [rank, rs] : streams_) {
    out.push_back(std::move(rs));
  }
  streams_.clear();
  return out;
}

void BarrierSink::on_event(const TraceEvent& ev) {
  if (ev.name == "MPI_Barrier") {
    events_.push_back(ev);
  }
}

void BarrierSink::on_batch(const EventBatch& batch) {
  const std::optional<StrId> barrier = batch.pool().find("MPI_Barrier");
  if (!barrier.has_value()) {
    return;
  }
  for (std::size_t i = 0; i < batch.size(); ++i) {
    if (batch.record(i).name == *barrier) {
      events_.push_back(batch.materialize(i));
    }
  }
}

void TraceBundle::merge_summary(const SummarySink& sink) {
  for (const auto& [name, entry] : sink.entries()) {
    auto& dst = call_summary[name];
    dst.count += entry.count;
    dst.total_duration += entry.total_duration;
  }
}

namespace {

void write_file(const fsys::path& path, const std::string& content) {
  std::ofstream out(path, std::ios::binary);
  if (!out) {
    throw IoError("cannot write " + path.string());
  }
  out << content;
}

std::string read_file(const fsys::path& path) {
  std::ifstream in(path, std::ios::binary);
  if (!in) {
    throw IoError("cannot read " + path.string());
  }
  std::ostringstream ss;
  ss << in.rdbuf();
  return ss.str();
}

}  // namespace

void TraceBundle::save(const std::string& directory) const {
  const fsys::path dir(directory);
  fsys::create_directories(dir);

  {
    std::string meta;
    for (const auto& [k, v] : metadata) {
      meta += k + "\t" + v + "\n";
    }
    write_file(dir / "metadata.tsv", meta);
  }
  for (const RankStream& rs : ranks) {
    TextTraceWriter::StreamMeta m{rs.host, rs.rank, rs.pid};
    write_file(dir / strprintf("rank_%04d.trace", rs.rank),
               TextTraceWriter::render(m, rs.events));
  }
  if (!clock_probes.empty()) {
    TextTraceWriter::StreamMeta m{"(probes)", -1, 0};
    write_file(dir / "clock_probes.trace",
               TextTraceWriter::render(m, clock_probes));
  }
  if (!barrier_events.empty()) {
    TextTraceWriter::StreamMeta m{"(barriers)", -1, 0};
    write_file(dir / "barriers.trace",
               TextTraceWriter::render(m, barrier_events));
  }
  {
    std::string sum = "name\tcount\ttotal_ns\n";
    for (const auto& [name, entry] : call_summary) {
      sum += strprintf("%s\t%lld\t%lld\n", name.c_str(), entry.count,
                       static_cast<long long>(entry.total_duration));
    }
    write_file(dir / "call_summary.tsv", sum);
  }
  if (!dependencies.empty()) {
    std::string deps = "from\tto\tvia\n";
    for (const DependencyEdge& e : dependencies) {
      deps += strprintf("%d\t%d\t%s\n", e.from_rank, e.to_rank, e.via.c_str());
    }
    write_file(dir / "dependencies.tsv", deps);
  }
}

TraceBundle TraceBundle::load(const std::string& directory) {
  const fsys::path dir(directory);
  if (!fsys::is_directory(dir)) {
    throw IoError("trace bundle directory missing: " + directory);
  }
  TraceBundle b;

  const fsys::path meta = dir / "metadata.tsv";
  if (fsys::exists(meta)) {
    for (const std::string& line : split(read_file(meta), '\n')) {
      if (line.empty()) {
        continue;
      }
      const auto kv = split(line, '\t');
      if (kv.size() >= 2) {
        b.metadata[kv[0]] = kv[1];
      }
    }
  }

  std::vector<fsys::path> rank_files;
  for (const auto& entry : fsys::directory_iterator(dir)) {
    const std::string name = entry.path().filename().string();
    if (starts_with(name, "rank_") && ends_with(name, ".trace")) {
      rank_files.push_back(entry.path());
    }
  }
  std::sort(rank_files.begin(), rank_files.end());
  for (const fsys::path& p : rank_files) {
    const auto parsed = TextTraceParser::parse(read_file(p));
    RankStream rs;
    rs.rank = parsed.meta.rank;
    rs.host = parsed.meta.host;
    rs.pid = parsed.meta.pid;
    rs.events = parsed.events;
    b.ranks.push_back(std::move(rs));
  }

  const fsys::path probes = dir / "clock_probes.trace";
  if (fsys::exists(probes)) {
    b.clock_probes = TextTraceParser::parse(read_file(probes)).events;
  }
  const fsys::path barriers = dir / "barriers.trace";
  if (fsys::exists(barriers)) {
    b.barrier_events = TextTraceParser::parse(read_file(barriers)).events;
  }

  const fsys::path summary = dir / "call_summary.tsv";
  if (fsys::exists(summary)) {
    bool first = true;
    for (const std::string& line : split(read_file(summary), '\n')) {
      if (line.empty() || first) {
        first = false;
        continue;
      }
      const auto cols = split(line, '\t');
      const std::optional<long long> count =
          cols.size() >= 3 ? parse_decimal(cols[1]) : std::nullopt;
      const std::optional<long long> total =
          cols.size() >= 3 ? parse_decimal(cols[2]) : std::nullopt;
      if (!count.has_value() || !total.has_value()) {
        throw FormatError("call_summary.tsv: bad row: " + line);
      }
      auto& e = b.call_summary[cols[0]];
      e.count = *count;
      e.total_duration = *total;
    }
  }

  const fsys::path deps = dir / "dependencies.tsv";
  if (fsys::exists(deps)) {
    bool first = true;
    for (const std::string& line : split(read_file(deps), '\n')) {
      if (line.empty() || first) {
        first = false;
        continue;
      }
      const auto cols = split(line, '\t');
      const auto rank = [&](std::size_t i) -> std::optional<int> {
        const std::optional<long long> v =
            cols.size() >= 3 ? parse_decimal(cols[i]) : std::nullopt;
        if (!v.has_value() || *v < std::numeric_limits<int>::min() ||
            *v > std::numeric_limits<int>::max()) {
          return std::nullopt;
        }
        return static_cast<int>(*v);
      };
      const std::optional<int> from = rank(0);
      const std::optional<int> to = rank(1);
      if (!from.has_value() || !to.has_value()) {
        throw FormatError("dependencies.tsv: bad row: " + line);
      }
      b.dependencies.push_back(DependencyEdge{*from, *to, cols[2]});
    }
  }
  return b;
}

}  // namespace iotaxo::trace
