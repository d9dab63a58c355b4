#include "replay/pseudo_app.h"

#include <algorithm>
#include <map>
#include <set>
#include <span>
#include <string_view>

#include "util/error.h"
#include "util/rng.h"
#include "util/strings.h"

namespace iotaxo::replay {

using mpi::Api;
using mpi::Op;
using mpi::OpType;
using mpi::Program;
using trace::EventClass;
using trace::TraceEvent;

namespace {

/// A borrowed, allocation-free view of one trace event: the generator core
/// reads through this so per-event TraceEvents (bundle path) and interned
/// EventBatch records (batched path) drive identical code.
struct EventView {
  EventClass cls = EventClass::kSyscall;
  std::string_view name;
  std::string_view path;
  long long ret = 0;
  SimTime local_start = 0;
  SimTime duration = 0;
  int fd = -1;
  Bytes bytes = 0;
  Bytes offset = -1;
  // Args live in a TraceEvent's string vector or in a batch pool.
  const std::vector<std::string>* arg_strs = nullptr;
  std::span<const trace::StrId> arg_ids{};
  const trace::StringPool* pool = nullptr;

  [[nodiscard]] std::size_t arg_count() const noexcept {
    return arg_strs != nullptr ? arg_strs->size() : arg_ids.size();
  }
  [[nodiscard]] std::string_view arg(std::size_t j) const {
    return arg_strs != nullptr ? std::string_view((*arg_strs)[j])
                               : pool->view(arg_ids[j]);
  }
};

[[nodiscard]] EventView view_of(const TraceEvent& ev) {
  EventView v;
  v.cls = ev.cls;
  v.name = ev.name;
  v.path = ev.path;
  v.ret = ev.ret;
  v.local_start = ev.local_start;
  v.duration = ev.duration;
  v.fd = ev.fd;
  v.bytes = ev.bytes;
  v.offset = ev.offset;
  v.arg_strs = &ev.args;
  return v;
}

[[nodiscard]] EventView view_of(const trace::EventBatch& batch,
                                std::size_t i) {
  const trace::EventRecord& rec = batch.record(i);
  EventView v;
  v.cls = rec.cls;
  v.name = batch.name(i);
  v.path = batch.path(i);
  v.ret = rec.ret;
  v.local_start = rec.local_start;
  v.duration = rec.duration;
  v.fd = rec.fd;
  v.bytes = rec.bytes;
  v.offset = rec.offset;
  v.arg_ids = batch.args(i);
  v.pool = &batch.pool();
  return v;
}

[[nodiscard]] bool is_library_driven(const std::vector<EventView>& events) {
  for (const EventView& ev : events) {
    if (ev.cls == EventClass::kLibraryCall) {
      return true;
    }
  }
  return false;
}

[[nodiscard]] fs::OpenMode mode_from_view(const EventView& ev) {
  // MPI open modes are symbolic; POSIX open flags were rendered numerically
  // with 577 == O_WRONLY|O_CREAT|O_TRUNC.
  for (std::size_t j = 0; j < ev.arg_count(); ++j) {
    const std::string_view a = ev.arg(j);
    if (a.find("MPI_MODE_CREATE") != std::string_view::npos || a == "577") {
      return fs::OpenMode::write_create();
    }
  }
  return fs::OpenMode::read_only();
}

[[nodiscard]] int tag_for_label(const std::string& label) {
  return static_cast<int>(fnv1a(label) & 0x7FFFFFFFu);
}

/// Pre-scan: decide the access hint per file descriptor from the gap
/// structure of its write/read offsets.
[[nodiscard]] std::map<int, fs::AccessHint> infer_hints(
    const std::vector<EventView>& events, bool lib_driven) {
  std::map<int, Bytes> last_end;
  std::map<int, fs::AccessHint> hints;
  for (const EventView& ev : events) {
    const bool relevant =
        lib_driven ? ev.cls == EventClass::kLibraryCall
                   : ev.cls == EventClass::kSyscall;
    if (!relevant || ev.offset < 0 || ev.bytes <= 0) {
      continue;
    }
    if (ev.name != "SYS_write" && ev.name != "SYS_read" &&
        ev.name != "MPI_File_write_at" && ev.name != "MPI_File_read_at" &&
        ev.name != "write" && ev.name != "read") {
      continue;
    }
    const auto it = last_end.find(ev.fd);
    if (it != last_end.end() && ev.offset != it->second) {
      hints[ev.fd] = fs::AccessHint::kStrided;
    } else if (!hints.contains(ev.fd)) {
      hints[ev.fd] = fs::AccessHint::kSequential;
    }
    last_end[ev.fd] = ev.offset + ev.bytes;
  }
  return hints;
}

/// Generate one rank's program from its event views (shared core of the
/// bundle and batch entry points).
[[nodiscard]] Program generate_rank_program(
    int rank, const std::vector<EventView>& events,
    const std::map<std::string, std::vector<trace::DependencyEdge>>&
        deps_by_label,
    const PseudoAppOptions& options) {
  const bool lib_driven = is_library_driven(events);
  const auto hints = infer_hints(events, lib_driven);
  Program prog;

  std::map<int, int> fd_to_slot;
  int next_slot = 0;
  SimTime prev_end = -1;

  auto add_gap = [&](SimTime start) {
    if (prev_end >= 0 && start > prev_end) {
      const SimTime gap = start - prev_end;
      if (gap >= options.min_gap && options.gap_quantum > 0) {
        Op op;
        op.type = OpType::kCompute;
        op.duration = (gap / options.gap_quantum) * options.gap_quantum;
        if (op.duration > 0) {
          prog.push_back(std::move(op));
        }
      }
    }
  };

  for (const EventView& ev : events) {
    const bool relevant = lib_driven
                              ? ev.cls == EventClass::kLibraryCall
                              : ev.cls == EventClass::kSyscall;
    if (!relevant) {
      continue;
    }
    const std::string_view n = ev.name;

    if (n == "MPI_Barrier") {
      add_gap(ev.local_start);
      const std::string label(ev.path);
      if (options.sync == SyncStrategy::kBarriers) {
        Op op;
        op.type = OpType::kBarrier;
        op.label = label;
        prog.push_back(std::move(op));
      } else if (options.sync == SyncStrategy::kDependencies) {
        const auto it = deps_by_label.find(label);
        if (it != deps_by_label.end()) {
          // Sends first (non-blocking), then receives.
          for (const trace::DependencyEdge& e : it->second) {
            if (e.from_rank == rank) {
              Op op;
              op.type = OpType::kSend;
              op.peer = e.to_rank;
              op.msg_bytes = 8;
              op.tag = tag_for_label(label);
              prog.push_back(std::move(op));
            }
          }
          for (const trace::DependencyEdge& e : it->second) {
            if (e.to_rank == rank) {
              Op op;
              op.type = OpType::kRecv;
              op.peer = e.from_rank;
              op.tag = tag_for_label(label);
              prog.push_back(std::move(op));
            }
          }
        }
      }
      prev_end = ev.local_start + ev.duration;
      continue;
    }

    if (n == "MPI_File_open" || n == "open" || n == "SYS_open") {
      add_gap(ev.local_start);
      const int slot = next_slot++;
      fd_to_slot[static_cast<int>(ev.ret)] = slot;
      Op op;
      op.type = OpType::kOpen;
      op.slot = slot;
      op.path = std::string(ev.path);
      op.mode = mode_from_view(ev);
      const auto hint_it = hints.find(static_cast<int>(ev.ret));
      op.hint = hint_it == hints.end() ? fs::AccessHint::kSequential
                                       : hint_it->second;
      op.api = n == "MPI_File_open" ? Api::kMpiIo : Api::kPosix;
      prog.push_back(std::move(op));
      prev_end = ev.local_start + ev.duration;
      continue;
    }

    if (n == "MPI_File_close" || n == "close" || n == "SYS_close") {
      const auto it = fd_to_slot.find(ev.fd);
      if (it == fd_to_slot.end()) {
        continue;  // close of an fd we never saw opened (e.g. /etc files)
      }
      add_gap(ev.local_start);
      Op op;
      op.type = OpType::kClose;
      op.slot = it->second;
      op.api = n == "MPI_File_close" ? Api::kMpiIo : Api::kPosix;
      prog.push_back(std::move(op));
      fd_to_slot.erase(it);
      prev_end = ev.local_start + ev.duration;
      continue;
    }

    const bool is_write =
        n == "MPI_File_write_at" || n == "write" || n == "SYS_write";
    const bool is_read =
        n == "MPI_File_read_at" || n == "read" || n == "SYS_read";
    if (is_write || is_read) {
      const auto it = fd_to_slot.find(ev.fd);
      if (it == fd_to_slot.end() || ev.bytes <= 0) {
        continue;
      }
      add_gap(ev.local_start);
      Op op;
      op.type = is_write ? OpType::kWriteBlocks : OpType::kReadBlocks;
      op.slot = it->second;
      op.block = ev.bytes;
      op.count = 1;
      op.start_offset = ev.offset >= 0 ? ev.offset : -1;
      op.api = n.starts_with("MPI_") ? Api::kMpiIo : Api::kPosix;
      const auto hint_it = hints.find(ev.fd);
      op.hint = hint_it == hints.end() ? fs::AccessHint::kSequential
                                       : hint_it->second;
      prog.push_back(std::move(op));
      prev_end = ev.local_start + ev.duration;
      continue;
    }

    if (n == "SYS_stat" || n == "stat") {
      add_gap(ev.local_start);
      Op op;
      op.type = OpType::kStat;
      op.path = std::string(ev.path);
      op.api = Api::kPosix;
      prog.push_back(std::move(op));
      prev_end = ev.local_start + ev.duration;
      continue;
    }
    if (n == "SYS_unlink" || n == "unlink") {
      add_gap(ev.local_start);
      Op op;
      op.type = OpType::kUnlink;
      op.path = std::string(ev.path);
      op.api = Api::kPosix;
      prog.push_back(std::move(op));
      prev_end = ev.local_start + ev.duration;
      continue;
    }
    if (n == "SYS_mkdir" || n == "mkdir") {
      add_gap(ev.local_start);
      Op op;
      op.type = OpType::kMkdir;
      op.path = std::string(ev.path);
      op.api = Api::kPosix;
      prog.push_back(std::move(op));
      prev_end = ev.local_start + ev.duration;
      continue;
    }
    // lseek/fcntl/statfs ride along implicitly with their parent ops.
  }

  // Close any slots the trace left dangling so replays are well formed.
  for (const auto& [fd, slot] : fd_to_slot) {
    Op op;
    op.type = OpType::kClose;
    op.slot = slot;
    op.api = Api::kPosix;
    prog.push_back(std::move(op));
  }
  if (options.coalesce) {
    prog = coalesce_program(prog);
  }
  if (options.per_op_overhead > 0) {
    // One bookkeeping charge per replayed op (a coalesced batch counts
    // once: the replayer walks a compact run-length record for it).
    mpi::Program with_overhead;
    with_overhead.reserve(prog.size() * 2);
    for (Op& op : prog) {
      if (op.type == OpType::kWriteBlocks ||
          op.type == OpType::kReadBlocks || op.type == OpType::kOpen) {
        Op pause;
        pause.type = OpType::kCompute;
        pause.duration = options.per_op_overhead;
        with_overhead.push_back(std::move(pause));
      }
      with_overhead.push_back(std::move(op));
    }
    prog = std::move(with_overhead);
  }
  return prog;
}

[[nodiscard]] std::map<std::string, std::vector<trace::DependencyEdge>>
index_dependencies(const std::vector<trace::DependencyEdge>& dependencies) {
  std::map<std::string, std::vector<trace::DependencyEdge>> deps_by_label;
  for (const trace::DependencyEdge& e : dependencies) {
    deps_by_label[e.via].push_back(e);
  }
  return deps_by_label;
}

}  // namespace

std::vector<Program> generate_pseudo_app(const trace::TraceBundle& bundle,
                                         const PseudoAppOptions& options) {
  if (!bundle.has_raw_streams()) {
    throw FormatError(
        "pseudo-app generation requires raw rank streams in the bundle");
  }
  const auto deps_by_label = index_dependencies(bundle.dependencies);

  std::vector<Program> programs;
  programs.reserve(bundle.ranks.size());
  std::vector<EventView> views;
  for (const trace::RankStream& rs : bundle.ranks) {
    views.clear();
    views.reserve(rs.events.size());
    for (const TraceEvent& ev : rs.events) {
      views.push_back(view_of(ev));
    }
    programs.push_back(
        generate_rank_program(rs.rank, views, deps_by_label, options));
  }
  return programs;
}

std::vector<Program> generate_pseudo_app(
    const trace::EventBatch& batch,
    const std::vector<trace::DependencyEdge>& dependencies,
    const PseudoAppOptions& options) {
  if (batch.empty()) {
    throw FormatError("pseudo-app generation requires a non-empty batch");
  }
  const auto deps_by_label = index_dependencies(dependencies);

  // Group record indices by rank (ranks ascend, within-rank order kept).
  // Records without a rank identity (rank < 0: probes, annotations that
  // reached the sink) cannot form a program — the bundle path never sees
  // them as a rank stream either — so they are dropped, not replayed as a
  // phantom rank.
  std::map<int, std::vector<std::size_t>> by_rank;
  for (std::size_t i = 0; i < batch.size(); ++i) {
    if (batch.record(i).rank >= 0) {
      by_rank[batch.record(i).rank].push_back(i);
    }
  }
  if (by_rank.empty()) {
    throw FormatError("pseudo-app generation: batch has no ranked events");
  }

  std::vector<Program> programs;
  programs.reserve(by_rank.size());
  std::vector<EventView> views;
  for (const auto& [rank, indices] : by_rank) {
    views.clear();
    views.reserve(indices.size());
    for (const std::size_t i : indices) {
      views.push_back(view_of(batch, i));
    }
    programs.push_back(
        generate_rank_program(rank, views, deps_by_label, options));
  }
  return programs;
}

mpi::Program coalesce_program(const mpi::Program& program) {
  mpi::Program out;
  out.reserve(program.size());
  for (const Op& op : program) {
    const bool is_io = op.type == OpType::kWriteBlocks ||
                       op.type == OpType::kReadBlocks;
    if (is_io && !out.empty()) {
      Op& prev = out.back();
      if (op.count == 1 && prev.type == op.type && prev.slot == op.slot &&
          prev.block == op.block && prev.api == op.api &&
          prev.hint == op.hint && prev.start_offset >= 0 &&
          op.start_offset >= 0) {
        if (prev.count == 1) {
          // A pair starts a run; the gap defines the stride, which must be
          // a whole number of blocks forward (contiguous or regular
          // interleave — anything else is not a pattern worth encoding).
          const Bytes gap = op.start_offset - prev.start_offset;
          if (gap >= prev.block && gap % prev.block == 0) {
            prev.stride = gap == prev.block ? 0 : gap;
            prev.count = 2;
            continue;
          }
        } else {
          const Bytes stride_now =
              prev.stride == 0 ? prev.block : prev.stride;
          if (op.start_offset ==
              prev.start_offset + stride_now * prev.count) {
            ++prev.count;
            continue;
          }
        }
      }
    }
    out.push_back(op);
  }
  return out;
}

}  // namespace iotaxo::replay
