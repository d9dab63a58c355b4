#include "mpi/runtime.h"

#include <algorithm>
#include <cmath>

#include "util/error.h"
#include "util/strings.h"

namespace iotaxo::mpi {

using trace::EventClass;
using trace::TraceEvent;

Runtime::Runtime(const sim::Cluster& cluster, RunOptions options)
    : cluster_(cluster), options_(std::move(options)) {
  if (!options_.vfs) {
    throw ConfigError("Runtime needs a file system");
  }
  if (options_.procs_per_node <= 0) {
    throw ConfigError("procs_per_node must be positive");
  }
}

fs::OpCtx Runtime::ctx_for(int rank, fs::AccessHint hint) const {
  fs::OpCtx ctx;
  ctx.rank = rank;
  ctx.node_id = ranks_[static_cast<std::size_t>(rank)].node;
  ctx.uid = options_.uid;
  ctx.gid = options_.gid;
  ctx.hint = hint;
  return ctx;
}

Runtime::SlotState& Runtime::slot(int rank, int slot_index) {
  auto& slots = ranks_[static_cast<std::size_t>(rank)].slots;
  const auto it = slots.find(slot_index);
  if (it == slots.end()) {
    throw IoError(strprintf("rank %d: slot %d not open", rank, slot_index));
  }
  return it->second;
}

SimTime Runtime::emit(int rank, TraceEvent ev, SimTime start, int amp_fd) {
  RankState& rs = ranks_[static_cast<std::size_t>(rank)];
  ev.rank = rank;
  ev.node = rs.node;
  ev.pid = rs.pid;
  ev.host = cluster_.node(rs.node).hostname;
  ev.local_start = cluster_.local_time(rs.node, start);
  ev.uid = options_.uid;
  ev.gid = options_.gid;
  ++result_.events_emitted;

  SimTime extra = 0;
  for (const auto& obs : options_.observers) {
    extra += obs->on_event(ev);
  }
  if (options_.throttler && ev.is_io_call()) {
    extra += options_.throttler->delay(ev);
  }
  if (extra > 0 && amp_fd >= 0) {
    const double amp = options_.vfs->stall_amplification(amp_fd);
    extra = static_cast<SimTime>(static_cast<double>(extra) * amp);
  }
  // Capture work (ptrace stops, record writes) executes on the same node
  // as the traced process, so it scales with that node's speed too.
  const double speed = cluster_.node(rs.node).io_speed_factor;
  return static_cast<SimTime>(static_cast<double>(extra) / speed);
}

void Runtime::exec_open(int rank, const Op& op) {
  RankState& rs = ranks_[static_cast<std::size_t>(rank)];
  const SimTime t0 = rs.now;
  fs::OpCtx ctx = ctx_for(rank, op.hint);
  ctx.now = t0;

  SimTime pre_cost = 0;
  SimTime statfs_cost = 0;
  SimTime fcntl_cost = 0;
  if (op.api == Api::kMpiIo) {
    // MPI_File_open interrogates the file system first (Figure 1 shows
    // SYS_statfs64 + SYS_open + SYS_fcntl64 under MPI_File_open).
    statfs_cost = options_.vfs->statfs(ctx).cost;
    fcntl_cost = 3'000;
    pre_cost = statfs_cost + fcntl_cost;
  }
  const fs::VfsResult r = options_.vfs->open(op.path, op.mode, ctx);
  const int fd = static_cast<int>(r.value);
  rs.slots[op.slot] = SlotState{fd, 0};

  const SimTime lib_dur = pre_cost + r.cost + kLibWrapperCost;
  SimTime extra = 0;
  if (op.api == Api::kMpiIo) {
    TraceEvent lib = trace::make_libcall(
        "MPI_File_open",
        {"MPI_COMM_WORLD", op.path,
         op.mode.write ? "MPI_MODE_CREATE|MPI_MODE_WRONLY" : "MPI_MODE_RDONLY"},
        fd);
    lib.duration = lib_dur;
    lib.path = op.path;
    lib.fd = fd;
    extra += emit(rank, std::move(lib), t0, fd);

    TraceEvent sys_statfs =
        trace::make_syscall("SYS_statfs64", {op.path, "84"}, 0);
    sys_statfs.duration = statfs_cost;
    sys_statfs.path = op.path;
    extra += emit(rank, std::move(sys_statfs), t0 + kLibWrapperCost, fd);

    TraceEvent sys_open = trace::make_syscall(
        "SYS_open", {op.path, op.mode.write ? "577" : "0", "0666"}, fd);
    sys_open.duration = r.cost;
    sys_open.path = op.path;
    sys_open.fd = fd;
    extra += emit(rank, std::move(sys_open),
                  t0 + kLibWrapperCost + statfs_cost, fd);

    TraceEvent sys_fcntl = trace::make_syscall(
        "SYS_fcntl64", {decimal(fd), "1", "0"}, 0);
    sys_fcntl.duration = fcntl_cost;
    sys_fcntl.fd = fd;
    extra += emit(rank, std::move(sys_fcntl),
                  t0 + kLibWrapperCost + statfs_cost + r.cost, fd);
  } else {
    TraceEvent lib = trace::make_libcall(
        "open", {op.path, op.mode.write ? "577" : "0", "0666"}, fd);
    lib.duration = lib_dur;
    lib.path = op.path;
    lib.fd = fd;
    extra += emit(rank, std::move(lib), t0, fd);

    TraceEvent sys = trace::make_syscall(
        "SYS_open", {op.path, op.mode.write ? "577" : "0", "0666"}, fd);
    sys.duration = r.cost;
    sys.path = op.path;
    sys.fd = fd;
    extra += emit(rank, std::move(sys), t0 + kLibWrapperCost, fd);
  }
  rs.now = t0 + lib_dur + extra;
}

void Runtime::exec_close(int rank, const Op& op) {
  RankState& rs = ranks_[static_cast<std::size_t>(rank)];
  const SimTime t0 = rs.now;
  SlotState& ss = slot(rank, op.slot);
  const int fd = ss.fd;
  fs::OpCtx close_ctx = ctx_for(rank, op.hint);
  close_ctx.now = t0;
  const fs::VfsResult r = options_.vfs->close(fd, close_ctx);
  rs.slots.erase(op.slot);

  const SimTime lib_dur = r.cost + kLibWrapperCost;
  SimTime extra = 0;
  const char* lib_name = op.api == Api::kMpiIo ? "MPI_File_close" : "close";
  TraceEvent lib = trace::make_libcall(lib_name, {decimal(fd)}, 0);
  lib.duration = lib_dur;
  lib.fd = fd;
  extra += emit(rank, std::move(lib), t0, -1);

  TraceEvent sys = trace::make_syscall("SYS_close", {decimal(fd)}, 0);
  sys.duration = r.cost;
  sys.fd = fd;
  extra += emit(rank, std::move(sys), t0 + kLibWrapperCost, -1);

  rs.now = t0 + lib_dur + extra;
}

void Runtime::exec_io_blocks(int rank, const Op& op, bool is_write) {
  RankState& rs = ranks_[static_cast<std::size_t>(rank)];
  SlotState& ss = slot(rank, op.slot);
  const int fd = ss.fd;
  fs::OpCtx ctx = ctx_for(rank, op.hint);
  const double speed = cluster_.node(rs.node).io_speed_factor;
  const Bytes stride = op.stride == 0 ? op.block : op.stride;
  Bytes offset = op.start_offset >= 0 ? op.start_offset : ss.cursor;

  const char* lib_name = op.api == Api::kMpiIo
                             ? (is_write ? "MPI_File_write_at" : "MPI_File_read_at")
                             : (is_write ? "write" : "read");
  const char* sys_name = is_write ? "SYS_write" : "SYS_read";

  for (long long i = 0; i < op.count; ++i) {
    const SimTime t0 = rs.now;
    ctx.now = t0;
    fs::VfsResult r;
    if (is_write) {
      r = options_.vfs->write(fd, offset, op.block, ctx, nullptr);
      result_.bytes_written += r.value;
    } else {
      r = options_.vfs->read(fd, offset, op.block, ctx, nullptr);
      result_.bytes_read += r.value;
    }
    const SimTime io_cost =
        static_cast<SimTime>(static_cast<double>(r.cost) / speed);
    const SimTime lib_dur = kLseekCost + io_cost + kLibWrapperCost;
    result_.total_io_time += lib_dur;

    SimTime extra = 0;
    {
      TraceEvent lib = trace::make_libcall(
          lib_name, {decimal(fd), decimal(offset), decimal(op.block)},
          static_cast<long long>(r.value));
      lib.duration = lib_dur;
      lib.fd = fd;
      lib.bytes = r.value;
      lib.offset = offset;
      extra += emit(rank, std::move(lib), t0, fd);

      TraceEvent sys_seek = trace::make_syscall(
          "SYS_lseek", {decimal(fd), decimal(offset), "0"},
          static_cast<long long>(offset));
      sys_seek.duration = kLseekCost;
      sys_seek.fd = fd;
      sys_seek.offset = offset;
      extra += emit(rank, std::move(sys_seek), t0 + kLibWrapperCost, fd);

      TraceEvent sys_io = trace::make_syscall(
          sys_name, {decimal(fd), decimal(op.block), decimal(offset)},
          static_cast<long long>(r.value));
      sys_io.duration = io_cost;
      sys_io.fd = fd;
      sys_io.bytes = r.value;
      sys_io.offset = offset;
      extra += emit(rank, std::move(sys_io), t0 + kLibWrapperCost + kLseekCost,
                    fd);
    }
    rs.now = t0 + lib_dur + extra;
    offset += stride;
    ss.cursor = offset;
  }
}

void Runtime::exec_mmap_io(int rank, const Op& op, bool is_write) {
  RankState& rs = ranks_[static_cast<std::size_t>(rank)];
  SlotState& ss = slot(rank, op.slot);
  fs::OpCtx ctx = ctx_for(rank, op.hint);
  const double speed = cluster_.node(rs.node).io_speed_factor;
  Bytes offset = op.start_offset >= 0 ? op.start_offset : ss.cursor;
  for (long long i = 0; i < op.count; ++i) {
    ctx.now = rs.now;
    fs::VfsResult r;
    if (is_write) {
      r = options_.vfs->mmap_write(ss.fd, offset, op.block, ctx);
      result_.bytes_written += op.block;
    } else {
      r = options_.vfs->mmap_read(ss.fd, offset, op.block, ctx);
      result_.bytes_read += r.value;
    }
    // Memory-mapped I/O emits no syscall/library events: this is precisely
    // the traffic strace/ltrace-based tracers cannot see (§4.1.1).
    const SimTime cost =
        static_cast<SimTime>(static_cast<double>(r.cost) / speed);
    result_.total_io_time += cost;
    rs.now += cost;
    offset += op.block;
    ss.cursor = offset;
  }
}

void Runtime::exec_simple_path_op(int rank, const Op& op) {
  RankState& rs = ranks_[static_cast<std::size_t>(rank)];
  const SimTime t0 = rs.now;
  fs::OpCtx ctx = ctx_for(rank, op.hint);
  ctx.now = t0;

  fs::VfsResult r;
  const char* sys_name = nullptr;
  const char* lib_name = nullptr;
  std::vector<std::string> args;
  int amp_fd = -1;
  switch (op.type) {
    case OpType::kFsync: {
      const int fd = slot(rank, op.slot).fd;
      r = options_.vfs->fsync(fd, ctx);
      sys_name = "SYS_fsync";
      lib_name = "fsync";
      args = {decimal(fd)};
      amp_fd = fd;
      break;
    }
    case OpType::kStat:
      r = options_.vfs->stat(op.path, ctx);
      sys_name = "SYS_stat";
      lib_name = "stat";
      args = {op.path};
      break;
    case OpType::kStatfs:
      r = options_.vfs->statfs(ctx);
      sys_name = "SYS_statfs64";
      lib_name = "statfs";
      args = {"/", "84"};
      break;
    case OpType::kMkdir:
      r = options_.vfs->mkdir(op.path, ctx);
      sys_name = "SYS_mkdir";
      lib_name = "mkdir";
      args = {op.path, "0755"};
      break;
    case OpType::kUnlink:
      r = options_.vfs->unlink(op.path, ctx);
      sys_name = "SYS_unlink";
      lib_name = "unlink";
      args = {op.path};
      break;
    case OpType::kReaddir:
      r = options_.vfs->readdir(op.path, ctx);
      sys_name = "SYS_readdir";
      lib_name = "readdir";
      args = {op.path};
      break;
    case OpType::kMmap: {
      const int fd = slot(rank, op.slot).fd;
      r = options_.vfs->mmap(fd, ctx);
      sys_name = "SYS_mmap";
      lib_name = "mmap";
      args = {decimal(fd), "0"};
      amp_fd = fd;
      break;
    }
    default:
      throw ConfigError("exec_simple_path_op: unexpected op");
  }

  const SimTime lib_dur = r.cost + kLibWrapperCost;
  SimTime extra = 0;
  TraceEvent lib = trace::make_libcall(lib_name, args,
                                       static_cast<long long>(r.value));
  lib.duration = lib_dur;
  lib.path = op.path;
  extra += emit(rank, std::move(lib), t0, amp_fd);

  TraceEvent sys = trace::make_syscall(sys_name, args,
                                       static_cast<long long>(r.value));
  sys.duration = r.cost;
  sys.path = op.path;
  extra += emit(rank, std::move(sys), t0 + kLibWrapperCost, amp_fd);

  rs.now = t0 + lib_dur + extra;
}

void Runtime::exec_send(int rank, const Op& op) {
  RankState& rs = ranks_[static_cast<std::size_t>(rank)];
  const SimTime t0 = rs.now;
  if (op.peer < 0 || op.peer >= static_cast<int>(ranks_.size())) {
    throw ConfigError(strprintf("rank %d sends to invalid peer %d", rank,
                                op.peer));
  }
  const bool same_node =
      ranks_[static_cast<std::size_t>(op.peer)].node == rs.node;
  const SimTime transfer =
      cluster_.network().transfer_time(op.msg_bytes, same_node);
  const SimTime send_overhead =
      cluster_.network().params().per_message_overhead;

  mailbox_[{rank, op.peer, op.tag}].push_back(Message{t0 + transfer});

  TraceEvent lib = trace::make_libcall(
      "MPI_Send", {decimal(op.msg_bytes), decimal(op.peer), decimal(op.tag)},
      0);
  lib.duration = send_overhead;
  lib.bytes = op.msg_bytes;
  const SimTime extra = emit(rank, std::move(lib), t0, -1);
  rs.now = t0 + send_overhead + extra;
}

bool Runtime::try_exec_recv(int rank, const Op& op) {
  RankState& rs = ranks_[static_cast<std::size_t>(rank)];
  auto it = mailbox_.find({op.peer, rank, op.tag});
  if (it == mailbox_.end() || it->second.empty()) {
    return false;
  }
  // Earliest-available message first.
  auto msg_it =
      std::min_element(it->second.begin(), it->second.end(),
                       [](const Message& a, const Message& b) {
                         return a.available < b.available;
                       });
  const SimTime t0 = rs.now;
  const SimTime ready = std::max(t0, msg_it->available);
  it->second.erase(msg_it);

  const SimTime recv_overhead =
      cluster_.network().params().per_message_overhead;
  TraceEvent lib = trace::make_libcall(
      "MPI_Recv", {decimal(op.peer), decimal(op.tag)}, 0);
  lib.duration = (ready - t0) + recv_overhead;
  const SimTime extra = emit(rank, std::move(lib), t0, -1);
  rs.now = ready + recv_overhead + extra;
  return true;
}

void Runtime::exec_clock_probe(int rank, const Op& op) {
  RankState& rs = ranks_[static_cast<std::size_t>(rank)];
  const SimTime t0 = rs.now;
  const SimTime local = cluster_.local_time(rs.node, t0);
  TraceEvent ev;
  ev.cls = EventClass::kClockProbe;
  ev.name = "clock_probe";
  ev.args = {op.label, strprintf("%.6f", to_seconds(local))};
  ev.duration = kProbeCost;
  const SimTime extra = emit(rank, std::move(ev), t0, -1);
  rs.now = t0 + kProbeCost + extra;
}

void Runtime::exec_annotate(int rank, const Op& op) {
  RankState& rs = ranks_[static_cast<std::size_t>(rank)];
  TraceEvent ev;
  ev.cls = EventClass::kAnnotation;
  ev.name = op.label;
  (void)emit(rank, std::move(ev), rs.now, -1);
}

void Runtime::exec_op(int rank, const Op& op) {
  switch (op.type) {
    case OpType::kCompute:
      ranks_[static_cast<std::size_t>(rank)].now += op.duration;
      return;
    case OpType::kOpen:
      exec_open(rank, op);
      return;
    case OpType::kClose:
      exec_close(rank, op);
      return;
    case OpType::kWriteBlocks:
      exec_io_blocks(rank, op, /*is_write=*/true);
      return;
    case OpType::kReadBlocks:
      exec_io_blocks(rank, op, /*is_write=*/false);
      return;
    case OpType::kMmapWrite:
      exec_mmap_io(rank, op, /*is_write=*/true);
      return;
    case OpType::kMmapRead:
      exec_mmap_io(rank, op, /*is_write=*/false);
      return;
    case OpType::kFsync:
    case OpType::kStat:
    case OpType::kStatfs:
    case OpType::kMkdir:
    case OpType::kUnlink:
    case OpType::kReaddir:
    case OpType::kMmap:
      exec_simple_path_op(rank, op);
      return;
    case OpType::kSend:
      exec_send(rank, op);
      return;
    case OpType::kClockProbe:
      exec_clock_probe(rank, op);
      return;
    case OpType::kAnnotate:
      exec_annotate(rank, op);
      return;
    case OpType::kBarrier:
    case OpType::kRecv:
      throw ConfigError("exec_op: synchronization op dispatched directly");
  }
}

void Runtime::try_release_barrier() {
  // A barrier releases when every unfinished rank is waiting on it.
  int waiting = 0;
  int active = 0;
  SimTime max_arrival = 0;
  for (const RankState& rs : ranks_) {
    if (rs.finished) {
      continue;
    }
    ++active;
    if (rs.waiting_barrier) {
      ++waiting;
      max_arrival = std::max(max_arrival, rs.now);
    }
  }
  if (active == 0 || waiting != active) {
    return;
  }

  const int n = static_cast<int>(ranks_.size());
  const int hops = n <= 1 ? 1 : static_cast<int>(std::ceil(std::log2(n)));
  const SimTime cost =
      2 * hops * cluster_.network().latency() + kBarrierPerHopCost;
  const SimTime release = max_arrival + cost;

  // Determine the label from rank 0's current op.
  std::string label;
  for (std::size_t r = 0; r < ranks_.size(); ++r) {
    if (!ranks_[r].finished) {
      const Op& op = job_[r][ranks_[r].pc];
      label = op.label.empty()
                  ? strprintf("barrier#%d", barrier_counter_)
                  : op.label;
      break;
    }
  }
  ++barrier_counter_;
  result_.barrier_release[label] = release;

  for (std::size_t r = 0; r < ranks_.size(); ++r) {
    RankState& rs = ranks_[r];
    if (rs.finished) {
      continue;
    }
    const SimTime arrival = rs.now;
    // Tiny deterministic stagger keeps per-rank exit stamps distinct, as on
    // a real interconnect fan-out.
    const SimTime exit_time = release + static_cast<SimTime>(r) * 500;

    TraceEvent lib = trace::make_libcall("MPI_Barrier", {"MPI_COMM_WORLD"}, 0);
    lib.duration = exit_time - arrival;
    lib.path = label;
    const SimTime extra = emit(static_cast<int>(r), std::move(lib), arrival, -1);

    rs.now = exit_time + extra;
    rs.waiting_barrier = false;
    ++rs.barrier_seq;
    ++rs.pc;
  }
}

RunResult Runtime::run(const std::vector<Program>& per_rank) {
  validate_job(per_rank);
  job_ = per_rank;
  result_ = RunResult{};
  mailbox_.clear();
  barrier_counter_ = 0;

  const int nranks = static_cast<int>(per_rank.size());
  const int needed_nodes =
      (nranks + options_.procs_per_node - 1) / options_.procs_per_node;
  if (needed_nodes > cluster_.node_count()) {
    throw ConfigError(
        strprintf("job needs %d nodes but cluster has %d", needed_nodes,
                  cluster_.node_count()));
  }

  ranks_.assign(static_cast<std::size_t>(nranks), RankState{});
  for (int r = 0; r < nranks; ++r) {
    RankState& rs = ranks_[static_cast<std::size_t>(r)];
    rs.node = r / options_.procs_per_node;
    rs.pid = cluster_.node(rs.node).first_pid +
             static_cast<std::uint32_t>(r % options_.procs_per_node);
    rs.now = options_.startup;
  }

  RunContext ctx{&cluster_, nranks, options_.cmdline};
  for (const auto& obs : options_.observers) {
    obs->on_run_begin(ctx);
  }

  int stalled_rounds = 0;
  for (;;) {
    try_release_barrier();

    // Pick the runnable rank with the smallest clock.
    int best = -1;
    for (int r = 0; r < nranks; ++r) {
      const RankState& rs = ranks_[static_cast<std::size_t>(r)];
      if (rs.finished || rs.waiting_barrier) {
        continue;
      }
      if (best < 0 ||
          rs.now < ranks_[static_cast<std::size_t>(best)].now) {
        best = r;
      }
    }
    if (best < 0) {
      // All finished, or all waiting on a barrier that cannot release.
      bool all_finished = true;
      for (const RankState& rs : ranks_) {
        all_finished = all_finished && rs.finished;
      }
      if (all_finished) {
        break;
      }
      throw ConfigError("job deadlocked at a barrier");
    }

    RankState& rs = ranks_[static_cast<std::size_t>(best)];
    if (rs.pc >= job_[static_cast<std::size_t>(best)].size()) {
      rs.finished = true;
      continue;
    }
    const Op& op = job_[static_cast<std::size_t>(best)][rs.pc];
    if (op.type == OpType::kBarrier) {
      rs.waiting_barrier = true;
      continue;  // released collectively
    }
    if (op.type == OpType::kRecv) {
      if (try_exec_recv(best, op)) {
        ++rs.pc;
        stalled_rounds = 0;
      } else {
        // Sender hasn't posted yet: defer by bumping this rank's clock past
        // the next runnable rank so the scheduler makes progress elsewhere.
        // If every rank is only deferring, the job is deadlocked.
        if (++stalled_rounds > 4 * nranks + 16) {
          throw ConfigError("job deadlocked on recv");
        }
        SimTime next = rs.now;
        for (int r = 0; r < nranks; ++r) {
          const RankState& other = ranks_[static_cast<std::size_t>(r)];
          if (r != best && !other.finished && !other.waiting_barrier) {
            next = std::max(next, other.now + 1);
          }
        }
        rs.now = next;
      }
      continue;
    }
    exec_op(best, op);
    ++rs.pc;
    stalled_rounds = 0;
  }

  // Drain batch buffers first: on_run_end handlers (post-processing,
  // dependency finalization) must observe fully delivered sinks.
  for (const auto& obs : options_.observers) {
    obs->flush();
  }
  for (const auto& obs : options_.observers) {
    obs->on_run_end();
  }

  result_.rank_end.reserve(ranks_.size());
  for (const RankState& rs : ranks_) {
    result_.rank_end.push_back(rs.now);
    result_.elapsed = std::max(result_.elapsed, rs.now);
  }
  return result_;
}

}  // namespace iotaxo::mpi
