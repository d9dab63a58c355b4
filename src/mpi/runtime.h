// The SimMPI runtime: executes one Program per rank on a simulated cluster
// in virtual time, synchronizing at barriers and point-to-point messages,
// charging file-system costs from the attached VFS, and emitting trace
// events to attached interposition observers.
//
// Tracing overhead enters the timeline through observers: each observer
// returns the extra virtual time its capture mechanism costs (a ptrace
// stop, a pipe write, ...). For events tied to a shared parallel file, that
// cost is multiplied by the file system's stall amplification — a traced
// process stopped mid-syscall holds stripe locks and stalls its peers,
// which is the mechanism behind the paper's N-to-1 overhead numbers.
#pragma once

#include <functional>
#include <map>
#include <memory>
#include <string>
#include <tuple>
#include <vector>

#include "fs/vfs.h"
#include "mpi/program.h"
#include "sim/cluster.h"
#include "trace/event.h"

namespace iotaxo::mpi {

struct RunContext {
  const sim::Cluster* cluster = nullptr;
  int nranks = 0;
  std::string cmdline;
};

/// Interposition hook. on_event returns the extra virtual-time cost charged
/// to the calling rank (zero for mechanisms that don't intercept that event
/// class).
///
/// Observers that buffer events into per-rank batches (the ptrace tracers
/// and the dynamic interposer do) drain them in flush(). The runtime calls
/// flush() on every observer after the last rank finishes and *before* any
/// on_run_end(), so end-of-run processing always sees fully delivered
/// sinks.
class IoObserver {
 public:
  virtual ~IoObserver() = default;
  virtual void on_run_begin(const RunContext& ctx) { (void)ctx; }
  [[nodiscard]] virtual SimTime on_event(const trace::TraceEvent& ev) = 0;
  /// Drain any buffered batches to the observer's sink.
  virtual void flush() {}
  virtual void on_run_end() {}
};

/// //TRACE-style throttling hook: inject completion delay into selected
/// I/O events ("slowing the response time of a single node to I/O
/// requests", §2.3).
class Throttler {
 public:
  virtual ~Throttler() = default;
  [[nodiscard]] virtual SimTime delay(const trace::TraceEvent& ev) = 0;
};

struct RunOptions {
  fs::VfsPtr vfs;
  int procs_per_node = 1;
  /// Job launch cost before rank 0's first op (mpirun + binary load).
  SimTime startup = from_millis(300.0);
  /// Application command line recorded in annotations (Figure 1 style).
  std::string cmdline = "/app.exe";
  std::vector<std::shared_ptr<IoObserver>> observers;
  std::shared_ptr<Throttler> throttler;
  /// uid/gid the job runs as (anonymization test material).
  std::uint32_t uid = 4001;
  std::uint32_t gid = 400;
};

struct RunResult {
  /// Global makespan including startup.
  SimTime elapsed = 0;
  std::vector<SimTime> rank_end;
  Bytes bytes_written = 0;
  Bytes bytes_read = 0;
  long long events_emitted = 0;
  /// Global release instant of each labelled barrier (bandwidth windows).
  std::map<std::string, SimTime> barrier_release;
  /// Virtual time spent inside I/O calls, summed over ranks.
  SimTime total_io_time = 0;
};

class Runtime {
 public:
  Runtime(const sim::Cluster& cluster, RunOptions options);

  /// Execute the job; throws ConfigError on malformed jobs and IoError on
  /// invalid file operations. Deterministic for fixed inputs.
  [[nodiscard]] RunResult run(const std::vector<Program>& per_rank);

  [[nodiscard]] const RunOptions& options() const noexcept { return options_; }

 private:
  struct SlotState {
    int fd = -1;
    Bytes cursor = 0;
  };

  struct RankState {
    SimTime now = 0;
    std::size_t pc = 0;
    bool finished = false;
    bool waiting_barrier = false;
    bool waiting_recv = false;
    int barrier_seq = 0;
    int node = 0;
    std::uint32_t pid = 0;
    std::map<int, SlotState> slots;
  };

  struct Message {
    SimTime available = 0;
  };

  // Execution helpers; each advances state.now and may emit events.
  void exec_op(int rank, const Op& op);
  void exec_open(int rank, const Op& op);
  void exec_close(int rank, const Op& op);
  void exec_io_blocks(int rank, const Op& op, bool is_write);
  void exec_mmap_io(int rank, const Op& op, bool is_write);
  void exec_simple_path_op(int rank, const Op& op);
  void exec_send(int rank, const Op& op);
  bool try_exec_recv(int rank, const Op& op);  // false if must wait
  void exec_clock_probe(int rank, const Op& op);
  void exec_annotate(int rank, const Op& op);

  void try_release_barrier();

  /// Fill identity fields, timestamp the event at `start`, deliver it to
  /// observers/throttler, and return the extra cost to charge (already
  /// amplified for shared-file lock coupling when `amp_fd` >= 0).
  [[nodiscard]] SimTime emit(int rank, trace::TraceEvent ev, SimTime start,
                             int amp_fd);

  [[nodiscard]] fs::OpCtx ctx_for(int rank, fs::AccessHint hint) const;
  [[nodiscard]] SlotState& slot(int rank, int slot_index);

  const sim::Cluster& cluster_;
  RunOptions options_;
  std::vector<Program> job_;
  std::vector<RankState> ranks_;
  std::map<std::tuple<int, int, int>, std::vector<Message>> mailbox_;
  RunResult result_;
  int barrier_counter_ = 0;

  // Small fixed costs of the syscall layer itself (untraced).
  static constexpr SimTime kLseekCost = 800;            // ns
  static constexpr SimTime kLibWrapperCost = 500;       // ns
  static constexpr SimTime kBarrierPerHopCost = 30'000; // ns software term
  static constexpr SimTime kProbeCost = 2'000;          // ns
};

}  // namespace iotaxo::mpi
