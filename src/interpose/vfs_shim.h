// Stackable VFS tracing shim — the capture layer of our Tracefs
// reimplementation. Mounted over any Vfs, it observes every file-system
// operation (including memory-mapped I/O and NFS traffic that syscall-level
// tracers miss), evaluates a granularity filter, and either appends a
// binary record (buffered, optionally checksummed/compressed/encrypted) or
// bumps an aggregation counter.
//
// Capture cost is charged inline on the operation's VfsResult.cost, exactly
// as an in-kernel implementation would slow the calling process.
#pragma once

#include <functional>
#include <map>
#include <memory>
#include <optional>
#include <string>

#include "fs/vfs.h"
#include "sim/cluster.h"
#include "trace/event.h"
#include "trace/sink.h"

namespace iotaxo::interpose {

/// Predicate deciding whether a candidate VFS event is traced. Tracefs
/// builds these from its declarative filter language.
using VfsEventFilter = std::function<bool(const trace::TraceEvent&)>;

struct VfsShimOptions {
  /// Build + append one binary record into the in-kernel buffer.
  SimTime record_cost = from_micros(9.3);
  Bytes record_bytes = 64;
  /// Buffered output: a full buffer flush costs flush_cost and is amortized
  /// over buffer_bytes / record_bytes records.
  Bytes buffer_bytes = 256 * kKiB;
  SimTime flush_cost = from_millis(1.2);

  bool checksum = false;
  SimTime checksum_cost = from_micros(6.0);
  bool compress = false;
  SimTime compress_cost = from_micros(9.0);
  /// Encrypts the output's record blocks; Tracefs::encode_output writes
  /// them as IOTB3 per-block encryption, which leaves the string table and
  /// the block index readable without the key.
  bool encrypt = false;
  SimTime encrypt_cost = from_micros(18.0);

  /// Aggregation mode: count events per op type instead of recording them.
  bool aggregate_only = false;
  SimTime counter_cost = from_micros(0.5);

  /// Sink delivery granularity: events buffer into per-rank EventBatches
  /// and reach the sink via on_batch once a rank accumulates this many
  /// (remainders on flush()). 1 delivers each event immediately. Delivery
  /// is inline either way; simulated capture *cost* (record_cost et al.)
  /// does not depend on it.
  std::size_t batch_capacity = 1;
};

class VfsShim : public fs::Vfs {
 public:
  /// `cluster` provides node-local clocks for event timestamps; may be
  /// nullptr, in which case events carry global time.
  VfsShim(fs::VfsPtr inner, trace::SinkPtr sink, VfsShimOptions options,
          const sim::Cluster* cluster = nullptr,
          VfsEventFilter filter = nullptr);

  [[nodiscard]] fs::FsKind kind() const noexcept override {
    return inner_->kind();
  }
  [[nodiscard]] std::string fstype() const override { return "tracefs"; }

  fs::VfsResult open(const std::string& path, fs::OpenMode mode,
                     const fs::OpCtx& ctx) override;
  fs::VfsResult close(int fd, const fs::OpCtx& ctx) override;
  fs::VfsResult read(int fd, Bytes offset, Bytes n, const fs::OpCtx& ctx,
                     std::uint8_t* out) override;
  fs::VfsResult write(int fd, Bytes offset, Bytes n, const fs::OpCtx& ctx,
                      const std::uint8_t* data) override;
  fs::VfsResult fsync(int fd, const fs::OpCtx& ctx) override;
  fs::VfsResult stat(const std::string& path, const fs::OpCtx& ctx) override;
  fs::VfsResult statfs(const fs::OpCtx& ctx) override;
  fs::VfsResult mkdir(const std::string& path, const fs::OpCtx& ctx) override;
  fs::VfsResult unlink(const std::string& path, const fs::OpCtx& ctx) override;
  fs::VfsResult readdir(const std::string& path, const fs::OpCtx& ctx) override;
  fs::VfsResult mmap(int fd, const fs::OpCtx& ctx) override;
  fs::VfsResult mmap_read(int fd, Bytes offset, Bytes n,
                          const fs::OpCtx& ctx) override;
  fs::VfsResult mmap_write(int fd, Bytes offset, Bytes n,
                           const fs::OpCtx& ctx) override;

  [[nodiscard]] double stall_amplification(int fd) const noexcept override {
    return inner_->stall_amplification(fd);
  }

  [[nodiscard]] bool exists(const std::string& path) const override {
    return inner_->exists(path);
  }
  [[nodiscard]] fs::StatInfo stat_info(const std::string& path) const override {
    return inner_->stat_info(path);
  }
  [[nodiscard]] std::vector<std::string> list(
      const std::string& dir) const override {
    return inner_->list(dir);
  }
  [[nodiscard]] std::vector<std::uint8_t> content(
      const std::string& path) const override {
    return inner_->content(path);
  }

  [[nodiscard]] long long events_captured() const noexcept {
    return events_captured_;
  }
  /// Aggregation counters (op name -> count); populated in both modes.
  [[nodiscard]] const std::map<std::string, long long>& counters()
      const noexcept {
    return counters_;
  }

  /// Drain buffered per-rank batches to the sink (an unmount barrier; the
  /// Tracefs framework calls this after the traced job completes).
  void flush();

 private:
  /// Build the candidate event, filter it, charge capture cost.
  [[nodiscard]] SimTime capture(fs::VfsOp op, const std::string& path, int fd,
                                Bytes offset, Bytes n, long long ret,
                                SimTime op_cost, const fs::OpCtx& ctx);

  [[nodiscard]] SimTime per_record_cost() const noexcept;

  fs::VfsPtr inner_;
  std::optional<trace::RankBatcher> batcher_;  // absent when sink is null
  VfsShimOptions options_;
  const sim::Cluster* cluster_;
  VfsEventFilter filter_;
  std::map<std::string, long long> counters_;
  std::map<int, std::string> fd_paths_;
  long long events_captured_ = 0;
};

}  // namespace iotaxo::interpose
