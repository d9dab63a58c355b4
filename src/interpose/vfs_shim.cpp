#include "interpose/vfs_shim.h"

#include <utility>

#include "util/error.h"
#include "util/strings.h"

namespace iotaxo::interpose {

using fs::OpCtx;
using fs::VfsOp;
using fs::VfsResult;
using trace::EventClass;
using trace::TraceEvent;

VfsShim::VfsShim(fs::VfsPtr inner, trace::SinkPtr sink, VfsShimOptions options,
                 const sim::Cluster* cluster, VfsEventFilter filter)
    : inner_(std::move(inner)),
      options_(options),
      cluster_(cluster),
      filter_(std::move(filter)) {
  if (!inner_) {
    throw ConfigError("VfsShim needs an inner file system");
  }
  if (sink) {
    batcher_.emplace(std::move(sink), options_.batch_capacity);
  }
}

void VfsShim::flush() {
  if (batcher_.has_value()) {
    batcher_->flush();
  }
}

SimTime VfsShim::per_record_cost() const noexcept {
  SimTime cost = options_.record_cost;
  const Bytes per_buffer =
      options_.buffer_bytes > 0 && options_.record_bytes > 0
          ? options_.buffer_bytes / options_.record_bytes
          : 1;
  cost += options_.flush_cost / (per_buffer > 0 ? per_buffer : 1);
  if (options_.checksum) {
    cost += options_.checksum_cost;
  }
  if (options_.compress) {
    cost += options_.compress_cost;
  }
  if (options_.encrypt) {
    cost += options_.encrypt_cost;
  }
  return cost;
}

SimTime VfsShim::capture(VfsOp op, const std::string& path, int fd,
                         Bytes offset, Bytes n, long long ret, SimTime op_cost,
                         const OpCtx& ctx) {
  TraceEvent ev;
  ev.cls = EventClass::kFsOperation;
  ev.name = std::string("vfs_") + fs::to_string(op);
  ev.path = path;
  ev.fd = fd;
  ev.offset = offset;
  ev.bytes = n;
  ev.ret = ret;
  ev.duration = op_cost;
  ev.rank = ctx.rank;
  ev.node = ctx.node_id;
  ev.uid = ctx.uid;
  ev.gid = ctx.gid;
  if (cluster_ != nullptr && ctx.node_id >= 0 &&
      ctx.node_id < cluster_->node_count()) {
    ev.local_start = cluster_->local_time(ctx.node_id, ctx.now);
    ev.host = cluster_->node(ctx.node_id).hostname;
  } else {
    ev.local_start = ctx.now;
  }
  ev.args = {path.empty() ? decimal(fd) : path, decimal(offset), decimal(n)};

  if (filter_ && !filter_(ev)) {
    return 0;
  }
  ++counters_[ev.name];
  ++events_captured_;
  if (options_.aggregate_only) {
    return options_.counter_cost;
  }
  if (batcher_.has_value()) {
    batcher_->add(ev);
  }
  return per_record_cost();
}

VfsResult VfsShim::open(const std::string& path, fs::OpenMode mode,
                        const OpCtx& ctx) {
  VfsResult r = inner_->open(path, mode, ctx);
  fd_paths_[static_cast<int>(r.value)] = path;
  r.cost += capture(VfsOp::kOpen, path, static_cast<int>(r.value), -1, 0,
                    r.value, r.cost, ctx);
  return r;
}

VfsResult VfsShim::close(int fd, const OpCtx& ctx) {
  const std::string path = fd_paths_.count(fd) ? fd_paths_[fd] : std::string{};
  VfsResult r = inner_->close(fd, ctx);
  fd_paths_.erase(fd);
  r.cost += capture(VfsOp::kClose, path, fd, -1, 0, 0, r.cost, ctx);
  return r;
}

VfsResult VfsShim::read(int fd, Bytes offset, Bytes n, const OpCtx& ctx,
                        std::uint8_t* out) {
  VfsResult r = inner_->read(fd, offset, n, ctx, out);
  r.cost += capture(VfsOp::kRead, fd_paths_[fd], fd, offset, n, r.value,
                    r.cost, ctx);
  return r;
}

VfsResult VfsShim::write(int fd, Bytes offset, Bytes n, const OpCtx& ctx,
                         const std::uint8_t* data) {
  VfsResult r = inner_->write(fd, offset, n, ctx, data);
  r.cost += capture(VfsOp::kWrite, fd_paths_[fd], fd, offset, n, r.value,
                    r.cost, ctx);
  return r;
}

VfsResult VfsShim::fsync(int fd, const OpCtx& ctx) {
  VfsResult r = inner_->fsync(fd, ctx);
  r.cost += capture(VfsOp::kFsync, fd_paths_[fd], fd, -1, 0, 0, r.cost, ctx);
  return r;
}

VfsResult VfsShim::stat(const std::string& path, const OpCtx& ctx) {
  VfsResult r = inner_->stat(path, ctx);
  r.cost += capture(VfsOp::kStat, path, -1, -1, 0, r.value, r.cost, ctx);
  return r;
}

VfsResult VfsShim::statfs(const OpCtx& ctx) {
  VfsResult r = inner_->statfs(ctx);
  r.cost += capture(VfsOp::kStatfs, "/", -1, -1, 0, 0, r.cost, ctx);
  return r;
}

VfsResult VfsShim::mkdir(const std::string& path, const OpCtx& ctx) {
  VfsResult r = inner_->mkdir(path, ctx);
  r.cost += capture(VfsOp::kMkdir, path, -1, -1, 0, 0, r.cost, ctx);
  return r;
}

VfsResult VfsShim::unlink(const std::string& path, const OpCtx& ctx) {
  VfsResult r = inner_->unlink(path, ctx);
  r.cost += capture(VfsOp::kUnlink, path, -1, -1, 0, 0, r.cost, ctx);
  return r;
}

VfsResult VfsShim::readdir(const std::string& path, const OpCtx& ctx) {
  VfsResult r = inner_->readdir(path, ctx);
  r.cost += capture(VfsOp::kReaddir, path, -1, -1, 0, r.value, r.cost, ctx);
  return r;
}

VfsResult VfsShim::mmap(int fd, const OpCtx& ctx) {
  VfsResult r = inner_->mmap(fd, ctx);
  r.cost += capture(VfsOp::kMmap, fd_paths_[fd], fd, -1, 0, 0, r.cost, ctx);
  return r;
}

VfsResult VfsShim::mmap_read(int fd, Bytes offset, Bytes n, const OpCtx& ctx) {
  VfsResult r = inner_->mmap_read(fd, offset, n, ctx);
  r.cost += capture(VfsOp::kMmapRead, fd_paths_[fd], fd, offset, n, r.value,
                    r.cost, ctx);
  return r;
}

VfsResult VfsShim::mmap_write(int fd, Bytes offset, Bytes n, const OpCtx& ctx) {
  VfsResult r = inner_->mmap_write(fd, offset, n, ctx);
  r.cost += capture(VfsOp::kMmapWrite, fd_paths_[fd], fd, offset, n, n, r.cost,
                    ctx);
  return r;
}

}  // namespace iotaxo::interpose
