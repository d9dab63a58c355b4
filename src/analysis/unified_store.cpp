#include "analysis/unified_store.h"

#include <algorithm>
#include <filesystem>
#include <set>

#include "analysis/store_manifest.h"
#include "trace/scan_kernels.h"
#include "util/crc32.h"
#include "util/error.h"
#include "util/failpoint.h"
#include "util/logging.h"
#include "util/metrics.h"

namespace iotaxo::analysis {

namespace {

/// Handles bound once; every record call is one relaxed load when metrics
/// are disarmed (util/metrics.h). Segment/pool counts are added once per
/// pool per query, never per record, so the armed cost stays off the
/// scan loops.
struct StoreMetrics {
  obs::Counter& queries = obs::counter("store.query.count");
  obs::Counter& pools_skipped = obs::counter("store.query.pools_skipped");
  obs::Counter& segments_scanned = obs::counter("store.query.segments_scanned");
  obs::Counter& segments_skipped = obs::counter("store.query.segments_skipped");
  obs::Counter& damage_blocks = obs::counter("store.query.damage_skipped_blocks");
  obs::Counter& damage_records = obs::counter("store.query.damage_skipped_records");
  obs::Histogram& call_stats_ns = obs::histogram("store.query.call_stats_ns");
  obs::Histogram& rank_timeline_ns = obs::histogram("store.query.rank_timeline_ns");
  obs::Histogram& bytes_in_window_ns = obs::histogram("store.query.bytes_in_window_ns");
  obs::Histogram& io_rate_series_ns = obs::histogram("store.query.io_rate_series_ns");
  obs::Histogram& hottest_files_ns = obs::histogram("store.query.hottest_files_ns");
  obs::Counter& compact_calls = obs::counter("store.compact.calls");
  obs::Counter& eras_spilled = obs::counter("store.compact.eras_spilled");
  obs::Counter& compact_bytes = obs::counter("store.compact.bytes_written");
  obs::Counter& manifest_commits = obs::counter("store.compact.manifest_commits");
  obs::Histogram& spill_ns = obs::histogram("store.compact.spill_ns");
  obs::Histogram& attach_ns = obs::histogram("store.attach.duration_ns");
  obs::Counter& attach_recovered = obs::counter("store.attach.recovered_eras");
  obs::Counter& attach_quarantined = obs::counter("store.attach.quarantined");
  obs::Counter& attach_torn_tmps = obs::counter("store.attach.torn_tmps_removed");
  obs::Counter& ingest_flushes = obs::counter("ingest.flushes");
  obs::Counter& ingest_events = obs::counter("ingest.events");
  obs::Counter& era_seals = obs::counter("ingest.era_seals");
  obs::Counter& index_adopted = obs::counter("ingest.index_adopted");
};

StoreMetrics& metrics() {
  static StoreMetrics m;
  return m;
}

/// Transfer-syscall test against the pool's cached ids (PoolIndex); id 0
/// (the empty string) marks "not interned in this pool" because no event
/// has an empty name. `rec` is any ScanRows::for_each record.
template <class Rec>
[[nodiscard]] bool is_transfer(const Rec& rec, trace::StrId sys_write,
                               trace::StrId sys_read) noexcept {
  return rec.cls() == trace::EventClass::kSyscall &&
         ((sys_write != 0 && rec.name() == sys_write) ||
          (sys_read != 0 && rec.name() == sys_read));
}

[[nodiscard]] StoreSourceInfo parse_source_info(
    const std::map<std::string, std::string>& metadata) {
  StoreSourceInfo info;
  const auto framework_it = metadata.find("framework");
  info.framework =
      framework_it == metadata.end() ? "(unknown)" : framework_it->second;
  const auto app_it = metadata.find("application");
  info.application = app_it == metadata.end() ? "(unknown)" : app_it->second;
  return info;
}

/// Rewrite one record's local_start onto the common timeline; ranks the
/// probe set does not cover keep their raw stamps.
void correct_record(trace::EventBatch& batch, std::size_t i,
                    const SkewDriftModel& model) {
  const trace::EventRecord& rec = batch.record(i);
  if (rec.rank < 0) {
    return;
  }
  try {
    batch.set_local_start(i, model.correct(rec.rank, rec.local_start));
  } catch (const Error&) {
    // rank missing from the probe set; keep the raw stamp
  }
}

/// Approximate resident footprint of an owned pool — the quantity
/// compact() sizes eras by.
[[nodiscard]] std::size_t approx_batch_bytes(const trace::EventBatch& batch) {
  // O(1): the seal check runs once per streamed flush, so this must not
  // walk records or the string pool.
  return batch.size() * sizeof(trace::EventRecord) +
         batch.arg_ids().size() * sizeof(trace::StrId) +
         batch.pool().byte_size();
}

}  // namespace

void UnifiedTraceStore::index_pool(StorePool& pool) {
  PoolIndex idx;
  if (pool.blocks.has_value()) {
    // Block-backed pools are indexed from the footer mini-index alone: the
    // per-block min/max stamps, flag bits and name bitmaps OR together into
    // the pool-level facts, so ingesting (or cold-compacting to) an IOTB3
    // container never decompresses a record block.
    const trace::BlockView& v = *pool.blocks;
    idx.sys_write_id = v.find_string("SYS_write").value_or(0);
    idx.sys_read_id = v.find_string("SYS_read").value_or(0);
    idx.name_present.assign(v.string_count(), false);
    std::vector<std::uint8_t> names((v.string_count() + 7) / 8, 0);
    const std::size_t nblocks = v.block_count();
    for (std::size_t b = 0; b < nblocks; ++b) {
      idx.widen(v.block_min_time(b), v.block_max_time(b));
      idx.has_fd_path = idx.has_fd_path || v.block_has_fd_path(b);
      idx.has_io_bytes = idx.has_io_bytes || v.block_has_io_bytes(b);
      const std::span<const std::uint8_t> bitmap = v.block_name_bitmap(b);
      for (std::size_t j = 0; j < names.size(); ++j) {
        names[j] |= bitmap[j];
      }
    }
    // Id 0 stays false, as PoolIndex::has_name reads it.
    for (trace::StrId id = 1; id < idx.name_present.size(); ++id) {
      idx.name_present[id] = ((names[id >> 3] >> (id & 7u)) & 1u) != 0;
    }
    pool.index = std::move(idx);
    return;
  }
  idx.sys_write_id = pool.batch.pool().find("SYS_write").value_or(0);
  idx.sys_read_id = pool.batch.pool().find("SYS_read").value_or(0);
  idx.name_present.assign(pool.batch.pool().size(), false);
  fold_index_records(idx, pool.batch, 0, pool.batch.size());
  pool.index = std::move(idx);
}

void UnifiedTraceStore::fold_index_records(PoolIndex& idx,
                                           const trace::EventBatch& batch,
                                           std::size_t begin,
                                           std::size_t end) {
  for (std::size_t i = begin; i < end; ++i) {
    const trace::EventRecord& rec = batch.record(i);
    idx.name_present[rec.name] = true;
    idx.widen(rec.local_start, rec.local_start);
    if (rec.path != 0 && rec.fd >= 0) {
      idx.has_fd_path = true;
    }
    if (rec.is_io_call() && rec.bytes > 0) {
      idx.has_io_bytes = true;
    }
  }
}

std::optional<SkewDriftModel> UnifiedTraceStore::fit_model(
    const std::vector<trace::TraceEvent>& clock_probes,
    StoreSourceInfo& info) const {
  if (clock_probes.empty()) {
    return std::nullopt;
  }
  try {
    SkewDriftModel model = SkewDriftModel::fit(clock_probes);
    info.time_corrected = true;
    return model;
  } catch (const Error&) {
    return std::nullopt;  // incomplete probe sets: fall back to raw stamps
  }
}

std::size_t UnifiedTraceStore::ingest_source(
    StoreSourceInfo info, trace::EventBatch batch,
    const std::optional<SkewDriftModel>& model,
    const std::vector<trace::DependencyEdge>& dependencies) {
  if (model.has_value()) {
    for (std::size_t i = 0; i < batch.size(); ++i) {
      correct_record(batch, i, *model);
    }
  }
  metrics().ingest_flushes.add(1);
  metrics().ingest_events.add(batch.size());
  if (stream_.has_value() && batch.size() <= stream_->flush_events) {
    return stream_append(std::move(info), std::move(batch), dependencies);
  }
  // Any non-absorbing ingest closes the open era first, so it stays the
  // last pool and pool order stays source order.
  const bool sealed_era = seal_open_era();
  StorePool pool;
  pool.batch = std::move(batch);
  return file_pool(std::move(pool), std::move(info), dependencies,
                   sealed_era);
}

std::size_t UnifiedTraceStore::add_source(
    StoreSourceInfo info, std::size_t events,
    const std::vector<trace::DependencyEdge>& dependencies) {
  info.events = static_cast<long long>(events);
  total_events_ += info.events;
  dependencies_.insert(dependencies_.end(), dependencies.begin(),
                       dependencies.end());
  sources_.push_back(std::move(info));
  return sources_.size() - 1;
}

void UnifiedTraceStore::drop_source(std::size_t dependencies) {
  total_events_ -= sources_.back().events;
  sources_.pop_back();
  dependencies_.resize(dependencies_.size() - dependencies);
}

std::size_t UnifiedTraceStore::file_pool(
    StorePool pool, StoreSourceInfo info,
    const std::vector<trace::DependencyEdge>& dependencies, bool sealed_era) {
  const std::size_t records =
      pool.blocks.has_value() ? pool.blocks->size() : pool.batch.size();
  pool.first_source = add_source(std::move(info), records, dependencies);
  index_pool(pool);
  pools_.push_back(std::move(pool));
  try {
    notify_ingest(pools_.size() - 1, 0, records);
  } catch (...) {
    pools_.pop_back();
    if (sealed_era) {
      pools_.back().open = true;
    }
    drop_source(dependencies.size());
    throw;
  }
  return pools_.back().first_source;
}

std::size_t UnifiedTraceStore::stream_append(
    StoreSourceInfo info, trace::EventBatch batch,
    const std::vector<trace::DependencyEdge>& dependencies) {
  std::size_t source_index = 0;
  if (pools_.empty() || !pools_.back().open) {
    StorePool pool;
    pool.batch = std::move(batch);
    pool.open = true;
    pool.flushes = 1;
    source_index = file_pool(std::move(pool), std::move(info), dependencies,
                             /*sealed_era=*/false);
  } else {
    // Appending re-interns string ids, exactly as compact() merging these
    // pools later would have — which is why era-ingested stores answer
    // every query bit-identically to one-pool-per-flush stores.
    StorePool& pool = pools_.back();
    const std::size_t old_size = pool.batch.size();
    const std::size_t old_strings = pool.batch.pool().size();
    source_index = add_source(std::move(info), batch.size(), dependencies);
    pool.batch.append(batch);
    pool.source_count += 1;
    pool.flushes += 1;
    extend_open_index(pool, old_size, pool.batch.size());
    try {
      notify_ingest(pools_.size() - 1, old_size, pool.batch.size());
    } catch (...) {
      // Rebuild the era as it stood before the append. Strings re-intern
      // in id order, so every id keeps its value.
      trace::EventBatch before;
      for (trace::StrId id = 0; id < old_strings; ++id) {
        (void)before.pool().intern(pool.batch.pool().view(id));
      }
      for (std::size_t i = 0; i < old_size; ++i) {
        before.append_raw(pool.batch.record(i), pool.batch.args(i));
      }
      pool.batch = std::move(before);
      pool.source_count -= 1;
      pool.flushes -= 1;
      index_pool(pool);
      drop_source(dependencies.size());
      throw;
    }
  }
  const StorePool& era = pools_.back();
  if (approx_batch_bytes(era.batch) >= stream_->era_bytes) {
    seal_open_era();
  }
  return source_index;
}

void UnifiedTraceStore::extend_open_index(StorePool& pool, std::size_t begin,
                                          std::size_t end) {
  PoolIndex& idx = pool.index;
  // The append re-interned: the transfer calls may have just (re)appeared
  // and the string table may have grown. StringPool::find is a hash
  // lookup, so this stays O(appended records), never a rescan.
  idx.sys_write_id = pool.batch.pool().find("SYS_write").value_or(0);
  idx.sys_read_id = pool.batch.pool().find("SYS_read").value_or(0);
  if (idx.name_present.size() < pool.batch.pool().size()) {
    idx.name_present.resize(pool.batch.pool().size(), false);
  }
  fold_index_records(idx, pool.batch, begin, end);
}

bool UnifiedTraceStore::seal_open_era() {
  if (pools_.empty() || !pools_.back().open) {
    return false;
  }
  pools_.back().open = false;
  metrics().era_seals.add(1);
  return true;
}

void UnifiedTraceStore::notify_ingest(std::size_t pool, std::size_t begin,
                                      std::size_t end) {
  if (ingest_listener_ && begin != end) {
    ingest_listener_(pool, begin, end);
  }
}

std::size_t UnifiedTraceStore::ingest(const trace::TraceBundle& bundle) {
  StoreSourceInfo info = parse_source_info(bundle.metadata);
  const std::optional<SkewDriftModel> model =
      fit_model(bundle.clock_probes, info);

  trace::EventBatch batch;
  for (const trace::RankStream& rs : bundle.ranks) {
    for (const trace::TraceEvent& ev : rs.events) {
      batch.append(ev);
    }
  }
  return ingest_source(std::move(info), std::move(batch), model,
                       bundle.dependencies);
}

std::size_t UnifiedTraceStore::ingest(
    const trace::EventBatch& batch,
    const std::map<std::string, std::string>& metadata,
    const std::vector<trace::TraceEvent>& clock_probes,
    const std::vector<trace::DependencyEdge>& dependencies) {
  StoreSourceInfo info = parse_source_info(metadata);
  const std::optional<SkewDriftModel> model = fit_model(clock_probes, info);

  trace::EventBatch stored;
  stored.append(batch);  // re-intern into the store's own pool
  return ingest_source(std::move(info), std::move(stored), model,
                       dependencies);
}

std::size_t UnifiedTraceStore::ingest_view(
    trace::MappedTraceFile file,
    const std::map<std::string, std::string>& metadata,
    const std::optional<CipherKey>& key) {
  // The view borrows the mapped bytes; MappedTraceFile guarantees they do
  // not relocate when the file object itself is moved into the pool.
  trace::BlockView view(file.bytes(), key);
  return ingest_view(std::move(file), std::move(view), metadata);
}

std::size_t UnifiedTraceStore::ingest_view(
    trace::MappedTraceFile file, trace::BlockView view,
    const std::map<std::string, std::string>& metadata) {
  const std::span<const std::uint8_t> bytes = file.bytes();
  if (view.buffer().data() != bytes.data() ||
      view.buffer().size() != bytes.size()) {
    throw ConfigError(
        "unified store: the view does not borrow the given mapped file");
  }
  metrics().ingest_flushes.add(1);
  metrics().ingest_events.add(view.size());
  if (stream_.has_value() && view.size() <= stream_->flush_events) {
    trace::EventBatch batch = view.to_batch();
    return stream_append(parse_source_info(metadata), std::move(batch), {});
  }
  const bool sealed_era = seal_open_era();
  StorePool pool;
  pool.blocks.emplace(std::move(view));
  pool.file = std::move(file);
  StoreSourceInfo info = parse_source_info(metadata);
  info.view_backed = true;
  metrics().index_adopted.add(1);  // built from the footer, no block decoded
  return file_pool(std::move(pool), std::move(info), {}, sealed_era);
}

std::size_t UnifiedTraceStore::ingest_view(
    const std::string& path,
    const std::map<std::string, std::string>& metadata,
    const std::optional<CipherKey>& key) {
  // The open touches only the head and footer pages — don't prefault the
  // block pages; queries fault in just the blocks they decode.
  return ingest_view(trace::MappedTraceFile(path, /*prefault=*/false),
                     metadata, key);
}

std::size_t UnifiedTraceStore::compact(std::size_t era_bytes) {
  metrics().compact_calls.add(1);
  // Compaction is an era boundary: the open era is sealed and becomes an
  // ordinary merge candidate (the cold overload inherits this via the
  // delegation below).
  seal_open_era();
  std::vector<StorePool> merged;
  merged.reserve(pools_.size());
  std::size_t i = 0;
  while (i < pools_.size()) {
    StorePool era = std::move(pools_[i]);
    ++i;
    if (era.blocks.has_value()) {
      merged.push_back(std::move(era));  // block pools are never re-read
      continue;
    }
    std::size_t era_size = approx_batch_bytes(era.batch);
    bool grew = false;
    while (i < pools_.size() && !pools_[i].blocks.has_value()) {
      const std::size_t next = approx_batch_bytes(pools_[i].batch);
      if (era_size + next > era_bytes) {
        break;
      }
      // Record order within the era stays source order, so every query
      // (including hottest_files' cross-source fd carryover fold) sees
      // exactly the records the uncompacted pools would have produced.
      era.batch.append(pools_[i].batch);
      era.source_count += pools_[i].source_count;
      era_size += next;
      grew = true;
      ++i;
    }
    if (grew) {
      index_pool(era);  // ids were re-interned; rebuild the presence filter
    }
    merged.push_back(std::move(era));
  }
  pools_ = std::move(merged);
  return pools_.size();
}

std::size_t UnifiedTraceStore::compact(std::size_t era_bytes,
                                       const ColdTierOptions& cold) {
  compact(era_bytes);
  // The directory's commit record: load it up front so era numbering
  // continues past everything already committed there (by this store, an
  // earlier incarnation, or another writer using the same directory).
  StoreManifest manifest =
      StoreManifest::load(cold.directory).value_or(StoreManifest{});
  cold_era_seq_ = std::max(cold_era_seq_,
                           static_cast<std::size_t>(manifest.next_seq));
  for (StorePool& pool : pools_) {
    if (pool.blocks.has_value()) {
      continue;  // already cold (or ingested in place)
    }
    fail::point("store.cold.spill");
    // Covers the whole spill: encode, durable write, manifest commit and
    // the swap onto the mapped container.
    const obs::ScopedTimer spill_timer(metrics().spill_ns);
    const std::vector<std::uint8_t> container =
        trace::encode_binary_v3(pool.batch, cold.binary, cold.block_records);
    // Era numbers come from a store-lifetime counter, never per-call: an
    // earlier compaction's era file may still back a live block pool's
    // mmap, and truncating it would SIGBUS every query on that pool.
    const std::uint64_t seq = cold_era_seq_;
    const std::string name =
        cold.file_prefix + "-" + std::to_string(seq) + ".iotb3";
    const std::string path = cold.directory + "/" + name;
    if (std::filesystem::exists(path)) {
      throw IoError("unified store: cold era '" + path +
                    "' already exists; refusing to overwrite");
    }
    // Durable era first (tmp + fsync + atomic rename + dirsync), then the
    // manifest through the same protocol. The manifest rename is the
    // commit point: a crash anywhere earlier leaves at worst a torn .tmp
    // (deleted by recovery) or an uncommitted era file (quarantined, never
    // served) — the previously committed state is untouched either way.
    trace::write_binary_file(path, container, "store.cold");
    ++cold_era_seq_;
    manifest.entries.push_back({name, container.size(),
                                crc32(std::span<const std::uint8_t>(
                                    container.data(), container.size())),
                                seq});
    manifest.next_seq = cold_era_seq_;
    fail::point("store.manifest.update");
    manifest.store(cold.directory);
    metrics().eras_spilled.add(1);
    metrics().compact_bytes.add(container.size());
    metrics().manifest_commits.add(1);
    trace::MappedTraceFile file(path);
    fail::point("store.cold.swap");
    // Swap-in must open what was just written: an encrypted era needs the
    // same key the encoder was handed.
    trace::BlockView view(file.bytes(), cold.binary.encrypt
                                           ? cold.binary.key
                                           : std::optional<CipherKey>{});
    // Swap the pool onto the container before releasing the batch, so a
    // failed map/open above leaves the store untouched.
    pool.blocks.emplace(std::move(view));
    pool.file = std::move(file);
    pool.batch = trace::EventBatch();
    for (std::size_t s = pool.first_source;
         s < pool.first_source + pool.source_count; ++s) {
      sources_[s].view_backed = true;
    }
    index_pool(pool);  // rebuilt from the footer (ids are unchanged)
  }
  return pools_.size();
}

StoreHealth UnifiedTraceStore::attach_dir(const std::string& directory,
                                          const AttachOptions& options) {
  namespace fs = std::filesystem;
  const obs::ScopedTimer attach_timer(metrics().attach_ns);
  StoreHealth health;
  std::error_code ec;
  fs::directory_iterator dir_it(directory, ec);
  if (ec) {
    throw IoError("unified store: cannot read directory '" + directory +
                  "'");
  }

  // Pass 1: sweep torn write leftovers and collect container candidates.
  // A .tmp file is by construction uncommitted (the protocol renames it
  // away before the manifest commit), so deleting it can never lose data.
  std::vector<std::string> names;
  for (const fs::directory_entry& entry : dir_it) {
    if (!entry.is_regular_file(ec)) {
      continue;
    }
    const std::string name = entry.path().filename().string();
    if (name.size() > 4 && name.compare(name.size() - 4, 4, ".tmp") == 0) {
      fs::remove(entry.path(), ec);
      if (!ec) {
        ++health.torn_tmps_removed;
        IOTAXO_LOG(LogLevel::kInfo)
            << "attach_dir: removed torn write leftover '" << name << "'";
      }
      continue;
    }
    if (name == kManifestFileName) {
      continue;
    }
    if (is_container_name(name)) {
      names.push_back(name);
    }
  }
  // Attach order must not depend on directory iteration order: sort by
  // era sequence (then name), the order the eras were committed in.
  std::sort(names.begin(), names.end(), era_order_less);

  // Whatever happens below, later cold compactions into this directory
  // must not collide with any file already present — committed or not.
  for (const std::string& name : names) {
    if (const auto seq = parse_era_seq(name)) {
      cold_era_seq_ =
          std::max(cold_era_seq_, static_cast<std::size_t>(*seq) + 1);
    }
  }

  const auto quarantine = [&health](const std::string& file,
                                    std::string reason) {
    IOTAXO_LOG(LogLevel::kWarn)
        << "attach_dir: quarantined '" << file << "': " << reason;
    health.quarantined.push_back({file, std::move(reason)});
  };

  // Pass 2: the manifest decides what is committed. A corrupt manifest is
  // itself quarantined and recovery degrades to open-validation of every
  // container (the pre-manifest behavior) rather than refusing the
  // directory.
  std::optional<StoreManifest> manifest;
  try {
    manifest = StoreManifest::load(directory);
  } catch (const Error& e) {
    quarantine(std::string(kManifestFileName), e.what());
  }

  if (manifest.has_value()) {
    cold_era_seq_ = std::max(
        cold_era_seq_, static_cast<std::size_t>(manifest->next_seq));
    std::set<std::string> listed;
    for (const ManifestEntry& e : manifest->entries) {
      listed.insert(e.name);
      const std::string path = directory + "/" + e.name;
      std::error_code sec;
      const std::uintmax_t size = fs::file_size(path, sec);
      if (sec) {
        quarantine(e.name, "listed in manifest but missing on disk");
        continue;
      }
      if (size != e.size) {
        quarantine(e.name, "size " + std::to_string(size) +
                               " != manifest's " + std::to_string(e.size));
        continue;
      }
      try {
        trace::MappedTraceFile file(path);
        if (crc32(file.bytes()) != e.crc) {
          quarantine(e.name, "file CRC does not match the manifest");
          continue;
        }
        ingest_view(std::move(file), options.metadata, options.key);
        ++health.recovered_eras;
      } catch (const Error& err) {
        quarantine(e.name, err.what());
      }
    }
    for (const std::string& name : names) {
      if (listed.find(name) == listed.end()) {
        quarantine(name,
                   "not committed in the manifest (crash between era "
                   "rename and manifest update?)");
      }
    }
  } else {
    // No trustworthy manifest: serve every container that opens and
    // validates cleanly, quarantine the rest.
    for (const std::string& name : names) {
      try {
        ingest_view(directory + "/" + name, options.metadata, options.key);
        ++health.recovered_eras;
      } catch (const Error& err) {
        quarantine(name, err.what());
      }
    }
  }
  metrics().attach_recovered.add(health.recovered_eras);
  metrics().attach_quarantined.add(health.quarantined.size());
  metrics().attach_torn_tmps.add(health.torn_tmps_removed);
  IOTAXO_LOG(LogLevel::kInfo)
      << "attach_dir: '" << directory << "' recovered "
      << health.recovered_eras << " era(s), quarantined "
      << health.quarantined.size() << ", removed "
      << health.torn_tmps_removed << " torn tmp(s)";
  return health;
}

std::vector<StorePoolInfo> UnifiedTraceStore::pool_infos() const {
  std::vector<StorePoolInfo> infos;
  infos.reserve(pools_.size());
  for (const StorePool& pool : pools_) {
    StorePoolInfo info;
    info.first_source = pool.first_source;
    info.source_count = pool.source_count;
    if (pool.blocks.has_value()) {
      info.block_backed = true;
      info.blocks = pool.blocks->block_count();
      info.records = static_cast<long long>(pool.blocks->size());
      info.approx_bytes = pool.file.size();
      info.encrypted = pool.blocks->encrypted();
      info.stored_bytes = pool.blocks->stored_bytes_total();
      info.decoded_stored_bytes = pool.blocks->decoded_stored_bytes();
      info.damaged_blocks = pool.blocks->failed_blocks();
    } else {
      info.records = static_cast<long long>(pool.batch.size());
      info.approx_bytes = approx_batch_bytes(pool.batch);
    }
    info.any = pool.index.any;
    if (info.any) {
      info.min_time = pool.index.min_time;
      info.max_time = pool.index.max_time;
    }
    info.open_era = pool.open;
    info.flushes_absorbed = pool.flushes;
    infos.push_back(info);
  }
  return infos;
}

void UnifiedTraceStore::check_pool_index(std::size_t p) const {
  if (p >= pools_.size()) {
    throw ConfigError("unified store: pool index out of range");
  }
}

const UnifiedTraceStore::StorePool& UnifiedTraceStore::pool_for(
    std::size_t source) const {
  // Pools are sorted by first_source; find the last pool starting at or
  // before `source`.
  const auto it = std::upper_bound(
      pools_.begin(), pools_.end(), source,
      [](std::size_t s, const StorePool& p) { return s < p.first_source; });
  return *(it - 1);
}

const trace::EventBatch& UnifiedTraceStore::source_batch(
    std::size_t source) const {
  if (source >= sources_.size()) {
    throw ConfigError("unified store: source index out of range");
  }
  const StorePool& pool = pool_for(source);
  if (pool.blocks.has_value()) {
    throw ConfigError(
        "unified store: source is block-backed; its records live in the "
        "mapped container, not an owned batch");
  }
  if (pool.source_count != 1) {
    throw ConfigError(
        "unified store: source was merged into an era by compact(); "
        "per-source batches no longer exist");
  }
  return pool.batch;
}

void UnifiedTraceStore::note_damage(std::uint64_t records) const noexcept {
  damage_->blocks.fetch_add(1, std::memory_order_relaxed);
  damage_->records.fetch_add(records, std::memory_order_relaxed);
  metrics().damage_blocks.add(1);
  metrics().damage_records.add(records);
}

void UnifiedTraceStore::note_scan(std::size_t pools_skipped,
                                  std::size_t segments_scanned,
                                  std::size_t segments_skipped) const noexcept {
  metrics().pools_skipped.add(pools_skipped);
  metrics().segments_scanned.add(segments_scanned);
  metrics().segments_skipped.add(segments_skipped);
}

std::map<std::string, CallStats> UnifiedTraceStore::call_stats() const {
  metrics().queries.add(1);
  const obs::ScopedTimer query_timer(metrics().call_stats_ns);
  struct Partial {
    std::map<std::string, CallStats> stats;
    std::vector<trace::scan::CallAccum> rows;  // reused across the pools
  };
  const auto partials = scan_pools(
      ScanPredicate{}, query_threads_, Partial{},
      [](Partial& part, std::size_t, const auto& acc, auto&& segments) {
        // Accumulate per string id into a flat row table (the SIMD
        // kernel's scatter target), then fold the touched rows into the
        // name map — one map lookup per distinct name per pool.
        std::vector<trace::scan::CallAccum>& rows = part.rows;
        rows.assign(acc.string_count(), trace::scan::CallAccum{});
        segments([&](const auto& s) {
          if (s.hot != nullptr) {
            trace::scan::accumulate_call_stats_hot(s.hot, s.size(),
                                                   rows.data());
          } else {
            s.for_each([&](const auto& rec) {
              trace::scan::CallAccum& row = rows[rec.name()];
              ++row.count;
              row.time += rec.duration();
              if (rec.is_io_call()) {
                row.bytes += rec.bytes();
              }
            });
          }
        });
        for (std::size_t id = 0; id < rows.size(); ++id) {
          const trace::scan::CallAccum& row = rows[id];
          if (row.count == 0) {
            continue;
          }
          CallStats& slot = part.stats[std::string(
              acc.string(static_cast<trace::StrId>(id)))];
          slot.count += row.count;
          slot.total_time += row.time;
          slot.total_bytes += row.bytes;
        }
      });
  // Sums commute, so merging the chunk partials matches the serial
  // single-map scan exactly.
  std::map<std::string, CallStats> stats;
  for (const Partial& partial : partials) {
    for (const auto& [name, s] : partial.stats) {
      CallStats& merged = stats[name];
      merged.count += s.count;
      merged.total_time += s.total_time;
      merged.total_bytes += s.total_bytes;
    }
  }
  return stats;
}

std::vector<trace::TraceEvent> UnifiedTraceStore::rank_timeline(
    int rank) const {
  metrics().queries.add(1);
  const obs::ScopedTimer query_timer(metrics().rank_timeline_ns);
  // The scan selects rows by rank and materializes each selected row once,
  // in store order, while its decoded block is still in cache
  // (materializing after the sort re-reads rows out of order, and measured
  // slower). Sorting the stamps then permutes the events into place, so
  // the timeline is never held twice. materialize() reads every column, so
  // the scan decodes whole records.
  struct Partial {
    std::vector<trace::TraceEvent> events;
    std::vector<SimTime> stamps;
  };
  ScanPredicate pred;
  pred.hot_only = false;
  auto partials = scan_pools(
      pred, query_threads_, Partial{},
      [rank](Partial& part, std::size_t, const auto&, auto&& segments) {
        segments([&](const auto& s) {
          std::uint32_t args_begin = s.acc.segment_args_begin(s.segment);
          std::size_t row = s.begin;
          s.for_each_whole([&](const auto& rec) {
            if (rec.rank() == rank) {
              part.events.push_back(s.acc.materialize(row, args_begin));
              part.stamps.push_back(rec.local_start());
            }
            args_begin += rec.args_count();
            ++row;
          });
        });
      });
  std::vector<trace::TraceEvent> out = std::move(partials.front().events);
  std::vector<SimTime> stamps = std::move(partials.front().stamps);
  for (std::size_t c = 1; c < partials.size(); ++c) {
    out.insert(out.end(), std::make_move_iterator(partials[c].events.begin()),
               std::make_move_iterator(partials[c].events.end()));
    stamps.insert(stamps.end(), partials[c].stamps.begin(),
                  partials[c].stamps.end());
  }
  // order[k] is the store-order index of the k-th event by stamp; ties keep
  // store order.
  std::vector<std::size_t> order(out.size());
  for (std::size_t i = 0; i < order.size(); ++i) {
    order[i] = i;
  }
  std::sort(order.begin(), order.end(), [&](std::size_t a, std::size_t b) {
    return stamps[a] != stamps[b] ? stamps[a] < stamps[b] : a < b;
  });
  // Apply the permutation in place, one cycle at a time.
  for (std::size_t k = 0; k < order.size(); ++k) {
    if (order[k] == k) {
      continue;
    }
    trace::TraceEvent held = std::move(out[k]);
    std::size_t j = k;
    while (order[j] != k) {
      out[j] = std::move(out[order[j]]);
      const std::size_t next = order[j];
      order[j] = j;
      j = next;
    }
    out[j] = std::move(held);
    order[j] = j;
  }
  return out;
}

Bytes UnifiedTraceStore::bytes_in_window(SimTime begin, SimTime end) const {
  metrics().queries.add(1);
  const obs::ScopedTimer query_timer(metrics().bytes_in_window_ns);
  ScanPredicate pred;
  pred.window = ScanPredicate::Window{begin, end};
  pred.transfer = true;
  const auto partials = scan_pools(
      pred, query_threads_, Bytes{0},
      [&](Bytes& total, std::size_t p, const auto&, auto&& segments) {
        const PoolIndex& idx = pools_[p].index;
        segments([&](const auto& s) {
          if (s.hot != nullptr) {
            total += trace::scan::sum_transfer_bytes_in_window_hot(
                s.hot, s.size(), idx.sys_write_id, idx.sys_read_id, begin,
                end);
          } else {
            s.for_each([&](const auto& rec) {
              if (is_transfer(rec, idx.sys_write_id, idx.sys_read_id) &&
                  rec.local_start() >= begin && rec.local_start() < end) {
                total += rec.bytes();
              }
            });
          }
        });
      });
  Bytes total = 0;
  for (const Bytes b : partials) {
    total += b;
  }
  return total;
}

std::vector<std::pair<SimTime, Bytes>> UnifiedTraceStore::io_rate_series(
    SimTime bucket_width) const {
  metrics().queries.add(1);
  const obs::ScopedTimer query_timer(metrics().io_rate_series_ns);
  std::vector<std::pair<SimTime, Bytes>> series;
  if (total_events_ == 0 || bucket_width <= 0) {
    return series;
  }
  // The pool indexes hold each pool's exact min/max corrected stamp (a
  // record fold for owned pools, the footer bounds for block pools), so
  // the span never touches a record.
  PoolIndex span;
  for (const StorePool& pool : pools_) {
    if (pool.index.any) {
      span.widen(pool.index.min_time, pool.index.max_time);
    }
  }
  if (!span.any) {
    return series;
  }
  const SimTime lo = span.min_time;
  // One buckets-length partial per worker chunk (not per pool), so peak
  // memory stays bounded by thread count even for fine buckets over many
  // pools; bucket additions commute, so the merge is exact.
  const auto buckets =
      static_cast<std::size_t>((span.max_time - lo) / bucket_width) + 1;
  ScanPredicate pred;
  pred.transfer = true;
  const auto partials = scan_pools(
      pred, query_threads_, std::vector<Bytes>(buckets, 0),
      [&](std::vector<Bytes>& sums, std::size_t p, const auto&,
          auto&& segments) {
        const PoolIndex& idx = pools_[p].index;
        segments([&](const auto& s) {
          s.for_each([&](const auto& rec) {
            if (is_transfer(rec, idx.sys_write_id, idx.sys_read_id)) {
              sums[static_cast<std::size_t>((rec.local_start() - lo) /
                                            bucket_width)] += rec.bytes();
            }
          });
        });
      });
  std::vector<Bytes> sums(buckets, 0);
  for (const std::vector<Bytes>& partial : partials) {
    for (std::size_t i = 0; i < buckets; ++i) {
      sums[i] += partial[i];
    }
  }
  series.reserve(buckets);
  for (std::size_t i = 0; i < buckets; ++i) {
    series.emplace_back(lo + static_cast<SimTime>(i) * bucket_width, sums[i]);
  }
  return series;
}

std::vector<FileHeat> UnifiedTraceStore::hottest_files(
    std::size_t limit) const {
  metrics().queries.add(1);
  const obs::ScopedTimer query_timer(metrics().hottest_files_ns);
  struct Tally {
    long long ops = 0;
    Bytes lib_bytes = 0;
    Bytes lower_bytes = 0;  // syscall + VFS views of the same transfers

    void add(bool lib, Bytes bytes) {
      ++ops;
      (lib ? lib_bytes : lower_bytes) += bytes;
    }
  };
  // The best-effort fd -> path map threads serially through the pools (an
  // fd opened in pool k resolves path-less transfers in pool k+1), so the
  // scan runs in two phases: a parallel per-pool pass that resolves what
  // it can locally and records (a) its unresolved transfers and (b) the
  // fd -> path writes it would leave behind, then a serial fold over pools
  // that resolves the leftovers against the carried map. Within a pool the
  // local map always wins (it holds the most recent write), which is
  // exactly the state the serial single-map scan would have seen.
  struct PoolScan {
    std::vector<std::pair<std::string, Tally>> by_path;
    std::vector<std::pair<std::int32_t, std::string>> fd_delta;  // last write
    struct Unresolved {
      std::int32_t fd = -1;
      bool lib = false;
      Bytes bytes = 0;
    };
    std::vector<Unresolved> unresolved;
  };
  // A pool tallies by path id into `rows` (id 0, no path, is "(unknown)")
  // and keeps its fd -> path-id writes in `fds`; both are scratch reused
  // across the chunk's pools. Ids become strings once, at the end of the
  // pool. Partials keep one PoolScan per pool, since the serial fold needs
  // each pool's fd delta separately. A pool or segment with neither fd/path
  // records nor byte-moving I/O calls writes no fd delta and no transfer,
  // so skipping it leaves the fold's state as is. Paths and fds live in the
  // cold column group: whole records.
  struct Partial {
    std::vector<PoolScan> pools;
    std::vector<Tally> rows;
    IntKeyTable<trace::StrId> fds;
  };
  ScanPredicate pred;
  pred.fd_path_or_io_bytes = true;
  pred.hot_only = false;
  auto partials = scan_pools(
      pred, query_threads_, Partial{},
      [](Partial& part, std::size_t, const auto& acc, auto&& segments) {
        PoolScan& scan = part.pools.emplace_back();
        std::vector<Tally>& rows = part.rows;
        IntKeyTable<trace::StrId>& fds = part.fds;
        rows.assign(acc.string_count(), Tally{});
        fds.clear();
        segments([&](const auto& s) {
          s.for_each_whole([&](const auto& rec) {
            const trace::StrId path = rec.path();
            const std::int32_t fd = rec.fd();
            if (path != 0 && fd >= 0) {
              fds[fd] = path;
            }
            if (!rec.is_io_call() || rec.bytes() <= 0) {
              return;
            }
            const bool lib = rec.cls() == trace::EventClass::kLibraryCall;
            trace::StrId file = path;
            if (file == 0 && fd >= 0) {
              file = fds.get(fd);
              if (file == 0) {
                scan.unresolved.push_back({fd, lib, rec.bytes()});
                return;
              }
            }
            // Library wrappers and the syscalls beneath them report the
            // same transfer; the views are tallied apart and the larger
            // wins (captures lib-only traces like //TRACE's without double
            // counting ltrace's dual view).
            rows[file].add(lib, rec.bytes());
          });
        });
        for (std::size_t id = 0; id < rows.size(); ++id) {
          if (rows[id].ops != 0) {
            scan.by_path.emplace_back(
                id == 0 ? std::string("(unknown)")
                        : std::string(acc.string(static_cast<trace::StrId>(id))),
                rows[id]);
          }
        }
        fds.for_each([&](std::int32_t fd, trace::StrId id) {
          scan.fd_delta.emplace_back(fd, std::string(acc.string(id)));
        });
      });

  std::map<std::string, Tally> by_path;
  std::map<std::int32_t, std::string> carried;  // fd -> path across pools
  for (Partial& part : partials) {
    for (PoolScan& scan : part.pools) {
      for (const PoolScan::Unresolved& u : scan.unresolved) {
        const auto it = carried.find(u.fd);
        by_path[it == carried.end() ? std::string("(unknown)") : it->second]
            .add(u.lib, u.bytes);
      }
      for (const auto& [path, tally] : scan.by_path) {
        Tally& merged = by_path[path];
        merged.ops += tally.ops;
        merged.lib_bytes += tally.lib_bytes;
        merged.lower_bytes += tally.lower_bytes;
      }
      for (auto& [fd, path] : scan.fd_delta) {
        carried[fd] = std::move(path);
      }
    }
  }

  std::vector<FileHeat> out;
  out.reserve(by_path.size());
  for (const auto& [path, tally] : by_path) {
    out.push_back(
        {path, tally.ops, std::max(tally.lib_bytes, tally.lower_bytes)});
  }
  std::sort(out.begin(), out.end(), [](const FileHeat& a, const FileHeat& b) {
    return a.bytes > b.bytes;
  });
  if (out.size() > limit) {
    out.resize(limit);
  }
  return out;
}

}  // namespace iotaxo::analysis
