// Tracefs (§2.2, §4.2): a stackable file system tracer. Mounted over a
// local or NFS file system it records every VFS operation that passes its
// granularity filter into buffered binary output with optional
// checksumming, compression and encryption of the record blocks, plus
// field-selective CBC encryption (anonymization) of names. It is implemented as a kernel module — root access and
// real installation effort — and was "not designed to trace parallel
// workloads": mounting it over the parallel file system throws
// UnsupportedError unless the (non-default) adaptation shim is enabled.
#pragma once

#include <optional>

#include "anon/anonymizer.h"
#include "frameworks/framework.h"
#include "frameworks/tracefs_filter.h"
#include "interpose/vfs_shim.h"

namespace iotaxo::frameworks {

struct TracefsParams {
  /// Granularity filter source; empty traces everything.
  std::string filter = "";
  /// Shim cost/feature model. The framework default delivers to its sinks
  /// in per-rank batches of 256 (direct VfsShim construction stays
  /// per-event unless asked otherwise).
  interpose::VfsShimOptions shim{.batch_capacity = 256};
  /// Per-run mount/unmount and module bookkeeping.
  SimTime mount_setup = from_millis(100.0);
  /// Fields to encrypt when anonymizing, and the secret.
  anon::FieldPolicy anonymize_fields{};
  std::string passphrase = "tracefs-secret";
  /// Out-of-the-box Tracefs does not run over the parallel file system;
  /// flipping this models the "adaptation for use on a parallel file
  /// system" the paper anticipates.
  bool enable_pfs_adaptation = false;
};

class Tracefs : public TracingFramework {
 public:
  explicit Tracefs(TracefsParams params = {});

  [[nodiscard]] std::string name() const override { return "Tracefs"; }
  [[nodiscard]] InstallProfile install_profile() const override;
  [[nodiscard]] Capabilities capabilities() const override;
  [[nodiscard]] bool supports_fs(fs::FsKind kind) const override;

  [[nodiscard]] TraceRunResult trace(const sim::Cluster& cluster,
                                     const mpi::Job& job, fs::VfsPtr vfs,
                                     const TraceJobOptions& options) override;

  /// Mount the tracing shim over an inner file system (exposed so tests
  /// and examples can stack manually). Throws UnsupportedError for
  /// unsupported file-system kinds.
  [[nodiscard]] std::shared_ptr<interpose::VfsShim> mount(
      fs::VfsPtr inner, trace::SinkPtr sink,
      const sim::Cluster* cluster) const;

  /// Tracefs's anonymization feature: field-selective CBC encryption of a
  /// captured bundle.
  [[nodiscard]] trace::TraceBundle anonymize(
      const trace::TraceBundle& bundle) const;

  [[nodiscard]] std::optional<trace::TraceBundle> anonymize_bundle(
      const trace::TraceBundle& bundle) const override {
    return anonymize(bundle);
  }

  /// Binary-encode a bundle's events the way Tracefs writes them to disk:
  /// one checksummed IOTB3 container whose blocks are compressed and
  /// encrypted when shim.compress / shim.encrypt are set. Encryption
  /// covers the record blocks only. The string table (every call name,
  /// path, host and argument string), the argument-id table and the
  /// per-block index (time range, flag bits, call-name bitmap) can be read
  /// without the key, as trace/binary_format.h documents. To keep names
  /// secret, encode anonymize(bundle): its paths and hosts are already
  /// field-encrypted, and EncryptingAnonymizer::reverse with the same
  /// passphrase restores them after decoding.
  [[nodiscard]] std::vector<std::uint8_t> encode_output(
      const trace::TraceBundle& bundle) const;

  [[nodiscard]] std::vector<std::uint8_t> export_native(
      const trace::TraceBundle& bundle) const override {
    return encode_output(bundle);
  }

  [[nodiscard]] const TracefsParams& params() const noexcept {
    return params_;
  }

 private:
  TracefsParams params_;
};

}  // namespace iotaxo::frameworks
