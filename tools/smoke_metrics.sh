#!/usr/bin/env bash
# Armed-metrics CLI smoke: metrics are inert when IOTAXO_METRICS is unset,
# an armed capture and an armed stat must emit the per-run JSON report
# with the instrumented layers lit up, and a disarmed run must print no
# metrics surface. ctest runs it as `metrics_smoke`.
#
#   tools/smoke_metrics.sh path/to/iotaxo_cli path/to/metrics_test
set -euo pipefail

CLI="${1:?usage: smoke_metrics.sh path/to/iotaxo_cli path/to/metrics_test}"
METRICS_TEST="${2:?usage: smoke_metrics.sh path/to/iotaxo_cli path/to/metrics_test}"
METRICS_TMP="$(mktemp -d)"
trap 'rm -rf "${METRICS_TMP}"' EXIT

fail() {
  echo "METRICS FAIL: $*"
  exit 1
}

# Metrics must be inert when IOTAXO_METRICS is unset — the disarmed mirror
# of the faults smoke's failpoint check.
env -u IOTAXO_METRICS "${METRICS_TEST}" \
  --gtest_filter='Metrics.InactiveByDefault' > /dev/null ||
  fail "metrics are not inert without IOTAXO_METRICS"

# A cold encrypted multi-block container statted with --metrics-out has
# to show decode work, stage timings, index skips, and the durable write
# that produced the file.
"${CLI}" trace --framework lanl --workload mpiio \
  --ranks 4 --binary-out "${METRICS_TMP}/m.iotb3" --key smoke \
  --block-records 256 \
  --metrics-out "${METRICS_TMP}/trace_metrics.json" > /dev/null
"${CLI}" stat "${METRICS_TMP}/m.iotb3" --key smoke \
  --metrics-out "${METRICS_TMP}/stat_metrics.json" > "${METRICS_TMP}/stat.out"
for key in metrics_schema block.decode.stored_bytes block.decode.crc_ns \
           block.decode.decrypt_ns block.decode.decompress_ns \
           store.query.count store.query.segments_scanned \
           store.query.segments_skipped store.query.bytes_in_window_ns \
           sink.batch.flushes sink.batch.events block.encode.compress_ns \
           block.encode.crc_ns block.encode.encrypt_ns \
           durable.write.fsync_ns; do
  grep -q "\"${key}\"" "${METRICS_TMP}/stat_metrics.json" ||
    fail "stat_metrics.json is missing '${key}'"
done
# The trace run's report carries the capture's batch deliveries, the
# encode stages and the durable write of the container.
grep -q '"durable.write.files": 1' "${METRICS_TMP}/trace_metrics.json" ||
  fail "trace_metrics.json did not count the durable write"
for key in sink.batch.flushes sink.batch.events; do
  if grep -q "\"${key}\": 0" "${METRICS_TMP}/trace_metrics.json"; then
    fail "armed trace counted no '${key}'"
  fi
done
for key in block.encode.compress_ns block.encode.crc_ns \
           block.encode.encrypt_ns; do
  if grep -q "\"${key}\": {\"count\": 0" "${METRICS_TMP}/trace_metrics.json"; then
    fail "armed trace timed no '${key}'"
  fi
done
# The armed stat run decoded blocks and skipped others by index, and its
# call table and window probe read hot column groups only.
if grep -q '"block.decode.stored_bytes": 0' "${METRICS_TMP}/stat_metrics.json"; then
  fail "armed stat reported zero decoded bytes"
fi
grep -q '"block.decode.full_blocks": 0' "${METRICS_TMP}/stat_metrics.json" ||
  fail "armed stat decoded cold column groups"
if grep -q '"store.query.segments_skipped": 0' "${METRICS_TMP}/stat_metrics.json"; then
  fail "armed stat's window probe skipped no blocks"
fi
# A plain (disarmed) run prints no metrics surface at all.
"${CLI}" stat "${METRICS_TMP}/m.iotb3" --key smoke > "${METRICS_TMP}/plain.out"
if grep -qE 'metrics|window probe' "${METRICS_TMP}/plain.out"; then
  fail "disarmed stat printed a metrics surface"
fi
# IOTAXO_METRICS=FILE arms from the environment alone and dumps at exit.
IOTAXO_METRICS="${METRICS_TMP}/env_dump.json" \
  "${CLI}" stat "${METRICS_TMP}/m.iotb3" --key smoke > /dev/null
grep -q '"block.decode.stored_bytes"' "${METRICS_TMP}/env_dump.json" ||
  fail "IOTAXO_METRICS=FILE produced no at-exit dump"
echo "metrics smoke ok: armed CLI report complete, disarmed run inert"
