#!/usr/bin/env bash
# Streaming-ingest CLI smoke: a 1000-flush storm of small flushes must land
# in a bounded number of era pools (the whole point of the open batch), and
# a restart on the written IOTB3 era containers must build its pool indexes
# from their footers instead of decoding records. ctest runs it as
# `stream_smoke`.
#
#   tools/smoke_stream.sh path/to/iotaxo_cli
set -euo pipefail

CLI="${1:?usage: smoke_stream.sh path/to/iotaxo_cli}"
STREAM_TMP="$(mktemp -d)"
trap 'rm -rf "${STREAM_TMP}"' EXIT

fail() {
  echo "STREAM FAIL: $*"
  cat "${2:-/dev/null}"
  exit 1
}

# The storm runs with metrics and failpoints unset, and must stay inert:
# no metrics surface on its output.
env -u IOTAXO_METRICS -u IOTAXO_FAILPOINTS "${CLI}" stream \
  --dir "${STREAM_TMP}" --flushes 1000 --events 50 > "${STREAM_TMP}/capture.out"
if grep -qE 'metrics' "${STREAM_TMP}/capture.out"; then
  fail "disarmed stream run printed a metrics surface" "${STREAM_TMP}/capture.out"
fi
POOLS="$(sed -nE 's/^pools +: ([0-9]+).*/\1/p' "${STREAM_TMP}/capture.out")"
if [[ -z "${POOLS}" || "${POOLS}" -gt 32 ]]; then
  fail "1000 flushes produced ${POOLS:-?} pools (want <= 32)" \
    "${STREAM_TMP}/capture.out"
fi
"${CLI}" stream --dir "${STREAM_TMP}" --attach > "${STREAM_TMP}/attach.out"
ADOPTED="$(sed -nE 's/^indexes adopted +: ([0-9]+).*/\1/p' "${STREAM_TMP}/attach.out")"
if [[ -z "${ADOPTED}" || "${ADOPTED}" -eq 0 ]]; then
  fail "restart built ${ADOPTED:-?} indexes from footers (want > 0)" \
    "${STREAM_TMP}/attach.out"
fi
echo "stream smoke ok: 1000 flushes -> ${POOLS} pool(s); restart indexed ${ADOPTED} container(s) from footers"
