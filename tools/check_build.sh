#!/usr/bin/env bash
# Tier-1 verify gate: configure, build everything, run the full test suite.
# Exits nonzero on the first failure so CI and pre-PR checks can use it as a
# one-command gate:
#   ./tools/check_build.sh [build-dir]          # full build + full ctest
#   ./tools/check_build.sh --tsan [build-dir]   # ThreadSanitizer build, then
#                                               # the concurrency suites only
#   ./tools/check_build.sh --asan [build-dir]   # AddressSanitizer build +
#                                               # the full test suite
#   ./tools/check_build.sh --ubsan [build-dir]  # UBSan build + the full
#                                               # test suite
#   ./tools/check_build.sh --bench [build-dir]  # build, run the gated
#                                               # benches, and fail if any
#                                               # BENCH_*.json gate field
#                                               # regresses below its floor
#   ./tools/check_build.sh --faults [build-dir] # ASan build + the fault/
#                                               # recovery suites, then
#                                               # assert failpoints are inert
#                                               # without IOTAXO_FAILPOINTS
#                                               # and armable through it
#   ./tools/check_build.sh --metrics [build-dir]# build + the self-metrics
#                                               # suite, then assert metrics
#                                               # are inert when disarmed and
#                                               # that an armed CLI run emits
#                                               # the expected JSON key set
#   ./tools/check_build.sh --stream [build-dir] # build + the streaming-
#                                               # ingest suite, then drive
#                                               # 1000 small CLI flushes and
#                                               # assert the era batcher kept
#                                               # the pool count bounded and
#                                               # the restart built its pool
#                                               # indexes from the container
#                                               # footers
#
# Bench gating convention: a bench that wants a regression gate emits a pair
# of JSON keys, "<metric>" and "<metric>_floor". The floors live in the JSON
# artifact itself (written by the bench), so thresholds are declared exactly
# once — this script only compares measured >= floor. Benches also exit
# nonzero on their own hard gates (result-identity checks etc.).
set -euo pipefail

REPO_ROOT="$(cd "$(dirname "${BASH_SOURCE[0]}")/.." && pwd)"

MODE=build
if [[ "${1:-}" == "--tsan" ]]; then
  MODE=tsan
  shift
elif [[ "${1:-}" == "--asan" ]]; then
  MODE=asan
  shift
elif [[ "${1:-}" == "--ubsan" ]]; then
  MODE=ubsan
  shift
elif [[ "${1:-}" == "--bench" ]]; then
  MODE=bench
  shift
elif [[ "${1:-}" == "--faults" ]]; then
  MODE=faults
  shift
elif [[ "${1:-}" == "--metrics" ]]; then
  MODE=metrics
  shift
elif [[ "${1:-}" == "--stream" ]]; then
  MODE=stream
  shift
fi

# Verify every "<metric>_floor" key in a BENCH_*.json has a matching
# "<metric>" measured at or above it.
check_json_gates() {
  local json="$1"
  local status=0
  local -A vals floors
  while read -r key val; do
    [[ -z "${key}" ]] && continue
    if [[ "${key}" == *_floor ]]; then
      floors["${key%_floor}"]="${val}"
    else
      vals["${key}"]="${val}"
    fi
  done < <(sed -nE 's/.*"([A-Za-z0-9_]+)"[[:space:]]*:[[:space:]]*(-?[0-9]+\.?[0-9]*).*/\1 \2/p' "${json}")
  for metric in "${!floors[@]}"; do
    local floor="${floors[${metric}]}" measured="${vals[${metric}]:-}"
    if [[ -z "${measured}" ]]; then
      echo "GATE FAIL: ${json}: '${metric}_floor' has no measured '${metric}'"
      status=1
    elif ! awk -v m="${measured}" -v f="${floor}" 'BEGIN { exit !(m >= f) }'; then
      echo "GATE FAIL: ${json}: ${metric} = ${measured} < floor ${floor}"
      status=1
    else
      echo "gate ok: ${json}: ${metric} = ${measured} >= ${floor}"
    fi
  done
  return "${status}"
}

case "${MODE}" in
  tsan)
    BUILD_DIR="${1:-${REPO_ROOT}/build-tsan}"
    cmake -B "${BUILD_DIR}" -S "${REPO_ROOT}" -DIOTAXO_TSAN=ON
    cmake --build "${BUILD_DIR}" -j
    # The suites that exercise the concurrent pipeline (async flush, sharded
    # sinks, parallel store scans, batched capture, zero-copy view sources)
    # under TSan.
    ctest --test-dir "${BUILD_DIR}" --output-on-failure -j "$(nproc)" \
      -R 'concurrency_test|batch_test|zero_copy_test|util_test'
    # Block-parallel cold-scan smoke: the striped decode-slot handoff
    # (claim/publish/wait) and the shared sticky-failure state, re-run
    # standalone so a TSan report here points straight at the IOTB3 decode
    # path.
    "${BUILD_DIR}/zero_copy_test" \
      --gtest_filter='*ParallelColdScan*:*StickyFailureAcrossCopies*:*DecodeBlocksPrefetch*'
    ;;
  asan)
    BUILD_DIR="${1:-${REPO_ROOT}/build-asan}"
    cmake -B "${BUILD_DIR}" -S "${REPO_ROOT}" -DIOTAXO_ASAN=ON
    cmake --build "${BUILD_DIR}" -j
    # The whole suite: ASan's sweet spot here is the pointer-heavy zero-copy
    # read path (views into mapped buffers, the accessor seam, the DFG
    # miner's in-place scans), but leaks and overruns hide anywhere.
    ctest --test-dir "${BUILD_DIR}" --output-on-failure -j "$(nproc)"
    ;;
  ubsan)
    BUILD_DIR="${1:-${REPO_ROOT}/build-ubsan}"
    cmake -B "${BUILD_DIR}" -S "${REPO_ROOT}" -DIOTAXO_UBSAN=ON
    cmake --build "${BUILD_DIR}" -j
    # The whole suite: UBSan's sweet spot is the byte-level read paths (LE
    # loads in the scan kernels, CRC table folds, block/footer offset
    # arithmetic in the IOTB3 view).
    ctest --test-dir "${BUILD_DIR}" --output-on-failure -j "$(nproc)"
    ;;
  faults)
    BUILD_DIR="${1:-${REPO_ROOT}/build-asan}"
    cmake -B "${BUILD_DIR}" -S "${REPO_ROOT}" -DIOTAXO_ASAN=ON
    cmake --build "${BUILD_DIR}" -j
    # The fault/recovery suites under ASan: the crash matrix (simulated
    # death at every failpoint, recovery via attach_dir), torn-tmp cleanup,
    # corrupt-pool quarantine, skip_damaged accounting — plus the
    # hostile-input zero-copy suite, since both walk damaged containers.
    ctest --test-dir "${BUILD_DIR}" --output-on-failure -j "$(nproc)" \
      -R 'recovery_test|zero_copy_test'
    # Failpoints must be inert when IOTAXO_FAILPOINTS is unset (the
    # fast-path flag stays down; this is the zero-cost contract always-on
    # capture daemons rely on)...
    env -u IOTAXO_FAILPOINTS "${BUILD_DIR}/recovery_test" \
      --gtest_filter='Failpoint.InactiveByDefaultAndAfterClear'
    # ...and armable from the environment alone: an armed write failpoint
    # must fail the CLI's durable container write cleanly, leaving no
    # half-written target behind.
    FAULT_TMP="$(mktemp -d)"
    trap 'rm -rf "${FAULT_TMP}"' EXIT
    if IOTAXO_FAILPOINTS="binary.file.write=error" \
        "${BUILD_DIR}/iotaxo_cli" trace --framework lanl --workload mpiio \
        --ranks 2 --binary-out "${FAULT_TMP}/x.iotb3" > /dev/null 2>&1; then
      echo "FAULTS FAIL: env-armed failpoint did not fail the durable write"
      exit 1
    fi
    if [[ -e "${FAULT_TMP}/x.iotb3" ]]; then
      echo "FAULTS FAIL: failed durable write left a target file behind"
      exit 1
    fi
    env -u IOTAXO_FAILPOINTS "${BUILD_DIR}/iotaxo_cli" trace \
      --framework lanl --workload mpiio --ranks 2 \
      --binary-out "${FAULT_TMP}/x.iotb3" > /dev/null
    "${BUILD_DIR}/iotaxo_cli" fsck "${FAULT_TMP}/x.iotb3"
    ;;
  metrics)
    BUILD_DIR="${1:-${REPO_ROOT}/build}"
    cmake -B "${BUILD_DIR}" -S "${REPO_ROOT}"
    cmake --build "${BUILD_DIR}" -j
    # The self-metrics suite: registry exactness under concurrency,
    # snapshot-delta arithmetic, the decode/pool_infos cross-check, the
    # async sink's pipeline metrics.
    ctest --test-dir "${BUILD_DIR}" --output-on-failure -j "$(nproc)" \
      -R 'metrics_test'
    # Metrics must be inert when IOTAXO_METRICS is unset — the disarmed
    # mirror of the --faults inertness check.
    env -u IOTAXO_METRICS "${BUILD_DIR}/metrics_test" \
      --gtest_filter='Metrics.InactiveByDefault'
    # An armed CLI run must produce the per-run JSON report with the
    # instrumented layers lit up: a cold encrypted+projected multi-block
    # container statted with --metrics-out has to show decode work, stage
    # timings, index skips, and the durable write that produced the file.
    METRICS_TMP="$(mktemp -d)"
    trap 'rm -rf "${METRICS_TMP}"' EXIT
    "${BUILD_DIR}/iotaxo_cli" trace --framework lanl --workload mpiio \
      --ranks 4 --binary-out "${METRICS_TMP}/m.iotb3" --key smoke \
      --project --block-records 256 \
      --metrics-out "${METRICS_TMP}/trace_metrics.json" > /dev/null
    "${BUILD_DIR}/iotaxo_cli" stat "${METRICS_TMP}/m.iotb3" --key smoke \
      --metrics-out "${METRICS_TMP}/stat_metrics.json" > "${METRICS_TMP}/stat.out"
    for key in metrics_schema block.decode.stored_bytes block.decode.crc_ns \
               block.decode.decrypt_ns block.decode.decompress_ns \
               store.query.count store.query.segments_scanned \
               store.query.segments_skipped store.query.bytes_in_window_ns \
               sink.async.queue_depth durable.write.fsync_ns; do
      if ! grep -q "\"${key}\"" "${METRICS_TMP}/stat_metrics.json"; then
        echo "METRICS FAIL: stat_metrics.json is missing '${key}'"
        exit 1
      fi
    done
    # The trace run's report must carry the durable write of the container.
    if ! grep -q '"durable.write.files": 1' "${METRICS_TMP}/trace_metrics.json"; then
      echo "METRICS FAIL: trace_metrics.json did not count the durable write"
      exit 1
    fi
    # The armed stat run decoded blocks and skipped others by index.
    if grep -q '"block.decode.stored_bytes": 0' "${METRICS_TMP}/stat_metrics.json"; then
      echo "METRICS FAIL: armed stat reported zero decoded bytes"
      exit 1
    fi
    if grep -q '"store.query.segments_skipped": 0' "${METRICS_TMP}/stat_metrics.json"; then
      echo "METRICS FAIL: armed stat's window probe skipped no blocks"
      exit 1
    fi
    # A plain (disarmed) run prints no metrics surface at all.
    "${BUILD_DIR}/iotaxo_cli" stat "${METRICS_TMP}/m.iotb3" --key smoke \
      > "${METRICS_TMP}/plain.out"
    if grep -qE 'metrics|window probe' "${METRICS_TMP}/plain.out"; then
      echo "METRICS FAIL: disarmed stat printed a metrics surface"
      exit 1
    fi
    # IOTAXO_METRICS=FILE arms from the environment alone and dumps at exit.
    IOTAXO_METRICS="${METRICS_TMP}/env_dump.json" \
      "${BUILD_DIR}/iotaxo_cli" stat "${METRICS_TMP}/m.iotb3" --key smoke \
      > /dev/null
    if ! grep -q '"block.decode.stored_bytes"' "${METRICS_TMP}/env_dump.json"; then
      echo "METRICS FAIL: IOTAXO_METRICS=FILE produced no at-exit dump"
      exit 1
    fi
    echo "metrics ok: disarmed inert, armed CLI report complete"
    ;;
  stream)
    BUILD_DIR="${1:-${REPO_ROOT}/build}"
    cmake -B "${BUILD_DIR}" -S "${REPO_ROOT}"
    cmake --build "${BUILD_DIR}" -j
    # The streaming-ingest suite: footer-indexed restarts in era order,
    # era-ingest vs one-pool-per-flush identity, live-DFG vs cold-rebuild
    # identity.
    ctest --test-dir "${BUILD_DIR}" --output-on-failure -j "$(nproc)" \
      -R 'stream_ingest_test'
    # End-to-end smoke: a 1000-flush storm of small flushes must land in a
    # bounded number of era pools (the whole point of the open batch), and
    # a restart on the written IOTB3 era containers must build its pool
    # indexes from their footers instead of decoding records.
    STREAM_TMP="$(mktemp -d)"
    trap 'rm -rf "${STREAM_TMP}"' EXIT
    "${BUILD_DIR}/iotaxo_cli" stream --dir "${STREAM_TMP}" \
      --flushes 1000 --events 50 > "${STREAM_TMP}/capture.out"
    POOLS="$(sed -nE 's/^pools +: ([0-9]+).*/\1/p' "${STREAM_TMP}/capture.out")"
    if [[ -z "${POOLS}" || "${POOLS}" -gt 32 ]]; then
      echo "STREAM FAIL: 1000 flushes produced ${POOLS:-?} pools (want <= 32)"
      cat "${STREAM_TMP}/capture.out"
      exit 1
    fi
    "${BUILD_DIR}/iotaxo_cli" stream --dir "${STREAM_TMP}" --attach \
      > "${STREAM_TMP}/attach.out"
    ADOPTED="$(sed -nE 's/^indexes adopted +: ([0-9]+).*/\1/p' "${STREAM_TMP}/attach.out")"
    if [[ -z "${ADOPTED}" || "${ADOPTED}" -eq 0 ]]; then
      echo "STREAM FAIL: restart built ${ADOPTED:-?} indexes from footers (want > 0)"
      cat "${STREAM_TMP}/attach.out"
      exit 1
    fi
    echo "stream ok: 1000 flushes -> ${POOLS} pool(s); restart indexed ${ADOPTED} container(s) from footers"
    ;;
  bench)
    BUILD_DIR="${1:-${REPO_ROOT}/build}"
    cmake -B "${BUILD_DIR}" -S "${REPO_ROOT}"
    cmake --build "${BUILD_DIR}" -j
    STATUS=0
    # Gate only this run's artifacts, not JSONs left by renamed or removed
    # benches.
    rm -f "${BUILD_DIR}"/BENCH_*.json
    # The gated benches: each writes BENCH_<name>.json next to itself and
    # exits nonzero when its hard gates fail.
    for bench in bench_batch_pipeline bench_async_flush bench_zero_copy \
                 bench_dfg bench_iotb3 bench_ingest; do
      echo "--- ${bench}"
      (cd "${BUILD_DIR}" && "./${bench}") || STATUS=1
    done
    for json in "${BUILD_DIR}"/BENCH_*.json; do
      [[ -e "${json}" ]] || continue
      check_json_gates "${json}" || STATUS=1
    done
    exit "${STATUS}"
    ;;
  build)
    BUILD_DIR="${1:-${REPO_ROOT}/build}"
    cmake -B "${BUILD_DIR}" -S "${REPO_ROOT}"
    cmake --build "${BUILD_DIR}" -j
    ctest --test-dir "${BUILD_DIR}" --output-on-failure -j "$(nproc)"
    ;;
esac
