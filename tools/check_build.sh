#!/usr/bin/env bash
# Tier-1 verify gate: configure, build everything, run the full test suite.
# Exits nonzero on the first failure so CI and pre-PR checks can use it as a
# one-command gate:
#   ./tools/check_build.sh [build-dir]          # full build + full ctest
#   ./tools/check_build.sh --tsan [build-dir]   # ThreadSanitizer build, then
#                                               # the concurrency, DFG and
#                                               # streaming suites only
#   ./tools/check_build.sh --asan [build-dir]   # AddressSanitizer build +
#                                               # the full test suite
#   ./tools/check_build.sh --ubsan [build-dir]  # UBSan build + the full
#                                               # test suite
#   ./tools/check_build.sh --bench [build-dir]  # build, run the gated
#                                               # benches, copy their
#                                               # BENCH_*.json to the repo
#                                               # root, and fail if any
#                                               # gate field regresses
#                                               # below its floor
#   ./tools/check_build.sh --faults [build-dir] # ASan build + the fault/
#                                               # recovery suites, then
#                                               # assert failpoints are inert
#                                               # without IOTAXO_FAILPOINTS
#                                               # and armable through it
#   ./tools/check_build.sh --metrics [build-dir]# build + the self-metrics
#                                               # suite, then assert metrics
#                                               # are inert when disarmed and
#                                               # run tools/smoke_metrics.sh
#                                               # (the armed CLI smoke)
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
    # The suites that exercise the concurrent pipeline (parallel store
    # scans, zero-copy view sources, the DFG pool pass on parallel scan
    # chunks, the live DFG fold inside streaming ingest, the thread pool)
    # under TSan. Capture delivers inline on one thread; batch_test rides
    # along for its RankBatcher and StringPool cases.
    ctest --test-dir "${BUILD_DIR}" --output-on-failure -j "$(nproc)" \
      -R 'concurrency_test|batch_test|zero_copy_test|util_test|dfg_test|stream_ingest_test'
    # Damage skipping under parallel scans: the shared damage tally and the
    # sticky block failures, queries and DFG builds alike.
    "${BUILD_DIR}/recovery_test" --gtest_filter='SkipDamaged.*'
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
    # capture and encode counters.
    ctest --test-dir "${BUILD_DIR}" --output-on-failure -j "$(nproc)" \
      -R 'metrics_test'
    # Metrics must be inert when IOTAXO_METRICS is unset — the disarmed
    # mirror of the --faults inertness check.
    env -u IOTAXO_METRICS "${BUILD_DIR}/metrics_test" \
      --gtest_filter='Metrics.InactiveByDefault'
    # The armed CLI smoke, which tier-1 also runs as ctest's metrics_smoke.
    "${REPO_ROOT}/tools/smoke_metrics.sh" "${BUILD_DIR}/iotaxo_cli"
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
    for bench in bench_batch_pipeline bench_zero_copy bench_dfg bench_iotb3 \
                 bench_ingest; do
      echo "--- ${bench}"
      (cd "${BUILD_DIR}" && "./${bench}") || STATUS=1
    done
    for json in "${BUILD_DIR}"/BENCH_*.json; do
      [[ -e "${json}" ]] || continue
      check_json_gates "${json}" || STATUS=1
      # The artifacts are tracked at the repo root, gates that failed
      # included, so every change leaves its readings in the history.
      cp "${json}" "${REPO_ROOT}/"
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
