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
#                                               # bench fails its gates
#
# The full suite includes the CLI smokes (ctest metrics_smoke,
# stream_smoke and faults_smoke: tools/smoke_*.sh), so --asan and --ubsan
# run them under the sanitizer too.
#
# Bench gating convention: each gated bench declares its floors once, in
# its own source (bench::Report::gate in bench/bench_common.h), checks them
# on the median of alternating pairs, and exits nonzero when a median falls
# below its floor or a hard check (result identity etc.) fails. The exit
# status is the gate; BENCH_<name>.json records each "<metric>" with its
# "<metric>_floor" and "<metric>_spread" (the interquartile range of the
# per-pair ratios) for the history.
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
fi

case "${MODE}" in
  tsan)
    BUILD_DIR="${1:-${REPO_ROOT}/build-tsan}"
    cmake -B "${BUILD_DIR}" -S "${REPO_ROOT}" -DIOTAXO_TSAN=ON
    cmake --build "${BUILD_DIR}" -j
    # The suites that exercise the concurrent pipeline (parallel store
    # scans, zero-copy view sources, the DFG pool pass on parallel scan
    # chunks, the live DFG fold inside streaming ingest, parallel_for)
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
    # miner's in-place scans), but leaks and overruns hide anywhere. The
    # CLI smokes run the crash matrix's env-armed failpoints under it too.
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
  bench)
    BUILD_DIR="${1:-${REPO_ROOT}/build}"
    cmake -B "${BUILD_DIR}" -S "${REPO_ROOT}"
    cmake --build "${BUILD_DIR}" -j
    STATUS=0
    # Copy only this run's artifacts, not JSONs left by renamed or removed
    # benches.
    rm -f "${BUILD_DIR}"/BENCH_*.json
    # The gated benches: each writes BENCH_<name>.json next to itself and
    # exits nonzero when a gate or a hard check fails.
    for bench in bench_batch_pipeline bench_zero_copy bench_dfg bench_iotb3 \
                 bench_ingest; do
      echo "--- ${bench}"
      (cd "${BUILD_DIR}" && "./${bench}") || STATUS=1
    done
    # The artifacts are tracked at the repo root, gates that failed
    # included, so every change leaves its readings in the history.
    for json in "${BUILD_DIR}"/BENCH_*.json; do
      [[ -e "${json}" ]] || continue
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
