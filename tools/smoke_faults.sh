#!/usr/bin/env bash
# Fault-injection CLI smoke: failpoints are inert when IOTAXO_FAILPOINTS is
# unset and armable through it alone, an armed durable write fails the CLI
# cleanly without leaving a target behind, and malformed numeric options
# are refused before any work starts. ctest runs it as `faults_smoke`, so
# the ASan tree runs it under ASan.
#
#   tools/smoke_faults.sh path/to/iotaxo_cli path/to/recovery_test
set -euo pipefail

CLI="${1:?usage: smoke_faults.sh path/to/iotaxo_cli path/to/recovery_test}"
RECOVERY_TEST="${2:?usage: smoke_faults.sh path/to/iotaxo_cli path/to/recovery_test}"
FAULT_TMP="$(mktemp -d)"
trap 'rm -rf "${FAULT_TMP}"' EXIT

fail() {
  echo "FAULTS FAIL: $*"
  exit 1
}

# Failpoints must be inert when IOTAXO_FAILPOINTS is unset (the fast-path
# flag stays down; this is the zero-cost contract always-on capture daemons
# rely on)...
env -u IOTAXO_FAILPOINTS "${RECOVERY_TEST}" \
  --gtest_filter='Failpoint.InactiveByDefaultAndAfterClear' > /dev/null ||
  fail "failpoints are not inert without IOTAXO_FAILPOINTS"
# ...and armable from the environment alone: an armed write failpoint must
# fail the CLI's durable container write cleanly, leaving no half-written
# target behind.
if IOTAXO_FAILPOINTS="binary.file.write=error" \
    "${CLI}" trace --framework lanl --workload mpiio \
    --ranks 2 --binary-out "${FAULT_TMP}/x.iotb3" > /dev/null 2>&1; then
  fail "env-armed failpoint did not fail the durable write"
fi
[[ -e "${FAULT_TMP}/x.iotb3" ]] &&
  fail "failed durable write left a target file behind"
env -u IOTAXO_FAILPOINTS "${CLI}" trace \
  --framework lanl --workload mpiio --ranks 2 --block-records 1024 \
  --binary-out "${FAULT_TMP}/x.iotb3" > /dev/null
"${CLI}" fsck "${FAULT_TMP}/x.iotb3" > /dev/null ||
  fail "fsck rejected the container the disarmed run wrote"

# Options are checked before any work starts: a negative, garbage or
# out-of-range numeric value, or an option the command does not accept,
# exits 1 with a config error that names the option, and writes nothing.
# (The dfg and stat cases read the 4-block container above.)
expect_refused() {
  local what="$1" out="$2"
  shift 2
  local rc=0
  "${CLI}" "$@" > /dev/null 2> "${FAULT_TMP}/err.txt" || rc=$?
  [[ "${rc}" -eq 1 ]] || fail "${what}: exit ${rc}, want 1"
  grep -q "config error" "${FAULT_TMP}/err.txt" ||
    fail "${what}: no config error on stderr"
  grep -qF -- "${what%% *}" "${FAULT_TMP}/err.txt" ||
    fail "${what}: the error does not name ${what%% *}"
  [[ -e "${out}" ]] && fail "${what}: wrote ${out}"
  return 0
}
expect_refused "--block-records -1" "${FAULT_TMP}/neg.iotb3" \
  trace --framework lanl --workload mpiio --ranks 2 \
  --binary-out "${FAULT_TMP}/neg.iotb3" --block-records -1
expect_refused "--threads -1" "${FAULT_TMP}/dfg.json" \
  dfg "${FAULT_TMP}/x.iotb3" --threads -1 --json "${FAULT_TMP}/dfg.json"
expect_refused "--ranks abc" "${FAULT_TMP}/abc.iotb3" \
  trace --framework lanl --workload mpiio --ranks abc \
  --binary-out "${FAULT_TMP}/abc.iotb3"
expect_refused "--block-recordz 256" "${FAULT_TMP}/typo.iotb3" \
  trace --framework lanl --workload mpiio --ranks 2 --block-recordz 256 \
  --binary-out "${FAULT_TMP}/typo.iotb3"
expect_refused "--project" "${FAULT_TMP}/none" \
  stat "${FAULT_TMP}/x.iotb3" --project 1
echo "faults smoke ok: failpoints inert unset, armable from the environment; bad and unknown options refused"
