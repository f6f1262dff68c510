#!/bin/sh
# End-to-end check of `cgraph_tool batch --metrics-out`: every batch's
# per-machine record is published exactly once, so each machine reports
# two supersteps (scan + commit barrier) per traversal level of the one
# batch, on one cluster and behind a replica router. Recovery counters
# still reach the dump when a crash is scheduled.
#
# Usage: cgraph_tool_metrics.sh <path-to-cgraph_tool>
set -eu

TOOL="$1"
WORK="$(mktemp -d)"
trap 'rm -rf "$WORK"' EXIT INT TERM

fail() {
  echo "FAIL: $*" >&2
  exit 1
}

# $1 = metrics file, $2 = exact sample line expected in it.
expect_line() {
  grep -qxF "$2" "$1" || fail "$1 lacks '$2'"
}

# One batch of 64 queries: supersteps per machine == 2 x levels.
check_supersteps() {
  levels="$(grep -c '^cgraph_superstep_edges_total{level=' "$1")"
  [ "$levels" -gt 0 ] || fail "$1 has no per-level series"
  expect_line "$1" \
    "cgraph_machine_supersteps_total{machine=\"0\"} $((2 * levels))"
}

"$TOOL" gen --scale 10 --seed 3 --out "$WORK/g.bin" >/dev/null
batch() {
  out="$1"
  shift
  "$TOOL" batch --in "$WORK/g.bin" --queries 64 --k 3 --machines 2 \
    --metrics-out "$out" "$@" >/dev/null
}

batch "$WORK/single.prom"
check_supersteps "$WORK/single.prom"

batch "$WORK/replicated.prom" --replicas 2 --route-seed 3
check_supersteps "$WORK/replicated.prom"

batch "$WORK/crash.prom" --crash 1@2
expect_line "$WORK/crash.prom" "cgraph_recovery_crashes_total 1"

echo "cgraph_tool_metrics: ok"
