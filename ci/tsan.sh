#!/usr/bin/env sh
# ThreadSanitizer variant of the test suite: builds everything with
# -fsanitize=thread and runs the unit, chaos, recovery, and service
# suites with intra-machine compute pools forced on (CGRAPH_THREADS=4).
# Machines are threads, and with pools each machine fans its per-level
# scans out to four more — the relaxed-atomic OR discovery, deferred
# visited commits, per-query scatter ownership, fault-injected delivery
# paths, and the crash/rollback/replay machinery (checkpoint saves at
# barriers, the cluster-wide crash flag, restore while every machine
# unwinds) all run under TSan here. The service label runs the query
# front end: it executes batches on the caller thread, but every batch
# still fans out to the machine threads and their pools, under fault
# plans and crash recovery. The bench label adds the committed-
# baseline smoke run, whose enabled arm drives the per-thread tracer rings
# while four compute threads record concurrently. test_hybrid (labels
# unit+chaos+recovery) puts the bottom-up scan's single-writer pull rows
# next to the cross-partition push's atomic ORs under the same pools.
# test_index (same labels) serves point queries through the index bypass
# probes and resolves the fallbacks from visited planes the machine
# threads built. The replica label runs the replicated-serving suite:
# router failovers resume the dead replica's checkpoint cut on a survivor
# while that survivor's own compute pools are live. The mutation label
# runs the streaming-mutation differential suite: the merged base+delta
# scans and the serial extras pass execute under the same four-thread
# pools that race the relaxed-atomic discovery ORs.
#
# Usage: ci/tsan.sh [build-dir]   (default: build-tsan)
set -eu

BUILD_DIR="${1:-build-tsan}"
SRC_DIR="$(CDPATH= cd -- "$(dirname -- "$0")/.." && pwd)"

cmake -B "$BUILD_DIR" -S "$SRC_DIR" -DCGRAPH_SANITIZE=thread
cmake --build "$BUILD_DIR" -j "$(nproc)"
CGRAPH_THREADS=4 ctest --test-dir "$BUILD_DIR" --output-on-failure \
  -L 'unit|chaos|recovery|service|replica|bench|mutation'
