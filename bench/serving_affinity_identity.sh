#!/bin/sh
# Runs the serving bench pinned to one CPU and byte-compares the
# BENCH_serving.json it writes (in the working directory) with a
# reference written by a default-affinity run. Pinned, every sharded
# phase runs on a single worker, so a mismatch means the output
# depends on the host thread count.
#
# usage: serving_affinity_identity.sh BENCH_BINARY REFERENCE_JSON ARGS...
# Exits 77 (ctest's skip code) when taskset is not installed.
set -e
command -v taskset >/dev/null 2>&1 || exit 77
bench=$1
reference=$2
shift 2
# The first CPU this process may run on (CPU 0 need not be allowed).
cpu=$(taskset -cp $$ | sed 's/.*: //; s/[-,].*//')
taskset -c "$cpu" "$bench" "$@" >/dev/null
cmp BENCH_serving.json "$reference"
