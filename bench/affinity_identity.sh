#!/bin/sh
# Runs a bench pinned to one CPU and byte-compares the artifact it
# writes (in the working directory) with a reference written by a
# default-affinity run. Pinned, every sharded phase runs on a single
# worker, so a mismatch means the output depends on the host thread
# count.
#
# usage: affinity_identity.sh ARTIFACT BENCH_BINARY REFERENCE_JSON ARGS...
#   e.g. affinity_identity.sh BENCH_serving.json serving_tail_latency \
#            ../BENCH_serving.json 60 60
# Exits 77 (ctest's skip code) when taskset is not installed.
set -e
command -v taskset >/dev/null 2>&1 || exit 77
artifact=$1
bench=$2
reference=$3
shift 3
# The first CPU this process may run on (CPU 0 need not be allowed).
cpu=$(taskset -cp $$ | sed 's/.*: //; s/[-,].*//')
taskset -c "$cpu" "$bench" "$@" >/dev/null
cmp "$artifact" "$reference"
