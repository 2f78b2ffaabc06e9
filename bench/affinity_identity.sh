#!/bin/sh
# Runs a bench pinned to one CPU (or, given --threads, at --threads 1
# and 3) and byte-compares the artifact it writes (in the working
# directory) with a reference written by a default run. The bench's
# pool runs every sharded phase, so a mismatch means the output
# depends on the pool width.
#
# usage: affinity_identity.sh [--threads] ARTIFACT BENCH REFERENCE ARGS...
#   e.g. affinity_identity.sh BENCH_serving.json serving_tail_latency \
#            ../BENCH_serving.json 60 60
# Exits 77 (ctest's skip code) when pinning and taskset is missing.
set -e
mode=$1
[ "$mode" = --threads ] && shift
artifact=$1
bench=$2
reference=$3
shift 3
if [ "$mode" = --threads ]; then
    for n in 1 3; do
        "$bench" "$@" --threads "$n" >/dev/null
        cmp "$artifact" "$reference"
    done
    exit 0
fi
command -v taskset >/dev/null 2>&1 || exit 77
# The first CPU this process may run on (CPU 0 need not be allowed).
cpu=$(taskset -cp $$ | sed 's/.*: //; s/[-,].*//')
taskset -c "$cpu" "$bench" "$@" >/dev/null
cmp "$artifact" "$reference"
