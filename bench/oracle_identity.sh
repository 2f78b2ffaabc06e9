#!/bin/sh
# Runs each bench twice -- once with --threads 0, where every replay is
# a scalar per-config Replayer walk over the raw trace (the oracle),
# and once on the default thread pool, where the fused replay engine
# prices each column over the resolved trace -- and byte-compares the
# two stdouts. The captures are left in the working directory.
#
# usage: oracle_identity.sh PROFILE_TXNS TRACE_TXNS BENCH_BINARY...
#   e.g. oracle_identity.sh 50 50 ./fig04_line_size_sweep \
#            ./fig06_associativity
set -e
profile=$1
trace=$2
shift 2
for bench in "$@"; do
    name=$(basename "$bench")
    "$bench" "$profile" "$trace" --threads 0 >"$name.oracle.txt"
    "$bench" "$profile" "$trace" >"$name.pool.txt"
    cmp "$name.oracle.txt" "$name.pool.txt"
done
