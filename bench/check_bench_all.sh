#!/bin/sh
# bench_all must print exactly what the harness binaries print when run
# one by one, each behind its "==== <name> ====" line, in the order
# given, and every one of them must exit 0. Usage:
#
#   bench/check_bench_all.sh BIN-DIR HARNESS...
#
# BIN-DIR must be absolute: the binaries run in a temporary directory,
# so their timing reports land there.
set -eu

if [ $# -lt 2 ]; then
    echo "usage: $0 BIN-DIR HARNESS..." >&2
    exit 2
fi
bin=$1
shift
tmp=$(mktemp -d)
trap 'rm -rf "$tmp"' EXIT
cd "$tmp"

"$bin/bench_all" > all.out
for h; do
    printf '==== %s ====\n' "$h"
    "$bin/$h"
done > each.out
diff -u each.out all.out
echo "check_bench_all: bench_all matches the $# harnesses"
