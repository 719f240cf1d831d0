#!/usr/bin/env bash
# Build the benchmark harness from source and run one workload:
#
#   bash perf/run.sh --workload audit-horn|cq-tableau|serve-rw \
#                    --seed N --seconds S --trace 0|1
#
# Build output goes to stderr; the last line of stdout is the result.
# Everything stays inside the checkout: no shared dune cache, and the
# compilers' temporary files go to .perf-work/tmp.
set -euo pipefail
cd "$(dirname "$0")/.."
export TMPDIR="$PWD/.perf-work/tmp"
mkdir -p "$TMPDIR"
dune build --root . --cache=disabled --display quiet ./perf/main.exe 1>&2
exec ./_build/default/perf/main.exe "$@"
