#!/usr/bin/env bash
# Run the tests of one package whose names contain a filter, and fail
# unless at least one ran: `cargo test` exits 0 when a filter matches
# nothing, so a renamed test would otherwise turn a CI step into a no-op.
#
# usage: scripts/ci_named_tests.sh <package> <filter> <target selector...>
#   e.g. scripts/ci_named_tests.sh learning-tangle eval_cache --lib
#        scripts/ci_named_tests.sh tinynn gemm --test properties
set -euo pipefail
cd "$(dirname "$0")/.."

if [ $# -lt 3 ]; then
    echo "usage: $0 <package> <filter> <target selector...>" >&2
    exit 2
fi
pkg="$1" filter="$2"
shift 2

out="$(cargo test -p "$pkg" "$@" -- "$filter" 2>&1)" || {
    echo "$out"
    exit 1
}
echo "$out"
ran="$(echo "$out" | awk '/^test result:/ { n += $4 } END { print n + 0 }')"
if [ "$ran" -eq 0 ]; then
    echo "error: filter '$filter' matched no test in $pkg $*" >&2
    exit 1
fi
