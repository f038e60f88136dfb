#!/usr/bin/env bash
# Count the non-test lines of the Rust sources, per crate and in total.
#
# usage: scripts/nontest_lines.sh [REV]
#   e.g. scripts/nontest_lines.sh          (the working tree)
#        scripts/nontest_lines.sh HEAD~1   (a commit, exported with git archive)
#
# A non-test line is a non-blank line of a `.rs` file under `crates/*/src`
# or `src` that comes before the file's first `#[cfg(test)]` at column 0;
# a file without one counts whole. Comments and doc comments count.
set -euo pipefail
cd "$(dirname "$0")/.."

root=.
if [ $# -gt 1 ]; then
    echo "usage: $0 [REV]" >&2
    exit 2
elif [ $# -eq 1 ]; then
    rev="$(git rev-parse --verify "$1^{commit}")"
    root="$(mktemp -d)"
    trap 'rm -rf "$root"' EXIT
    git archive "$rev" crates src | tar -x -C "$root"
fi

cd "$root"
find crates/*/src src -name '*.rs' | LC_ALL=C sort | while read -r f; do
    case "$f" in
        crates/*) unit="${f#crates/}" unit="${unit%%/*}" ;;
        *) unit=src ;;
    esac
    n="$(awk '/^#\[cfg\(test\)\]/ { exit } NF { n++ } END { print n + 0 }' "$f")"
    echo "$unit $n"
done | awk '
    { lines[$1] += $2; total += $2 }
    END {
        for (u in lines) printf "%-14s %6d\n", u, lines[u] | "LC_ALL=C sort"
        close("LC_ALL=C sort")
        printf "%-14s %6d\n", "total", total
    }'
