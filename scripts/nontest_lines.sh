#!/usr/bin/env bash
# Count the non-test lines of the Rust sources, per crate and in total.
#
# usage: scripts/nontest_lines.sh [REV]
#   e.g. scripts/nontest_lines.sh          (the working tree)
#        scripts/nontest_lines.sh HEAD~1   (a commit, exported with git archive)
#
# A non-test line is a non-blank line of a `.rs` file under `crates/*/src`
# or `src` that lies outside every column-0 `#[cfg(test)]` item. Such an
# item is the attribute, any further attribute lines, and then either one
# line (`mod x;`, `use ...;`, `impl ... {}`) or a braced item up to its
# closing `}` at column 0. A file that its parent declares with
# `#[cfg(test)] mod x;` is test code whole. Comments and doc comments count.
set -euo pipefail
cd "$(dirname "$0")/.."
. scripts/rust_sources.sh

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
nontest_sources | while read -r f; do
    case "$f" in
        crates/*) unit="${f#crates/}" unit="${unit%%/*}" ;;
        *) unit=src ;;
    esac
    echo "$unit $(strip_test_items "$f" | awk 'NF { n++ } END { print n + 0 }')"
done | awk '
    { lines[$1] += $2; total += $2 }
    END {
        for (u in lines) printf "%-14s %6d\n", u, lines[u] | "LC_ALL=C sort"
        close("LC_ALL=C sort")
        printf "%-14s %6d\n", "total", total
    }'
