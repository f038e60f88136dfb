#!/usr/bin/env bash
# List the `pub` items of the Rust sources, per crate, outside test code.
#
# usage: scripts/pub_items.sh [REV] [--unused]
#   e.g. scripts/pub_items.sh               (every pub item, then counts)
#        scripts/pub_items.sh HEAD~1        (a commit, exported with git archive)
#        scripts/pub_items.sh --unused      (pub items no other file names)
#
# A pub item is a line of non-test code (see scripts/nontest_lines.sh) that
# declares a `pub` mod, use, fn, struct, enum, union, trait, type, const or
# static; `pub(crate)` and `pub(super)` are not pub.
#
# With --unused, list each pub fn, struct, enum, union, trait, type, const or
# static whose name occurs in no other `.rs` file under crates, src,
# benchmark/src, examples or tests, and that no pub fn of its own file
# returns whose name occurs in another such file (a dependant that calls
# the fn uses the type it returns without naming it); exit 1 if there is
# any. The search is by name, so a method whose name also occurs elsewhere
# (`new`, `len`) is never listed, and a crate root's re-export counts as a
# use.
set -euo pipefail
cd "$(dirname "$0")/.."
. scripts/rust_sources.sh

rev=
unused=0
for arg in "$@"; do
    case "$arg" in
        --unused) unused=1 ;;
        -*) echo "usage: $0 [REV] [--unused]" >&2; exit 2 ;;
        *) [ -z "$rev" ] || { echo "usage: $0 [REV] [--unused]" >&2; exit 2; }; rev="$arg" ;;
    esac
done

root=.
if [ -n "$rev" ]; then
    rev="$(git rev-parse --verify "$rev^{commit}")"
    root="$(mktemp -d)"
    trap 'rm -rf "$root"' EXIT
    git archive "$rev" crates src benchmark/src examples tests | tar -x -C "$root"
fi
cd "$root"

# "unit kind name file" for every pub item.
items() {
    local f unit
    nontest_sources | while read -r f; do
        case "$f" in
            crates/*) unit="${f#crates/}" unit="${unit%%/*}" ;;
            *) unit=src ;;
        esac
        strip_test_items "$f" |
            grep -oE '^\s*pub (unsafe |const |async )*(mod|use|fn|struct|enum|union|trait|type|const|static) +[A-Za-z_][A-Za-z0-9_]*' |
            awk -v unit="$unit" -v f="$f" '{ print unit, $(NF - 1), $NF, f }' || true
    done
}

if [ "$unused" -eq 0 ]; then
    all="$(items)"
    echo "$all"
    echo "$all" | awk '
        { n[$1]++; total++ }
        END {
            for (u in n) printf "%-14s %6d\n", u, n[u] | "LC_ALL=C sort"
            close("LC_ALL=C sort")
            printf "%-14s %6d\n", "total", total
        }'
    exit 0
fi

# Is NAME named in a `.rs` file of the trees above other than FILE?
named_elsewhere() {
    grep -rlw --include='*.rs' -e "$1" crates src benchmark/src examples tests | grep -qvxF "$2"
}

# The pub fns of FILE whose return type names the type NAME.
returned_by() {
    strip_test_items "$2" | awk -v t="$1" '
        match($0, /pub (const |unsafe )?fn [A-Za-z_][A-Za-z0-9_]*/) {
            f = substr($0, RSTART, RLENGTH); sub(/.* /, "", f)
        }
        f != "" && (i = index($0, "->")) {
            if (substr($0, i) ~ ("[^A-Za-z0-9_]" t "([^A-Za-z0-9_]|$)")) print f
            f = ""
        }
        /\{ *$/ { f = "" }
    ' | sort -u
}

found="$(items | awk '$2 != "mod" && $2 != "use"' | while read -r unit kind name f; do
    named_elsewhere "$name" "$f" && continue
    case "$kind" in
        struct | enum | union | trait | type)
            for fn in $(returned_by "$name" "$f"); do
                named_elsewhere "$fn" "$f" && continue 2
            done
            ;;
    esac
    echo "$f $kind $name"
done)"
if [ -n "$found" ]; then
    echo "$found"
    echo "$(echo "$found" | grep -c .) pub items that no other file names" >&2
    exit 1
fi
