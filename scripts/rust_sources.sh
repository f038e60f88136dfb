# Shared by nontest_lines.sh and pub_items.sh; source it from the repo root
# (or from an exported tree of it).

# The `.rs` files under `crates/*/src` and `src`, sorted, without the files
# that a parent declares with `#[cfg(test)] mod x;` (nor anything under such
# a module's directory).
nontest_sources() {
    local all test f name dir
    all="$(find crates/*/src src -name '*.rs' | LC_ALL=C sort)"
    test="$(for f in $all; do
        awk '
            pending && /^#\[/ { next }
            pending && match($0, /^(pub(\([^)]*\))? )?mod [A-Za-z0-9_]+;/) {
                name = $0
                sub(/^(pub(\([^)]*\))? )?mod /, "", name)
                sub(/;.*/, "", name)
                print name
            }
            { pending = 0 }
            /^#\[cfg\(test\)\]$/ { pending = 1 }
        ' "$f" | while read -r name; do
            case "$f" in
                */lib.rs | */main.rs | */mod.rs) dir="$(dirname "$f")" ;;
                *) dir="${f%.rs}" ;;
            esac
            echo "$dir/$name.rs"
            echo "$dir/$name/"
        done
    done)"
    for f in $all; do
        local t keep=1
        for t in $test; do
            case "$t" in
                */) case "$f" in "$t"*) keep=0 ;; esac ;;
                *) [ "$f" != "$t" ] || keep=0 ;;
            esac
        done
        [ "$keep" -eq 0 ] || echo "$f"
    done
}

# FILE without its column-0 `#[cfg(test)]` items: the attribute, any further
# attribute lines, and then either one line (ending in `;`, or with balanced
# braces and ending in `}`) or a braced item up to its closing `}` at column 0.
strip_test_items() {
    awk '
        braced { if (/^}/) braced = 0; next }
        pending {
            if (/^#\[/) next
            pending = 0
            line = $0
            open = gsub(/\{/, "{", line)
            close_ = gsub(/\}/, "}", line)
            if ($0 ~ /;[ \t]*$/ || (open == close_ && $0 ~ /\}[ \t]*$/)) next
            braced = 1
            next
        }
        /^#\[cfg\(test\)\]/ { pending = 1; next }
        { print }
    ' "$1"
}
