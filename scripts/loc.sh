#!/usr/bin/env bash
# Non-test lines of Rust per crate: for every `.rs` file under
# `crates/*/src` and the root package's `src/`, the lines above the
# `#[cfg(test)]` that opens the file's first test `mod` (a `#[cfg(test)]`
# line followed by a `mod <name> {` line, the `mod` perhaps with a
# visibility such as `pub(crate)`); a file with no test `mod` counts
# whole. Blank and comment lines count. One row per package, then
# the workspace total. Two more rows count every line of every `.rs` file,
# tests included: under `crates src tests examples` (the unit ROADMAP
# states its size targets in), and the same plus `ledger/src`.
#
# Usage: scripts/loc.sh [ROOT]   (ROOT defaults to this script's repo, so
#                                 a second checkout can be counted the
#                                 same way)

set -euo pipefail
root="${1:-$(dirname "$0")/..}"
cd "$root"

# Non-test lines of the files named on stdin, summed.
count() {
    local total=0 n f
    while IFS= read -r f; do
        n=$(awk '
            /^#\[cfg\(test\)\]$/ { pending = NR; next }
            pending && /^(pub(\([^)]*\))? )?mod [A-Za-z0-9_]+ \{/ { print pending - 1; found = 1; exit }
            { pending = 0 }
            END { if (!found) print NR }
        ' "$f")
        total=$((total + n))
    done
    echo "$total"
}

# The `name = "..."` of a manifest's [package] table.
package() {
    awk -F'"' '/^\[package\]/ { p = 1; next } /^\[/ { p = 0 } p && /^name *=/ { print $2; exit }' "$1"
}

sum=0
for dir in crates/*/ .; do
    dir="${dir%/}"
    [[ -d "$dir/src" && -f "$dir/Cargo.toml" ]] || continue
    n=$(find "$dir/src" -name '*.rs' | sort | count)
    printf '%-16s %6d\n' "$(package "$dir/Cargo.toml")" "$n"
    sum=$((sum + n))
done
printf '%-16s %6d\n' "workspace" "$sum"

# Every line of the `.rs` files under the directories named, summed.
all_lines() {
    find "$@" -name '*.rs' -print0 | xargs -0 cat | wc -l
}
printf '%-16s %6d\n' "all .rs" "$(all_lines crates src tests examples)"
printf '%-16s %6d\n' "all .rs+ledger" "$(all_lines crates src tests examples ledger/src)"
