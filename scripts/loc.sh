#!/usr/bin/env bash
# Non-test Rust lines per crate: the non-blank lines of each crate's src/
# that are not `//` comments, counting each file only up to its first
# `#[cfg(test)]`. The vendored shims (crates/shims/) and the benchmark
# package (benchmark/) are left out; the facade crate's own src/ counts
# as `mortar`.
#
#   scripts/loc.sh
set -euo pipefail
cd "$(dirname "${BASH_SOURCE[0]}")/.."

# Prints the count for every .rs file under $1, summed.
count() {
    find "$1" -name '*.rs' -exec awk '
        FNR == 1 { skip = 0 }
        /^[[:space:]]*#\[cfg\(test\)\]/ { skip = 1 }
        skip || /^[[:space:]]*$/ || /^[[:space:]]*\/\// { next }
        { n++ }
        END { print n + 0 }' {} + | awk '{ s += $1 } END { print s + 0 }'
}

total=0
for dir in src crates/*/src; do
    case "$dir" in
    crates/shims/*) continue ;;
    src) name=mortar ;;
    *) name=$(basename "$(dirname "$dir")") ;;
    esac
    n=$(count "$dir")
    total=$((total + n))
    printf '%-10s %7d\n' "$name" "$n"
done
printf '%-10s %7d\n' total "$total"
