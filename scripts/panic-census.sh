#!/usr/bin/env bash
# Panic census: the `.unwrap()`, `.expect(`, `panic!(` and `unreachable!(`
# sites in non-test library code, per crate. Each source file is read up to
# its first `#[cfg(test)]`; lines that start with `//` (comments and doc
# comments, doc examples included) are skipped; `crates/bench` (the
# experiment harness) is left out. Prints one `crate count` line per crate,
# then the total.
#
#   scripts/panic-census.sh [repo-root]
#
# A measurement for the panic audit, not a gate: it always exits 0.
set -euo pipefail
root=${1:-"$(dirname "$0")/.."}
total=0
for src in "$root"/crates/*/src; do
    crate=$(basename "$(dirname "$src")")
    [ "$crate" = bench ] && continue
    n=$(find "$src" -name '*.rs' -print0 | sort -z | xargs -0 awk '
        FNR == 1 { live = 1 }
        /#\[cfg\(test\)\]/ { live = 0 }
        !live || /^[[:space:]]*\/\// { next }
        { n += gsub(/\.unwrap\(\)|\.expect\(|panic!\(|unreachable!\(/, "&") }
        END { print n + 0 }')
    printf '%-12s %3d\n' "$crate" "$n"
    total=$((total + n))
done
printf '%-12s %3d\n' total "$total"
