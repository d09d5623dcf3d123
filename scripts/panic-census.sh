#!/usr/bin/env bash
# Panic census: the `.unwrap()`, `.expect(`, `panic!(` and `unreachable!(`
# sites in non-test library code, per crate, and beside them the
# `assert!(`, `assert_eq!(` and `assert_ne!(` sites (`debug_assert`s are
# not counted: release builds drop them). Each source file is read up to
# its first `#[cfg(test)]`; lines that start with `//` (comments and doc
# comments, doc examples included) are skipped; `crates/bench` (the
# experiment harness) is left out. Prints one `crate panics asserts` line
# per crate, then the totals.
#
#   scripts/panic-census.sh [repo-root]
#
# A measurement for the panic audit, not a gate: it always exits 0.
set -euo pipefail
root=${1:-"$(dirname "$0")/.."}
total=0
asserts=0
for src in "$root"/crates/*/src; do
    crate=$(basename "$(dirname "$src")")
    [ "$crate" = bench ] && continue
    read -r n a < <(find "$src" -name '*.rs' -print0 | sort -z | xargs -0 awk '
        FNR == 1 { live = 1 }
        /#\[cfg\(test\)\]/ { live = 0 }
        !live || /^[[:space:]]*\/\// { next }
        { n += gsub(/\.unwrap\(\)|\.expect\(|panic!\(|unreachable!\(/, "&") }
        { a += gsub(/(^|[^_[:alnum:]])assert(_eq|_ne)?!\(/, "&") }
        END { print n + 0, a + 0 }')
    printf '%-12s %3d %3d\n' "$crate" "$n" "$a"
    total=$((total + n))
    asserts=$((asserts + a))
done
printf '%-12s %3d %3d\n' total "$total" "$asserts"
