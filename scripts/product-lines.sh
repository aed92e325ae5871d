#!/usr/bin/env bash
# Print the product (non-test) line count of each product crate and
# their total. Informational only: it never fails on a count.
#
# A product line is any line (blank and comment lines included) of a
# `crates/<crate>/src/**/*.rs` file that is not part of a test-only item.
# Two things are test-only:
#   * every item introduced by a column-0 `#[cfg(test)]` attribute
#     (a `mod tests { … }`, a test helper module, a `mod x;` line), from
#     the attribute to the item's end — its `;` line, or the column-0
#     line that closes its braces;
#   * every file whose `mod` declaration sits under such an attribute
#     (`#[cfg(test)] mod incremental;` in `catalog.rs` makes
#     `catalog/incremental.rs` test-only), with the files it declares.
#
# Usage: scripts/product-lines.sh [crate-dir …]   (run from the repo root;
# default: the nine product crates)

set -euo pipefail

crates=("$@")
if [ ${#crates[@]} -eq 0 ]; then
    crates=(relational calculus algebra rules translate analyze durable core server)
fi

# Lines of one file outside column-0 `#[cfg(test)]` items; with
# `list_test_mods=1`, print instead the names of the modules that file
# declares under such an attribute (`mod name;`).
count_awk='
FNR == 1 { state = 0 }
state == 0 && /^#\[cfg\(test\)\]/ { state = 1; next }
state == 1 {
    if ($0 ~ /^#\[/) next
    if (list_test_mods && $0 ~ /^(pub(\([a-z]+\))? )?mod [A-Za-z_0-9]+;/) {
        name = $0
        sub(/^(pub(\([a-z]+\))? )?mod /, "", name)
        sub(/;.*/, "", name)
        print name
    }
    if ($0 ~ /;[[:space:]]*$/ && $0 !~ /\{/) { state = 0; next }
    if ($0 ~ /\{.*\}[[:space:]]*$/) { state = 0; next }
    state = 2
    next
}
state == 2 { if ($0 ~ /^[\})\]]/) state = 0; next }
!list_test_mods { n++ }
END { if (!list_test_mods) print n + 0 }
'

# The directory a file's child modules live in: `a/b.rs` → `a/b`;
# `lib.rs`, `main.rs` and `mod.rs` → their own directory.
child_dir() {
    case "$(basename "$1")" in
        lib.rs | main.rs | mod.rs) dirname "$1" ;;
        *) echo "${1%.rs}" ;;
    esac
}

total=0
for crate in "${crates[@]}"; do
    src="crates/$crate/src"
    # Test-only files: declared under `#[cfg(test)]`, and everything
    # below them.
    excluded=()
    while IFS= read -r -d '' f; do
        while IFS= read -r m; do
            d=$(child_dir "$f")
            for cand in "$d/$m.rs" "$d/$m/mod.rs"; do
                [ -f "$cand" ] && excluded+=("$cand")
            done
            [ -d "$d/$m" ] && while IFS= read -r -d '' g; do
                excluded+=("$g")
            done < <(find "$d/$m" -name '*.rs' -print0)
        done < <(awk -v list_test_mods=1 "$count_awk" "$f")
    done < <(find "$src" -name '*.rs' -print0)
    n=0
    while IFS= read -r -d '' f; do
        skip=0
        for e in "${excluded[@]+"${excluded[@]}"}"; do
            [ "$f" = "$e" ] && skip=1
        done
        [ $skip -eq 1 ] && continue
        n=$((n + $(awk -v list_test_mods=0 "$count_awk" "$f")))
    done < <(find "$src" -name '*.rs' -print0 | sort -z)
    printf '%-12s %6d\n' "$crate" "$n"
    total=$((total + n))
done
printf '%-12s %6d\n' total "$total"
