#!/usr/bin/env bash
# Non-test Rust lines per crate: the lines of every `.rs` file under
# `crates/*/src` that come before its first `#[cfg(test)]` line.
#
#   scripts/loc.sh [REV]
#
# Without REV it counts the working tree. With REV it also counts the
# files committed at REV and prints both columns and the difference.
set -euo pipefail
cd "$(dirname "$0")/.."
[[ $# -le 1 && ${1:-} != -* ]] || { sed -n '2,8p' "$0" >&2; exit 2; }

# Reads "crate<TAB>lines" rows and prints one total per crate, sorted.
sum_by_crate() {
    awk -F'\t' '{ n[$1] += $2 } END { for (c in n) print c "\t" n[c] }' | sort
}

# Lines before the first `#[cfg(test)]` on stdin.
non_test_lines() {
    awk '/^#\[cfg\(test\)\]/ { exit } { n++ } END { print n + 0 }'
}

count_tree() {
    local f
    find crates/*/src -name '*.rs' | sort | while read -r f; do
        printf '%s\t%s\n' "$(cut -d/ -f2 <<<"$f")" "$(non_test_lines <"$f")"
    done | sum_by_crate
}

count_rev() {
    local f
    git ls-tree -r --name-only "$1" -- crates | grep -E '^crates/[^/]+/src/.*\.rs$' |
        while read -r f; do
            printf '%s\t%s\n' "$(cut -d/ -f2 <<<"$f")" \
                "$(git show "$1:$f" | non_test_lines)"
        done | sum_by_crate
}

if [[ $# -eq 0 ]]; then
    count_tree | awk -F'\t' '
        { printf "%-12s %8d\n", $1, $2; t += $2 }
        END { printf "%-12s %8d\n", "total", t }'
    exit 0
fi

rev=$1
git rev-parse --verify --quiet "$rev^{commit}" >/dev/null || { echo "unknown rev: $rev" >&2; exit 2; }
join -t $'\t' -a1 -a2 -e0 -o 0,1.2,2.2 <(count_rev "$rev") <(count_tree) | awk -F'\t' -v rev="$rev" '
    BEGIN { printf "%-12s %8s %8s %8s\n", "crate", substr(rev, 1, 8), "tree", "diff" }
    { printf "%-12s %8d %8d %+8d\n", $1, $2, $3, $3 - $2; a += $2; b += $3 }
    END { printf "%-12s %8d %8d %+8d\n", "total", a, b, b - a }'
