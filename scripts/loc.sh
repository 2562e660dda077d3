#!/bin/sh
# Non-test Rust line count (`just loc`; printed by scripts/check.sh as
# information, not a gate), so simplicity PRs quote one number. Per crate:
# every `src/**/*.rs` line down to the file's last top-level `#[cfg(test)]`
# (that marker line included; a file without one counts whole). `tests/`
# and `benches/` directories are not read. Blank and comment lines count:
# deleting them must not look like a reduction. The root package (`src/`)
# is listed as `spear`; `vendor/` and `benchmark/` are outside the
# workspace and not counted.
set -eu

cd "$(dirname "$0")/.."

count() {
    find "$1" -name '*.rs' -print | sort | while read -r file; do
        awk '/^#\[cfg\(test\)\]/ { last = NR } END { print (last ? last : NR) }' "$file"
    done | awk '{ total += $1 } END { print total + 0 }'
}

total=0
for dir in src crates/*/src; do
    case "$dir" in
        src) name=spear ;;
        *) name=$(basename "$(dirname "$dir")") ;;
    esac
    lines=$(count "$dir")
    total=$((total + lines))
    printf '%-12s %6d\n' "$name" "$lines"
done
printf '%-12s %6d\n' workspace "$total"
