#!/bin/sh
# Lock inventory gate (`just locks`; run by scripts/check.sh). Lists every
# field or static of product code whose type names a `Mutex`, `RwLock`,
# `Condvar`, `OnceLock` or `Atomic*`, as `file<TAB>field`, and exits
# non-zero naming each one that has no row in DESIGN.md §5's lock
# inventory. A row is keyed by its first two cells: | `file` | `field` |.
# Product code is what scripts/loc.sh counts: `src/**/*.rs` down to each
# file's last top-level `#[cfg(test)]`, without the files compiled only as
# `#[cfg(test)] mod name;`.
set -eu

cd "$(dirname "$0")/.."

. scripts/test_only_files.sh

# `file<TAB>name` for each declaration in FILE: a line `name: Type`, with
# optional `pub`/`static` in front, whose type (the text after the colon,
# up to a static's `=`) has no parenthesis — that rules out struct
# literals and argument lists — and names a lock or an atomic.
declarations() {
    awk -v file="$1" '
        NR == FNR { if ($0 ~ /^#\[cfg\(test\)\]/) last = FNR; next }
        last && FNR >= last { exit }
        {
            line = $0
            sub(/\/\/.*/, "", line)
            if (!match(line, /^[ \t]*(pub(\([a-z]+\))?[ \t]+)?(static[ \t]+)?[A-Za-z_][A-Za-z0-9_]*[ \t]*:([^:]|$)/)) next
            name = substr(line, 1, RLENGTH)
            sub(/[ \t]*:.$/, "", name); sub(/[ \t]*:$/, "", name); sub(/.*[ \t]/, "", name)
            type = substr(line, RLENGTH)
            sub(/=.*/, "", type)
            if (type ~ /\(/) next
            if (type ~ /(^|[^A-Za-z0-9_])(Mutex|RwLock|Condvar|OnceLock|Atomic[A-Za-z0-9]+)([^A-Za-z0-9_]|$)/)
                print file "\t" name
        }
    ' "$1" "$1"
}

found=$(
    for dir in src crates/*/src; do
        skip=$(test_only_files "$dir")
        find "$dir" -name '*.rs' -print | sort | while read -r file; do
            if ! printf '%s\n' "$skip" | grep -qxF "$file"; then
                declarations "$file"
            fi
        done
    done
)

missing=0
tab=$(printf '\t')
while IFS=$tab read -r file name; do
    [ -n "$file" ] || continue
    if grep -qF "| \`$file\` | \`$name\` |" DESIGN.md; then
        printf '%s\t%s\n' "$file" "$name"
    else
        printf '%s\t%s\tMISSING from the DESIGN.md lock inventory\n' "$file" "$name"
        missing=$((missing + 1))
    fi
done <<EOF_FOUND
$found
EOF_FOUND

if [ "$missing" -ne 0 ]; then
    echo "locks.sh: $missing lock or atomic declaration(s) without an inventory row" >&2
    exit 1
fi
