#!/bin/sh
# Compat gate (`just compat`; run by scripts/check.sh). Lists every
# `#[doc(hidden)]` item of product code — a name the stand-alone
# `benchmark/` crate still calls after the product moved on — as
# `file<TAB>item`, and exits non-zero naming each item without a row in
# DESIGN.md §18, each row whose item the scan no longer finds, and each
# row whose call site does not name the item. A row is
# | `item` | `benchmark/src/FILE.rs:LINE` | why |, and its call site's line
# must contain the item's last path segment. An item is named as its
# declaration names it: a re-export by its path (`compat::BlockPool`), a
# struct field as `Struct::field`, anything else by its name. Product code
# is what scripts/loc.sh counts.
set -eu

cd "$(dirname "$0")/.."

. scripts/test_only_files.sh

# `file<TAB>item` for each `#[doc(hidden)]` declaration in FILE, down to
# the file's last top-level `#[cfg(test)]`.
hidden() {
    awk -v file="$1" '
        NR == FNR { if ($0 ~ /^#\[cfg\(test\)\]/) last = FNR; next }
        last && FNR >= last { exit }
        {
            line = $0
            sub(/\/\/.*/, "", line)
            if (match(line, /(^|[ \t])struct[ \t]+[A-Za-z_][A-Za-z0-9_]*/)) {
                owner = substr(line, RSTART, RLENGTH)
                sub(/.*struct[ \t]+/, "", owner)
            }
            if (line ~ /^[ \t]*#\[doc\(hidden\)\]/) { pending = 1; next }
            if (!pending || line ~ /^[ \t]*(#\[|$)/) next
            pending = 0
            sub(/^[ \t]*pub(\([a-z]+\))?[ \t]+/, "", line)
            if (sub(/^use[ \t]+/, "", line)) {
                sub(/^(crate|self)::/, "", line)
                sub(/[ \t]*;.*/, "", line)
                item = line
            } else if (match(line, /^[A-Za-z_][A-Za-z0-9_]*[ \t]*:/)) {
                item = owner "::" substr(line, 1, RLENGTH)
                sub(/[ \t]*:$/, "", item)
            } else {
                sub(/^(fn|struct|enum|mod|trait|type|const|static)[ \t]+/, "", line)
                match(line, /^[A-Za-z_][A-Za-z0-9_]*/)
                item = substr(line, 1, RLENGTH)
            }
            print file "\t" item
        }
    ' "$1" "$1"
}

found=$(
    for dir in src crates/*/src; do
        skip=$(test_only_files "$dir")
        find "$dir" -name '*.rs' -print | sort | while read -r file; do
            if ! printf '%s\n' "$skip" | grep -qxF "$file"; then
                hidden "$file"
            fi
        done
    done
)

# `item<TAB>call site` of every row in DESIGN.md §18.
rows=$(awk '
    /^## 18\./ { inside = 1; next }
    inside && /^## / { exit }
    inside && /^\| `[^`]+` \| `[^`]+` \|/ {
        split($0, cell, /`/)
        print cell[2] "\t" cell[4]
    }
' DESIGN.md)

failed=0
tab=$(printf '\t')
while IFS=$tab read -r file item; do
    [ -n "$file" ] || continue
    if printf '%s\n' "$rows" | cut -f1 | grep -qxF "$item"; then
        printf '%s\t%s\n' "$file" "$item"
    else
        printf '%s\t%s\tMISSING from the DESIGN.md compat table\n' "$file" "$item"
        failed=$((failed + 1))
    fi
done <<EOF_FOUND
$found
EOF_FOUND

while IFS=$tab read -r item site; do
    [ -n "$item" ] || continue
    if ! printf '%s\n' "$found" | cut -f2 | grep -qxF "$item"; then
        printf '%s\tSTALE: a compat row for an item the scan does not find\n' "$item"
        failed=$((failed + 1))
        continue
    fi
    path=${site%:*}
    line=${site##*:}
    case "$path" in
        benchmark/*) ;;
        *) path= ;;
    esac
    if [ -z "$path" ] || [ ! -f "$path" ] ||
        ! sed -n "${line}p" "$path" | grep -qF "${item##*::}"; then
        printf '%s\t%s\tthe call site does not name %s\n' "$item" "$site" "${item##*::}"
        failed=$((failed + 1))
    fi
done <<EOF_ROWS
$rows
EOF_ROWS

if [ "$failed" -ne 0 ]; then
    echo "compat.sh: $failed compat item(s) or row(s) out of step" >&2
    exit 1
fi
