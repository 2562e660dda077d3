# Sourced by scripts/loc.sh and scripts/locks.sh: the one rule for which
# `src/` files are test code.
#
# test_only_files DIR prints the files declared by `#[cfg(test)] mod name;`
# (attributes may sit between the two) anywhere under DIR, as both paths
# the module may take.
test_only_files() {
    find "$1" -name '*.rs' -print | while read -r file; do
        dir=$(dirname "$file")
        case "$(basename "$file")" in
            lib.rs | main.rs | mod.rs) base=$dir ;;
            *) base=$dir/$(basename "$file" .rs) ;;
        esac
        awk '
            /^[ \t]*#\[cfg\(test\)\]/ { test = 1; next }
            /^[ \t]*#\[/ { next }
            test && /^[ \t]*(pub(\([a-z]+\))? )?mod [A-Za-z0-9_]+;/ {
                sub(/.*mod /, ""); sub(/;.*/, ""); print
            }
            { test = 0 }
        ' "$file" | while read -r name; do
            printf '%s\n%s\n' "$base/$name.rs" "$base/$name/mod.rs"
        done
    done
}
