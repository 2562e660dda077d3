#!/bin/sh
# Byte-identity check of the paper outputs (`just paper-diff REV`), for a
# change that claims to move none of them. Builds REV in a `git archive`
# export under target/paper-diff/, the way bench_pairs.sh builds its parent, and
# the current checkout, then runs on both sides, with default arguments:
# the ten spear-bench bins (table3, table4, figure1, the five ablations,
# analyze, disasm) and the five examples. Prints `same` or `differs` for
# each one's stdout (the bytes results/ holds) and exits non-zero if any
# output differs or a run fails. Unlike check.sh, which compares some of
# these with results/, this compares two revisions, so it also covers
# table3, table4 and figure1. Not part of check.sh.
set -eu

if [ $# -ne 1 ]; then
    echo "usage: sh scripts/paper_diff.sh REV" >&2
    exit 2
fi

cd "$(dirname "$0")/.."
root=$(pwd)
sha=$(git rev-parse --verify "$1^{commit}")
tree="$root/target/paper-diff/$sha"
if [ ! -d "$tree" ]; then
    # An export of REV's files, not a worktree: nothing is written to .git.
    # It is unpacked beside its final path and renamed, so an interrupted
    # export is not taken for a whole one.
    rm -rf "$tree.partial"
    mkdir -p "$tree.partial"
    git archive "$sha" | tar -x -C "$tree.partial"
    mv "$tree.partial" "$tree"
fi

# Each side builds into its own checkout, whatever CARGO_TARGET_DIR says.
build() {
    cargo build --release --quiet --manifest-path "$1/Cargo.toml" \
        --target-dir "$1/target" -p spear-bench --bins >&2
    cargo build --release --quiet --manifest-path "$1/Cargo.toml" \
        --target-dir "$1/target" -p spear --examples >&2
}
build "$tree"
build "$root"

out="$root/target/paper-diff/out"
mkdir -p "$out/parent" "$out/change"
status=0

# compare NAME PATH: run target/release/PATH in each checkout, then compare.
compare() {
    for side in parent change; do
        if [ "$side" = parent ]; then dir=$tree; else dir=$root; fi
        if ! (cd "$dir" && "./target/release/$2") >"$out/$side/$1.txt" 2>"$out/$side/$1.err"; then
            echo "$1: failed at $side (stderr in $out/$side/$1.err)" >&2
            status=1
        fi
    done
    if cmp -s "$out/parent/$1.txt" "$out/change/$1.txt"; then
        echo "same     $1"
    else
        echo "differs  $1"
        status=1
    fi
}

for bin in table3 table4 figure1 ablation_cache ablation_gen_fusion ablation_planner \
    ablation_predictive ablation_views analyze disasm; do
    compare "$bin" "$bin"
done
for example in quickstart adaptive_retry spear_dl_tour enoxaparin_qa sentiment_pipeline; do
    compare "$example" "examples/$example"
done
exit "$status"
