#!/bin/sh
# Alternating parent/change benchmark pairs (`just bench-pairs REV WORKLOAD
# PAIRS`), the comparison perf PRs quote. Builds the benchmark of REV in a
# git worktree under target/bench-pairs/ and the benchmark of the current
# checkout, then runs PAIRS pairs at seeds 1..PAIRS, REV first at odd seeds
# and second at even ones, every run `--seconds 10 --trace 0`. Prints every
# result line as it arrives, then per end-to-end metric the median [Q1, Q3]
# of each side, the ratio of the medians (change / parent) and how many
# pairs the change won and tied, "better" read from BENCHMARK.json. Not
# part of check.sh.
set -eu

if [ $# -ne 3 ]; then
    echo "usage: sh scripts/bench_pairs.sh PARENT_REV WORKLOAD PAIRS" >&2
    exit 2
fi
rev=$1
workload=$2
pairs=$3

cd "$(dirname "$0")/.."
root=$(pwd)
sha=$(git rev-parse --verify "$rev^{commit}")
tree="$root/target/bench-pairs/$sha"
if [ ! -d "$tree" ]; then
    # -f: a tree deleted with target/ is still registered until pruned.
    git worktree add -f --detach "$tree" "$sha" >&2
fi

# Each side builds into its own checkout, whatever CARGO_TARGET_DIR says.
build() {
    cargo build --release --quiet --manifest-path "$1/benchmark/Cargo.toml" \
        --target-dir "$1/benchmark/target" >&2
}
build "$tree"
build "$root"

results=""

run() {
    line=$("$2/benchmark/target/release/spear-benchmark" --workload "$workload" \
        --seed "$3" --seconds 10 --trace 0 2>/dev/null | grep '^{') || {
        echo "$1 seed $3: no result line (a failed output check exits without one)" >&2
        exit 1
    }
    echo "$1 seed=$3 $line"
    results="$results$1 $3 $line
"
}

seed=1
while [ "$seed" -le "$pairs" ]; do
    if [ $((seed % 2)) -eq 1 ]; then
        run parent "$tree" "$seed"
        run change "$root" "$seed"
    else
        run change "$root" "$seed"
        run parent "$tree" "$seed"
    fi
    seed=$((seed + 1))
done

awk '
# Pass 1, BENCHMARK.json: which metrics are better higher.
FNR == NR {
    if (match($0, /"name": "[^"]+"/)) name = substr($0, RSTART + 9, RLENGTH - 10)
    if ($0 ~ /"better": "higher"/) higher[name] = 1
    next
}
# Pass 2, one "side seed {json}" line per run.
{
    side = $1; seed = $2; rest = $0
    while (match(rest, /"[a-z_0-9]+": \{"value": [-0-9.eE+]+/)) {
        field = substr(rest, RSTART, RLENGTH)
        rest = substr(rest, RSTART + RLENGTH)
        split(field, parts, "\"")
        metric = parts[2]
        sub(/.*"value": /, "", field)
        if (!(metric in seen)) { seen[metric] = 1; order[++metrics] = metric }
        value[side, metric, seed] = field + 0
        seeds[seed] = 1
    }
}
function sort(a, n,    i, j, t) {
    for (i = 2; i <= n; i++) {
        t = a[i]
        for (j = i - 1; j >= 1 && a[j] > t; j--) a[j + 1] = a[j]
        a[j + 1] = t
    }
}
# Linear interpolation between order statistics.
function quantile(a, n, q,    h, lo) {
    h = (n - 1) * q + 1
    lo = int(h)
    return lo >= n ? a[n] : a[lo] + (h - lo) * (a[lo + 1] - a[lo])
}
function summary(side, metric,    n, s, a) {
    n = 0
    for (s in seeds) if ((side, metric, s) in value) a[++n] = value[side, metric, s]
    sort(a, n)
    med[side] = quantile(a, n, 0.5)
    return sprintf("%.6g [%.6g, %.6g]", med[side], quantile(a, n, 0.25), quantile(a, n, 0.75))
}
END {
    printf "%-16s %-34s %-34s %8s %6s %5s\n", "metric", "parent median [Q1, Q3]", \
        "change median [Q1, Q3]", "ratio", "wins", "ties"
    for (i = 1; i <= metrics; i++) {
        m = order[i]
        p = summary("parent", m)
        c = summary("change", m)
        wins = ties = n = 0
        for (s in seeds) {
            if (!(("parent", m, s) in value) || !(("change", m, s) in value)) continue
            n++
            d = value["change", m, s] - value["parent", m, s]
            if (d == 0) ties++
            else if ((d > 0) == (m in higher)) wins++
        }
        ratio = med["parent"] == 0 ? "-" : sprintf("%.3f", med["change"] / med["parent"])
        printf "%-16s %-34s %-34s %8s %6s %5s\n", m, p, c, ratio, wins "/" n, ties
    }
}
' BENCHMARK.json - <<RESULTS
$results
RESULTS
