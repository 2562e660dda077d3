#!/bin/sh
# Alternating parent/change benchmark pairs (`just bench-pairs REV WORKLOAD
# PAIRS`), the comparison perf PRs quote. Builds the benchmark of REV in a
# `git archive` export under target/bench-pairs/ and the benchmark of the
# current checkout, then runs PAIRS pairs at seeds 1..PAIRS, REV first at
# odd seeds and second at even ones, every run `--seconds 10 --trace 0`.
# Prints every result line as it arrives, then per end-to-end metric the
# median [Q1, Q3] of each side, the ratio of the medians (change / parent),
# the median [min, max] of the per-pair ratios (change / parent at one
# seed, so seed-to-seed input spread cancels and run noise shows), how
# many pairs the change won and tied, and a verdict, with "better" and
# "bound" read from BENCHMARK.json:
#   gain        the change won at least 9 in 10 pairs, and its median is
#               better than the parent's by more than the parent's Q3 - Q1;
#   worse       its median is worse than the parent's by more than `bound`
#               (relative to the parent's median);
#   unresolved  the parent's (Q3 - Q1) / median exceeds `bound`, and not
#               every change run beats every parent run;
#   holds       otherwise.
# A last row, failed_share, sums each side's "failed" and "attempted" over
# its runs and says `worse` when the change's failed share exceeds the
# parent's, `holds` otherwise.
# WORKLOAD `all` does this for every workload BENCHMARK.json names, one
# table each. Not part of check.sh.
set -eu

if [ $# -ne 3 ]; then
    echo "usage: sh scripts/bench_pairs.sh PARENT_REV WORKLOAD|all PAIRS" >&2
    exit 2
fi
rev=$1
pairs=$3

cd "$(dirname "$0")/.."
root=$(pwd)
sha=$(git rev-parse --verify "$rev^{commit}")
tree="$root/target/bench-pairs/$sha"
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
    cargo build --release --quiet --manifest-path "$1/benchmark/Cargo.toml" \
        --target-dir "$1/benchmark/target" >&2
}
build "$tree"
build "$root"
stderr="$root/target/bench-pairs/run.stderr"

if [ "$2" = all ]; then
    # The "name" entries of BENCHMARK.json's "workloads" array.
    workloads=$(awk '
        /"workloads": \[/ { inside = 1; next }
        inside && /^  \]/ { exit }
        inside && match($0, /"name": "[^"]+"/) { print substr($0, RSTART + 9, RLENGTH - 10) }
    ' BENCHMARK.json)
else
    workloads=$2
fi

# A run that exits non-zero fails the comparison, result line or not.
run() {
    status=0
    out=$("$2/benchmark/target/release/spear-benchmark" --workload "$workload" \
        --seed "$3" --seconds 10 --trace 0 2>"$stderr") || status=$?
    if [ "$status" -ne 0 ]; then
        echo "$workload $1 seed $3: exit code $status; the end of its stderr:" >&2
        tail -n 20 "$stderr" >&2
        exit 1
    fi
    line=$(printf '%s\n' "$out" | grep '^{') || {
        echo "$1 seed $3: no result line (a failed output check exits without one)" >&2
        exit 1
    }
    echo "$1 seed=$3 $line"
    results="$results$1 $3 $line
"
}

# The summary table of the "side seed {json}" lines in $results.
summarize() {
    awk '
# Pass 1, BENCHMARK.json: which metrics are better higher, and their bounds.
FNR == NR {
    if (match($0, /"name": "[^"]+"/)) name = substr($0, RSTART + 9, RLENGTH - 10)
    if ($0 ~ /"better": "higher"/) higher[name] = 1
    if (match($0, /"bound": [0-9.eE+-]+/)) bound[name] = substr($0, RSTART + 9, RLENGTH - 9) + 0
    next
}
# Pass 2, one "side seed {json}" line per run.
{
    side = $1; seed = $2; rest = $0
    if (match(rest, /"attempted": [0-9]+/)) attempted[side] += substr(rest, RSTART + 13, RLENGTH - 13)
    if (match(rest, /"failed": [0-9]+/)) failed[side] += substr(rest, RSTART + 10, RLENGTH - 10)
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
    q1[side] = quantile(a, n, 0.25)
    q3[side] = quantile(a, n, 0.75)
    lo[side] = a[1]
    hi[side] = a[n]
    return sprintf("%.6g [%.6g, %.6g]", med[side], q1[side], q3[side])
}
function abs(x) { return x < 0 ? -x : x }
# The verdict on metric m from the last two summary() calls (see the
# script header).
function verdict(m, wins, n,    p, better, iqr, beats) {
    if (!(m in bound)) return "-"
    p = med["parent"]
    better = (m in higher) ? med["change"] - p : p - med["change"]
    iqr = q3["parent"] - q1["parent"]
    if (n > 0 && wins * 10 >= 9 * n && better > iqr) return "gain"
    if (p == 0 ? better < 0 : -better / abs(p) > bound[m]) return "worse"
    beats = (m in higher) ? lo["change"] > hi["parent"] : hi["change"] < lo["parent"]
    if (p != 0 && iqr / abs(p) > bound[m] && !beats) return "unresolved"
    return "holds"
}
END {
    printf "%-16s %-34s %-34s %8s %-27s %6s %5s  %s\n", "metric", "parent median [Q1, Q3]", \
        "change median [Q1, Q3]", "ratio", "pair ratio median [min, max]", "wins", "ties", \
        "verdict"
    for (i = 1; i <= metrics; i++) {
        m = order[i]
        p = summary("parent", m)
        c = summary("change", m)
        wins = ties = n = nr = 0
        split("", pair)
        for (s in seeds) {
            if (!(("parent", m, s) in value) || !(("change", m, s) in value)) continue
            n++
            d = value["change", m, s] - value["parent", m, s]
            if (d == 0) ties++
            else if ((d > 0) == (m in higher)) wins++
            if (value["parent", m, s] != 0) pair[++nr] = value["change", m, s] / value["parent", m, s]
        }
        ratio = med["parent"] == 0 ? "-" : sprintf("%.3f", med["change"] / med["parent"])
        sort(pair, nr)
        pairs = nr == 0 ? "-" : sprintf("%.3f [%.3f, %.3f]", quantile(pair, nr, 0.5), pair[1], pair[nr])
        printf "%-16s %-34s %-34s %8s %-27s %6s %5s  %s\n", m, p, c, ratio, pairs, wins "/" n, \
            ties, verdict(m, wins, n)
    }
    p = attempted["parent"] ? failed["parent"] / attempted["parent"] : 0
    c = attempted["change"] ? failed["change"] / attempted["change"] : 0
    printf "%-16s %-34s %-34s %8s %-27s %6s %5s  %s\n", "failed_share", \
        sprintf("%.6g (%d of %d)", p, failed["parent"], attempted["parent"]), \
        sprintf("%.6g (%d of %d)", c, failed["change"], attempted["change"]), "-", "-", "-", \
        "-", (c > p ? "worse" : "holds")
}
' BENCHMARK.json - <<RESULTS
$results
RESULTS
}

for workload in $workloads; do
    results=""
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
    echo "== $workload: $pairs pairs against $rev"
    summarize
done
