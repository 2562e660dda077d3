#!/bin/sh
# Tier-1 gate: everything a PR must keep green. Runnable directly
# (`sh scripts/check.sh`) or via `just check`.
set -eux

cargo build --release
# One pass over every suite (the root package's tests included).
cargo test --workspace -q
# The vendored offline shims sit outside the workspace, so the line above
# never runs their own unit tests (rand's include its golden streams).
cargo test -q -p rand -p serde -p serde_json -p proptest -p parking_lot
# Building the benchmark rewrites its committed lockfile (it still lists a
# dependency the workspace dropped), so keep a copy of the committed bytes
# and put them back after the two benchmark steps, also when one fails.
mkdir -p target/check
cp benchmark/Cargo.lock target/check/benchmark-Cargo.lock
restore_lock() {
    cp target/check/benchmark-Cargo.lock benchmark/Cargo.lock
}
trap restore_lock EXIT
trap 'exit 1' INT TERM
# The stand-alone benchmark crate is outside the workspace: keep its
# self-tests compiling against the crates they drive.
cargo test --release --manifest-path benchmark/Cargo.toml -q
# ... and its output checks passing against them, on all five workloads.
sh scripts/bench_smoke.sh
restore_lock
trap - EXIT INT TERM
# Reproduction gate: the eight paper outputs, the static-analysis report
# (the bytecode lints and the static cost envelope over the golden plan
# corpus) and the corpus listings must match their checked-in results byte
# for byte (the virtual clock makes the comparison exact; no bin prints
# host timing). Each output is written under target/ before it is
# compared, so a program that exits non-zero fails the gate even when it
# printed the expected bytes.
for bin in table3 table4 figure1 ablation_cache ablation_planner ablation_views \
    ablation_predictive ablation_gen_fusion analyze disasm; do
    cargo run --release -q -p spear-bench --bin "$bin" > "target/check/$bin.txt"
    cmp "target/check/$bin.txt" "results/$bin.txt"
done
# ... and so must every example: the SPEAR-DL tour (error text, compile,
# verify, execute) and the four that drive P end to end (views, REF,
# refinement history, meta prompts).
for example in spear_dl_tour quickstart adaptive_retry enoxaparin_qa sentiment_pipeline; do
    cargo run --release -q --example "$example" > "target/check/$example.txt"
    cmp "target/check/$example.txt" "results/$example.txt"
done
cargo clippy --workspace --all-targets -- -D warnings
cargo fmt --all -- --check
# Lock inventory gate: every lock or atomic in product code has a row in
# DESIGN.md §5 naming the threads that meet there, and every row a lock.
sh scripts/locks.sh
# Compat gate: every `#[doc(hidden)]` item has a DESIGN.md §18 row naming
# the `benchmark/` call site that still needs it.
sh scripts/compat.sh
# Doc gate: a renamed or deleted item must not leave a dangling doc link.
RUSTDOCFLAGS="-D warnings" cargo doc --workspace --no-deps
# Information, not a gate: the non-test line count simplicity PRs quote.
sh scripts/loc.sh
