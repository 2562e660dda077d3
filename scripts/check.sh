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
# The stand-alone benchmark crate is outside the workspace: keep its
# self-tests compiling against the crates they drive.
cargo test --release --manifest-path benchmark/Cargo.toml -q
# ... and its output checks passing against them, on all five workloads.
sh scripts/bench_smoke.sh
# Static-analysis gate: bytecode lints, translation validation, and the
# verified optimizer's bisimulation check over the golden plan corpus.
cargo run --release -p spear-bench --bin analyze
# Reproduction gate: these paper outputs must match their checked-in
# results byte for byte (the virtual clock makes the comparison exact).
for bin in ablation_planner ablation_gen_fusion; do
    cargo run --release -q -p spear-bench --bin "$bin" | cmp - "results/$bin.txt"
done
cargo clippy --workspace --all-targets -- -D warnings
cargo fmt --all -- --check
# Doc gate: a renamed or deleted item must not leave a dangling doc link.
RUSTDOCFLAGS="-D warnings" cargo doc --workspace --no-deps
# Information, not a gate: the non-test line count simplicity PRs quote.
sh scripts/loc.sh
