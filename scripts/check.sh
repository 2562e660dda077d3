#!/bin/sh
# Tier-1 gate: everything a PR must keep green. Runnable directly
# (`sh scripts/check.sh`) or via `just check`.
set -eux

cargo build --release
# One pass over every suite (the root package's tests included).
cargo test --workspace -q
# The stand-alone benchmark crate is outside the workspace: keep its
# self-tests compiling against the crates they drive.
cargo test --release --manifest-path benchmark/Cargo.toml -q
# ... and its output checks passing against them, on all five workloads.
sh scripts/bench_smoke.sh
# Static-analysis gate: bytecode lints, translation validation, and the
# verified optimizer's bisimulation check over the golden plan corpus.
cargo run --release -p spear-bench --bin analyze
# The two bench gates write under target/bench/: fresh wall-clock numbers
# over the checked-in BENCH_*.json are noise in a diff (regenerate those
# deliberately with `just bench-cluster` / `just bench-reuse`).
mkdir -p target/bench
# Cluster scale-out gate: exits non-zero below 0.7x ideal scaling at 8
# nodes, if hash-random matches prefix-aware on fleet hit rate, or on
# any cross-lane fingerprint divergence (incl. churn replay).
cargo run --release -p spear-bench --bin bench_cluster -- --out target/bench/BENCH_cluster.json
# Generation-reuse gate: exits non-zero below 1.5x host throughput with
# the whole-call memo on, on any fingerprint divergence from reuse-off,
# or if the hit/coalesced ledger varies across lane counts.
cargo run --release -p spear-bench --bin bench_serve -- --reuse --out target/bench/BENCH_reuse.json
cargo clippy --workspace --all-targets -- -D warnings
cargo fmt --all -- --check
# Information, not a gate: the non-test line count simplicity PRs quote.
sh scripts/loc.sh
