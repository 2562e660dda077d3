# SPEAR task runner. `just check` is the tier-1 gate (see README).

# Run everything CI gates on: release build, tests, strict clippy, fmt.
check:
    sh scripts/check.sh

# Reformat the workspace in place (the gate only checks).
fmt:
    cargo fmt --all

# Non-test Rust lines per crate and for the workspace (the count
# simplicity PRs quote; also printed at the end of `just check`).
loc:
    sh scripts/loc.sh

# Fast feedback loop: debug tests only.
test:
    cargo test --workspace -q

# Exhaustive schedule-enumeration check for the striped prefix cache's
# owner discipline (DESIGN.md §5).
race:
    cargo test -p spear-llm --test race_interleavings

# Regenerate the paper tables/figures and the batch throughput sweep.
bench:
    cargo run --release -p spear-bench --bin table3
    cargo run --release -p spear-bench --bin table4
    cargo run --release -p spear-bench --bin figure1
    cargo run --release -p spear-bench --bin bench_batch
    cargo run --release -p spear-bench --bin bench_serve

# Disassemble representative plans to bytecode listings (fused
# superinstructions + constant pool; DESIGN.md §12).
disasm:
    cargo run -p spear-bench --bin disasm

# Static-analysis gate over the golden plan corpus: bytecode lints
# (W004/W005), translation validation, verified-optimizer bisimulation,
# and abstract cost bounds (DESIGN.md §14). Exits non-zero on any
# error-class diagnostic or TV failure.
analyze:
    cargo run -p spear-bench --bin analyze

# One short run of each spear-benchmark workload, for its output checks
# (digest equality across lane counts and against the tree walk, ledgers,
# translation validation), not its numbers. Part of `just check`.
bench-smoke:
    sh scripts/bench_smoke.sh

# Host fast-path throughput: interned/segmented prefill vs flat re-tokenize
# (DESIGN.md §10). Writes BENCH_host.json and fails below 2x on the
# warm-prefix serve workload.
bench-host:
    cargo run --release -p spear-bench --bin bench_host

# Serving sweep on its own; pass `--pressure` for the bounded-KV
# memory-pressure variant (BENCH_serve_pressure.json; fails unless the
# pool visibly evicted and preempted, identically at every lane count).
bench-serve *ARGS:
    cargo run --release -p spear-bench --bin bench_serve -- {{ARGS}}

# Generation-reuse sweep: duplicate-heavy workload served with the
# whole-call memo on vs off (BENCH_reuse.json; fails below 1.5x host
# throughput, on any fingerprint divergence from reuse-off, or if the
# hit/coalesced ledger varies across lane counts).
bench-reuse *ARGS:
    cargo run --release -p spear-bench --bin bench_serve -- --reuse {{ARGS}}

# Cluster scale-out sweep: 1→16 prefix-aware nodes vs hash-random
# scatter under Zipf traffic (BENCH_cluster.json; fails below 0.7x ideal
# scaling at 8 nodes or if hash-random matches the fleet hit rate).
bench-cluster *ARGS:
    cargo run --release -p spear-bench --bin bench_cluster -- {{ARGS}}
