# SPEAR task runner. `just check` is the tier-1 gate (see README).

# Run everything CI gates on: release build, tests, strict clippy, fmt,
# and rustdoc with warnings denied.
check:
    sh scripts/check.sh

# Reformat the workspace in place (the gate only checks).
fmt:
    cargo fmt --all

# Non-test Rust lines per crate and for the workspace (the count
# simplicity PRs quote; also printed at the end of `just check`).
loc:
    sh scripts/loc.sh

# Every lock or atomic in product code, checked against DESIGN.md §5's
# lock inventory (part of `just check`).
locks:
    sh scripts/locks.sh

# Every `#[doc(hidden)]` compat item, checked against the `benchmark/`
# call sites in DESIGN.md §18 (part of `just check`).
compat:
    sh scripts/compat.sh

# Fast feedback loop: debug tests only.
test:
    cargo test --workspace -q

# Exhaustive schedule-enumeration check for the striped prefix cache's
# owner discipline (DESIGN.md §5).
race:
    cargo test -p spear-llm --test race_interleavings

# Regenerate the paper tables and figures (host time is measured by
# `benchmark/`; see benchmark/README.md).
bench:
    cargo run --release -p spear-bench --bin table3
    cargo run --release -p spear-bench --bin table4
    cargo run --release -p spear-bench --bin figure1

# List every golden-corpus plan: slots with pool operands and static
# bounds, constant pool, diagnostics (DESIGN.md §12); equals
# results/disasm.txt.
disasm:
    cargo run -p spear-bench --bin disasm

# Static-analysis gate over the golden plan corpus: bytecode lints
# (W004/W005) and abstract cost bounds (DESIGN.md §14). Exits non-zero on
# any error-class diagnostic.
analyze:
    cargo run -p spear-bench --bin analyze

# One short run of each spear-benchmark workload, for its output checks
# (digest equality across lane counts and against the tree walk, ledgers,
# translation validation), not its numbers. Part of `just check`.
bench-smoke:
    sh scripts/bench_smoke.sh

# Alternating parent/change benchmark pairs at seeds 1..PAIRS, each run
# `--seconds 10 --trace 0`, then median [Q1, Q3] and wins per metric — the
# comparison perf PRs quote. WORKLOAD `all` prints one table per workload
# in BENCHMARK.json. Not part of `just check`.
bench-pairs rev workload pairs:
    sh scripts/bench_pairs.sh {{rev}} {{workload}} {{pairs}}

# Byte-identity check for a change that claims to move no paper output:
# builds REV in a `git archive` export under target/paper-diff/, runs the
# ten spear-bench bins and the five examples on both sides, and prints
# `same` / `differs` per output; non-zero exit on any difference. Not part
# of `just check`.
paper-diff rev:
    sh scripts/paper_diff.sh {{rev}}
