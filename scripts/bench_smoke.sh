#!/bin/sh
# Benchmark smoke gate (`just bench-smoke`; part of scripts/check.sh): one
# short untraced run of each spear-benchmark workload. The numbers are
# throwaway — one second on a busy machine — but every run ends in the
# benchmark's output checks (trace digests equal across lane counts and
# against the tree walk, ledgers that sum, translation validation), which
# exit non-zero, so a spine change that alters behaviour fails here.
# Result lines go to stdout only; nothing is written to disk.
set -eu

for workload in batch_adaptive serve_steady serve_pressure cluster_zipf compile_cold; do
    cargo run --release --quiet --manifest-path benchmark/Cargo.toml -- \
        --workload "$workload" --seconds 1 --trace 0
done
