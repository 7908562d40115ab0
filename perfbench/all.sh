#!/usr/bin/env bash
# Run every benchmark workload once, untraced and then traced, printing
# each workload's metrics (name, value, unit, sample count) and its
# error rate. Exits nonzero on the first run that fails or answers wrong.
#
# Usage: perfbench/all.sh [seed] [seconds]
set -euo pipefail
cd "$(dirname "$0")/.."
seed=${1:-1}
seconds=${2:-20}
export CARGO_TARGET_DIR=${CARGO_TARGET_DIR:-.bench_build}
for workload in pipeline-text pipeline-relational serve-kv serve-sql; do
    for trace in 0 1; do
        cargo run --release --quiet --offline --manifest-path perfbench/Cargo.toml -- \
            --workload "$workload" --seed "$seed" --seconds "$seconds" --trace "$trace"
    done
done
