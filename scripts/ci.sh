#!/usr/bin/env bash
# Tier-1 CI gate: release build + full test suite + clippy.
#
#   ./scripts/ci.sh
#
# Build, tests and clippy (for the workspace's own crates) are all hard
# failures. The vendored std-only dependency stubs under vendor/ are
# excluded from the clippy gate: they mirror external API surfaces and are
# not held to the workspace's lint standard.
set -uo pipefail
cd "$(dirname "$0")/.."

echo "== cargo build --release =="
cargo build --release --workspace || exit 1

echo "== cargo test =="
cargo test -q --workspace || exit 1

echo "== cargo clippy (workspace crates, hard gate) =="
clippy_excludes=()
for vendored in vendor/*/Cargo.toml; do
    name=$(sed -n 's/^name *= *"\(.*\)"/\1/p' "$vendored" | head -1)
    clippy_excludes+=(--exclude "$name")
done
cargo clippy --workspace "${clippy_excludes[@]}" --all-targets -- -D warnings || exit 1
echo "clippy: clean"

echo "== chaos smoke (seeded fault injection) =="
# A seeded chaos run: the first two execution attempts fail, a generator
# worker panics once, and the run must still complete (exit 0) with the
# recovery recorded in the trace. Same seed + plan = same trace, always.
chaos_trace=$(mktemp)
./target/release/bdbench run micro/wordcount --scale 200 --seed 42 \
    --faults "error@exec:1:max=2,panic@datagen:1:max=1" --retries 3 \
    --trace "$chaos_trace" >/dev/null || { echo "chaos run failed"; exit 1; }
faults=$(grep -c '"FaultInjected"' "$chaos_trace")
retries=$(grep -c '"OperationRetried"' "$chaos_trace")
rm -f "$chaos_trace"
if [ "$faults" -lt 1 ] || [ "$retries" -lt 1 ]; then
    echo "chaos smoke: expected recovered faults in the trace (faults=$faults retries=$retries)"
    exit 1
fi
echo "chaos smoke: recovered from $faults injected fault(s) with $retries retr(y/ies)"

echo "== crash smoke (kill point, journal, resume) =="
# A seeded verification sweep is killed by an injected crash point
# mid-matrix (exit nonzero, completed cells checkpointed to the journal),
# then resumed: the resumed sweep must go CONFORMANT against the
# committed goldens, with the journaled cells re-verified rather than
# re-executed. Same seed + plan = same kill point, always.
crash_journal=$(mktemp -d)
crash_out=$(mktemp)
if ./target/release/bdbench verify --scale 300 --seed 42 --mode digest --goldens goldens \
    --journal "$crash_journal" --faults "crash@exec:1:max=1" >/dev/null 2>"$crash_out"; then
    echo "crash smoke: the killed run must exit nonzero"; exit 1
fi
grep -q "crashed: injected kill point mid-matrix" "$crash_out" \
    || { echo "crash smoke: expected a crash error, got:"; cat "$crash_out"; exit 1; }
checkpoints=$(find "$crash_journal" -name '*.json' | wc -l)
if [ "$checkpoints" -lt 1 ] || [ "$checkpoints" -ge 33 ]; then
    echo "crash smoke: kill point must land mid-sweep (checkpoints=$checkpoints)"; exit 1
fi
./target/release/bdbench verify --scale 300 --seed 42 --mode digest --goldens goldens \
    --resume "$crash_journal" >"$crash_out" \
    || { echo "crash smoke: resumed run failed"; cat "$crash_out"; exit 1; }
grep -q "CONFORMANT" "$crash_out" \
    || { echo "crash smoke: resumed run not conformant"; cat "$crash_out"; exit 1; }
grep -q "resumed from journal" "$crash_out" \
    || { echo "crash smoke: resumed run did not honour the journal"; cat "$crash_out"; exit 1; }
rm -rf "$crash_journal" "$crash_out"
echo "crash smoke: killed after $checkpoints cell(s), resumed to CONFORMANT"

echo "== conformance gate (golden digests) =="
# Two seeded runs verified against the committed golden store: a digest
# mismatch (any semantics drift in generators, binding or engines) fails
# CI. Machine-independent prescriptions only — Element-class digests
# depend on the engine thread count, which `bdbench verify` pins but a
# plain run does not.
for prescription in micro/wordcount relational/select-aggregate; do
    ./target/release/bdbench run "$prescription" --scale 300 --seed 42 \
        --verify=digest --goldens goldens >/dev/null \
        || { echo "conformance gate: $prescription diverged from its golden"; exit 1; }
    echo "conformance gate: $prescription matches its golden digest"
done

echo "== adaptive routing smoke (two-pass verify, shared observed costs) =="
# The full verification matrix swept twice under --routing adaptive with
# one observed-cost store shared across passes: both passes must be
# CONFORMANT (adaptive decisions never change results), every cell must
# record a routing decision, and the second pass must rank engines from
# the runtimes the first pass observed (all 33 predictions sourced from
# the EWMA store, not the static table).
routing_out=$(mktemp)
./target/release/bdbench verify --scale 300 --seed 42 --mode digest --goldens goldens \
    --routing adaptive --passes 2 >"$routing_out" \
    || { echo "adaptive smoke: sweep failed or diverged"; cat "$routing_out"; exit 1; }
conformant=$(grep -c "33 cells, 33 passed: CONFORMANT" "$routing_out")
if [ "$conformant" -ne 2 ]; then
    echo "adaptive smoke: expected both passes CONFORMANT (got $conformant)"
    cat "$routing_out"; exit 1
fi
grep -q "^routing: 33 decision(s), 33 predicted from observed costs$" "$routing_out" \
    || { echo "adaptive smoke: pass 2 must predict every cell from observed costs"; \
         cat "$routing_out"; exit 1; }
rm -f "$routing_out"
echo "adaptive smoke: 2 passes CONFORMANT, pass 2 routed on observed costs"

echo "== load smoke (concurrent driver, seeded) =="
# A 2-second seeded load drive across every builtin load target: the
# run must complete a nonzero number of ops on each engine and every
# sampled-result oracle check must pass (zero divergences — a diverged
# run exits nonzero).
load_out=$(mktemp)
./target/release/bdbench load --clients 4 --duration-ms 2000 --seed 42 \
    >"$load_out" || { echo "load smoke: drive failed or diverged"; cat "$load_out"; exit 1; }
grep -q "verdict: CONFORMANT" "$load_out" \
    || { echo "load smoke: expected a CONFORMANT verdict"; cat "$load_out"; exit 1; }
for engine in kv sql native streaming; do
    completed=$(sed -n "s/^load\[$engine\]: .* (\([0-9]*\) completed.*/\1/p" "$load_out")
    if [ -z "$completed" ] || [ "$completed" -lt 1 ]; then
        echo "load smoke: $engine completed no ops"; cat "$load_out"; exit 1
    fi
    echo "load smoke: $engine completed $completed ops, zero divergences"
done
rm -f "$load_out"

echo "== chaos load smoke (breakers + chaos under load, seeded) =="
# Closed-loop chaos: a 40% error rate past one retry fails some ops but
# the drive stays CONFORMANT, conserves every op
# (issued == completed + shed + failed), and the same seed reproduces
# identical chaos accounting and the identical issued-op digest.
chaos_a=$(mktemp); chaos_b=$(mktemp)
for out in "$chaos_a" "$chaos_b"; do
    ./target/release/bdbench load --clients 2 --duration-ms 300 \
        --engine native --seed 42 --faults "error@exec:0.4" --retries 1 >"$out" \
        || { echo "chaos load smoke: drive failed or diverged"; cat "$out"; exit 1; }
    grep -q "verdict: CONFORMANT" "$out" \
        || { echo "chaos load smoke: expected CONFORMANT"; cat "$out"; exit 1; }
done
read -r issued completed shed failed <<<"$(awk '$1=="native" && NF>10 {print $3, $4, $5, $6}' "$chaos_a")"
if [ -z "$failed" ] || [ "$failed" -lt 1 ]; then
    echo "chaos load smoke: expected failed ops under chaos"; cat "$chaos_a"; exit 1
fi
if [ "$issued" -ne $((completed + shed + failed)) ]; then
    echo "chaos load smoke: conservation violated ($issued != $completed + $shed + $failed)"
    cat "$chaos_a"; exit 1
fi
if ! diff <(grep -E "^chaos\[|^issued-op digest" "$chaos_a") \
          <(grep -E "^chaos\[|^issued-op digest" "$chaos_b") >/dev/null; then
    echo "chaos load smoke: same seed must reproduce identical chaos accounting"
    diff "$chaos_a" "$chaos_b"; exit 1
fi
echo "chaos load smoke: conserved $issued ops ($completed completed, $failed failed), deterministic"
# Open-loop breaker lifecycle: a 30% error rate under uniform arrivals
# must trip the native breaker at least once, and the seeded probe
# sequence must have recovered it (closed) by quiesce.
./target/release/bdbench load --clients 2 --queue-cap 4 --duration-ms 300 \
    --engine native --seed 42 --arrival uniform:2000 \
    --faults "error@exec:0.3" --retries 0 >"$chaos_a" \
    || { echo "chaos load smoke: open-loop drive failed"; cat "$chaos_a"; exit 1; }
trips=$(sed -n 's/^health: \([0-9]*\) trip(s).*/\1/p' "$chaos_a")
if [ -z "$trips" ] || [ "$trips" -lt 1 ]; then
    echo "chaos load smoke: expected breaker trips"; cat "$chaos_a"; exit 1
fi
grep -q "at quiesce all breakers closed" "$chaos_a" \
    || { echo "chaos load smoke: breaker must be closed at quiesce"; cat "$chaos_a"; exit 1; }
rm -f "$chaos_a" "$chaos_b"
echo "chaos load smoke: $trips breaker trip(s), recovered to closed at quiesce"

echo "== bench gate (sampled hot paths vs committed baseline) =="
# The statistical bench (5 samples/path, warmup discard, MAD outlier
# rejection, t-distribution 95% CIs) runs all ten hot paths and compares
# the five original kernel paths against the committed baseline ledger.
# A statistically significant regression — non-overlapping 95% CIs AND
# ≥50% effect — fails the build. The wide min-effect floor keeps the gate
# non-flaky on shared CI machines (observed run-to-run drift is ≲15%);
# it catches algorithmic regressions, not micro-noise. The run writes to
# a scratch ledger so the committed BENCH_9.json is never rewritten.
bench_out=$(mktemp)
bench_dir=$(mktemp -d)
bench_ledger="$bench_dir/BENCH.json"
./scripts/bench.sh "$bench_ledger" --samples 5 --compare BENCH_8.json \
    --gate original --min-effect 0.5 --fail-on-regression >"$bench_out" \
    || { echo "bench gate: significant perf regression"; cat "$bench_out"; exit 1; }
for path in datagen_parallel_items dispatch_route_all window_pipeline_events \
            behavioral_sessionize_events lsm_put_ops lsm_get_ops \
            loadgen_saturation_kv loadgen_saturation_sql loadgen_saturation_native \
            loadgen_saturation_streaming; do
    grep -q "\"name\":\"$path\"" "$bench_ledger" \
        || { echo "bench gate: $path missing from the ledger"; exit 1; }
done
grep -q '"ci_lo"' "$bench_ledger" \
    || { echo "bench gate: ledger must carry 95% CI bounds"; exit 1; }
grep -q '"p99_us"' "$bench_ledger" \
    || { echo "bench gate: loadgen samples must report p99_us"; exit 1; }
rm -rf "$bench_out" "$bench_dir"
echo "bench gate: ten hot paths sampled, five originals within baseline CIs"

echo "CI gate passed."
