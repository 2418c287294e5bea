#!/usr/bin/env sh
# Offline CI gate for the ABsolver workspace.
#
# The workspace has no external dependencies (randomness, property
# testing, and bench timing come from the in-repo absolver-testkit
# crate), so everything here runs with --offline from a clean checkout.
#
# Usage: scripts/ci.sh
set -eu

cd "$(dirname "$0")/.."

echo "== static analysis (clippy -D warnings, rustfmt, overflow-checked tests) =="
cargo clippy --offline --workspace --all-targets -- -D warnings
cargo fmt --check
# One overflow-checked test pass (profile `ci`, see the root Cargo.toml):
# the arbitrary-precision kernel is where silent wrapping would hurt most.
cargo test -q --offline --profile ci -p absolver-num

echo "== repo self-lint (unsafe-code and missing-docs gates) =="
# Every library root must forbid unsafe code — the workspace's
# panic-freedom and soundness arguments assume safe Rust throughout.
for lib in src/lib.rs crates/*/src/lib.rs; do
    grep -q '#!\[forbid(unsafe_code)\]' "$lib" \
        || { echo "$lib must declare #![forbid(unsafe_code)]"; exit 1; }
done
# The crates whose rustdoc is a load-bearing interface contract (the
# analyzer's diagnostic codes, the trace schema, the daemon's wire
# protocol) must keep missing_docs at deny.
for lib in crates/analyze/src/lib.rs crates/trace/src/lib.rs crates/service/src/lib.rs; do
    grep -q '#!\[deny(missing_docs)\]' "$lib" \
        || { echo "$lib must declare #![deny(missing_docs)]"; exit 1; }
done

echo "== build (release, all targets incl. benches) =="
cargo build --release --offline --workspace --all-targets

echo "== test =="
cargo test -q --offline --workspace

echo "== benchmark harness tests (perfbench, its own cargo workspace) =="
# perfbench builds against the repository's crates, so an API change that
# stops the benchmark from building fails here rather than at benchmark
# time.
cargo test --release --offline --manifest-path perfbench/Cargo.toml

echo "== parallel differential suite (solve at jobs 1/2/4) =="
cargo test -q --offline --test parallel_agreement

echo "== partition differential suite (component solving vs whole-problem) =="
# Verdict identity of whole-problem (an unpartitioned enumeration of one
# model) vs the default solve's sequential component loop vs parallel
# component-shard solving on a salted disconnected corpus, stitched-model
# validity, and the preprocessor's static-unsat fast path (no solve loop
# entered).
cargo test -q --offline --test partition_agreement

echo "== incremental theory-engine differential suite (stack vs scratch) =="
cargo test -q --offline --test incremental_agreement

echo "== session suites (differential fuzz + frame-contract properties) =="
# Persistent push/pop/assert/check sessions vs a fresh-solver-per-check
# oracle, plus pop-undo/no-leak/monotone-stats properties.
cargo test -q --offline --test session_agreement --test session_monotonic

echo "== service suites (panic-freedom fuzz + absolverd lifecycle/cache e2e) =="
# Totality properties over every input path (problem parser, session
# script parser, service request decoder), then the daemon end-to-end:
# deadlines, cancellation, backpressure, priorities, cache-tier verdict
# identity, and both front ends (stdin protocol + unix socket).
cargo test -q --offline --test fuzz_inputs --test service_integration --test service_cli

echo "== contractor cascade suites (soundness properties + config differential) =="
# Per-contractor soundness (contraction + solution preservation) and
# verdict identity across cascade/HC4-only and jobs 1/2/4.
cargo test -q --offline --test contractor_soundness --test cascade_agreement

echo "== seeded re-run of the randomized suites (pinned TESTKIT_SEED) =="
# A second pass under a fixed non-default seed: catches properties that
# only pass on the name-derived default seed path.
TESTKIT_SEED=0xAB501BE5 cargo test -q --offline \
    --test parallel_agreement --test partition_agreement --test solver_agreement \
    --test fuzz_inputs --test contractor_soundness --test cascade_agreement \
    --test session_agreement --test session_monotonic \
    --test format_round_trip --test intern_properties
# The format round trip at 3 000 cases under seed 1, the seed that found
# the parser's value-changing `0 * s` and `s + 0` folds.
TESTKIT_SEED=1 TESTKIT_CASES=3000 cargo test -q --offline --test format_round_trip
# The library properties too: the theory layer's conflict soundness and
# integer-row strengthening, the nonlinear DAG/tape bit-identity (one
# program and prefix/suffix), the cascade's enclosure classification
# against `check_box`, and the assertion stack's retraction differential.
TESTKIT_SEED=0xAB501BE5 cargo test -q --offline -p absolver-core -p absolver-nonlinear \
    -p absolver-linear -p absolver-num --lib

echo "== observability gate (--stats json, --trace, differential test) =="
OBS_TMP=$(mktemp -d)
trap 'rm -rf "$OBS_TMP"' EXIT
# The paper's Fig. 2 example through the release binary: must exit 10
# (sat) and print exactly one machine-readable stats object on stdout.
set +e
./target/release/absolver --stats json --trace "$OBS_TMP/fig2.trace.jsonl" \
    examples/fig2.dimacs > "$OBS_TMP/fig2.out"
code=$?
set -e
[ "$code" -eq 10 ] || { echo "expected exit 10 (sat), got $code"; exit 1; }
grep '^{' "$OBS_TMP/fig2.out" > "$OBS_TMP/fig2.stats.json"
[ "$(wc -l < "$OBS_TMP/fig2.stats.json")" -eq 1 ] \
    || { echo "expected exactly one JSON stats line"; exit 1; }
# `--jobs 2` has the same schema: exit 10 and exactly one JSON line whose
# sorted `"key":` list is the sequential line's.
set +e
./target/release/absolver --jobs 2 --stats json examples/fig2.dimacs \
    > "$OBS_TMP/fig2.jobs2.out"
code=$?
set -e
[ "$code" -eq 10 ] || { echo "expected exit 10 (sat) under --jobs 2, got $code"; exit 1; }
grep '^{' "$OBS_TMP/fig2.jobs2.out" > "$OBS_TMP/fig2.jobs2.stats.json"
[ "$(wc -l < "$OBS_TMP/fig2.jobs2.stats.json")" -eq 1 ] \
    || { echo "expected exactly one JSON stats line under --jobs 2"; exit 1; }
json_keys() { grep -o '"[a-z0-9_]*":' "$1" | sort; }
[ "$(json_keys "$OBS_TMP/fig2.jobs2.stats.json")" = "$(json_keys "$OBS_TMP/fig2.stats.json")" ] \
    || { echo "--jobs 2 --stats json keys differ from the sequential line's"; exit 1; }
# Bench workloads end-to-end into scratch BENCH_*.json files, compared
# against the checked-in baselines: >15% slower (plus a 50ms absolute
# grace for the micro-runs), a verdict flip, or a changed work counter
# fails the gate.
ABS_BENCH_DIR="$OBS_TMP" ABS_BENCH_BASELINE_DIR=. ABS_TIMEOUT_SECS=60 \
    ./target/release/bench_json --check-regress fischer sudoku steering threshold-reach
# The reports must carry the structural-analysis columns.
for key in '"components":' '"subsumed_constraints":'; do
    grep -q "$key" "$OBS_TMP/BENCH_fischer.json" \
        || { echo "BENCH reports missing $key"; exit 1; }
done
# Decomposition experiment: a 2x20 decomposable workload solved whole,
# partitioned, and in parallel — the binary itself fails on any verdict
# disagreement between the three modes.
ABS_BENCH_DIR="$OBS_TMP" ABS_COMPONENTS_INSTANCES=2 ABS_COMPONENTS_SIZE=20 \
    ABS_TIMEOUT_SECS=60 ./target/release/components
# Streaming-session BMC gate: the persistent-session Fischer run must
# stay within the baseline limit, report the baseline's work counters
# exactly (warm starts included), beat the from-scratch loop outright,
# and answer every check as the protocol expects.
ABS_BENCH_DIR="$OBS_TMP" ABS_BENCH_BASELINE_DIR=. \
    ./target/release/fischer_incremental --check-regress
# Solve-service load gate: cold / resubmission / mixed-priority burst
# phases through an in-process absolverd server. Fails on a p99 latency
# regression vs the checked-in baseline, a throughput collapse, a
# resubmission p50 win of <= 1.5x over cold solves, a problem cache with
# no hits, or any worker abort.
ABS_BENCH_DIR="$OBS_TMP" ABS_BENCH_BASELINE_DIR=. \
    ./target/release/service_load --check-regress
if command -v python3 >/dev/null 2>&1; then
    python3 -m json.tool "$OBS_TMP/fig2.stats.json" > /dev/null
    python3 -m json.tool "$OBS_TMP/BENCH_fischer.json" > /dev/null
    python3 -m json.tool "$OBS_TMP/BENCH_fischer_incremental.json" > /dev/null
    python3 -m json.tool "$OBS_TMP/BENCH_service.json" > /dev/null
    # Every trace line must be a standalone JSON object (JSONL).
    python3 -c 'import json,sys
for line in open(sys.argv[1]):
    json.loads(line)' "$OBS_TMP/fig2.trace.jsonl"
else
    for key in '"simplex_pivots":' '"hc4_contractions":' '"phase":{' '"elapsed_us":'; do
        grep -q "$key" "$OBS_TMP/fig2.stats.json" \
            || { echo "stats JSON missing $key"; exit 1; }
    done
    grep -q '"workload":"fischer"' "$OBS_TMP/BENCH_fischer.json"
    grep -q '"kind":"solve.start"' "$OBS_TMP/fig2.trace.jsonl"
fi
# The trace-equivalence differential suite (sequential solve vs a two-job
# component run), two-job stats against their shard events, and the CLI
# exit-code contract with its one `--stats json` schema.
cargo test -q --offline --test observability --test cli

echo "== analyzer gate (absolver check + the simplifier's differential) =="
# The paper's example must lint clean (exit 0); the checked-in malformed
# fixture must produce a spanned error report (exit 4).
./target/release/absolver check examples/fig2.dimacs
set +e
./target/release/absolver check --json tests/analyze/malformed.dimacs \
    > "$OBS_TMP/malformed.json"
code=$?
set -e
[ "$code" -eq 4 ] || { echo "expected check exit 4 (errors), got $code"; exit 1; }
grep -q '"code":"AB001"' "$OBS_TMP/malformed.json" \
    || { echo "malformed fixture must report AB001"; exit 1; }
# The structural-analysis fixtures: subsumption lints are warnings
# (exit 3), a statically-unsat input is an error (exit 4), and each
# must report its dedicated codes.
set +e
./target/release/absolver check --json tests/analyze/subsume.dimacs \
    > "$OBS_TMP/subsume.json"
code=$?
set -e
[ "$code" -eq 3 ] || { echo "expected check exit 3 (warnings), got $code"; exit 1; }
for ab in AB013 AB014 AB015 AB016; do
    grep -q "\"code\":\"$ab\"" "$OBS_TMP/subsume.json" \
        || { echo "subsume fixture must report $ab"; exit 1; }
done
set +e
./target/release/absolver check --json tests/analyze/staticunsat.dimacs \
    > "$OBS_TMP/staticunsat.json"
code=$?
set -e
[ "$code" -eq 4 ] || { echo "expected check exit 4 (static unsat), got $code"; exit 1; }
grep -q '"code":"AB017"' "$OBS_TMP/staticunsat.json" \
    || { echo "staticunsat fixture must report AB017"; exit 1; }
set +e
./target/release/absolver check --json tests/analyze/declared_miss.dimacs \
    > "$OBS_TMP/declared_miss.json"
code=$?
set -e
[ "$code" -eq 3 ] || { echo "expected check exit 3 (warnings), got $code"; exit 1; }
grep -q '"code":"AB018"' "$OBS_TMP/declared_miss.json" \
    || { echo "declared_miss fixture must report AB018"; exit 1; }
# Structure block: check reports the component decomposition.
grep -q '"structure":{"components":' "$OBS_TMP/subsume.json" \
    || { echo "check --json must carry the structure block"; exit 1; }
# Golden diagnostics + verdict identity of solving with the analyze
# simplifier installed and without it (no CLI flag installs it).
cargo test -q --offline --test analyze_check --test preprocess_agreement

echo "== CI gate passed =="
