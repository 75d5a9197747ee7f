#!/usr/bin/env bash
# Hermetic-build verification for the rpas workspace.
#
# Asserts the two invariants this repo promises:
#   1. The whole workspace builds and tests OFFLINE — no registry access,
#      path dependencies only (root tests/hermetic.rs holds both
#      lockfiles to path-only packages).
#   2. The five rpas-lint rules hold (DESIGN.md §9): no nondeterminism
#      sources — clocks outside obs/bench, hash collections anywhere
#      (D2), stdout/stderr discipline (O1), a frozen panic-site budget
#      (P1), no bare float equality in numeric crates (F1), no obs event
#      named by string literal instead of the typed catalogue (E1).
#
# Optional: RPAS_VERIFY_PARALLEL=1 additionally checks that the table1
# experiment produces byte-identical CSV output single-threaded vs
# parallel (slow — trains real models, even under RPAS_PROFILE=quick).
#
# Usage: scripts/verify.sh   (from anywhere; cd's to the repo root)

set -euo pipefail
cd "$(dirname "$0")/.."

echo "== offline release build =="
cargo build --release --offline

echo "== offline tests (whole workspace) =="
# Every member crate, not just the root package: the bit-identity pins
# under the fast inference paths (rpas-nn, rpas-forecast), the checkpoint
# codec (rpas-core), the worker pool (rpas-par), the SLO early-out's
# equivalence property (rpas-telemetry), the per-predict allocation
# ceilings (rpas-bench) and rpas-lint's selfcheck — workspace lint-clean,
# lint-baseline.json byte-for-byte what a fresh sweep regenerates — all
# live in member crates. The CLI-level drills (chaos determinism and
# trace round-trip, fleet thread-count invariance, kill/resume
# byte-identity across thread counts) are root tests/cli_e2e.rs.
cargo test -q --offline --workspace

echo "== rpas-lint (replaces the old grep guards; DESIGN.md §9) =="
# Token-level static analysis, comment- and string-aware, so it has none
# of the grep guards' false positives — and it hard-fails on budget
# growth against lint-baseline.json.
cargo run -q --release --offline --bin lint -- --deny-warnings || {
    echo "ERROR: rpas-lint found violations (see diagnostics above)" >&2
    exit 1
}
echo "ok: workspace lints clean against the committed baseline"

trace_tmp="$(mktemp -d)"
trap 'rm -rf "$trace_tmp"' EXIT

echo "== trace round-trip (backtest --trace-out → trace-report) =="
RPAS_PROFILE=quick RPAS_LOG=warn \
    cargo run -q --release --offline --bin cli -- backtest --trace-out "$trace_tmp/t.jsonl"
report="$(cargo run -q --release --offline --bin cli -- trace-report --trace "$trace_tmp/t.jsonl")"
echo "$report" | grep -q "plan/decision" || {
    echo "ERROR: trace-report is missing plan/decision audit events" >&2
    exit 1
}
echo "$report" | grep -q "decision audit (Algorithm 1)" || {
    echo "ERROR: trace-report is missing the decision-audit summary" >&2
    exit 1
}
# trace-report schema-validates every line and hard-fails on violations,
# so reaching this point certifies the whole file against schema v1.
lines="$(wc -l < "$trace_tmp/t.jsonl")"
echo "ok: $lines schema-v1 trace lines round-tripped through trace-report"

echo "== telemetry gate (SLO report, metrics, obs query/diff, noop budget) =="
# 1. The SLO report and metric exposition must be byte-identical across
#    thread counts — the telemetry pipeline shares the fleet's
#    determinism contract.
RPAS_LOG=off RPAS_THREADS=1 cargo run -q --release --offline --bin cli -- \
    fleet --tenants 8 --days 2 --slo-report \
    --metrics-out "$trace_tmp/m1.txt" --trace-out "$trace_tmp/slo1.jsonl" \
    > "$trace_tmp/slo1.txt"
RPAS_LOG=off RPAS_THREADS=2 cargo run -q --release --offline --bin cli -- \
    fleet --tenants 8 --days 2 --slo-report \
    --metrics-out "$trace_tmp/m2.txt" --trace-out "$trace_tmp/slo2.jsonl" \
    > "$trace_tmp/slo2.txt"
# The only permitted difference is the echoed output paths.
diff <(grep -v "^wrote " "$trace_tmp/slo1.txt") \
     <(grep -v "^wrote " "$trace_tmp/slo2.txt")
diff "$trace_tmp/m1.txt" "$trace_tmp/m2.txt"
grep -q "^SLO violation_rate" "$trace_tmp/slo1.txt" || {
    echo "ERROR: fleet --slo-report did not print an SLO report" >&2
    exit 1
}
grep -q "^sim.steps{tenant=\"t0000\"} counter" "$trace_tmp/m1.txt" || {
    echo "ERROR: metric exposition is missing per-tenant counters" >&2
    exit 1
}
echo "ok: SLO report and metric exposition independent of thread count"

# 2. obs diff of a run against its rerun must report zero divergence
#    (and exit 0 — obs diff exits 1 on divergence).
cargo run -q --release --offline --bin cli -- \
    obs diff --a "$trace_tmp/slo1.jsonl" --b "$trace_tmp/slo2.jsonl" \
    > "$trace_tmp/diff.txt"
grep -q "divergence        : none" "$trace_tmp/diff.txt" || {
    echo "ERROR: obs diff found divergence between identical reruns" >&2
    exit 1
}
echo "ok: obs diff reports zero divergence across reruns"

# 3. obs query round-trip: per-tenant violation counts from the trace
#    must agree with the SLO report's bad column.
cargo run -q --release --offline --bin cli -- \
    obs query --trace "$trace_tmp/slo1.jsonl" --span sim --event step \
    --where violation=true --group-by tenant > "$trace_tmp/q.txt"
sed -n '/^SLO /,$p' "$trace_tmp/slo1.txt" > "$trace_tmp/slo_table.txt"
for t in t0000 t0007; do
    bad_slo="$(awk -v t="$t" '$1 == t {print $3}' "$trace_tmp/slo_table.txt")"
    bad_query="$(awk -v t="$t" '$1 == t {print int($2)}' "$trace_tmp/q.txt")"
    [[ -n "$bad_slo" && "$bad_slo" == "${bad_query:-0}" ]] || {
        echo "ERROR: $t SLO bad=$bad_slo != obs query count=${bad_query:-0}" >&2
        exit 1
    }
done
echo "ok: obs query violation counts agree with the SLO report"

# 4. The telemetry dark path must stay within the pinned budget
#    (telemetry-budget.json; the bench exits 1 on breach).
RPAS_BENCH_SAMPLES=3 cargo run -q --release --offline -p rpas-bench \
    --bin telemetry_overhead > "$trace_tmp/overhead.txt"
grep -q "— OK" "$trace_tmp/overhead.txt" || {
    cat "$trace_tmp/overhead.txt" >&2
    echo "ERROR: telemetry noop overhead exceeded telemetry-budget.json" >&2
    exit 1
}
echo "ok: telemetry dark path within the pinned budget"

echo "== fleet perf/alloc budget (quick bench vs fleet-budget.json) =="
# 5. The supervised fleet hot path must stay within the pinned budget
#    (fleet-budget.json): supervised overhead fraction and steady-state
#    allocations per supervised tick. The bench exits 1 on breach or on
#    a missing/malformed budget file, so a deleted budget cannot pass.
#    The committed budget is copied next to the scratch results so the
#    committed full-profile BENCH_fleet.json is left untouched.
[[ -f fleet-budget.json ]] || {
    echo "ERROR: fleet-budget.json missing — freeze one with RPAS_WRITE_BUDGET=1" >&2
    exit 1
}
cp fleet-budget.json "$trace_tmp/fleet-budget.json"
#    25 samples, not 3: a quick-profile run is ~1 ms, so the best-of
#    ratio needs that many to settle a ~5 % overhead under a 10 % ceiling.
RPAS_LOG=off RPAS_PROFILE=quick RPAS_BENCH_SAMPLES=25 RPAS_RESULTS_DIR="$trace_tmp" \
    cargo run -q --release --offline -p rpas-bench --bin fleet \
    > "$trace_tmp/fleet_bench.txt"
grep -q "fleet budget: .* — OK.* — OK" "$trace_tmp/fleet_bench.txt" || {
    cat "$trace_tmp/fleet_bench.txt" >&2
    echo "ERROR: fleet bench did not confirm the pinned budget" >&2
    exit 1
}
grep -q "steady 0 over" "$trace_tmp/fleet_bench.txt" || {
    cat "$trace_tmp/fleet_bench.txt" >&2
    echo "ERROR: supervised steady-state ticks allocated (expected zero)" >&2
    exit 1
}
echo "ok: fleet hot path within the pinned perf/alloc budget"

echo "== decision-cycle ledger self-check (BENCHMARK.json workloads) =="
# 6. Every ledger workload twice for 1.5 s: both runs must verify their
#    own outputs, agree on the digest, and agree on each end-to-end
#    metric within its BENCHMARK.json bound (ledger/README.md).
cargo run --release --offline --quiet --manifest-path ledger/Cargo.toml -- --check || {
    echo "ERROR: ledger --check failed (incorrect output, digest drift or unrepeatable metric)" >&2
    exit 1
}
echo "ok: ledger workloads correct and repeatable"

if [[ "${RPAS_VERIFY_PARALLEL:-0}" == "1" ]]; then
    echo "== table1 thread-count invariance =="
    tmp="$(mktemp -d)"
    trap 'rm -rf "$tmp" "$trace_tmp"' EXIT
    RPAS_PROFILE=quick RPAS_THREADS=1 RPAS_RESULTS_DIR="$tmp/seq" \
        cargo run -q --release --offline -p rpas-bench --bin table1
    RPAS_PROFILE=quick RPAS_RESULTS_DIR="$tmp/par" \
        cargo run -q --release --offline -p rpas-bench --bin table1
    diff -r "$tmp/seq" "$tmp/par"
    echo "ok: table1 output independent of thread count"
fi

echo "verify: all checks passed"
