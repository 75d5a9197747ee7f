#!/usr/bin/env bash
# The gate for the rpas workspace (tier-1 `cargo test -q` is a smoke
# test of the root package; this is everything). What it runs:
#   1. Offline release build — no registry access, path dependencies only
#      (root tests/hermetic.rs holds both lockfiles to path-only packages).
#   2. Every member crate's tests, offline. The CLI-level drills (chaos
#      and fleet determinism, kill/resume byte-identity, trace and
#      obs-query round-trips) are root tests/cli_e2e.rs; the paper's shape
#      claims at RPAS_PROFILE=quick are crates/bench/tests/shapes.rs.
#      It is a debug build, so every emit a test makes is also checked
#      against its catalogue entry's `keys [...]` list (an undeclared key
#      panics), and crates/bench/tests/alloc_checkpoint.rs holds
#      checkpoint `save` to one metric exposition plus a constant,
#      `load` to a rebuild and replay of the fleet plus the same, and
#      the exposition itself to a constant whatever the cell count.
#   3. Every example under examples/*.rs, run (not only compiled) in the
#      dev profile; a non-zero exit fails the gate. forecaster_tour, the
#      one that builds forecasts from five model families (and the only
#      caller of wql_at / coverage_at), trains them; ~8 s, time printed.
#   4. The number writer's 30 M-double sweep against `format!("{x}")`
#      (rpas-obs json::number::tests::sweep_agrees_with_std_display,
#      #[ignore]d in the workspace run; ~10 s in release), and the row
#      forms' sweep: sigmoid_in_place / tanh_in_place against the scalar
#      functions, bit for bit, on ~2.1 M arguments each in rows of 0–67
#      with planted edges (rpas-tsmath tests/elementary.rs
#      sweep_row_forms_match_the_scalar_functions, #[ignore]d too; ~1 s).
#   5. The event and capture-tape 400 000-case differential against a
#      test-only BTreeMap + format! oracle of the old render rule (rpas-obs
#      tape::tests::sweep_tape_renders_the_reference_lines, #[ignore]d in
#      the workspace run; ~70 s in release): every fleet trace line, so
#      every fleet digest, is a tape render. Beside it, the metric
#      exposition's 200 000-case differential against the same kind of
#      oracle (rpas-telemetry
#      registry::tests::sweep_exposition_renders_the_reference_lines;
#      ~6 s in release): every checkpoint digest hashes the exposition.
#   6. Kill/resume at every tick of the 64-tenant fleet in release
#      (tests/supervisor.rs::checkpoint_restore_at_any_tick_reproduces_the_run
#      with RPAS_CHECKPOINT_EVERY_TICK=1; step 2 resumes every 47th tick
#      only). Its time is printed; ~15 s on a 2-core host.
#   7. clippy with -D warnings: its default set plus the workspace's static
#      rules D2 / D3 / O1 / P1 / F1 / E1 (clippy.toml; DESIGN.md §9).
#   8. rustdoc with -D warnings: every intra-doc link resolves, and none
#      points at a private item from a public one's docs.
#   9. The benchmark ledger's self-check (`--check`, BENCHMARK.json), the
#      only timing gate. The dark telemetry path and the supervised steady
#      tick are held by allocation counts in step 2 (crates/bench/tests/
#      alloc_emit.rs, alloc_ratchet.rs); the ledger reports their time
#      (telemetry.counter_inc_ns, supervisor.overhead_frac).
#  10. Prints the workspace row of scripts/loc.sh (non-test lines), the
#      size ROADMAP aim 2 tracks; informational, never a failure.
#
# Optional: RPAS_VERIFY_PARALLEL=1 additionally checks that `experiments
# table1` produces byte-identical CSV output single-threaded vs parallel,
# and asserts every shape claim at the paper-scale profile
# (crates/bench/tests/shapes.rs's #[ignore]d test; ~6 min in release).
#
# Usage: scripts/verify.sh   (from anywhere; cd's to the repo root)

set -euo pipefail
cd "$(dirname "$0")/.."

echo "== offline release build =="
cargo build --release --offline

echo "== offline tests (whole workspace) =="
# Every member crate, not just the root package: the bit-identity pins
# under the fast inference paths (rpas-nn, rpas-forecast), the
# training-identity pins (rpas-forecast's golden weight / epoch / forecast
# hashes in tests/persistence.rs, rpas-nn's golden last-row attention-
# gradient hash, the whole-TFT gradient check in tft.rs), the checkpoint
# header codec and digest (rpas-core), the worker pool (rpas-par), the SLO early-out's
# equivalence property (rpas-telemetry) and the per-predict allocation
# ceilings (rpas-bench) all live in member crates.
cargo test -q --offline --workspace

echo "== examples (run, not only compiled) =="
# The list is the directory, so a new example cannot go unrun. Most take
# milliseconds in the dev profile; forecaster_tour trains five models.
start=$SECONDS
ran=0
for path in examples/*.rs; do
    example="$(basename "$path" .rs)"
    cargo run -q --offline --example "$example" > /dev/null
    ran=$((ran + 1))
done
echo "ok: all $ran examples ran ($((SECONDS - start)) s)"

echo "== number writer sweep (30 M doubles against format!, release) =="
# Every trace, exposition and report number goes through
# rpas_obs::json::write_f64; its bytes are contract (every digest).
cargo test -q --release --offline -p rpas-obs --lib -- --ignored --exact \
    json::number::tests::sweep_agrees_with_std_display

echo "== row-form sweep (sigmoid / tanh rows against the scalar functions, release) =="
# The recurrent steppers run their nonlinearities as whole rows; a row
# must give the scalar function's bits on either row path and every tail.
cargo test -q --release --offline -p rpas-tsmath --test elementary -- --ignored --exact \
    sweep_row_forms_match_the_scalar_functions

echo "== event and capture tape differential (400 000 cases against the old render rule, release) =="
# Every event's line, and a fleet's trace lines rendered from each
# tenant's tape, must be the bytes the old rule gives for what each event
# was built from: for a tape, timings and own tenant dropped, label in its
# sorted place.
cargo test -q --release --offline -p rpas-obs --lib -- --ignored --exact \
    tape::tests::sweep_tape_renders_the_reference_lines

echo "== metric exposition differential (200 000 registries against the old render rule, release) =="
# The exposition, which every checkpoint digest hashes, must be the bytes
# the old per-line format! + join rule gives, in Key order.
cargo test -q --release --offline -p rpas-telemetry --lib -- --ignored --exact \
    registry::tests::sweep_exposition_renders_the_reference_lines

echo "== kill/resume at every tick of the 64-tenant fleet (release) =="
start=$SECONDS
RPAS_CHECKPOINT_EVERY_TICK=1 cargo test -q --release --offline --test supervisor -- --exact \
    checkpoint_restore_at_any_tick_reproduces_the_run
echo "ok: every tick resumes byte-identically ($((SECONDS - start)) s)"

echo "== clippy: default set + static rules (clippy.toml; DESIGN.md §9) =="
cargo clippy --offline --workspace --all-targets -- -D warnings

echo "== rustdoc: every intra-doc link resolves =="
RUSTDOCFLAGS="-D warnings" cargo doc --offline --workspace --no-deps

echo "== decision-cycle ledger self-check (BENCHMARK.json workloads) =="
# Every ledger workload twice for 1.5 s: both runs must verify their
# own outputs, agree on the digest, and agree on each end-to-end
# metric within its BENCHMARK.json bound (ledger/README.md).
cargo run --release --offline --quiet --manifest-path ledger/Cargo.toml -- --check || {
    echo "ERROR: ledger --check failed (incorrect output, digest drift or unrepeatable metric)" >&2
    exit 1
}
echo "ok: ledger workloads correct and repeatable"

if [[ "${RPAS_VERIFY_PARALLEL:-0}" == "1" ]]; then
    echo "== table1 thread-count invariance =="
    tmp="$(mktemp -d)"
    trap 'rm -rf "$tmp"' EXIT
    RPAS_PROFILE=quick RPAS_THREADS=1 RPAS_RESULTS_DIR="$tmp/seq" \
        cargo run -q --release --offline -p rpas-bench --bin experiments -- table1
    RPAS_PROFILE=quick RPAS_RESULTS_DIR="$tmp/par" \
        cargo run -q --release --offline -p rpas-bench --bin experiments -- table1
    diff -r "$tmp/seq" "$tmp/par"
    echo "ok: table1 output independent of thread count"

    echo "== shape claims at the full profile =="
    cargo test -q --release --offline -p rpas-bench --test shapes -- --ignored
    echo "ok: every full-profile shape claim holds"
fi

echo "== size (scripts/loc.sh: non-test lines) =="
scripts/loc.sh | grep '^workspace '

echo "verify: all checks passed"
