#!/usr/bin/env bash
# Local CI gate: formatting, lints, release build, full test suite.
# Mirrors what reviewers run; keep it green before pushing.
set -euo pipefail
cd "$(dirname "$0")/.."

echo "== cargo fmt --check"
cargo fmt --all -- --check

echo "== cargo clippy -D warnings"
cargo clippy --workspace --all-targets -- -D warnings

echo "== cargo doc -D warnings (intra-doc links)"
# Workspace feature unification turns `model-check` on for hetero2pipe,
# which hides links that only resolve under it; document that crate on
# its own too so its default-feature docs are checked.
RUSTDOCFLAGS="-D warnings" cargo doc --workspace --no-deps
RUSTDOCFLAGS="-D warnings" cargo doc -p hetero2pipe --no-deps

echo "== cargo build --release"
cargo build --release --workspace

echo "== cargo test"
cargo test -q --workspace

echo "== experiments/ reproduce (seeded experiment binaries)"
# Every seeded experiment binary must reproduce its committed output
# byte for byte (ext_granularity prints wall-clock DP times and is left
# out). A change that moves a figure regenerates experiments/ and the
# numbers in EXPERIMENTS.md and README.md in the same change.
bash scripts/run_experiments.sh --check

echo "== h2pbench replay reconciliation"
# The benchmark is a workspace of its own that compiles against these
# crates by path, so the builds above never touch it. Building it here
# catches an API change that breaks it, and its deterministic replay
# test checks that the per-layer replay reconciles every served latency
# with its own seed only. The timing-based tests stay out of CI.
cargo test --release --offline --manifest-path h2pbench/Cargo.toml \
    replay_reconciles_only_with_its_own_seed

echo "== h2p lint (static plan verifier)"
H2P=target/release/h2p
# Every scheme must produce a lint-clean plan / task graph.
for scheme in mnn pipeit band dart noct h2p; do
    $H2P lint --scheme "$scheme" --json --deny-warnings \
        bert yolov4 mobilenetv2 > /dev/null
done
# Every corruption class must be caught with a nonzero exit.
for class in drop-layer duplicate-slot bad-proc inflate-makespan; do
    if $H2P lint --corrupt "$class" bert yolov4 > /dev/null 2>&1; then
        echo "lint MISSED corruption class: $class" >&2
        exit 1
    fi
done

echo "== h2p lint --source (workspace determinism lints)"
# The workspace must be free of determinism hazards (H2P010-H2P013):
# hash-order iteration, wall-clock reads in planning paths, unordered
# float reductions, unseeded RNG. Waivers require a justification.
$H2P lint --source --deny-warnings > /dev/null
# Every seeded source-hazard class must be caught with a nonzero exit.
for class in hash-iteration wall-clock unordered-reduction unseeded-rng; do
    if $H2P lint --source --mutant "$class" > /dev/null 2>&1; then
        echo "source lint MISSED hazard class: $class" >&2
        exit 1
    fi
done

echo "== h2p modelcheck --exhaustive (schedule-space model checker)"
# Exhaustive DFS over the cursor/partition, error-rule, tables-cache,
# partition-memo, scratch-pool, planner bit-identity and recovery-round
# models: every explored interleaving must satisfy the determinism
# invariants, and the sweep must cover at least 1000 distinct schedules.
# The report must list the partition-memo and DP scratch-pool models — a
# registry regression that silently drops one must fail here, not pass
# by omission.
MODELCHECK_OUT=$(mktemp)
$H2P modelcheck --exhaustive --min-schedules 1000 > "$MODELCHECK_OUT"
for model in partition_memo scratch_pool; do
    grep -q "$model" "$MODELCHECK_OUT" || {
        echo "modelcheck report is missing the $model model" >&2
        rm -f "$MODELCHECK_OUT"; exit 1; }
done
rm -f "$MODELCHECK_OUT"
# The checker must catch both seeded cursor-claim bugs: the dropped
# claim (skip-claim) and the torn claim (split-claim, which only
# misbehaves under an adversarial interleaving).
$H2P modelcheck --inject skip-claim --expect-violation > /dev/null
$H2P modelcheck --inject split-claim --expect-violation > /dev/null

echo "== h2p trace --audit (baselines included)"
# Every scheme lowers through Scheme::lower -> LoweredPlan, so the
# post-execution trace audit gates the baselines too.
for scheme in mnn pipeit band dart noct h2p; do
    $H2P trace --scheme "$scheme" --audit bert yolov4 mobilenetv2 > /dev/null
done
# The corrupted-trace demos must still fail the audit: "overlap"
# violates the plain envelope contracts, "stretch" stays inside the
# conservative envelope and is only caught by the event-log replay.
for class in overlap stretch; do
    if $H2P trace --audit --corrupt "$class" bert > /dev/null 2>&1; then
        echo "trace audit MISSED corruption class: $class" >&2
        exit 1
    fi
done

echo "== h2p trace --faults (one scenario per fault class)"
# Every fault class must run to a recovered-or-typed-degraded end with
# every recovery round passing its faulted audit (nonzero exit means an
# audit violation, a panic, or a hang — none are acceptable).
for spec in "drop:NPU@5" "throttle:CPU_B@2..60x0.4" "flaky:0x2" "mispredict:1.5"; do
    $H2P trace --faults "$spec" bert resnet50 > /dev/null || {
        echo "fault scenario failed: $spec" >&2; exit 1; }
done

echo "== h2p chaos --seeds 8 --json (seeded fault-recovery sweep)"
# Random fault scenarios: every seed must end recovered audit-clean or
# in a typed degraded outcome, with bounded retries and no task ever
# starting on a down processor. The machine-readable output must carry
# a per-seed object for every seed plus a clean summary object.
CHAOS_OUT=$(mktemp)
$H2P chaos --seeds 8 --json > "$CHAOS_OUT"
grep -q '"summary":true,"soc":"Kirin 990","seeds":8,"failures":0' "$CHAOS_OUT" || {
    echo "chaos --json summary missing or reported failures" >&2
    rm -f "$CHAOS_OUT"; exit 1; }
[ "$(grep -c '"seed":' "$CHAOS_OUT")" -eq 8 ] || {
    echo "chaos --json did not emit one object per seed" >&2
    rm -f "$CHAOS_OUT"; exit 1; }
rm -f "$CHAOS_OUT"

echo "== h2p events (hardened event-log ingestion)"
# A real event log round-trips through the typed parser and the replay
# reconciliation; a log with a non-finite timestamp is rejected with a
# line-numbered error and nonzero exit.
EVENTS_OUT=$(mktemp)
$H2P trace --events "$EVENTS_OUT" bert > /dev/null 2>&1
$H2P events "$EVENTS_OUT" > /dev/null
echo '{"event":"finish","time_ms":NaN,"task":0,"processor":1,"duration_ms":3,"slowdown":0}' > "$EVENTS_OUT"
if $H2P events "$EVENTS_OUT" > /dev/null 2>&1; then
    echo "event-log parser accepted a non-finite timestamp" >&2
    rm -f "$EVENTS_OUT"
    exit 1
fi
rm -f "$EVENTS_OUT"

echo "== h2p export (chrome trace + metrics snapshot)"
# The exporter must emit schema-valid Chrome Trace JSON and a non-empty
# metrics snapshot for the full pipeline scheme.
TRACE_OUT=$(mktemp)
METRICS_OUT=$(mktemp)
trap 'rm -f "$TRACE_OUT" "$METRICS_OUT"' EXIT
$H2P export --scheme h2p --trace "$TRACE_OUT" --metrics "$METRICS_OUT" \
    bert yolov4 mobilenetv2 > /dev/null
grep -q '"traceEvents"' "$TRACE_OUT" || {
    echo "exported trace lacks a traceEvents array" >&2; exit 1; }
grep -q '"ph":"X"' "$TRACE_OUT" || {
    echo "exported trace has no complete (ph=X) slices" >&2; exit 1; }
grep -q '"counters"' "$METRICS_OUT" || {
    echo "exported metrics snapshot is empty" >&2; exit 1; }

echo "== h2p report (serving report + three-way reconciliation)"
# The report must reconcile the audit replay, the engine trace and the
# lifecycle stream on a live run (nonzero exit means the three
# accountings disagree), and the machine-readable form must carry the
# schema stamp and a clean reconciliation verdict.
REPORT_OUT=$(mktemp)
$H2P report bert resnet50 mobilenetv2 > "$REPORT_OUT"
grep -q "replay and lifecycle reconcile" "$REPORT_OUT" || {
    echo "report did not declare reconciliation" >&2
    rm -f "$REPORT_OUT"; exit 1; }
$H2P report --json bert resnet50 > "$REPORT_OUT"
for field in '"schema":"h2p-report/v1"' '"reconciled":true' '"p99_ms":' '"burn_rate":'; do
    grep -q "$field" "$REPORT_OUT" || {
        echo "report --json is missing $field" >&2
        rm -f "$REPORT_OUT"; exit 1; }
done
# A chaos scenario (faults + recovery rounds) must also reconcile, and a
# saved event log must replay into a clean report.
$H2P report --chaos-seed 3 > /dev/null
$H2P trace --events "$REPORT_OUT" bert resnet50 > /dev/null 2>&1
$H2P report --from "$REPORT_OUT" > /dev/null
rm -f "$REPORT_OUT"

echo "== h2p serve (overload robustness gate)"
# Fixed-seed saturation sweep past 5x the measured capacity
# (~1.5 served/s on Kirin 990): every swept point must satisfy the
# overload invariants (exactly one typed terminal outcome per request,
# bounded queue depth and retries, causally valid lifecycle) — any
# violation exits nonzero — and typed backpressure must actually engage
# somewhere in the range, or the admission layer is asleep.
SERVE_A=$(mktemp)
SERVE_B=$(mktemp)
SERVE_LOG_A=$(mktemp)
SERVE_LOG_B=$(mktemp)
serve_cleanup() { rm -f "$SERVE_A" "$SERVE_B" "$SERVE_LOG_A" "$SERVE_LOG_B"; }
$H2P serve --qps-sweep 1..10 --steps 3 --seed 7 --requests 32 --json \
    --events "$SERVE_LOG_A" > "$SERVE_A"
grep -q '"summary":true,"points":3,"violations":0' "$SERVE_A" || {
    echo "serve sweep summary missing or reported invariant violations" >&2
    serve_cleanup; exit 1; }
if grep -q '"saturation_qps":null' "$SERVE_A"; then
    echo "serve sweep never engaged backpressure at 5x+ overload" >&2
    serve_cleanup; exit 1
fi
# Determinism: the identical invocation must be bit-identical, both the
# per-point JSON and the emitted lifecycle event log (H2P011).
$H2P serve --qps-sweep 1..10 --steps 3 --seed 7 --requests 32 --json \
    --events "$SERVE_LOG_B" > "$SERVE_B"
cmp -s "$SERVE_A" "$SERVE_B" || {
    echo "serve sweep is not bit-identical at a fixed seed" >&2
    serve_cleanup; exit 1; }
cmp -s "$SERVE_LOG_A" "$SERVE_LOG_B" || {
    echo "serve lifecycle log is not bit-identical at a fixed seed" >&2
    serve_cleanup; exit 1; }
# The emitted lifecycle log must round-trip through the hardened parser
# and replay into a clean report (reject/shed stages included).
$H2P events "$SERVE_LOG_A" > /dev/null
$H2P report --from "$SERVE_LOG_A" --json > /dev/null
# Chaos serving: seeded faults through the recovery machinery must still
# leave every request with exactly one typed outcome (nonzero exit means
# an invariant violation).
$H2P serve --qps 3 --seed 11 --requests 24 --chaos --json > /dev/null
serve_cleanup

echo "== bench_check --diff (perf-regression sentinel self-test)"
# Identical snapshots must pass; a 20% median regression must be caught
# with a nonzero exit; an advisory stamp downgrades the verdict to
# report-only.
DIFF_OLD=$(mktemp)
DIFF_NEW=$(mktemp)
DIFF_ADV=$(mktemp)
BENCH_CHECK="cargo run --release -q -p h2p-bench --bin bench_check --"
cat > "$DIFF_OLD" <<'EOF'
{
  "schema": "h2p-bench-planner/v1",
  "cases": [
    { "name": "plan_3x", "median_ns": 100000.0 },
    { "name": "replan_window", "median_ns": 40000.0 }
  ]
}
EOF
sed 's/100000.0/101000.0/' "$DIFF_OLD" > "$DIFF_NEW"
$BENCH_CHECK --diff "$DIFF_OLD" "$DIFF_NEW" > /dev/null || {
    echo "bench_check --diff flagged a within-threshold change" >&2
    rm -f "$DIFF_OLD" "$DIFF_NEW" "$DIFF_ADV"; exit 1; }
sed 's/100000.0/120001.0/' "$DIFF_OLD" > "$DIFF_NEW"
if $BENCH_CHECK --diff "$DIFF_OLD" "$DIFF_NEW" > /dev/null 2>&1; then
    echo "bench_check --diff MISSED a 20% median regression" >&2
    rm -f "$DIFF_OLD" "$DIFF_NEW" "$DIFF_ADV"; exit 1
fi
sed 's/"schema"/"advisory": true, "schema"/' "$DIFF_NEW" > "$DIFF_ADV"
$BENCH_CHECK --diff "$DIFF_OLD" "$DIFF_ADV" > /dev/null || {
    echo "bench_check --diff gated an advisory snapshot" >&2
    rm -f "$DIFF_OLD" "$DIFF_NEW" "$DIFF_ADV"; exit 1; }
rm -f "$DIFF_OLD" "$DIFF_NEW" "$DIFF_ADV"

echo "== planner bench (quick) + BENCH_planner.json gate"
# Runs the perf-trajectory suite, validates the JSON schema, and gates
# the incremental-replan win (>= 3x vs from-scratch windows — an
# algorithmic ratio, valid on any host). The committed snapshot is saved
# first so the perf-regression sentinel below can diff the fresh quick
# run against it: a >20% median regression on any shared case fails,
# unless either snapshot carries the advisory stamp (1-core hosts),
# which downgrades the diff to report-only.
BENCH_OLD=$(mktemp)
cp BENCH_planner.json "$BENCH_OLD"
scripts/bench.sh --quick

echo "== bench_check --diff vs committed BENCH_planner.json"
cargo run --release -q -p h2p-bench --bin bench_check -- \
    --diff "$BENCH_OLD" BENCH_planner.json
rm -f "$BENCH_OLD"

echo "== bench-sanity gate"
# On hosts that can actually run the benched 4 workers concurrently, the
# parallel gates become hard failures: the warm t4 plan must beat the
# sequential reference, and the cold t4 plan (whose subset searches fan
# out) must not lose to cold t1. On smaller hosts the speedup block
# is recorded advisory-only (bench_check already skipped its gates above)
# and this step records the host class instead of asserting.
CORES=$(nproc)
if [ "$CORES" -ge 4 ]; then
    cargo run --release -q -p h2p-bench --bin bench_check -- \
        BENCH_planner.json --require-parallel
else
    echo "   host has $CORES core(s) < 4: parallel speedup recorded" \
         "advisory-only; replan gate already enforced"
fi

echo "CI gate passed."
