#!/usr/bin/env bash
# Local CI gate: formatting, lints, release build, full test suite.
# Mirrors what reviewers run; keep it green before pushing.
set -euo pipefail
cd "$(dirname "$0")/.."

echo "== cargo fmt --check"
cargo fmt --all -- --check

echo "== cargo clippy -D warnings"
# Besides the usual lints, this holds the workspace to the determinism
# rules (root clippy.toml plus the lint tables in Cargo.toml): no
# hash-order iteration, no wall-clock read, no `Mutex` or `RwLock`
# around state that has one owner, and no waiver but an `#[expect]`
# with a reason. The workspace's own expectations keep
# clippy.toml honest: drop a method from it and they fail as unfulfilled.
cargo clippy --workspace --all-targets -- -D warnings

echo "== cargo doc -D warnings (intra-doc links)"
RUSTDOCFLAGS="-D warnings" cargo doc --workspace --no-deps

echo "== cargo build --release"
cargo build --release --workspace

echo "== cargo test"
cargo test -q --workspace

echo "== serve-path allocation budget (release)"
# Debug builds run audit and lint gates that allocate on every
# dispatch, so the heap-allocation budget of the warm serve path binds
# the release build.
cargo test --release -q --test serve_alloc

echo "== planning allocation budget (release)"
# The same reasoning binds warm planning's budget (Fig. 7 batches and
# one-request plans on a warmed planner) to the release build.
cargo test --release -q --test plan_alloc

echo "== chaos-path allocation budget (release)"
# Likewise for a serve-chaos stream, where every dispatch runs the
# recovery rounds: plans, replans, faulted runs and in-place audits.
cargo test --release -q --test recovery_alloc

echo "== retained-memory budget (release)"
# A server serving the same serve-light stream twice, and a warm planner
# planning 4,000 Fig. 7 batches, must retain flat live heap: the span
# recorder and the lifecycle log keep fixed windows, and the serve loop
# moves its own stream into its report.
cargo test --release -q --test serve_memory

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

echo "== determinism lints: lint tables and seeded hazards (scripts/lint-hazards)"
# An `#[expect]` enables its own lint, so dropping a level from a lint
# table leaves every expectation fulfilled: check the tables instead.
# The workspace table, the root package's, h2p-bench's and the
# fixture's (a workspace of its own) must each deny all three lints.
for lint in iter_over_hash_type allow_attributes allow_attributes_without_reason; do
    for table in Cargo.toml:2 crates/bench/Cargo.toml:1 scripts/lint-hazards/Cargo.toml:1; do
        [ "$(grep -cx "$lint = \"deny\"" "${table%:*}")" -eq "${table#*:}" ] || {
            echo "${table%:*}: each of its ${table#*:} lint table(s) must deny $lint" >&2
            exit 1; }
    done
done
# A crate outside the workspace holds one bin per seeded hazard class
# and per waiver rule. Each must fail clippy with its own lint (or, for
# the unseeded generator the vendored rand does not offer, its missing
# item) named in the output; the justified waivers must pass.
HAZARDS="cargo clippy --offline --quiet --target-dir target/lint-hazards \
    --manifest-path scripts/lint-hazards/Cargo.toml"
HAZARD_OUT=$(mktemp)
expect_hazard() {
    if $HAZARDS --bin "$1" -- -D warnings > "$HAZARD_OUT" 2>&1; then
        echo "clippy MISSED seeded hazard: $1" >&2
        rm -f "$HAZARD_OUT"; exit 1
    fi
    grep -qE "$2" "$HAZARD_OUT" || {
        echo "seeded hazard $1 failed without matching /$2/:" >&2
        cat "$HAZARD_OUT" >&2
        rm -f "$HAZARD_OUT"; exit 1; }
}
expect_hazard hash-iteration '#iter_over_hash_type$'
expect_hazard wall-clock 'disallowed method `std::time::Instant::now`'
expect_hazard unordered-reduction 'disallowed method `std::collections::HashMap::values`'
expect_hazard shared-lock 'disallowed type `std::sync::Mutex`'
expect_hazard unseeded-rng 'cannot find function `thread_rng`'
expect_hazard stale 'this lint expectation is unfulfilled'
expect_hazard no-reason '#allow_attributes_without_reason$'
expect_hazard plain-allow '#allow_attributes$'
$HAZARDS --bin waived -- -D warnings > "$HAZARD_OUT" 2>&1 || {
    echo "justified waivers failed clippy:" >&2
    cat "$HAZARD_OUT" >&2
    rm -f "$HAZARD_OUT"; exit 1; }
rm -f "$HAZARD_OUT"

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
# per-point JSON and the emitted lifecycle event log.
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
# the planner-vs-reference and incremental-replan wins (algorithmic
# ratios, valid on any host) and, on hosts with 4 or more cores, the
# partition_dp/BERT kernel win. The quick run writes its
# snapshots to a temporary directory, so the committed ones stay as they
# are, and the perf-regression sentinel below diffs the fresh quick run
# against the committed BENCH_planner.json: a >10% median regression on
# any shared case fails, unless either snapshot carries the advisory
# stamp (hosts with fewer than 4 cores), which downgrades the diff to
# report-only.
BENCH_DIR=$(mktemp -d)
trap 'rm -f "$TRACE_OUT" "$METRICS_OUT"; rm -rf "$BENCH_DIR"' EXIT
scripts/bench.sh --quick --out-dir "$BENCH_DIR"

echo "== bench_check --diff vs committed BENCH_planner.json"
cargo run --release -q -p h2p-bench --bin bench_check -- \
    --diff BENCH_planner.json "$BENCH_DIR/BENCH_planner.json" --threshold 0.10

echo "CI gate passed."
