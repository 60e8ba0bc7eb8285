#!/usr/bin/env bash
# Regenerates every table and figure of the paper and stores the raw
# output under experiments/. Used to populate EXPERIMENTS.md.
#
#   scripts/run_experiments.sh           # rewrite experiments/
#   scripts/run_experiments.sh --check   # rerun into a scratch directory
#                                        # and diff against experiments/
#
# Every binary is seeded, so a rerun reproduces experiments/ byte for
# byte — except ext_granularity, which prints wall-clock DP times and is
# left out of the --check comparison.
set -euo pipefail
cd "$(dirname "$0")/.."

CHECK=0
for arg in "$@"; do
  case "$arg" in
    --check) CHECK=1 ;;
    *) echo "unknown argument: $arg" >&2; exit 2 ;;
  esac
done

COMBOS="${COMBOS:-100}"
if [ "$CHECK" = "1" ]; then
  OUT=$(mktemp -d)
  trap 'rm -rf "$OUT"' EXIT
else
  OUT=experiments
  mkdir -p "$OUT"
fi

bins=(
  zoo_summary
  fig01_processor_latency
  fig02a_queueing
  fig02b_counters
  tab01_related
  tab02_slowdown
  fig09_memory
  fig10_intracluster
  fig11_thermal
  fig12_bubble_latency
  fig13_batching
  app_searchspace
  ext_streaming
  ext_energy
  ext_precision
  ext_scaling
  ext_granularity
)
for b in "${bins[@]}"; do
  echo "== running $b"
  cargo run --release -q -p h2p-bench --bin "$b" >"$OUT/$b.txt" 2>&1
done

echo "== running fig07_overall (--combos $COMBOS)"
cargo run --release -q -p h2p-bench --bin fig07_overall -- --combos "$COMBOS" \
  >"$OUT/fig07_overall.txt" 2>&1

echo "== running fig08_ablation (--combos $COMBOS)"
cargo run --release -q -p h2p-bench --bin fig08_ablation -- --combos "$COMBOS" \
  >"$OUT/fig08_ablation.txt" 2>&1

if [ "$CHECK" = "0" ]; then
  echo "done; outputs in experiments/"
  exit 0
fi

status=0
for f in "$OUT"/*.txt; do
  name=$(basename "$f")
  if [ "$name" = "ext_granularity.txt" ]; then
    continue
  fi
  if ! cmp -s "experiments/$name" "$f"; then
    echo "experiments/$name differs from a fresh run:" >&2
    diff -u "experiments/$name" "$f" | head -20 >&2 || true
    status=1
  fi
done
if [ "$status" = "0" ]; then
  echo "experiments/ matches a fresh run of every deterministic binary"
fi
exit "$status"
