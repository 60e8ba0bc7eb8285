//! Planner-phase timing profile: where does planning time go?
//!
//! Plans a random multi-DNN workload repeatedly with the telemetry
//! subsystem attached and reports the accumulated phase timings
//! (prepare = per-request DP partitioning, assemble = candidate-order
//! evaluation with work stealing and tail search), the DP pruning hit
//! rate, the LAP work counters, and the hit/miss counters of the
//! cross-invocation estimate-table cache and of the partition memo on
//! its entries — the observability counterpart of the
//! `planner_scaling` wall-clock suite. The raw metrics snapshot is
//! written as JSON for trend tracking across commits.
//!
//! Arguments: `--requests N` (default 8), `--seed S` (default 7),
//! `--iters I` (default 5), `--out PATH` (default
//! `BENCH_planner_phases.json`).

use h2p_bench::{arg_str, arg_usize, print_table};
use h2p_models::graph::ModelGraph;
use h2p_simulator::SocSpec;
use hetero2pipe::planner::Planner;
use hetero2pipe::workload::random_models;

fn main() {
    let n = arg_usize("--requests", 8);
    let seed = arg_usize("--seed", 7) as u64;
    let iters = arg_usize("--iters", 5).max(1);
    let out = arg_str("--out", "BENCH_planner_phases.json");

    let soc = SocSpec::kirin_990();
    let planner = Planner::new(&soc).expect("planner");
    let requests: Vec<ModelGraph> = random_models(seed, n).iter().map(|m| m.graph()).collect();

    for _ in 0..iters {
        planner.plan(&requests).expect("plan");
    }
    let snap = planner.telemetry().metrics.snapshot();

    let per_iter = |gauge: &str| snap.gauge(gauge).unwrap_or(0.0) / iters as f64;
    let count = |counter: &str| snap.counter(counter).unwrap_or(0);
    let evaluated = count("planner.dp.masks_evaluated");
    let pruned = count("planner.dp.masks_pruned");
    let prune_rate = if evaluated + pruned > 0 {
        100.0 * pruned as f64 / (evaluated + pruned) as f64
    } else {
        0.0
    };
    let rows = vec![
        vec![
            "prepare (DP partitioning)".to_owned(),
            format!("{:.3}", per_iter("planner.phase.prepare_ms")),
        ],
        vec![
            "assemble (orders + stealing)".to_owned(),
            format!("{:.3}", per_iter("planner.phase.assemble_ms")),
        ],
        vec![
            "total".to_owned(),
            format!("{:.3}", per_iter("planner.phase.total_ms")),
        ],
    ];
    print_table(
        &format!("Planner phase timings, Kirin 990 ({n} random requests, mean of {iters} plans)"),
        &["phase", "ms/plan"],
        &rows,
    );
    println!(
        "\nDP: {evaluated} subset DPs run, {pruned} pruned by the exact lower bound \
         ({prune_rate:.1}% hit rate), {} stage-cost cells evaluated",
        count("planner.dp.cells"),
    );
    println!(
        "LAP: {} solves, {} augmenting steps; mitigation: {} passes, {} moves",
        count("lap.solves"),
        count("lap.augment_steps"),
        count("mitigation.passes"),
        count("mitigation.moves"),
    );
    // The cross-invocation estimate-table cache: the first plan misses
    // once per distinct (model, pipeline) pair, every later plan hits.
    let hits = count("planner.tables.cache_hits");
    let misses = count("planner.tables.cache_misses");
    let hit_rate = if hits + misses > 0 {
        100.0 * hits as f64 / (hits + misses) as f64
    } else {
        0.0
    };
    println!(
        "tables cache: {hits} hits, {misses} misses across {iters} plans ({hit_rate:.1}% hit rate)"
    );
    // The partition memo on those entries: the first plan searches once
    // per distinct (model, pipeline) pair, every later plan hits.
    let hits = count("planner.partition.cache_hits");
    let misses = count("planner.partition.cache_misses");
    let hit_rate = if hits + misses > 0 {
        100.0 * hits as f64 / (hits + misses) as f64
    } else {
        0.0
    };
    println!(
        "partition memo: {hits} hits, {misses} misses across {iters} plans ({hit_rate:.1}% hit rate)"
    );

    std::fs::write(&out, snap.to_json()).expect("write metrics snapshot");
    println!("\nmetrics snapshot written to {out}");
}
