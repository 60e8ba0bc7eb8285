//! Extension experiment: slicing granularity (the Definition-1 choice).
//!
//! The paper slices models coarsely because "it is computationally
//! intensive to provide a layer-wise granularity for slicing large
//! models". This experiment isolates exactly that choice: the *same*
//! layer-wise ResNet50 graph is partitioned by the same DP, once with
//! split points allowed at every layer boundary and once restricted to
//! residual-block boundaries (every 4th layer) — so the cost basis is
//! identical and only the split-point resolution differs.

use std::time::Instant;

use h2p_bench::print_table;
use h2p_models::graph::ModelGraph;
use h2p_models::zoo::resnet50_unfused;
use h2p_simulator::SocSpec;
use hetero2pipe::executor;
use hetero2pipe::partition::min_max_partition;
use hetero2pipe::plan::{PipelinePlan, RequestPlan};
use hetero2pipe::planner::Planner;

/// Partitions `graph` over all four Kirin slots with split points
/// restricted by `allowed(boundary_index)`, builds a `copies`-deep
/// pipeline plan, and executes it.
fn study(
    planner: &Planner,
    soc: &SocSpec,
    graph: &ModelGraph,
    copies: usize,
    label: &str,
    allowed: &dyn Fn(usize) -> bool,
) -> Vec<String> {
    let procs = soc.processors_by_power();
    let est = planner.estimator();
    let ctx = est.context(graph, &procs, vec![0, 1, 2, 3]);
    let cost = est.cost();
    let n = graph.len();
    // Restrict split points: a slice [i, j] is only usable if it starts
    // and ends at allowed boundaries (model edges always allowed).
    let oracle = |a: usize, i: usize, j: usize| -> Option<f64> {
        let start_ok = i == 0 || allowed(i);
        let end_ok = j + 1 == n || allowed(j + 1);
        if start_ok && end_ok {
            ctx.stage_cost(cost, a, i, j)
        } else {
            None
        }
    };
    #[expect(
        clippy::disallowed_methods,
        reason = "this experiment reports wall-clock DP time by design"
    )]
    let t0 = Instant::now();
    let p = min_max_partition(n, 4, oracle).expect("feasible partition");
    let plan_us = t0.elapsed().as_micros();
    let stages = ctx
        .build_stages(cost, &p.splits, procs.len())
        .expect("buildable");
    let requests: Vec<RequestPlan> = (0..copies)
        .map(|r| RequestPlan {
            request: r,
            model: graph.shared_name().clone(),
            stages: stages.clone(),
            intensity: est.predict_intensity(graph),
            class: est.classify(graph),
        })
        .collect();
    let plan = PipelinePlan { procs, requests };
    let report = executor::execute(&plan, soc).expect("exec");
    let max_stage = p.stage_ms.iter().copied().fold(0.0, f64::max);
    let mean_stage = p.stage_ms.iter().sum::<f64>() / p.stage_ms.len() as f64;
    vec![
        label.to_owned(),
        format!("{:?}", p.splits),
        format!("{plan_us}"),
        format!("{:.2}", max_stage / mean_stage),
        format!("{:.0}", report.makespan_ms),
    ]
}

fn main() {
    let soc = SocSpec::kirin_990();
    let planner = Planner::new(&soc).expect("planner");
    let graph = resnet50_unfused();
    let copies = 6;
    let rows = vec![
        study(&planner, &soc, &graph, copies, "layer-wise splits", &|_| {
            true
        }),
        study(
            &planner,
            &soc,
            &graph,
            copies,
            "block-boundary splits",
            &|b| b % 4 == 2, // residual-block edges in the unfused layout
        ),
    ];
    print_table(
        &format!(
            "Extension — slicing granularity, {copies}x ResNet50 ({} layers) on Kirin 990",
            graph.len()
        ),
        &[
            "Split-point resolution",
            "chosen splits",
            "DP time (µs)",
            "stage imbalance (max/mean)",
            "makespan (ms)",
        ],
        &rows,
    );
    println!(
        "\nSame layers, same cost model — only the allowed split points differ.\nFiner split points buy tighter min-max stage balance at higher DP cost,\nbut balance is a proxy: under heterogeneous processors the measured\npipeline throughput tracks the bottleneck processor's share, and a\ncoarser split that loads the NPU more can win — evidence for the paper's\nposition that coarse Definition-1 slicing loses little."
    );
}
