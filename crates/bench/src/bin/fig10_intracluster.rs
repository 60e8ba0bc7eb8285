//! Fig. 10 — intra-cluster contention between CPU cores.
//!
//! Co-executes YOLOv4 and VGG16 on two sub-partitions of the same CPU
//! cluster ("BB-BB" = two Big cores each, "SS-SS" = two Small cores each,
//! "BBB-B", "SSS-S") and measures the slowdown versus solo execution on
//! the same partition.
//!
//! Expected shape: conflicting L2 misses inside a shared cluster cause up
//! to ~70% slowdown — the reason Hetero²Pipe treats each cluster as an
//! indivisible pipeline stage.

use h2p_bench::print_table;
use h2p_contention::counters::REFERENCE_BANDWIDTH_GBPS;
use h2p_models::cost::CostModel;
use h2p_models::graph::LayerRange;
use h2p_models::zoo::ModelId;
use h2p_simulator::engine::{Simulation, TaskSpec};
use h2p_simulator::thermal::ThermalMode;
use h2p_simulator::SocSpec;

/// Runs YOLOv4 on partition `p0` and VGG16 on partition `p1`, returning
/// each side's slowdown vs solo on that same partition.
fn co_run(soc: &SocSpec, p0: &str, p1: &str) -> (f64, f64) {
    let cost = CostModel::new(soc);
    let a = soc.processor_by_name(p0).expect("partition 0");
    let b = soc.processor_by_name(p1).expect("partition 1");
    let spec = |id: ModelId, p| {
        let g = id.graph();
        let whole = LayerRange::new(0, g.len() - 1);
        let ms = cost.slice_latency_ms(&g, whole, p).expect("CPU runs all");
        let bw = cost.slice_bandwidth_gbps(&g, whole, p).unwrap_or(0.0);
        let intensity = bw / REFERENCE_BANDWIDTH_GBPS;
        (
            TaskSpec::new(id.name(), p, ms)
                .intensity(intensity)
                .sensitivity(0.5 + 0.5 * intensity.clamp(0.0, 2.0))
                .bandwidth(bw),
            ms,
        )
    };
    let (ta, solo_a) = spec(ModelId::YoloV4, a);
    let (tb, solo_b) = spec(ModelId::Vgg16, b);
    let mut sim = Simulation::new(soc);
    sim.add_task(ta);
    sim.add_task(tb);
    let trace = sim.run().expect("co-run");
    (
        trace.span(0).expect("yolo ran").duration_ms() / solo_a - 1.0,
        trace.span(1).expect("vgg ran").duration_ms() / solo_b - 1.0,
    )
}

/// (label, big-cluster split, small-cluster split, partition 0, partition 1).
type SplitCase = (
    &'static str,
    (u32, u32),
    (u32, u32),
    &'static str,
    &'static str,
);

fn main() {
    let cases: [SplitCase; 4] = [
        ("BB-BB", (2, 2), (2, 2), "CPU_B0", "CPU_B1"),
        ("SS-SS", (2, 2), (2, 2), "CPU_S0", "CPU_S1"),
        ("BBB-B", (3, 1), (2, 2), "CPU_B0", "CPU_B1"),
        ("SSS-S", (2, 2), (3, 1), "CPU_S0", "CPU_S1"),
    ];
    let mut rows = Vec::new();
    for (label, big_split, small_split, p0, p1) in cases {
        let mut soc = SocSpec::kirin_990_split_clusters(big_split, small_split);
        soc.thermal_mode = ThermalMode::Disabled;
        let (s0, s1) = co_run(&soc, p0, p1);
        rows.push(vec![
            label.to_owned(),
            format!("{:.1}%", s0 * 100.0),
            format!("{:.1}%", s1 * 100.0),
        ]);
    }
    // Cross-cluster reference: same pair on Big vs Small clusters.
    let mut soc = SocSpec::kirin_990();
    soc.thermal_mode = ThermalMode::Disabled;
    let (s0, s1) = co_run(&soc, "CPU_B", "CPU_S");
    rows.push(vec![
        "B-S (cross-cluster)".to_owned(),
        format!("{:.1}%", s0 * 100.0),
        format!("{:.1}%", s1 * 100.0),
    ]);
    print_table(
        "Fig. 10 — intra-cluster slowdown, YOLOv4 + VGG16 co-execution (Kirin 990)",
        &["Partitioning", "YOLOv4 slowdown", "VGG16 slowdown"],
        &rows,
    );
    println!(
        "\nShape check: same-cluster splits suffer up to ~70% slowdown; cross-cluster is mild —\nhence Hetero2Pipe schedules whole clusters, never core splits."
    );
}
