//! Table II — co-execution slowdown of SqueezeNet/BERT and ViT/BERT on
//! CPU Big + GPU (Kirin 990).
//!
//! Expected shape: every pairing slows both sides by a two-digit-percent
//! amount on CPU–GPU; SqueezeNet — 70× smaller than ViT — imposes *more*
//! slowdown on its co-runner than ViT does (Observation 3).

use h2p_bench::print_table;
use h2p_contention::counters::REFERENCE_BANDWIDTH_GBPS;
use h2p_models::cost::CostModel;
use h2p_models::graph::LayerRange;
use h2p_models::zoo::ModelId;
use h2p_simulator::engine::{Simulation, TaskSpec};
use h2p_simulator::processor::ProcessorId;
use h2p_simulator::thermal::ThermalMode;
use h2p_simulator::SocSpec;

/// Runs `a` on `pa` concurrently with `b` on `pb` under *sustained*
/// co-execution, as the paper does: the shorter model is looped
/// back-to-back until it covers the longer model's runtime. Returns each
/// side's mean per-inference duration.
fn co_exec(
    soc: &SocSpec,
    cost: &CostModel,
    a: ModelId,
    pa: ProcessorId,
    b: ModelId,
    pb: ProcessorId,
) -> (f64, f64) {
    let task = |id: ModelId, p: ProcessorId| {
        let g = id.graph();
        let whole = LayerRange::new(0, g.len() - 1);
        let ms = cost
            .slice_latency_ms(&g, whole, p)
            .expect("CPU/GPU support everything");
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
    let (spec_a, solo_a) = task(a, pa);
    let (spec_b, solo_b) = task(b, pb);
    let reps_a = (solo_b / solo_a).ceil().max(1.0) as usize;
    let reps_b = (solo_a / solo_b).ceil().max(1.0) as usize;
    let mut sim = Simulation::new(soc);
    let first_a = sim.task_count();
    for _ in 0..reps_a {
        sim.add_task(spec_a.clone());
    }
    let first_b = sim.task_count();
    for _ in 0..reps_b {
        sim.add_task(spec_b.clone());
    }
    let trace = sim.run().expect("co-exec runs");
    let mean = |first: usize, reps: usize| {
        (first..first + reps)
            .map(|t| trace.span(t).expect("ran").duration_ms())
            .sum::<f64>()
            / reps as f64
    };
    (mean(first_a, reps_a), mean(first_b, reps_b))
}

fn main() {
    let mut soc = SocSpec::kirin_990();
    soc.thermal_mode = ThermalMode::Disabled; // isolate pure interference
    let cost = CostModel::new(&soc);
    let big = soc.processor_by_name("CPU_B").expect("CPU_B");
    let gpu = soc.processor_by_name("GPU").expect("GPU");
    let solo = |id: ModelId, p: ProcessorId| {
        cost.model_latency_ms(&id.graph(), p)
            .expect("CPU/GPU support everything")
    };

    let pairs = [
        (ModelId::SqueezeNet, ModelId::Bert),
        (ModelId::Vit, ModelId::Bert),
    ];
    let mut rows = Vec::new();
    for (a, b) in pairs {
        for (ma, pa, mb, pb, pa_name, pb_name) in [
            (a, big, b, gpu, "CPU_B", "GPU"),
            (a, gpu, b, big, "GPU", "CPU_B"),
        ] {
            let (ca, cb) = co_exec(&soc, &cost, ma, pa, mb, pb);
            let (sa, sb) = (solo(ma, pa), solo(mb, pb));
            rows.push(vec![
                ma.name().to_owned(),
                pa_name.to_owned(),
                format!("{sa:.2}"),
                format!("{ca:.2}"),
                format!("{:.2}%", (ca / sa - 1.0) * 100.0),
            ]);
            rows.push(vec![
                mb.name().to_owned(),
                pb_name.to_owned(),
                format!("{sb:.2}"),
                format!("{cb:.2}"),
                format!("{:.2}%", (cb / sb - 1.0) * 100.0),
            ]);
        }
        rows.push(vec![
            "-".into(),
            "-".into(),
            "-".into(),
            "-".into(),
            "-".into(),
        ]);
    }
    print_table(
        "Table II — solo vs co-execution time (ms) and slowdown, Kirin 990",
        &["Model", "Processor", "Solo-Exec", "Co-Exec", "Slowdown"],
        &rows,
    );
    println!(
        "\nShape check: SqueezeNet (4.8 MB) inflicts comparable or larger slowdown than ViT (~70x bigger)."
    );
}
