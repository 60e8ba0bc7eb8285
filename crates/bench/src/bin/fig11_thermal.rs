//! Appendix B (Fig. 11's thermal discussion) — thermal behaviour under
//! continuous inference: the CPU clusters heat past their throttle point
//! and slow down, while the GPU/NPU stay inside their envelope.
//!
//! Runs a long back-to-back ResNet50 stream on each processor in
//! *transient* thermal mode and reports per-inference latency at the
//! start vs at thermal steady state, plus the steady-state temperatures.

use h2p_bench::print_table;
use h2p_models::cost::CostModel;
use h2p_models::graph::LayerRange;
use h2p_models::zoo::ModelId;
use h2p_simulator::engine::{Simulation, TaskSpec};
use h2p_simulator::thermal::{ThermalMode, ThermalSpec};
use h2p_simulator::SocSpec;

fn main() {
    let mut soc = SocSpec::kirin_990();
    soc.thermal_mode = ThermalMode::Transient;
    let cost = CostModel::new(&soc);
    let g = ModelId::ResNet50.graph();
    let whole = LayerRange::new(0, g.len() - 1);

    let mut rows = Vec::new();
    for pname in ["CPU_B", "CPU_S", "GPU", "NPU"] {
        let pid = soc.processor_by_name(pname).expect("kirin processor");
        let solo = cost
            .slice_latency_ms(&g, whole, pid)
            .expect("ResNet50 runs everywhere");
        // Run enough back-to-back inferences to pass the thermal time
        // constant (~tens of seconds of busy time).
        let reps = ((60_000.0 / solo).ceil() as usize).clamp(20, 4000);
        let mut sim = Simulation::new(&soc);
        for i in 0..reps {
            sim.add_task(TaskSpec::new(format!("r{i}"), pid, solo));
        }
        let trace = sim.run().expect("runs");
        let first = trace.span(0).expect("ran").duration_ms();
        let last = trace.span(reps - 1).expect("ran").duration_ms();
        let spec = ThermalSpec::for_kind(soc.processor(pid).kind);
        rows.push(vec![
            pname.to_owned(),
            format!("{first:.1}"),
            format!("{last:.1}"),
            format!("{:+.1}%", (last / first - 1.0) * 100.0),
            format!("{:.0} C", spec.steady_state_c()),
            format!("{:.0} C", spec.throttle_c),
            if spec.throttles_at_steady_state() {
                "yes".to_owned()
            } else {
                "no".to_owned()
            },
        ]);
    }
    print_table(
        "Appendix B — continuous ResNet50 inference, transient thermal mode (Kirin 990)",
        &[
            "Processor",
            "cold (ms)",
            "hot (ms)",
            "slowdown",
            "steady T",
            "throttle T",
            "throttles",
        ],
        &rows,
    );
    println!(
        "\nShape check: CPUs exceed 60 C and throttle; GPU/NPU equilibrate below 50 C —\nwhich is why all evaluation experiments run pinned at thermal steady state."
    );
}
