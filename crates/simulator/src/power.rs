//! Energy accounting over execution traces.
//!
//! The paper notes that "energy efficiency also demands low bandwidth
//! designs with active memory frequency throttling" — mobile SoCs are
//! power-budgeted first. This module attaches a simple power model to a
//! completed [`Trace`]: each processor draws `busy_watts` while executing
//! and `idle_watts` otherwise, and the memory controller adds a
//! frequency-dependent term. The resulting joules-per-inference metric
//! lets experiments compare schedulers on energy as well as latency
//! (e.g. a pipeline that keeps the big CPU cluster saturated may win on
//! latency but lose on energy to an NPU-heavy plan).

use serde::{Deserialize, Serialize};

use crate::processor::ProcessorKind;
use crate::soc::SocSpec;
use crate::timeline::Trace;

/// Per-processor-kind power draw in watts.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct PowerDraw {
    /// Draw while executing a task.
    pub busy_watts: f64,
    /// Draw while idle (clock-gated but powered).
    pub idle_watts: f64,
}

/// A power model for a SoC: per-kind draws plus the memory controller.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct PowerModel {
    cpu_big: PowerDraw,
    cpu_small: PowerDraw,
    gpu: PowerDraw,
    npu: PowerDraw,
    /// Memory-controller draw at the maximum frequency level, in watts;
    /// scaled linearly with the governor frequency.
    pub mem_max_watts: f64,
}

impl PowerModel {
    /// Typical figures for a flagship mobile SoC: the big CPU cluster is
    /// the hungriest per unit time, the NPU delivers by far the best
    /// FLOPs/W (its raison d'être).
    pub fn mobile_default() -> Self {
        PowerModel {
            cpu_big: PowerDraw {
                busy_watts: 4.2,
                idle_watts: 0.25,
            },
            cpu_small: PowerDraw {
                busy_watts: 1.1,
                idle_watts: 0.10,
            },
            gpu: PowerDraw {
                busy_watts: 3.2,
                idle_watts: 0.20,
            },
            npu: PowerDraw {
                busy_watts: 2.0,
                idle_watts: 0.15,
            },
            mem_max_watts: 1.4,
        }
    }

    /// The draw table entry for a processor kind.
    pub fn draw(&self, kind: ProcessorKind) -> PowerDraw {
        match kind {
            ProcessorKind::CpuBig => self.cpu_big,
            ProcessorKind::CpuSmall => self.cpu_small,
            ProcessorKind::Gpu => self.gpu,
            ProcessorKind::Npu => self.npu,
        }
    }
}

impl Default for PowerModel {
    fn default() -> Self {
        PowerModel::mobile_default()
    }
}

/// Energy breakdown of one execution trace.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct EnergyReport {
    /// Joules consumed by processors while executing tasks.
    pub compute_joules: f64,
    /// Joules consumed by idle (but powered) processors over the run.
    pub idle_joules: f64,
    /// Joules consumed by the memory controller (frequency-weighted).
    pub memory_joules: f64,
}

impl EnergyReport {
    /// Total energy of the run in joules.
    pub fn total_joules(&self) -> f64 {
        self.compute_joules + self.idle_joules + self.memory_joules
    }

    /// Energy per completed inference.
    ///
    /// # Panics
    ///
    /// Panics if `inferences == 0`.
    pub fn joules_per_inference(&self, inferences: usize) -> f64 {
        assert!(inferences > 0, "at least one inference required");
        self.total_joules() / inferences as f64
    }
}

/// Computes the energy of a completed trace on `soc` under `model`.
pub fn energy(trace: &Trace, soc: &SocSpec, model: &PowerModel) -> EnergyReport {
    let makespan_s = trace.makespan_ms() / 1e3;
    let mut compute = 0.0;
    let mut idle = 0.0;
    for (i, proc) in soc.processors.iter().enumerate() {
        let draw = model.draw(proc.kind);
        let busy_s = trace.busy_ms(crate::processor::ProcessorId(i)) / 1e3;
        compute += busy_s * draw.busy_watts;
        idle += (makespan_s - busy_s).max(0.0) * draw.idle_watts;
    }
    // Memory: integrate the governor-frequency trace (piecewise constant
    // between samples), scaled against the maximum level.
    let max_freq = soc.memory.max_freq_mhz() as f64;
    let mut memory = 0.0;
    for w in trace.memory.windows(2) {
        let dt_s = (w[1].time_ms - w[0].time_ms).max(0.0) / 1e3;
        memory += dt_s * model.mem_max_watts * (w[0].freq_mhz as f64 / max_freq);
    }
    // Tail segment after the last sample, if the run outlives it.
    if let Some(last) = trace.memory.last() {
        let dt_s = (trace.makespan_ms() - last.time_ms).max(0.0) / 1e3;
        memory += dt_s * model.mem_max_watts * (last.freq_mhz as f64 / max_freq);
    }
    EnergyReport {
        compute_joules: compute,
        idle_joules: idle,
        memory_joules: memory,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::engine::{Simulation, TaskSpec};

    fn run_one(solo_ms: f64, proc_name: &str) -> (Trace, SocSpec) {
        let soc = SocSpec::kirin_990();
        let p = soc.processor_by_name(proc_name).unwrap();
        let mut sim = Simulation::new(&soc);
        sim.add_task(TaskSpec::new("t", p, solo_ms));
        (sim.run().unwrap(), soc)
    }

    #[test]
    fn energy_scales_with_duration() {
        let model = PowerModel::mobile_default();
        let (short, soc) = run_one(10.0, "NPU");
        let (long, _) = run_one(100.0, "NPU");
        let e_short = energy(&short, &soc, &model).total_joules();
        let e_long = energy(&long, &soc, &model).total_joules();
        assert!(e_long > 5.0 * e_short, "{e_short} vs {e_long}");
    }

    #[test]
    fn busy_big_cpu_costs_more_than_busy_npu() {
        let model = PowerModel::mobile_default();
        let (cpu, soc) = run_one(100.0, "CPU_B");
        let (npu, _) = run_one(100.0, "NPU");
        // Same makespan, same idle structure on other processors; the
        // busy component differs.
        let e_cpu = energy(&cpu, &soc, &model).compute_joules;
        let e_npu = energy(&npu, &soc, &model).compute_joules;
        assert!(e_cpu > e_npu);
    }

    #[test]
    fn joules_per_inference_divides_total() {
        let model = PowerModel::mobile_default();
        let (t, soc) = run_one(50.0, "GPU");
        let e = energy(&t, &soc, &model);
        assert!((e.joules_per_inference(2) - e.total_joules() / 2.0).abs() < 1e-12);
    }

    #[test]
    fn components_are_non_negative_and_sane() {
        let model = PowerModel::mobile_default();
        let (t, soc) = run_one(20.0, "CPU_S");
        let e = energy(&t, &soc, &model);
        assert!(e.compute_joules > 0.0);
        assert!(e.idle_joules >= 0.0);
        assert!(e.memory_joules >= 0.0);
        // 20 ms of a ~10 W SoC is well under a joule.
        assert!(e.total_joules() < 1.0, "got {}", e.total_joules());
    }

    #[test]
    #[should_panic(expected = "inference")]
    fn zero_inferences_panics() {
        let e = EnergyReport {
            compute_joules: 1.0,
            idle_joules: 0.0,
            memory_joules: 0.0,
        };
        e.joules_per_inference(0);
    }
}
