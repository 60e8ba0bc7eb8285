//! Affine batch-latency model (Appendix D).
//!
//! Lightweight models like MobileNetV2/SqueezeNet finish 20–40× faster
//! than heavyweight co-residents like BERT, so pipelining a *single*
//! lightweight inference against a heavy stage is wasteful: the kernel
//! launch and weight-loading overhead dominates. The paper's workaround
//! is batching — due to limited on-chip memory, mobile execution time
//! grows almost linearly in batch size, so latency is well modeled as an
//! affine function `latency(b) = slope · b + intercept`.

use serde::{Deserialize, Serialize};

use h2p_simulator::processor::ProcessorId;

use crate::cost::CostModel;
use crate::graph::{LayerRange, ModelGraph};

/// Affine batch-latency model for one (model, processor) pair.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct BatchModel {
    /// Marginal per-item latency in ms (compute + traffic per inference).
    pub slope_ms: f64,
    /// Fixed cost in ms: kernel dispatch across layers plus the one-time
    /// weight load / on-chip buffer fill.
    pub intercept_ms: f64,
}

impl BatchModel {
    /// Fits the affine model for `graph` on `proc`: the slope is the
    /// marginal solo latency minus dispatch overheads, the intercept the
    /// per-run fixed costs. Returns `None` if the model cannot run on
    /// `proc` (unsupported operators).
    pub fn fit(cost: &CostModel, graph: &ModelGraph, proc: ProcessorId) -> Option<BatchModel> {
        let whole = LayerRange::new(0, graph.len() - 1);
        let total = cost.slice_latency_ms(graph, whole, proc)?;
        let spec = cost.soc().processor(proc);
        let dispatch = spec.kernel_overhead_ms * graph.len() as f64;
        // Weight-load cost: streaming the parameters once through the copy
        // path (~2 GB/s effective, see `CostModel::copy_ms`).
        let weight_load = graph.weight_bytes() as f64 / 2.0e6;
        let slope = (total - dispatch).max(0.0);
        Some(BatchModel {
            slope_ms: slope,
            intercept_ms: dispatch + weight_load,
        })
    }

    /// Predicted latency of a batch of `b` inferences.
    ///
    /// # Panics
    ///
    /// Panics if `b == 0`.
    pub fn latency_ms(&self, b: u32) -> f64 {
        assert!(b > 0, "batch size must be positive");
        self.slope_ms * b as f64 + self.intercept_ms
    }

    /// The smallest batch size whose total latency reaches `target_ms`,
    /// capped at `max_batch`. Used to align a lightweight model's stage
    /// time with a heavyweight co-resident's stage time.
    pub fn batch_to_match(&self, target_ms: f64, max_batch: u32) -> u32 {
        if self.slope_ms <= 0.0 {
            return max_batch.max(1);
        }
        let b = ((target_ms - self.intercept_ms) / self.slope_ms).ceil();
        (b.max(1.0) as u32).min(max_batch.max(1))
    }
}

/// Rate of change of latency with batch size, normalized by the
/// single-inference latency — the quantity plotted on Fig. 13's y-axis.
/// Values near `slope/(slope+intercept)` indicate full utilization.
pub fn latency_growth_rate(model: &BatchModel, b: u32) -> f64 {
    if b == 0 {
        return 0.0;
    }
    let l1 = model.latency_ms(1);
    if l1 <= 0.0 {
        return 0.0;
    }
    (model.latency_ms(b + 1) - model.latency_ms(b)) / l1
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::zoo::ModelId;
    use h2p_simulator::SocSpec;

    fn setup() -> (SocSpec, CostModel) {
        let soc = SocSpec::kirin_990();
        let cm = CostModel::new(&soc);
        (soc, cm)
    }

    #[test]
    fn batching_amortizes_fixed_costs() {
        let (soc, cm) = setup();
        let gpu = soc.processor_by_name("GPU").unwrap();
        let m = BatchModel::fit(&cm, &ModelId::MobileNetV2.graph(), gpu).unwrap();
        assert!(m.latency_ms(8) / 8.0 < m.latency_ms(1));
        assert!(m.latency_ms(8) > m.latency_ms(1));
    }

    #[test]
    fn latency_is_affine_in_batch_size() {
        let (soc, cm) = setup();
        let big = soc.processor_by_name("CPU_B").unwrap();
        let m = BatchModel::fit(&cm, &ModelId::SqueezeNet.graph(), big).unwrap();
        let d1 = m.latency_ms(2) - m.latency_ms(1);
        let d2 = m.latency_ms(9) - m.latency_ms(8);
        assert!((d1 - d2).abs() < 1e-9, "constant marginal cost");
    }

    #[test]
    fn batch_to_match_closes_the_light_heavy_gap() {
        let (soc, cm) = setup();
        let big = soc.processor_by_name("CPU_B").unwrap();
        let light = BatchModel::fit(&cm, &ModelId::MobileNetV2.graph(), big).unwrap();
        let heavy_ms = cm
            .model_latency_ms(&ModelId::Bert.graph(), big)
            .expect("BERT runs on CPU");
        let b = light.batch_to_match(heavy_ms, 64);
        assert!(b > 1, "one light inference cannot fill a BERT stage");
        assert!(light.latency_ms(b) >= heavy_ms * 0.9 || b == 64);
    }

    #[test]
    fn unsupported_model_yields_none() {
        let (soc, cm) = setup();
        let npu = soc.processor_by_name("NPU").unwrap();
        assert!(BatchModel::fit(&cm, &ModelId::Bert.graph(), npu).is_none());
    }

    #[test]
    fn growth_rate_is_positive_and_stable() {
        let (soc, cm) = setup();
        let gpu = soc.processor_by_name("GPU").unwrap();
        let m = BatchModel::fit(&cm, &ModelId::SqueezeNet.graph(), gpu).unwrap();
        let r4 = latency_growth_rate(&m, 4);
        let r16 = latency_growth_rate(&m, 16);
        assert!(r4 > 0.0);
        assert!((r4 - r16).abs() < 1e-9, "affine model has constant rate");
    }

    #[test]
    #[should_panic(expected = "batch size")]
    fn zero_batch_panics() {
        let (soc, cm) = setup();
        let big = soc.processor_by_name("CPU_B").unwrap();
        let m = BatchModel::fit(&cm, &ModelId::SqueezeNet.graph(), big).unwrap();
        let _ = m.latency_ms(0);
    }
}
