//! Roofline cost model mapping layers onto heterogeneous processors.
//!
//! Per-layer latency on a processor is
//!
//! ```text
//! latency = max(flops / (peak · eff(op, kind)),  traffic / bandwidth) + overhead
//! traffic = bytes_touched · spill(working_set, L2) / locality
//! ```
//!
//! `eff` captures how well each operator class maps onto each processor
//! (depthwise convolutions run poorly on mobile GPUs, attention is
//! NEON-unfriendly on CPUs, the NPU excels at dense conv/MatMul).
//! `spill` multiplies DRAM traffic when a layer's working set exceeds the
//! processor's L2 — the mechanism behind Observation 2's memory-bound FC
//! and attention layers. NPU-unsupported operators yield `None`, which
//! forces the planner's operator fallback exactly like MNN falling back
//! to the CPU/GPU.
//!
//! [`CostTable`] precomputes prefix sums so the planner's dynamic program
//! can query any slice cost `T_k(i, j)` in O(1), as required for the
//! paper's O(nK) complexity claim.

use serde::{Deserialize, Serialize};

use h2p_simulator::processor::{ProcessorId, ProcessorKind, ProcessorSpec};
use h2p_simulator::soc::SocSpec;

use crate::graph::{LayerRange, ModelGraph};
use crate::layer::{Layer, OpKind};
use crate::profile::ProfileTable;

/// Operator efficiency on a processor kind, in `(0, 1]` of peak FLOPs;
/// `None` means the operator is unsupported there (NPU fallback cases).
fn efficiency(op: OpKind, kind: ProcessorKind) -> Option<f64> {
    use OpKind::*;
    use ProcessorKind::*;
    let eff = match (op, kind) {
        (Conv, Npu) => 0.90,
        (Conv, CpuBig) => 0.55,
        (Conv, Gpu) => 0.60,
        (Conv, CpuSmall) => 0.45,
        (DwConv, Npu) => 0.55,
        (DwConv, CpuBig) => 0.45,
        (DwConv, Gpu) => 0.25, // depthwise maps poorly onto OpenCL GPUs
        (DwConv, CpuSmall) => 0.40,
        (Fc | MatMul, Npu) => 0.85,
        (Fc | MatMul, CpuBig) => 0.50,
        (Fc | MatMul, Gpu) => 0.65,
        (Fc | MatMul, CpuSmall) => 0.40,
        (Attention, Npu) => 0.70,
        (Attention, CpuBig) => 0.35,
        (Attention, Gpu) => 0.50,
        (Attention, CpuSmall) => 0.30,
        (Embedding, Npu) => return None,
        (Mish, Npu) => return None,
        (Upsample, Npu) => return None,
        (Embedding, _) => 0.20,
        // Element-wise / shuffle operators are bandwidth-bound everywhere.
        (LayerNorm | Pool | Concat | Eltwise | Softmax | Mish | Upsample, _) => 0.30,
    };
    Some(eff)
}

/// DRAM traffic multiplier once a working set exceeds the L2: data is
/// re-streamed from memory, up to a saturation factor.
fn spill_factor(working_set_bytes: u64, l2_kib: u32) -> f64 {
    let l2 = (l2_kib as f64) * 1024.0;
    let ratio = working_set_bytes as f64 / l2;
    if ratio <= 1.0 {
        1.0
    } else {
        (1.0 + 0.8 * ratio.ln()).min(4.0)
    }
}

/// Cost of one layer on one processor.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct LayerCost {
    /// Latency in milliseconds (including kernel dispatch overhead).
    pub latency_ms: f64,
    /// DRAM traffic in bytes after spill/locality adjustment.
    pub traffic_bytes: f64,
    /// Whether the layer is memory-bound on this processor.
    pub memory_bound: bool,
}

impl LayerCost {
    /// Average bandwidth demand of the layer in GB/s.
    pub fn bandwidth_gbps(&self) -> f64 {
        if self.latency_ms <= 0.0 {
            0.0
        } else {
            // bytes/ms = KB/s·1e3; bytes / (ms·1e6) = GB/s.
            self.traffic_bytes / (self.latency_ms * 1e6)
        }
    }
}

/// Numerical precision of inference execution. Models ship as FP32; the
/// paper quotes FP16 CPU figures and the NPU's native low-precision
/// units, so the cost model can evaluate reduced-precision deployment:
/// tensor traffic shrinks with the element size and throughput grows on
/// processors with hardware support.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default, Serialize, Deserialize)]
pub enum Precision {
    /// 32-bit floating point (the baseline the zoo is specified in).
    #[default]
    Fp32,
    /// 16-bit floating point (NEON FP16 / GPU half / NPU half).
    Fp16,
    /// 8-bit integer (NPU-native; CPUs via dot-product extensions).
    Int8,
}

impl Precision {
    /// Bytes per element relative to FP32 (1.0, 0.5, 0.25).
    pub fn element_scale(self) -> f64 {
        match self {
            Precision::Fp32 => 1.0,
            Precision::Fp16 => 0.5,
            Precision::Int8 => 0.25,
        }
    }

    /// Compute-throughput multiplier on a processor kind: how much faster
    /// its MAC pipelines run at this precision.
    pub fn throughput_gain(self, kind: ProcessorKind) -> f64 {
        match (self, kind) {
            (Precision::Fp32, _) => 1.0,
            // NEON FP16 / dot-product extensions on recent big cores.
            (Precision::Fp16, ProcessorKind::CpuBig) => 1.8,
            (Precision::Int8, ProcessorKind::CpuBig) => 2.5,
            // Little cores gain less (narrower SIMD).
            (Precision::Fp16, ProcessorKind::CpuSmall) => 1.5,
            (Precision::Int8, ProcessorKind::CpuSmall) => 2.0,
            // Mobile GPUs double FP16 rate; INT8 paths are patchy.
            (Precision::Fp16, ProcessorKind::Gpu) => 2.0,
            (Precision::Int8, ProcessorKind::Gpu) => 2.0,
            // The NPU is built for low precision.
            (Precision::Fp16, ProcessorKind::Npu) => 2.0,
            (Precision::Int8, ProcessorKind::Npu) => 4.0,
        }
    }
}

/// Analytical cost model bound to one SoC.
#[derive(Debug, Clone)]
pub struct CostModel {
    soc: SocSpec,
    precision: Precision,
    profile: Option<ProfileTable>,
}

impl CostModel {
    /// Creates a cost model for the given SoC at FP32.
    pub fn new(soc: &SocSpec) -> Self {
        Self::with_precision(soc, Precision::Fp32)
    }

    /// Creates a cost model evaluating execution at the given precision.
    pub fn with_precision(soc: &SocSpec, precision: Precision) -> Self {
        CostModel {
            soc: soc.clone(),
            precision,
            profile: None,
        }
    }

    /// Attaches a table of measured per-layer latencies: wherever a
    /// measurement exists for `(model, layer, processor)` it replaces the
    /// analytical roofline estimate in every latency query. Traffic and
    /// PMU estimation remain analytical (a profiler measures time, not
    /// bus bytes).
    pub fn set_profile(&mut self, profile: ProfileTable) {
        self.profile = Some(profile);
    }

    /// The attached measurement table, if any.
    pub fn profile(&self) -> Option<&ProfileTable> {
        self.profile.as_ref()
    }

    /// Latency of layer `idx` of `graph` on `proc`: the measured profile
    /// entry when one exists, otherwise the analytical estimate. `None`
    /// if the operator is unsupported on `proc` and unmeasured.
    pub fn layer_latency_for(
        &self,
        graph: &ModelGraph,
        idx: usize,
        proc: ProcessorId,
    ) -> Option<f64> {
        self.layer_cost_for(graph, idx, proc).0
    }

    /// Latency and DRAM traffic of layer `idx` of `graph` on `proc`, from
    /// one roofline evaluation: the latency is what
    /// [`CostModel::layer_latency_for`] returns (a measured profile entry
    /// overrides the estimate), the traffic is the analytical
    /// [`LayerCost::traffic_bytes`]. Each is `None` where the operator is
    /// unsupported on `proc` (and, for the latency, unmeasured).
    pub fn layer_cost_for(
        &self,
        graph: &ModelGraph,
        idx: usize,
        proc: ProcessorId,
    ) -> (Option<f64>, Option<f64>) {
        let layer = &graph.layers()[idx];
        let analytical = self.layer_cost(layer, proc);
        let measured = self
            .profile
            .as_ref()
            .and_then(|p| p.lookup(graph.name(), &layer.name, proc));
        (
            measured.or(analytical.map(|c| c.latency_ms)),
            analytical.map(|c| c.traffic_bytes),
        )
    }

    /// The SoC the model is bound to.
    pub fn soc(&self) -> &SocSpec {
        &self.soc
    }

    /// The precision this model evaluates at.
    pub fn precision(&self) -> Precision {
        self.precision
    }

    /// Multiplier applied to FP32-specified tensor/weight sizes (memory
    /// footprints, copies) at this model's precision.
    pub fn footprint_scale(&self) -> f64 {
        self.precision.element_scale()
    }

    fn proc(&self, id: ProcessorId) -> &ProcessorSpec {
        self.soc.processor(id)
    }

    /// Cost of `layer` on processor `proc`, or `None` if the operator is
    /// unsupported there (NPU fallback case).
    pub fn layer_cost(&self, layer: &Layer, proc: ProcessorId) -> Option<LayerCost> {
        let spec = self.proc(proc);
        let eff = efficiency(layer.op, spec.kind)?;
        let gain = self.precision.throughput_gain(spec.kind);
        let compute_ms = layer.flops / (spec.peak_gflops * eff * gain * 1e6);
        let elem = self.precision.element_scale();
        // Smaller elements also shrink the working set, easing L2 spill.
        let ws = (layer.working_set_bytes as f64 * elem) as u64;
        let traffic =
            layer.bytes_touched() as f64 * elem * spill_factor(ws, spec.l2_kib) / layer.locality;
        let mem_ms = traffic / (spec.mem_bandwidth_gbps * 1e6);
        let memory_bound = mem_ms > compute_ms;
        Some(LayerCost {
            latency_ms: compute_ms.max(mem_ms) + spec.kernel_overhead_ms,
            traffic_bytes: traffic,
            memory_bound,
        })
    }

    /// Solo execution latency of a contiguous slice on `proc`: the sum of
    /// its layers' latencies (the paper's `T_e`), `None` if any layer is
    /// unsupported on `proc`.
    pub fn slice_latency_ms(
        &self,
        graph: &ModelGraph,
        range: LayerRange,
        proc: ProcessorId,
    ) -> Option<f64> {
        let mut total = 0.0;
        for idx in range.first..=range.last {
            total += self.layer_latency_for(graph, idx, proc)?;
        }
        Some(total)
    }

    /// Whole-model solo latency on `proc`, `None` if any operator is
    /// unsupported (e.g. YOLOv4 or BERT on the NPU — the Fig. 1 errors).
    pub fn model_latency_ms(&self, graph: &ModelGraph, proc: ProcessorId) -> Option<f64> {
        self.slice_latency_ms(graph, LayerRange::new(0, graph.len() - 1), proc)
    }

    /// Aggregate DRAM traffic of a slice on `proc` in bytes.
    pub fn slice_traffic_bytes(
        &self,
        graph: &ModelGraph,
        range: LayerRange,
        proc: ProcessorId,
    ) -> Option<f64> {
        let mut total = 0.0;
        for layer in &graph.layers()[range.first..=range.last] {
            total += self.layer_cost(layer, proc)?.traffic_bytes;
        }
        Some(total)
    }

    /// Average bandwidth demand of a slice on `proc` in GB/s; used as the
    /// ground-truth contention signal and the governor input.
    pub fn slice_bandwidth_gbps(
        &self,
        graph: &ModelGraph,
        range: LayerRange,
        proc: ProcessorId,
    ) -> Option<f64> {
        let ms = self.slice_latency_ms(graph, range, proc)?;
        let bytes = self.slice_traffic_bytes(graph, range, proc)?;
        if ms <= 0.0 {
            return Some(0.0);
        }
        Some(bytes / (ms * 1e6))
    }

    /// Tensor copy time (`T_c`) for moving `bytes` of activation from one
    /// processor's address space to another's on the unified-memory SoC.
    /// Zero when `from == to`; otherwise a pair-dependent fixed latency
    /// plus a bandwidth term (the NPU's proprietary driver path is the
    /// most expensive).
    pub fn copy_ms(&self, bytes: u64, from: ProcessorId, to: ProcessorId) -> f64 {
        if from == to {
            return 0.0;
        }
        let fixed = |k: ProcessorKind| match k {
            ProcessorKind::CpuBig | ProcessorKind::CpuSmall => 0.05,
            ProcessorKind::Gpu => 0.25,
            ProcessorKind::Npu => 0.40,
        };
        let base = fixed(self.proc(from).kind) + fixed(self.proc(to).kind);
        // Effective copy bandwidth ~2 GB/s through map/unmap + memcpy;
        // reduced precision moves proportionally fewer bytes.
        base + bytes as f64 * self.precision.element_scale() / 2.0e6
    }

    /// Builds a prefix-sum [`CostTable`] for `graph` over the given
    /// ordered processor sequence, enabling O(1) slice-cost queries in the
    /// planner's DP. Each `(layer, processor)` pair is evaluated once
    /// ([`CostModel::layer_cost_for`]); the table keeps the per-layer
    /// latency and traffic of that evaluation next to the prefix sums.
    pub fn table(&self, graph: &ModelGraph, procs: &[ProcessorId]) -> CostTable {
        let n = graph.len();
        let mut prefix_ms = Vec::with_capacity(procs.len());
        let mut unsupported = Vec::with_capacity(procs.len());
        let mut layer_ms = Vec::with_capacity(procs.len());
        let mut traffic_bytes = Vec::with_capacity(procs.len());
        for &p in procs {
            let mut pm = Vec::with_capacity(n + 1);
            let mut un = Vec::with_capacity(n + 1);
            let mut lat = Vec::with_capacity(n);
            let mut traffic = Vec::with_capacity(n);
            pm.push(0.0);
            un.push(0u32);
            let (mut pm_acc, mut un_acc) = (0.0f64, 0u32);
            for idx in 0..n {
                let (ms, bytes) = self.layer_cost_for(graph, idx, p);
                let (ms, bad) = match ms {
                    Some(ms) => (ms, 0),
                    None => (0.0, 1),
                };
                pm_acc += ms;
                un_acc += bad;
                pm.push(pm_acc);
                un.push(un_acc);
                lat.push(ms);
                traffic.push(bytes);
            }
            prefix_ms.push(pm);
            unsupported.push(un);
            layer_ms.push(lat);
            traffic_bytes.push(traffic);
        }
        // Boundary copy bytes after each layer.
        let boundary_bytes: Vec<u64> = (0..n).map(|i| graph.boundary_bytes(i)).collect();
        CostTable {
            n,
            procs: procs.to_vec(),
            prefix_ms,
            unsupported,
            layer_ms,
            traffic_bytes,
            boundary_bytes,
        }
    }
}

/// Prefix-sum table of slice costs for one model over an ordered
/// processor sequence. `slot` indexes the processor sequence, not the
/// SoC's processor table.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct CostTable {
    n: usize,
    procs: Vec<ProcessorId>,
    /// `prefix_ms[slot][i]` = total latency of layers `0..i` on that slot.
    prefix_ms: Vec<Vec<f64>>,
    /// Running count of unsupported layers, same indexing.
    unsupported: Vec<Vec<u32>>,
    /// `layer_ms[slot][i]` = latency of layer `i` on that slot (0 where
    /// unsupported): the terms `prefix_ms` accumulates.
    layer_ms: Vec<Vec<f64>>,
    /// `traffic_bytes[slot][i]` = analytical DRAM traffic of layer `i` on
    /// that slot, `None` where the roofline has no estimate.
    traffic_bytes: Vec<Vec<Option<f64>>>,
    boundary_bytes: Vec<u64>,
}

impl CostTable {
    /// Number of layers of the underlying model.
    pub fn layer_count(&self) -> usize {
        self.n
    }

    /// The ordered processor sequence the table was built over.
    pub fn processors(&self) -> &[ProcessorId] {
        &self.procs
    }

    /// Solo latency `T_e(i, j)` of layers `[i, j]` on processor slot
    /// `slot`, in O(1). Returns `None` if the range contains an operator
    /// unsupported on that processor or the range is invalid.
    pub fn slice_ms(&self, slot: usize, i: usize, j: usize) -> Option<f64> {
        if i > j || j >= self.n || slot >= self.procs.len() {
            return None;
        }
        if self.unsupported[slot][j + 1] - self.unsupported[slot][i] > 0 {
            return None;
        }
        Some(self.prefix_ms[slot][j + 1] - self.prefix_ms[slot][i])
    }

    /// Average DRAM bandwidth demand of layers `range` on slot `slot` in
    /// GB/s, from the per-layer values kept at build time. The latency and
    /// the traffic are summed layer by layer from the range's first layer,
    /// as [`CostModel::slice_bandwidth_gbps`] sums them, so the result is
    /// bit-identical to that call on the slot's processor, with 0 where it
    /// returns `None` (an unsupported layer in the range).
    pub fn slice_bandwidth_gbps(&self, slot: usize, range: LayerRange) -> f64 {
        let (i, j) = (range.first, range.last);
        if self.unsupported[slot][j + 1] - self.unsupported[slot][i] > 0 {
            return 0.0;
        }
        let mut ms = 0.0;
        for &layer in &self.layer_ms[slot][i..=j] {
            ms += layer;
        }
        let mut bytes = 0.0;
        for &layer in &self.traffic_bytes[slot][i..=j] {
            let Some(layer) = layer else { return 0.0 };
            bytes += layer;
        }
        if ms <= 0.0 {
            return 0.0;
        }
        bytes / (ms * 1e6)
    }

    /// Activation bytes crossing the boundary after layer `i`.
    pub fn boundary_bytes(&self, i: usize) -> u64 {
        self.boundary_bytes[i]
    }

    /// The raw latency prefix sums of `slot` (`prefix_row(s)[i]` = total
    /// latency of layers `0..i`). Exposed so tight planning loops can
    /// evaluate slice costs without per-query bounds checks; the slice
    /// `[i, j]` costs `prefix_row(s)[j + 1] - prefix_row(s)[i]`, exactly
    /// as [`CostTable::slice_ms`] computes it.
    pub fn prefix_row(&self, slot: usize) -> &[f64] {
        &self.prefix_ms[slot]
    }

    /// The running unsupported-layer counts of `slot`, aligned with
    /// [`CostTable::prefix_row`]: slice `[i, j]` is feasible iff
    /// `unsupported_row(s)[j + 1] - unsupported_row(s)[i] == 0`.
    pub fn unsupported_row(&self, slot: usize) -> &[u32] {
        &self.unsupported[slot]
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::zoo::ModelId;

    fn kirin() -> (SocSpec, CostModel) {
        let soc = SocSpec::kirin_990();
        let cm = CostModel::new(&soc);
        (soc, cm)
    }

    #[test]
    fn processor_power_ordering_holds_for_supported_models() {
        // Fig. 1 shape: NPU fastest, CPU_B on par with GPU, CPU_S slowest.
        let (soc, cm) = kirin();
        let npu = soc.processor_by_name("NPU").unwrap();
        let big = soc.processor_by_name("CPU_B").unwrap();
        let small = soc.processor_by_name("CPU_S").unwrap();
        for id in [ModelId::ResNet50, ModelId::Vgg16, ModelId::InceptionV4] {
            let g = id.graph();
            let t_npu = cm.model_latency_ms(&g, npu).unwrap();
            let t_big = cm.model_latency_ms(&g, big).unwrap();
            let t_small = cm.model_latency_ms(&g, small).unwrap();
            assert!(t_npu < t_big / 3.0, "{id}: NPU must dominate");
            assert!(t_small > 2.0 * t_big, "{id}: small cores degrade heavily");
        }
    }

    #[test]
    fn npu_errors_for_yolov4_and_bert() {
        let (soc, cm) = kirin();
        let npu = soc.processor_by_name("NPU").unwrap();
        assert!(cm.model_latency_ms(&ModelId::YoloV4.graph(), npu).is_none());
        assert!(cm.model_latency_ms(&ModelId::Bert.graph(), npu).is_none());
        assert!(cm.model_latency_ms(&ModelId::Vit.graph(), npu).is_some());
    }

    #[test]
    fn fc_layers_are_memory_bound_on_cpu() {
        // Observation 2: large-MatMul layers are memory-bound.
        let (soc, cm) = kirin();
        let big = soc.processor_by_name("CPU_B").unwrap();
        let g = ModelId::Vgg16.graph();
        let fc6 = g.layers().iter().find(|l| l.name == "fc6").unwrap();
        let cost = cm.layer_cost(fc6, big).unwrap();
        assert!(cost.memory_bound, "VGG fc6 must be memory-bound on CPU");
        let conv = g.layers().iter().find(|l| l.name == "conv3_2").unwrap();
        let conv_cost = cm.layer_cost(conv, big).unwrap();
        assert!(!conv_cost.memory_bound, "mid conv is compute-bound");
    }

    #[test]
    fn squeezenet_demands_disproportionate_bandwidth() {
        // Observation 3: SqueezeNet's bandwidth demand rivals much larger
        // models despite tiny FLOPs.
        let (soc, cm) = kirin();
        let big = soc.processor_by_name("CPU_B").unwrap();
        let sq = ModelId::SqueezeNet.graph();
        let rn = ModelId::ResNet50.graph();
        let whole = |g: &ModelGraph| LayerRange::new(0, g.len() - 1);
        let bw_sq = cm.slice_bandwidth_gbps(&sq, whole(&sq), big).unwrap();
        let bw_rn = cm.slice_bandwidth_gbps(&rn, whole(&rn), big).unwrap();
        assert!(
            bw_sq > bw_rn,
            "SqueezeNet bandwidth {bw_sq} must exceed ResNet50 {bw_rn}"
        );
    }

    #[test]
    fn copy_cost_is_zero_on_same_processor_and_grows_with_bytes() {
        let (soc, cm) = kirin();
        let big = soc.processor_by_name("CPU_B").unwrap();
        let gpu = soc.processor_by_name("GPU").unwrap();
        let npu = soc.processor_by_name("NPU").unwrap();
        assert_eq!(cm.copy_ms(1 << 20, big, big), 0.0);
        let small = cm.copy_ms(1 << 10, big, gpu);
        let large = cm.copy_ms(8 << 20, big, gpu);
        assert!(large > small);
        assert!(cm.copy_ms(1 << 20, big, npu) > cm.copy_ms(1 << 20, big, gpu));
    }

    #[test]
    fn cost_table_matches_direct_slice_computation() {
        let (soc, cm) = kirin();
        let g = ModelId::GoogLeNet.graph();
        let procs: Vec<ProcessorId> = soc.processors_by_power();
        let table = cm.table(&g, &procs);
        for (slot, &proc) in procs.iter().enumerate() {
            for i in 0..g.len() {
                for j in i..g.len() {
                    let direct = cm.slice_latency_ms(&g, LayerRange::new(i, j), proc);
                    let tabled = table.slice_ms(slot, i, j);
                    match (direct, tabled) {
                        (Some(a), Some(b)) => assert!((a - b).abs() < 1e-9),
                        (None, None) => {}
                        _ => panic!("support mismatch at slot={slot} i={i} j={j}"),
                    }
                }
            }
        }
    }

    #[test]
    fn cost_table_bandwidth_matches_the_cost_model_bit_for_bit() {
        // The table's cached per-layer latency and traffic must reproduce
        // `slice_bandwidth_gbps` exactly, including where that returns
        // `None`: an unsupported layer, or a measured latency for a layer
        // the roofline cannot estimate (traffic unknown).
        let (soc, mut cm) = kirin();
        let procs = soc.processors_by_power();
        let npu = soc.processor_by_name("NPU").unwrap();
        let bert = ModelId::Bert.graph();
        let mut profile = crate::profile::ProfileTable::new();
        profile.record(bert.name(), &bert.layers()[0].name, npu, 0.8);
        profile.record(bert.name(), &bert.layers()[2].name, npu, 0.3);
        for profiled in [false, true] {
            if profiled {
                cm.set_profile(profile.clone());
            }
            for id in [ModelId::Bert, ModelId::YoloV4, ModelId::SqueezeNet] {
                let g = id.graph();
                let table = cm.table(&g, &procs);
                for (slot, &proc) in procs.iter().enumerate() {
                    for i in 0..g.len() {
                        for j in i..g.len().min(i + 9) {
                            let range = LayerRange::new(i, j);
                            let direct = cm.slice_bandwidth_gbps(&g, range, proc).unwrap_or(0.0);
                            assert_eq!(
                                table.slice_bandwidth_gbps(slot, range).to_bits(),
                                direct.to_bits(),
                                "{id} slot {slot} [{i},{j}] profiled={profiled}"
                            );
                        }
                    }
                }
            }
        }
    }

    #[test]
    fn cost_table_rejects_unsupported_npu_ranges() {
        let (soc, cm) = kirin();
        let g = ModelId::YoloV4.graph();
        let npu = soc.processor_by_name("NPU").unwrap();
        let table = cm.table(&g, &[npu]);
        // Layer 1 is the first Mish.
        assert!(table.slice_ms(0, 0, 0).is_some());
        assert!(table.slice_ms(0, 0, 1).is_none());
    }

    #[test]
    fn invalid_ranges_return_none() {
        let (soc, cm) = kirin();
        let g = ModelId::AlexNet.graph();
        let table = cm.table(&g, &soc.processors_by_power());
        assert!(table.slice_ms(0, 3, 2).is_none());
        assert!(table.slice_ms(0, 0, 999).is_none());
        assert!(table.slice_ms(99, 0, 1).is_none());
    }

    #[test]
    fn reduced_precision_speeds_up_and_shrinks_copies() {
        let soc = SocSpec::kirin_990();
        let fp32 = CostModel::new(&soc);
        let fp16 = CostModel::with_precision(&soc, Precision::Fp16);
        let int8 = CostModel::with_precision(&soc, Precision::Int8);
        let npu = soc.processor_by_name("NPU").unwrap();
        let big = soc.processor_by_name("CPU_B").unwrap();
        let g = ModelId::ResNet50.graph();
        let t32 = fp32.model_latency_ms(&g, npu).unwrap();
        let t16 = fp16.model_latency_ms(&g, npu).unwrap();
        let t8 = int8.model_latency_ms(&g, npu).unwrap();
        assert!(t16 < t32, "FP16 must be faster: {t16} vs {t32}");
        assert!(t8 < t16, "INT8 must be fastest on the NPU: {t8} vs {t16}");
        // Copies move fewer bytes.
        let c32 = fp32.copy_ms(8 << 20, big, npu);
        let c16 = fp16.copy_ms(8 << 20, big, npu);
        assert!(c16 < c32);
        assert_eq!(fp16.footprint_scale(), 0.5);
        assert_eq!(int8.precision(), Precision::Int8);
    }

    #[test]
    fn precision_gains_never_exceed_hardware_ratios() {
        // Sanity: per-kind throughput gains are within [1, 4].
        for p in [Precision::Fp32, Precision::Fp16, Precision::Int8] {
            for k in ProcessorKind::ALL {
                let g = p.throughput_gain(k);
                assert!((1.0..=4.0).contains(&g), "{p:?} on {k:?}: {g}");
            }
        }
    }

    #[test]
    fn measured_profiles_override_analytical_estimates() {
        let soc = SocSpec::kirin_990();
        let mut cm = CostModel::new(&soc);
        let big = soc.processor_by_name("CPU_B").unwrap();
        let g = ModelId::SqueezeNet.graph();
        let analytical = cm.model_latency_ms(&g, big).unwrap();
        // "Measure" the first conv as 10x the analytical value.
        let first = cm.layer_latency_for(&g, 0, big).unwrap();
        let mut profile = crate::profile::ProfileTable::new();
        profile.record(g.name(), &g.layers()[0].name, big, first * 10.0);
        cm.set_profile(profile);
        let overridden = cm.model_latency_ms(&g, big).unwrap();
        assert!(
            (overridden - (analytical + 9.0 * first)).abs() < 1e-9,
            "only the measured layer changes: {overridden} vs {analytical}"
        );
        // The prefix-sum table sees the measurement too.
        let table = cm.table(&g, &[big]);
        assert!((table.slice_ms(0, 0, 0).unwrap() - first * 10.0).abs() < 1e-9);
        // Other models and processors are untouched.
        let gpu = soc.processor_by_name("GPU").unwrap();
        assert_eq!(
            cm.layer_latency_for(&g, 0, gpu),
            CostModel::new(&soc).layer_latency_for(&g, 0, gpu)
        );
    }

    #[test]
    fn profile_can_make_npu_unsupported_layers_runnable() {
        // A vendor kernel measurement can declare an otherwise
        // unsupported operator runnable on the NPU.
        let soc = SocSpec::kirin_990();
        let mut cm = CostModel::new(&soc);
        let npu = soc.processor_by_name("NPU").unwrap();
        let g = ModelId::Bert.graph();
        assert!(cm.layer_latency_for(&g, 0, npu).is_none(), "embedding");
        let mut profile = crate::profile::ProfileTable::new();
        profile.record(g.name(), &g.layers()[0].name, npu, 0.8);
        cm.set_profile(profile);
        assert_eq!(cm.layer_latency_for(&g, 0, npu), Some(0.8));
    }

    #[test]
    fn spill_factor_saturates() {
        assert_eq!(spill_factor(1024, 512), 1.0);
        let big = spill_factor(1 << 30, 256);
        assert!(big <= 4.0 && big > 3.0);
    }

    #[test]
    fn gpu_kernel_overhead_penalizes_many_layer_models() {
        // SqueezeNet (many tiny layers) suffers relatively more on the GPU
        // than a few-large-layer model — the Fig. 1 "GPU on par with CPU_B
        // overall, worse for small models" shape.
        let (soc, cm) = kirin();
        let big = soc.processor_by_name("CPU_B").unwrap();
        let gpu = soc.processor_by_name("GPU").unwrap();
        let sq = ModelId::SqueezeNet.graph();
        let ratio_sq =
            cm.model_latency_ms(&sq, gpu).unwrap() / cm.model_latency_ms(&sq, big).unwrap();
        let vg = ModelId::Vgg16.graph();
        let ratio_vg =
            cm.model_latency_ms(&vg, gpu).unwrap() / cm.model_latency_ms(&vg, big).unwrap();
        assert!(ratio_sq > ratio_vg, "small models pay the OpenCL overhead");
    }
}
