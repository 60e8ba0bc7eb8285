//! Processor models: heterogeneous compute units on a mobile SoC.
//!
//! The paper's system model (Sec. IV) considers four processor classes
//! ordered by processing power: `NPU ≫ CPU Big ≥ GPU ≫ CPU Small`. The
//! GPU and NPU are indivisible units; the CPU clusters may optionally be
//! split into sub-cluster partitions to reproduce the intra-cluster
//! contention study of Fig. 10.

use serde::{Deserialize, Serialize};

/// Identifier of a processor within one [`crate::soc::SocSpec`].
///
/// Values are indices into the SoC's processor table; they are only
/// meaningful relative to the SoC they were obtained from.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Serialize, Deserialize)]
pub struct ProcessorId(pub usize);

impl ProcessorId {
    /// Returns the raw index of the processor within the SoC table.
    pub fn index(self) -> usize {
        self.0
    }
}

impl std::fmt::Display for ProcessorId {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "P{}", self.0)
    }
}

/// The architectural class of a processor.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Serialize, Deserialize)]
pub enum ProcessorKind {
    /// Performance ("Big") CPU cluster, e.g. Cortex-A76/A77/A78.
    CpuBig,
    /// Efficiency ("Small/LITTLE") CPU cluster, e.g. Cortex-A55.
    CpuSmall,
    /// Embedded GPU driven through OpenCL, e.g. Mali-G76 or Adreno 650.
    Gpu,
    /// Neural processing unit with restricted operator support,
    /// e.g. the Kirin 990 DaVinci NPU.
    Npu,
}

impl ProcessorKind {
    /// All processor kinds, in descending order of typical processing
    /// power per the paper's system model.
    pub const ALL: [ProcessorKind; 4] = [
        ProcessorKind::Npu,
        ProcessorKind::CpuBig,
        ProcessorKind::Gpu,
        ProcessorKind::CpuSmall,
    ];

    /// Short display label used in traces and experiment output.
    pub fn label(self) -> &'static str {
        match self {
            ProcessorKind::CpuBig => "CPU_B",
            ProcessorKind::CpuSmall => "CPU_S",
            ProcessorKind::Gpu => "GPU",
            ProcessorKind::Npu => "NPU",
        }
    }
}

impl std::fmt::Display for ProcessorKind {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.label())
    }
}

/// Static description of one processor on the SoC.
///
/// Fields are public in the C-struct spirit: the spec is passive
/// configuration data consumed by the engine and the cost model.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct ProcessorSpec {
    /// Human-readable name, unique within the SoC (e.g. `"CPU_B"`).
    pub name: String,
    /// Architectural class.
    pub kind: ProcessorKind,
    /// Number of cores aggregated into this unit.
    pub cores: u32,
    /// Nominal clock in GHz.
    pub clock_ghz: f64,
    /// Peak sustained throughput in GFLOP/s for well-suited kernels.
    pub peak_gflops: f64,
    /// Sustained memory bandwidth share in GB/s under solo execution.
    pub mem_bandwidth_gbps: f64,
    /// Last-level private cache (L2) size in KiB; determines whether a
    /// layer's working set spills to DRAM.
    pub l2_kib: u32,
    /// Fixed per-kernel dispatch overhead in milliseconds (large for the
    /// OpenCL GPU, small for CPUs, moderate for the NPU driver stack).
    pub kernel_overhead_ms: f64,
    /// Cluster tag: processors sharing a tag share an L2/cluster fabric and
    /// suffer the severe intra-cluster contention of Fig. 10. `None` for
    /// units with a dedicated path (GPU, NPU).
    pub cluster: Option<u8>,
}

impl ProcessorSpec {
    /// Creates a spec with the given identity and throughput and neutral
    /// defaults for the remaining fields.
    pub fn new(name: impl Into<String>, kind: ProcessorKind, peak_gflops: f64) -> Self {
        ProcessorSpec {
            name: name.into(),
            kind,
            cores: 1,
            clock_ghz: 2.0,
            peak_gflops,
            mem_bandwidth_gbps: 10.0,
            l2_kib: 512,
            kernel_overhead_ms: 0.01,
            cluster: None,
        }
    }

    /// Relative processing-power rank (lower is faster), following the
    /// paper's ordering `NPU ≫ CPU Big ≥ GPU ≫ CPU Small`. Used to arrange
    /// pipeline stages from fast to slow.
    pub fn power_rank(&self) -> usize {
        match self.kind {
            ProcessorKind::Npu => 0,
            ProcessorKind::CpuBig => 1,
            ProcessorKind::Gpu => 2,
            ProcessorKind::CpuSmall => 3,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn kind_ordering_matches_paper_power_ordering() {
        let ranks: Vec<usize> = ProcessorKind::ALL
            .iter()
            .map(|&k| ProcessorSpec::new("x", k, 1.0).power_rank())
            .collect();
        assert_eq!(ranks, vec![0, 1, 2, 3]);
    }

    #[test]
    fn labels_are_stable() {
        assert_eq!(ProcessorKind::CpuBig.label(), "CPU_B");
        assert_eq!(ProcessorKind::Npu.to_string(), "NPU");
    }

    #[test]
    fn processor_id_display() {
        assert_eq!(ProcessorId(2).to_string(), "P2");
        assert_eq!(ProcessorId(2).index(), 2);
    }
}
