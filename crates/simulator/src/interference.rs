//! Co-execution slowdown model for the shared memory bus.
//!
//! Section III of the paper measures that interference between CPU and GPU
//! is much higher than between CPU–NPU or GPU–NPU (e.g. co-executing
//! YOLOv4 and BERT slows CPU–GPU by 18–21% but CPU–NPU by only 3–4.5%),
//! and that equal-priority co-runners suffer *symmetric* slowdown because
//! commercial memory controllers schedule fairly (Observation 1).
//!
//! We model the instantaneous slowdown of a task `t` running on processor
//! `p` while a set `R` of tasks runs on other processors as
//!
//! ```text
//! slowdown(t) = Σ_{r ∈ R on q} γ(p, q) · intensity(r) · sensitivity(t)
//! effective_rate(t) = 1 / (1 + slowdown(t))
//! ```
//!
//! where `γ` is a symmetric coupling matrix indexed by processor kind and
//! cluster sharing. The engine re-evaluates these rates at every task
//! start/finish event, so slowdown varies over time with the co-runner
//! set, exactly the behaviour the planner's contention-mitigation step is
//! designed to exploit.

use serde::{Deserialize, Serialize};

use crate::processor::{ProcessorKind, ProcessorSpec};

/// Symmetric coupling coefficients between processor kinds, plus an
/// intra-cluster coefficient for CPU sub-clusters that share an L2.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct CouplingMatrix {
    /// `gamma[a][b]` indexed by [`kind_index`]; must be symmetric.
    gamma: [[f64; 4]; 4],
    /// Extra coupling applied when two processors share a `cluster` tag
    /// (Fig. 10: up to 70% slowdown from conflicting L2 misses).
    intra_cluster: f64,
}

/// Maps a [`ProcessorKind`] to its row/column in the coupling matrix.
fn kind_index(kind: ProcessorKind) -> usize {
    match kind {
        ProcessorKind::CpuBig => 0,
        ProcessorKind::CpuSmall => 1,
        ProcessorKind::Gpu => 2,
        ProcessorKind::Npu => 3,
    }
}

impl CouplingMatrix {
    /// Coupling matrix calibrated to the paper's Section III measurements:
    /// CPU–GPU interference is strong, any pair involving the NPU is weak
    /// (dedicated memory path), and CPU–CPU cross-cluster interference is
    /// moderate.
    pub fn mobile_default() -> Self {
        let b = kind_index(ProcessorKind::CpuBig);
        let s = kind_index(ProcessorKind::CpuSmall);
        let g = kind_index(ProcessorKind::Gpu);
        let n = kind_index(ProcessorKind::Npu);
        let mut gamma = [[0.0; 4]; 4];
        // CPU-GPU: ~18-21% slowdown at intensity ~1 => gamma ~ 0.20.
        gamma[b][g] = 0.20;
        gamma[s][g] = 0.16;
        // CPU big-small cross-cluster: separate L2s, only DRAM-controller
        // sharing — far milder than the intra-cluster case of Fig. 10.
        gamma[b][s] = 0.06;
        // Same-kind pairs (two sub-partitions of the same class but
        // different cluster tags) behave like cross-cluster CPU pairs.
        gamma[b][b] = 0.12;
        gamma[s][s] = 0.12;
        gamma[g][g] = 0.20;
        // NPU pairs: 2-4.5% at intensity ~1.
        gamma[b][n] = 0.035;
        gamma[g][n] = 0.022;
        gamma[s][n] = 0.030;
        gamma[n][n] = 0.02;
        // Symmetrize.
        #[expect(
            clippy::needless_range_loop,
            reason = "indexed loops: each entry mirrors its transpose"
        )]
        for i in 0..4 {
            for j in 0..i {
                gamma[i][j] = gamma[j][i];
            }
        }
        CouplingMatrix {
            // Conflicting L2 misses inside one cluster can nearly treble
            // effective latency (Fig. 10's ~70% slowdown at moderate
            // intensities).
            gamma,
            intra_cluster: 4.5,
        }
    }

    /// A zero matrix: co-execution never slows anything down. Useful for
    /// isolating planner behaviour from interference in tests.
    pub fn none() -> Self {
        CouplingMatrix {
            gamma: [[0.0; 4]; 4],
            intra_cluster: 0.0,
        }
    }

    /// Builds a matrix from an explicit symmetric table. The table is
    /// indexed `[CpuBig, CpuSmall, Gpu, Npu]` on both axes.
    ///
    /// # Panics
    ///
    /// Panics if the table is not symmetric or contains negative or
    /// non-finite entries.
    pub fn from_table(gamma: [[f64; 4]; 4], intra_cluster: f64) -> Self {
        #[expect(
            clippy::needless_range_loop,
            reason = "indexed loops: the symmetry check pairs each entry with its \
                      transpose"
        )]
        for i in 0..4 {
            for j in 0..4 {
                assert!(
                    gamma[i][j].is_finite() && gamma[i][j] >= 0.0,
                    "coupling coefficients must be finite and non-negative"
                );
                assert!(
                    (gamma[i][j] - gamma[j][i]).abs() < 1e-12,
                    "coupling matrix must be symmetric (Observation 1)"
                );
            }
        }
        assert!(intra_cluster.is_finite() && intra_cluster >= 0.0);
        CouplingMatrix {
            gamma,
            intra_cluster,
        }
    }

    /// The coupling coefficient between two processors. Processors sharing
    /// a cluster tag couple with the (much larger) intra-cluster
    /// coefficient; otherwise the kind-pair coefficient applies.
    pub fn coupling(&self, a: &ProcessorSpec, b: &ProcessorSpec) -> f64 {
        if let (Some(ca), Some(cb)) = (a.cluster, b.cluster) {
            if ca == cb {
                return self.intra_cluster;
            }
        }
        self.gamma[kind_index(a.kind)][kind_index(b.kind)]
    }

    /// The raw kind-pair coefficient, ignoring cluster sharing.
    pub fn kind_coupling(&self, a: ProcessorKind, b: ProcessorKind) -> f64 {
        self.gamma[kind_index(a)][kind_index(b)]
    }

    /// The intra-cluster coefficient applied to processors sharing an L2.
    pub fn intra_cluster(&self) -> f64 {
        self.intra_cluster
    }
}

impl Default for CouplingMatrix {
    fn default() -> Self {
        CouplingMatrix::mobile_default()
    }
}

/// Computes the total slowdown term for a task with the given contention
/// `sensitivity`, running on `proc`, while `corunners` (pairs of processor
/// spec and emitted contention intensity) execute concurrently elsewhere.
///
/// The returned value is the `Σ γ·intensity·sensitivity` term; the
/// effective progress rate is `1 / (1 + slowdown)`.
pub fn slowdown_for<'a, I>(
    matrix: &CouplingMatrix,
    proc: &ProcessorSpec,
    sensitivity: f64,
    corunners: I,
) -> f64
where
    I: IntoIterator<Item = (&'a ProcessorSpec, f64)>,
{
    let mut total = 0.0;
    for (other, intensity) in corunners {
        total += matrix.coupling(proc, other) * intensity * sensitivity;
    }
    total
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::processor::ProcessorSpec;

    fn spec(kind: ProcessorKind) -> ProcessorSpec {
        ProcessorSpec::new(kind.label(), kind, 100.0)
    }

    #[test]
    fn default_matrix_is_symmetric() {
        let m = CouplingMatrix::mobile_default();
        for &a in &ProcessorKind::ALL {
            for &b in &ProcessorKind::ALL {
                assert_eq!(m.kind_coupling(a, b), m.kind_coupling(b, a));
            }
        }
    }

    #[test]
    fn npu_pairs_are_weakly_coupled() {
        let m = CouplingMatrix::mobile_default();
        let cpu_gpu = m.kind_coupling(ProcessorKind::CpuBig, ProcessorKind::Gpu);
        let cpu_npu = m.kind_coupling(ProcessorKind::CpuBig, ProcessorKind::Npu);
        let gpu_npu = m.kind_coupling(ProcessorKind::Gpu, ProcessorKind::Npu);
        assert!(cpu_npu < cpu_gpu / 3.0, "CPU-NPU must be far below CPU-GPU");
        assert!(gpu_npu < cpu_gpu / 3.0, "GPU-NPU must be far below CPU-GPU");
    }

    #[test]
    fn intra_cluster_dominates() {
        let m = CouplingMatrix::mobile_default();
        let mut a = spec(ProcessorKind::CpuBig);
        let mut b = spec(ProcessorKind::CpuBig);
        a.cluster = Some(0);
        b.cluster = Some(0);
        let same = m.coupling(&a, &b);
        b.cluster = Some(1);
        let cross = m.coupling(&a, &b);
        assert!(same > 3.0 * cross, "same-cluster coupling must dominate");
    }

    #[test]
    fn slowdown_accumulates_over_corunners() {
        let m = CouplingMatrix::mobile_default();
        let cpu = spec(ProcessorKind::CpuBig);
        let gpu = spec(ProcessorKind::Gpu);
        let npu = spec(ProcessorKind::Npu);
        let single = slowdown_for(&m, &cpu, 1.0, vec![(&gpu, 1.0)]);
        let double = slowdown_for(&m, &cpu, 1.0, vec![(&gpu, 1.0), (&npu, 1.0)]);
        assert!(double > single);
        assert!((single - 0.20).abs() < 1e-12);
    }

    #[test]
    fn zero_matrix_produces_zero_slowdown() {
        let m = CouplingMatrix::none();
        let cpu = spec(ProcessorKind::CpuBig);
        let gpu = spec(ProcessorKind::Gpu);
        assert_eq!(slowdown_for(&m, &cpu, 1.0, vec![(&gpu, 5.0)]), 0.0);
    }

    #[test]
    #[should_panic(expected = "symmetric")]
    fn from_table_rejects_asymmetry() {
        let mut t = [[0.0; 4]; 4];
        t[0][1] = 0.5;
        CouplingMatrix::from_table(t, 0.0);
    }
}
