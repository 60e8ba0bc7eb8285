//! Pipeline plans and bubble accounting (Definitions 1–3).
//!
//! A [`PipelinePlan`] arranges an ordered sequence of inference requests
//! over the SoC's processor slots (ordered by descending power, Sec. IV).
//! Each request carries one [`StagePlan`] per slot it uses; requests with
//! NPU-unsupported operators may skip the NPU slot entirely (operator
//! fallback), leaving that slot idle for their column.
//!
//! In the staggered pipeline, the stage of the request at position `r` on
//! slot `k` executes in **column** `j = r + k`; all cells of a column run
//! concurrently on different processors. The paper's bubble size (Eq. 3)
//! is, per column,
//!
//! ```text
//! |B_j| = Σ_{cells ∈ column j} ( max_cell_time − cell_time )
//! ```
//!
//! and Property 1 observes that total latency is linear in total bubbles,
//! which is why the planner minimizes bubbles.

use std::sync::Arc;

use serde::{Deserialize, Serialize};

use h2p_contention::ContentionClass;
use h2p_models::graph::LayerRange;
use h2p_simulator::interference::slowdown_for;
use h2p_simulator::processor::ProcessorId;
use h2p_simulator::soc::SocSpec;

/// Contention sensitivity of a stage given its own emitted intensity:
/// memory-bound slices both emit and absorb more interference.
pub fn sensitivity(intensity: f64) -> f64 {
    0.5 + 0.5 * intensity.clamp(0.0, 2.0)
}

/// Stable small hash of a model name for staging-dedup keys.
pub(crate) fn model_key(name: &str) -> u64 {
    use std::hash::{Hash, Hasher};
    let mut h = std::collections::hash_map::DefaultHasher::new();
    name.hash(&mut h);
    h.finish()
}

/// One contiguous sub-run of a stage during NPU operator fallback: a run
/// of layers executing on a single processor, including the copy cost of
/// entering the run.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct StageRun {
    /// Layers of this run.
    pub range: LayerRange,
    /// Processor the run executes on (the stage's NPU, or the fallback
    /// CPU for unsupported operators).
    pub proc: ProcessorId,
    /// Execution time of the run plus its entry copy, in ms.
    pub ms: f64,
}

/// One model slice mapped onto one processor slot.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct StagePlan {
    /// The layer slice this stage executes.
    pub range: LayerRange,
    /// Processor the slice runs on.
    pub proc: ProcessorId,
    /// Estimated solo execution time of the slice (the paper's `T_e`),
    /// including any operator-fallback detours and their copies.
    pub exec_ms: f64,
    /// Estimated tensor-copy time for the slice's input (`T_c`).
    pub copy_in_ms: f64,
    /// Contention intensity the slice emits while running.
    pub intensity: f64,
    /// Average DRAM bandwidth demand in GB/s.
    pub bandwidth_gbps: f64,
    /// Resident footprint (weights + boundary activations) in bytes.
    pub footprint_bytes: u64,
    /// Operator-fallback lowering: non-empty when the slice contains
    /// NPU-unsupported runs that execute on the fallback CPU (Sec. IV:
    /// "forwarding the sub-model to the CPU Big cores"). Empty for a
    /// homogeneous stage.
    pub runs: Vec<StageRun>,
}

impl StagePlan {
    /// Total planned stage time: execution plus input copy.
    pub fn total_ms(&self) -> f64 {
        self.exec_ms + self.copy_in_ms
    }
}

/// The full plan for one inference request.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct RequestPlan {
    /// Index of the request in the original submission order.
    pub request: usize,
    /// Model name, for reports and task labels; shared with the model
    /// graph ([`h2p_models::graph::ModelGraph::shared_name`]).
    pub model: Arc<str>,
    /// One entry per processor slot; `None` where the request skips the
    /// slot (e.g. NPU fallback).
    pub stages: Vec<Option<StagePlan>>,
    /// Estimated model-level contention intensity (regression output).
    pub intensity: f64,
    /// ℍ/𝕃 classification used by contention mitigation.
    pub class: ContentionClass,
}

impl RequestPlan {
    /// Planned time of the stage at `slot` (0 when the slot is skipped).
    pub fn stage_ms(&self, slot: usize) -> f64 {
        self.stages
            .get(slot)
            .and_then(|s| s.as_ref())
            .map_or(0.0, StagePlan::total_ms)
    }

    /// Sum of all planned stage times (the request's pipeline traversal
    /// work, excluding waiting).
    pub fn total_ms(&self) -> f64 {
        self.stages.iter().flatten().map(StagePlan::total_ms).sum()
    }

    /// Number of slots the request actually occupies.
    pub fn active_stage_count(&self) -> usize {
        self.stages.iter().flatten().count()
    }
}

/// A complete pipeline plan: processor slots plus the ordered requests.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct PipelinePlan {
    /// Processors by slot, ordered by descending power.
    pub procs: Vec<ProcessorId>,
    /// Requests in final (possibly re-ordered) execution order.
    pub requests: Vec<RequestPlan>,
}

impl PipelinePlan {
    /// The pipeline depth `K` (number of processor slots).
    pub fn depth(&self) -> usize {
        self.procs.len()
    }

    /// Number of columns in the staggered execution:
    /// `|M| + K − 1` (Def. 3), 0 for an empty plan.
    pub fn column_count(&self) -> usize {
        if self.requests.is_empty() {
            0
        } else {
            self.requests.len() + self.depth() - 1
        }
    }

    /// The cells of column `j`: `(position, slot, stage_ms)` of every
    /// stage executing concurrently in that column, in ascending slot
    /// order. Allocation-free: the cells are read off the plan as the
    /// iterator advances.
    pub fn column_cells(&self, j: usize) -> impl Iterator<Item = (usize, usize, f64)> + '_ {
        self.column_stages(j)
            .map(|(pos, slot, stage)| (pos, slot, stage.total_ms()))
    }

    /// The stages of column `j` as `(position, slot, stage)`, in ascending
    /// slot order.
    fn column_stages(&self, j: usize) -> impl Iterator<Item = (usize, usize, &StagePlan)> + '_ {
        column_stages(
            |pos| self.requests[pos].stages.as_slice(),
            self.requests.len(),
            self.depth(),
            j,
        )
    }

    /// The longest cell of column `j` (0 for an empty column): the time
    /// the column lasts in the synchronous pipeline.
    fn column_max_ms(&self, j: usize) -> f64 {
        self.column_stages(j)
            .map(|(_, _, stage)| stage.total_ms())
            .fold(0.0, f64::max)
    }

    /// The bubble size `|B_j|` of column `j` (Eq. 3).
    pub fn bubble_ms(&self, j: usize) -> f64 {
        let max = self.column_max_ms(j);
        self.column_cells(j).map(|c| max - c.2).sum()
    }

    /// Total bubbles over all columns — the vertical objective (Eq. 5).
    pub fn total_bubble_ms(&self) -> f64 {
        (0..self.column_count()).map(|j| self.bubble_ms(j)).sum()
    }

    /// Synchronous-pipeline makespan estimate: columns execute one after
    /// another, each lasting its slowest cell. The simulator refines this
    /// with interference; Property 1's linearity makes the estimate a
    /// faithful planning objective.
    pub fn estimated_makespan_ms(&self) -> f64 {
        (0..self.column_count())
            .map(|j| self.column_max_ms(j))
            .sum()
    }

    /// Contention-aware makespan estimate (Eq. 2's `T_co` term folded
    /// into planning): a deterministic list schedule — every stage starts
    /// at `max(processor available, previous stage done)`, the same FIFO
    /// discipline the executor lowers to — with each stage's duration
    /// stretched by the co-execution slowdown from its column co-mates
    /// under the SoC's coupling matrix, plus first-touch weight-staging
    /// charged exactly as the executor charges it. This is the planning
    /// objective that makes the planner *contention-aware*, the paper's
    /// central claim.
    pub fn estimated_makespan_contention_ms(&self, soc: &SocSpec) -> f64 {
        contention_makespan_ms(
            soc,
            self.depth(),
            self.requests.len(),
            |pos| self.requests[pos].stages.as_slice(),
            |pos| model_key(&self.requests[pos].model),
            &mut EstimateScratch::default(),
        )
    }

    /// Peak concurrent memory footprint across columns (Constraint 6):
    /// the largest sum of stage footprints executing simultaneously.
    pub fn peak_footprint_bytes(&self) -> u64 {
        (0..self.column_count())
            .map(|j| {
                self.column_stages(j)
                    .map(|(_, _, stage)| stage.footprint_bytes)
                    .sum()
            })
            .max()
            .unwrap_or(0)
    }

    /// Positions (in execution order) of the high-contention requests.
    pub fn high_positions(&self) -> Vec<usize> {
        self.requests
            .iter()
            .enumerate()
            .filter(|(_, r)| r.class.is_high())
            .map(|(i, _)| i)
            .collect()
    }
}

/// The cells of column `j` of `m` staggered rows over `depth` slots, as
/// `(position, slot)` in ascending slot order: slot `s` holds position
/// `j - s`, which exists for `j + 1 - m <= s <= j`.
pub(crate) fn column_slots(
    m: usize,
    depth: usize,
    j: usize,
) -> impl Iterator<Item = (usize, usize)> {
    ((j + 1).saturating_sub(m)..depth.min(j + 1)).map(move |slot| (j - slot, slot))
}

/// The stages of column `j` of `m` ordered rows over `depth` slots, as
/// `(position, slot, stage)` in ascending slot order; `stages(pos)` is the
/// stage vector of position `pos`.
fn column_stages<'a>(
    stages: impl Fn(usize) -> &'a [Option<StagePlan>],
    m: usize,
    depth: usize,
    j: usize,
) -> impl Iterator<Item = (usize, usize, &'a StagePlan)> {
    column_slots(m, depth, j).filter_map(move |(pos, slot)| {
        stages(pos)
            .get(slot)
            .and_then(Option::as_ref)
            .map(|stage| (pos, slot, stage))
    })
}

/// Reusable buffers of [`contention_makespan_ms`].
#[derive(Debug, Default)]
pub(crate) struct EstimateScratch {
    /// When each processor next becomes free.
    avail: Vec<f64>,
    /// Slices already staged, as `(model, processor, first, last)`. A
    /// plan stages a few dozen slices, so a linear scan stays cheap.
    staged: Vec<(u64, usize, usize, usize)>,
}

/// The list schedule of [`PipelinePlan::estimated_makespan_contention_ms`]
/// over `m` ordered rows on `depth` slots: `stages(pos)` is the stage
/// vector of position `pos` and `model(pos)` its [`model_key`]. A caller
/// that assembles several orders of one request set hashes each model
/// name once and keeps the buffers in `scratch`.
pub(crate) fn contention_makespan_ms<'a>(
    soc: &SocSpec,
    depth: usize,
    m: usize,
    stages: impl Fn(usize) -> &'a [Option<StagePlan>],
    model: impl Fn(usize) -> u64,
    scratch: &mut EstimateScratch,
) -> f64 {
    let EstimateScratch { avail, staged } = scratch;
    avail.clear();
    avail.resize(soc.processors.len(), 0.0);
    staged.clear();
    let mut makespan = 0.0f64;
    for pos in 0..m {
        let model = model(pos);
        let mut prev_end = 0.0f64;
        for (slot, stage) in stages(pos).iter().enumerate() {
            let Some(stage) = stage else { continue };
            let key = (
                model,
                stage.proc.index(),
                stage.range.first,
                stage.range.last,
            );
            let upload = if staged.contains(&key) {
                0.0
            } else {
                staged.push(key);
                stage.footprint_bytes as f64 / (crate::executor::WEIGHT_STAGING_GBPS * 1e6)
            };
            // Expected co-runners: the other cells of this stage's
            // column in the staggered schedule.
            let corunners = column_stages(&stages, m, depth, pos + slot)
                .filter(|&(p2, s2, _)| !(p2 == pos && s2 == slot))
                .map(|(_, _, other)| (soc.processor(other.proc), other.intensity));
            let slow = slowdown_for(
                &soc.coupling,
                soc.processor(stage.proc),
                sensitivity(stage.intensity),
                corunners,
            );
            let dur = (stage.total_ms() + upload) * (1.0 + slow);
            let start = avail[stage.proc.index()].max(prev_end);
            let end = start + dur;
            avail[stage.proc.index()] = end;
            prev_end = end;
            makespan = makespan.max(end);
        }
    }
    makespan
}

#[cfg(test)]
mod tests {
    use super::*;

    fn stage(ms: f64) -> Option<StagePlan> {
        Some(StagePlan {
            range: LayerRange::new(0, 0),
            proc: ProcessorId(0),
            exec_ms: ms,
            copy_in_ms: 0.0,
            intensity: 0.0,
            bandwidth_gbps: 0.0,
            footprint_bytes: 100,
            runs: Vec::new(),
        })
    }

    fn request(times: &[f64]) -> RequestPlan {
        RequestPlan {
            request: 0,
            model: "toy".into(),
            stages: times.iter().map(|&t| stage(t)).collect(),
            intensity: 0.0,
            class: ContentionClass::Low,
        }
    }

    fn plan(reqs: Vec<RequestPlan>, k: usize) -> PipelinePlan {
        PipelinePlan {
            procs: (0..k).map(ProcessorId).collect(),
            requests: reqs,
        }
    }

    #[test]
    fn perfectly_balanced_pipeline_has_zero_bubbles() {
        let p = plan(vec![request(&[2.0, 2.0]), request(&[2.0, 2.0])], 2);
        assert_eq!(p.total_bubble_ms(), 0.0);
        // Columns: [r0s0], [r1s0 | r0s1], [r1s1] => 2+2+2.
        assert_eq!(p.estimated_makespan_ms(), 6.0);
    }

    #[test]
    fn column_indexing_is_staggered() {
        let p = plan(vec![request(&[1.0, 2.0]), request(&[3.0, 4.0])], 2);
        let cells = |j| p.column_cells(j).collect::<Vec<_>>();
        assert_eq!(p.column_count(), 3);
        assert_eq!(cells(0), vec![(0, 0, 1.0)]);
        assert_eq!(cells(1), vec![(1, 0, 3.0), (0, 1, 2.0)]);
        assert_eq!(cells(2), vec![(1, 1, 4.0)]);
    }

    #[test]
    fn bubbles_measure_misalignment() {
        // Column 1: cells 3.0 and 2.0 => bubble 1.0.
        let p = plan(vec![request(&[1.0, 2.0]), request(&[3.0, 4.0])], 2);
        assert_eq!(p.bubble_ms(1), 1.0);
        assert_eq!(p.total_bubble_ms(), 1.0);
        assert_eq!(p.estimated_makespan_ms(), 1.0 + 3.0 + 4.0);
    }

    #[test]
    fn skipped_slots_leave_columns_thin() {
        let mut r = request(&[1.0, 2.0]);
        r.stages[0] = None; // NPU fallback: request skips slot 0.
        let p = plan(vec![r, request(&[3.0, 4.0])], 2);
        assert_eq!(p.column_cells(0).count(), 0);
        assert_eq!(p.bubble_ms(0), 0.0);
        assert_eq!(p.column_cells(1).count(), 2);
    }

    #[test]
    fn empty_plan_is_well_behaved() {
        let p = plan(vec![], 3);
        assert_eq!(p.column_count(), 0);
        assert_eq!(p.total_bubble_ms(), 0.0);
        assert_eq!(p.estimated_makespan_ms(), 0.0);
        assert_eq!(p.peak_footprint_bytes(), 0);
    }

    #[test]
    fn peak_footprint_sums_concurrent_stages() {
        let p = plan(vec![request(&[1.0, 1.0]), request(&[1.0, 1.0])], 2);
        // Column 1 has two concurrent stages of 100 bytes each.
        assert_eq!(p.peak_footprint_bytes(), 200);
    }

    #[test]
    fn copy_time_counts_into_stage_time() {
        let mut s = stage(2.0).unwrap();
        s.copy_in_ms = 0.5;
        assert_eq!(s.total_ms(), 2.5);
    }

    #[test]
    fn contention_estimate_lower_bounds_hold() {
        let soc = SocSpec::kirin_990();
        // Two requests, two slots on distinct processors, no intensities:
        // the list schedule is exact pipeline algebra.
        // Columns: [r0s0], [r1s0|r0s1], [r1s1] => 2+2+2.
        let two_proc = |times: &[f64]| {
            let mut r = request(times);
            for (slot, s) in r.stages.iter_mut().enumerate() {
                s.as_mut().unwrap().proc = ProcessorId(slot);
            }
            r
        };
        let p = plan(vec![two_proc(&[2.0, 2.0]), two_proc(&[2.0, 2.0])], 2);
        let est = p.estimated_makespan_contention_ms(&soc);
        // Zero-intensity stages see no slowdown; footprint 100 bytes of
        // staging is negligible. List schedule: 2+2+2 = 6.
        assert!((est - 6.0).abs() < 0.01, "got {est}");
        // Adding a request never shrinks the estimate.
        let bigger = plan(
            vec![
                two_proc(&[2.0, 2.0]),
                two_proc(&[2.0, 2.0]),
                two_proc(&[2.0, 2.0]),
            ],
            2,
        );
        assert!(bigger.estimated_makespan_contention_ms(&soc) > est);
    }

    #[test]
    fn contention_stretches_the_estimate() {
        let soc = SocSpec::kirin_990();
        let mut hot = request(&[10.0, 10.0]);
        for s in hot.stages.iter_mut().flatten() {
            // Place on CPU_B (slot handled below) with high intensity.
            s.intensity = 1.5;
        }
        // Put the two stages on CPU_B and GPU so they collide in columns.
        let cpu = soc.processor_by_name("CPU_B").unwrap();
        let gpu = soc.processor_by_name("GPU").unwrap();
        let assign = |req: &mut RequestPlan| {
            req.stages[0].as_mut().unwrap().proc = cpu;
            req.stages[1].as_mut().unwrap().proc = gpu;
        };
        let mut a = hot.clone();
        let mut b = hot.clone();
        assign(&mut a);
        assign(&mut b);
        let contended = PipelinePlan {
            procs: vec![cpu, gpu],
            requests: vec![a.clone(), b.clone()],
        };
        let mut quiet_a = a.clone();
        let mut quiet_b = b.clone();
        for s in quiet_a.stages.iter_mut().flatten() {
            s.intensity = 0.0;
        }
        for s in quiet_b.stages.iter_mut().flatten() {
            s.intensity = 0.0;
        }
        let quiet = PipelinePlan {
            procs: vec![cpu, gpu],
            requests: vec![quiet_a, quiet_b],
        };
        let hot_est = contended.estimated_makespan_contention_ms(&soc);
        let quiet_est = quiet.estimated_makespan_contention_ms(&soc);
        assert!(
            hot_est > quiet_est * 1.05,
            "CPU-GPU column collision must stretch the estimate: {hot_est} vs {quiet_est}"
        );
    }

    #[test]
    fn high_positions_filters_by_class() {
        let mut a = request(&[1.0]);
        a.class = ContentionClass::High;
        let b = request(&[1.0]);
        let mut c = request(&[1.0]);
        c.class = ContentionClass::High;
        let p = plan(vec![a, b, c], 1);
        assert_eq!(p.high_positions(), vec![0, 2]);
    }
}
