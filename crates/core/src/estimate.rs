//! Planner-side estimation: cost tables, contention classification and
//! stage-plan construction.
//!
//! The planner never sees the simulator's ground truth. It works from the
//! same information the paper's planner has on real hardware: solo
//! execution profiles (`T_e`), copy costs (`T_c`) and the regression-based
//! contention-intensity estimate of Sec. III. [`Estimator`] bundles those;
//! [`RequestContext`] caches per-request cost tables so partitioning and
//! work stealing can re-evaluate stage times in O(1) per query.
//!
//! Two construction paths exist for a [`RequestContext`]:
//!
//! * [`Estimator::context`] — self-contained: builds a fresh cost table
//!   over the active processors and computes copy-in costs on demand.
//!   This is the original (pre-caching) code path, kept as the planner's
//!   frozen sequential reference.
//! * [`Estimator::tables`] + [`RequestTables::context`] — the cached
//!   path: one full-pipeline prefix-sum table, one operator-fallback
//!   table and one copy-in curve per processor pair are built **once per
//!   request** and shared (`Arc`) by every processor-subset context the
//!   planner derives, so deriving a context is O(stages) and
//!   `stage_cost`/`copy_in_ms` are pure O(1) lookups. Both paths produce
//!   bit-identical stage costs.
//!
//! Either way, [`RequestContext::build_stages`] derives a stage's DRAM
//! bandwidth from the per-layer latency and traffic the cost table (and
//! the NPU-fallback arrays) kept from their one roofline evaluation per
//! layer and processor, summed in the cost model's own order, instead of
//! re-evaluating the roofline for every stage it builds.

use std::cell::{RefCell, RefMut};
use std::collections::HashMap;
use std::rc::Rc;
use std::sync::Arc;

use h2p_contention::{ContentionClass, IntensityModel};
use h2p_models::cost::{CostModel, CostTable};
use h2p_models::graph::{LayerRange, ModelGraph};
use h2p_models::zoo::ModelId;
use h2p_simulator::processor::{ProcessorId, ProcessorKind};
use h2p_simulator::soc::SocSpec;

use crate::error::PlanError;
use crate::partition::{self, DpScratch, PrefixStage};
use crate::plan::{StagePlan, StageRun};
use crate::planner::PartitionMemo;

/// Cross-invocation memo for [`Estimator::tables_cached`]: per model name,
/// the tables already built, each keyed by the graph and the pipeline
/// processor list it holds. The processor list is part of the key because
/// it encodes processor availability (a dropped or depth-truncated slot
/// changes the list). Names alone are not unique, so the graph is compared
/// too; a graph cloned from the entry's own (every zoo model's is) shares
/// its storage and compares by pointer, any other graph in full.
type TablesMemo = HashMap<String, Vec<Rc<RequestTables>>>;

/// Bundles the cost model and the trained contention-intensity model.
#[derive(Debug, Clone)]
pub struct Estimator {
    cost: CostModel,
    intensity: IntensityModel,
    pmu_proc: ProcessorId,
    /// Cross-invocation memo for [`Estimator::tables_cached`]; shared by
    /// clones. Re-planning the same model set every window reuses its
    /// prefix-sum cost tables via `Rc` instead of rebuilding them.
    tables_memo: Rc<RefCell<TablesMemo>>,
}

impl Estimator {
    /// Creates an estimator for `soc`, training the intensity regression
    /// on the full model zoo profiled on the CPU Big cluster (the paper's
    /// PMU vantage point).
    ///
    /// # Errors
    ///
    /// Returns [`PlanError::NoCpu`] if the SoC lacks a big CPU cluster, or
    /// [`PlanError::Training`] if the regression cannot be fitted.
    pub fn new(soc: &SocSpec) -> Result<Self, PlanError> {
        Self::with_precision(soc, h2p_models::cost::Precision::Fp32)
    }

    /// Creates an estimator evaluating execution at the given numerical
    /// precision, trained on the built-in zoo.
    ///
    /// # Errors
    ///
    /// Same as [`Estimator::new`].
    pub fn with_precision(
        soc: &SocSpec,
        precision: h2p_models::cost::Precision,
    ) -> Result<Self, PlanError> {
        let zoo: Vec<ModelGraph> = ModelId::ALL.iter().map(|m| m.graph()).collect();
        let pmu_proc = soc
            .processor_by_kind(ProcessorKind::CpuBig)
            .ok_or(PlanError::NoCpu)?;
        let cost = CostModel::with_precision(soc, precision);
        let intensity =
            IntensityModel::train_default(&cost, &zoo, pmu_proc).map_err(PlanError::Training)?;
        Ok(Estimator {
            cost,
            intensity,
            pmu_proc,
            tables_memo: Rc::default(),
        })
    }

    /// The underlying cost model.
    pub fn cost(&self) -> &CostModel {
        &self.cost
    }

    /// The trained intensity model.
    pub fn intensity_model(&self) -> &IntensityModel {
        &self.intensity
    }

    /// Predicted contention intensity of a model (regression output).
    pub fn predict_intensity(&self, graph: &ModelGraph) -> f64 {
        self.intensity.predict(&self.cost, graph, self.pmu_proc)
    }

    /// ℍ/𝕃 classification of a model.
    pub fn classify(&self, graph: &ModelGraph) -> ContentionClass {
        self.intensity.classify(&self.cost, graph, self.pmu_proc)
    }

    /// Builds the per-request context for `graph` on the given active
    /// slots of the pipeline's processor list.
    ///
    /// This is the self-contained path: it clones the graph and builds a
    /// fresh cost table over the active processors. Planning loops that
    /// derive many contexts for the same request should build
    /// [`Estimator::tables`] once and derive contexts from it instead.
    ///
    /// # Panics
    ///
    /// Panics if `active_slots` is empty or not strictly ascending.
    pub fn context(
        &self,
        graph: &ModelGraph,
        pipeline_procs: &[ProcessorId],
        active_slots: Vec<usize>,
    ) -> RequestContext {
        assert_active_slots(&active_slots);
        let procs: Vec<ProcessorId> = active_slots.iter().map(|&s| pipeline_procs[s]).collect();
        let table = Arc::new(self.cost.table(graph, &procs));
        let npu_fallback = procs
            .iter()
            .position(|&p| self.cost.soc().processor(p).kind == ProcessorKind::Npu)
            .map(|stage| FallbackAt {
                stage,
                core: Arc::new(NpuFallback::build(
                    &self.cost,
                    graph,
                    procs[stage],
                    self.pmu_proc,
                )),
            });
        let rows = (0..active_slots.len()).collect();
        RequestContext {
            graph: graph.clone(),
            active_slots,
            procs,
            rows,
            table,
            copy_cache: None,
            npu_fallback,
        }
    }

    /// Builds the shared per-request tables over the **full** pipeline
    /// processor list: one prefix-sum cost table covering every slot, the
    /// operator-fallback arrays for the NPU slot (if any), and one
    /// copy-in curve per ordered slot pair, plus the model's predicted
    /// contention intensity and ℍ/𝕃 class. Deriving a context for any
    /// processor subset from the result is O(stages).
    pub fn tables(&self, graph: &ModelGraph, pipeline_procs: &[ProcessorId]) -> RequestTables {
        let k = pipeline_procs.len();
        let n = graph.len();
        let table = Arc::new(self.cost.table(graph, pipeline_procs));
        let fallback = pipeline_procs
            .iter()
            .position(|&p| self.cost.soc().processor(p).kind == ProcessorKind::Npu)
            .map(|slot| {
                let core =
                    NpuFallback::build(&self.cost, graph, pipeline_procs[slot], self.pmu_proc);
                (slot, Arc::new(core))
            });
        // Copy-in curve for a stage on slot `q` receiving from slot `p`:
        // curve[i] is the input-copy cost when the stage starts at layer
        // `i` — exactly what `copy_in_ms` computes on the fly.
        let empty = Arc::new(Vec::new());
        let mut copy_pairs = vec![Arc::clone(&empty); k * k];
        for p in 0..k {
            for q in (p + 1)..k {
                let curve: Vec<f64> = (0..n)
                    .map(|i| {
                        let bytes = if i == 0 {
                            graph.input_bytes()
                        } else {
                            graph.boundary_bytes(i - 1)
                        };
                        self.cost
                            .copy_ms(bytes, pipeline_procs[p], pipeline_procs[q])
                    })
                    .collect();
                copy_pairs[p * k + q] = Arc::new(curve);
            }
        }
        // Feasibility lowered for the branch-free DP kernel: per slot,
        // feas_from[j] is one past the last unsupported layer at or
        // before j, so feasible slice starts ending at j form the
        // suffix [feas_from[j], j] (see PrefixStage::Plain).
        let mut feas_from = vec![0u32; k * n];
        for (slot, row) in feas_from.chunks_mut(n).enumerate() {
            let un = table.unsupported_row(slot);
            let mut from = 0u32;
            for (i, cell) in row.iter_mut().enumerate() {
                if un[i + 1] - un[i] > 0 {
                    from = (i + 1) as u32;
                }
                *cell = from;
            }
        }
        let intensity = self.predict_intensity(graph);
        let class = self.intensity.classify_intensity(intensity);
        RequestTables {
            graph: graph.clone(),
            pipeline_procs: pipeline_procs.to_vec(),
            table,
            copy_pairs,
            feas_from,
            zero_copy: vec![0.0; n],
            fallback,
            intensity,
            class,
            partitions: RefCell::default(),
        }
    }

    /// The cross-invocation cached variant of [`Estimator::tables`]: the
    /// same model planned over the same pipeline-processor list reuses
    /// its shared tables via `Rc` instead of rebuilding them — the
    /// online re-planning case, where every window re-plans the same
    /// model set. Everything memoized on the entry rides along: the
    /// contention class, and the partitions
    /// [`crate::planner::Planner::plan_request_cached`] has solved.
    /// Returns `(tables, hit)` so callers can record cache telemetry. A
    /// hit is exactly as correct as rebuilding: the memo key is the
    /// model name, verified by graph equality plus an exact
    /// processor-list match (the processor list encodes availability — a
    /// dropped or depth-truncated slot changes it and therefore misses).
    /// Graph equality is a pointer compare when `graph` shares the
    /// entry's storage, as every clone of a zoo graph does, and a full
    /// comparison otherwise. Only a miss allocates the key.
    pub fn tables_cached(
        &self,
        graph: &ModelGraph,
        pipeline_procs: &[ProcessorId],
    ) -> (Rc<RequestTables>, bool) {
        let mut memo = self.tables_memo.borrow_mut();
        let hit = memo.get(graph.name()).and_then(|entries| {
            entries
                .iter()
                .find(|t| t.pipeline_procs == pipeline_procs && t.graph == *graph)
        });
        if let Some(tables) = hit {
            return (Rc::clone(tables), true);
        }
        let tables = Rc::new(self.tables(graph, pipeline_procs));
        memo.entry(graph.name().to_owned())
            .or_default()
            .push(Rc::clone(&tables));
        (tables, false)
    }

    /// Drops every cached [`RequestTables`] (shared by clones of this
    /// estimator), and with them their memoized partitions. Subsequent
    /// lookups rebuild and re-populate.
    pub fn clear_tables_cache(&self) {
        self.tables_memo.borrow_mut().clear();
    }
}

fn assert_active_slots(active_slots: &[usize]) {
    assert!(
        !active_slots.is_empty(),
        "a request needs at least one slot"
    );
    assert!(
        active_slots.windows(2).all(|w| w[0] < w[1]),
        "active slots must be strictly ascending"
    );
}

/// Shared per-request planning tables over the full pipeline processor
/// list (see [`Estimator::tables`]). Deriving per-subset contexts does
/// not rebuild any table.
#[derive(Debug)]
pub struct RequestTables {
    graph: ModelGraph,
    pipeline_procs: Vec<ProcessorId>,
    table: Arc<CostTable>,
    /// `copy_pairs[p * k + q]` for `p < q`: per-start-layer copy-in cost
    /// from slot `p`'s processor to slot `q`'s. Unused pairs hold an
    /// empty curve.
    copy_pairs: Vec<Arc<Vec<f64>>>,
    /// `feas_from[slot * n + j]`: the smallest feasible start layer for
    /// a slice ending at `j` on `slot` (one past the last unsupported
    /// layer ≤ `j`), lowered from the unsupported prefix counts for the
    /// branch-free DP kernel.
    feas_from: Vec<u32>,
    /// `n` zeros: the stage-0 copy-in curve (the literal `+ 0.0` keeps
    /// the kernel's float-op order identical to the oracle path).
    zero_copy: Vec<f64>,
    /// `(pipeline slot of the NPU, fallback arrays)`, if the pipeline
    /// includes an NPU.
    fallback: Option<(usize, Arc<NpuFallback>)>,
    /// The model's regression-predicted contention intensity.
    intensity: f64,
    /// The model's ℍ/𝕃 class (the intensity against the threshold).
    class: ContentionClass,
    /// Algorithm 1's answers over these tables, one per allowed-slot
    /// mask searched (see [`crate::planner::Planner::plan_request_cached`]).
    partitions: RefCell<PartitionMemo>,
}

impl RequestTables {
    /// The model these tables describe.
    pub fn graph(&self) -> &ModelGraph {
        &self.graph
    }

    /// Number of pipeline processor slots covered.
    pub fn slot_count(&self) -> usize {
        self.pipeline_procs.len()
    }

    /// The model's predicted contention intensity and ℍ/𝕃 class,
    /// computed once when the entry was built.
    pub(crate) fn contention(&self) -> (f64, ContentionClass) {
        (self.intensity, self.class)
    }

    /// The memo of solved partitions (see [`PartitionMemo`]).
    pub(crate) fn partitions(&self) -> RefMut<'_, PartitionMemo> {
        self.partitions.borrow_mut()
    }

    /// The full-pipeline prefix-sum cost table (row = pipeline slot).
    pub(crate) fn table(&self) -> &CostTable {
        &self.table
    }

    /// The NPU slot and its operator-fallback arrays, if present.
    pub(crate) fn fallback(&self) -> Option<(usize, &NpuFallback)> {
        self.fallback.as_ref().map(|(s, core)| (*s, core.as_ref()))
    }

    /// Lowers pipeline stage `a` of the ordered `slots` subset into the
    /// branch-free prefix slices the DP kernel consumes.
    fn dp_stage(&self, slots: &[usize], a: usize) -> PrefixStage<'_> {
        let n = self.graph.len();
        let k = self.pipeline_procs.len();
        let slot = slots[a];
        let copy: &[f64] = if a == 0 {
            &self.zero_copy
        } else {
            self.copy_pairs[slots[a - 1] * k + slot].as_slice()
        };
        match &self.fallback {
            Some((fb_slot, fb)) if *fb_slot == slot => PrefixStage::Fallback {
                lp: &fb.lat_prefix,
                cp: &fb.copy_prefix,
                copy,
            },
            _ => PrefixStage::Plain {
                pm: self.table.prefix_row(slot),
                feas_from: &self.feas_from[slot * n..(slot + 1) * n],
                copy,
            },
        }
    }

    /// Runs the flat DP kernel ([`partition::min_max_partition_prefix`])
    /// for the ordered active-slot subset `slots`, directly over these
    /// tables' prefix arrays — no per-cell closure, no `Option`, no
    /// allocation once `scratch` is warm. Returns the minimized makespan
    /// and leaves the split points in [`DpScratch::splits`].
    ///
    /// Bit-identical to [`crate::partition::min_max_partition`] over
    /// `RequestContext::stage_cost` of [`RequestTables::context`] on the
    /// same slots (pinned by unit tests and planner debug assertions).
    pub fn partition_into(&self, slots: &[usize], scratch: &mut DpScratch) -> Option<f64> {
        partition::min_max_partition_prefix(
            self.graph.len(),
            slots.len(),
            |a| self.dp_stage(slots, a),
            scratch,
        )
    }

    /// Derives the context for the given active slots, sharing every
    /// table. Produces bit-identical stage costs to the self-contained
    /// [`Estimator::context`] over the same slots.
    ///
    /// # Panics
    ///
    /// Panics if `active_slots` is empty or not strictly ascending.
    pub fn context(&self, active_slots: Vec<usize>) -> RequestContext {
        assert_active_slots(&active_slots);
        let k = self.pipeline_procs.len();
        let procs: Vec<ProcessorId> = active_slots
            .iter()
            .map(|&s| self.pipeline_procs[s])
            .collect();
        let npu_fallback = self.fallback.as_ref().and_then(|(slot, core)| {
            active_slots
                .iter()
                .position(|&s| s == *slot)
                .map(|stage| FallbackAt {
                    stage,
                    core: Arc::clone(core),
                })
        });
        // copy_cache[a] for stage a >= 1 is the (p, q) curve of the
        // adjacent active slots; entry 0 is never read (stage 0 has no
        // copy-in).
        let mut copy_cache = Vec::with_capacity(active_slots.len());
        copy_cache.push(Arc::new(Vec::new()));
        for w in active_slots.windows(2) {
            copy_cache.push(Arc::clone(&self.copy_pairs[w[0] * k + w[1]]));
        }
        RequestContext {
            graph: self.graph.clone(),
            rows: active_slots.clone(),
            active_slots,
            procs,
            table: Arc::clone(&self.table),
            copy_cache: Some(copy_cache),
            npu_fallback,
        }
    }
}

/// Operator-fallback cost arrays for an NPU stage (Sec. IV: unsupported
/// operators inside an NPU slice are forwarded to the CPU Big cluster,
/// paying a tensor copy at every supportability transition). The arrays
/// depend only on the model and the (NPU, fallback-CPU) pair, so one
/// instance is shared by every context of a request.
#[derive(Debug, Clone)]
pub(crate) struct NpuFallback {
    npu: ProcessorId,
    fallback: ProcessorId,
    /// `lat_prefix[i]` = Σ effective latency of layers `0..i`, each on
    /// the NPU if supported, otherwise on the fallback CPU.
    pub(crate) lat_prefix: Vec<f64>,
    /// `copy_prefix[k]` = Σ transition-copy cost over boundaries `< k`;
    /// boundary `l` (between layers `l` and `l+1`) costs a copy iff the
    /// two layers run on different processors.
    pub(crate) copy_prefix: Vec<f64>,
    /// `traffic_bytes[i]` = analytical DRAM traffic of layer `i` on the
    /// processor it runs on (NPU if supported, else the fallback CPU).
    traffic_bytes: Vec<Option<f64>>,
    supported: Vec<bool>,
}

impl NpuFallback {
    fn build(
        cost: &CostModel,
        graph: &ModelGraph,
        npu: ProcessorId,
        fallback: ProcessorId,
    ) -> Self {
        let n = graph.len();
        let supported: Vec<bool> = graph
            .layers()
            .iter()
            .map(|l| l.op.npu_supported())
            .collect();
        let mut lat_prefix = Vec::with_capacity(n + 1);
        let mut traffic_bytes = Vec::with_capacity(n);
        lat_prefix.push(0.0);
        for i in 0..n {
            let proc = if supported[i] { npu } else { fallback };
            let (ms, traffic) = cost.layer_cost_for(graph, i, proc);
            #[expect(
                clippy::expect_used,
                reason = "invariant of the cost table: the fallback processor is a CPU \
                          and CPUs support every operator, so the lookup cannot miss; a \
                          miss would be a zoo/cost-model bug worth a crash"
            )]
            let ms = ms.expect("fallback CPU supports every operator");
            lat_prefix.push(lat_prefix[i] + ms);
            traffic_bytes.push(traffic);
        }
        let mut copy_prefix = Vec::with_capacity(n);
        copy_prefix.push(0.0);
        for l in 0..n.saturating_sub(1) {
            let c = if supported[l] != supported[l + 1] {
                let (from, to) = if supported[l] {
                    (npu, fallback)
                } else {
                    (fallback, npu)
                };
                cost.copy_ms(graph.boundary_bytes(l), from, to)
            } else {
                0.0
            };
            copy_prefix.push(copy_prefix[l] + c);
        }
        NpuFallback {
            npu,
            fallback,
            lat_prefix,
            copy_prefix,
            traffic_bytes,
            supported,
        }
    }

    /// DRAM traffic of the homogeneous run `range`, summed layer by layer
    /// as [`CostModel::slice_traffic_bytes`] sums it on the run's
    /// processor, so the result is bit-identical to that call; 0 where it
    /// returns `None`.
    fn run_traffic_bytes(&self, range: LayerRange) -> f64 {
        let mut total = 0.0;
        for &layer in &self.traffic_bytes[range.first..=range.last] {
            let Some(layer) = layer else { return 0.0 };
            total += layer;
        }
        total
    }

    /// The processor that absorbs NPU-unsupported operators.
    pub(crate) fn fallback_proc(&self) -> ProcessorId {
        self.fallback
    }

    /// Whether any layer of the model actually takes the fallback
    /// detour (an all-supported model never leaves the NPU).
    pub(crate) fn needs_fallback(&self) -> bool {
        self.supported.iter().any(|s| !s)
    }

    /// Effective execution time of layers `[i, j]` on the NPU stage,
    /// including fallback detours and transition copies.
    pub(crate) fn slice_ms(&self, i: usize, j: usize) -> f64 {
        self.lat_prefix[j + 1] - self.lat_prefix[i] + self.copy_prefix[j] - self.copy_prefix[i]
    }

    /// The homogeneous runs of slice `[i, j]` with per-run times (entry
    /// copies folded into the run that receives the tensor).
    fn runs(&self, i: usize, j: usize) -> Vec<StageRun> {
        let mut runs = Vec::new();
        let mut start = i;
        for l in i..=j {
            let boundary = l == j || self.supported[l] != self.supported[l + 1];
            if !boundary {
                continue;
            }
            let entry_copy = if start > i {
                self.copy_prefix[start] - self.copy_prefix[start - 1]
            } else {
                0.0
            };
            runs.push(StageRun {
                range: LayerRange::new(start, l),
                proc: if self.supported[start] {
                    self.npu
                } else {
                    self.fallback
                },
                ms: self.lat_prefix[l + 1] - self.lat_prefix[start] + entry_copy,
            });
            start = l + 1;
        }
        runs
    }
}

/// An NPU fallback bound to the active stage that hosts it.
#[derive(Debug, Clone)]
struct FallbackAt {
    /// Which active stage is the NPU stage.
    stage: usize,
    core: Arc<NpuFallback>,
}

/// Cached per-request planning state: the model, its active slots within
/// the pipeline, and a prefix-sum cost table over those slots' processors.
#[derive(Debug, Clone)]
pub struct RequestContext {
    /// The model being planned (a clone shares the graph's storage).
    pub graph: ModelGraph,
    /// Indices into the pipeline's processor slots this request uses,
    /// strictly ascending.
    pub active_slots: Vec<usize>,
    /// The processors of the active slots, in order.
    pub procs: Vec<ProcessorId>,
    /// Table row of each active stage (identity for self-contained
    /// tables; the pipeline slot index for shared full-pipeline tables).
    rows: Vec<usize>,
    table: Arc<CostTable>,
    /// Precomputed copy-in curves per active stage (shared path only);
    /// `None` falls back to computing copies on demand.
    copy_cache: Option<Vec<Arc<Vec<f64>>>>,
    npu_fallback: Option<FallbackAt>,
}

impl RequestContext {
    /// Number of active stages.
    pub fn stage_count(&self) -> usize {
        self.active_slots.len()
    }

    /// Number of layers of the model.
    pub fn layer_count(&self) -> usize {
        self.graph.len()
    }

    /// Stage cost `T(a, i, j)` for active stage `a` running layers
    /// `[i, j]`: solo execution plus the input-copy cost from the previous
    /// active stage's processor (Eq. 2's `T_e + T_c`). On the NPU stage,
    /// unsupported layers fall back to the CPU Big cluster with transition
    /// copies instead of making the stage infeasible. `None` if any layer
    /// is unsupported on a non-NPU stage's processor or the range is
    /// invalid.
    pub fn stage_cost(&self, cost: &CostModel, a: usize, i: usize, j: usize) -> Option<f64> {
        if i > j || j >= self.graph.len() {
            return None;
        }
        let exec = match &self.npu_fallback {
            Some(fb) if fb.stage == a => fb.core.slice_ms(i, j),
            _ => self.table.slice_ms(self.rows[a], i, j)?,
        };
        Some(exec + self.copy_in_ms(cost, a, i))
    }

    /// The input-copy cost of active stage `a` when its slice starts at
    /// layer `i`.
    pub fn copy_in_ms(&self, cost: &CostModel, a: usize, i: usize) -> f64 {
        if a == 0 {
            return 0.0;
        }
        if let Some(cache) = &self.copy_cache {
            return cache[a][i];
        }
        let bytes = if i == 0 {
            self.graph.input_bytes()
        } else {
            self.table.boundary_bytes(i - 1)
        };
        cost.copy_ms(bytes, self.procs[a - 1], self.procs[a])
    }

    /// Builds the full slot-indexed stage vector (length `total_slots`)
    /// from split points over the active stages. Returns `None` if any
    /// stage is infeasible.
    pub fn build_stages(
        &self,
        cost: &CostModel,
        splits: &[usize],
        total_slots: usize,
    ) -> Option<Vec<Option<StagePlan>>> {
        debug_assert_eq!(splits.len() + 1, self.stage_count());
        let n = self.graph.len();
        let mut stages: Vec<Option<StagePlan>> = vec![None; total_slots];
        let mut prev = 0usize;
        for (a, &end) in splits.iter().chain(std::iter::once(&n)).enumerate() {
            if end <= prev || end > n {
                return None;
            }
            let range = LayerRange::new(prev, end - 1);
            let proc = self.procs[a];
            let fallback_stage = self
                .npu_fallback
                .as_ref()
                .filter(|fb| fb.stage == a)
                .map(|fb| fb.core.as_ref());
            let (exec_ms, runs) = if let Some(fb) = fallback_stage {
                let runs = fb.runs(prev, end - 1);
                // A single homogeneous NPU run needs no lowering detail.
                let runs = if runs.len() == 1 && runs[0].proc == proc {
                    Vec::new()
                } else {
                    runs
                };
                (fb.slice_ms(prev, end - 1), runs)
            } else {
                (
                    self.table.slice_ms(self.rows[a], prev, end - 1)?,
                    Vec::new(),
                )
            };
            let copy_in_ms = self.copy_in_ms(cost, a, prev);
            // Bandwidth from the per-layer latency and traffic the tables
            // kept at build time, summed in the cost model's order.
            let bandwidth_gbps = match fallback_stage {
                Some(fb) if !runs.is_empty() => {
                    // Mixed-processor stage: aggregate traffic over the runs.
                    let traffic: f64 = runs.iter().map(|r| fb.run_traffic_bytes(r.range)).sum();
                    if exec_ms > 0.0 {
                        traffic / (exec_ms * 1e6)
                    } else {
                        0.0
                    }
                }
                _ => self.table.slice_bandwidth_gbps(self.rows[a], range),
            };
            let intensity = bandwidth_gbps / h2p_contention::counters::REFERENCE_BANDWIDTH_GBPS;
            let raw_footprint = self.graph.slice_weight_bytes(range)
                + self.graph.slice_input_bytes(range)
                + self.graph.boundary_bytes(range.last);
            let footprint_bytes = (raw_footprint as f64 * cost.footprint_scale()) as u64;
            stages[self.active_slots[a]] = Some(StagePlan {
                range,
                proc,
                exec_ms,
                copy_in_ms,
                intensity,
                bandwidth_gbps,
                footprint_bytes,
                runs,
            });
            prev = end;
        }
        Some(stages)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn setup() -> (SocSpec, Estimator) {
        let soc = SocSpec::kirin_990();
        let est = Estimator::new(&soc).expect("kirin trains");
        (soc, est)
    }

    #[test]
    fn context_stage_cost_matches_cost_model() {
        let (soc, est) = setup();
        let g = ModelId::ResNet50.graph();
        let procs = soc.processors_by_power();
        let ctx = est.context(&g, &procs, vec![0, 1, 2, 3]);
        // Stage 0 (NPU), full model prefix.
        let direct = est
            .cost()
            .slice_latency_ms(&g, LayerRange::new(0, 4), procs[0])
            .unwrap();
        let via_ctx = ctx.stage_cost(est.cost(), 0, 0, 4).unwrap();
        assert!((direct - via_ctx).abs() < 1e-9, "stage 0 has no copy-in");
        // Stage 1 includes a copy-in.
        let exec = est
            .cost()
            .slice_latency_ms(&g, LayerRange::new(5, 8), procs[1])
            .unwrap();
        let with_copy = ctx.stage_cost(est.cost(), 1, 5, 8).unwrap();
        assert!(with_copy > exec, "copy-in must be added");
    }

    #[test]
    fn shared_tables_context_matches_self_contained_context() {
        let (soc, est) = setup();
        let procs = soc.processors_by_power();
        for id in [ModelId::ResNet50, ModelId::Bert, ModelId::YoloV4] {
            let g = id.graph();
            let tables = est.tables(&g, &procs);
            for slots in [
                vec![0usize],
                vec![2],
                vec![0, 1],
                vec![1, 3],
                vec![0, 2, 3],
                vec![0, 1, 2, 3],
            ] {
                let a = est.context(&g, &procs, slots.clone());
                let b = tables.context(slots.clone());
                let n = g.len();
                for stage in 0..slots.len() {
                    for i in 0..n {
                        for j in i..n.min(i + 7) {
                            let ca = a.stage_cost(est.cost(), stage, i, j);
                            let cb = b.stage_cost(est.cost(), stage, i, j);
                            match (ca, cb) {
                                (None, None) => {}
                                (Some(x), Some(y)) => assert_eq!(
                                    x.to_bits(),
                                    y.to_bits(),
                                    "{id} slots {slots:?} stage {stage} [{i},{j}]"
                                ),
                                _ => panic!(
                                    "feasibility mismatch: {id} slots {slots:?} \
                                     stage {stage} [{i},{j}]: {ca:?} vs {cb:?}"
                                ),
                            }
                        }
                    }
                }
            }
        }
    }

    #[test]
    fn partition_into_matches_oracle_dp_bit_for_bit() {
        // The flat kernel over the lowered prefix slices must equal the
        // Option-oracle reference DP over the derived context: same
        // feasibility, same split points, same makespan bits — for
        // plain, NPU-fallback (BERT's embedding) and unsupported-range
        // (YOLO's plain NPU row) stages alike.
        let (soc, est) = setup();
        let procs = soc.processors_by_power();
        let mut scratch = crate::partition::DpScratch::new();
        for id in [ModelId::ResNet50, ModelId::Bert, ModelId::YoloV4] {
            let g = id.graph();
            let n = g.len();
            let tables = est.tables(&g, &procs);
            for slots in [
                vec![0usize],
                vec![1],
                vec![0, 1],
                vec![1, 3],
                vec![0, 2, 3],
                vec![0, 1, 2, 3],
            ] {
                let ctx = tables.context(slots.clone());
                let oracle = crate::partition::min_max_partition(n, slots.len(), |a, i, j| {
                    ctx.stage_cost(est.cost(), a, i, j)
                });
                let kernel = tables.partition_into(&slots, &mut scratch);
                match (oracle, kernel) {
                    (None, None) => {}
                    (Some(p), Some(ms)) => {
                        assert_eq!(
                            p.makespan_ms.to_bits(),
                            ms.to_bits(),
                            "{id} slots {slots:?}: makespan bits"
                        );
                        assert_eq!(p.splits, scratch.splits(), "{id} slots {slots:?}: splits");
                    }
                    (o, k) => panic!("{id} slots {slots:?}: feasibility diverged: {o:?} vs {k:?}"),
                }
            }
        }
    }

    #[test]
    fn tables_entry_contention_matches_direct_calls() {
        let (soc, est) = setup();
        let procs = soc.processors_by_power();
        let g = ModelId::SqueezeNet.graph();
        let (tables, _) = est.tables_cached(&g, &procs);
        let (i1, c1) = tables.contention();
        assert_eq!(i1.to_bits(), est.predict_intensity(&g).to_bits());
        assert_eq!(c1, est.classify(&g));
        // A second lookup hits the entry and must agree bit-for-bit.
        let (again, hit) = est.tables_cached(&g, &procs);
        assert!(hit);
        let (i2, c2) = again.contention();
        assert_eq!(i1.to_bits(), i2.to_bits());
        assert_eq!(c1, c2);
        // An independently built copy shares no storage with the entry's
        // graph and still hits, through the full comparison.
        let rebuilt = ModelGraph::new(g.name(), g.input_bytes(), g.layers().to_vec());
        let (same, hit) = est.tables_cached(&rebuilt, &procs);
        assert!(hit);
        assert!(Rc::ptr_eq(&same, &tables));
        // A same-name but different graph must not hit the wrong entry.
        let batched = crate::batching::batched_graph(&g, 2);
        let (other, hit) = est.tables_cached(&batched, &procs);
        assert!(!hit);
        let (ib, _) = other.contention();
        assert_eq!(ib.to_bits(), est.predict_intensity(&batched).to_bits());
    }

    #[test]
    fn build_stages_round_trips_splits() {
        let (soc, est) = setup();
        let g = ModelId::GoogLeNet.graph();
        let procs = soc.processors_by_power();
        let ctx = est.context(&g, &procs, vec![0, 2, 3]);
        let splits = vec![5, 11];
        let stages = ctx.build_stages(est.cost(), &splits, procs.len()).unwrap();
        assert_eq!(stages.len(), procs.len());
        assert!(stages[1].is_none(), "slot 1 inactive");
        // Every active stage but the last ends at a split point.
        let ends: Vec<usize> = stages.iter().flatten().map(|s| s.range.last + 1).collect();
        assert_eq!(ends[..ends.len() - 1], splits[..]);
        // Ranges tile the model.
        assert_eq!(stages[0].as_ref().unwrap().range, LayerRange::new(0, 4));
        assert_eq!(stages[2].as_ref().unwrap().range, LayerRange::new(5, 10));
        assert_eq!(
            stages[3].as_ref().unwrap().range,
            LayerRange::new(11, g.len() - 1)
        );
    }

    #[test]
    fn npu_stage_with_unsupported_prefix_uses_operator_fallback() {
        let (soc, est) = setup();
        let g = ModelId::Bert.graph(); // embedding unsupported on NPU
        let procs = soc.processors_by_power();
        let ctx = est.context(&g, &procs, vec![0, 1]);
        // Slot 0 is the NPU and takes the embedding layer: the stage is
        // feasible via operator fallback to the CPU Big cluster.
        let stages = ctx
            .build_stages(est.cost(), &[3], procs.len())
            .expect("fallback makes the NPU stage feasible");
        let npu_stage = stages[0].as_ref().expect("NPU slot populated");
        assert!(!npu_stage.runs.is_empty(), "stage must carry its lowering");
        let cpu_b = soc.processor_by_name("CPU_B").unwrap();
        assert_eq!(npu_stage.runs[0].proc, cpu_b, "embedding runs on CPU_B");
        let npu = soc.processor_by_name("NPU").unwrap();
        assert_eq!(npu_stage.runs[1].proc, npu, "encoder prefix runs on NPU");
        // Fallback stage time exceeds the pure-NPU time of the supported
        // part (CPU detour + transition copy). Stage 0 covers layers 0..2.
        let supported_only = est
            .cost()
            .slice_latency_ms(&g, LayerRange::new(1, 2), npu)
            .unwrap();
        assert!(npu_stage.exec_ms > supported_only);
    }

    #[test]
    fn non_npu_stages_still_reject_unsupported_ranges() {
        let (soc, est) = setup();
        let g = ModelId::Bert.graph();
        let procs = soc.processors_by_power();
        // Context over NPU-only (single stage) on a model whose first
        // layer is unsupported: feasible via fallback...
        let ctx = est.context(&g, &procs, vec![0]);
        assert!(ctx.build_stages(est.cost(), &[], procs.len()).is_some());
        // ...and the cost accounts for the CPU detour.
        let fb = ctx.stage_cost(est.cost(), 0, 0, g.len() - 1).unwrap();
        let cpu_b = soc.processor_by_name("CPU_B").unwrap();
        let pure_cpu = est.cost().model_latency_ms(&g, cpu_b).unwrap();
        assert!(fb < pure_cpu, "mostly-NPU execution beats pure CPU");
    }

    #[test]
    fn classification_is_consistent_with_intensity_model() {
        let (_, est) = setup();
        let g = ModelId::SqueezeNet.graph();
        let i = est.predict_intensity(&g);
        let c = est.classify(&g);
        assert_eq!(
            c,
            est.intensity_model().classify_intensity(i),
            "classify must agree with predict"
        );
    }

    #[test]
    #[should_panic(expected = "ascending")]
    fn unsorted_slots_panic() {
        let (soc, est) = setup();
        let g = ModelId::AlexNet.graph();
        let procs = soc.processors_by_power();
        est.context(&g, &procs, vec![2, 1]);
    }

    #[test]
    fn snapdragon_without_npu_still_trains() {
        let soc = SocSpec::snapdragon_778g();
        assert!(Estimator::new(&soc).is_ok());
    }
}
