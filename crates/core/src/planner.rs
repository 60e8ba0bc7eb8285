//! The two-step Hetero²Pipe planner (Sec. V).
//!
//! [`Planner::plan`] performs, in order:
//!
//! 1. **Horizontal partitioning (P1)** — for every request, enumerate the
//!    feasible ordered subsets of the SoC's power-ranked processors (the
//!    NPU slot is skipped automatically for models with unsupported
//!    operators — the fallback path), run the dynamic program of
//!    Algorithm 1 on each, and keep the minimum-makespan partition.
//! 2. **Contention mitigation (Algorithm 2)** — classify requests into
//!    ℍ/𝕃 with the ridge-regression intensity model and re-order the
//!    sequence so ℍ requests sit at least `K` apart, solving the
//!    relocation LAP with Kuhn–Munkres.
//! 3. **Vertical alignment (Algorithm 3)** — work stealing towards each
//!    contention window's critical path, plus tail-bubble collapse.
//!
//! Steps 2 and 3 can be disabled individually through
//! [`PlannerConfig`] — that is exactly the paper's "No C/T" ablation
//! baseline.
//!
//! # Step 1 is solved once per model
//!
//! Step 1 is a pure per-request function of the model's cost tables and
//! the allowed processor slots, so [`Planner::plan_request_cached`]
//! memoizes it on the shared [`crate::estimate::RequestTables`] entry:
//! the key is the entry (model graph and pipeline-processor list) plus
//! the allowed-slot mask, a hit is exact because the search reads
//! nothing else, and an entry holds at most 2^K answers. The
//! tail-collapse candidates and the contention class live on the entry
//! too. Steps 2 and 3 couple the requests of one plan, so their unit of
//! reuse stays the window ([`crate::online::OnlinePlanner`]). On the
//! h2pbench workloads, every timed plan-batch lookup hits the memo, and
//! serve-chaos survivor replans hit it 79% of the time.
//!
//! # Planning runtime
//!
//! The production path ([`Planner::plan`]) plans on the calling thread.
//! The paper re-invokes its planner on the phone whose CPU clusters are
//! the pipeline stages it schedules, so planner worker threads would
//! compete with the inference they plan. Step 1 prepares the requests
//! one after another over shared per-request cost tables
//! ([`crate::estimate::RequestTables`]) into a [`Prepared`] set. Steps
//! 2–3 then assemble the candidate orders through [`Prepared::score`],
//! skipping an order equal to one already assembled: an assembly prices
//! work-stealing and tail candidates on a grid of stage times and a
//! column ledger ([`crate::worksteal`]), reads the step-1 plans and
//! contexts in place and works in pooled buffers. The Fig. 8(a) order
//! searches score their orders through the same primitive. The
//! output is **bit-identical** to the frozen reference
//! ([`Planner::plan_reference`]), which preserves the original
//! clone-per-mask implementation as the recorded perf baseline (see
//! `scripts/bench.sh`) and as the oracle for the equivalence proptest.
//! A planner has one owner: its clones share the memos, the tables
//! cache, the scratch pool and the telemetry sink through `Rc`s and
//! `RefCell`s, so the compiler keeps the planner on one thread and no
//! lock is taken.

use std::cell::RefCell;
use std::rc::Rc;
use std::sync::Arc;
use std::time::Instant;

use h2p_models::graph::ModelGraph;
use h2p_models::zoo::ModelId;
use h2p_simulator::soc::SocSpec;
use h2p_simulator::ProcessorId;
use h2p_telemetry::lifecycle::{LifecycleStage, RequestId, TraceId};
use h2p_telemetry::{span, CounterId, GaugeId, HistogramId, MetricsRegistry, Telemetry};

use crate::error::PlanError;
use crate::estimate::{Estimator, RequestContext, RequestTables};
use crate::mitigation::{self, MitigationMetrics, MitigationOutcome};
use crate::partition::{min_max_partition, DpScratch};
use crate::plan::{self, EstimateScratch, PipelinePlan, RequestPlan, StagePlan};
use crate::recovery::RecoveryMetrics;
use crate::worksteal::{self, CollapseSlots, PassScratch, StealReport};

/// Pooled planning buffers: the flat DP kernel arena and the mask-loop
/// buffers of the subset search, checked out per request, and the
/// candidate assemblies' grid, ledger, estimate and order buffers,
/// checked out per prepared set ([`Prepared`]). Checked out of the
/// planner's pool ([`Planner::checkout_scratch`]) so steady-state
/// planning reuses warm allocations — after the first request of a given
/// high-water size, the subset search touches the allocator zero times,
/// and an assembly allocates only the stage vectors it keeps (pinned by
/// the counting-allocator tests).
#[derive(Debug, Default)]
struct PlanScratch {
    /// The DP kernel arena (table, backtracking, splits).
    dp: DpScratch,
    /// Flat per-slot per-layer latency (`lat[s * n + i]`, ∞ where
    /// unsupported) for the subset lower bound.
    lat: Vec<f64>,
    /// Per-layer minimum over the active slots' latencies.
    mins: Vec<f64>,
    /// The active-slot subset of the mask being evaluated.
    slots: Vec<usize>,
    /// The winning subset so far.
    best_slots: Vec<usize>,
    /// The winning split points so far.
    best_splits: Vec<usize>,
    /// The vertical passes' stage grid, column ledger and candidate
    /// buffers.
    pass: PassScratch,
    /// The contention estimate's buffers.
    estimate: EstimateScratch,
    /// The best candidate order so far, and the one being assembled.
    best: Assembly,
    candidate: Assembly,
    /// Each request's staging key ([`plan::model_key`]), by original
    /// index.
    keys: Vec<u64>,
    /// `inverse[request]` = position of the request in the adopted
    /// order.
    inverse: Vec<usize>,
}

/// Algorithm 1's answer for one request under one allowed-slot mask: the
/// winning processor subset, its split points and makespan, and the
/// slot-indexed stage vector built from them.
#[derive(Debug, Clone)]
pub struct RequestPartition {
    /// The context over the winning subset of pipeline slots.
    pub ctx: RequestContext,
    /// Split points over the winning subset's stages.
    pub splits: Vec<usize>,
    /// The minimized maximum stage time.
    pub makespan_ms: f64,
    /// One entry per pipeline slot, `None` where the slot is unused.
    pub stages: Vec<Option<StagePlan>>,
}

/// What [`Planner::plan_request_cached`] has solved over one
/// [`RequestTables`] entry. It lives on the entry, so it is keyed like
/// the entry (graph and pipeline-processor list) and dropped with it.
#[derive(Debug, Default)]
pub(crate) struct PartitionMemo {
    /// `(allowed-slot mask, winner)` per mask searched so far; `None`
    /// when no subset of the mask can host the model. Masks are
    /// normalised to the slot count, so at most 2^K entries exist.
    solved: Vec<(u32, Option<Arc<RequestPartition>>)>,
    /// The single-slot tail-collapse candidates, built on first use.
    collapse: Option<Arc<CollapseSlots>>,
}

impl PartitionMemo {
    /// The stored answer for a normalised mask, if it was searched.
    fn get(&self, mask: u32) -> Option<&Option<Arc<RequestPartition>>> {
        self.solved.iter().find(|(m, _)| *m == mask).map(|(_, s)| s)
    }
}

/// `allowed` restricted to the slots of a `slots`-slot pipeline: the
/// memo's key normalisation.
fn slot_mask(allowed: u32, slots: usize) -> u32 {
    allowed & ((1u32 << slots) - 1)
}

/// The subset search's work counters, flushed to telemetry only by a
/// search that fills the memo.
#[derive(Debug, Default)]
struct SearchCounts {
    masks_evaluated: u64,
    masks_pruned: u64,
    cells: u64,
}

/// A subset-search winner: active slots, split points, makespan.
type Winner = (Vec<usize>, Vec<usize>, f64);

/// Algorithm 1's subset search over `tables`: every processor-subset DP
/// runs the flat prefix kernel ([`RequestTables::partition_into`])
/// straight over the shared tables — no per-cell closure, no `Option`,
/// no allocation once `ps` is warm — and subsets whose exact lower bound
/// cannot beat the incumbent are pruned without running the DP. Masks
/// are visited in the same order with the same strict-improvement
/// epsilon as [`Planner::plan_request`], and the bound never exceeds the
/// true optimum of a mask, so the winner is bit-identical to the
/// reference. Only subsets of `allowed` are searched.
fn search_subsets(
    tables: &RequestTables,
    allowed: u32,
    ps: &mut PlanScratch,
) -> (Option<Winner>, SearchCounts) {
    let n = tables.graph().len();
    let k_slots = tables.slot_count();
    let table = tables.table();

    // Statically-feasible check + exact lower bound for one subset:
    // every layer costs at least its cheapest active slot, stage costs
    // only add copies on top, and the max stage is at least both the
    // largest single layer and the average share of the total. Returns
    // `None` when some layer runs on no active slot (the DP could not
    // have found a partition either). Pruning on the bound can never
    // drop a subset that would have won under the strict `+1e-12`
    // improvement rule.
    fn subset_bound(lat: &[f64], n: usize, slots: &[usize], mins: &mut Vec<f64>) -> Option<f64> {
        mins.clear();
        mins.resize(n, f64::INFINITY);
        for &s in slots {
            for (m, &v) in mins.iter_mut().zip(&lat[s * n..(s + 1) * n]) {
                *m = m.min(v);
            }
        }
        if mins.iter().any(|m| !m.is_finite()) {
            return None;
        }
        let sum: f64 = mins.iter().sum();
        let max_single = mins.iter().copied().fold(0.0f64, f64::max);
        Some(max_single.max(sum / slots.len() as f64))
    }

    // Per-slot per-layer latency (∞ where unsupported) for the pruning
    // lower bound, flat in the pooled buffer.
    ps.lat.clear();
    for s in 0..k_slots {
        match tables.fallback() {
            Some((fs, fb)) if fs == s => {
                ps.lat
                    .extend((0..n).map(|i| fb.lat_prefix[i + 1] - fb.lat_prefix[i]));
            }
            _ => {
                let pm = table.prefix_row(s);
                let un = table.unsupported_row(s);
                ps.lat.extend((0..n).map(|i| {
                    if un[i + 1] - un[i] > 0 {
                        f64::INFINITY
                    } else {
                        pm[i + 1] - pm[i]
                    }
                }));
            }
        }
    }

    // Count locally: the caller decides whether the counts reach the
    // shared registry.
    let mut counts = SearchCounts::default();
    let mut best_ms: Option<f64> = None; // winner in ps.best_*
    for mask in 1u32..(1 << k_slots) {
        if mask & !allowed != 0 {
            continue;
        }
        ps.slots.clear();
        ps.slots
            .extend((0..k_slots).filter(|&s| mask & (1 << s) != 0));
        if ps.slots.len() > n {
            continue;
        }
        let Some(bound) = subset_bound(&ps.lat, n, &ps.slots, &mut ps.mins) else {
            continue;
        };
        if let Some(ms) = best_ms {
            if bound + 1e-12 >= ms {
                counts.masks_pruned += 1;
                continue;
            }
        }
        counts.masks_evaluated += 1;
        let Some(ms) = tables.partition_into(&ps.slots, &mut ps.dp) else {
            continue;
        };
        if best_ms.is_none_or(|b| ms + 1e-12 < b) {
            best_ms = Some(ms);
            ps.best_slots.clone_from(&ps.slots);
            ps.best_splits.clear();
            ps.best_splits.extend_from_slice(ps.dp.splits());
        }
    }
    counts.cells = ps.dp.take_cells();
    let winner = best_ms.map(|ms| (ps.best_slots.clone(), ps.best_splits.clone(), ms));
    (winner, counts)
}

/// Feature switches and limits for the planner.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct PlannerConfig {
    /// Enable the Algorithm-2 re-ordering pass.
    pub contention_mitigation: bool,
    /// Enable Algorithm-3 work stealing.
    pub work_stealing: bool,
    /// Enable the tail-bubble local search.
    pub tail_optimization: bool,
    /// Maximum pipeline depth (number of processor slots used).
    pub max_depth: usize,
    /// Numerical precision the deployment executes at.
    pub precision: h2p_models::cost::Precision,
}

impl Default for PlannerConfig {
    fn default() -> Self {
        PlannerConfig {
            contention_mitigation: true,
            work_stealing: true,
            tail_optimization: true,
            max_depth: 4,
            precision: h2p_models::cost::Precision::Fp32,
        }
    }
}

impl PlannerConfig {
    /// Hysteresis margin for adopting a candidate request re-ordering: a
    /// candidate's contention-aware makespan estimate must undercut the
    /// incumbent's by this factor before the planner switches away from
    /// arrival order. The estimate ranks orders well but not perfectly,
    /// and arrival order is the natural default, so near-ties stick with
    /// the incumbent instead of churning on estimation noise.
    pub const ORDER_HYSTERESIS: f64 = 0.97;

    /// The paper's "No C/T" ablation: contention mitigation and tail
    /// optimization disabled (work stealing stays on).
    pub fn no_ct() -> Self {
        PlannerConfig {
            contention_mitigation: false,
            tail_optimization: false,
            ..PlannerConfig::default()
        }
    }

    /// The number of threads a plan runs on: always 1, since the
    /// planner plans on the calling thread.
    pub fn effective_threads(&self) -> usize {
        1
    }
}

/// A fully planned pipeline, ready for execution.
#[derive(Debug, Clone)]
pub struct PlannedPipeline {
    /// The plan: processor slots and ordered request stage assignments.
    pub plan: PipelinePlan,
    /// Per-request planning contexts, indexed by *original* request index.
    pub contexts: Vec<RequestContext>,
    /// Outcome of the mitigation pass, if it ran.
    pub mitigation: Option<MitigationOutcome>,
    /// Outcome of the work-stealing pass, if it ran.
    pub steal: Option<StealReport>,
    /// Number of tail requests collapsed onto a single processor.
    pub tail_merges: usize,
}

/// The handles of the series a planner records, and those the recovery
/// runner records through it, on the planner's telemetry sink:
/// registered when the planner is built and again whenever
/// [`Planner::set_telemetry`] replaces the sink.
#[derive(Debug, Clone, Copy)]
pub(crate) struct PlannerMetrics {
    scratch_allocs: CounterId,
    masks_evaluated: CounterId,
    masks_pruned: CounterId,
    dp_cells: CounterId,
    partition_hits: CounterId,
    partition_misses: CounterId,
    tables_hits: CounterId,
    tables_misses: CounterId,
    prepare_ms: GaugeId,
    assemble_ms: GaugeId,
    total_ms: GaugeId,
    plan_ms: HistogramId,
    plans: CounterId,
    requests: CounterId,
    tail_merges: CounterId,
    steal_windows: CounterId,
    steal_adjustments: CounterId,
    bubbles_removed_ms: GaugeId,
    mitigation: MitigationMetrics,
    pub(crate) recovery: RecoveryMetrics,
}

impl PlannerMetrics {
    fn register(m: &MetricsRegistry) -> Self {
        Self {
            scratch_allocs: m.counter("planner.dp.scratch_allocs"),
            masks_evaluated: m.counter("planner.dp.masks_evaluated"),
            masks_pruned: m.counter("planner.dp.masks_pruned"),
            dp_cells: m.counter("planner.dp.cells"),
            partition_hits: m.counter("planner.partition.cache_hits"),
            partition_misses: m.counter("planner.partition.cache_misses"),
            tables_hits: m.counter("planner.tables.cache_hits"),
            tables_misses: m.counter("planner.tables.cache_misses"),
            prepare_ms: m.gauge("planner.phase.prepare_ms"),
            assemble_ms: m.gauge("planner.phase.assemble_ms"),
            total_ms: m.gauge("planner.phase.total_ms"),
            plan_ms: m.histogram("planner.plan_ms"),
            plans: m.counter("planner.plans"),
            requests: m.counter("planner.requests"),
            tail_merges: m.counter("planner.tail_merges"),
            steal_windows: m.counter("planner.steal.windows"),
            steal_adjustments: m.counter("planner.steal.adjustments"),
            bubbles_removed_ms: m.gauge("planner.steal.bubbles_removed_ms"),
            mitigation: MitigationMetrics::register(m),
            recovery: RecoveryMetrics::register(m),
        }
    }
}

/// The Hetero²Pipe planner bound to one SoC.
///
/// A planner and its clones share their memos, scratch pool and
/// telemetry sink through `Rc`s, so a planner stays on the thread that
/// made it; sharing one with another thread does not compile:
///
/// ```compile_fail
/// fn shared<T: Sync>() {}
/// shared::<hetero2pipe::planner::Planner>();
/// ```
#[derive(Debug, Clone)]
pub struct Planner {
    estimator: Estimator,
    config: PlannerConfig,
    /// Shared telemetry sink. Recording is strictly observational: hot
    /// loops count locally and flush once per request, and the frozen
    /// [`Planner::plan_reference`] path stays un-instrumented, so the
    /// bit-identical-output contract is untouched. Clones of a planner
    /// share the sink.
    telemetry: Rc<Telemetry>,
    /// The planner's metric handles on `telemetry`.
    metrics: PlannerMetrics,
    /// Pool of warm [`PlanScratch`] buffers (shared by clones, like the
    /// tables cache): every subset search and every plan's assembly
    /// checks one out, so the steady-state DP is allocation-free. Pool
    /// misses allocate and bump `planner.dp.scratch_allocs`.
    scratch_pool: Rc<RefCell<Vec<PlanScratch>>>,
    /// The pipeline's processor slots ([`Planner::pipeline_procs`]),
    /// fixed by the SoC and the configuration at construction.
    slots: Vec<ProcessorId>,
}

/// Where one position of an assembled order takes its stages from.
#[derive(Debug, Clone, Copy)]
enum RowStages {
    /// The request's step-1 stages.
    Base,
    /// Entry `i` of the order's re-balanced stage vectors.
    Adopted(usize),
    /// The request's collapse candidate on this slot.
    Collapsed(usize),
}

/// One candidate order after the vertical passes (steps 2–3), held in
/// buffers the planner's scratch pool reuses: the stages of a position
/// are read from step 1, from a vector work stealing built, or from a
/// collapse candidate, never copied.
#[derive(Debug, Default)]
struct Assembly {
    /// `order[pos]` = original index of the request at `pos`.
    order: Vec<usize>,
    rows: Vec<RowStages>,
    /// The stage vectors work stealing built, with their positions.
    adopted: Vec<(usize, Vec<Option<StagePlan>>)>,
    /// The tail search's merges, `(original request, slot)`.
    merges: Vec<(usize, usize)>,
    steal: Option<StealReport>,
    /// The contention-aware makespan estimate the order is ranked by.
    estimate_ms: f64,
}

impl Assembly {
    /// The stages position `pos` ended with.
    fn stages<'a>(&'a self, pos: usize, step1: &Step1<'a>) -> &'a [Option<StagePlan>] {
        let orig = self.order[pos];
        match self.rows[pos] {
            RowStages::Base => &step1.plans[orig].stages,
            RowStages::Adopted(i) => &self.adopted[i].1,
            RowStages::Collapsed(slot) => step1.collapse[orig][slot]
                .as_ref()
                .map_or(&[], |(stages, _)| stages.as_slice()),
        }
    }
}

/// What every candidate assembly reads from step 1, by original index.
struct Step1<'a> {
    plans: &'a [RequestPlan],
    contexts: &'a [RequestContext],
    /// Non-empty exactly when tail optimization is on.
    collapse: &'a [Arc<CollapseSlots>],
    /// Each request's staging key ([`plan::model_key`]).
    keys: &'a [u64],
}

/// A request set after step 1 ([`Planner::prepare`]), and the one place
/// steps 2–3 run: [`Prepared::score`] assembles any order of the set
/// (work stealing, the tail search, then the contention-aware estimate)
/// in the planner's pooled buffers, [`Prepared::keep`] adopts the order
/// scored last, and [`Prepared::into_plan`] turns the kept order into a
/// plan. [`Planner::plan`] ranks its candidate orders through it, and so
/// do the Fig. 8(a) order searches (`h2p_baselines::exhaustive` and
/// `annealing`).
///
/// A `Prepared` holds one scratch checked out of its planner's pool and
/// returns it when dropped.
#[derive(Debug)]
pub struct Prepared<'p> {
    planner: &'p Planner,
    /// Step-1 plans and contexts, by original index.
    plans: Vec<RequestPlan>,
    contexts: Vec<RequestContext>,
    /// Each request's single-slot collapse candidates, shared with its
    /// tables entry; non-empty exactly when tail optimization is on.
    collapse: Vec<Arc<CollapseSlots>>,
    scratch: PlanScratch,
    /// `scratch.candidate` holds an order scored since the last keep.
    scored: bool,
    /// `scratch.best` holds a kept order.
    kept: bool,
}

impl Prepared<'_> {
    /// Steps 2–3 for `order` (`order[pos]` = original index of the
    /// request at `pos`, a permutation of the set's indices): the step-1
    /// stages are loaded into the pass grid, work stealing and the tail
    /// search run on it as the planner's configuration enables them, and
    /// the order's contention-aware makespan estimate is returned. The
    /// assembly is held until the next `score`, for [`Prepared::keep`].
    pub fn score(&mut self, order: impl IntoIterator<Item = usize>) -> f64 {
        let Prepared {
            planner,
            plans,
            contexts,
            collapse,
            scratch,
            scored,
            ..
        } = self;
        let PlanScratch {
            pass,
            estimate,
            candidate,
            keys,
            ..
        } = scratch;
        let step1 = Step1 {
            plans,
            contexts,
            collapse,
            keys,
        };
        planner.assemble(&step1, order.into_iter(), candidate, pass, estimate);
        *scored = true;
        candidate.estimate_ms
    }

    /// Adopts the order scored last; a no-op when it is already kept.
    pub fn keep(&mut self) {
        if std::mem::take(&mut self.scored) {
            let PlanScratch {
                best, candidate, ..
            } = &mut self.scratch;
            std::mem::swap(best, candidate);
            self.kept = true;
        }
    }

    /// The plan of the order scored last, its stages copied: what a
    /// caller that ranks orders by simulating them executes.
    ///
    /// # Panics
    ///
    /// Panics if no order was scored yet.
    pub fn scored_plan(&self) -> PipelinePlan {
        assert!(self.scored || self.kept, "no order was scored yet");
        let last = if self.scored {
            &self.scratch.candidate
        } else {
            &self.scratch.best
        };
        let step1 = Step1 {
            plans: &self.plans,
            contexts: &self.contexts,
            collapse: &self.collapse,
            keys: &self.scratch.keys,
        };
        let requests = last
            .order
            .iter()
            .enumerate()
            .map(|(pos, &orig)| {
                let p = &self.plans[orig];
                RequestPlan {
                    request: p.request,
                    model: p.model.clone(),
                    stages: last.stages(pos, &step1).to_vec(),
                    intensity: p.intensity,
                    class: p.class,
                }
            })
            .collect();
        PipelinePlan {
            procs: self.planner.pipeline_procs().to_vec(),
            requests,
        }
    }

    /// The kept order as a plan (the arrival order's when none was
    /// kept): the step-1 plans sorted into it (an unstable sort by
    /// position never allocates), each position given the stages it
    /// ended with, and only the collapsed requests' contexts replaced.
    /// `mitigation` is left `None`: whether the order came from
    /// Algorithm 2 is the caller's knowledge.
    pub fn into_plan(mut self) -> PlannedPipeline {
        let m = self.plans.len();
        if !self.kept {
            self.score(0..m);
            self.keep();
        }
        let PlanScratch { best, inverse, .. } = &mut self.scratch;
        inverse.clear();
        inverse.resize(m, 0);
        for (pos, &orig) in best.order.iter().enumerate() {
            inverse[orig] = pos;
        }
        let mut requests = std::mem::take(&mut self.plans);
        requests.sort_unstable_by_key(|r| inverse[r.request]);
        for (req, &row) in requests.iter_mut().zip(&best.rows) {
            match row {
                RowStages::Base => {}
                RowStages::Adopted(i) => {
                    req.stages = std::mem::take(&mut best.adopted[i].1);
                }
                RowStages::Collapsed(slot) => {
                    if let Some((stages, _)) = &self.collapse[req.request][slot] {
                        req.stages.clone_from(stages);
                    }
                }
            }
        }
        let mut contexts = std::mem::take(&mut self.contexts);
        worksteal::apply_merges(&mut contexts, &self.collapse, &best.merges);
        PlannedPipeline {
            plan: PipelinePlan {
                procs: self.planner.pipeline_procs().to_vec(),
                requests,
            },
            contexts,
            mitigation: None,
            steal: best.steal,
            tail_merges: best.merges.len(),
        }
    }
}

impl Drop for Prepared<'_> {
    /// Returns the scratch to the planner's pool, which keeps buffers,
    /// not stage vectors, between plans.
    fn drop(&mut self) {
        let mut scratch = std::mem::take(&mut self.scratch);
        scratch.best.adopted.clear();
        scratch.candidate.adopted.clear();
        self.planner.scratch_pool.borrow_mut().push(scratch);
    }
}

impl Planner {
    /// Creates a planner with the default configuration, training the
    /// contention-intensity model on the built-in zoo.
    ///
    /// # Errors
    ///
    /// Returns [`PlanError`] if the SoC lacks a big CPU cluster or the
    /// intensity regression cannot be trained.
    pub fn new(soc: &SocSpec) -> Result<Self, PlanError> {
        Self::with_config(soc, PlannerConfig::default())
    }

    /// Creates a planner with an explicit configuration.
    ///
    /// # Errors
    ///
    /// Same as [`Planner::new`].
    pub fn with_config(soc: &SocSpec, config: PlannerConfig) -> Result<Self, PlanError> {
        let mut slots = soc.processors_by_power();
        slots.truncate(config.max_depth.max(1));
        let telemetry = Rc::<Telemetry>::default();
        Ok(Planner {
            estimator: Estimator::with_precision(soc, config.precision)?,
            config,
            metrics: PlannerMetrics::register(&telemetry.metrics),
            telemetry,
            scratch_pool: Rc::default(),
            slots,
        })
    }

    /// Checks a [`PlanScratch`] out of the pool, allocating a fresh one
    /// only on a pool miss. Planning checks out one scratch at a time, so
    /// the pool holds a single scratch.
    fn checkout_scratch(&self) -> PlanScratch {
        let popped = self.scratch_pool.borrow_mut().pop();
        popped.unwrap_or_else(|| {
            self.telemetry.metrics.inc(self.metrics.scratch_allocs);
            PlanScratch::default()
        })
    }

    /// Runs `f` on a checked-out scratch and returns the scratch for
    /// reuse.
    fn with_plan_scratch<R>(&self, f: impl FnOnce(&mut PlanScratch) -> R) -> R {
        let mut scratch = self.checkout_scratch();
        let out = f(&mut scratch);
        self.scratch_pool.borrow_mut().push(scratch);
        out
    }

    /// The planner's telemetry sink (metrics registry + span recorder).
    pub fn telemetry(&self) -> &Rc<Telemetry> {
        &self.telemetry
    }

    /// Replaces the telemetry sink, e.g. to share one registry between
    /// several planners or with the CLI exporter, and registers the
    /// planner's metrics on it.
    pub fn set_telemetry(&mut self, telemetry: Rc<Telemetry>) {
        self.metrics = PlannerMetrics::register(&telemetry.metrics);
        self.telemetry = telemetry;
    }

    /// The planner's metric handles on its telemetry sink.
    pub(crate) fn metrics(&self) -> &PlannerMetrics {
        &self.metrics
    }

    /// The SoC this planner targets.
    pub fn soc(&self) -> &SocSpec {
        self.estimator.cost().soc()
    }

    /// The planner's estimator (cost + intensity models).
    pub fn estimator(&self) -> &Estimator {
        &self.estimator
    }

    /// The active configuration.
    pub fn config(&self) -> &PlannerConfig {
        &self.config
    }

    /// The pipeline's processor slots: power-ranked, truncated to
    /// `max_depth`.
    pub fn pipeline_procs(&self) -> &[ProcessorId] {
        &self.slots
    }

    /// Horizontal step only: the best feasible partition of one request
    /// over the pipeline slots, trying every ordered processor subset and
    /// keeping the minimum makespan (P1).
    ///
    /// This is the original self-contained implementation — it rebuilds a
    /// cost table per processor subset. The planning path uses the cached
    /// equivalent over [`Estimator::tables`]; both pick the same subset
    /// and splits.
    ///
    /// # Errors
    ///
    /// Returns [`PlanError::NoFeasiblePipeline`] if the model cannot be
    /// placed at all.
    pub fn plan_request(
        &self,
        graph: &ModelGraph,
    ) -> Result<(RequestContext, Vec<usize>, f64), PlanError> {
        let procs = self.pipeline_procs();
        let k_slots = procs.len();
        let cost = self.estimator.cost();
        let mut best: Option<(RequestContext, Vec<usize>, f64)> = None;
        for mask in 1u32..(1 << k_slots) {
            let slots: Vec<usize> = (0..k_slots).filter(|&s| mask & (1 << s) != 0).collect();
            if slots.len() > graph.len() {
                continue;
            }
            let ctx = self.estimator.context(graph, procs, slots);
            let stages = ctx.stage_count();
            let Some(p) =
                min_max_partition(graph.len(), stages, |a, i, j| ctx.stage_cost(cost, a, i, j))
            else {
                continue;
            };
            if best
                .as_ref()
                .is_none_or(|(_, _, ms)| p.makespan_ms + 1e-12 < *ms)
            {
                best = Some((ctx, p.splits, p.makespan_ms));
            }
        }
        best.ok_or_else(|| PlanError::NoFeasiblePipeline {
            model: graph.name().to_owned(),
        })
    }

    /// The cached, memoized equivalent of [`Planner::plan_request`]:
    /// Algorithm 1 restricted to the `allowed` slot mask (bit `s` =
    /// pipeline slot `s`; planning passes every slot, recovery replans
    /// pass the surviving slots, see
    /// [`crate::recovery::replan_on_survivors`]).
    ///
    /// The search runs at most once per `(tables entry, mask)`: its
    /// winner, or its infeasibility, is stored on the entry together
    /// with the stage vector built from it, and every later call with
    /// the same mask returns the stored [`RequestPartition`]. The memo key is
    /// the entry (model graph and pipeline-processor list, see
    /// [`Estimator::tables_cached`]) plus the mask normalised to the slot
    /// count. A hit is exactly as correct as recomputing, because the
    /// search reads nothing but the tables and the mask; debug builds
    /// re-run the search on every hit and assert the stored answer
    /// matches it bit for bit, and re-check every winner against the
    /// Option-oracle DP. An entry holds at most 2^K answers, so the memo
    /// grows only with the tables cache itself. Hits and misses count as
    /// `planner.partition.cache_hits` / `_misses`; the DP counters
    /// (`planner.dp.*`) grow on misses only.
    /// On the h2pbench workloads, every timed plan-batch lookup hits and
    /// serve-chaos survivor replans hit 79% of the time.
    ///
    /// # Errors
    ///
    /// Returns [`PlanError::NoFeasiblePipeline`] if no subset of the mask
    /// can host the model.
    pub fn plan_request_cached(
        &self,
        tables: &RequestTables,
        allowed: u32,
    ) -> Result<Arc<RequestPartition>, PlanError> {
        let allowed = slot_mask(allowed, tables.slot_count());
        let (metrics, h) = (&self.telemetry.metrics, &self.metrics);
        let (solved, hit) = {
            let mut memo = tables.partitions();
            if let Some(solved) = memo.get(allowed) {
                (solved.clone(), true)
            } else {
                let (winner, counts) =
                    self.with_plan_scratch(|ps| search_subsets(tables, allowed, ps));
                metrics.add(h.masks_evaluated, counts.masks_evaluated);
                metrics.add(h.masks_pruned, counts.masks_pruned);
                metrics.add(h.dp_cells, counts.cells);
                let solved = winner.and_then(|(slots, splits, makespan_ms)| {
                    let ctx = tables.context(slots);
                    let stages =
                        ctx.build_stages(self.estimator.cost(), &splits, tables.slot_count())?;
                    Some(Arc::new(RequestPartition {
                        ctx,
                        splits,
                        makespan_ms,
                        stages,
                    }))
                });
                memo.solved.push((allowed, solved.clone()));
                (solved, false)
            }
        };
        metrics.inc(if hit {
            h.partition_hits
        } else {
            h.partition_misses
        });
        #[cfg(debug_assertions)]
        self.debug_check_partition(tables, allowed, hit, solved.as_deref());
        solved.ok_or_else(|| PlanError::NoFeasiblePipeline {
            model: tables.graph().name().to_owned(),
        })
    }

    /// Debug-build gate of [`Planner::plan_request_cached`]: a memo hit
    /// must equal a fresh search bit for bit, and every winner must equal
    /// the Option-oracle reference DP on its subset. Neither check
    /// touches telemetry or the scratch pool.
    #[cfg(debug_assertions)]
    fn debug_check_partition(
        &self,
        tables: &RequestTables,
        allowed: u32,
        hit: bool,
        solved: Option<&RequestPartition>,
    ) {
        let cost = self.estimator.cost();
        if hit {
            let (fresh, _) = search_subsets(tables, allowed, &mut PlanScratch::default());
            match (solved, fresh) {
                (None, None) => {}
                (Some(p), Some((slots, splits, ms))) => {
                    debug_assert_eq!(p.ctx.active_slots, slots, "memoized subset");
                    debug_assert_eq!(p.splits, splits, "memoized splits");
                    debug_assert_eq!(p.makespan_ms.to_bits(), ms.to_bits(), "memoized makespan");
                    debug_assert!(
                        tables
                            .context(slots)
                            .build_stages(cost, &splits, tables.slot_count())
                            .as_deref()
                            == Some(p.stages.as_slice()),
                        "memoized stage vector"
                    );
                }
                (memo, fresh) => panic!(
                    "partition memo diverged from a fresh search under mask {allowed:#b}: \
                     memo feasible={}, fresh feasible={}",
                    memo.is_some(),
                    fresh.is_some()
                ),
            }
        }
        if let Some(p) = solved {
            let ctx = &p.ctx;
            let n = tables.graph().len();
            match min_max_partition(n, ctx.stage_count(), |a, i, j| {
                ctx.stage_cost(cost, a, i, j)
            }) {
                Some(o) => {
                    debug_assert_eq!(
                        o.makespan_ms.to_bits(),
                        p.makespan_ms.to_bits(),
                        "kernel makespan"
                    );
                    debug_assert_eq!(o.splits, p.splits, "kernel splits");
                }
                None => panic!("kernel found a partition the oracle DP rejects"),
            }
        }
    }

    /// The tail-collapse candidates of `tables`' model, built once per
    /// entry and shared by every request that plans it.
    fn collapse_cached(&self, tables: &RequestTables) -> Arc<CollapseSlots> {
        let mut memo = tables.partitions();
        let collapse = memo.collapse.get_or_insert_with(|| {
            Arc::new(worksteal::collapse_candidates(
                tables,
                self.estimator.cost(),
                tables.slot_count(),
            ))
        });
        Arc::clone(collapse)
    }

    /// [`Estimator::tables_cached`], counting the lookup as
    /// `planner.tables.cache_hits` or `_misses`.
    pub(crate) fn tables_cached(
        &self,
        graph: &ModelGraph,
        procs: &[ProcessorId],
    ) -> Rc<RequestTables> {
        let (tables, hit) = self.estimator.tables_cached(graph, procs);
        self.telemetry.metrics.inc(if hit {
            self.metrics.tables_hits
        } else {
            self.metrics.tables_misses
        });
        tables
    }

    /// Step 1 of [`Planner::plan`] over `requests`, one request after
    /// another: each request's memoized partition over every slot, its
    /// contention class and its tail-collapse candidates, all read from
    /// its tables entry. The pooled scratch of steps 2–3 is checked out
    /// after step 1, whose memo misses check out their own, so a miss
    /// does not grow the pool.
    ///
    /// # Errors
    ///
    /// Returns [`PlanError::EmptyRequestSet`] for an empty input and
    /// [`PlanError::NoFeasiblePipeline`] if any model cannot be placed.
    pub fn prepare(&self, requests: &[ModelGraph]) -> Result<Prepared<'_>, PlanError> {
        if requests.is_empty() {
            return Err(PlanError::EmptyRequestSet);
        }
        #[expect(
            clippy::disallowed_methods,
            reason = "phase timing feeds gauges only, never plan bits"
        )]
        let prepare_start = Instant::now();
        let m = requests.len();
        let mut plans = Vec::with_capacity(m);
        let mut contexts = Vec::with_capacity(m);
        let mut collapse = Vec::with_capacity(m);
        {
            span!(self.telemetry.spans, "prepare");
            for (idx, graph) in requests.iter().enumerate() {
                span!(self.telemetry.spans, "prepare:{}:{}", idx, graph.name());
                let tables = self.tables_cached(graph, self.pipeline_procs());
                let partition = self.plan_request_cached(&tables, u32::MAX)?;
                let (intensity, class) = tables.contention();
                if self.config.tail_optimization {
                    collapse.push(self.collapse_cached(&tables));
                }
                contexts.push(partition.ctx.clone());
                plans.push(RequestPlan {
                    request: idx,
                    model: graph.shared_name().clone(),
                    stages: partition.stages.clone(),
                    intensity,
                    class,
                });
            }
        }
        self.telemetry.metrics.gauge_add(
            self.metrics.prepare_ms,
            prepare_start.elapsed().as_secs_f64() * 1e3,
        );
        let mut scratch = self.checkout_scratch();
        scratch.keys.clear();
        scratch
            .keys
            .extend(plans.iter().map(|p| plan::model_key(&p.model)));
        Ok(Prepared {
            planner: self,
            plans,
            contexts,
            collapse,
            scratch,
            scored: false,
            kept: false,
        })
    }

    /// Steps 2–3 for one candidate order, into `out`: the step-1 stages
    /// of `order` are loaded into the pass grid, work stealing and the
    /// tail search run on it, and the order is ranked by its contention
    /// estimate.
    fn assemble(
        &self,
        step1: &Step1<'_>,
        order: impl Iterator<Item = usize>,
        out: &mut Assembly,
        pass: &mut PassScratch,
        estimate: &mut EstimateScratch,
    ) {
        out.order.clear();
        out.order.extend(order);
        let m = out.order.len();
        span!(self.telemetry.spans, "assemble:{}req", m);
        let procs = self.pipeline_procs();
        let order = &out.order;
        out.rows.clear();
        out.rows.resize(m, RowStages::Base);
        out.adopted.clear();
        out.merges.clear();
        pass.load(
            procs.len(),
            order
                .iter()
                .map(|&orig| step1.plans[orig].stages.as_slice()),
        );
        out.steal = self.config.work_stealing.then(|| {
            pass.steal(
                |pos| {
                    let orig = order[pos];
                    (&step1.contexts[orig], step1.plans[orig].stages.as_slice())
                },
                self.estimator.cost(),
                &mut out.adopted,
            )
        });
        for (i, &(pos, _)) in out.adopted.iter().enumerate() {
            out.rows[pos] = RowStages::Adopted(i);
        }
        if self.config.tail_optimization {
            pass.tail(|pos| order[pos], step1.collapse, &mut out.merges);
            for (pos, slot) in &mut out.merges {
                out.rows[*pos] = RowStages::Collapsed(*slot);
                *pos = order[*pos];
            }
        }
        let done = &*out;
        let estimate_ms = plan::contention_makespan_ms(
            self.soc(),
            procs.len(),
            m,
            |pos| done.stages(pos, step1),
            |pos| step1.keys[done.order[pos]],
            estimate,
        );
        out.estimate_ms = estimate_ms;
    }

    /// Runs the full two-step planning pipeline over `requests` on the
    /// calling thread.
    ///
    /// # Errors
    ///
    /// Returns [`PlanError::EmptyRequestSet`] for an empty input and
    /// [`PlanError::NoFeasiblePipeline`] if any model cannot be placed.
    pub fn plan(&self, requests: &[ModelGraph]) -> Result<PlannedPipeline, PlanError> {
        if requests.is_empty() {
            return Err(PlanError::EmptyRequestSet);
        }
        #[expect(
            clippy::disallowed_methods,
            reason = "phase timing feeds gauges only, never plan bits"
        )]
        let total_start = Instant::now();
        span!(self.telemetry.spans, "plan:{}req", requests.len());

        // Step 1: horizontal partitioning, independently per request.
        let mut prepared = self.prepare(requests)?;

        // Steps 2+3: contention mitigation over the request order, then
        // vertical alignment. Both the mitigated and the original order
        // are assembled and the better estimated makespan wins — the
        // re-ordering is a heuristic, so the planner checks it paid off.
        #[expect(
            clippy::disallowed_methods,
            reason = "phase timing feeds gauges only, never plan bits"
        )]
        let assemble_start = Instant::now();
        let m = requests.len();
        let mut best_ms = prepared.score(0..m);
        prepared.keep();
        let mut mitigation = None;
        if self.config.contention_mitigation && m > 1 {
            // Candidate orders, all evaluated with the contention-aware
            // estimate after the full vertical passes: the arrival order
            // (the incumbent), the Algorithm-2 mitigation order, plus two
            // cheap deterministic heuristics (longest-total-first, and a
            // heavy/light interleave that spreads both load and
            // contention).
            let plans = &prepared.plans;
            let classes: Vec<_> = plans.iter().map(|p| p.class).collect();
            let outcome = mitigation::mitigate_instrumented(
                &classes,
                self.pipeline_procs().len(),
                Some((&self.telemetry.metrics, self.metrics.mitigation)),
            );
            let mut by_time: Vec<usize> = (0..m).collect();
            by_time.sort_by(|&a, &b| {
                plans[b]
                    .total_ms()
                    .total_cmp(&plans[a].total_ms())
                    .then(a.cmp(&b))
            });
            let mut interleave = Vec::with_capacity(m);
            let (mut lo, mut hi) = (0usize, by_time.len());
            while lo < hi {
                interleave.push(by_time[lo]);
                lo += 1;
                if lo < hi {
                    hi -= 1;
                    interleave.push(by_time[hi]);
                }
            }
            let candidates: [(Option<&MitigationOutcome>, &[usize]); 3] = [
                (Some(&outcome), &outcome.order),
                (None, &by_time),
                (None, &interleave),
            ];
            for (i, &(mit, order)) in candidates.iter().enumerate() {
                // An order already assembled would reproduce its own
                // estimate, which cannot undercut the hysteresis against
                // itself or against a best that beat it.
                if order.iter().copied().eq(0..m)
                    || candidates[..i].iter().any(|&(_, earlier)| earlier == order)
                {
                    continue;
                }
                let ms = prepared.score(order.iter().copied());
                // Hysteresis: a re-ordering must beat the incumbent's
                // estimate by a clear margin before it is adopted (see
                // `PlannerConfig::ORDER_HYSTERESIS`).
                if ms < best_ms * PlannerConfig::ORDER_HYSTERESIS {
                    best_ms = ms;
                    prepared.keep();
                    mitigation = mit.cloned();
                }
            }
        }
        let mut planned = prepared.into_plan();
        planned.mitigation = mitigation;

        let (metrics, h) = (&self.telemetry.metrics, &self.metrics);
        metrics.gauge_add(h.assemble_ms, assemble_start.elapsed().as_secs_f64() * 1e3);
        metrics.inc(h.plans);
        metrics.add(h.requests, requests.len() as u64);
        metrics.add(h.tail_merges, planned.tail_merges as u64);
        if let Some(s) = &planned.steal {
            metrics.add(h.steal_windows, s.windows as u64);
            metrics.add(h.steal_adjustments, s.adjustments as u64);
            metrics.gauge_add(
                h.bubbles_removed_ms,
                (s.bubbles_before_ms - s.bubbles_after_ms).max(0.0),
            );
        }
        let total_ms = total_start.elapsed().as_secs_f64() * 1e3;
        metrics.gauge_add(h.total_ms, total_ms);
        metrics.observe(h.plan_ms, total_ms);

        // Lifecycle: every request in this invocation was admitted and
        // now has a plan. Events carry simulated time 0 (planning
        // precedes the simulated clock; wall time would break replay
        // determinism), and the trace id derives from the ordered model
        // names, so recovery rounds and report reconstruction land on
        // the same id for the same batch.
        let trace_id = TraceId::of_names(requests.iter().map(ModelGraph::name));
        for r in 0..requests.len() {
            self.telemetry
                .lifecycle
                .record(trace_id, RequestId(r), 0.0, LifecycleStage::Admit);
        }
        for r in 0..requests.len() {
            self.telemetry
                .lifecycle
                .record(trace_id, RequestId(r), 0.0, LifecycleStage::Plan);
        }

        // Debug builds statically verify every plan this planner emits; a
        // lint error here is a planner bug, never an input problem.
        #[cfg(debug_assertions)]
        {
            let diags = planned.lint(self.soc());
            debug_assert!(
                diags.is_clean(),
                "planner produced a plan that fails its own static lint:\n{diags}"
            );
        }
        Ok(planned)
    }

    /// The frozen reference implementation of [`Planner::plan`]: the
    /// original clone-per-mask, rebuild-per-stage code path, kept
    /// verbatim so (a) the equivalence proptest has an
    /// independently-written oracle and (b) `scripts/bench.sh` can record
    /// the baseline the cached planner's speedup is measured against, in
    /// the same run. Produces bit-identical plans to [`Planner::plan`].
    ///
    /// # Errors
    ///
    /// Same as [`Planner::plan`].
    pub fn plan_reference(&self, requests: &[ModelGraph]) -> Result<PlannedPipeline, PlanError> {
        if requests.is_empty() {
            return Err(PlanError::EmptyRequestSet);
        }
        let procs = self.pipeline_procs();
        let k = procs.len();
        let cost = self.estimator.cost();

        // Step 1: horizontal partitioning, sequentially per request.
        let mut contexts: Vec<RequestContext> = Vec::with_capacity(requests.len());
        let mut plans: Vec<RequestPlan> = Vec::with_capacity(requests.len());
        for (idx, graph) in requests.iter().enumerate() {
            let (ctx, splits, _) = self.plan_request(graph)?;
            let stages = ctx.build_stages(cost, &splits, k).ok_or_else(|| {
                PlanError::NoFeasiblePipeline {
                    model: graph.name().to_owned(),
                }
            })?;
            plans.push(RequestPlan {
                request: idx,
                model: graph.shared_name().clone(),
                stages,
                intensity: self.estimator.predict_intensity(graph),
                class: self.estimator.classify(graph),
            });
            contexts.push(ctx);
        }

        let assemble = |ordered: Vec<RequestPlan>,
                        base_ctxs: &[RequestContext]|
         -> (
            PipelinePlan,
            Vec<RequestContext>,
            Option<StealReport>,
            usize,
        ) {
            let mut ctxs = base_ctxs.to_vec();
            let mut plan = PipelinePlan {
                procs: procs.to_vec(),
                requests: ordered,
            };
            let steal = if self.config.work_stealing {
                Some(worksteal::align_by_stealing(&mut plan, |r| &ctxs[r], cost))
            } else {
                None
            };
            let tail = if self.config.tail_optimization {
                worksteal::optimize_tail(&mut plan, &mut ctxs, &self.estimator)
            } else {
                0
            };
            (plan, ctxs, steal, tail)
        };

        // Part of the frozen reference cost profile: the original code
        // cloned the SoC here.
        let soc = self.estimator.cost().soc().clone();
        let mut mitigation = None;
        let mut best = assemble(plans.clone(), &contexts);
        let mut best_est = best.0.estimated_makespan_contention_ms(&soc);
        if self.config.contention_mitigation && plans.len() > 1 {
            let classes: Vec<_> = plans.iter().map(|p| p.class).collect();
            let outcome = mitigation::mitigate(&classes, k);
            let mut by_time: Vec<usize> = (0..plans.len()).collect();
            by_time.sort_by(|&a, &b| {
                plans[b]
                    .total_ms()
                    .total_cmp(&plans[a].total_ms())
                    .then(a.cmp(&b))
            });
            let mut interleave = Vec::with_capacity(plans.len());
            let (mut lo, mut hi) = (0usize, by_time.len());
            while lo < hi {
                interleave.push(by_time[lo]);
                lo += 1;
                if lo < hi {
                    hi -= 1;
                    interleave.push(by_time[hi]);
                }
            }
            let candidates: [(Option<&mitigation::MitigationOutcome>, Vec<usize>); 3] = [
                (Some(&outcome), outcome.order.clone()),
                (None, by_time),
                (None, interleave),
            ];
            for (mit, order) in candidates {
                let reordered: Vec<RequestPlan> = order
                    .iter()
                    .map(|&orig_pos| plans[orig_pos].clone())
                    .collect();
                let candidate = assemble(reordered, &contexts);
                let est = candidate.0.estimated_makespan_contention_ms(&soc);
                if est < best_est * PlannerConfig::ORDER_HYSTERESIS {
                    best_est = est;
                    best = candidate;
                    mitigation = mit.cloned();
                }
            }
        }
        let (plan, contexts, steal, tail_merges) = best;

        let planned = PlannedPipeline {
            plan,
            contexts,
            mitigation,
            steal,
            tail_merges,
        };
        #[cfg(debug_assertions)]
        {
            let diags = planned.lint(self.soc());
            debug_assert!(
                diags.is_clean(),
                "planner produced a plan that fails its own static lint:\n{diags}"
            );
        }
        Ok(planned)
    }

    /// Convenience wrapper planning zoo models by id.
    ///
    /// # Errors
    ///
    /// Same as [`Planner::plan`].
    pub fn plan_models(&self, ids: &[ModelId]) -> Result<PlannedPipeline, PlanError> {
        let graphs: Vec<ModelGraph> = ids.iter().map(|m| m.graph()).collect();
        self.plan(&graphs)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn kirin_planner() -> Planner {
        Planner::new(&SocSpec::kirin_990()).expect("kirin planner")
    }

    #[test]
    fn empty_request_set_is_rejected() {
        let p = kirin_planner();
        assert_eq!(p.plan(&[]).unwrap_err(), PlanError::EmptyRequestSet);
    }

    #[test]
    fn single_request_plans_and_tiles_all_layers() {
        let p = kirin_planner();
        let out = p.plan_models(&[ModelId::ResNet50]).unwrap();
        assert_eq!(out.plan.requests.len(), 1);
        let req = &out.plan.requests[0];
        let n = out.contexts[0].layer_count();
        let covered: usize = req.stages.iter().flatten().map(|s| s.range.len()).sum();
        assert_eq!(covered, n);
    }

    #[test]
    fn bert_reaches_the_npu_through_operator_fallback() {
        let p = kirin_planner();
        let out = p.plan_models(&[ModelId::Bert]).unwrap();
        let req = &out.plan.requests[0];
        // Slot 0 is the NPU on Kirin 990 — BERT's embedding is
        // NPU-unsupported, but operator fallback lets the encoder body
        // still run there (the paper's sub-model forwarding), so a good
        // plan uses the NPU rather than abandoning it.
        let npu_stage = req.stages[0].as_ref().expect("NPU slot used");
        if npu_stage.range.first == 0 {
            assert!(
                !npu_stage.runs.is_empty(),
                "a slice containing the embedding must carry fallback runs"
            );
        }
    }

    #[test]
    fn yolov4_is_placeable_despite_unsupported_ops() {
        let p = kirin_planner();
        let out = p.plan_models(&[ModelId::YoloV4]).unwrap();
        assert_eq!(out.plan.requests.len(), 1);
    }

    #[test]
    fn multi_request_plan_preserves_all_requests() {
        let p = kirin_planner();
        let ids = [
            ModelId::Vgg16,
            ModelId::SqueezeNet,
            ModelId::Bert,
            ModelId::MobileNetV2,
            ModelId::ResNet50,
            ModelId::GoogLeNet,
        ];
        let out = p.plan_models(&ids).unwrap();
        assert_eq!(out.plan.requests.len(), ids.len());
        let mut originals: Vec<usize> = out.plan.requests.iter().map(|r| r.request).collect();
        originals.sort_unstable();
        assert_eq!(originals, (0..ids.len()).collect::<Vec<_>>());
    }

    #[test]
    fn mitigation_spreads_high_contention_requests() {
        let p = kirin_planner();
        // Several high-contention models in a row.
        let ids = [
            ModelId::SqueezeNet,
            ModelId::GoogLeNet,
            ModelId::Vgg16,
            ModelId::ResNet50,
            ModelId::MobileNetV2,
            ModelId::Vit,
            ModelId::InceptionV4,
            ModelId::AlexNet,
        ];
        let out = p.plan_models(&ids).unwrap();
        if let Some(m) = &out.mitigation {
            if m.resolved {
                let classes: Vec<_> = out.plan.requests.iter().map(|r| r.class).collect();
                assert!(!crate::mitigation::has_conflict(&classes, out.plan.depth()));
            }
        }
    }

    #[test]
    fn no_ct_config_skips_mitigation_and_tail() {
        let p = Planner::with_config(&SocSpec::kirin_990(), PlannerConfig::no_ct()).unwrap();
        let out = p
            .plan_models(&[ModelId::SqueezeNet, ModelId::GoogLeNet, ModelId::Vgg16])
            .unwrap();
        assert!(out.mitigation.is_none());
        assert_eq!(out.tail_merges, 0);
        assert!(out.steal.is_some(), "work stealing stays on in No C/T");
    }

    #[test]
    fn planning_works_without_an_npu() {
        let p = Planner::new(&SocSpec::snapdragon_870()).unwrap();
        let out = p
            .plan_models(&[ModelId::Bert, ModelId::ResNet50, ModelId::SqueezeNet])
            .unwrap();
        assert_eq!(out.plan.depth(), 3, "CPU_B + GPU + CPU_S");
        assert_eq!(out.plan.requests.len(), 3);
    }

    #[test]
    fn max_depth_limits_slots() {
        let cfg = PlannerConfig {
            max_depth: 2,
            ..PlannerConfig::default()
        };
        let p = Planner::with_config(&SocSpec::kirin_990(), cfg).unwrap();
        let out = p.plan_models(&[ModelId::ResNet50]).unwrap();
        assert_eq!(out.plan.depth(), 2);
    }

    #[test]
    fn planning_is_deterministic() {
        let p = kirin_planner();
        let ids = [ModelId::Bert, ModelId::SqueezeNet, ModelId::Vit];
        let a = p.plan_models(&ids).unwrap();
        let b = p.plan_models(&ids).unwrap();
        assert_eq!(a.plan, b.plan);
    }

    /// The determinism contract: the cached path must reproduce the
    /// frozen reference bit-for-bit. (The proptest suite widens this over
    /// random workloads.)
    #[test]
    fn plan_matches_reference() {
        let p = kirin_planner();
        let workloads: [&[ModelId]; 4] = [
            &[ModelId::ResNet50],
            &[ModelId::Bert, ModelId::SqueezeNet, ModelId::Vit],
            &[
                ModelId::Vgg16,
                ModelId::SqueezeNet,
                ModelId::Bert,
                ModelId::MobileNetV2,
                ModelId::ResNet50,
                ModelId::GoogLeNet,
            ],
            &[
                ModelId::YoloV4,
                ModelId::AlexNet,
                ModelId::InceptionV4,
                ModelId::Vit,
                ModelId::GoogLeNet,
            ],
        ];
        for ids in workloads {
            let graphs: Vec<ModelGraph> = ids.iter().map(|m| m.graph()).collect();
            let reference = p.plan_reference(&graphs).unwrap();
            let out = p.plan(&graphs).unwrap();
            assert_eq!(out.plan, reference.plan, "{ids:?}");
            assert_eq!(
                out.plan.estimated_makespan_ms().to_bits(),
                reference.plan.estimated_makespan_ms().to_bits(),
                "{ids:?}: makespan bits differ"
            );
            assert_eq!(out.tail_merges, reference.tail_merges, "{ids:?}");
            assert_eq!(out.steal, reference.steal, "{ids:?}");
            assert_eq!(
                out.mitigation.is_some(),
                reference.mitigation.is_some(),
                "{ids:?}"
            );
        }
    }

    #[test]
    fn no_ct_also_matches_reference() {
        let p = Planner::with_config(&SocSpec::kirin_990(), PlannerConfig::no_ct()).unwrap();
        let graphs: Vec<ModelGraph> = [ModelId::SqueezeNet, ModelId::GoogLeNet, ModelId::Vgg16]
            .iter()
            .map(|m| m.graph())
            .collect();
        let reference = p.plan_reference(&graphs).unwrap();
        let out = p.plan(&graphs).unwrap();
        assert_eq!(out.plan, reference.plan);
    }

    /// Adding a processor never raises the subset-search optimum: for
    /// every zoo model on every evaluation SoC and every pair of
    /// allowed-slot masks `a ⊆ b`, a feasible `a` implies a feasible `b`
    /// that is no worse up to the strict-improvement epsilon, and the
    /// chosen slots always lie inside the mask searched. Every mask is
    /// searched twice: the second call must be a memo hit that runs no
    /// DP and returns the same bits.
    #[test]
    fn larger_allowed_mask_never_raises_the_optimum() {
        let mut feasible_pairs = 0usize;
        for soc in SocSpec::evaluation_platforms() {
            let p = Planner::new(&soc).unwrap();
            let procs = p.pipeline_procs();
            let full = (1u32 << procs.len()) - 1;
            let counter = |name: &str| p.telemetry().metrics.snapshot().counter(name).unwrap_or(0);
            for id in ModelId::ALL {
                let (tables, _) = p.estimator().tables_cached(&id.graph(), procs);
                let best: Vec<Option<f64>> = (0..=full)
                    .map(|mask| {
                        let first = p.plan_request_cached(&tables, mask);
                        let (hits, cells) = (
                            counter("planner.partition.cache_hits"),
                            counter("planner.dp.cells"),
                        );
                        let second = p.plan_request_cached(&tables, mask);
                        assert_eq!(
                            counter("planner.partition.cache_hits"),
                            hits + 1,
                            "{id:?} on {}: repeat of mask {mask:#b} missed the memo",
                            soc.name
                        );
                        assert_eq!(
                            counter("planner.dp.cells"),
                            cells,
                            "{id:?} on {}: repeat of mask {mask:#b} ran the DP",
                            soc.name
                        );
                        let (first, second) = match (first, second) {
                            (Ok(a), Ok(b)) => (a, b),
                            (Err(a), Err(b)) => {
                                assert_eq!(a, b);
                                return None;
                            }
                            (a, b) => panic!(
                                "{id:?} on {}: mask {mask:#b} feasibility changed on repeat \
                                 ({} then {})",
                                soc.name,
                                a.is_ok(),
                                b.is_ok()
                            ),
                        };
                        assert_eq!(first.ctx.active_slots, second.ctx.active_slots);
                        assert_eq!(first.splits, second.splits);
                        assert_eq!(first.makespan_ms.to_bits(), second.makespan_ms.to_bits());
                        assert_eq!(first.stages, second.stages);
                        for &s in &first.ctx.active_slots {
                            assert_ne!(
                                mask & (1 << s),
                                0,
                                "{id:?} on {}: slot {s} outside mask {mask:#b}",
                                soc.name
                            );
                        }
                        Some(first.makespan_ms)
                    })
                    .collect();
                for b in 1..=full {
                    for a in (1..=full).filter(|&a| a & !b == 0) {
                        let Some(ms_a) = best[a as usize] else {
                            continue;
                        };
                        feasible_pairs += 1;
                        let ms_b = best[b as usize].unwrap_or_else(|| {
                            panic!("{id:?} on {}: {a:#b} feasible, {b:#b} not", soc.name)
                        });
                        assert!(
                            ms_b <= ms_a + 1e-12,
                            "{id:?} on {}: mask {b:#b} ({ms_b}) worse than {a:#b} ({ms_a})",
                            soc.name
                        );
                    }
                }
            }
        }
        assert!(feasible_pairs > 0);
    }

    /// `Planner` and `OnlinePlanner` share their memos, scratch pool and
    /// telemetry sink through `Rc`s, so neither may move to or be shared
    /// with another thread. Each call below names one impl when the type
    /// lacks the marker and fails to compile (ambiguous impls) when it
    /// has it.
    #[test]
    fn planners_are_neither_send_nor_sync() {
        trait AmbiguousIfSend<A> {
            fn check() {}
        }
        impl<T: ?Sized> AmbiguousIfSend<()> for T {}
        impl<T: ?Sized + Send> AmbiguousIfSend<u8> for T {}
        trait AmbiguousIfSync<A> {
            fn check() {}
        }
        impl<T: ?Sized> AmbiguousIfSync<()> for T {}
        impl<T: ?Sized + Sync> AmbiguousIfSync<u8> for T {}
        <Planner as AmbiguousIfSend<_>>::check();
        <Planner as AmbiguousIfSync<_>>::check();
        <crate::online::OnlinePlanner as AmbiguousIfSend<_>>::check();
        <crate::online::OnlinePlanner as AmbiguousIfSync<_>>::check();
    }

    #[test]
    fn hysteresis_margin_is_the_documented_constant() {
        assert_eq!(PlannerConfig::ORDER_HYSTERESIS, 0.97);
    }

    #[test]
    fn planning_records_phase_metrics_and_spans() {
        let p = kirin_planner();
        let ids = [ModelId::Bert, ModelId::SqueezeNet, ModelId::Vit];
        p.plan_models(&ids).unwrap();
        let snap = p.telemetry().metrics.snapshot();
        assert_eq!(snap.counter("planner.plans"), Some(1));
        assert_eq!(snap.counter("planner.requests"), Some(ids.len() as u64));
        assert!(snap.counter("planner.dp.masks_evaluated").unwrap_or(0) > 0);
        assert!(snap.counter("planner.dp.cells").unwrap_or(0) > 0);
        assert!(snap.gauge("planner.phase.prepare_ms").unwrap_or(-1.0) >= 0.0);
        assert!(snap.gauge("planner.phase.assemble_ms").unwrap_or(-1.0) >= 0.0);
        assert!(snap.gauge("planner.phase.total_ms").unwrap_or(-1.0) >= 0.0);
        // Mitigation ran instrumented (three requests, mitigation on).
        assert_eq!(snap.counter("mitigation.passes"), Some(1));
        // Span tree: one plan root that every other span nests under,
        // one prepare phase, one closed span per request, one assemble
        // per candidate order.
        let spans = p.telemetry().spans.records();
        assert!(spans.iter().all(|s| s.is_closed()));
        assert_eq!(spans.iter().filter(|s| s.parent.is_none()).count(), 1);
        assert_eq!(spans.iter().filter(|s| s.name == "plan:3req").count(), 1);
        assert_eq!(spans.iter().filter(|s| s.name == "prepare").count(), 1);
        assert_eq!(
            spans
                .iter()
                .filter(|s| s.name.starts_with("prepare:"))
                .count(),
            ids.len()
        );
        assert!(spans.iter().any(|s| s.name.starts_with("assemble:")));
    }

    /// An all-𝕃 batch in descending-total order: the mitigation order and
    /// the longest-first order both equal the arrival order, so only the
    /// arrival order and the heavy/light interleave are assembled, one
    /// `assemble:` span each. The frozen reference still assembles all
    /// four orders and must agree.
    #[test]
    fn orders_equal_to_an_assembled_one_are_skipped() {
        let p = kirin_planner();
        let ids = [
            ModelId::YoloV4,
            ModelId::Vit,
            ModelId::InceptionV4,
            ModelId::Bert,
            ModelId::ResNet50,
        ];
        let graphs: Vec<ModelGraph> = ids.iter().map(|m| m.graph()).collect();
        let out = p.plan(&graphs).unwrap();
        assert!(
            out.plan.requests.iter().all(|r| !r.class.is_high()),
            "the batch must be all-𝕃"
        );
        let assemblies = p
            .telemetry()
            .spans
            .records()
            .iter()
            .filter(|s| s.name.starts_with("assemble:"))
            .count();
        assert_eq!(assemblies, 2, "arrival order and interleave only");

        let reference = p.plan_reference(&graphs).unwrap();
        assert_eq!(out.plan, reference.plan);
        assert_eq!(out.steal, reference.steal);
        assert_eq!(out.tail_merges, reference.tail_merges);
        assert_eq!(out.mitigation.is_some(), reference.mitigation.is_some());
        for (a, b) in out.contexts.iter().zip(&reference.contexts) {
            assert_eq!(a.active_slots, b.active_slots);
        }
    }

    /// `set_telemetry` registers the planner's metrics on the new sink:
    /// a plan records into it what a planner that kept its own sink
    /// records, even where the new sink numbers its metrics differently,
    /// and nothing into the sink it replaced.
    #[test]
    fn set_telemetry_moves_recording_to_the_new_sink() {
        let ids = [ModelId::Bert, ModelId::SqueezeNet, ModelId::Vit];
        let own = kirin_planner();
        own.plan_models(&ids).unwrap();
        let mut p = kirin_planner();
        let previous = Rc::clone(p.telemetry());
        let shared = Rc::new(Telemetry::new());
        shared.metrics.inc("audit.checks");
        p.set_telemetry(Rc::clone(&shared));
        p.plan_models(&ids).unwrap();
        assert!(previous.metrics.snapshot().is_empty());
        let mut counters = shared.metrics.snapshot().counters;
        assert_eq!(counters.remove("audit.checks"), Some(1));
        assert_eq!(counters, own.telemetry().metrics.snapshot().counters);
        assert_eq!(counters.get("planner.plans"), Some(&1));
    }

    #[test]
    fn telemetry_does_not_perturb_plans() {
        // A planner that has already recorded telemetry produces the
        // same plan as a fresh one and as the frozen reference.
        let warm = kirin_planner();
        let ids = [ModelId::Vgg16, ModelId::Bert, ModelId::SqueezeNet];
        let graphs: Vec<ModelGraph> = ids.iter().map(|m| m.graph()).collect();
        let first = warm.plan(&graphs).unwrap();
        let second = warm.plan(&graphs).unwrap();
        assert_eq!(first.plan, second.plan);
        assert_eq!(first.plan, warm.plan_reference(&graphs).unwrap().plan);
        assert_eq!(
            warm.telemetry().metrics.snapshot().counter("planner.plans"),
            Some(2)
        );
    }
}
