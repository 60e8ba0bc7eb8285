//! Vertical alignment by work stealing (Sec. V-C, Algorithm 3) and tail
//! bubble optimization.
//!
//! After horizontal partitioning, each request is individually min-max
//! balanced, but *across* requests the stage times disagree, creating
//! pipeline bubbles (Def. 3). Work stealing slides a contention window of
//! `K` positions over the request sequence, finds the window's critical
//! path (the request with the largest total time), and re-balances the
//! other requests' split points so their stage times align with the
//! critical request's — moving layers between adjacent stages exactly as
//! Algorithm 3's left/right stealing does.
//!
//! The tail phase exploits an inference-only freedom the paper points out:
//! unlike pipelined training, the draining tail of the pipeline can be
//! collapsed — the last requests may abandon their deep pipelines and run
//! on a single processor if that shrinks the tail bubbles. The search
//! space is only `K` options per request, so it is searched exhaustively.
//!
//! Every adjustment is guarded: a candidate re-balance is kept only if it
//! does not increase the plan's total bubbles (stealing) or estimated
//! makespan (tail), so both passes are monotone improvements by
//! construction.
//!
//! Both passes price a candidate incrementally. A request at position
//! `pos` occupies exactly the `K` columns `pos..pos + K`, so a column
//! ledger keeps one value per column (its bubble, or its longest cell),
//! recomputes only those `K` columns for a candidate, and re-sums every
//! column in column order. The re-sum adds the same per-column
//! values in the same order as [`PipelinePlan::total_bubble_ms`] and
//! [`PipelinePlan::estimated_makespan_ms`], so every guarded accept
//! compares exactly the value a whole-plan rescan would return.

use h2p_models::cost::CostModel;

use crate::estimate::{Estimator, RequestContext, RequestTables};
use crate::plan::{PipelinePlan, StagePlan};
use crate::sync::Arc;

/// Precomputed single-slot collapse candidates for one request: entry
/// `slot` holds the stages and derived context of running the whole model
/// alone on that slot, or `None` where the model is infeasible there.
/// Computed once per cost-tables entry, shared behind an `Arc` by every
/// request that plans the model, and reused across every candidate-order
/// assembly.
pub type CollapseSlots = Vec<Option<(Vec<Option<StagePlan>>, RequestContext)>>;

/// Outcome statistics of the vertical-alignment passes.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct StealReport {
    /// Number of contention windows visited.
    pub windows: usize,
    /// Number of requests whose splits were re-balanced.
    pub adjustments: usize,
    /// Number of tail requests collapsed onto a single processor.
    pub tail_merges: usize,
    /// Total plan bubbles before any adjustment.
    pub bubbles_before_ms: f64,
    /// Total plan bubbles after all adjustments.
    pub bubbles_after_ms: f64,
}

/// Greedily re-partitions a request so its per-stage times track
/// `targets` (one target per active stage), instead of min-max balance.
/// Walks the layer chain left to right, ending each stage at the boundary
/// whose cost is closest to the target (Algorithm 3's layer-granularity
/// stealing). Returns `None` if no feasible split assignment exists.
pub fn align_to_targets(
    ctx: &RequestContext,
    cost: &CostModel,
    targets: &[f64],
) -> Option<Vec<usize>> {
    let stages = ctx.stage_count();
    debug_assert_eq!(targets.len(), stages);
    let n = ctx.layer_count();
    if stages > n {
        return None;
    }
    let mut splits = Vec::with_capacity(stages - 1);
    let mut i = 0usize;
    for (a, &target) in targets.iter().enumerate().take(stages - 1) {
        let remaining = stages - 1 - a; // later stages each need ≥1 layer
        let j_max = n - 1 - remaining;
        let mut best: Option<(usize, f64)> = None;
        let mut j = i;
        while j <= j_max {
            match ctx.stage_cost(cost, a, i, j) {
                Some(c) => {
                    let diff = (c - target).abs();
                    if best.is_none_or(|(_, d)| diff < d) {
                        best = Some((j, diff));
                    }
                    if c > target {
                        break; // costs grow with j: no closer boundary ahead
                    }
                }
                None => break, // unsupported layer: stage must end before it
            }
            j += 1;
        }
        let (end, _) = best?;
        splits.push(end + 1);
        i = end + 1;
    }
    // The final stage takes the rest; it must be feasible.
    ctx.stage_cost(cost, stages - 1, i, n - 1)?;
    Some(splits)
}

/// Per-column values of a plan under single-request edits: one bubble or
/// one longest-cell time per column, and their total.
struct ColumnLedger {
    columns: Vec<f64>,
    /// The values of the columns last overwritten by [`ColumnLedger::set`],
    /// for [`ColumnLedger::restore`].
    saved: Vec<f64>,
    total: f64,
}

impl ColumnLedger {
    fn new(plan: &PipelinePlan, value: impl Fn(usize) -> f64) -> Self {
        let columns: Vec<f64> = (0..plan.column_count()).map(value).collect();
        let total = columns.iter().sum();
        ColumnLedger {
            columns,
            saved: Vec::new(),
            total,
        }
    }

    /// Overwrites the columns of the request at `pos` (`pos..pos + k`)
    /// with `value`, keeping their old values for
    /// [`ColumnLedger::restore`], and returns the re-summed total.
    fn set(&mut self, pos: usize, k: usize, value: impl Fn(usize) -> f64) -> f64 {
        self.saved.clear();
        for j in pos..pos + k {
            self.saved
                .push(std::mem::replace(&mut self.columns[j], value(j)));
        }
        self.columns.iter().sum()
    }

    /// Undoes the last [`ColumnLedger::set`] of the request at `pos`.
    fn restore(&mut self, pos: usize) {
        self.columns[pos..pos + self.saved.len()].copy_from_slice(&self.saved);
    }
}

/// Algorithm 3: slide contention windows of size `K` over the plan and
/// re-balance each non-critical request's splits towards the window's
/// critical path. `ctxs` is indexed by *original* request index
/// ([`crate::plan::RequestPlan::request`]).
pub fn align_by_stealing(
    plan: &mut PipelinePlan,
    ctxs: &[RequestContext],
    cost: &CostModel,
) -> StealReport {
    let k = plan.depth().max(1);
    let m = plan.requests.len();
    // Per-column bubbles; a candidate re-prices only its own K columns.
    let mut bubbles = ColumnLedger::new(plan, |j| plan.bubble_ms(j));
    let bubbles_before_ms = bubbles.total;
    let mut adjustments = 0usize;
    let mut windows = 0usize;
    let mut critical_stage_ms = vec![0.0f64; k];
    let mut targets: Vec<f64> = Vec::with_capacity(k);

    let mut u = 0usize;
    while u < m {
        let end = (u + k).min(m);
        windows += 1;
        // Critical path: the request with the largest total time
        // (deterministic tie-break on position).
        let Some(critical) = (u..end).max_by(|&a, &b| {
            plan.requests[a]
                .total_ms()
                .total_cmp(&plan.requests[b].total_ms())
                .then(b.cmp(&a))
        }) else {
            break;
        };
        let critical_total = plan.requests[critical].total_ms();
        for (s, ms) in critical_stage_ms.iter_mut().enumerate() {
            *ms = plan.requests[critical].stage_ms(s);
        }

        for pos in u..end {
            if pos == critical {
                continue;
            }
            let orig = plan.requests[pos].request;
            let ctx = &ctxs[orig];
            if ctx.stage_count() < 2 {
                continue; // single-stage requests have nothing to steal
            }
            // Algorithm 3 aligns along columns: the stage of position
            // `pos` at slot `s` runs concurrently with the critical
            // request's stage at slot `s + (pos - critical)` (they share
            // column `pos + s`). Target those times; where the critical
            // path has no stage there, aim for an even share.
            let offset = pos as isize - critical as isize;
            let fallback = critical_total / ctx.stage_count() as f64;
            targets.clear();
            targets.extend(ctx.active_slots.iter().map(|&s| {
                let partner = s as isize + offset;
                let t = if (0..k as isize).contains(&partner) {
                    critical_stage_ms[partner as usize]
                } else {
                    0.0
                };
                if t > 0.0 {
                    t
                } else {
                    fallback
                }
            }));
            let Some(splits) = align_to_targets(ctx, cost, &targets) else {
                continue;
            };
            let Some(stages) = ctx.build_stages(cost, &splits, k) else {
                continue;
            };
            // Guarded accept: keep only if total bubbles do not grow.
            let before = bubbles.total;
            let saved = std::mem::replace(&mut plan.requests[pos].stages, stages);
            let after = bubbles.set(pos, k, |j| plan.bubble_ms(j));
            if after > before + 1e-9 {
                plan.requests[pos].stages = saved;
                bubbles.restore(pos);
            } else {
                bubbles.total = after;
                if plan.requests[pos].stages != saved {
                    adjustments += 1;
                }
            }
        }
        u += k; // slide by K, as in Algorithm 3 line 15
    }

    StealReport {
        windows,
        adjustments,
        tail_merges: 0,
        bubbles_before_ms,
        bubbles_after_ms: bubbles.total,
    }
}

/// Tail-bubble optimization: for each of the last `K−1` requests (the
/// draining tail) *and* the first `K−1` requests (the filling head —
/// Fig. 6's "under-utilization at the beginning"), try collapsing its
/// pipeline onto each single processor (the exhaustive `K`-way local
/// search of Sec. V-C) and keep the variant minimizing the plan's
/// estimated makespan. Updates `ctxs` in place for collapsed requests;
/// returns the number of merges performed.
pub fn optimize_tail(
    plan: &mut PipelinePlan,
    ctxs: &mut [RequestContext],
    estimator: &Estimator,
) -> usize {
    let k = plan.depth();
    let m = plan.requests.len();
    if m == 0 || k < 2 {
        return 0;
    }
    // The pipeline's fill (head) and drain (tail) positions benefit most
    // from collapsing, but a mid-sequence request whose stages cannot be
    // aligned (e.g. far smaller than its column mates) may also win, so
    // the K-way local search sweeps every position; the guarded accept
    // keeps the pass monotone.
    let positions: Vec<usize> = (0..m).collect();
    optimize_positions(plan, ctxs, estimator, &positions)
}

/// Builds the [`CollapseSlots`] for one request from its shared cost
/// tables: the stages and context of collapsing onto each single slot.
/// The candidates are exactly what [`optimize_tail`]'s inner loop would
/// rebuild per position — but computed once, from the cached tables.
pub fn collapse_candidates(
    tables: &RequestTables,
    cost: &CostModel,
    total_slots: usize,
) -> CollapseSlots {
    (0..total_slots)
        .map(|slot| {
            let ctx = tables.context(vec![slot]);
            let stages = ctx.build_stages(cost, &[], total_slots)?;
            Some((stages, ctx))
        })
        .collect()
}

/// The cached equivalent of [`optimize_tail`]: the same K-way
/// single-processor local search with the same visit order and the same
/// guarded accept (`makespan + 1e-9 < best`), but reading precomputed
/// [`CollapseSlots`] (indexed by *original* request index) instead of
/// rebuilding a context per `(position, slot)` pair. Each candidate is
/// priced on a per-column ledger of longest cells: only the request's `K`
/// columns are re-read, with the candidate's stages in place of the
/// request's, and the columns are re-summed in order, so every comparison
/// sees the value [`PipelinePlan::estimated_makespan_ms`] would return
/// for the substituted plan. Bit-identical merge decisions to the
/// reference.
///
/// Returns the merges as `(original request, slot)` pairs in visit order;
/// the collapsed request's context is `collapse[request][slot]`'s (see
/// [`apply_merges`]).
pub fn optimize_tail_cached(
    plan: &mut PipelinePlan,
    collapse: &[Arc<CollapseSlots>],
) -> Vec<(usize, usize)> {
    let k = plan.depth();
    let m = plan.requests.len();
    let mut merges = Vec::new();
    if m == 0 || k < 2 {
        return merges;
    }
    let mut maxima = ColumnLedger::new(plan, |j| plan.column_max_ms(j, None));
    for pos in 0..m {
        let orig = plan.requests[pos].request;
        let mut best_makespan = maxima.total;
        let mut best: Option<(usize, &[Option<StagePlan>])> = None;
        for (slot, candidate) in collapse[orig].iter().enumerate() {
            let Some((stages, _)) = candidate else {
                continue;
            };
            let row = Some((pos, stages.as_slice()));
            let makespan = maxima.set(pos, k, |j| plan.column_max_ms(j, row));
            maxima.restore(pos);
            if makespan + 1e-9 < best_makespan {
                best_makespan = makespan;
                best = Some((slot, stages));
            }
        }
        if let Some((slot, stages)) = best {
            plan.requests[pos].stages = stages.to_vec();
            maxima.total = maxima.set(pos, k, |j| plan.column_max_ms(j, None));
            merges.push((orig, slot));
        }
    }
    merges
}

/// Points every request collapsed by [`optimize_tail_cached`] at its
/// single-slot context: `ctxs` is indexed by original request index.
pub fn apply_merges(
    ctxs: &mut [RequestContext],
    collapse: &[Arc<CollapseSlots>],
    merges: &[(usize, usize)],
) {
    for &(orig, slot) in merges {
        if let Some((_, ctx)) = &collapse[orig][slot] {
            ctxs[orig] = ctx.clone();
        }
    }
}

/// The K-way single-processor collapse search over the given positions.
fn optimize_positions(
    plan: &mut PipelinePlan,
    ctxs: &mut [RequestContext],
    estimator: &Estimator,
    positions: &[usize],
) -> usize {
    let k = plan.depth();
    let procs = plan.procs.clone();
    let mut merges = 0usize;
    for &pos in positions {
        let orig = plan.requests[pos].request;
        let graph = ctxs[orig].graph.clone();
        let mut best_makespan = plan.estimated_makespan_ms();
        let mut best: Option<(Vec<Option<crate::plan::StagePlan>>, RequestContext)> = None;
        for slot in 0..k {
            let ctx = estimator.context(&graph, &procs, vec![slot]);
            let Some(stages) = ctx.build_stages(estimator.cost(), &[], k) else {
                continue;
            };
            let saved = std::mem::replace(&mut plan.requests[pos].stages, stages.clone());
            let makespan = plan.estimated_makespan_ms();
            plan.requests[pos].stages = saved;
            if makespan + 1e-9 < best_makespan {
                best_makespan = makespan;
                best = Some((stages, ctx));
            }
        }
        if let Some((stages, ctx)) = best {
            plan.requests[pos].stages = stages;
            ctxs[orig] = ctx;
            merges += 1;
        }
    }
    merges
}

#[cfg(test)]
mod tests {
    use super::*;
    use h2p_models::zoo::ModelId;
    use h2p_simulator::SocSpec;

    use crate::partition::DpScratch;
    use crate::plan::RequestPlan;

    /// Builds a simple plan: every request min-max partitioned (via the
    /// production DP kernel over shared tables) across all four Kirin
    /// slots (falling back to CPU-feasible slot sets).
    fn build_plan(models: &[ModelId]) -> (PipelinePlan, Vec<RequestContext>, Estimator) {
        let soc = SocSpec::kirin_990();
        let est = Estimator::new(&soc).unwrap();
        let procs = soc.processors_by_power();
        let mut ctxs = Vec::new();
        let mut requests = Vec::new();
        let mut scratch = DpScratch::new();
        for (idx, id) in models.iter().enumerate() {
            let graph = id.graph();
            let tables = est.tables(&graph, &procs);
            // Choose all slots if feasible, else skip the NPU slot (0).
            let candidates: Vec<Vec<usize>> = vec![vec![0, 1, 2, 3], vec![1, 2, 3]];
            let mut placed = false;
            for slots in candidates {
                let cost = est.cost();
                if tables.partition_into(&slots, &mut scratch).is_some() {
                    let ctx = tables.context(slots);
                    let stages = ctx
                        .build_stages(cost, scratch.splits(), procs.len())
                        .expect("partition is feasible");
                    requests.push(RequestPlan {
                        request: idx,
                        model: graph.shared_name().clone(),
                        stages,
                        intensity: est.predict_intensity(&graph),
                        class: est.classify(&graph),
                    });
                    ctxs.push(ctx);
                    placed = true;
                    break;
                }
            }
            assert!(placed, "{id} must be placeable");
        }
        (PipelinePlan { procs, requests }, ctxs, est)
    }

    #[test]
    fn stealing_never_increases_bubbles() {
        let (mut plan, ctxs, est) = build_plan(&[
            ModelId::Vgg16,
            ModelId::SqueezeNet,
            ModelId::ResNet50,
            ModelId::MobileNetV2,
            ModelId::Bert,
            ModelId::GoogLeNet,
        ]);
        let report = align_by_stealing(&mut plan, &ctxs, est.cost());
        assert!(
            report.bubbles_after_ms <= report.bubbles_before_ms + 1e-9,
            "{report:?}"
        );
    }

    #[test]
    fn stealing_reduces_bubbles_on_imbalanced_mixes() {
        // A heavy model next to feather-light ones leaves big bubbles that
        // stealing must shrink.
        let (mut plan, ctxs, est) = build_plan(&[
            ModelId::Bert,
            ModelId::SqueezeNet,
            ModelId::MobileNetV2,
            ModelId::Vgg16,
        ]);
        let before = plan.total_bubble_ms();
        let report = align_by_stealing(&mut plan, &ctxs, est.cost());
        assert!(report.adjustments > 0, "{report:?}");
        assert!(plan.total_bubble_ms() < before, "{report:?}");
    }

    #[test]
    fn plans_remain_valid_partitions_after_stealing() {
        let (mut plan, ctxs, est) = build_plan(&[
            ModelId::Vgg16,
            ModelId::AlexNet,
            ModelId::ResNet50,
            ModelId::Vit,
        ]);
        align_by_stealing(&mut plan, &ctxs, est.cost());
        for req in &plan.requests {
            let n = ctxs[req.request].layer_count();
            let mut covered = 0usize;
            let mut next = 0usize;
            for stage in req.stages.iter().flatten() {
                assert_eq!(stage.range.first, next, "{}", req.model);
                next = stage.range.last + 1;
                covered += stage.range.len();
            }
            assert_eq!(covered, n, "{} must tile all layers", req.model);
        }
    }

    #[test]
    fn tail_optimization_never_increases_makespan() {
        let (mut plan, mut ctxs, est) = build_plan(&[
            ModelId::ResNet50,
            ModelId::GoogLeNet,
            ModelId::SqueezeNet,
            ModelId::MobileNetV2,
            ModelId::AlexNet,
        ]);
        let before = plan.estimated_makespan_ms();
        let merges = optimize_tail(&mut plan, &mut ctxs, &est);
        let after = plan.estimated_makespan_ms();
        assert!(after <= before + 1e-9, "makespan {before} -> {after}");
        // Contexts stay consistent with the plan.
        let _ = merges;
        for req in &plan.requests {
            let ctx = &ctxs[req.request];
            assert_eq!(req.active_stage_count(), ctx.stage_count(), "{}", req.model);
        }
    }

    #[test]
    fn align_to_targets_tracks_targets() {
        let soc = SocSpec::kirin_990();
        let est = Estimator::new(&soc).unwrap();
        let procs = soc.processors_by_power();
        let g = ModelId::Vgg16.graph();
        let ctx = est.context(&g, &procs, vec![0, 1, 2, 3]);
        let whole: f64 = (0..1)
            .map(|_| {
                est.cost()
                    .model_latency_ms(&g, procs[0])
                    .expect("vgg on npu")
            })
            .sum();
        // Ask for a front-loaded split: stage 0 gets ~70% of NPU time.
        let targets = vec![0.7 * whole, 1.0, 1.0, 1.0];
        let splits = align_to_targets(&ctx, est.cost(), &targets).unwrap();
        assert_eq!(splits.len(), 3);
        let stage0 = ctx.stage_cost(est.cost(), 0, 0, splits[0] - 1).unwrap();
        // Should be much more than an even 1/4 share.
        let even = ctx.stage_cost(est.cost(), 0, 0, g.len() / 4).unwrap();
        assert!(stage0 > even, "front-loaded stage {stage0} vs even {even}");
    }

    #[test]
    fn align_to_targets_handles_npu_fallback_stages() {
        let soc = SocSpec::kirin_990();
        let est = Estimator::new(&soc).unwrap();
        let procs = soc.processors_by_power();
        let g = ModelId::YoloV4.graph(); // Mish layers interleave NPU-unsupported ops
        let ctx = est.context(&g, &procs, vec![0, 1]);
        // Huge targets: the greedy walk extends the NPU stage as far as
        // possible (operator fallback keeps every boundary feasible) but
        // must still leave the final stage at least one layer.
        let splits = align_to_targets(&ctx, est.cost(), &[1e9, 1e9]).unwrap();
        assert_eq!(splits.len(), 1);
        assert!(splits[0] >= 1 && splits[0] < g.len());
        assert!(
            ctx.build_stages(est.cost(), &splits, procs.len()).is_some(),
            "aligned splits remain buildable"
        );
    }

    #[test]
    fn single_stage_requests_are_left_alone() {
        let (mut plan, ctxs, est) = build_plan(&[ModelId::SqueezeNet]);
        let before = plan.clone();
        align_by_stealing(&mut plan, &ctxs, est.cost());
        assert_eq!(plan.requests.len(), before.requests.len());
    }
}
