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
//! Both passes price a candidate on a flat grid of stage times (each
//! cell one [`StagePlan::total_ms`]) and a column ledger, without
//! touching a `StagePlan`. A request at position `pos` occupies exactly
//! the `K` columns `pos..pos + K`, and both passes visit positions left
//! to right, so the columns left of `pos` are final: the ledger carries
//! their running sum, and pricing a candidate adds its own `K` column
//! values and then the columns to their right, in column order. Those
//! are the additions [`PipelinePlan::total_bubble_ms`] and
//! [`PipelinePlan::estimated_makespan_ms`] make over the same values, so
//! every guarded accept compares exactly the value a whole-plan rescan
//! would return. Stealing prices a re-balance from the
//! [`RequestContext::stage_cost`] values the boundary walk already
//! computed and builds its stages only when it keeps a changed one.

use h2p_models::cost::CostModel;

use crate::estimate::{Estimator, RequestContext, RequestTables};
use crate::plan::{column_slots, PipelinePlan, StagePlan};
use std::sync::Arc;

/// Precomputed single-slot collapse candidates for one request: entry
/// `slot` holds the stages and derived context of running the whole model
/// alone on that slot, or `None` where the model is infeasible there.
/// Computed once per cost-tables entry, shared behind an `Arc` by every
/// request that plans the model, and reused across every candidate-order
/// assembly.
pub(crate) type CollapseSlots = Vec<Option<(Vec<Option<StagePlan>>, RequestContext)>>;

/// Outcome statistics of the work-stealing pass.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct StealReport {
    /// Number of contention windows visited.
    pub windows: usize,
    /// Number of requests whose splits were re-balanced.
    pub adjustments: usize,
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
    let (mut splits, mut costs) = (Vec::new(), Vec::new());
    align_into(ctx, cost, targets, &mut splits, &mut costs).then_some(splits)
}

/// [`align_to_targets`] into reused buffers: writes the split points to
/// `splits` and each active stage's [`RequestContext::stage_cost`] under
/// them to `costs`, and returns whether a feasible assignment exists.
fn align_into(
    ctx: &RequestContext,
    cost: &CostModel,
    targets: &[f64],
    splits: &mut Vec<usize>,
    costs: &mut Vec<f64>,
) -> bool {
    let stages = ctx.stage_count();
    debug_assert_eq!(targets.len(), stages);
    let n = ctx.layer_count();
    splits.clear();
    costs.clear();
    if stages > n {
        return false;
    }
    let mut i = 0usize;
    for (a, &target) in targets.iter().enumerate().take(stages - 1) {
        let remaining = stages - 1 - a; // later stages each need ≥1 layer
        let j_max = n - 1 - remaining;
        // (last layer, distance to the target, stage cost)
        let mut best: Option<(usize, f64, f64)> = None;
        let mut j = i;
        while j <= j_max {
            match ctx.stage_cost(cost, a, i, j) {
                Some(c) => {
                    let diff = (c - target).abs();
                    if best.is_none_or(|(_, d, _)| diff < d) {
                        best = Some((j, diff, c));
                    }
                    if c > target {
                        break; // costs grow with j: no closer boundary ahead
                    }
                }
                None => break, // unsupported layer: stage must end before it
            }
            j += 1;
        }
        let Some((end, _, c)) = best else {
            return false;
        };
        splits.push(end + 1);
        costs.push(c);
        i = end + 1;
    }
    // The final stage takes the rest; it must be feasible.
    match ctx.stage_cost(cost, stages - 1, i, n - 1) {
        Some(c) => {
            costs.push(c);
            true
        }
        None => false,
    }
}

/// Whether `stages`, built by `ctx.build_stages`, already ends its
/// active stages at `splits`: then rebuilding from `splits` reproduces
/// them exactly.
fn has_splits(ctx: &RequestContext, stages: &[Option<StagePlan>], splits: &[usize]) -> bool {
    ctx.active_slots.iter().zip(splits).all(|(&slot, &end)| {
        matches!(stages.get(slot), Some(Some(stage)) if stage.range.last + 1 == end)
    })
}

/// The stage times of a plan on a flat `m × K` grid: `cells[pos * K +
/// slot]` is [`StagePlan::total_ms`] of the stage the request at `pos`
/// runs on `slot`, or `None` where it skips the slot.
#[derive(Debug, Default)]
struct StageGrid {
    k: usize,
    m: usize,
    cells: Vec<Option<f64>>,
}

/// The `k` grid cells of one stage vector.
fn cells(stages: &[Option<StagePlan>], k: usize) -> impl Iterator<Item = Option<f64>> + '_ {
    (0..k).map(|s| {
        stages
            .get(s)
            .and_then(Option::as_ref)
            .map(StagePlan::total_ms)
    })
}

impl StageGrid {
    fn load<'a>(&mut self, k: usize, rows: impl Iterator<Item = &'a [Option<StagePlan>]>) {
        self.k = k;
        self.m = 0;
        self.cells.clear();
        for stages in rows {
            self.cells.extend(cells(stages, k));
            self.m += 1;
        }
    }

    /// `|M| + K − 1`, as [`PipelinePlan::column_count`].
    fn column_count(&self) -> usize {
        if self.m == 0 {
            0
        } else {
            self.m + self.k - 1
        }
    }

    fn row(&self, pos: usize) -> &[Option<f64>] {
        &self.cells[pos * self.k..(pos + 1) * self.k]
    }

    fn set_row(&mut self, pos: usize, row: &[Option<f64>]) {
        self.cells[pos * self.k..(pos + 1) * self.k].copy_from_slice(row);
    }

    /// The request's total time, summed as [`crate::plan::RequestPlan::total_ms`] sums it.
    fn row_total(&self, pos: usize) -> f64 {
        self.row(pos).iter().flatten().sum()
    }

    /// The cells of column `j` in ascending slot order, reading the
    /// cells of position `p` from `row` when `sub` is `Some((p, row))`.
    fn column<'a>(
        &'a self,
        j: usize,
        sub: Option<(usize, &'a [Option<f64>])>,
    ) -> impl Iterator<Item = f64> + 'a {
        column_slots(self.m, self.k, j).filter_map(move |(pos, slot)| match sub {
            Some((p, row)) if p == pos => row[slot],
            _ => self.cells[pos * self.k + slot],
        })
    }

    /// The longest cell of column `j`, as [`PipelinePlan::estimated_makespan_ms`] takes it.
    fn column_max(&self, j: usize, sub: Option<(usize, &[Option<f64>])>) -> f64 {
        self.column(j, sub).fold(0.0, f64::max)
    }

    /// The bubble of column `j`, as [`PipelinePlan::bubble_ms`] sums it.
    fn bubble(&self, j: usize, sub: Option<(usize, &[Option<f64>])>) -> f64 {
        let max = self.column_max(j, sub);
        self.column(j, sub).map(|c| max - c).sum()
    }
}

/// One value per column (a bubble or a longest cell) and their total,
/// priced left to right.
#[derive(Debug, Default)]
struct ColumnLedger {
    columns: Vec<f64>,
    /// The running sum of `columns[..settled]`. A pass visits positions
    /// in increasing order and an edit at `pos` touches only columns
    /// `pos..pos + K`, so the columns left of the visited position never
    /// change again.
    prefix: f64,
    settled: usize,
    total: f64,
}

impl ColumnLedger {
    fn reset(&mut self, values: impl Iterator<Item = f64>) {
        self.columns.clear();
        self.columns.extend(values);
        self.total = self.columns.iter().sum();
        // The empty sum: the prefix starts where `Iterator::sum` does.
        self.prefix = std::iter::empty::<f64>().sum();
        self.settled = 0;
    }

    /// The total with columns `pos..pos + window.len()` replaced by
    /// `window`: the running prefix, then the window, then the columns to
    /// its right, added in column order as a whole re-sum adds them (a
    /// running total moved by `+ new − old` would drift by an ulp and
    /// could flip an accept against the `1e-9` guards). Positions are
    /// priced in non-decreasing order.
    fn price(&mut self, pos: usize, window: &[f64]) -> f64 {
        for &c in &self.columns[self.settled..pos] {
            self.prefix += c;
        }
        self.settled = pos;
        let rest = &self.columns[pos + window.len()..];
        window
            .iter()
            .chain(rest)
            .fold(self.prefix, |sum, &c| sum + c)
    }

    /// Keeps a priced candidate: its window and the total it priced at.
    fn commit(&mut self, pos: usize, window: &[f64], total: f64) {
        self.columns[pos..pos + window.len()].copy_from_slice(window);
        self.total = total;
    }
}

/// The reusable state of the vertical passes over one candidate order:
/// the stage grid, the column ledger and the per-candidate buffers. The
/// planner pools one, so a warm assembly allocates only the stage
/// vectors it keeps.
#[derive(Debug, Default)]
pub(crate) struct PassScratch {
    grid: StageGrid,
    ledger: ColumnLedger,
    /// The window's critical stage times, by slot.
    critical: Vec<f64>,
    targets: Vec<f64>,
    splits: Vec<usize>,
    costs: Vec<f64>,
    /// A candidate's row of cells.
    row: Vec<Option<f64>>,
    /// A candidate's `K` column values.
    window: Vec<f64>,
    /// The best tail candidate's column values.
    best: Vec<f64>,
    /// The tail search's column maxima without the visited request.
    without: Vec<f64>,
}

impl PassScratch {
    /// Loads the grid with one stage vector per position, over `k` slots.
    pub(crate) fn load<'a>(
        &mut self,
        k: usize,
        rows: impl Iterator<Item = &'a [Option<StagePlan>]>,
    ) {
        self.grid.load(k, rows);
    }

    /// Algorithm 3 over the loaded grid. `rows(pos)` gives the context
    /// of the request at position `pos` and the stages it holds, which
    /// must be the context's `build_stages` of some splits. A re-balance
    /// is priced from its stage costs; a kept one whose splits differ
    /// from the request's is built and pushed to `adopted` with its
    /// position.
    pub(crate) fn steal<'a>(
        &mut self,
        rows: impl Fn(usize) -> (&'a RequestContext, &'a [Option<StagePlan>]),
        cost: &CostModel,
        adopted: &mut Vec<(usize, Vec<Option<StagePlan>>)>,
    ) -> StealReport {
        let PassScratch {
            grid,
            ledger,
            critical,
            targets,
            splits,
            costs,
            row,
            window,
            ..
        } = self;
        let (k, m) = (grid.k, grid.m);
        ledger.reset((0..grid.column_count()).map(|j| grid.bubble(j, None)));
        let bubbles_before_ms = ledger.total;
        let mut adjustments = 0usize;
        let mut windows = 0usize;
        critical.clear();
        critical.resize(k, 0.0);

        let mut u = 0usize;
        while u < m {
            let end = (u + k).min(m);
            windows += 1;
            // Critical path: the request with the largest total time
            // (deterministic tie-break on position).
            let Some(crit) = (u..end).max_by(|&a, &b| {
                grid.row_total(a)
                    .total_cmp(&grid.row_total(b))
                    .then(b.cmp(&a))
            }) else {
                break;
            };
            let critical_total = grid.row_total(crit);
            for (ms, cell) in critical.iter_mut().zip(grid.row(crit)) {
                *ms = cell.unwrap_or(0.0);
            }

            for pos in u..end {
                if pos == crit {
                    continue;
                }
                let (ctx, current) = rows(pos);
                if ctx.stage_count() < 2 {
                    continue; // single-stage requests have nothing to steal
                }
                // Algorithm 3 aligns along columns: the stage of position
                // `pos` at slot `s` runs concurrently with the critical
                // request's stage at slot `s + (pos - crit)` (they share
                // column `pos + s`). Target those times; where the critical
                // path has no stage there, aim for an even share.
                let offset = pos as isize - crit as isize;
                let fallback = critical_total / ctx.stage_count() as f64;
                targets.clear();
                targets.extend(ctx.active_slots.iter().map(|&s| {
                    let partner = s as isize + offset;
                    let t = if (0..k as isize).contains(&partner) {
                        critical[partner as usize]
                    } else {
                        0.0
                    };
                    if t > 0.0 {
                        t
                    } else {
                        fallback
                    }
                }));
                if !align_into(ctx, cost, targets, splits, costs) {
                    continue;
                }
                // The candidate's cells: the stage costs its stages would
                // total (`exec + copy_in`, the sum `StagePlan::total_ms`
                // makes).
                row.clear();
                row.resize(k, None);
                for (&slot, &c) in ctx.active_slots.iter().zip(costs.iter()) {
                    row[slot] = Some(c);
                }
                window.clear();
                window.extend((pos..pos + k).map(|j| grid.bubble(j, Some((pos, &row[..])))));
                // Guarded accept: keep only if total bubbles do not grow.
                let after = ledger.price(pos, window);
                if after > ledger.total + 1e-9 {
                    continue;
                }
                if !has_splits(ctx, current, splits) {
                    let Some(stages) = ctx.build_stages(cost, splits, k) else {
                        continue;
                    };
                    debug_assert!(
                        stages
                            .iter()
                            .zip(row.iter())
                            .all(|(s, c)| s.as_ref().map(StagePlan::total_ms) == *c),
                        "built stages total their priced costs"
                    );
                    adopted.push((pos, stages));
                    adjustments += 1;
                }
                ledger.commit(pos, window, after);
                grid.set_row(pos, row);
            }
            u += k; // slide by K, as in Algorithm 3 line 15
        }

        StealReport {
            windows,
            adjustments,
            bubbles_before_ms,
            bubbles_after_ms: ledger.total,
        }
    }

    /// The K-way single-processor collapse search over the loaded grid:
    /// for every position, left to right, try each of the request's
    /// collapse candidates (`collapse[request(pos)]`, `request(pos)` the
    /// original index) and keep the one minimizing the estimated makespan
    /// if it beats the current one by more than `1e-9`. The `K` column
    /// maxima without the visited request are taken once per position,
    /// so a candidate costs one `max` per cell it occupies plus the
    /// ledger's re-add (`f64::max` is exact, so every column value keeps
    /// its bits). Pushes each merge to `merges` as `(position, slot)`, in
    /// visit order.
    pub(crate) fn tail(
        &mut self,
        request: impl Fn(usize) -> usize,
        collapse: &[Arc<CollapseSlots>],
        merges: &mut Vec<(usize, usize)>,
    ) {
        let PassScratch {
            grid,
            ledger,
            row,
            window,
            best: best_window,
            without,
            ..
        } = self;
        let (k, m) = (grid.k, grid.m);
        if m == 0 || k < 2 {
            return;
        }
        ledger.reset((0..grid.column_count()).map(|j| grid.column_max(j, None)));
        for pos in 0..m {
            row.clear();
            row.resize(k, None);
            without.clear();
            without.extend((0..k).map(|s| grid.column_max(pos + s, Some((pos, &row[..])))));
            let slots = &collapse[request(pos)];
            let mut best_makespan = ledger.total;
            let mut best = None;
            for (slot, candidate) in slots.iter().enumerate() {
                let Some((stages, _)) = candidate else {
                    continue;
                };
                window.clear();
                window.extend(
                    without
                        .iter()
                        .zip(cells(stages, k))
                        .map(|(&max, cell)| cell.map_or(max, |c| max.max(c))),
                );
                let makespan = ledger.price(pos, window);
                if makespan + 1e-9 < best_makespan {
                    best_makespan = makespan;
                    best = Some((slot, stages));
                    best_window.clone_from(window);
                }
            }
            if let Some((slot, stages)) = best {
                ledger.commit(pos, best_window, best_makespan);
                row.clear();
                row.extend(cells(stages, k));
                grid.set_row(pos, row);
                merges.push((pos, slot));
            }
        }
    }
}

/// Algorithm 3: slide contention windows of size `K` over the plan and
/// re-balance each non-critical request's splits towards the window's
/// critical path. `ctx(request)` is the context of the request with
/// *original* index `request` ([`crate::plan::RequestPlan::request`]),
/// and each request's stages must be its context's
/// [`RequestContext::build_stages`] of some splits, as the planner
/// builds them.
pub fn align_by_stealing<'a>(
    plan: &mut PipelinePlan,
    ctx: impl Fn(usize) -> &'a RequestContext,
    cost: &CostModel,
) -> StealReport {
    let mut pass = PassScratch::default();
    pass.load(
        plan.depth().max(1),
        plan.requests.iter().map(|r| r.stages.as_slice()),
    );
    let mut adopted = Vec::new();
    let report = pass.steal(
        |pos| {
            let req = &plan.requests[pos];
            (ctx(req.request), req.stages.as_slice())
        },
        cost,
        &mut adopted,
    );
    for (pos, stages) in adopted {
        plan.requests[pos].stages = stages;
    }
    report
}

/// Tail-bubble optimization, the reference search: for every request,
/// left to right, try collapsing its pipeline onto each single processor
/// (the exhaustive `K`-way local search of Sec. V-C) and keep the
/// variant minimizing the plan's estimated makespan. The fill (head) and
/// drain (tail) positions benefit most, but a mid-sequence request whose
/// stages cannot be aligned (e.g. far smaller than its column mates) may
/// also win, so every position is searched; the guarded accept keeps the
/// pass monotone. Rebuilds a context per `(position, slot)` and rescans
/// the whole plan per candidate. Updates `ctxs` in place for collapsed
/// requests; returns the number of merges performed.
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
    let procs = plan.procs.clone();
    let mut merges = 0usize;
    for pos in 0..m {
        let orig = plan.requests[pos].request;
        let graph = ctxs[orig].graph.clone();
        let mut best_makespan = plan.estimated_makespan_ms();
        let mut best: Option<(Vec<Option<StagePlan>>, RequestContext)> = None;
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

/// Builds the [`CollapseSlots`] for one request from its shared cost
/// tables: the stages and context of collapsing onto each single slot.
/// The candidates are exactly what [`optimize_tail`]'s inner loop would
/// rebuild per position — but computed once, from the cached tables.
pub(crate) fn collapse_candidates(
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

/// Points every request the tail search collapsed, given as
/// `(original request, slot)`, at its single-slot context: `ctxs` is
/// indexed by original request index.
pub(crate) fn apply_merges(
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
        let report = align_by_stealing(&mut plan, |r| &ctxs[r], est.cost());
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
        let report = align_by_stealing(&mut plan, |r| &ctxs[r], est.cost());
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
        align_by_stealing(&mut plan, |r| &ctxs[r], est.cost());
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
        align_by_stealing(&mut plan, |r| &ctxs[r], est.cost());
        assert_eq!(plan.requests.len(), before.requests.len());
    }
}
