//! Property-based tests over the core algorithms and data structures:
//! optimality of the partition DP and its scale invariance, optimality of
//! the Hungarian solver, permutation/resolution invariants of contention
//! mitigation, plan tiling after the full planning pipeline, the planner
//! against its frozen reference, the order hysteresis, the incremental
//! column accounting of the vertical passes, the exhaustive order search
//! against the planner's adopted order, simulator determinism and
//! batching conservation.

use proptest::prelude::*;

use h2p_contention::ContentionClass;
use h2p_models::zoo::ModelId;
use h2p_simulator::engine::{Simulation, TaskSpec};
use h2p_simulator::{ProcessorId, SocSpec};
use hetero2pipe::{batching, lap, mitigation, partition};

/// Builds a prefix-sum oracle from per-slot layer times.
fn oracle(times: Vec<Vec<f64>>) -> impl Fn(usize, usize, usize) -> Option<f64> {
    let prefix: Vec<Vec<f64>> = times
        .iter()
        .map(|row| {
            let mut p = vec![0.0];
            for &t in row {
                p.push(p.last().unwrap() + t);
            }
            p
        })
        .collect();
    move |slot, i, j| {
        if slot >= prefix.len() || j >= prefix[slot].len() - 1 || i > j {
            None
        } else {
            Some(prefix[slot][j + 1] - prefix[slot][i])
        }
    }
}

/// Pinned regression from `proptest_invariants.proptest-regressions`:
/// `mitigation_invariants` once failed on three leading ℍ requests with a
/// window wider than the remaining 𝕃 spacers can absorb
/// (`classes = [ℍ, ℍ, ℍ, 𝕃, 𝕃, 𝕃, 𝕃, 𝕃], window = 4`). The shrunken
/// input is re-checked here explicitly, independent of the generator.
#[test]
fn mitigation_regression_three_highs_window_four() {
    use ContentionClass::{High, Low};
    let classes = [High, High, High, Low, Low, Low, Low, Low];
    let window = 4;
    let out = mitigation::mitigate(&classes, window);
    // Always a permutation of the request indices.
    let mut sorted = out.order.clone();
    sorted.sort_unstable();
    assert_eq!(sorted, (0..classes.len()).collect::<Vec<_>>());
    // Resolution claims must be truthful.
    let after: Vec<ContentionClass> = out.order.iter().map(|&i| classes[i]).collect();
    if out.resolved {
        assert!(!mitigation::has_conflict(&after, window));
    }
    if out.moves == 0 {
        assert_eq!(out.displacement_cost, 0.0);
    }
    // Mitigation never makes the schedule worse (Property 3): the number
    // of ℍ pairs closer than the window cannot grow.
    let conflicts = |seq: &[ContentionClass]| -> usize {
        let highs: Vec<usize> = seq
            .iter()
            .enumerate()
            .filter(|(_, c)| c.is_high())
            .map(|(i, _)| i)
            .collect();
        highs.windows(2).filter(|w| w[1] - w[0] < window).count()
    };
    assert!(conflicts(&after) <= conflicts(&classes));
}

/// Pinned regression from `proptest_invariants.proptest-regressions`:
/// `partition_dp_is_optimal` once failed at `n = 7, k = 4` with
/// `seed = 9518207659292512946` — the heterogeneous cost matrix where
/// the prefix optimum `S(j, k)` is not monotone in `j` (the
/// counterexample to the paper's Property-2 balance-point search, see
/// DESIGN.md §7). The generator's LCG is replayed here verbatim so the
/// exact matrix is re-checked on every run.
#[test]
fn partition_regression_seven_layers_four_slots() {
    let (n, k) = (7usize, 4usize);
    let seed: u64 = 9518207659292512946;
    let mut state = seed | 1;
    let mut next = move || {
        state = state.wrapping_mul(6364136223846793005).wrapping_add(1);
        ((state >> 33) % 100 + 1) as f64 / 10.0
    };
    let times: Vec<Vec<f64>> = (0..k).map(|_| (0..n).map(|_| next()).collect()).collect();
    let c = oracle(times);
    let dp = partition::min_max_partition(n, k, &c).expect("feasible");
    let brute = partition::min_max_partition_exhaustive(n, k, &c).expect("feasible");
    // The reference DP is exact.
    assert!((dp.makespan_ms - brute.makespan_ms).abs() < 1e-9);
    assert!(dp.splits.windows(2).all(|w| w[0] < w[1]));
    assert!(dp.splits.iter().all(|&s| s > 0 && s < n));
}

/// The order hysteresis never adopts a worse order: over seeded
/// combinations of 1–8 zoo models on every evaluation SoC, the default
/// planner's contention-aware estimate is never above the one of the same
/// configuration without mitigation, which assembles only arrival order.
/// Arrival order is the incumbent candidate, so the bound holds exactly.
#[test]
fn adopted_order_never_estimates_worse_than_arrival_order() {
    use hetero2pipe::planner::{Planner, PlannerConfig};
    use hetero2pipe::workload::random_combinations;

    for (seed, soc) in SocSpec::evaluation_platforms().into_iter().enumerate() {
        let default = Planner::new(&soc).expect("planner trains");
        let arrival_only = Planner::with_config(
            &soc,
            PlannerConfig {
                contention_mitigation: false,
                ..PlannerConfig::default()
            },
        )
        .expect("planner trains");
        for ids in random_combinations(0x4859_5354 + seed as u64, 40, 1, 8) {
            let graphs: Vec<_> = ids.iter().map(|m| m.graph()).collect();
            let est = |p: &Planner| {
                p.plan(&graphs)
                    .expect("plans")
                    .plan
                    .estimated_makespan_contention_ms(&soc)
            };
            let (adopted, arrival) = (est(&default), est(&arrival_only));
            assert!(
                adopted <= arrival,
                "{ids:?} on {}: adopted order estimates {adopted} ms, arrival order {arrival} ms",
                soc.name
            );
        }
    }
}

/// Every stage of `plan` as `(request, slot, range, processor, time and
/// bandwidth bits)`, so two plans compare bit for bit.
type StageBits = (usize, usize, usize, usize, usize, [u64; 4]);

fn stage_bits(plan: &hetero2pipe::plan::PipelinePlan) -> Vec<StageBits> {
    let mut bits = Vec::new();
    for req in &plan.requests {
        for (slot, stage) in req.stages.iter().enumerate() {
            if let Some(s) = stage {
                bits.push((
                    req.request,
                    slot,
                    s.range.first,
                    s.range.last,
                    s.proc.index(),
                    [
                        s.exec_ms.to_bits(),
                        s.copy_in_ms.to_bits(),
                        s.intensity.to_bits(),
                        s.bandwidth_gbps.to_bits(),
                    ],
                ));
            }
        }
    }
    bits
}

/// The stealing pass as Algorithm 3 states it, with nothing incremental:
/// every candidate re-balance is built with `build_stages`, written into
/// the plan and priced by a whole-plan `total_bubble_ms` rescan, and an
/// adjustment is a kept candidate whose stages differ from the request's.
/// The oracle for `worksteal::align_by_stealing`'s grid and ledger.
fn steal_by_rescans(
    plan: &mut hetero2pipe::plan::PipelinePlan,
    ctxs: &[hetero2pipe::estimate::RequestContext],
    cost: &h2p_models::cost::CostModel,
) -> hetero2pipe::worksteal::StealReport {
    use hetero2pipe::worksteal::{align_to_targets, StealReport};
    let k = plan.depth().max(1);
    let m = plan.requests.len();
    let bubbles_before_ms = plan.total_bubble_ms();
    let (mut windows, mut adjustments) = (0usize, 0usize);
    let mut u = 0usize;
    while u < m {
        let end = (u + k).min(m);
        windows += 1;
        let critical = (u..end)
            .max_by(|&a, &b| {
                plan.requests[a]
                    .total_ms()
                    .total_cmp(&plan.requests[b].total_ms())
                    .then(b.cmp(&a))
            })
            .expect("a window holds a request");
        let critical_total = plan.requests[critical].total_ms();
        let critical_stage_ms: Vec<f64> = (0..k)
            .map(|s| plan.requests[critical].stage_ms(s))
            .collect();
        for pos in (u..end).filter(|&pos| pos != critical) {
            let ctx = &ctxs[plan.requests[pos].request];
            if ctx.stage_count() < 2 {
                continue;
            }
            let offset = pos as isize - critical as isize;
            let fallback = critical_total / ctx.stage_count() as f64;
            let targets: Vec<f64> = ctx
                .active_slots
                .iter()
                .map(|&s| {
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
                })
                .collect();
            let Some(splits) = align_to_targets(ctx, cost, &targets) else {
                continue;
            };
            let Some(stages) = ctx.build_stages(cost, &splits, k) else {
                continue;
            };
            let before = plan.total_bubble_ms();
            let saved = std::mem::replace(&mut plan.requests[pos].stages, stages);
            if plan.total_bubble_ms() > before + 1e-9 {
                plan.requests[pos].stages = saved;
            } else if plan.requests[pos].stages != saved {
                adjustments += 1;
            }
        }
        u += k;
    }
    StealReport {
        windows,
        adjustments,
        bubbles_before_ms,
        bubbles_after_ms: plan.total_bubble_ms(),
    }
}

/// The vertical passes price candidates on a grid of stage times and a
/// column ledger instead of whole-plan rescans, and must decide exactly
/// as rescans would. Over seeded combinations of 1–12 zoo models on
/// every evaluation SoC: work stealing leaves the stage bits and reports
/// the `StealReport` (bubble totals to the bit) of
/// [`steal_by_rescans`], and its bubble totals equal `total_bubble_ms` of
/// the plan before and after. Then, for the arrival order and a seeded
/// permutation of it, the order scored through `Prepared::score` and
/// kept ends with the stage bits, steal report, merge count and
/// collapsed contexts of the reference passes (`align_by_stealing`, then
/// `optimize_tail`) over the step-1 plan permuted into that order, and
/// its score is the reference plan's `estimated_makespan_contention_ms`.
#[test]
fn incremental_column_accounting_matches_whole_plan_rescans() {
    use hetero2pipe::plan::PipelinePlan;
    use hetero2pipe::planner::{Planner, PlannerConfig};
    use hetero2pipe::workload::random_combinations;
    use hetero2pipe::worksteal;

    // Step 1 alone: arrival order, min-max partitions, base contexts.
    let step1 = PlannerConfig {
        contention_mitigation: false,
        work_stealing: false,
        tail_optimization: false,
        ..PlannerConfig::default()
    };
    let (mut adjustments, mut merges_seen) = (0usize, 0usize);
    for (seed, soc) in SocSpec::evaluation_platforms().into_iter().enumerate() {
        let planner = Planner::with_config(&soc, step1).expect("planner trains");
        let passes = Planner::new(&soc).expect("planner trains");
        let est = planner.estimator();
        for (combo, ids) in random_combinations(0x434f_4c53 + seed as u64, 24, 1, 12)
            .into_iter()
            .enumerate()
        {
            let graphs: Vec<_> = ids.iter().map(|m| m.graph()).collect();
            let base = planner.plan(&graphs).expect("plans");
            let mut stolen = base.plan.clone();
            let before = stolen.total_bubble_ms();
            let report =
                worksteal::align_by_stealing(&mut stolen, |r| &base.contexts[r], est.cost());
            assert_eq!(
                report.bubbles_before_ms.to_bits(),
                before.to_bits(),
                "{ids:?} on {}: bubbles before stealing",
                soc.name
            );
            assert_eq!(
                report.bubbles_after_ms.to_bits(),
                stolen.total_bubble_ms().to_bits(),
                "{ids:?} on {}: bubbles after stealing",
                soc.name
            );
            let mut oracle = base.plan.clone();
            let expected = steal_by_rescans(&mut oracle, &base.contexts, est.cost());
            assert_eq!(
                stage_bits(&stolen),
                stage_bits(&oracle),
                "{ids:?} on {}: stage bits after stealing",
                soc.name
            );
            assert_eq!(report, expected, "{ids:?} on {}: steal report", soc.name);
            assert_eq!(
                report.bubbles_after_ms.to_bits(),
                expected.bubbles_after_ms.to_bits(),
                "{ids:?} on {}: bubbles after stealing",
                soc.name
            );
            adjustments += report.adjustments;

            // The arrival order and a seeded rotation-and-reversal of it.
            let m = graphs.len();
            let shift = combo % m;
            let permuted: Vec<usize> = (0..m).map(|p| (m - 1 - p + shift) % m).collect();
            for order in [(0..m).collect::<Vec<_>>(), permuted] {
                let mut reference = PipelinePlan {
                    procs: base.plan.procs.clone(),
                    requests: order
                        .iter()
                        .map(|&i| base.plan.requests[i].clone())
                        .collect(),
                };
                let mut reference_ctxs = base.contexts.clone();
                let reference_steal =
                    worksteal::align_by_stealing(&mut reference, |r| &base.contexts[r], est.cost());
                let reference_merges =
                    worksteal::optimize_tail(&mut reference, &mut reference_ctxs, est);

                let mut prepared = passes.prepare(&graphs).expect("prepares");
                let score = prepared.score(order.iter().copied());
                prepared.keep();
                let scored = prepared.into_plan();
                assert_eq!(
                    score.to_bits(),
                    reference.estimated_makespan_contention_ms(&soc).to_bits(),
                    "{ids:?} order {order:?} on {}: score",
                    soc.name
                );
                assert_eq!(
                    stage_bits(&scored.plan),
                    stage_bits(&reference),
                    "{ids:?} order {order:?} on {}: stage bits after the passes",
                    soc.name
                );
                assert_eq!(scored.steal, Some(reference_steal));
                assert_eq!(
                    scored.tail_merges, reference_merges,
                    "{ids:?} order {order:?} on {}: merge count",
                    soc.name
                );
                for (r, ctx) in scored.contexts.iter().enumerate() {
                    assert_eq!(
                        ctx.active_slots, reference_ctxs[r].active_slots,
                        "{ids:?} order {order:?} on {}: request {r} collapsed differently",
                        soc.name
                    );
                }
                merges_seen += scored.tail_merges;
            }
        }
    }
    assert!(adjustments > 0 && merges_seen > 0, "the passes must act");
}

/// Fig. 8(a)'s exhaustive search and the planner score orders through
/// the same steps 2–3: over seeded 3–6-request sets on every evaluation
/// SoC, the order `Planner::plan` adopted scores exactly the
/// `estimated_makespan_contention_ms` of the plan it returned, and a
/// complete exhaustive search, which scores that order among all the
/// others, finds a best score no higher.
#[test]
fn exhaustive_search_never_scores_above_the_adopted_order() {
    use h2p_baselines::exhaustive;
    use hetero2pipe::planner::Planner;
    use hetero2pipe::workload::random_combinations;

    for (seed, soc) in SocSpec::evaluation_platforms().into_iter().enumerate() {
        let planner = Planner::new(&soc).expect("planner trains");
        for ids in random_combinations(0x4558_4853 + seed as u64, 8, 3, 6) {
            let graphs: Vec<_> = ids.iter().map(|m| m.graph()).collect();
            let planned = planner.plan(&graphs).expect("plans");
            let adopted: Vec<usize> = planned.plan.requests.iter().map(|r| r.request).collect();
            let score = planner
                .prepare(&graphs)
                .expect("prepares")
                .score(adopted.iter().copied());
            assert_eq!(
                score.to_bits(),
                planned
                    .plan
                    .estimated_makespan_contention_ms(&soc)
                    .to_bits(),
                "{ids:?} on {}: the adopted order's score",
                soc.name
            );
            let search = exhaustive::run(&soc, &graphs, usize::MAX).expect("searches");
            assert!(search.complete);
            assert!(
                search.best_estimate_ms <= score,
                "{ids:?} on {}: exhaustive best {} above the adopted order's {score}",
                soc.name,
                search.best_estimate_ms
            );
        }
    }
}

/// Scaling every stage cost by `c` scales the DP optimum by `c` (a
/// plan-quality invariant): over every zoo model's shared-table contexts
/// on every evaluation SoC, a power-of-two `c` keeps the splits and gives
/// makespan bits exactly `c ×` the original, and any other `c` stays
/// within 1e-12 relative of `c ×` the original.
#[test]
fn scaling_zoo_stage_costs_scales_the_dp_optimum() {
    use hetero2pipe::estimate::Estimator;

    let mut checked = 0usize;
    for soc in SocSpec::evaluation_platforms() {
        let est = Estimator::new(&soc).expect("estimator trains");
        let procs = soc.processors_by_power();
        let k = procs.len();
        for id in ModelId::ALL {
            let g = id.graph();
            let tables = est.tables(&g, &procs);
            for mask in 1u32..(1 << k) {
                let slots: Vec<usize> = (0..k).filter(|&s| mask & (1 << s) != 0).collect();
                let ctx = tables.context(slots.clone());
                let scaled = |c: f64| {
                    partition::min_max_partition(g.len(), slots.len(), |a, i, j| {
                        ctx.stage_cost(est.cost(), a, i, j).map(|x| x * c)
                    })
                };
                let Some(base) = scaled(1.0) else { continue };
                for c in [0.125, 0.5, 2.0, 64.0, 1024.0] {
                    let p = scaled(c).expect("scaling keeps feasibility");
                    assert_eq!(p.splits, base.splits, "{id} slots {slots:?} c={c}");
                    assert_eq!(
                        p.makespan_ms.to_bits(),
                        (c * base.makespan_ms).to_bits(),
                        "{id} slots {slots:?} c={c}"
                    );
                }
                for c in [0.3, 1.7, 3.0, 10.0, 1000.0 / 7.0] {
                    let p = scaled(c).expect("scaling keeps feasibility");
                    let expected = c * base.makespan_ms;
                    assert!(
                        (p.makespan_ms - expected).abs() <= 1e-12 * expected,
                        "{id} slots {slots:?} c={c}: {} vs {expected}",
                        p.makespan_ms
                    );
                }
                checked += 1;
            }
        }
    }
    assert!(checked > 0);
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// The reference DP always matches brute-force enumeration on
    /// arbitrary heterogeneous oracles.
    #[test]
    fn partition_dp_is_optimal(
        n in 2usize..10,
        k in 1usize..5,
        seed in any::<u64>(),
    ) {
        let k = k.min(n);
        let mut state = seed | 1;
        let mut next = move || {
            state = state.wrapping_mul(6364136223846793005).wrapping_add(1);
            ((state >> 33) % 100 + 1) as f64 / 10.0
        };
        let times: Vec<Vec<f64>> = (0..k).map(|_| (0..n).map(|_| next()).collect()).collect();
        let c = oracle(times);
        let dp = partition::min_max_partition(n, k, &c).expect("feasible");
        let brute = partition::min_max_partition_exhaustive(n, k, &c).expect("feasible");
        prop_assert!((dp.makespan_ms - brute.makespan_ms).abs() < 1e-9);
        // Splits are strictly ascending and in range.
        prop_assert!(dp.splits.windows(2).all(|w| w[0] < w[1]));
        prop_assert!(dp.splits.iter().all(|&s| s > 0 && s < n));
        // The reported makespan equals the max stage time.
        let max_stage = dp.stage_ms.iter().copied().fold(0.0, f64::max);
        prop_assert!((dp.makespan_ms - max_stage).abs() < 1e-12);
    }

    /// Scaling every cost of a random heterogeneous matrix by `c` scales
    /// the DP optimum by `c`: exactly, splits included, for a power of
    /// two, and within 1e-12 relative for any other `c`.
    #[test]
    fn scaling_costs_scales_the_dp_optimum(
        n in 2usize..10,
        k in 1usize..5,
        seed in any::<u64>(),
        exponent in 0i32..21,
        c_milli in 1u32..100_000,
    ) {
        let k = k.min(n);
        let mut state = seed | 1;
        let mut next = move || {
            state = state.wrapping_mul(6364136223846793005).wrapping_add(1);
            ((state >> 33) % 100 + 1) as f64 / 10.0
        };
        let times: Vec<Vec<f64>> = (0..k).map(|_| (0..n).map(|_| next()).collect()).collect();
        let c = oracle(times);
        let scaled = |factor: f64| {
            partition::min_max_partition(n, k, |s, i, j| c(s, i, j).map(|x| x * factor))
                .expect("feasible")
        };
        let base = scaled(1.0);
        let pow2 = 2f64.powi(exponent - 10);
        let p = scaled(pow2);
        prop_assert_eq!(&p.splits, &base.splits);
        prop_assert_eq!(p.makespan_ms.to_bits(), (pow2 * base.makespan_ms).to_bits());
        let factor = c_milli as f64 / 1000.0;
        let expected = factor * base.makespan_ms;
        let p = scaled(factor);
        prop_assert!((p.makespan_ms - expected).abs() <= 1e-12 * expected);
    }

    /// The Hungarian solver is optimal against permutation brute force
    /// (including infeasible pairings) on small matrices.
    #[test]
    fn hungarian_is_optimal(
        n in 1usize..5,
        extra in 0usize..3,
        seed in any::<u64>(),
    ) {
        let m = n + extra;
        let mut state = seed | 1;
        let mut next = move || {
            state = state.wrapping_mul(2862933555777941757).wrapping_add(3037000493);
            state >> 33
        };
        let cost: Vec<Vec<f64>> = (0..n)
            .map(|_| {
                (0..m)
                    .map(|_| {
                        if next() % 5 == 0 {
                            f64::INFINITY
                        } else {
                            (next() % 100) as f64
                        }
                    })
                    .collect()
            })
            .collect();
        // Brute force over all injections rows -> cols.
        fn brute(cost: &[Vec<f64>], row: usize, used: &mut Vec<bool>) -> Option<f64> {
            if row == cost.len() {
                return Some(0.0);
            }
            let mut best: Option<f64> = None;
            for c in 0..cost[0].len() {
                if used[c] || !cost[row][c].is_finite() {
                    continue;
                }
                used[c] = true;
                if let Some(rest) = brute(cost, row + 1, used) {
                    let total = cost[row][c] + rest;
                    if best.is_none_or(|b| total < b) {
                        best = Some(total);
                    }
                }
                used[c] = false;
            }
            best
        }
        let expected = brute(&cost, 0, &mut vec![false; m]);
        let got = lap::solve(&cost).map(|a| a.total_cost);
        match (expected, got) {
            (Some(e), Some(g)) => prop_assert!((e - g).abs() < 1e-9, "expected {e}, got {g}"),
            (None, None) => {}
            other => prop_assert!(false, "feasibility mismatch: {other:?}"),
        }
    }

    /// Mitigation always returns a permutation; when it reports resolved,
    /// no two ℍ requests sit closer than the window.
    #[test]
    fn mitigation_invariants(
        classes in prop::collection::vec(prop::bool::ANY, 1..24),
        window in 1usize..5,
    ) {
        let classes: Vec<ContentionClass> = classes
            .into_iter()
            .map(|b| if b { ContentionClass::High } else { ContentionClass::Low })
            .collect();
        let out = mitigation::mitigate(&classes, window);
        let mut sorted = out.order.clone();
        sorted.sort_unstable();
        prop_assert_eq!(sorted, (0..classes.len()).collect::<Vec<_>>());
        if out.resolved {
            let after: Vec<ContentionClass> =
                out.order.iter().map(|&i| classes[i]).collect();
            prop_assert!(!mitigation::has_conflict(&after, window));
        }
        // Moves and cost are consistent: zero moves implies zero cost.
        if out.moves == 0 {
            prop_assert_eq!(out.displacement_cost, 0.0);
        }
    }

    /// Mitigation never increases the number of *conflicting adjacent ℍ
    /// pairs* (pairs closer than the window — exactly what Property 3
    /// counts relocations against), whether or not it fully resolves;
    /// and a resolved outcome has zero such pairs.
    #[test]
    fn mitigation_never_increases_conflicting_pairs(
        classes in prop::collection::vec(prop::bool::ANY, 2..28),
        window in 2usize..5,
    ) {
        let classes: Vec<ContentionClass> = classes
            .into_iter()
            .map(|b| if b { ContentionClass::High } else { ContentionClass::Low })
            .collect();
        let conflicts = |seq: &[ContentionClass]| -> usize {
            let highs: Vec<usize> = seq
                .iter()
                .enumerate()
                .filter(|(_, c)| c.is_high())
                .map(|(i, _)| i)
                .collect();
            highs.windows(2).filter(|w| w[1] - w[0] < window).count()
        };
        let before = conflicts(&classes);
        let out = mitigation::mitigate(&classes, window);
        let after_seq: Vec<ContentionClass> =
            out.order.iter().map(|&i| classes[i]).collect();
        let after = conflicts(&after_seq);
        prop_assert!(
            after <= before,
            "conflicting pairs grew {before} -> {after} for {classes:?}"
        );
        if out.resolved {
            prop_assert_eq!(after, 0);
        }
    }

    /// The simulator is deterministic and conserves its memory ledger for
    /// arbitrary task sets.
    #[test]
    fn simulator_determinism_and_ledger(
        specs in prop::collection::vec(
            (0usize..4, 1u64..500, 0u64..200_000_000u64, 0u32..3),
            1..20,
        ),
    ) {
        let build = || {
            let mut soc = SocSpec::kirin_990();
            soc.thermal_mode = h2p_simulator::thermal::ThermalMode::Disabled;
            let mut sim = Simulation::new(&soc);
            let mut prev = None;
            for (i, &(proc, ms, bytes, dep)) in specs.iter().enumerate() {
                let mut t = TaskSpec::new(format!("t{i}"), ProcessorId(proc), ms as f64 / 10.0)
                    .intensity((i % 5) as f64 / 5.0)
                    .footprint(bytes);
                if dep == 1 {
                    if let Some(p) = prev {
                        t = t.after(p);
                    }
                }
                prev = Some(sim.add_task(t));
            }
            sim.run().expect("acyclic task set runs")
        };
        let a = build();
        let b = build();
        prop_assert_eq!(&a.spans, &b.spans);
        // Ledger conservation: the final memory sample shows everything
        // released.
        let last = a.memory.last().expect("samples exist");
        prop_assert_eq!(last.allocated_bytes, 0);
        // Spans never overlap on a single processor.
        for p in 0..4 {
            let mut spans: Vec<_> = a
                .spans
                .iter()
                .filter(|s| s.processor == ProcessorId(p))
                .collect();
            spans.sort_by(|x, y| x.start_ms.total_cmp(&y.start_ms));
            for w in spans.windows(2) {
                prop_assert!(w[1].start_ms >= w[0].end_ms - 1e-9);
            }
        }
    }

    /// Batching conserves requests and never reorders across groups.
    #[test]
    fn batching_conserves_requests(
        picks in prop::collection::vec(0usize..10, 1..40),
        max_batch in 1u32..9,
    ) {
        let ids: Vec<ModelId> = picks.iter().map(|&i| ModelId::ALL[i]).collect();
        let groups = batching::coalesce(&ids, max_batch);
        let total: u32 = groups.iter().map(|g| g.batch).sum();
        prop_assert_eq!(total as usize, ids.len());
        prop_assert!(groups.iter().all(|g| g.batch <= max_batch));
        // Heavy models never batch.
        prop_assert!(groups
            .iter()
            .all(|g| g.batch == 1 || g.model.is_lightweight()));
        // Expanding groups in order reproduces the original sequence.
        let expanded: Vec<ModelId> = groups
            .iter()
            .flat_map(|g| std::iter::repeat_n(g.model, g.batch as usize))
            .collect();
        prop_assert_eq!(expanded, ids);
    }

    /// Scaled batch graphs preserve layer count and weights while scaling
    /// work linearly.
    #[test]
    fn batched_graph_scaling(model in 0usize..10, b in 1u32..17) {
        let g = ModelId::ALL[model].graph();
        let s = batching::batched_graph(&g, b);
        prop_assert_eq!(s.len(), g.len());
        prop_assert_eq!(s.weight_bytes(), g.weight_bytes());
        let ratio = s.total_flops() / g.total_flops();
        prop_assert!((ratio - b as f64).abs() < 1e-9);
    }
}

/// Deterministically picks `m` zoo models from `seed` (an LCG, as in the
/// other seeded tests, so failures replay exactly).
fn pick_workload(seed: u64, m: usize) -> Vec<h2p_models::graph::ModelGraph> {
    let mut state = seed | 1;
    let mut next = move || {
        state = state.wrapping_mul(6364136223846793005).wrapping_add(1);
        (state >> 33) as usize
    };
    (0..m)
        .map(|_| ModelId::ALL[next() % ModelId::ALL.len()].graph())
        .collect()
}

/// An NPU SoC (operator fallback paths) for even seeds, a CPU/GPU-only
/// one (no fallback slot at all) for odd ones.
fn pick_soc(seed: u64) -> SocSpec {
    if seed.is_multiple_of(2) {
        SocSpec::kirin_990()
    } else {
        SocSpec::snapdragon_870()
    }
}

proptest! {
    // Planning is expensive (each case trains a regression), so this
    // block runs fewer cases than the algorithmic properties above.
    #![proptest_config(ProptestConfig::with_cases(12))]

    /// The planner's determinism contract over random workloads:
    /// `Planner::plan` is bit-identical to the frozen reference
    /// `Planner::plan_reference`: same splits, request order and stage
    /// times, same makespan bits, same pass outcomes.
    #[test]
    fn plan_matches_reference_on_random_workloads(
        m in 1usize..8,
        seed in any::<u64>(),
    ) {
        use hetero2pipe::planner::Planner;

        let soc = pick_soc(seed);
        let graphs = pick_workload(seed, m);
        let planner = Planner::new(&soc).expect("planner");
        let reference = planner.plan_reference(&graphs).expect("reference plan");
        let out = planner.plan(&graphs).expect("plan");
        prop_assert_eq!(&out.plan, &reference.plan);
        prop_assert_eq!(
            out.plan.estimated_makespan_ms().to_bits(),
            reference.plan.estimated_makespan_ms().to_bits()
        );
        prop_assert_eq!(
            out.plan.estimated_makespan_contention_ms(&soc).to_bits(),
            reference.plan.estimated_makespan_contention_ms(&soc).to_bits()
        );
        prop_assert_eq!(out.tail_merges, reference.tail_merges);
        prop_assert_eq!(out.steal, reference.steal);
        prop_assert_eq!(out.mitigation.is_some(), reference.mitigation.is_some());
    }

    /// The "No C/T" ablation configuration obeys the same contract (it
    /// exercises the single-assembly path).
    #[test]
    fn no_ct_plan_matches_reference_on_random_workloads(
        m in 1usize..6,
        seed in any::<u64>(),
    ) {
        use hetero2pipe::planner::{Planner, PlannerConfig};

        let soc = pick_soc(seed);
        let graphs = pick_workload(seed, m);
        let planner = Planner::with_config(&soc, PlannerConfig::no_ct()).expect("planner");
        let reference = planner.plan_reference(&graphs).expect("reference plan");
        prop_assert_eq!(&planner.plan(&graphs).expect("plan").plan, &reference.plan);
    }

    /// Any workload the planner produces must execute to a trace that
    /// passes the full simulator audit: the trace-audit layer treats
    /// planner output as its cleanliness baseline.
    #[test]
    fn planned_workloads_audit_clean(
        picks in prop::collection::vec(0usize..10, 1..5),
    ) {
        use hetero2pipe::executor::lower;
        use hetero2pipe::planner::Planner;

        let ids: Vec<ModelId> = picks.iter().map(|&i| ModelId::ALL[i]).collect();
        let graphs: Vec<_> = ids.iter().map(|m| m.graph()).collect();
        let soc = SocSpec::kirin_990();
        let planner = Planner::new(&soc).expect("planner trains");
        let planned = planner.plan(&graphs).expect("plans");
        let lowered = lower(&planned.plan, &soc).expect("lowers");
        let tasks = lowered.simulation().tasks().to_vec();
        let (report, events) = lowered.execute_logged().expect("executes");
        let audit = h2p_simulator::audit::audit(&soc, &tasks, &report.trace);
        prop_assert!(audit.is_clean(), "audit violations:\n{audit}");
        // The event log brackets every span.
        let finishes = events
            .iter()
            .filter(|e| matches!(e, h2p_simulator::EngineEvent::Finish { .. }))
            .count();
        prop_assert_eq!(finishes, report.trace.spans.len());
    }

    /// Any plan the planner produces, on any evaluation platform, must
    /// pass the static verifier with zero errors *before* execution —
    /// `h2p lint` treats planner output as its cleanliness baseline,
    /// mirroring what `planned_workloads_audit_clean` establishes for the
    /// dynamic trace audit. The lowered task graph must lint clean too.
    #[test]
    fn planned_workloads_lint_clean(
        picks in prop::collection::vec(0usize..10, 1..5),
        soc_pick in 0usize..3,
    ) {
        use hetero2pipe::planner::Planner;

        let ids: Vec<ModelId> = picks.iter().map(|&i| ModelId::ALL[i]).collect();
        let graphs: Vec<_> = ids.iter().map(|m| m.graph()).collect();
        let soc = SocSpec::evaluation_platforms()
            .into_iter()
            .nth(soc_pick)
            .expect("three platforms");
        let planner = Planner::new(&soc).expect("planner trains");
        let planned = planner.plan(&graphs).expect("plans");
        let diags = planned.lint(&soc);
        prop_assert!(diags.is_clean(), "static lint errors for {ids:?} on {}:\n{diags}", soc.name);
        let lowered = planned.lower(&soc).expect("lowers");
        let task_diags = lowered.lint();
        prop_assert!(task_diags.is_clean(), "task-graph lint errors:\n{task_diags}");
    }

    /// Every corruption class, applied to any planner-produced plan,
    /// must be caught by the static verifier — the mutation harness is
    /// only meaningful if no workload lets a damaged plan slip through.
    #[test]
    fn mutated_plans_never_lint_clean(
        picks in prop::collection::vec(0usize..10, 1..5),
    ) {
        use hetero2pipe::planner::Planner;

        let ids: Vec<ModelId> = picks.iter().map(|&i| ModelId::ALL[i]).collect();
        let graphs: Vec<_> = ids.iter().map(|m| m.graph()).collect();
        let soc = SocSpec::kirin_990();
        let planner = Planner::new(&soc).expect("planner trains");
        let planned = planner.plan(&graphs).expect("plans");
        for m in h2p_analyze::Mutation::ALL {
            let mut ir = planned.plan_ir();
            prop_assert!(h2p_analyze::apply(&mut ir, m), "{} found nothing to corrupt", m.name());
            let diags = h2p_analyze::lint_plan(&soc, &ir);
            prop_assert!(
                !diags.is_clean(),
                "{} slipped past the lint for {ids:?}:\n{diags}",
                m.name()
            );
        }
    }
}
