//! Concrete models: the planner-stack code paths explored under
//! controlled schedules, plus the abstract recovery-round machine.
//!
//! Every scenario runs the *production* code (`par::map`/`try_map`, the
//! estimator's tables cache, the partition memo,
//! `Planner::plan_with_threads`, `recovery::replan_on_survivors`) — not a
//! re-implementation — and asserts the repo's standing determinism
//! invariants:
//!
//! * cursor claims form an exact partition of the items (no lost, no
//!   double-claimed index);
//! * `try_map` reports the lowest-index error and claims stay a prefix;
//! * concurrent tables-cache lookups return one shared `Arc` with
//!   exactly one miss;
//! * concurrent partition lookups on one tables entry return
//!   bit-identical winners with exactly one subset search;
//! * `plan_with_threads` is bit-identical to the frozen
//!   `Planner::plan_reference` under every schedule;
//! * recovery replans never assign a stage, run or slot to a down
//!   processor (H2P009 stays hard).

use crate::explore::{explore_exhaustive, explore_pct, ModelReport};
use h2p_models::graph::ModelGraph;
use h2p_models::zoo::ModelId;
use h2p_simulator::SocSpec;
use hetero2pipe::planner::Planner;
use hetero2pipe::recovery::replan_on_survivors;
use hetero2pipe::sync::model::InjectedFault;
use hetero2pipe::sync::{self, Arc};
use hetero2pipe::{error::PlanError, par};
use std::collections::HashMap;
use std::sync::atomic::{AtomicUsize, Ordering};

/// Exploration bounds shared by every scenario.
#[derive(Debug, Clone, Copy)]
pub struct CheckOptions {
    /// DFS schedule cap per scenario (hit ⇒ reported incomplete).
    pub exhaustive_cap: usize,
    /// PCT schedule count for the large (full-planner) model.
    pub pct_seeds: u64,
    /// Stop a scenario at its first violating schedule.
    pub stop_on_violation: bool,
}

impl Default for CheckOptions {
    fn default() -> Self {
        Self {
            exhaustive_cap: 60_000,
            pct_seeds: 24,
            stop_on_violation: false,
        }
    }
}

fn setup_failure(name: &str, err: &PlanError) -> ModelReport {
    ModelReport {
        name: name.to_owned(),
        schedules: 0,
        steps: 0,
        complete: false,
        violations: 1,
        samples: vec![format!("scenario setup failed: {err}")],
    }
}

/// Exhaustive model of `par::map`'s chunked-cursor claim loop:
/// `workers` scoped threads race the shared cursor over `items` items.
/// Claim counts are recorded with *real* (unscheduled) atomics so the
/// instrumentation adds no yield points of its own.
pub fn cursor_map(
    workers: usize,
    items: usize,
    fault: Option<InjectedFault>,
    opts: CheckOptions,
) -> ModelReport {
    let name = match fault {
        Some(f) => format!("cursor_map(w={workers},n={items})+{}", f.name()),
        None => format!("cursor_map(w={workers},n={items})"),
    };
    let data: Vec<usize> = (0..items).map(|i| i * 13 + 5).collect();
    let expected: Vec<usize> = data.iter().map(|&x| x.wrapping_mul(31) + 7).collect();
    explore_exhaustive(
        &name,
        workers,
        fault,
        opts.exhaustive_cap,
        opts.stop_on_violation,
        move || {
            let claims: Vec<AtomicUsize> = (0..items).map(|_| AtomicUsize::new(0)).collect();
            let out = par::map(workers, &data, |idx, &x| {
                claims[idx].fetch_add(1, Ordering::SeqCst);
                x.wrapping_mul(31) + 7
            });
            assert_eq!(out, expected, "cursor_map output differs from sequential");
            for (idx, claim) in claims.iter().enumerate() {
                let n = claim.load(Ordering::SeqCst);
                assert!(
                    n == 1,
                    "exact-partition violation: item {idx} claimed {n} times"
                );
            }
        },
    )
}

/// Exhaustive model of `par::try_map` with failures injected at the
/// given item indices: the claimed set must stay a prefix with no index
/// claimed twice, and the reported error must be the lowest-index one.
pub fn cursor_try_map(
    workers: usize,
    items: usize,
    fails: Vec<usize>,
    opts: CheckOptions,
) -> ModelReport {
    let name = format!("cursor_try_map(w={workers},n={items},fails={fails:?})");
    let data: Vec<usize> = (0..items).collect();
    let expected: Vec<usize> = data.iter().map(|&x| x + 1).collect();
    explore_exhaustive(
        &name,
        workers,
        None,
        opts.exhaustive_cap,
        opts.stop_on_violation,
        move || {
            let claims: Vec<AtomicUsize> = (0..items).map(|_| AtomicUsize::new(0)).collect();
            let out: Result<Vec<usize>, String> = par::try_map(workers, &data, |idx, &x| {
                claims[idx].fetch_add(1, Ordering::SeqCst);
                if fails.contains(&idx) {
                    Err(format!("item {idx} failed"))
                } else {
                    Ok(x + 1)
                }
            });
            let counts: Vec<usize> = claims.iter().map(|c| c.load(Ordering::SeqCst)).collect();
            for (idx, &n) in counts.iter().enumerate() {
                assert!(n <= 1, "item {idx} claimed {n} times (double claim)");
            }
            let prefix_len = counts.iter().position(|&n| n == 0).unwrap_or(items);
            assert!(
                counts.iter().skip(prefix_len).all(|&n| n == 0),
                "claimed set is not a prefix: counts={counts:?}"
            );
            match fails.iter().min() {
                Some(&lowest) => {
                    assert!(
                        prefix_len > lowest,
                        "failing item {lowest} was never claimed (counts={counts:?})"
                    );
                    assert_eq!(
                        out,
                        Err(format!("item {lowest} failed")),
                        "lowest-index error rule violated"
                    );
                }
                None => {
                    assert_eq!(prefix_len, items, "success run left unclaimed items");
                    assert_eq!(out, Ok(expected.clone()), "try_map output mismatch");
                }
            }
        },
    )
}

/// Exhaustive model of the cross-invocation tables cache: two scoped
/// threads race `Estimator::tables_cached` on one key. Under every
/// schedule both must receive the *same* `Arc` (pointer-identical) with
/// exactly one of them missing.
pub fn tables_cache(opts: CheckOptions) -> ModelReport {
    let name = "tables_cache(2 threads, 1 key)";
    let soc = SocSpec::kirin_990();
    let planner = match Planner::new(&soc) {
        Ok(p) => p,
        Err(e) => return setup_failure(name, &e),
    };
    let graph = ModelId::SqueezeNet.graph();
    let procs = planner.pipeline_procs();
    let est = planner.estimator();
    explore_exhaustive(
        name,
        2,
        None,
        opts.exhaustive_cap,
        opts.stop_on_violation,
        || {
            est.clear_tables_cache();
            let (a, b) = sync::scope(|s| {
                let h1 = s.spawn(|| est.tables_cached(&graph, procs));
                let h2 = s.spawn(|| est.tables_cached(&graph, procs));
                let a = match h1.join() {
                    Ok(v) => v,
                    Err(payload) => std::panic::resume_unwind(payload),
                };
                let b = match h2.join() {
                    Ok(v) => v,
                    Err(payload) => std::panic::resume_unwind(payload),
                };
                (a, b)
            });
            let (tables_a, hit_a) = a;
            let (tables_b, hit_b) = b;
            assert!(
                Arc::ptr_eq(&tables_a, &tables_b),
                "tables cache returned two distinct Arcs for one key"
            );
            assert_eq!(
                usize::from(hit_a) + usize::from(hit_b),
                1,
                "exactly one of two concurrent lookups must miss (hits: {hit_a}, {hit_b})"
            );
        },
    )
}

/// Exhaustive model of the partition memo: two scoped threads call
/// `Planner::plan_request_cached` on one fresh tables entry. Under every
/// schedule both must receive bit-identical winners, and exactly one of
/// them may run the subset search (the other waits on the entry's lock
/// and hits).
pub fn partition_memo(opts: CheckOptions) -> ModelReport {
    let name = "partition_memo(2 threads, 1 key)";
    let soc = SocSpec::kirin_990();
    let planner = match Planner::new(&soc) {
        Ok(p) => p,
        Err(e) => return setup_failure(name, &e),
    };
    let graph = ModelId::SqueezeNet.graph();
    let procs = planner.pipeline_procs();
    let misses = || {
        planner
            .telemetry()
            .metrics
            .snapshot()
            .counter("planner.partition.cache_misses")
            .unwrap_or(0)
    };
    explore_exhaustive(
        name,
        2,
        None,
        opts.exhaustive_cap,
        opts.stop_on_violation,
        || {
            let tables = planner.estimator().tables(&graph, procs);
            let before = misses();
            let (a, b) = sync::scope(|s| {
                let h1 = s.spawn(|| planner.plan_request_cached(&tables, u32::MAX));
                let h2 = s.spawn(|| planner.plan_request_cached(&tables, u32::MAX));
                let a = match h1.join() {
                    Ok(v) => v,
                    Err(payload) => std::panic::resume_unwind(payload),
                };
                let b = match h2.join() {
                    Ok(v) => v,
                    Err(payload) => std::panic::resume_unwind(payload),
                };
                (a, b)
            });
            let (a, b) = match (a, b) {
                (Ok(a), Ok(b)) => (a, b),
                (a, b) => panic!(
                    "SqueezeNet must be placeable: ok={}, ok={}",
                    a.is_ok(),
                    b.is_ok()
                ),
            };
            assert!(
                a.ctx.active_slots == b.ctx.active_slots
                    && a.splits == b.splits
                    && a.makespan_ms.to_bits() == b.makespan_ms.to_bits()
                    && a.stages == b.stages,
                "concurrent partition lookups returned different winners"
            );
            let searches = misses() - before;
            assert_eq!(
                searches, 1,
                "exactly one of two concurrent lookups must search (searches: {searches})"
            );
        },
    )
}

/// PCT model of the full planner: `plan_with_threads(_, 2)` must stay
/// bit-identical to the frozen sequential `plan_reference` under every
/// sampled schedule. Every other schedule starts from a cleared tables
/// cache: a request whose partition is memoized prepares on the calling
/// thread, so only cold schedules fan the prepare step out.
pub fn planner_bits(opts: CheckOptions) -> ModelReport {
    let name = "planner_bits(2 requests, 2 threads)";
    let soc = SocSpec::kirin_990();
    let planner = match Planner::new(&soc) {
        Ok(p) => p,
        Err(e) => return setup_failure(name, &e),
    };
    let requests: Vec<ModelGraph> = vec![ModelId::SqueezeNet.graph(), ModelId::MobileNetV2.graph()];
    let reference = match planner.plan_reference(&requests) {
        Ok(p) => p,
        Err(e) => return setup_failure(name, &e),
    };
    let runs = AtomicUsize::new(0);
    explore_pct(
        name,
        2,
        None,
        opts.pct_seeds,
        0x4845_5432, // "HET2"
        opts.stop_on_violation,
        || {
            if runs.fetch_add(1, Ordering::SeqCst).is_multiple_of(2) {
                planner.estimator().clear_tables_cache();
            }
            let planned = match planner.plan_with_threads(&requests, 2) {
                Ok(p) => p,
                Err(e) => panic!("plan_with_threads failed under schedule: {e}"),
            };
            assert!(
                planned.plan == reference.plan,
                "plan bits diverged from plan_reference under this schedule"
            );
        },
    )
}

/// Exhaustive model of the planner's pooled-scratch pattern
/// (`Planner::with_plan_scratch`): workers fanning out over `par::map`
/// each pop a reusable buffer from a shared `sync::Mutex` pool (or
/// allocate on a miss), stamp it with checkout-local state, derive
/// their result from the buffer, and push it back for reuse. The
/// invariant is exclusivity — a pool bug handing one buffer to two
/// concurrent checkouts would tear the stamped pattern — plus the
/// standing rule that the map output equals the sequential result, and
/// that the pool never grows past the worker high-water mark.
pub fn scratch_pool(opts: CheckOptions) -> ModelReport {
    let name = "scratch_pool(w=2,n=3)";
    let items: Vec<usize> = vec![3, 5, 7];
    let expected: Vec<usize> = items.iter().map(|&x| x * x).collect();
    explore_exhaustive(
        name,
        2,
        None,
        opts.exhaustive_cap,
        opts.stop_on_violation,
        move || {
            let pool: sync::Mutex<Vec<Vec<usize>>> = sync::Mutex::new(Vec::new());
            let out = par::map(2, &items, |idx, &x| {
                let stamp = (idx + 1) * 1000 + x;
                let mut buf = {
                    let mut guard = match pool.lock() {
                        Ok(guard) => guard,
                        Err(poisoned) => poisoned.into_inner(),
                    };
                    guard.pop()
                }
                .unwrap_or_default();
                buf.clear();
                buf.resize(8, stamp);
                let result = (buf[0] - (idx + 1) * 1000) * x; // x * x
                assert!(
                    buf.iter().all(|&v| v == stamp),
                    "scratch shared between concurrent checkouts"
                );
                let mut guard = match pool.lock() {
                    Ok(guard) => guard,
                    Err(poisoned) => poisoned.into_inner(),
                };
                guard.push(buf);
                drop(guard);
                result
            });
            assert_eq!(out, expected, "pooled-scratch map diverged from sequential");
            let pooled = match pool.lock() {
                Ok(guard) => guard.len(),
                Err(poisoned) => poisoned.into_inner().len(),
            };
            assert!(
                pooled <= 2,
                "pool grew past the worker high-water mark: {pooled}"
            );
        },
    )
}

/// Abstract DFS over the recovery round machine's fault/completion
/// event space: from a 3-request workload, explore every sequence of
/// request completions and processor dropouts (up to 2 drops), calling
/// the real `replan_on_survivors` at every state and asserting no
/// surviving plan ever assigns work to a down processor.
pub fn recovery_rounds() -> ModelReport {
    let name = "recovery_rounds(3 requests, <=2 drops)";
    let mut report = ModelReport {
        name: name.to_owned(),
        schedules: 0,
        steps: 0,
        complete: true,
        violations: 0,
        samples: Vec::new(),
    };
    let soc = SocSpec::kirin_990();
    let planner = match Planner::new(&soc) {
        Ok(p) => p,
        Err(e) => return setup_failure(name, &e),
    };
    let graphs: Vec<ModelGraph> = [ModelId::SqueezeNet, ModelId::MobileNetV2, ModelId::AlexNet]
        .iter()
        .map(|id| id.graph())
        .collect();
    let procs = planner.pipeline_procs().to_vec();
    let down_len = procs.iter().map(|p| p.index()).max().unwrap_or(0) + 1;
    // Replans are a pure function of (down set, pending count): memoize
    // the validation verdict across the whole event DFS.
    let mut memo: HashMap<(u64, usize), Result<(), String>> = HashMap::new();
    let mut stack: Vec<(Vec<bool>, usize, usize)> = vec![(vec![false; down_len], 3, 0)];
    while let Some((down, pending_count, drops)) = stack.pop() {
        let pending: Vec<usize> = (3 - pending_count..3).collect();
        let mask: u64 = down
            .iter()
            .enumerate()
            .map(|(i, &d)| if d { 1u64 << i } else { 0 })
            .sum();
        let verdict = memo
            .entry((mask, pending_count))
            .or_insert_with(|| validate_replan(&planner, &graphs, &pending, &down))
            .clone();
        report.steps += 1;
        if let Err(msg) = verdict {
            report.violations += 1;
            if report.samples.len() < 6 {
                report.samples.push(msg);
            }
            continue;
        }
        let mut expanded = false;
        if pending_count > 0 {
            stack.push((down.clone(), pending_count - 1, drops));
            expanded = true;
            if drops < 2 {
                for slot in &procs {
                    let p = slot.index();
                    if !down[p] {
                        let mut next = down.clone();
                        next[p] = true;
                        stack.push((next, pending_count, drops + 1));
                        expanded = true;
                    }
                }
            }
        }
        if !expanded {
            report.schedules += 1;
        }
    }
    // Interior states with violations never reach a leaf; count paths
    // conservatively as leaves only.
    report
}

fn validate_replan(
    planner: &Planner,
    graphs: &[ModelGraph],
    pending: &[usize],
    down: &[bool],
) -> Result<(), String> {
    if pending.is_empty() {
        return Ok(());
    }
    match replan_on_survivors(planner, graphs, pending, down) {
        Ok((plan, _contexts)) => {
            // `plan.procs` deliberately keeps the full slot list (slot
            // identity is stable across rounds); the hard invariant is
            // that no *stage or run* lands on a down processor.
            for request in &plan.requests {
                for stage in request.stages.iter().flatten() {
                    if down.get(stage.proc.index()).copied().unwrap_or(false) {
                        return Err(format!(
                            "replan assigned request {} a stage on down processor {:?}",
                            request.request, stage.proc
                        ));
                    }
                    for run in &stage.runs {
                        if down.get(run.proc.index()).copied().unwrap_or(false) {
                            return Err(format!(
                                "replan routed a fallback run of request {} to down \
                                 processor {:?}",
                                request.request, run.proc
                            ));
                        }
                    }
                }
            }
            Ok(())
        }
        // Typed degraded outcome: acceptable end state.
        Err(PlanError::NoSurvivingProcessors) => Ok(()),
        // The release-mode H2P009 gate tripping means a down processor
        // made it into a plan — exactly the violation we hunt.
        Err(e @ PlanError::UnavailableProcessor { .. }) => {
            Err(format!("H2P009 gate tripped during replan: {e}"))
        }
        Err(e) => Err(format!("replan failed with unexpected error: {e}")),
    }
}
