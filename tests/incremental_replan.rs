//! The incremental replanning contract, property-tested: for randomized
//! window sequences — model-set drift (which also shifts contention
//! classes) between invocations, warm repeats, and fault-driven
//! processor-availability changes through [`recovery::replan_on_survivors`]
//! — [`OnlinePlanner::plan_incremental`] must stay **bit-identical** to
//! the from-scratch [`OnlinePlanner::plan`], and a warm tables cache (with
//! the partitions memoized on it) must never change what a recovery
//! replan produces.

use proptest::prelude::*;

use h2p_models::graph::ModelGraph;
use h2p_models::zoo::ModelId;
use h2p_simulator::SocSpec;
use hetero2pipe::online::OnlinePlanner;
use hetero2pipe::planner::Planner;
use hetero2pipe::recovery::replan_on_survivors;

/// Deterministically picks `m` zoo models from `seed` (an LCG, as in the
/// other proptest suites, so failures replay exactly).
fn pick_workload(seed: u64, m: usize) -> Vec<ModelGraph> {
    let mut state = seed | 1;
    let mut next = move || {
        state = state.wrapping_mul(6364136223846793005).wrapping_add(1);
        (state >> 33) as usize
    };
    (0..m)
        .map(|_| ModelId::ALL[next() % ModelId::ALL.len()].graph())
        .collect()
}

fn pick_soc(seed: u64) -> SocSpec {
    // Cover both an NPU SoC (operator fallback paths) and a CPU/GPU-only
    // one (no fallback slot at all).
    if seed.is_multiple_of(2) {
        SocSpec::kirin_990()
    } else {
        SocSpec::snapdragon_870()
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(8))]

    /// A randomized sequence of online invocations: between invocations
    /// one request is swapped for a random zoo model (possibly a no-op),
    /// drifting the model set and with it the per-window contention
    /// classes. At every step the incremental plan — partly served from
    /// the warm window cache — must equal the from-scratch plan bit for
    /// bit, and an immediate warm repeat (the steady state: every window
    /// a cache hit) must as well.
    #[test]
    fn incremental_is_bit_identical_across_window_sequences(
        m in 2usize..10,
        window in 2usize..5,
        seed in any::<u64>(),
        swaps in prop::collection::vec((any::<u64>(), any::<u64>()), 1..5),
    ) {
        let soc = pick_soc(seed);
        let online = OnlinePlanner::new(Planner::new(&soc).expect("planner"), window);
        let mut stream = pick_workload(seed, m);
        for (step, (pos_seed, model_seed)) in swaps.into_iter().enumerate() {
            let scratch = online.plan(&stream).expect("scratch plan");
            let incremental = online.plan_incremental(&stream).expect("incremental plan");
            prop_assert_eq!(&incremental.plan, &scratch.plan, "step={}", step);
            prop_assert_eq!(
                incremental.plan.estimated_makespan_ms().to_bits(),
                scratch.plan.estimated_makespan_ms().to_bits(),
                "step={}", step
            );
            prop_assert_eq!(incremental.tail_merges, scratch.tail_merges, "step={}", step);
            // Warm repeat: every window now hits; still identical.
            let repeat = online.plan_incremental(&stream).expect("warm repeat");
            prop_assert_eq!(&repeat.plan, &scratch.plan, "step={} (warm)", step);
            // Drift the stream for the next invocation.
            let pos = (pos_seed as usize) % stream.len();
            stream[pos] = ModelId::ALL[(model_seed as usize) % ModelId::ALL.len()].graph();
        }
    }

    /// Fault-driven availability changes: a recovery replan over a random
    /// survivor set must produce the same plan (or the same typed error)
    /// whether the planner's cross-invocation caches are warm or
    /// completely cold — neither the tables cache nor the partitions
    /// memoized on its entries may leak stale state into the post-fault
    /// plan. The warm planner has run a full plan, a replan over a second
    /// random survivor set and the compared replan itself, so the
    /// compared call is served from the partition memo.
    #[test]
    fn warm_tables_cache_never_changes_recovery_replans(
        m in 1usize..6,
        seed in any::<u64>(),
        mask in any::<u32>(),
        other_mask in any::<u32>(),
    ) {
        let soc = pick_soc(seed);
        let warm = Planner::new(&soc).expect("planner");
        let fresh = Planner::new(&soc).expect("planner");
        let graphs = pick_workload(seed, m);
        let pending: Vec<usize> = (0..graphs.len()).collect();
        // A random subset of pipeline slots goes down, but never all of
        // them (all-down is its own typed error, pinned elsewhere).
        let procs = warm.pipeline_procs();
        let down_of = |mask: u32| {
            let mut down = vec![false; soc.processors.len()];
            for (b, p) in procs.iter().enumerate() {
                if mask & (1 << b) != 0 {
                    down[p.index()] = true;
                }
            }
            if procs.iter().all(|p| down[p.index()]) {
                down[procs[0].index()] = false;
            }
            down
        };
        let down = down_of(mask);
        // Warm the caches; `fresh` stays cold. Outcomes of the warm-up
        // calls are irrelevant (a survivor set may host nothing).
        warm.plan(&graphs).expect("warm-up plan");
        let _ = replan_on_survivors(&warm, &graphs, &pending, &down_of(other_mask));
        let _ = replan_on_survivors(&warm, &graphs, &pending, &down);
        let warm_out = replan_on_survivors(&warm, &graphs, &pending, &down);
        let fresh_out = replan_on_survivors(&fresh, &graphs, &pending, &down);
        match (&warm_out, &fresh_out) {
            (Ok(warm_plan), Ok(fresh_plan)) => {
                prop_assert_eq!(warm_plan, fresh_plan);
                prop_assert_eq!(
                    warm_plan.estimated_makespan_ms().to_bits(),
                    fresh_plan.estimated_makespan_ms().to_bits()
                );
            }
            (Err(warm_err), Err(fresh_err)) => prop_assert_eq!(warm_err, fresh_err),
            _ => prop_assert!(
                false,
                "warm/fresh recovery outcomes diverged: warm ok={} fresh ok={}",
                warm_out.is_ok(),
                fresh_out.is_ok()
            ),
        }
    }
}
