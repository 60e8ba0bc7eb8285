//! The flat prefix-sum DP kernel's exactness contract, property-tested
//! at the workspace level: for randomized heterogeneous stage oracles —
//! mixed supported/fallback slots, random copy-in costs, and infeasible
//! (unsupported-layer) cells — [`min_max_partition_prefix`] must agree
//! **bit for bit** with the `Option`-oracle reference
//! [`min_max_partition`], and both must agree with the brute-force
//! [`min_max_partition_exhaustive`] on the minimized makespan. One
//! [`DpScratch`] arena is reused across every trial, so the sweep also
//! exercises the stale-value safety of warm-scratch reuse across
//! problem shapes.

use proptest::prelude::*;

use hetero2pipe::partition::{
    min_max_partition, min_max_partition_exhaustive, min_max_partition_prefix, DpScratch,
    PrefixStage,
};

/// The LCG every suite in this workspace derives trial data from, so
/// failures replay exactly from the proptest seed.
fn lcg(state: &mut u64) -> u64 {
    *state = state.wrapping_mul(6364136223846793005).wrapping_add(1);
    *state >> 33
}

/// A positive cost in roughly (0, 10] ms.
fn cost_ms(state: &mut u64) -> f64 {
    (lcg(state) % 10_000) as f64 / 1000.0 + 0.001
}

/// One pipeline slot's cost data in the kernel's native prefix form.
/// The oracle closure consumes the *same* arrays with the same float-op
/// order, which is exactly the production contract: `RequestTables`
/// lowers its tables once and both DP paths read the lowered form.
enum StageData {
    Plain {
        pm: Vec<f64>,
        feas_from: Vec<u32>,
        copy: Vec<f64>,
    },
    Fallback {
        lp: Vec<f64>,
        cp: Vec<f64>,
        copy: Vec<f64>,
    },
}

impl StageData {
    fn prefix(&self) -> PrefixStage<'_> {
        match self {
            StageData::Plain {
                pm,
                feas_from,
                copy,
            } => PrefixStage::Plain {
                pm,
                feas_from,
                copy,
            },
            StageData::Fallback { lp, cp, copy } => PrefixStage::Fallback { lp, cp, copy },
        }
    }

    /// The `Option` oracle the reference DPs consume: `None` for a slice
    /// crossing an unsupported layer on a plain slot, otherwise the same
    /// prefix arithmetic as the kernel.
    fn oracle(&self, i: usize, j: usize) -> Option<f64> {
        match self {
            StageData::Plain {
                pm,
                feas_from,
                copy,
            } => {
                if (feas_from[j] as usize) > i {
                    None
                } else {
                    Some((pm[j + 1] - pm[i]) + copy[i])
                }
            }
            StageData::Fallback { lp, cp, copy } => {
                Some((((lp[j + 1] - lp[i]) + cp[j]) - cp[i]) + copy[i])
            }
        }
    }
}

/// Generates one slot's stage data: ~1 in 4 slots is a fallback-style
/// slot (every slice feasible, detour penalties), the rest are plain
/// slots whose layers are unsupported with probability
/// `unsupported_pct`%. Stage 0 carries the literal all-zeros copy curve
/// the production tables use.
fn gen_stage(state: &mut u64, n: usize, a: usize, unsupported_pct: u64) -> StageData {
    let copy: Vec<f64> = if a == 0 {
        vec![0.0; n]
    } else {
        (0..n).map(|_| cost_ms(state) * 0.2).collect()
    };
    if lcg(state).is_multiple_of(4) {
        let mut lp = vec![0.0f64; n + 1];
        for i in 0..n {
            lp[i + 1] = lp[i] + cost_ms(state);
        }
        let mut cp = vec![0.0f64; n];
        let mut acc = 0.0f64;
        for c in cp.iter_mut() {
            if lcg(state).is_multiple_of(3) {
                acc += cost_ms(state) * 0.1;
            }
            *c = acc;
        }
        StageData::Fallback { lp, cp, copy }
    } else {
        let mut pm = vec![0.0f64; n + 1];
        for i in 0..n {
            pm[i + 1] = pm[i] + cost_ms(state);
        }
        let mut feas_from = vec![0u32; n];
        let mut from = 0u32;
        for (j, f) in feas_from.iter_mut().enumerate() {
            if lcg(state) % 100 < unsupported_pct {
                from = (j + 1) as u32;
            }
            *f = from;
        }
        StageData::Plain {
            pm,
            feas_from,
            copy,
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// Kernel == oracle DP (makespan bits AND split points), and both ==
    /// brute force on the makespan bits, across random heterogeneous
    /// oracles. `heavy = 1` cranks the unsupported-layer rate so wholly
    /// infeasible instances occur and all three paths must agree on
    /// `None`.
    #[test]
    fn flat_kernel_matches_oracle_and_exhaustive(
        seed in any::<u64>(),
        heavy in 0u64..2,
    ) {
        let mut state = seed | 1;
        let unsupported_pct = if heavy == 1 { 45 } else { 12 };
        // One warm scratch across all trials: shapes shrink and grow, so
        // this also pins the arena's stale-value safety.
        let mut scratch = DpScratch::new();
        for _trial in 0..6 {
            let n = 2 + (lcg(&mut state) as usize) % 9; // 2..=10 layers
            let kmax = n.min(4);
            let k = 1 + (lcg(&mut state) as usize) % kmax;
            let stages: Vec<StageData> = (0..k)
                .map(|a| gen_stage(&mut state, n, a, unsupported_pct))
                .collect();
            let oracle = |a: usize, i: usize, j: usize| stages[a].oracle(i, j);

            let exact = min_max_partition(n, k, oracle);
            let brute = min_max_partition_exhaustive(n, k, oracle);
            let kernel = min_max_partition_prefix(n, k, |a| stages[a].prefix(), &mut scratch);

            match (&exact, &kernel) {
                (Some(p), Some(ms)) => {
                    prop_assert_eq!(
                        ms.to_bits(), p.makespan_ms.to_bits(),
                        "kernel makespan != oracle DP (n={}, k={})", n, k
                    );
                    prop_assert_eq!(
                        scratch.splits(), p.splits.as_slice(),
                        "kernel splits != oracle DP (n={}, k={})", n, k
                    );
                }
                (None, None) => {}
                (e, f) => prop_assert!(
                    false,
                    "kernel/oracle feasibility disagree (n={}, k={}): oracle {:?}, kernel {:?}",
                    n, k, e.is_some(), f.is_some()
                ),
            }
            match (&exact, &brute) {
                (Some(p), Some(b)) => prop_assert_eq!(
                    p.makespan_ms.to_bits(), b.makespan_ms.to_bits(),
                    "oracle DP makespan != exhaustive (n={}, k={})", n, k
                ),
                (None, None) => {}
                (e, b) => prop_assert!(
                    false,
                    "oracle/exhaustive feasibility disagree (n={}, k={}): dp {:?}, brute {:?}",
                    n, k, e.is_some(), b.is_some()
                ),
            }
        }
    }
}
