//! Horizontal model partitioning (Sec. V-A, Algorithm 1).
//!
//! Splits an `n`-layer model into `K` contiguous, non-empty slices mapped
//! onto an ordered processor sequence, minimizing the maximum stage time
//! (the makespan of one inference traversing the pipeline):
//!
//! ```text
//! S*(j, k) = min_i max( S*(i-1, k-1), T_k(i, j) )
//! ```
//!
//! Three implementations are provided:
//!
//! * [`min_max_partition_prefix`] — the planner's production kernel: the
//!   recurrence specialized for branch-free prefix-sum stage costs
//!   ([`PrefixStage`]), running over a flat arena ([`DpScratch`]) so the
//!   steady state touches no allocator. Production reaches it only
//!   through the planner's subset search, which recovery replans share.
//! * [`min_max_partition`] — the reference O(n²K) dynamic program. It
//!   accepts *any* cost oracle, including ones with inter-processor copy
//!   costs and NPU-unsupported ranges (returned as `None` = infeasible).
//!   The kernel is bit-identical to it over the equivalent oracle by
//!   construction (same candidate order, same float-op order), pinned by
//!   debug assertions in the planner and by the kernel proptests.
//! * [`min_max_partition_exhaustive`] — brute-force enumeration, the
//!   optimality oracle for both.
//!
//! The paper's O(nK log n) Property-2 variant (a binary search for the
//! balance point) is not implemented: it is exact only when every slot
//! prices a slice identically, and inexact on heterogeneous processors
//! (DESIGN.md §7 records the counterexample).
//!
//! All DP state is flat and row-major — `s[kk * n + j]` — so one warm
//! [`DpScratch`] plans any request without allocating, and the inner loop
//! walks contiguous memory.

/// Result of partitioning one model across `K` pipeline stages.
#[derive(Debug, Clone, PartialEq)]
pub struct Partition {
    /// `K-1` ascending split points; slice `s` covers
    /// `[splits[s-1], splits[s])` with sentinels 0 and `n`.
    pub splits: Vec<usize>,
    /// Per-stage cost under the oracle used for planning.
    pub stage_ms: Vec<f64>,
    /// The minimized maximum stage cost.
    pub makespan_ms: f64,
}

impl Partition {
    /// Number of stages.
    pub fn stage_count(&self) -> usize {
        self.stage_ms.len()
    }
}

/// Reusable flat DP state: one contiguous `f64` arena plus the
/// backtracking table, grown on demand and never shrunk, so a warm
/// scratch plans any same-sized-or-smaller request without touching the
/// allocator (the planner pools these — see `Planner`).
///
/// Layout is row-major by slot count: cell `(kk, j)` lives at
/// `kk * n + j` for `kk` in `1..=k` (row 0 is unused padding so the
/// index needs no offset arithmetic). Rows are only *written* for
/// `j >= kk - 1` and only *read* at indices a previous row has written,
/// so stale values from an earlier, differently-shaped run are never
/// observed.
#[derive(Debug, Default, Clone)]
pub struct DpScratch {
    /// Flat DP table, `s[kk * n + j]` = best makespan of layers `0..=j`
    /// over the first `kk` pipeline slots.
    s: Vec<f64>,
    /// Backtracking choices, same indexing: the `i` realizing `s`.
    choice: Vec<u32>,
    /// Split points of the most recent successful kernel run.
    splits: Vec<usize>,
    /// Inner-loop candidate evaluations accumulated since the last
    /// [`DpScratch::take_cells`] (telemetry: `planner.dp.cells`).
    cells: u64,
}

impl DpScratch {
    /// A fresh, empty scratch. Buffers grow on first use.
    pub fn new() -> Self {
        Self::default()
    }

    /// Split points of the most recent successful kernel run
    /// (`k - 1` ascending entries).
    pub fn splits(&self) -> &[usize] {
        &self.splits
    }

    /// Drains the inner-loop candidate-evaluation counter.
    pub fn take_cells(&mut self) -> u64 {
        std::mem::take(&mut self.cells)
    }

    /// Grows the arena to cover an `(n, k)` problem. Never shrinks;
    /// after the first call at the high-water shape, subsequent calls
    /// are allocation-free (`splits` is resized within capacity).
    fn ensure(&mut self, n: usize, k: usize) {
        let need = (k + 1) * n;
        if self.s.len() < need {
            self.s.resize(need, 0.0);
            self.choice.resize(need, 0);
        }
        self.splits.clear();
        self.splits.resize(k.saturating_sub(1), 0);
    }
}

/// One pipeline stage's cost function, lowered to branch-free prefix-sum
/// slices for [`min_max_partition_prefix`]. Infeasibility is encoded in
/// the data (`feas_from`), not in an `Option` per cell, so the DP inner
/// loop has no branches beyond the loop bounds and the running-min
/// compare.
#[derive(Debug, Clone, Copy)]
pub enum PrefixStage<'a> {
    /// A directly-supported processor slot. The stage cost of layers
    /// `[i, j]` is `(pm[j + 1] - pm[i]) + copy[i]` — the exact float-op
    /// order of `CostTable::slice_ms` plus the copy-in term, so results
    /// are bit-identical to the `Option` oracle path.
    Plain {
        /// Latency prefix sums, `n + 1` entries (`pm[0] == 0`).
        pm: &'a [f64],
        /// `feas_from[j]` = smallest `i` such that every layer in
        /// `[i, j]` is supported on this slot: one past the last
        /// unsupported layer at or before `j` (`j + 1` when layer `j`
        /// itself is unsupported, making the candidate range empty).
        /// Feasible start points for a slice ending at `j` form the
        /// suffix `[feas_from[j], j]`.
        feas_from: &'a [u32],
        /// Copy-in cost when the slice starts at layer `i`; an all-zeros
        /// slice for stage 0 (the literal `+ 0.0` keeps the float-op
        /// order of the reference, which is bit-exact because every
        /// cost in the domain is finite and non-negative).
        copy: &'a [f64],
    },
    /// The NPU slot of a model with unsupported operators: unsupported
    /// runs detour to the fallback processor, so every slice is feasible
    /// and costs `(((lp[j + 1] - lp[i]) + cp[j]) - cp[i]) + copy[i]` —
    /// the exact op order of `NpuFallback::slice_ms` plus copy-in.
    Fallback {
        /// Mixed NPU/fallback latency prefix, `n + 1` entries.
        lp: &'a [f64],
        /// Prefix of detour copy penalties, `n` entries.
        cp: &'a [f64],
        /// Copy-in cost by start layer (see [`PrefixStage::Plain`]).
        copy: &'a [f64],
    },
}

/// The planner's production DP kernel: the recurrence of
/// [`min_max_partition`] specialized for [`PrefixStage`] cost rows over
/// a flat, reusable [`DpScratch`] arena.
///
/// `stage(a)` resolves the cost rows of pipeline stage `a` (called once
/// per row, not per cell). On success returns the minimized makespan and
/// leaves the `k - 1` split points in [`DpScratch::splits`]; returns
/// `None` when no feasible `k`-way partition exists or the shape is
/// degenerate (`n == 0`, `k == 0`, `k > n`) — the same contract as
/// [`min_max_partition`].
///
/// **Bit-identity.** For every cell the kernel evaluates the same
/// candidates in the same order with the same float-op order as
/// [`min_max_partition`] over the equivalent `Option` oracle, and the
/// returned makespan equals the `max` fold the oracle path computes in
/// `finish` (IEEE `max` returns one of its operands unchanged, and the
/// domain has no NaNs: prefixes are finite, infinities only encode
/// infeasibility and never reach a successful backtrack).
pub fn min_max_partition_prefix<'a, F>(
    n: usize,
    k: usize,
    stage: F,
    scratch: &mut DpScratch,
) -> Option<f64>
where
    F: Fn(usize) -> PrefixStage<'a>,
{
    if n == 0 || k == 0 || k > n {
        return None;
    }
    scratch.ensure(n, k);
    let mut cells = 0u64;
    // Row 1: single stage over layers 0..=j.
    {
        let row = &mut scratch.s[n..2 * n];
        match stage(0) {
            PrefixStage::Plain {
                pm,
                feas_from,
                copy,
            } => {
                for (j, out) in row.iter_mut().enumerate() {
                    *out = if feas_from[j] == 0 {
                        (pm[j + 1] - pm[0]) + copy[0]
                    } else {
                        f64::INFINITY
                    };
                }
            }
            PrefixStage::Fallback { lp, cp, copy } => {
                for (j, out) in row.iter_mut().enumerate() {
                    *out = (((lp[j + 1] - lp[0]) + cp[j]) - cp[0]) + copy[0];
                }
            }
        }
        cells += n as u64;
    }
    for kk in 2..=k {
        let (head, tail) = scratch.s.split_at_mut(kk * n);
        let prev = &head[(kk - 1) * n..];
        // Row kk is only defined for j >= kk - 1.
        let out = &mut tail[kk - 1..n];
        let ch = &mut scratch.choice[kk * n + kk - 1..(kk + 1) * n];
        cells += dp_row(stage(kk - 1), prev, out, ch, kk);
    }
    scratch.cells += cells;
    let best = scratch.s[k * n + (n - 1)];
    if !best.is_finite() {
        return None;
    }
    let mut j = n - 1;
    for kk in (2..=k).rev() {
        let i = scratch.choice[kk * n + j] as usize;
        scratch.splits[kk - 2] = i;
        j = i - 1;
    }
    Some(best)
}

/// Computes row `kk` of the DP: `out[off]` is cell `j = kk - 1 + off`,
/// minimizing over start points `i` with the exact candidate order and
/// float-op order of the reference DP. Returns the number of candidates
/// evaluated.
fn dp_row(st: PrefixStage<'_>, prev: &[f64], out: &mut [f64], ch: &mut [u32], kk: usize) -> u64 {
    const INF: f64 = f64::INFINITY;
    let mut cells = 0u64;
    match st {
        PrefixStage::Plain {
            pm,
            feas_from,
            copy,
        } => {
            for (off, (o, c)) in out.iter_mut().zip(ch.iter_mut()).enumerate() {
                let j = kk - 1 + off;
                // Feasible starts form the suffix [feas_from[j], j];
                // infeasible candidates would be INF and can never win,
                // so skipping them preserves the reference's winner
                // (strict `<` never fires on INF) and its tie-breaks.
                let lo = (feas_from[j] as usize).max(kk - 1);
                let end = pm[j + 1];
                let mut best = INF;
                let mut best_i = 0u32;
                for i in lo..=j {
                    let v = prev[i - 1].max((end - pm[i]) + copy[i]);
                    if v < best {
                        best = v;
                        best_i = i as u32;
                    }
                }
                cells += (j + 1).saturating_sub(lo) as u64;
                *o = best;
                *c = best_i;
            }
        }
        PrefixStage::Fallback { lp, cp, copy } => {
            for (off, (o, c)) in out.iter_mut().zip(ch.iter_mut()).enumerate() {
                let j = kk - 1 + off;
                let lo = kk - 1;
                let end = lp[j + 1];
                let cpj = cp[j];
                let mut best = INF;
                let mut best_i = 0u32;
                for i in lo..=j {
                    let v = prev[i - 1].max((((end - lp[i]) + cpj) - cp[i]) + copy[i]);
                    if v < best {
                        best = v;
                        best_i = i as u32;
                    }
                }
                cells += (j + 1 - lo) as u64;
                *o = best;
                *c = best_i;
            }
        }
    }
    cells
}

/// Reference O(n²K) dynamic program. `cost(slot, i, j)` returns the stage
/// cost of layers `[i, j]` on processor slot `slot`, or `None` if that
/// placement is infeasible (unsupported operator). Returns `None` when no
/// feasible K-way partition exists or `k > n` / `k == 0` / `n == 0`.
///
/// ```
/// use hetero2pipe::partition::min_max_partition;
///
/// // Six unit-cost layers over three identical processors: 2+2+2.
/// let p = min_max_partition(6, 3, |_slot, i, j| Some((j - i + 1) as f64))
///     .expect("feasible");
/// assert_eq!(p.splits, vec![2, 4]);
/// assert_eq!(p.makespan_ms, 2.0);
/// ```
pub fn min_max_partition<F>(n: usize, k: usize, cost: F) -> Option<Partition>
where
    F: Fn(usize, usize, usize) -> Option<f64>,
{
    if n == 0 || k == 0 || k > n {
        return None;
    }
    const INF: f64 = f64::INFINITY;
    let mut scratch = DpScratch::new();
    scratch.ensure(n, k);
    // s[kk * n + j] = best makespan for layers 0..=j on the first kk
    // slots (flat row-major arena — see DpScratch).
    for (j, out) in scratch.s[n..2 * n].iter_mut().enumerate() {
        *out = cost(0, 0, j).unwrap_or(INF);
    }
    for kk in 2..=k {
        let (head, tail) = scratch.s.split_at_mut(kk * n);
        let prev = &head[(kk - 1) * n..];
        let cur = &mut tail[..n];
        for (j, out) in cur.iter_mut().enumerate().skip(kk - 1) {
            let mut best = INF;
            let mut best_i = 0u32;
            // No early termination: for arbitrary oracles (restricted
            // split points, infeasible ranges, copy costs) the prefix
            // table is not monotone in i, so every candidate must be
            // scanned.
            for i in (kk - 1)..=j {
                let prev_ms = prev[i - 1];
                let c = cost(kk - 1, i, j).unwrap_or(INF);
                let v = prev_ms.max(c);
                if v < best {
                    best = v;
                    best_i = i as u32;
                }
            }
            *out = best;
            scratch.choice[kk * n + j] = best_i;
        }
    }
    if !scratch.s[k * n + (n - 1)].is_finite() {
        return None;
    }
    // Backtrack split points.
    let mut j = n - 1;
    for kk in (2..=k).rev() {
        let i = scratch.choice[kk * n + j] as usize;
        scratch.splits[kk - 2] = i;
        j = i - 1;
    }
    finish(n, k, scratch.splits, cost)
}

/// Evaluates the stage times of `splits` under `cost` and assembles the
/// [`Partition`], shared by the reference DP and the exhaustive
/// enumerator.
fn finish<F>(n: usize, k: usize, splits: Vec<usize>, cost: F) -> Option<Partition>
where
    F: Fn(usize, usize, usize) -> Option<f64>,
{
    debug_assert_eq!(splits.len(), k - 1);
    let mut stage_ms = Vec::with_capacity(k);
    let mut prev = 0usize;
    for (slot, &split) in splits.iter().chain(std::iter::once(&n)).enumerate() {
        if split <= prev || split > n {
            return None;
        }
        stage_ms.push(cost(slot, prev, split - 1)?);
        prev = split;
    }
    let makespan_ms = stage_ms.iter().copied().fold(0.0, f64::max);
    Some(Partition {
        splits,
        stage_ms,
        makespan_ms,
    })
}

/// Upper bound on the number of split-point combinations
/// ([`split_combinations`], i.e. C(n-1, k-1)) that
/// [`min_max_partition_exhaustive`] will enumerate. Above this the call
/// panics immediately instead of silently running for hours: at roughly
/// 100 ns per combination the budget caps a single call near a minute,
/// which is already far beyond any legitimate test or baseline sweep
/// (the Fig. 8a baseline tops out around C(61, 3) ≈ 36k).
pub const EXHAUSTIVE_COMBINATION_BUDGET: u64 = 5_000_000;

/// The number of split-point combinations a brute-force `(n, k)`
/// enumeration visits: C(n - 1, k - 1), saturating at `u64::MAX`.
pub fn split_combinations(n: usize, k: usize) -> u64 {
    if n == 0 || k == 0 || k > n {
        return 0;
    }
    let (n, k) = (n - 1, k - 1);
    let k = k.min(n - k);
    let mut acc: u128 = 1;
    for i in 0..k {
        // Multiply-then-divide keeps every intermediate an exact
        // integer (C(n, i+1) = C(n, i) * (n - i) / (i + 1)).
        acc = acc * (n - i) as u128 / (i + 1) as u128;
        if acc > u64::MAX as u128 {
            return u64::MAX;
        }
    }
    acc as u64
}

/// Brute-force optimal min-max partition by enumerating every split-point
/// combination. Exponential; exposed for tests and the exhaustive-search
/// baseline (Fig. 8a).
///
/// # Panics
///
/// Panics when the enumeration would visit more than
/// [`EXHAUSTIVE_COMBINATION_BUDGET`] combinations ([`split_combinations`]
/// of the shape) — a guard against test misuse wedging CI; use
/// [`min_max_partition`] for anything that large.
pub fn min_max_partition_exhaustive<F>(n: usize, k: usize, cost: F) -> Option<Partition>
where
    F: Fn(usize, usize, usize) -> Option<f64>,
{
    if n == 0 || k == 0 || k > n {
        return None;
    }
    let combos = split_combinations(n, k);
    assert!(
        combos <= EXHAUSTIVE_COMBINATION_BUDGET,
        "min_max_partition_exhaustive(n={n}, k={k}): C({}, {}) = {combos} split combinations \
         exceeds the budget of {EXHAUSTIVE_COMBINATION_BUDGET}; use min_max_partition instead",
        n - 1,
        k - 1,
    );
    let mut best: Option<Partition> = None;
    let mut splits = vec![0usize; k - 1];
    enumerate(n, k, 0, 1, &mut splits, &cost, &mut best);
    best
}

fn enumerate<F>(
    n: usize,
    k: usize,
    idx: usize,
    min_next: usize,
    splits: &mut Vec<usize>,
    cost: &F,
    best: &mut Option<Partition>,
) where
    F: Fn(usize, usize, usize) -> Option<f64>,
{
    if idx == k - 1 {
        if let Some(p) = finish(n, k, splits.clone(), cost) {
            if best.as_ref().is_none_or(|b| p.makespan_ms < b.makespan_ms) {
                *best = Some(p);
            }
        }
        return;
    }
    // Leave room for the remaining stages.
    for s in min_next..=(n - (k - 1 - idx)) {
        splits[idx] = s;
        enumerate(n, k, idx + 1, s + 1, splits, cost, best);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Builds a monotone cost oracle from per-slot per-layer times.
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

    /// Runs the prefix kernel over per-slot layer times with optional
    /// per-slot unsupported layers and per-stage copy curves, mirroring
    /// how the planner lowers `RequestTables`.
    fn run_prefix_kernel(
        times: &[Vec<f64>],
        unsupported: &[Vec<usize>],
        copies: &[Vec<f64>],
        scratch: &mut DpScratch,
    ) -> Option<f64> {
        let n = times[0].len();
        let k = times.len();
        let pm: Vec<Vec<f64>> = times
            .iter()
            .map(|row| {
                let mut p = vec![0.0];
                for &t in row {
                    p.push(p.last().unwrap() + t);
                }
                p
            })
            .collect();
        let feas: Vec<Vec<u32>> = unsupported
            .iter()
            .map(|un| {
                let mut row = vec![0u32; n];
                let mut from = 0u32;
                for (i, slot) in row.iter_mut().enumerate() {
                    if un.contains(&i) {
                        from = (i + 1) as u32;
                    }
                    *slot = from;
                }
                row
            })
            .collect();
        min_max_partition_prefix(
            n,
            k,
            |a| PrefixStage::Plain {
                pm: &pm[a],
                feas_from: &feas[a],
                copy: &copies[a],
            },
            scratch,
        )
    }

    #[test]
    fn balances_uniform_layers_on_identical_processors() {
        // 6 identical layers on 3 identical processors: 2+2+2.
        let c = oracle(vec![vec![1.0; 6]; 3]);
        let p = min_max_partition(6, 3, &c).unwrap();
        assert_eq!(p.splits, vec![2, 4]);
        assert_eq!(p.makespan_ms, 2.0);
    }

    #[test]
    fn loads_follow_processor_speed() {
        // Slot 0 is 4x faster than slot 1: it should take more layers.
        let fast: Vec<f64> = vec![1.0; 8];
        let slow: Vec<f64> = vec![4.0; 8];
        let c = oracle(vec![fast, slow]);
        let p = min_max_partition(8, 2, &c).unwrap();
        assert!(p.splits[0] > 4, "fast slot takes the bigger share");
        // Optimal is 6/2: max(6, 8) = 8? 7/1: max(7,4)=7. Check optimum.
        let ex = min_max_partition_exhaustive(8, 2, &c).unwrap();
        assert_eq!(p.makespan_ms, ex.makespan_ms);
    }

    #[test]
    fn dp_matches_exhaustive_on_heterogeneous_costs() {
        let mut seed = 7u64;
        let mut next = move || {
            seed = seed.wrapping_mul(6364136223846793005).wrapping_add(1);
            ((seed >> 33) % 50 + 1) as f64 / 10.0
        };
        for n in 3..9 {
            for k in 1..=n.min(4) {
                let times: Vec<Vec<f64>> =
                    (0..k).map(|_| (0..n).map(|_| next()).collect()).collect();
                let c = oracle(times);
                let dp = min_max_partition(n, k, &c).unwrap();
                let ex = min_max_partition_exhaustive(n, k, &c).unwrap();
                assert!(
                    (dp.makespan_ms - ex.makespan_ms).abs() < 1e-9,
                    "n={n} k={k}: dp {} vs exhaustive {}",
                    dp.makespan_ms,
                    ex.makespan_ms
                );
            }
        }
    }

    #[test]
    fn prefix_kernel_matches_reference_bit_for_bit() {
        // Randomized heterogeneous times, unsupported layers and copy
        // curves: kernel makespan and splits must be bit-identical to
        // the Option-oracle reference over the equivalent oracle.
        let mut seed = 11u64;
        let mut next = move || {
            seed = seed.wrapping_mul(6364136223846793005).wrapping_add(1);
            (seed >> 33) as usize
        };
        let mut scratch = DpScratch::new();
        for trial in 0..200 {
            let n = 2 + next() % 12;
            let k = 1 + next() % n.min(4);
            let times: Vec<Vec<f64>> = (0..k)
                .map(|_| (0..n).map(|_| (next() % 997 + 1) as f64 / 10.0).collect())
                .collect();
            // Sprinkle unsupported layers on some slots (never making
            // stage feasibility trivially empty on every slot).
            let unsupported: Vec<Vec<usize>> = (0..k)
                .map(|s| {
                    if s % 2 == 1 && next() % 2 == 0 {
                        vec![next() % n]
                    } else {
                        Vec::new()
                    }
                })
                .collect();
            let copies: Vec<Vec<f64>> = (0..k)
                .map(|s| {
                    if s == 0 {
                        vec![0.0; n]
                    } else {
                        (0..n).map(|_| (next() % 53) as f64 / 100.0).collect()
                    }
                })
                .collect();
            // The equivalent Option oracle.
            let pm: Vec<Vec<f64>> = times
                .iter()
                .map(|row| {
                    let mut p = vec![0.0];
                    for &t in row {
                        p.push(p.last().unwrap() + t);
                    }
                    p
                })
                .collect();
            let un = unsupported.clone();
            let cp = copies.clone();
            let c = move |slot: usize, i: usize, j: usize| -> Option<f64> {
                if un[slot].iter().any(|&u| i <= u && u <= j) {
                    return None;
                }
                Some((pm[slot][j + 1] - pm[slot][i]) + cp[slot][i])
            };
            let reference = min_max_partition(n, k, &c);
            let kernel = run_prefix_kernel(&times, &unsupported, &copies, &mut scratch);
            match (reference, kernel) {
                (None, None) => {}
                (Some(r), Some(ms)) => {
                    assert_eq!(
                        r.makespan_ms.to_bits(),
                        ms.to_bits(),
                        "trial {trial}: makespan bits n={n} k={k}"
                    );
                    assert_eq!(r.splits, scratch.splits(), "trial {trial}: splits");
                }
                (r, k) => panic!("trial {trial}: feasibility diverged: {r:?} vs {k:?}"),
            }
        }
    }

    #[test]
    fn infeasible_slots_are_avoided() {
        // Slot 1 (e.g. NPU) cannot run layer 2.
        let c = |slot: usize, i: usize, j: usize| -> Option<f64> {
            if slot == 1 && i <= 2 && 2 <= j {
                return None;
            }
            Some((j - i + 1) as f64)
        };
        let p = min_max_partition(5, 2, c).unwrap();
        // Layer 2 must be in stage 0 (slot 0), so the split is after 2.
        assert!(p.splits[0] > 2);
    }

    #[test]
    fn fully_infeasible_partition_returns_none() {
        // Slot 0 supports nothing.
        let c = |slot: usize, _i: usize, _j: usize| -> Option<f64> {
            if slot == 0 {
                None
            } else {
                Some(1.0)
            }
        };
        assert!(min_max_partition(4, 2, c).is_none());
    }

    #[test]
    fn prefix_kernel_fully_infeasible_returns_none() {
        // Every layer unsupported on the only slot.
        let times = vec![vec![1.0; 4]];
        let unsupported = vec![vec![0, 1, 2, 3]];
        let copies = vec![vec![0.0; 4]];
        let mut scratch = DpScratch::new();
        assert!(run_prefix_kernel(&times, &unsupported, &copies, &mut scratch).is_none());
    }

    #[test]
    fn degenerate_sizes_are_rejected() {
        let c = |_: usize, i: usize, j: usize| Some((j - i + 1) as f64);
        assert!(min_max_partition(0, 1, c).is_none());
        assert!(min_max_partition(3, 0, c).is_none());
        assert!(min_max_partition(3, 4, c).is_none());
        let mut scratch = DpScratch::new();
        let pm = [0.0, 1.0, 2.0, 3.0];
        let feas = [0u32; 3];
        let copy = [0.0; 3];
        let stage = |_a: usize| PrefixStage::Plain {
            pm: &pm,
            feas_from: &feas,
            copy: &copy,
        };
        assert!(min_max_partition_prefix(0, 1, stage, &mut scratch).is_none());
        assert!(min_max_partition_prefix(3, 0, stage, &mut scratch).is_none());
        assert!(min_max_partition_prefix(3, 4, stage, &mut scratch).is_none());
    }

    #[test]
    fn k_equals_n_gives_one_layer_per_stage() {
        let c = oracle(vec![vec![2.0, 3.0, 1.0]; 3]);
        let p = min_max_partition(3, 3, &c).unwrap();
        assert_eq!(p.splits, vec![1, 2]);
        assert_eq!(p.stage_ms, vec![2.0, 3.0, 1.0]);
        assert_eq!(p.makespan_ms, 3.0);
    }

    #[test]
    fn split_combinations_counts_choose() {
        assert_eq!(split_combinations(6, 3), 10); // C(5, 2)
        assert_eq!(split_combinations(8, 1), 1);
        assert_eq!(split_combinations(8, 8), 1);
        assert_eq!(split_combinations(62, 4), 35990); // C(61, 3): Fig. 8a scale
        assert_eq!(split_combinations(0, 1), 0);
        assert_eq!(split_combinations(128, 64), u64::MAX); // saturates
    }

    #[test]
    #[should_panic(expected = "exceeds the budget")]
    fn exhaustive_rejects_oversized_enumerations() {
        // C(199, 99) is astronomically past the budget: the guard must
        // fire before any recursion happens.
        let c = |_: usize, i: usize, j: usize| Some((j - i + 1) as f64);
        let _ = min_max_partition_exhaustive(200, 100, c);
    }

    #[test]
    fn cells_counter_accumulates_and_drains() {
        let times = vec![vec![1.0; 6]; 3];
        let unsupported = vec![Vec::new(); 3];
        let copies = vec![vec![0.0; 6]; 3];
        let mut scratch = DpScratch::new();
        run_prefix_kernel(&times, &unsupported, &copies, &mut scratch).unwrap();
        let cells = scratch.take_cells();
        assert!(cells > 0, "kernel evaluated no cells?");
        assert_eq!(scratch.take_cells(), 0, "drain must reset");
    }
}
