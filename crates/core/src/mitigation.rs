//! Contention mitigation by request re-ordering (Sec. V-B, Algorithm 2).
//!
//! High-contention (ℍ) requests that sit within one *contention window*
//! (Def. 4: `K` consecutive pipeline positions) overlap temporally in the
//! staggered execution, compounding memory-bus interference. The
//! mitigation pass re-orders the incoming sequence so that any two ℍ
//! requests are at least `K` positions apart, by relocating low-contention
//! (𝕃) requests between them (Property 3: a pair at distance `d < K`
//! needs `K − d` relocated 𝕃 requests).
//!
//! Which 𝕃 requests move is decided by a Linear Assignment Problem
//! (Eq. 9–10): the cost of moving 𝕃 request `i` into slot `j` is the
//! displacement distance `|i − j|`, and moves that would *create* a new
//! ℍ conflict elsewhere (pulling the last spacer out of an exactly-`K`
//! gap) cost ∞. The LAP is solved with the Kuhn–Munkres algorithm from
//! [`crate::lap`].

use h2p_contention::ContentionClass;
use h2p_telemetry::{CounterId, GaugeId, MetricsRegistry};

use crate::lap;

/// Result of a mitigation pass.
#[derive(Debug, Clone, PartialEq)]
pub struct MitigationOutcome {
    /// `order[p]` = original index of the request now at position `p`.
    pub order: Vec<usize>,
    /// Number of 𝕃 relocations performed.
    pub moves: usize,
    /// Total displacement cost (sum of per-move distances).
    pub displacement_cost: f64,
    /// Whether every ℍ pair ends at least `window` apart. `false` when
    /// the sequence ran out of relocatable 𝕃 requests.
    pub resolved: bool,
}

/// Returns positions of ℍ entries in `classes` ordered ascending.
fn high_positions(classes: &[ContentionClass]) -> Vec<usize> {
    classes
        .iter()
        .enumerate()
        .filter(|(_, c)| c.is_high())
        .map(|(i, _)| i)
        .collect()
}

/// The first adjacent ℍ pair closer than `window`, if any.
fn first_conflict(classes: &[ContentionClass], window: usize) -> Option<(usize, usize)> {
    let highs = high_positions(classes);
    highs
        .windows(2)
        .find(|w| w[1] - w[0] < window)
        .map(|w| (w[0], w[1]))
}

/// Whether any two ℍ entries are closer than `window`.
pub fn has_conflict(classes: &[ContentionClass], window: usize) -> bool {
    first_conflict(classes, window).is_some()
}

/// Number of ℍ-overlap windows in the sequence: sliding windows of size
/// `window` containing two or more ℍ requests. A direct measure of the
/// temporal-overlap exposure the re-ordering minimizes.
pub fn overlap_windows(classes: &[ContentionClass], window: usize) -> usize {
    if classes.len() < window {
        return if high_positions(classes).len() >= 2 {
            1
        } else {
            0
        };
    }
    (0..=classes.len() - window)
        .filter(|&start| {
            classes[start..start + window]
                .iter()
                .filter(|c| c.is_high())
                .count()
                >= 2
        })
        .count()
}

/// Re-orders a request sequence to spread ℍ requests at least `window`
/// apart with minimum total 𝕃 displacement.
///
/// `classes` gives the ℍ/𝕃 class of each request in submission order;
/// `window` is the pipeline depth `K`. The returned
/// [`MitigationOutcome::order`] is a permutation of `0..classes.len()`.
///
/// ```
/// use h2p_contention::ContentionClass::{High as H, Low as L};
/// use hetero2pipe::mitigation::{has_conflict, mitigate};
///
/// let classes = [H, H, L, L, L];
/// let out = mitigate(&classes, 3);
/// assert!(out.resolved);
/// let spread: Vec<_> = out.order.iter().map(|&i| classes[i]).collect();
/// assert!(!has_conflict(&spread, 3));
/// ```
///
/// # Panics
///
/// Panics if `window == 0`.
pub fn mitigate(classes: &[ContentionClass], window: usize) -> MitigationOutcome {
    mitigate_instrumented(classes, window, None)
}

/// The handles of the series [`mitigate_instrumented`] records, on one
/// registry.
#[derive(Debug, Clone, Copy)]
pub(crate) struct MitigationMetrics {
    passes: CounterId,
    conflicts: CounterId,
    moves: CounterId,
    unresolved: CounterId,
    displacement_cost: GaugeId,
    lap_solves: CounterId,
    lap_augment_steps: CounterId,
}

impl MitigationMetrics {
    /// Registers the mitigation series on `metrics`.
    pub(crate) fn register(metrics: &MetricsRegistry) -> Self {
        Self {
            passes: metrics.counter("mitigation.passes"),
            conflicts: metrics.counter("mitigation.conflicts"),
            moves: metrics.counter("mitigation.moves"),
            unresolved: metrics.counter("mitigation.unresolved"),
            displacement_cost: metrics.gauge("mitigation.displacement_cost"),
            lap_solves: metrics.counter("lap.solves"),
            lap_augment_steps: metrics.counter("lap.augment_steps"),
        }
    }
}

/// [`mitigate`] with optional telemetry: when `metrics` is given (a
/// registry and the handles registered on it), records
/// `mitigation.passes` / `conflicts` / `moves` / `unresolved`
/// counters, the cumulative `mitigation.displacement_cost` gauge, and
/// the underlying `lap.solves` / `lap.augment_steps` work counters.
/// The returned outcome is identical to [`mitigate`]'s — telemetry
/// observes the pass, it never alters it.
///
/// # Panics
///
/// Panics if `window == 0`.
pub(crate) fn mitigate_instrumented(
    classes: &[ContentionClass],
    window: usize,
    metrics: Option<(&MetricsRegistry, MitigationMetrics)>,
) -> MitigationOutcome {
    assert!(window > 0, "contention window must be positive");
    if let Some((m, h)) = metrics {
        m.inc(h.passes);
    }
    let record = |out: &MitigationOutcome| {
        if let Some((m, h)) = metrics {
            m.add(h.moves, out.moves as u64);
            m.gauge_add(h.displacement_cost, out.displacement_cost);
            if !out.resolved {
                m.inc(h.unresolved);
            }
        }
    };
    let n = classes.len();
    let mut order: Vec<usize> = (0..n).collect();
    let mut cls: Vec<ContentionClass> = classes.to_vec();
    let mut moves = 0usize;
    let mut displacement_cost = 0.0f64;

    // Each iteration resolves (part of) the left-most conflict; bounded to
    // guarantee termination even on adversarial inputs.
    let max_iters = 4 * n.max(1);
    for _ in 0..max_iters {
        let Some((u, v)) = first_conflict(&cls, window) else {
            let out = MitigationOutcome {
                order,
                moves,
                displacement_cost,
                resolved: true,
            };
            record(&out);
            return out;
        };
        if let Some((m, h)) = metrics {
            m.inc(h.conflicts);
        }
        let need = window - (v - u); // Property 3: K − d relocations.

        // Candidate 𝕃 requests (Eq. 10): outside (u, v), and not the
        // last spacer of an exactly-`window` ℍ gap (removing it would
        // recreate a conflict there).
        let highs = high_positions(&cls);
        let mut candidates: Vec<usize> = Vec::new();
        'cand: for (p, c) in cls.iter().enumerate() {
            if c.is_high() || (p > u && p < v) {
                continue;
            }
            for w in highs.windows(2) {
                // Gap (w[0], w[1]) is exactly at the threshold and p is
                // one of its spacers: pulling p out would break it.
                if w[1] - w[0] == window && p > w[0] && p < w[1] {
                    continue 'cand;
                }
            }
            candidates.push(p);
        }
        if candidates.len() < need {
            let out = MitigationOutcome {
                order,
                moves,
                displacement_cost,
                resolved: false,
            };
            record(&out);
            return out;
        }

        // LAP: rows = insertion slots (right after u), cols = candidates,
        // cost = displacement distance.
        let slots: Vec<usize> = (0..need).map(|s| u + 1 + s).collect();
        let cost: Vec<Vec<f64>> = slots
            .iter()
            .map(|&slot| {
                candidates
                    .iter()
                    .map(|&p| (p as f64 - slot as f64).abs())
                    .collect()
            })
            .collect();
        let (solved, stats) = lap::solve_with_stats(&cost);
        if let Some((m, h)) = metrics {
            m.inc(h.lap_solves);
            m.add(h.lap_augment_steps, stats.augment_steps as u64);
        }
        let Some(assignment) = solved else {
            let out = MitigationOutcome {
                order,
                moves,
                displacement_cost,
                resolved: false,
            };
            record(&out);
            return out;
        };

        // Apply the moves: remove the chosen 𝕃 requests, then insert
        // them right after u (in slot order). Removals are done from the
        // highest position down so earlier indices stay valid.
        let mut chosen: Vec<(usize, usize)> = assignment
            .row_to_col
            .iter()
            .enumerate()
            .map(|(row, &col)| (slots[row], candidates[col]))
            .collect();
        displacement_cost += assignment.total_cost;
        moves += chosen.len();
        // Extract the moved elements.
        let mut extracted: Vec<(usize, (usize, ContentionClass))> = Vec::new();
        chosen.sort_by_key(|&(_, from)| std::cmp::Reverse(from));
        for &(slot, from) in &chosen {
            let item = (order.remove(from), cls.remove(from));
            extracted.push((slot, item));
        }
        // Insert after u's *current* position (u may have shifted left if
        // extracted elements were before it).
        let shift = chosen.iter().filter(|&&(_, from)| from < u).count();
        let insert_at = u + 1 - shift;
        extracted.sort_by_key(|&(slot, _)| slot);
        for (offset, (_, (idx, c))) in extracted.into_iter().enumerate() {
            let at = (insert_at + offset).min(order.len());
            order.insert(at, idx);
            cls.insert(at, c);
        }
    }

    let resolved = !has_conflict(&cls, window);
    let out = MitigationOutcome {
        order,
        moves,
        displacement_cost,
        resolved,
    };
    record(&out);
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use ContentionClass::{High as H, Low as L};

    fn apply(order: &[usize], classes: &[ContentionClass]) -> Vec<ContentionClass> {
        order.iter().map(|&i| classes[i]).collect()
    }

    #[test]
    fn already_clean_sequence_is_untouched() {
        let cls = [H, L, L, H, L, L, H];
        let out = mitigate(&cls, 3);
        assert!(out.resolved);
        assert_eq!(out.moves, 0);
        assert_eq!(out.order, (0..7).collect::<Vec<_>>());
    }

    #[test]
    fn adjacent_highs_get_separated() {
        let cls = [H, H, L, L, L];
        let out = mitigate(&cls, 3);
        assert!(out.resolved, "enough L to fix: {out:?}");
        let after = apply(&out.order, &cls);
        assert!(!has_conflict(&after, 3), "after: {after:?}");
        assert!(out.moves >= 2, "HH at distance 1 needs K-d = 2 moves");
    }

    #[test]
    fn order_is_a_permutation() {
        let cls = [H, H, H, L, L, L, L, L, L];
        let out = mitigate(&cls, 3);
        let mut sorted = out.order.clone();
        sorted.sort_unstable();
        assert_eq!(sorted, (0..9).collect::<Vec<_>>());
    }

    #[test]
    fn insufficient_lows_reports_unresolved() {
        let cls = [H, H, H];
        let out = mitigate(&cls, 2);
        assert!(!out.resolved);
        // Still a permutation.
        let mut sorted = out.order.clone();
        sorted.sort_unstable();
        assert_eq!(sorted, vec![0, 1, 2]);
    }

    #[test]
    fn fixing_one_gap_never_breaks_another() {
        // Two H's properly spaced plus a trailing HH conflict; the spacers
        // of the good gap must not be stolen if it would break it.
        let cls = [H, L, L, H, H, L, L, L];
        let out = mitigate(&cls, 3);
        assert!(out.resolved, "{out:?}");
        let after = apply(&out.order, &cls);
        assert!(!has_conflict(&after, 3), "after: {after:?}");
    }

    #[test]
    fn window_one_never_conflicts() {
        let cls = [H, H, H, H];
        assert!(!has_conflict(&cls, 1));
        let out = mitigate(&cls, 1);
        assert!(out.resolved);
        assert_eq!(out.moves, 0);
    }

    #[test]
    fn overlap_windows_counts_exposure() {
        // HHL with window 2: one window [H,H] with 2 highs.
        assert_eq!(overlap_windows(&[H, H, L], 2), 1);
        assert_eq!(overlap_windows(&[H, L, H], 2), 0);
        assert_eq!(overlap_windows(&[H, L, H], 3), 1);
        assert_eq!(overlap_windows(&[L, L, L], 2), 0);
        // Shorter than window: counted once if ≥2 highs.
        assert_eq!(overlap_windows(&[H, H], 4), 1);
    }

    #[test]
    fn mitigation_reduces_overlap_exposure() {
        let cls = [H, H, L, H, L, L, H, L, L, L];
        let before = overlap_windows(&cls, 3);
        let out = mitigate(&cls, 3);
        let after_seq = apply(&out.order, &cls);
        let after = overlap_windows(&after_seq, 3);
        assert!(after < before, "exposure {before} -> {after}");
        assert_eq!(after, 0, "fully resolved: {after_seq:?}");
    }

    #[test]
    fn displacement_cost_is_positive_when_moves_happen() {
        let cls = [H, H, L, L, L];
        let out = mitigate(&cls, 3);
        assert!(out.moves > 0);
        assert!(out.displacement_cost > 0.0);
    }

    #[test]
    fn all_low_sequence_is_a_no_op() {
        let cls = [L; 8];
        let out = mitigate(&cls, 4);
        assert!(out.resolved);
        assert_eq!(out.moves, 0);
        assert_eq!(out.displacement_cost, 0.0);
    }

    #[test]
    #[should_panic(expected = "window")]
    fn zero_window_panics() {
        mitigate(&[L], 0);
    }

    #[test]
    fn instrumented_pass_matches_plain_and_counts_work() {
        let cls = [H, H, L, H, L, L, H, L, L, L];
        let metrics = MetricsRegistry::new();
        let handles = MitigationMetrics::register(&metrics);
        let instrumented = mitigate_instrumented(&cls, 3, Some((&metrics, handles)));
        assert_eq!(
            instrumented,
            mitigate(&cls, 3),
            "telemetry must not perturb"
        );
        let snap = metrics.snapshot();
        assert_eq!(snap.counter("mitigation.passes"), Some(1));
        assert!(snap.counter("mitigation.conflicts").unwrap_or(0) >= 1);
        assert_eq!(
            snap.counter("mitigation.moves"),
            Some(instrumented.moves as u64)
        );
        assert!(snap.counter("lap.solves").unwrap_or(0) >= 1);
        assert!(snap.counter("lap.augment_steps").unwrap_or(0) >= 1);
        assert!(snap.counter("mitigation.unresolved").is_none());
    }

    #[test]
    fn instrumented_unresolved_pass_is_counted() {
        let metrics = MetricsRegistry::new();
        let handles = MitigationMetrics::register(&metrics);
        let out = mitigate_instrumented(&[H, H, H], 2, Some((&metrics, handles)));
        assert!(!out.resolved);
        assert_eq!(metrics.snapshot().counter("mitigation.unresolved"), Some(1));
    }

    #[test]
    fn long_random_sequences_terminate_and_permute() {
        let mut seed = 77u64;
        let mut next = move || {
            seed = seed.wrapping_mul(6364136223846793005).wrapping_add(1);
            seed >> 33
        };
        for _ in 0..40 {
            let n = 4 + (next() % 20) as usize;
            let window = 2 + (next() % 3) as usize;
            let cls: Vec<ContentionClass> = (0..n)
                .map(|_| if next() % 3 == 0 { H } else { L })
                .collect();
            let out = mitigate(&cls, window);
            let mut sorted = out.order.clone();
            sorted.sort_unstable();
            assert_eq!(sorted, (0..n).collect::<Vec<_>>(), "cls={cls:?}");
            if out.resolved {
                let after = apply(&out.order, &cls);
                assert!(!has_conflict(&after, window), "cls={cls:?} after={after:?}");
            }
        }
    }
}
