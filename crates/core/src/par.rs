//! Minimal deterministic parallel runtime for the planner's hot loops.
//!
//! Two planner loops fan out: the per-request subset searches of step 1
//! (only when two or more requests miss the partition memo) and
//! per-window online planning. Both are embarrassingly parallel: every
//! item is computed from shared read-only state and the results are
//! combined by index. The candidate-order assemblies of steps 2–3 run in
//! a plain loop on the calling thread, since an incremental assembly
//! costs less than a scoped spawn. This module provides the fork-join
//! shape on top of scoped threads, with one claim loop ([`try_map`];
//! [`map`] wraps it) and every primitive (the claim cursor, spawn/join)
//! routed through the [`crate::sync`] shim so the `h2p-check` model
//! checker can explore schedules of this exact loop:
//!
//! * no `unsafe`, no new dependencies, no thread pool — workers live only
//!   for the duration of one call;
//! * a shared atomic cursor hands out item indices in order, each worker
//!   records `(index, result)` pairs, and the merge places results back
//!   by index — so the output is **independent of thread count and
//!   scheduling**, the determinism contract the planner's equivalence
//!   proptest pins down;
//! * [`try_map`] reports the error of the **lowest-index** failing item,
//!   matching what a sequential short-circuiting loop would return.
//!
//! A worker panic propagates out of the scope and aborts the whole map,
//! exactly like a panic in the equivalent sequential loop.

use crate::sync::{self, AtomicUsize, Ordering};

/// The number of worker threads to use by default: the machine's
/// available parallelism, or 1 if it cannot be queried. Routed through
/// the [`sync`] shim so a model-check exploration can present a virtual
/// core count (fan-out must happen even on a single-core host for the
/// checker to have schedules to explore).
pub fn available_parallelism() -> usize {
    sync::available_parallelism()
}

/// Below this many items a map takes the sequential path outright: a
/// scoped-thread spawn costs tens of microseconds, so fanning out a
/// single item can only lose.
pub const MIN_PARALLEL_ITEMS: usize = 2;

/// The number of workers a map over `items` items actually spawns when
/// asked for `threads`: never more workers than items (a worker with
/// nothing to claim is pure spawn overhead), and never more than the
/// machine's available parallelism (oversubscribed scoped threads only
/// time-slice one another — the measured `plan/t4`-loses-to-`plan/t1`
/// regression on single-core hosts). `1` means the caller runs the loop
/// sequentially with zero thread-scope setup.
///
/// The planner asks once per planned request, so the clamp must cost
/// little next to planning one small model: the machine's parallelism
/// is probed once per process ([`sync::available_parallelism`]), and a
/// sequential request (`threads <= 1`) answers without asking at all.
pub fn worker_count(threads: usize, items: usize) -> usize {
    if threads <= 1 || items < MIN_PARALLEL_ITEMS {
        return 1;
    }
    threads.min(items).min(available_parallelism()).max(1)
}

/// How many contiguous items a worker claims per cursor fetch. Small maps
/// (the planner's: a handful of requests or windows, each worth
/// hundreds of microseconds) claim one item at a time for best load
/// balance; large maps claim runs of items so the shared cursor is
/// touched O(workers) times instead of O(items). Chunks are contiguous
/// and handed out in increasing order, so the claimed set is always a
/// prefix of the items regardless of chunk size.
fn chunk_size(items: usize, workers: usize) -> usize {
    (items / (workers * 8)).max(1)
}

/// Applies `f` to every item and returns the results in item order:
/// [`try_map`] with a closure that cannot fail, so both share one claim
/// loop.
///
/// With `threads <= 1` (or fewer than two items) this is a plain
/// sequential map; otherwise up to `threads` scoped workers (including
/// the calling thread) pull indices from a shared cursor. The result is
/// bit-identical either way as long as `f` is a pure function of
/// `(index, item)`.
pub fn map<T, R, F>(threads: usize, items: &[T], f: F) -> Vec<R>
where
    T: Sync,
    R: Send,
    F: Fn(usize, &T) -> R + Sync,
{
    match try_map(threads, items, |idx, item| {
        Ok::<R, std::convert::Infallible>(f(idx, item))
    }) {
        Ok(out) => out,
        Err(never) => match never {},
    }
}

/// Applies a fallible `f` to every item: returns all results in item
/// order, or the error of the lowest-index failing item — the same error a sequential
/// short-circuiting loop would surface. After the first error is
/// observed, workers stop claiming new items (already-claimed items still
/// run to completion, keeping the claimed set a prefix of the items, which
/// is what makes the lowest-index rule exact).
pub fn try_map<T, R, E, F>(threads: usize, items: &[T], f: F) -> Result<Vec<R>, E>
where
    T: Sync,
    R: Send,
    E: Send,
    F: Fn(usize, &T) -> Result<R, E> + Sync,
{
    let workers = worker_count(threads, items.len());
    if workers <= 1 {
        return items
            .iter()
            .enumerate()
            .map(|(i, x)| f(i, x))
            .collect::<Result<Vec<R>, E>>();
    }
    let chunk = chunk_size(items.len(), workers);
    let cursor = AtomicUsize::new(0);
    let run = |_worker: usize| {
        let mut local: Vec<(usize, Result<R, E>)> = Vec::new();
        loop {
            let start = cursor.fetch_add(chunk, Ordering::Relaxed);
            if start >= items.len() {
                break;
            }
            // A claimed chunk runs to completion even if another worker
            // fails meanwhile — the claimed set stays a prefix of the
            // items, which is what makes the lowest-index rule exact.
            let end = (start + chunk).min(items.len());
            for (idx, item) in items[start..end].iter().enumerate() {
                let idx = start + idx;
                let out = f(idx, item);
                if out.is_err() {
                    // Stop further claims: every later fetch lands past
                    // the last item, and everything handed out so far
                    // (a prefix) still runs.
                    cursor.store(items.len(), Ordering::Relaxed);
                }
                local.push((idx, out));
            }
        }
        local
    };
    let mut produced: Vec<Vec<(usize, Result<R, E>)>> = sync::scope(|scope| {
        let handles: Vec<_> = (1..workers).map(|w| scope.spawn(move || run(w))).collect();
        let mut all = vec![run(0)];
        for h in handles {
            match h.join() {
                Ok(local) => all.push(local),
                Err(panic) => std::panic::resume_unwind(panic),
            }
        }
        all
    });
    let mut slots: Vec<Option<Result<R, E>>> = (0..items.len()).map(|_| None).collect();
    for local in produced.drain(..) {
        for (idx, value) in local {
            slots[idx] = Some(value);
        }
    }
    // First error in index order wins; on success every slot is filled.
    let mut out = Vec::with_capacity(items.len());
    for (idx, slot) in slots.into_iter().enumerate() {
        match slot {
            Some(Ok(v)) => out.push(v),
            Some(Err(e)) => return Err(e),
            // Only reachable when an error stopped the claims before
            // this index was claimed; the error lives at a lower index
            // and was returned above — reaching here is a runtime bug.
            None => panic!("par::try_map lost the result of item {idx} without an error"),
        }
    }
    Ok(out)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn map_preserves_order_for_all_thread_counts() {
        let items: Vec<usize> = (0..37).collect();
        let seq: Vec<usize> = items.iter().map(|&x| x * x + 1).collect();
        for threads in [0, 1, 2, 3, 4, 8, 64] {
            let par = map(threads, &items, |_, &x| x * x + 1);
            assert_eq!(par, seq, "threads={threads}");
        }
    }

    #[test]
    fn map_passes_item_indices() {
        let items = vec!["a", "b", "c", "d", "e"];
        let out = map(4, &items, |idx, &s| format!("{idx}:{s}"));
        assert_eq!(out, vec!["0:a", "1:b", "2:c", "3:d", "4:e"]);
    }

    #[test]
    fn map_handles_empty_and_singleton() {
        let empty: Vec<u32> = Vec::new();
        assert!(map(4, &empty, |_, &x| x).is_empty());
        assert_eq!(map(4, &[7u32], |_, &x| x + 1), vec![8]);
    }

    #[test]
    fn try_map_collects_all_on_success() {
        let items: Vec<i64> = (0..23).collect();
        for threads in [1, 2, 4] {
            let out: Result<Vec<i64>, ()> = try_map(threads, &items, |_, &x| Ok(x * 2));
            assert_eq!(out, Ok(items.iter().map(|&x| x * 2).collect()));
        }
    }

    #[test]
    fn try_map_reports_lowest_index_error() {
        // Items 5, 11 and 17 fail; the reported error must always be 5's,
        // matching a sequential short-circuit, for every thread count.
        let items: Vec<usize> = (0..32).collect();
        for threads in [1, 2, 4, 8] {
            let out: Result<Vec<usize>, String> = try_map(threads, &items, |_, &x| {
                if x == 5 || x == 11 || x == 17 {
                    Err(format!("boom at {x}"))
                } else {
                    Ok(x)
                }
            });
            assert_eq!(out, Err("boom at 5".to_owned()), "threads={threads}");
        }
    }

    #[test]
    #[should_panic(expected = "worker exploded")]
    fn worker_panics_propagate() {
        let items: Vec<usize> = (0..16).collect();
        let _ = map(4, &items, |_, &x| {
            if x == 9 {
                panic!("worker exploded");
            }
            x
        });
    }

    #[test]
    fn available_parallelism_is_positive() {
        assert!(available_parallelism() >= 1);
    }

    #[test]
    fn worker_count_clamps_to_items_and_parallelism() {
        // Fewer than MIN_PARALLEL_ITEMS items: always sequential.
        assert_eq!(worker_count(8, 0), 1);
        assert_eq!(worker_count(8, 1), 1);
        // Never more workers than items...
        assert!(worker_count(4, 2) <= 2);
        assert!(worker_count(64, 3) <= 3);
        // ...or than the machine can actually run concurrently.
        assert!(worker_count(64, 1000) <= available_parallelism());
        // Zero threads degrades to sequential, not a panic.
        assert_eq!(worker_count(0, 8), 1);
    }

    #[test]
    fn chunk_size_balances_small_maps_per_item() {
        // Planner-scale maps claim one item at a time.
        assert_eq!(chunk_size(4, 4), 1);
        assert_eq!(chunk_size(16, 4), 1);
        // Large maps amortize the cursor without starving workers.
        let chunk = chunk_size(10_000, 4);
        assert!(chunk > 1 && chunk * 4 <= 10_000);
    }
}
