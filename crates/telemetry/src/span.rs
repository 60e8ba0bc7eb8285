//! RAII phase spans with deterministic ids and per-thread lanes.
//!
//! A [`SpanRecorder`] keeps a per-thread stack of open spans, so nested
//! `enter` calls form a tree even when planner phases fan out across
//! `std::thread::scope` workers. Span ids are content-derived (FNV-1a
//! over parent id, name, and the sibling ordinal), so the sequential
//! phase tree of a deterministic planner run hashes to the same ids on
//! every run — stable anchors for golden tests and trace diffing. The
//! sibling ordinal is the number of earlier spans with the same parent
//! and name; a per-`(parent, name)` counter supplies it, so `enter`
//! costs O(1) however many spans a long-lived recorder holds, and a
//! name seen before under the same parent is not copied again.
//!
//! A span's lane is its parent's lane, and a root span's lane is its
//! thread's. A fan-out that spreads items over worker threads opens
//! each item's span with [`SpanRecorder::enter_at`] instead, under the
//! span the caller captured ([`SpanRecorder::current`]) and on a lane
//! derived from the item, so the recorded tree — ids, depths and
//! lanes — does not depend on which thread claimed which item.
//! Wall-clock fields (`start_us`, `dur_us`) are measured, not derived,
//! and are the only non-deterministic part of a record.

use std::collections::HashMap;
use std::sync::{Mutex, MutexGuard, PoisonError};
use std::thread::ThreadId;
use std::time::Instant;

/// Sentinel duration of a span that has not been closed yet.
pub const OPEN_DUR_US: f64 = -1.0;

/// One recorded span. `lane` is the `tid` of its planner track in the
/// chrome exporter: a root span's lane is a dense per-recorder thread
/// index (0 is the first thread that ever entered a span), a span
/// entered with [`SpanRecorder::enter_at`] sits on the lane its caller
/// names (the planner names the item index), and any other span
/// inherits its parent's lane. Thread and item lanes share one
/// numbering, so every track holds only nested spans while one thread
/// at a time enters root spans, as a planner and its fan-outs do.
#[derive(Debug, Clone, PartialEq)]
pub struct SpanRecord {
    pub id: u64,
    pub parent: Option<u64>,
    pub name: String,
    pub lane: u64,
    pub depth: u32,
    pub start_us: f64,
    pub dur_us: f64,
}

impl SpanRecord {
    pub fn is_closed(&self) -> bool {
        self.dur_us >= 0.0
    }
}

#[derive(Debug, Default)]
struct Inner {
    records: Vec<SpanRecord>,
    /// Per-thread stack of open record indices.
    stacks: HashMap<ThreadId, Vec<usize>>,
    /// Dense lane assignment per thread.
    lanes: HashMap<ThreadId, u64>,
    /// Spans entered so far per name and parent: the next sibling's
    /// ordinal. Records are never removed, so this equals the count of
    /// earlier records with that parent and name. Keyed by name first
    /// so a repeated name is looked up by `&str`.
    ordinals: HashMap<String, HashMap<Option<u64>, u64>>,
}

impl Inner {
    /// The ordinal of the next span named `name` under `parent`.
    fn next_ordinal(&mut self, parent: Option<u64>, name: &str) -> u64 {
        let siblings = match self.ordinals.get_mut(name) {
            Some(siblings) => siblings,
            None => self.ordinals.entry(name.to_owned()).or_default(),
        };
        let next = siblings.entry(parent).or_insert(0);
        let ordinal = *next;
        *next += 1;
        ordinal
    }
}

/// An open span captured on one thread, to parent the spans a fan-out
/// enters on others ([`SpanRecorder::enter_at`]).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SpanParent {
    index: usize,
}

/// Records a tree of timed phases. Create one per planner (or share via
/// [`crate::Telemetry`]); guards returned by [`SpanRecorder::enter`]
/// close their span on drop.
#[derive(Debug)]
pub struct SpanRecorder {
    epoch: Instant,
    inner: Mutex<Inner>,
}

impl Default for SpanRecorder {
    fn default() -> Self {
        Self {
            epoch: Instant::now(),
            inner: Mutex::new(Inner::default()),
        }
    }
}

fn fnv1a(parent: u64, name: &str, ordinal: u64) -> u64 {
    let mut hash: u64 = 0xcbf2_9ce4_8422_2325;
    let mut mix = |byte: u8| {
        hash ^= u64::from(byte);
        hash = hash.wrapping_mul(0x0000_0100_0000_01b3);
    };
    for byte in parent.to_le_bytes() {
        mix(byte);
    }
    for byte in name.bytes() {
        mix(byte);
    }
    for byte in ordinal.to_le_bytes() {
        mix(byte);
    }
    hash
}

impl SpanRecorder {
    pub fn new() -> Self {
        Self::default()
    }

    fn lock(&self) -> MutexGuard<'_, Inner> {
        self.inner.lock().unwrap_or_else(PoisonError::into_inner)
    }

    /// Opens a span named `name` under the calling thread's current
    /// span (if any). Returns a guard that closes the span when
    /// dropped.
    pub fn enter(&self, name: impl Into<String>) -> SpanGuard<'_> {
        self.open(name.into(), None)
    }

    /// The calling thread's innermost open span, if any: the parent to
    /// hand to [`SpanRecorder::enter_at`] across a fan-out.
    pub fn current(&self) -> Option<SpanParent> {
        let thread = std::thread::current().id();
        let inner = self.lock();
        let index = *inner.stacks.get(&thread)?.last()?;
        Some(SpanParent { index })
    }

    /// Opens a span named `name` under `parent` on lane `lane`, whatever
    /// thread calls it; spans it encloses on the calling thread inherit
    /// the lane. A fan-out opens each item's span this way, with a lane
    /// derived from the item, so the recorded tree is the same however
    /// the items were spread over threads.
    pub fn enter_at(
        &self,
        parent: Option<SpanParent>,
        lane: u64,
        name: impl Into<String>,
    ) -> SpanGuard<'_> {
        self.open(name.into(), Some((parent, lane)))
    }

    fn open(&self, name: String, at: Option<(Option<SpanParent>, u64)>) -> SpanGuard<'_> {
        let start_us = self.epoch.elapsed().as_secs_f64() * 1e6;
        let thread = std::thread::current().id();
        let mut inner = self.lock();
        let (parent_index, lane) = match at {
            Some((parent, lane)) => (parent.map(|p| p.index), lane),
            None => match inner.stacks.get(&thread).and_then(|s| s.last().copied()) {
                Some(ix) => (Some(ix), inner.records[ix].lane),
                None => {
                    let next_lane = inner.lanes.len() as u64;
                    (None, *inner.lanes.entry(thread).or_insert(next_lane))
                }
            },
        };
        let (parent, depth) = match parent_index {
            Some(ix) => (Some(inner.records[ix].id), inner.records[ix].depth + 1),
            None => (None, 0),
        };
        let ordinal = inner.next_ordinal(parent, &name);
        let id = fnv1a(parent.unwrap_or(0), &name, ordinal);
        let index = inner.records.len();
        inner.records.push(SpanRecord {
            id,
            parent,
            name,
            lane,
            depth,
            start_us,
            dur_us: OPEN_DUR_US,
        });
        inner.stacks.entry(thread).or_default().push(index);
        SpanGuard {
            recorder: self,
            thread,
            index,
        }
    }

    /// Copies out all records (closed and still-open) in enter order.
    pub fn records(&self) -> Vec<SpanRecord> {
        self.lock().records.clone()
    }

    /// Renders the span tree as an indented text listing, roots in
    /// enter order.
    pub fn render_tree(&self) -> String {
        let records = self.records();
        let mut out = String::new();
        for r in &records {
            let indent = "  ".repeat(r.depth as usize);
            if r.is_closed() {
                out.push_str(&format!("{indent}{} {:.3}ms\n", r.name, r.dur_us / 1000.0));
            } else {
                out.push_str(&format!("{indent}{} (open)\n", r.name));
            }
        }
        out
    }

    fn close(&self, thread: ThreadId, index: usize) {
        let end_us = self.epoch.elapsed().as_secs_f64() * 1e6;
        let mut inner = self.lock();
        let start = inner.records[index].start_us;
        inner.records[index].dur_us = (end_us - start).max(0.0);
        if let Some(stack) = inner.stacks.get_mut(&thread) {
            // The guard being dropped is normally the top of the stack;
            // retain-by-value keeps the recorder consistent even if
            // guards are dropped out of order.
            stack.retain(|&ix| ix != index);
        }
    }
}

/// Closes its span on drop.
#[must_use = "dropping the guard immediately closes the span"]
pub struct SpanGuard<'a> {
    recorder: &'a SpanRecorder,
    thread: ThreadId,
    index: usize,
}

impl Drop for SpanGuard<'_> {
    fn drop(&mut self) {
        self.recorder.close(self.thread, self.index);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    #[test]
    fn nested_spans_form_a_tree() {
        let rec = SpanRecorder::new();
        {
            let _root = rec.enter("plan");
            {
                let _child = rec.enter("prepare");
            }
            let _child2 = rec.enter("assemble");
        }
        let records = rec.records();
        assert_eq!(records.len(), 3);
        assert_eq!(records[0].name, "plan");
        assert_eq!(records[0].parent, None);
        assert_eq!(records[1].parent, Some(records[0].id));
        assert_eq!(records[2].parent, Some(records[0].id));
        assert!(records.iter().all(SpanRecord::is_closed));
        assert_eq!(records[0].depth, 0);
        assert_eq!(records[1].depth, 1);
    }

    #[test]
    fn ids_are_deterministic_and_distinct_per_sibling() {
        let tree = || {
            let rec = SpanRecorder::new();
            {
                let _root = rec.enter("plan");
                let _a = rec.enter("phase");
                drop(_a);
                let _b = rec.enter("phase");
            }
            rec.records().iter().map(|r| r.id).collect::<Vec<_>>()
        };
        let first = tree();
        let second = tree();
        assert_eq!(first, second);
        // Same name, same parent, different ordinal => different id.
        assert_ne!(first[1], first[2]);
    }

    #[test]
    fn spans_from_worker_threads_get_their_own_lanes() {
        let rec = SpanRecorder::new();
        let _root = rec.enter("plan");
        std::thread::scope(|scope| {
            for i in 0..2 {
                let rec = &rec;
                scope.spawn(move || {
                    let _s = rec.enter(format!("worker:{i}"));
                });
            }
        });
        drop(_root);
        let records = rec.records();
        assert_eq!(records.len(), 3);
        let mut lanes: Vec<u64> = records.iter().map(|r| r.lane).collect();
        lanes.sort_unstable();
        lanes.dedup();
        assert_eq!(lanes.len(), 3, "each thread gets a distinct lane");
        // Worker spans are roots of their own lanes (no cross-thread
        // parenting).
        assert!(records[1..].iter().all(|r| r.parent.is_none()));
    }

    #[test]
    fn fan_out_spans_record_the_same_tree_on_any_thread() {
        // Item spans entered with `enter_at` get their parent and lane
        // from the caller, not from the thread that ran them, and their
        // children inherit the lane.
        let tree = |spread: bool| {
            let rec = SpanRecorder::new();
            {
                let _root = rec.enter("plan");
                let parent = rec.current();
                let item = |i: u64| {
                    let _s = rec.enter_at(parent, i, format!("prepare:{i}"));
                    let _c = rec.enter("search");
                };
                if spread {
                    std::thread::scope(|scope| {
                        scope.spawn(|| item(1));
                        item(0);
                    });
                } else {
                    item(0);
                    item(1);
                }
            }
            let mut records = rec.records();
            records.sort_by_key(|r| (r.lane, r.depth, r.id));
            records
                .iter()
                .map(|r| (r.id, r.parent, r.lane, r.depth, r.name.clone()))
                .collect::<Vec<_>>()
        };
        let sequential = tree(false);
        assert_eq!(sequential, tree(true));
        let lanes: Vec<u64> = sequential.iter().map(|r| r.2).collect();
        assert_eq!(lanes, [0, 0, 0, 1, 1]);
        assert!(sequential[1..].iter().all(|r| r.1.is_some()));
    }

    /// Runs a seeded random enter/drop sequence on the calling thread:
    /// at most three guards open at once, names from a three-name
    /// alphabet, and every fourth close picks an arbitrary open guard
    /// instead of the innermost one.
    fn random_spans(rec: &SpanRecorder, seed: u64, steps: usize) {
        const NAMES: [&str; 3] = ["plan", "prepare", "window"];
        let mut state = seed | 1;
        let mut next = move || {
            state = state.wrapping_mul(6364136223846793005).wrapping_add(1);
            (state >> 33) as usize
        };
        let mut open = Vec::new();
        for _ in 0..steps {
            if open.len() < 3 && next() % 3 != 0 {
                open.push(rec.enter(NAMES[next() % 3]));
            } else if !open.is_empty() {
                let ix = if next() % 4 == 0 {
                    next() % open.len()
                } else {
                    open.len() - 1
                };
                drop(open.remove(ix));
            }
        }
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(64))]

        /// Every id equals the one the original numbering gave: the
        /// ordinal is the count of earlier records (in enter order)
        /// with the same parent and name, recounted here by a scan.
        #[test]
        fn ids_match_a_scan_over_earlier_records(
            seed in any::<u64>(),
            steps in 1usize..96,
        ) {
            let rec = SpanRecorder::new();
            std::thread::scope(|scope| {
                for k in 1..=2u64 {
                    let rec = &rec;
                    scope.spawn(move || {
                        random_spans(rec, seed ^ k.wrapping_mul(0x9e37_79b9_7f4a_7c15), steps)
                    });
                }
                random_spans(&rec, seed, steps);
            });
            let records = rec.records();
            for (i, r) in records.iter().enumerate() {
                let ordinal = records[..i]
                    .iter()
                    .filter(|e| e.parent == r.parent && e.name == r.name)
                    .count() as u64;
                prop_assert_eq!(
                    r.id,
                    fnv1a(r.parent.unwrap_or(0), &r.name, ordinal),
                    "record {} of {}",
                    i,
                    records.len()
                );
            }
        }
    }

    #[test]
    fn render_tree_indents_children() {
        let rec = SpanRecorder::new();
        {
            let _root = rec.enter("plan");
            let _child = rec.enter("prepare");
        }
        let tree = rec.render_tree();
        assert!(tree.contains("plan "));
        assert!(tree.contains("\n  prepare "));
    }
}
