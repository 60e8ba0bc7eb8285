//! RAII phase spans with deterministic ids and per-thread lanes.
//!
//! A [`SpanRecorder`] keeps a per-thread stack of open spans, so nested
//! `enter` calls form a tree on each thread that shares the recorder.
//! Span ids are content-derived (FNV-1a over parent id, name, and the
//! sibling ordinal), so the sequential phase tree of a deterministic
//! planner run hashes to the same ids on every run — stable anchors for
//! golden tests and trace diffing. The sibling ordinal is the number of
//! earlier spans with the same parent and name; a per-`(parent, name)`
//! counter supplies it, so `enter` costs O(1) however many spans a
//! long-lived recorder has seen, and a name seen before under the same
//! parent is not copied again.
//!
//! A span's lane is its parent's lane, and a root span's lane is its
//! thread's. Wall-clock fields (`start_us`, `dur_us`) are measured, not
//! derived, and are the only non-deterministic part of a record.
//!
//! A recorder retains at most [`SPAN_WINDOW`] recent records, so a
//! planner that lives for millions of plans holds a flat amount of
//! memory. An `enter` that finds the window full first runs one sweep:
//! it evicts the oldest closed records from the front down to half the
//! window, counting them in [`SpanRecorder::dropped`]; drops the sibling
//! counters of parents that have closed, since a closed span takes no
//! new children (root names keep theirs, so root ids keep counting);
//! and removes the empty per-thread stacks that threads which entered
//! spans leave behind. A sweep never evicts an open record, so every
//! guard and per-thread stack entry resolves, and the records it keeps
//! retain their ids, parents, depths and lanes. Eviction stops at the
//! oldest open record, so a span held open keeps itself and every later
//! record until it closes; the planner's spans close before its calls
//! return.

use std::collections::{HashMap, VecDeque};
use std::sync::{Mutex, MutexGuard, PoisonError};
use std::thread::ThreadId;
use std::time::Instant;

/// Sentinel duration of a span that has not been closed yet.
pub const OPEN_DUR_US: f64 = -1.0;

/// The most records a [`SpanRecorder`] retains, as long as no span
/// stays open while half as many later ones are entered.
pub const SPAN_WINDOW: usize = 4096;

/// Records a sweep keeps: it evicts down to half the window, so
/// consecutive sweeps are at least this many `enter`s apart.
const SWEEP_KEEP: usize = SPAN_WINDOW / 2;

/// One recorded span. `lane` is the `tid` of its planner track in the
/// chrome exporter: a root span's lane is a dense per-recorder thread
/// index (0 is the first thread that ever entered a span), and any
/// other span inherits its parent's lane.
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

#[derive(Debug)]
struct Inner {
    /// The retained records in enter order. A span's sequence number
    /// is its enter index over the recorder's lifetime; the record of
    /// sequence number `seq` sits at `seq - dropped`.
    records: VecDeque<SpanRecord>,
    /// Records evicted from the front of the window so far.
    dropped: usize,
    /// Window length at which the next `enter` sweeps first.
    sweep_at: usize,
    /// Per-thread stack of open sequence numbers.
    stacks: HashMap<ThreadId, Vec<usize>>,
    /// Dense lane assignment per thread.
    lanes: HashMap<ThreadId, u64>,
    /// Spans entered so far per name and parent: the next sibling's
    /// ordinal, which equals the count of earlier spans with that
    /// parent and name. A sweep drops the counters of closed parents,
    /// which take no new children, and keeps every name's entry. Keyed
    /// by name first so a repeated name is looked up by `&str`, and a
    /// name seen before is never copied again.
    ordinals: HashMap<String, HashMap<Option<u64>, u64>>,
}

impl Default for Inner {
    fn default() -> Self {
        Self {
            records: VecDeque::new(),
            dropped: 0,
            sweep_at: SPAN_WINDOW,
            stacks: HashMap::new(),
            lanes: HashMap::new(),
            ordinals: HashMap::new(),
        }
    }
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

    /// The retained record of sequence number `seq`, which must not
    /// have been evicted (open records never are).
    fn record(&self, seq: usize) -> &SpanRecord {
        &self.records[seq - self.dropped]
    }

    /// Evicts the oldest closed records down to [`SWEEP_KEEP`], drops
    /// the sibling counters of closed parents and removes empty
    /// per-thread stacks. An open record at the front stops eviction;
    /// the next sweep then waits for another `SWEEP_KEEP` records, so
    /// sweeps stay amortized.
    fn sweep(&mut self) {
        while self.records.len() > SWEEP_KEEP
            && self.records.front().is_some_and(SpanRecord::is_closed)
        {
            self.records.pop_front();
            self.dropped += 1;
        }
        let open: Vec<u64> = self
            .records
            .iter()
            .filter(|r| !r.is_closed())
            .map(|r| r.id)
            .collect();
        #[expect(
            clippy::disallowed_methods,
            reason = "each parent's counters are pruned on their own, so the visit \
                      order changes nothing"
        )]
        self.ordinals.values_mut().for_each(|siblings| {
            siblings.retain(|parent, _| parent.is_none_or(|p| open.contains(&p)));
        });
        self.stacks.retain(|_, stack| !stack.is_empty());
        self.sweep_at = SPAN_WINDOW.max(self.records.len() + SWEEP_KEEP);
    }
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
    #[expect(
        clippy::disallowed_methods,
        reason = "the epoch only offsets wall-clock span timings, which feed no \
                  plan bit"
    )]
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
        let name = name.into();
        let start_us = self.epoch.elapsed().as_secs_f64() * 1e6;
        let thread = std::thread::current().id();
        let mut inner = self.lock();
        if inner.records.len() >= inner.sweep_at {
            inner.sweep();
        }
        let top = inner.stacks.get(&thread).and_then(|s| s.last().copied());
        let (parent, depth, lane) = match top {
            Some(seq) => {
                let record = inner.record(seq);
                (Some(record.id), record.depth + 1, record.lane)
            }
            None => {
                let next_lane = inner.lanes.len() as u64;
                (None, 0, *inner.lanes.entry(thread).or_insert(next_lane))
            }
        };
        let ordinal = inner.next_ordinal(parent, &name);
        let id = fnv1a(parent.unwrap_or(0), &name, ordinal);
        let seq = inner.dropped + inner.records.len();
        inner.records.push_back(SpanRecord {
            id,
            parent,
            name,
            lane,
            depth,
            start_us,
            dur_us: OPEN_DUR_US,
        });
        inner.stacks.entry(thread).or_default().push(seq);
        SpanGuard {
            recorder: self,
            thread,
            seq,
        }
    }

    /// Copies out the retained records (closed and still-open) in
    /// enter order.
    pub fn records(&self) -> Vec<SpanRecord> {
        self.lock().records.iter().cloned().collect()
    }

    /// How many records sweeps have evicted: `records().len() +
    /// dropped()` is the number of spans ever entered.
    pub fn dropped(&self) -> u64 {
        self.lock().dropped as u64
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

    fn close(&self, thread: ThreadId, seq: usize) {
        let end_us = self.epoch.elapsed().as_secs_f64() * 1e6;
        let mut inner = self.lock();
        let index = seq - inner.dropped;
        let record = &mut inner.records[index];
        record.dur_us = (end_us - record.start_us).max(0.0);
        if let Some(stack) = inner.stacks.get_mut(&thread) {
            // The guard being dropped is normally the top of the stack;
            // retain-by-value keeps the recorder consistent even if
            // guards are dropped out of order.
            stack.retain(|&s| s != seq);
        }
    }
}

/// Closes its span on drop.
#[must_use = "dropping the guard immediately closes the span"]
pub struct SpanGuard<'a> {
    recorder: &'a SpanRecorder,
    thread: ThreadId,
    seq: usize,
}

impl Drop for SpanGuard<'_> {
    fn drop(&mut self) {
        self.recorder.close(self.thread, self.seq);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;
    use std::sync::Barrier;

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

    /// Runs a seeded random enter/drop sequence on the calling thread:
    /// at most three guards open at once, names from a three-name
    /// alphabet, and every fourth close picks an arbitrary open guard
    /// instead of the innermost one.
    fn random_spans(rec: &SpanRecorder, seed: u64, steps: usize) {
        drive_spans(rec, seed, steps, None);
    }

    /// [`random_spans`], reporting every enter and close to `shadow` as
    /// test thread `thread`. Each enter or close runs under the
    /// shadow's lock, so the shadow sees the recorder's order.
    fn drive_spans(
        rec: &SpanRecorder,
        seed: u64,
        steps: usize,
        shadow: Option<(&Mutex<Shadow>, usize)>,
    ) {
        const NAMES: [&str; 3] = ["plan", "prepare", "window"];
        let mut state = seed | 1;
        let mut next = move || {
            state = state.wrapping_mul(6364136223846793005).wrapping_add(1);
            (state >> 33) as usize
        };
        let lock = || shadow.map(|(s, thread)| (s.lock().expect("shadow lock"), thread));
        // Open guards with their shadow indices.
        let mut open: Vec<(SpanGuard<'_>, usize)> = Vec::new();
        let close = |(guard, ix): (SpanGuard<'_>, usize)| {
            let mut held = lock();
            drop(guard);
            if let Some((shadow, _)) = held.as_mut() {
                shadow.closed(rec, ix);
            }
        };
        for _ in 0..steps {
            if open.len() < 3 && next() % 3 != 0 {
                let name = NAMES[next() % 3];
                let parent = open.last().map(|&(_, ix)| ix);
                let mut held = lock();
                let guard = rec.enter(name);
                let ix = held.as_mut().map_or(0, |(shadow, thread)| {
                    shadow.entered(rec, parent, name, *thread)
                });
                open.push((guard, ix));
            } else if !open.is_empty() {
                let ix = if next() % 4 == 0 {
                    next() % open.len()
                } else {
                    open.len() - 1
                };
                close(open.remove(ix));
            }
        }
        while let Some(last) = open.pop() {
            close(last);
        }
    }

    /// The oracle's view of one entered span.
    struct OracleSpan {
        id: u64,
        parent: Option<u64>,
        name: &'static str,
        lane: u64,
        depth: u32,
        thread: usize,
    }

    /// Every span a retention test entered, numbered as by an unbounded
    /// recorder, and checks of the window made as the test runs.
    #[derive(Default)]
    struct Shadow {
        spans: Vec<OracleSpan>,
        /// Spans entered per parent id and name, never pruned: the
        /// count a scan over every earlier span gives.
        siblings: HashMap<(Option<u64>, &'static str), u64>,
        /// Lane of each test thread that entered a root span.
        lanes: HashMap<usize, u64>,
        /// Shadow indices of the open spans.
        open: std::collections::BTreeSet<usize>,
        dropped: u64,
        /// Sweeps seen to evict records.
        sweeps: usize,
        failures: Vec<String>,
    }

    impl Shadow {
        fn entered(
            &mut self,
            rec: &SpanRecorder,
            parent: Option<usize>,
            name: &'static str,
            thread: usize,
        ) -> usize {
            let (parent, depth, lane) = match parent {
                Some(p) => {
                    let p = &self.spans[p];
                    (Some(p.id), p.depth + 1, p.lane)
                }
                None => {
                    let next_lane = self.lanes.len() as u64;
                    (None, 0, *self.lanes.entry(thread).or_insert(next_lane))
                }
            };
            let ordinal = self.siblings.entry((parent, name)).or_insert(0);
            let id = fnv1a(parent.unwrap_or(0), name, *ordinal);
            *ordinal += 1;
            let ix = self.spans.len();
            self.spans.push(OracleSpan {
                id,
                parent,
                name,
                lane,
                depth,
                thread,
            });
            self.open.insert(ix);
            self.check(rec);
            ix
        }

        fn closed(&mut self, rec: &SpanRecorder, ix: usize) {
            self.open.remove(&ix);
            self.check(rec);
        }

        /// Open spans are always retained; after a sweep the recorder
        /// counts siblings only under root names and open parents, and
        /// keeps a stack only for threads with an open span.
        fn check(&mut self, rec: &SpanRecorder) {
            let dropped = rec.dropped();
            if let Some(&oldest) = self.open.first() {
                if (oldest as u64) < dropped {
                    self.failures
                        .push(format!("open span {oldest} evicted ({dropped} dropped)"));
                }
            }
            if dropped == self.dropped {
                return;
            }
            self.dropped = dropped;
            self.sweeps += 1;
            let open_ids: Vec<u64> = self.open.iter().map(|&i| self.spans[i].id).collect();
            for parent in counter_parents(rec).into_iter().flatten() {
                if !open_ids.contains(&parent) {
                    self.failures.push(format!(
                        "sweep {} kept the counters of closed parent {parent:016x}",
                        self.sweeps
                    ));
                }
            }
            let mut threads: Vec<usize> = self.open.iter().map(|&i| self.spans[i].thread).collect();
            threads.sort_unstable();
            threads.dedup();
            let stacks = rec.lock().stacks.len();
            if stacks != threads.len() {
                self.failures.push(format!(
                    "sweep {} left {stacks} stacks for {} threads with open spans",
                    self.sweeps,
                    threads.len()
                ));
            }
        }
    }

    /// The parent of every sibling counter `rec` holds.
    #[expect(
        clippy::disallowed_methods,
        reason = "the caller checks each parent on its own, in any order"
    )]
    fn counter_parents(rec: &SpanRecorder) -> Vec<Option<u64>> {
        rec.lock()
            .ordinals
            .values()
            .flat_map(|siblings| siblings.keys().copied())
            .collect()
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

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(12))]

        /// Past the window several times over, on one to three threads:
        /// every retained record carries the id, parent, depth and lane
        /// an unbounded recorder gives it, retained plus dropped records
        /// are every span entered, no open span is ever evicted, and
        /// each sweep prunes the counters of closed parents and the
        /// stacks of threads with nothing open. One more thread holds a
        /// root span open while the others run their steps, so sweeps
        /// meet an open record at the front of the window; the first
        /// thread then runs on alone, long enough to sweep three times
        /// after the held span closes.
        #[test]
        fn retained_records_match_an_unbounded_oracle(
            seed in any::<u64>(),
            threads in 1usize..4,
        ) {
            // About 0.45 enters per step: ~10,800 spans while the span
            // is held, then ~7,200 more, which reach the first sweep
            // within 2,048 entries and two more after it.
            let steps = 24_000 / threads;
            let rec = SpanRecorder::new();
            let shadow = Mutex::new(Shadow::default());
            let (entered, released) = (Barrier::new(2), Barrier::new(2));
            std::thread::scope(|scope| {
                for k in 1..threads {
                    let (rec, shadow) = (&rec, &shadow);
                    scope.spawn(move || {
                        let seed = seed ^ (k as u64).wrapping_mul(0x9e37_79b9_7f4a_7c15);
                        drive_spans(rec, seed, steps, Some((shadow, k)));
                    });
                }
                let (rec, shadow, entered, released) = (&rec, &shadow, &entered, &released);
                scope.spawn(move || {
                    let mut held = shadow.lock().expect("shadow lock");
                    let guard = rec.enter("hold");
                    let ix = held.entered(rec, None, "hold", threads);
                    drop(held);
                    entered.wait();
                    released.wait();
                    let mut held = shadow.lock().expect("shadow lock");
                    drop(guard);
                    held.closed(rec, ix);
                });
                entered.wait();
                drive_spans(rec, seed, steps, Some((shadow, 0)));
                released.wait();
                drive_spans(rec, !seed, 16_000, Some((shadow, 0)));
            });
            let shadow = shadow.into_inner().expect("shadow lock");
            prop_assert!(shadow.failures.is_empty(), "{:?}", shadow.failures.first());
            prop_assert!(shadow.sweeps >= 3, "only {} sweeps", shadow.sweeps);
            let records = rec.records();
            let dropped = rec.dropped() as usize;
            prop_assert_eq!(records.len() + dropped, shadow.spans.len());
            prop_assert!(records.len() <= SPAN_WINDOW);
            for (r, o) in records.iter().zip(&shadow.spans[dropped..]) {
                prop_assert_eq!(
                    (r.id, r.parent, r.depth, r.lane, r.name.as_str()),
                    (o.id, o.parent, o.depth, o.lane, o.name)
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
