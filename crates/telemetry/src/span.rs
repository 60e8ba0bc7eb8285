//! RAII phase spans with deterministic ids.
//!
//! A [`SpanRecorder`] keeps one stack of open spans, so nested `enter`
//! calls form a tree. The recorder has one owner: it holds its state in
//! a `RefCell`, so it is `!Sync`, and the planner that records into it
//! shares it through an `Rc`, which no second thread can reach. Span ids
//! are content-derived (FNV-1a over parent id, name, and the sibling
//! ordinal), so the phase tree of a deterministic planner run hashes to
//! the same ids on every run — stable anchors for golden tests and trace
//! diffing. The sibling ordinal is the number of earlier spans with the
//! same parent and name; a per-`(parent, name)` counter supplies it, so
//! `enter` costs O(1) however many spans a long-lived recorder has seen,
//! and a name seen before under the same parent is not copied again.
//!
//! Wall-clock fields (`start_us`, `dur_us`) are measured, not derived,
//! and are the only non-deterministic part of a record.
//!
//! A recorder retains at most [`SPAN_WINDOW`] recent records, so a
//! planner that lives for millions of plans holds a flat amount of
//! memory. An `enter` that finds the window full first runs one sweep:
//! it evicts the oldest closed records from the front down to half the
//! window, counting them in [`SpanRecorder::dropped`], and drops the
//! sibling counters of parents that have closed, since a closed span
//! takes no new children (root names keep theirs, so root ids keep
//! counting). A sweep never evicts an open record, so every guard and
//! stack entry resolves, and the records it keeps retain their ids,
//! parents and depths. Eviction stops at the oldest open record, so a
//! span held open keeps itself and every later record until it closes;
//! the planner's spans close before its calls return.

use std::cell::RefCell;
use std::collections::{HashMap, VecDeque};
use std::time::Instant;

/// Sentinel duration of a span that has not been closed yet.
pub const OPEN_DUR_US: f64 = -1.0;

/// The most records a [`SpanRecorder`] retains, as long as no span
/// stays open while half as many later ones are entered.
pub const SPAN_WINDOW: usize = 4096;

/// Records a sweep keeps: it evicts down to half the window, so
/// consecutive sweeps are at least this many `enter`s apart.
const SWEEP_KEEP: usize = SPAN_WINDOW / 2;

/// One recorded span.
#[derive(Debug, Clone, PartialEq)]
pub struct SpanRecord {
    pub id: u64,
    pub parent: Option<u64>,
    pub name: String,
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
    /// Sequence numbers of the open spans, in enter order: the last is
    /// the parent of the next span entered.
    stack: Vec<usize>,
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
            stack: Vec::new(),
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

    /// Evicts the oldest closed records down to [`SWEEP_KEEP`] and drops
    /// the sibling counters of closed parents. An open record at the
    /// front stops eviction; the next sweep then waits for another
    /// `SWEEP_KEEP` records, so sweeps stay amortized.
    fn sweep(&mut self) {
        while self.records.len() > SWEEP_KEEP
            && self.records.front().is_some_and(SpanRecord::is_closed)
        {
            self.records.pop_front();
            self.dropped += 1;
        }
        let open: Vec<u64> = self.stack.iter().map(|&seq| self.record(seq).id).collect();
        #[expect(
            clippy::disallowed_methods,
            reason = "each parent's counters are pruned on their own, so the visit \
                      order changes nothing"
        )]
        self.ordinals.values_mut().for_each(|siblings| {
            siblings.retain(|parent, _| parent.is_none_or(|p| open.contains(&p)));
        });
        self.sweep_at = SPAN_WINDOW.max(self.records.len() + SWEEP_KEEP);
    }
}

/// Records a tree of timed phases. Create one per planner (or share via
/// [`crate::Telemetry`]); guards returned by [`SpanRecorder::enter`]
/// close their span on drop.
#[derive(Debug)]
pub struct SpanRecorder {
    epoch: Instant,
    inner: RefCell<Inner>,
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
            inner: RefCell::new(Inner::default()),
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

    /// Opens a span named `name` under the innermost open span (if
    /// any). Returns a guard that closes the span when dropped.
    pub fn enter(&self, name: impl Into<String>) -> SpanGuard<'_> {
        let name = name.into();
        let start_us = self.epoch.elapsed().as_secs_f64() * 1e6;
        let mut inner = self.inner.borrow_mut();
        if inner.records.len() >= inner.sweep_at {
            inner.sweep();
        }
        let (parent, depth) = match inner.stack.last() {
            Some(&seq) => {
                let record = inner.record(seq);
                (Some(record.id), record.depth + 1)
            }
            None => (None, 0),
        };
        let ordinal = inner.next_ordinal(parent, &name);
        let id = fnv1a(parent.unwrap_or(0), &name, ordinal);
        let seq = inner.dropped + inner.records.len();
        inner.records.push_back(SpanRecord {
            id,
            parent,
            name,
            depth,
            start_us,
            dur_us: OPEN_DUR_US,
        });
        inner.stack.push(seq);
        SpanGuard {
            recorder: self,
            seq,
        }
    }

    /// Copies out the retained records (closed and still-open) in
    /// enter order.
    pub fn records(&self) -> Vec<SpanRecord> {
        self.inner.borrow().records.iter().cloned().collect()
    }

    /// How many records sweeps have evicted: `records().len() +
    /// dropped()` is the number of spans ever entered.
    pub fn dropped(&self) -> u64 {
        self.inner.borrow().dropped as u64
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

    fn close(&self, seq: usize) {
        let end_us = self.epoch.elapsed().as_secs_f64() * 1e6;
        let mut inner = self.inner.borrow_mut();
        let index = seq - inner.dropped;
        let record = &mut inner.records[index];
        record.dur_us = (end_us - record.start_us).max(0.0);
        // The guard being dropped is normally the top of the stack;
        // retain-by-value keeps the recorder consistent even if guards
        // are dropped out of order.
        inner.stack.retain(|&s| s != seq);
    }
}

/// Closes its span on drop.
#[must_use = "dropping the guard immediately closes the span"]
pub struct SpanGuard<'a> {
    recorder: &'a SpanRecorder,
    seq: usize,
}

impl Drop for SpanGuard<'_> {
    fn drop(&mut self) {
        self.recorder.close(self.seq);
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

    /// Runs a seeded random enter/drop sequence: at most three guards
    /// open at once, names from a three-name alphabet, and every fourth
    /// close picks an arbitrary open guard instead of the innermost one.
    fn random_spans(rec: &SpanRecorder, seed: u64, steps: usize) {
        drive_spans(rec, seed, steps, None, None);
    }

    /// [`random_spans`], reporting every enter and close to `shadow`.
    /// `base` is the shadow index of a span the caller holds open, the
    /// parent of every span entered while no span of the run is open.
    fn drive_spans(
        rec: &SpanRecorder,
        seed: u64,
        steps: usize,
        mut shadow: Option<&mut Shadow>,
        base: Option<usize>,
    ) {
        const NAMES: [&str; 3] = ["plan", "prepare", "window"];
        let mut state = seed | 1;
        let mut next = move || {
            state = state.wrapping_mul(6364136223846793005).wrapping_add(1);
            (state >> 33) as usize
        };
        // Open guards with their shadow indices.
        let mut open: Vec<(SpanGuard<'_>, usize)> = Vec::new();
        let close = |(guard, ix): (SpanGuard<'_>, usize), shadow: &mut Option<&mut Shadow>| {
            drop(guard);
            if let Some(shadow) = shadow {
                shadow.closed(rec, ix);
            }
        };
        for _ in 0..steps {
            if open.len() < 3 && next() % 3 != 0 {
                let name = NAMES[next() % 3];
                let parent = open.last().map(|&(_, ix)| ix).or(base);
                let guard = rec.enter(name);
                let ix = shadow
                    .as_deref_mut()
                    .map_or(0, |shadow| shadow.entered(rec, parent, name));
                open.push((guard, ix));
            } else if !open.is_empty() {
                let ix = if next() % 4 == 0 {
                    next() % open.len()
                } else {
                    open.len() - 1
                };
                close(open.remove(ix), &mut shadow);
            }
        }
        while let Some(last) = open.pop() {
            close(last, &mut shadow);
        }
    }

    /// The oracle's view of one entered span.
    struct OracleSpan {
        id: u64,
        parent: Option<u64>,
        name: &'static str,
        depth: u32,
    }

    /// Every span a retention test entered, numbered as by an unbounded
    /// recorder, and checks of the window made as the test runs.
    #[derive(Default)]
    struct Shadow {
        spans: Vec<OracleSpan>,
        /// Spans entered per parent id and name, never pruned: the
        /// count a scan over every earlier span gives.
        siblings: HashMap<(Option<u64>, &'static str), u64>,
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
        ) -> usize {
            let (parent, depth) = match parent {
                Some(p) => {
                    let p = &self.spans[p];
                    (Some(p.id), p.depth + 1)
                }
                None => (None, 0),
            };
            let ordinal = self.siblings.entry((parent, name)).or_insert(0);
            let id = fnv1a(parent.unwrap_or(0), name, *ordinal);
            *ordinal += 1;
            let ix = self.spans.len();
            self.spans.push(OracleSpan {
                id,
                parent,
                name,
                depth,
            });
            self.open.insert(ix);
            self.check(rec);
            ix
        }

        fn closed(&mut self, rec: &SpanRecorder, ix: usize) {
            self.open.remove(&ix);
            self.check(rec);
        }

        /// Open spans are always retained and the recorder's stack holds
        /// exactly them; after a sweep the recorder counts siblings only
        /// under root names and open parents.
        fn check(&mut self, rec: &SpanRecorder) {
            let dropped = rec.dropped();
            if let Some(&oldest) = self.open.first() {
                if (oldest as u64) < dropped {
                    self.failures
                        .push(format!("open span {oldest} evicted ({dropped} dropped)"));
                }
            }
            let stack = rec.inner.borrow().stack.clone();
            if !stack.iter().eq(&self.open) {
                self.failures.push(format!(
                    "stack {stack:?} differs from the open spans {:?}",
                    self.open
                ));
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
        }
    }

    /// The parent of every sibling counter `rec` holds.
    #[expect(
        clippy::disallowed_methods,
        reason = "the caller checks each parent on its own, in any order"
    )]
    fn counter_parents(rec: &SpanRecorder) -> Vec<Option<u64>> {
        rec.inner
            .borrow()
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
        /// Three seeded runs share the recorder, so later runs meet
        /// counters the earlier ones left.
        #[test]
        fn ids_match_a_scan_over_earlier_records(
            seed in any::<u64>(),
            steps in 1usize..96,
        ) {
            let rec = SpanRecorder::new();
            for k in 0..3u64 {
                random_spans(&rec, seed ^ k.wrapping_mul(0x9e37_79b9_7f4a_7c15), steps);
            }
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

        /// Past the window several times over: every retained record
        /// carries the id, parent and depth an unbounded recorder gives
        /// it, retained plus dropped records are every span entered, no
        /// open span is ever evicted, the recorder's stack holds exactly
        /// the open spans, and each sweep prunes the counters of closed
        /// parents. A root span opens first and stays open while the
        /// first run's spans nest under it, so sweeps meet an open
        /// record at the front of the window; it closes mid-run, and a
        /// second run goes on long enough to sweep three times after.
        #[test]
        fn retained_records_match_an_unbounded_oracle(seed in any::<u64>()) {
            // About 0.45 enters per step: ~10,800 spans while the span
            // is held, then ~7,200 more, which reach the first sweep
            // within 2,048 entries and two more after it.
            let rec = SpanRecorder::new();
            let mut shadow = Shadow::default();
            let hold = rec.enter("hold");
            let held = shadow.entered(&rec, None, "hold");
            drive_spans(&rec, seed, 24_000, Some(&mut shadow), Some(held));
            drop(hold);
            shadow.closed(&rec, held);
            drive_spans(&rec, !seed, 16_000, Some(&mut shadow), None);
            prop_assert!(shadow.failures.is_empty(), "{:?}", shadow.failures.first());
            prop_assert!(shadow.sweeps >= 3, "only {} sweeps", shadow.sweeps);
            let records = rec.records();
            let dropped = rec.dropped() as usize;
            prop_assert_eq!(records.len() + dropped, shadow.spans.len());
            prop_assert!(records.len() <= SPAN_WINDOW);
            for (r, o) in records.iter().zip(&shadow.spans[dropped..]) {
                prop_assert_eq!(
                    (r.id, r.parent, r.depth, r.name.as_str()),
                    (o.id, o.parent, o.depth, o.name)
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
