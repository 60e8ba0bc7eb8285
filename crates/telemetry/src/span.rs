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
//! same parent and name.
//!
//! Names are interned: the recorder numbers every distinct name text
//! once and keeps the number in its records, rendering the text only
//! where records are read ([`SpanRecorder::records`]). The [`span!`]
//! macro passes its format string and arguments as a typed key
//! ([`SpanRecorder::enter_fmt`]); the recorder compares the key in full
//! against the keys it has seen and formats the name only on a key's
//! first sight. Keys that render the same text, and an
//! [`SpanRecorder::enter`] of that text, share one name, so sibling
//! ordinals count by rendered name. A per-`(parent, name)` counter
//! supplies the ordinal and caches the FNV-1a state after the parent id
//! and the name bytes, so a warm `enter` hashes only the eight ordinal
//! bytes, costs O(1) however many spans the recorder has seen, and
//! allocates nothing. Beyond its two clock reads, a warm span is two
//! lookups and a push.
//!
//! Wall-clock fields (`start_us`, `dur_us`) are measured, not derived,
//! and are the only non-deterministic part of a record; a record keeps
//! its clock readings and converts them when read.
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
//!
//! [`span!`]: crate::span!

use std::cell::RefCell;
use std::collections::{HashMap, VecDeque};
use std::hash::{BuildHasherDefault, Hasher};
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

/// One argument of a formatted span name, part of the name's key. Only
/// types whose equal values always format to equal text convert into
/// it, so equal keys render equal names.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SpanArg<'a> {
    Uint(usize),
    Str(&'a str),
}

impl From<usize> for SpanArg<'_> {
    fn from(v: usize) -> Self {
        SpanArg::Uint(v)
    }
}

impl<'a> From<&'a str> for SpanArg<'a> {
    fn from(s: &'a str) -> Self {
        SpanArg::Str(s)
    }
}

/// Arguments a [`Key`] holds; a name formatted from more is looked up
/// by its rendered text.
const KEY_ARGS: usize = 3;

/// A `span!` key as the recorder compares it: the format string by its
/// address and length, which identify a `'static` literal exactly (two
/// literals that read alike at two addresses are two keys that render
/// one name), and the arguments, a `&str` by the name id of its text.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
struct Key {
    fmt: (usize, usize),
    /// Bit `i` is set when argument `i` is a string.
    strs: u8,
    args: [usize; KEY_ARGS],
}

/// Folds the key into one word before the hasher's one multiplication,
/// rotating each field so small arguments land on distinct bits. Equal
/// keys fold to equal words, and the map compares keys in full.
impl std::hash::Hash for Key {
    fn hash<H: Hasher>(&self, state: &mut H) {
        let mut word =
            self.fmt.0 ^ self.fmt.1.rotate_left(48) ^ usize::from(self.strs).rotate_left(56);
        for (i, &arg) in self.args.iter().enumerate() {
            word ^= arg.rotate_left(16 * i as u32 + 8);
        }
        state.write_usize(word);
    }
}

/// The word-at-a-time multiplicative mix of rustc's `FxHasher`, for the
/// recorder's lookup maps. The maps compare their keys in full on every
/// probe, so the hash only picks a bucket; their keys are span names
/// and formats of this program, and no map is iterated where the order
/// could reach an output.
#[derive(Default)]
struct WordHasher(u64);

impl WordHasher {
    fn mix(&mut self, word: u64) {
        self.0 = (self.0.rotate_left(5) ^ word).wrapping_mul(0x51_7c_c1_b7_27_22_0a_95);
    }
}

impl Hasher for WordHasher {
    fn write(&mut self, bytes: &[u8]) {
        let mut chunks = bytes.chunks_exact(8);
        for chunk in &mut chunks {
            let mut word = [0u8; 8];
            word.copy_from_slice(chunk);
            self.mix(u64::from_le_bytes(word));
        }
        let rest = chunks.remainder();
        if !rest.is_empty() {
            let mut word = [0u8; 8];
            word[..rest.len()].copy_from_slice(rest);
            self.mix(u64::from_le_bytes(word));
        }
    }

    fn finish(&self) -> u64 {
        self.0
    }
}

type WordMap<K, V> = HashMap<K, V, BuildHasherDefault<WordHasher>>;

const FNV_OFFSET: u64 = 0xcbf2_9ce4_8422_2325;
const FNV_PRIME: u64 = 0x0000_0100_0000_01b3;

/// `FNV_PRIME^k` for `k` in `0..=8`.
const FNV_PRIME_POWERS: [u64; 9] = {
    let mut powers = [1u64; 9];
    let mut k = 1;
    while k < 9 {
        powers[k] = powers[k - 1].wrapping_mul(FNV_PRIME);
        k += 1;
    }
    powers
};

/// Continues an FNV-1a hash from state `hash` over `bytes`.
fn fnv_extend(mut hash: u64, bytes: &[u8]) -> u64 {
    for &byte in bytes {
        hash ^= u64::from(byte);
        hash = hash.wrapping_mul(FNV_PRIME);
    }
    hash
}

/// Continues an FNV-1a hash from state `hash` over the eight
/// little-endian bytes of `ordinal`. A zero byte only multiplies the
/// state by the prime, so the zero bytes above the ordinal's highest
/// set byte fold into one multiplication by a power of the prime.
fn fnv_ordinal(hash: u64, ordinal: u64) -> u64 {
    let used = 8 - (ordinal.leading_zeros() / 8) as usize;
    fnv_extend(hash, &ordinal.to_le_bytes()[..used]).wrapping_mul(FNV_PRIME_POWERS[8 - used])
}

/// A span's id: FNV-1a over its parent's id, its name and its sibling
/// ordinal.
#[cfg(test)]
fn fnv1a(parent: u64, name: &str, ordinal: u64) -> u64 {
    let prefix = fnv_extend(
        fnv_extend(FNV_OFFSET, &parent.to_le_bytes()),
        name.as_bytes(),
    );
    fnv_extend(prefix, &ordinal.to_le_bytes())
}

/// A retained span: a [`SpanRecord`] with its name kept as a name id
/// and its times as clock readings, converted where records are read.
#[derive(Debug, Clone, Copy)]
struct Span {
    id: u64,
    parent: Option<u64>,
    name: u32,
    depth: u32,
    start: Instant,
    end: Option<Instant>,
}

impl Span {
    fn is_closed(&self) -> bool {
        self.end.is_some()
    }
}

/// The spans entered so far under one parent with one name.
#[derive(Debug)]
struct Siblings {
    /// The FNV-1a state after the parent id and the name bytes.
    prefix: u64,
    /// The next sibling's ordinal: the count of earlier spans with this
    /// parent and name.
    next: u64,
}

#[derive(Debug)]
struct Inner {
    /// The retained records in enter order. A span's sequence number
    /// is its enter index over the recorder's lifetime; the record of
    /// sequence number `seq` sits at `seq - dropped`.
    records: VecDeque<Span>,
    /// Records evicted from the front of the window so far.
    dropped: usize,
    /// Window length at which the next `enter` sweeps first.
    sweep_at: usize,
    /// Sequence numbers of the open spans, in enter order: the last is
    /// the parent of the next span entered.
    stack: Vec<usize>,
    /// Sibling counters of root spans, by name id. Roots keep theirs,
    /// so root ids keep counting.
    roots: Vec<Option<Siblings>>,
    /// Sibling counters of child spans, by parent id and name id. A
    /// sweep drops the counters of closed parents, which take no new
    /// children.
    children: WordMap<(u64, u32), Siblings>,
    /// Every name seen, by name id, and the text of every `&str`
    /// argument of a key.
    names: Vec<String>,
    /// Name ids by text.
    by_text: WordMap<String, u32>,
    /// Name ids by `span!` key.
    by_key: WordMap<Key, u32>,
}

impl Default for Inner {
    fn default() -> Self {
        Self {
            records: VecDeque::new(),
            dropped: 0,
            sweep_at: SPAN_WINDOW,
            stack: Vec::new(),
            roots: Vec::new(),
            children: WordMap::default(),
            names: Vec::new(),
            by_text: WordMap::default(),
            by_key: WordMap::default(),
        }
    }
}

impl Inner {
    /// The id of the name `text`, numbered on first sight.
    fn intern(&mut self, text: &str) -> u32 {
        if let Some(&name) = self.by_text.get(text) {
            return name;
        }
        let name = self.names.len() as u32;
        self.names.push(text.to_owned());
        self.by_text.insert(text.to_owned(), name);
        name
    }

    /// The name id of the format string `fmt` with `args`, compared in
    /// full against the keys seen before; `render` formats the name
    /// only the first time the key is seen.
    fn intern_key(
        &mut self,
        fmt: &'static str,
        args: &[SpanArg<'_>],
        render: impl FnOnce() -> String,
    ) -> u32 {
        if args.len() > KEY_ARGS {
            return self.intern(&render());
        }
        let mut key = Key {
            fmt: (fmt.as_ptr().addr(), fmt.len()),
            strs: 0,
            args: [0; KEY_ARGS],
        };
        for (i, &arg) in args.iter().enumerate() {
            key.args[i] = match arg {
                SpanArg::Uint(v) => v,
                SpanArg::Str(s) => {
                    key.strs |= 1 << i;
                    self.intern(s) as usize
                }
            };
        }
        if let Some(&name) = self.by_key.get(&key) {
            return name;
        }
        let name = self.intern(&render());
        self.by_key.insert(key, name);
        name
    }

    /// The id of the next span named `name` under `parent`.
    fn next_id(&mut self, parent: Option<u64>, name: u32) -> u64 {
        let new = || Siblings {
            prefix: fnv_extend(
                fnv_extend(FNV_OFFSET, &parent.unwrap_or(0).to_le_bytes()),
                self.names[name as usize].as_bytes(),
            ),
            next: 0,
        };
        let siblings = match parent {
            None => {
                let i = name as usize;
                if self.roots.len() <= i {
                    self.roots.resize_with(i + 1, || None);
                }
                self.roots[i].get_or_insert_with(new)
            }
            Some(p) => self.children.entry((p, name)).or_insert_with(new),
        };
        let id = fnv_ordinal(siblings.prefix, siblings.next);
        siblings.next += 1;
        id
    }

    /// Opens a span named `name` under the innermost open span (if
    /// any) and returns its sequence number.
    fn open(&mut self, name: u32, start: Instant) -> usize {
        if self.records.len() >= self.sweep_at {
            self.sweep();
        }
        let (parent, depth) = match self.stack.last() {
            Some(&seq) => {
                let record = self.record(seq);
                (Some(record.id), record.depth + 1)
            }
            None => (None, 0),
        };
        let id = self.next_id(parent, name);
        let seq = self.dropped + self.records.len();
        self.records.push_back(Span {
            id,
            parent,
            name,
            depth,
            start,
            end: None,
        });
        self.stack.push(seq);
        seq
    }

    /// The retained record of sequence number `seq`, which must not
    /// have been evicted (open records never are).
    fn record(&self, seq: usize) -> &Span {
        &self.records[seq - self.dropped]
    }

    /// Evicts the oldest closed records down to [`SWEEP_KEEP`] and drops
    /// the sibling counters of closed parents. An open record at the
    /// front stops eviction; the next sweep then waits for another
    /// `SWEEP_KEEP` records, so sweeps stay amortized.
    fn sweep(&mut self) {
        while self.records.len() > SWEEP_KEEP && self.records.front().is_some_and(Span::is_closed) {
            self.records.pop_front();
            self.dropped += 1;
        }
        let open: Vec<u64> = self.stack.iter().map(|&seq| self.record(seq).id).collect();
        self.children.retain(|(parent, _), _| open.contains(parent));
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
    fn default() -> Self {
        Self {
            epoch: now(),
            inner: RefCell::new(Inner::default()),
        }
    }
}

/// The clock a recorder reads: once when it is made, and when each
/// span opens and closes.
#[expect(
    clippy::disallowed_methods,
    reason = "span timings are wall-clock by design and feed no plan bit"
)]
fn now() -> Instant {
    Instant::now()
}

impl SpanRecorder {
    pub fn new() -> Self {
        Self::default()
    }

    /// Opens a span named `name` under the innermost open span (if
    /// any). Returns a guard that closes the span when dropped.
    pub fn enter(&self, name: &str) -> SpanGuard<'_> {
        let start = now();
        let mut inner = self.inner.borrow_mut();
        let name = inner.intern(name);
        let seq = inner.open(name, start);
        SpanGuard {
            recorder: self,
            seq,
        }
    }

    /// Opens a span named by the format string `fmt` with `args`, the
    /// entry [`span!`](crate::span!) makes. The span's name is the text
    /// `render` returns, which must be `fmt` formatted with `args`; it
    /// is called only the first time the recorder sees this `fmt` and
    /// these `args`.
    pub fn enter_fmt(
        &self,
        fmt: &'static str,
        args: &[SpanArg<'_>],
        render: impl FnOnce() -> String,
    ) -> SpanGuard<'_> {
        let start = now();
        let mut inner = self.inner.borrow_mut();
        let name = inner.intern_key(fmt, args, render);
        let seq = inner.open(name, start);
        SpanGuard {
            recorder: self,
            seq,
        }
    }

    /// Copies out the retained records (closed and still-open) in
    /// enter order, with their names rendered.
    pub fn records(&self) -> Vec<SpanRecord> {
        let inner = self.inner.borrow();
        inner
            .records
            .iter()
            .map(|s| SpanRecord {
                id: s.id,
                parent: s.parent,
                name: inner.names[s.name as usize].clone(),
                depth: s.depth,
                start_us: s.start.duration_since(self.epoch).as_secs_f64() * 1e6,
                dur_us: s.end.map_or(OPEN_DUR_US, |end| {
                    end.duration_since(s.start).as_secs_f64() * 1e6
                }),
            })
            .collect()
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
        let end = now();
        let mut inner = self.inner.borrow_mut();
        let index = seq - inner.dropped;
        inner.records[index].end = Some(end);
        // The guard being dropped is normally the top of the stack;
        // retain-by-value keeps the recorder consistent even if guards
        // are dropped out of order.
        if inner.stack.last() == Some(&seq) {
            inner.stack.pop();
        } else {
            inner.stack.retain(|&s| s != seq);
        }
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

    /// The literal names of the random runs, entered by text.
    const NAMES: [&str; 4] = ["plan", "prepare", "window", "window:0"];

    /// The names `span_guard!(rec, "window:{}", w)` renders, by `w`.
    const WINDOWS: [&str; 3] = ["window:0", "window:1", "window:2"];

    /// Runs a seeded random enter/drop sequence: at most three guards
    /// open at once, names drawn from four literal names entered by
    /// text and three formatted by `span_guard!` (one of which renders
    /// the same text as a literal), and every fourth close picks an
    /// arbitrary open guard instead of the innermost one.
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
                let pick = next() % (NAMES.len() + WINDOWS.len());
                let parent = open.last().map(|&(_, ix)| ix).or(base);
                let (guard, name) = match pick.checked_sub(NAMES.len()) {
                    None => (rec.enter(NAMES[pick]), NAMES[pick]),
                    Some(w) => (crate::span_guard!(rec, "window:{}", w), WINDOWS[w]),
                };
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
            for parent in counter_parents(rec) {
                if !open_ids.contains(&parent) {
                    self.failures.push(format!(
                        "sweep {} kept the counters of closed parent {parent:016x}",
                        self.sweeps
                    ));
                }
            }
        }
    }

    /// The parent of every `(parent, name)` sibling counter `rec` holds
    /// for child spans.
    #[expect(
        clippy::disallowed_methods,
        reason = "the caller checks each parent on its own, in any order"
    )]
    fn counter_parents(rec: &SpanRecorder) -> Vec<u64> {
        rec.inner
            .borrow()
            .children
            .keys()
            .map(|&(parent, _)| parent)
            .collect()
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(64))]

        /// Every id equals the one the original numbering gave: the
        /// ordinal is the count of earlier records (in enter order)
        /// with the same parent and rendered name, recounted here by a
        /// scan, whether the name was entered as text or formatted by
        /// `span!`. The runs open with a formatted `window:0` and a
        /// literal one under one parent, which must be siblings 0 and
        /// 1: ordinals count by rendered text, not by format string.
        /// Three seeded runs then share the recorder, so later runs
        /// meet counters and keys the earlier ones left.
        #[test]
        fn ids_match_a_scan_over_earlier_records(
            seed in any::<u64>(),
            steps in 1usize..96,
        ) {
            let rec = SpanRecorder::new();
            {
                let _root = rec.enter("plan");
                {
                    crate::span!(rec, "window:{}", 0);
                }
                let _literal = rec.enter("window:0");
            }
            let pair = rec.records();
            prop_assert_eq!(pair[1].id, fnv1a(pair[0].id, "window:0", 0));
            prop_assert_eq!(pair[2].id, fnv1a(pair[0].id, "window:0", 1));
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
        /// carries the id, parent, depth and name an unbounded recorder
        /// gives it, retained plus dropped records are every span
        /// entered, no open span is ever evicted, the recorder's stack
        /// holds exactly the open spans, and each sweep prunes the
        /// `(parent, name)` counters of closed parents. A root span
        /// opens first and stays open while the first run's spans nest
        /// under it, so sweeps meet an open record at the front of the
        /// window; it closes mid-run, and a second run goes on long
        /// enough to sweep three times after.
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
