//! Thread-safe metrics registry: counters, gauges, and histograms with
//! a JSON- and table-renderable snapshot.
//!
//! Histograms are log-bucketed by default (HDR-style geometric bounds
//! spanning microseconds to minutes) with exact-rank quantile
//! extraction, and two histograms over the same bucket layout merge
//! exactly — snapshot merging is how per-shard registries fold into a
//! fleet view. Explicit fixed bounds remain available via
//! [`MetricsRegistry::observe_with`].
//!
//! Recording is mutex-guarded and intended to be coarse-grained —
//! callers in hot loops accumulate into locals and flush once per
//! request or phase. The registry never panics: a poisoned lock is
//! recovered (metrics are monotone aggregates, so a panicking writer
//! cannot leave them logically inconsistent), and observing a
//! non-finite value is counted separately instead of corrupting the
//! running sum.

use std::collections::BTreeMap;
use std::io::{self, BufWriter, Write};
use std::path::Path;
use std::sync::{Arc, Condvar, Mutex, MutexGuard, PoisonError};
use std::thread::JoinHandle;
use std::time::Duration;

use crate::{json_escape, json_num};

/// Legacy fixed bucket upper bounds, in milliseconds. Kept for callers
/// that want the old coarse layout via
/// [`MetricsRegistry::observe_with`]; the default [`observe`] path now
/// uses the log-bucketed layout from [`log_bounds`].
///
/// [`observe`]: MetricsRegistry::observe
pub const DEFAULT_MS_BUCKETS: [f64; 12] = [
    0.05, 0.1, 0.25, 0.5, 1.0, 2.5, 5.0, 10.0, 25.0, 50.0, 100.0, 250.0,
];

/// Lower edge of the default log-bucketed layout, in ms (1 µs).
pub const LOG_MIN_MS: f64 = 1e-3;
/// Upper edge of the default log-bucketed layout, in ms (one minute).
pub const LOG_MAX_MS: f64 = 60_000.0;
/// Sub-buckets per power of two in the default log layout: relative
/// quantile error is bounded by `2^(1/4) - 1 ≈ 19%` per bucket.
pub const LOG_SUB_BUCKETS: u32 = 4;

/// Geometric bucket upper bounds from `min` to at least `max` with
/// `per_octave` sub-buckets per power of two — the HDR-style layout the
/// default histograms use. Deterministic for fixed arguments, so every
/// registry (and every shard of a fleet) lands on identical, mergeable
/// buckets.
pub fn log_bounds(min: f64, max: f64, per_octave: u32) -> Vec<f64> {
    let per_octave = per_octave.max(1);
    let mut bounds = Vec::new();
    let mut i = 0u32;
    loop {
        let b = min * 2f64.powf(f64::from(i) / f64::from(per_octave));
        bounds.push(b);
        if b >= max || i > 4096 {
            return bounds;
        }
        i += 1;
    }
}

/// Two histograms with different bucket layouts cannot merge: counts
/// would land in buckets with different meanings.
#[derive(Debug, Clone, PartialEq)]
pub struct MergeError {
    /// Name of the offending histogram, when merging via a snapshot.
    pub name: String,
}

impl std::fmt::Display for MergeError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        if self.name.is_empty() {
            write!(f, "histogram bucket layouts differ")
        } else {
            write!(f, "histogram `{}`: bucket layouts differ", self.name)
        }
    }
}

impl std::error::Error for MergeError {}

/// A bucketed histogram: `counts[i]` holds observations `<= bounds[i]`
/// (and greater than the previous bound); the final slot is the
/// overflow bucket. The default layout is log-bucketed
/// ([`Histogram::log_bucketed`]); explicit bounds remain available via
/// [`Histogram::new`]. Tracks the running min/max so quantiles at the
/// distribution edges report observed values, not bucket edges, and
/// counts non-finite observations separately so they can never corrupt
/// the sum.
#[derive(Debug, Clone, PartialEq)]
pub struct Histogram {
    bounds: Vec<f64>,
    counts: Vec<u64>,
    sum: f64,
    count: u64,
    nonfinite: u64,
    min: f64,
    max: f64,
}

impl Histogram {
    pub fn new(bounds: &[f64]) -> Self {
        Self {
            bounds: bounds.to_vec(),
            counts: vec![0; bounds.len() + 1],
            sum: 0.0,
            count: 0,
            nonfinite: 0,
            min: f64::INFINITY,
            max: f64::NEG_INFINITY,
        }
    }

    /// The default log-bucketed layout: geometric bounds from
    /// [`LOG_MIN_MS`] to [`LOG_MAX_MS`] with [`LOG_SUB_BUCKETS`]
    /// sub-buckets per octave (~104 buckets).
    pub fn log_bucketed() -> Self {
        Self::new(&log_bounds(LOG_MIN_MS, LOG_MAX_MS, LOG_SUB_BUCKETS))
    }

    /// Records one observation. Non-finite values (NaN, ±inf) are
    /// tallied in [`Histogram::nonfinite`] and never touch the buckets,
    /// the sum, or the min/max — a single bad measurement cannot poison
    /// every later quantile.
    pub fn observe(&mut self, value: f64) {
        if !value.is_finite() {
            self.nonfinite += 1;
            return;
        }
        let slot = self
            .bounds
            .iter()
            .position(|&b| value <= b)
            .unwrap_or(self.bounds.len());
        self.counts[slot] += 1;
        self.sum += value;
        self.count += 1;
        self.min = self.min.min(value);
        self.max = self.max.max(value);
    }

    pub fn bounds(&self) -> &[f64] {
        &self.bounds
    }

    pub fn counts(&self) -> &[u64] {
        &self.counts
    }

    pub fn sum(&self) -> f64 {
        self.sum
    }

    pub fn count(&self) -> u64 {
        self.count
    }

    /// Observations rejected for being NaN or infinite.
    pub fn nonfinite(&self) -> u64 {
        self.nonfinite
    }

    /// Smallest finite observation, if any.
    pub fn min(&self) -> Option<f64> {
        (self.count > 0).then_some(self.min)
    }

    /// Largest finite observation, if any.
    pub fn max(&self) -> Option<f64> {
        (self.count > 0).then_some(self.max)
    }

    pub fn mean(&self) -> f64 {
        if self.count == 0 {
            0.0
        } else {
            self.sum / self.count as f64
        }
    }

    /// Exact-rank quantile over the bucketed distribution: the value at
    /// nearest rank `⌈q·count⌉` (1-based), reported as the upper bound
    /// of the bucket holding that rank, clamped into the observed
    /// `[min, max]` range (so `quantile(0.0)` ≈ min, `quantile(1.0)` =
    /// max exactly, and a bucket's edge never over-reports the tail).
    /// Returns `None` on an empty histogram. `q` outside `[0, 1]` is
    /// clamped.
    pub fn quantile(&self, q: f64) -> Option<f64> {
        if self.count == 0 {
            return None;
        }
        let q = q.clamp(0.0, 1.0);
        // Nearest rank, 1-based; q = 0 means the first observation.
        let rank = ((q * self.count as f64).ceil() as u64).max(1);
        let mut cum = 0u64;
        for (i, &c) in self.counts.iter().enumerate() {
            cum += c;
            if cum >= rank {
                let edge = self
                    .bounds
                    .get(i)
                    .copied()
                    // Rank landed in the overflow bucket: the max is the
                    // only honest upper estimate available.
                    .unwrap_or(self.max);
                return Some(edge.clamp(self.min, self.max));
            }
        }
        Some(self.max)
    }

    /// Adds `other`'s observations into `self`. Counts merge exactly;
    /// the sums add in call order (floating-point addition, so merge
    /// order can perturb the last ulps of [`Histogram::sum`] — never
    /// the counts, quantiles, min or max).
    ///
    /// # Errors
    ///
    /// Returns [`MergeError`] if the bucket layouts differ.
    pub fn merge(&mut self, other: &Histogram) -> Result<(), MergeError> {
        if self.bounds != other.bounds {
            return Err(MergeError {
                name: String::new(),
            });
        }
        for (a, b) in self.counts.iter_mut().zip(&other.counts) {
            *a += b;
        }
        self.sum += other.sum;
        self.count += other.count;
        self.nonfinite += other.nonfinite;
        self.min = self.min.min(other.min);
        self.max = self.max.max(other.max);
        Ok(())
    }
}

#[derive(Debug, Default)]
struct Inner {
    counters: BTreeMap<String, u64>,
    gauges: BTreeMap<String, f64>,
    histograms: BTreeMap<String, Histogram>,
}

/// The metric named `name`, created by `init` on first use. The name is
/// looked up by `&str` and copied only when the metric is new, so a
/// steady-state update allocates nothing.
fn entry<'m, V>(
    map: &'m mut BTreeMap<String, V>,
    name: &str,
    init: impl FnOnce() -> V,
) -> &'m mut V {
    if !map.contains_key(name) {
        map.insert(name.to_owned(), init());
    }
    #[expect(
        clippy::expect_used,
        reason = "invariant: inserted just above when it was missing"
    )]
    map.get_mut(name).expect("metric present")
}

/// The registry proper. Cheap to create; share behind an `Arc` (or via
/// [`crate::Telemetry`]) across planner threads.
#[derive(Debug, Default)]
pub struct MetricsRegistry {
    inner: Mutex<Inner>,
}

impl MetricsRegistry {
    pub fn new() -> Self {
        Self::default()
    }

    fn lock(&self) -> MutexGuard<'_, Inner> {
        self.inner.lock().unwrap_or_else(PoisonError::into_inner)
    }

    /// Increments a counter by one.
    pub fn inc(&self, name: &str) {
        self.add(name, 1);
    }

    /// Adds `delta` to a counter, creating it at zero first.
    pub fn add(&self, name: &str, delta: u64) {
        *entry(&mut self.lock().counters, name, || 0) += delta;
    }

    /// Sets a gauge to `value` (last write wins).
    pub fn gauge(&self, name: &str, value: f64) {
        *entry(&mut self.lock().gauges, name, || 0.0) = value;
    }

    /// Adds `delta` to a gauge, creating it at zero first.
    pub fn gauge_add(&self, name: &str, delta: f64) {
        *entry(&mut self.lock().gauges, name, || 0.0) += delta;
    }

    /// Records an observation into a histogram with the default
    /// log-bucketed millisecond layout ([`Histogram::log_bucketed`]).
    pub fn observe(&self, name: &str, value: f64) {
        entry(&mut self.lock().histograms, name, Histogram::log_bucketed).observe(value);
    }

    /// Records an observation into a histogram with explicit bucket
    /// bounds. The bounds are fixed by the first observation; later
    /// calls reuse the existing buckets.
    pub fn observe_with(&self, name: &str, bounds: &[f64], value: f64) {
        entry(&mut self.lock().histograms, name, || Histogram::new(bounds)).observe(value);
    }

    /// Copies the current state out into an immutable snapshot.
    pub fn snapshot(&self) -> MetricsSnapshot {
        let inner = self.lock();
        MetricsSnapshot {
            counters: inner.counters.clone(),
            gauges: inner.gauges.clone(),
            histograms: inner.histograms.clone(),
        }
    }

    /// Spawns a background flusher that appends one JSON snapshot line
    /// (`{"seq":N,"counters":...,...}`) to `path` every `period`,
    /// truncating any existing file first. Stopping the returned
    /// [`FlushHandle`] (explicitly or by drop) wakes the flusher, writes
    /// one final snapshot so the last line always reflects the registry
    /// state at shutdown, and joins the thread. A transient write
    /// failure mid-stream does not kill the flusher: it keeps
    /// snapshotting (so the final line is still attempted at stop time)
    /// and [`FlushHandle::stop`] reports the first error it hit.
    ///
    /// # Errors
    ///
    /// Returns the I/O error if the file cannot be created or the
    /// flusher thread cannot be spawned.
    pub fn flush_every(self: &Arc<Self>, period: Duration, path: &Path) -> io::Result<FlushHandle> {
        let file = std::fs::File::create(path)?;
        let mut out = BufWriter::new(file);
        let registry = Arc::clone(self);
        let stop = Arc::new((Mutex::new(false), Condvar::new()));
        let stop_in_thread = Arc::clone(&stop);
        let thread = std::thread::Builder::new()
            .name("h2p-metrics-flush".to_owned())
            .spawn(move || -> io::Result<u64> {
                let mut seq = 0u64;
                let mut deferred: Option<io::Error> = None;
                loop {
                    let (lock, cvar) = &*stop_in_thread;
                    let stopped = {
                        let guard = lock.lock().unwrap_or_else(PoisonError::into_inner);
                        if *guard {
                            true
                        } else {
                            let (guard, _) = cvar
                                .wait_timeout(guard, period)
                                .unwrap_or_else(PoisonError::into_inner);
                            *guard
                        }
                    };
                    let snap = registry.snapshot();
                    let body = snap.to_json();
                    // Splice a sequence number into the object so a
                    // reader can detect dropped or reordered lines.
                    let rest = body.strip_prefix('{').unwrap_or(&body);
                    match writeln!(out, "{{\"seq\":{seq},{rest}").and_then(|()| out.flush()) {
                        Ok(()) => seq += 1,
                        // A transient write failure must not kill the
                        // stream: remember the first error and keep
                        // flushing, so the final snapshot at stop time
                        // is still attempted and the metrics tail is
                        // only lost if the sink stays broken.
                        Err(e) => {
                            deferred.get_or_insert(e);
                        }
                    }
                    if stopped {
                        return match deferred {
                            Some(e) => Err(e),
                            None => Ok(seq),
                        };
                    }
                }
            })?;
        Ok(FlushHandle {
            stop,
            thread: Some(thread),
        })
    }
}

/// Handle to a background metrics flusher started by
/// [`MetricsRegistry::flush_every`]. Call [`FlushHandle::stop`] for the
/// line count and any deferred I/O error; dropping the handle stops the
/// flusher too (final snapshot included) but swallows both.
#[derive(Debug)]
pub struct FlushHandle {
    stop: Arc<(Mutex<bool>, Condvar)>,
    thread: Option<JoinHandle<io::Result<u64>>>,
}

impl FlushHandle {
    fn signal(&self) {
        let (lock, cvar) = &*self.stop;
        *lock.lock().unwrap_or_else(PoisonError::into_inner) = true;
        cvar.notify_all();
    }

    /// Stops the flusher: signals the thread, which writes one final
    /// snapshot line and exits, then joins it.
    ///
    /// # Errors
    ///
    /// Returns any I/O error the flusher hit while writing; on success
    /// yields the number of snapshot lines written.
    pub fn stop(mut self) -> io::Result<u64> {
        self.signal();
        match self.thread.take().map(JoinHandle::join) {
            Some(Ok(result)) => result,
            Some(Err(_)) => Err(io::Error::other("metrics flusher thread panicked")),
            None => Ok(0),
        }
    }
}

impl Drop for FlushHandle {
    fn drop(&mut self) {
        if let Some(thread) = self.thread.take() {
            self.signal();
            let _ = thread.join();
        }
    }
}

/// Point-in-time copy of a registry, ready for JSON or table rendering.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct MetricsSnapshot {
    pub counters: BTreeMap<String, u64>,
    pub gauges: BTreeMap<String, f64>,
    pub histograms: BTreeMap<String, Histogram>,
}

impl MetricsSnapshot {
    pub fn is_empty(&self) -> bool {
        self.counters.is_empty() && self.gauges.is_empty() && self.histograms.is_empty()
    }

    pub fn counter(&self, name: &str) -> Option<u64> {
        self.counters.get(name).copied()
    }

    pub fn gauge(&self, name: &str) -> Option<f64> {
        self.gauges.get(name).copied()
    }

    /// Exact-rank quantile of a named histogram
    /// ([`Histogram::quantile`]); `None` if the histogram is missing or
    /// empty.
    pub fn quantile(&self, name: &str, q: f64) -> Option<f64> {
        self.histograms.get(name).and_then(|h| h.quantile(q))
    }

    /// Folds `other` into `self`: counters add, gauges take `other`'s
    /// value (last write wins, matching the registry's own gauge
    /// semantics), histograms merge bucket-by-bucket. Merging shard
    /// snapshots in any grouping yields identical counts and quantiles
    /// (sums are float-additive; see [`Histogram::merge`]).
    ///
    /// # Errors
    ///
    /// Returns [`MergeError`] naming the first histogram whose bucket
    /// layout differs; `self` keeps the already-merged prefix.
    pub fn merge(&mut self, other: &MetricsSnapshot) -> Result<(), MergeError> {
        for (k, v) in &other.counters {
            *self.counters.entry(k.clone()).or_insert(0) += v;
        }
        for (k, v) in &other.gauges {
            self.gauges.insert(k.clone(), *v);
        }
        for (k, h) in &other.histograms {
            match self.histograms.get_mut(k) {
                Some(mine) => mine.merge(h).map_err(|_| MergeError { name: k.clone() })?,
                None => {
                    self.histograms.insert(k.clone(), h.clone());
                }
            }
        }
        Ok(())
    }

    /// Renders the snapshot as a JSON object with deterministically
    /// sorted keys (the maps are `BTreeMap`s, so identical snapshots
    /// always render byte-identical JSON):
    /// `{"counters":{...},"gauges":{...},"histograms":{name:{bounds,counts,sum,count,nonfinite,min,max}}}`.
    /// Metric names are escaped, so adversarial names (quotes,
    /// backslashes, control characters) still produce valid JSON.
    pub fn to_json(&self) -> String {
        let counters = self
            .counters
            .iter()
            .map(|(k, v)| format!("\"{}\":{}", json_escape(k), v))
            .collect::<Vec<_>>()
            .join(",");
        let gauges = self
            .gauges
            .iter()
            .map(|(k, v)| format!("\"{}\":{}", json_escape(k), json_num(*v)))
            .collect::<Vec<_>>()
            .join(",");
        let histograms = self
            .histograms
            .iter()
            .map(|(k, h)| {
                let bounds = h
                    .bounds()
                    .iter()
                    .map(|b| json_num(*b))
                    .collect::<Vec<_>>()
                    .join(",");
                let counts = h
                    .counts()
                    .iter()
                    .map(u64::to_string)
                    .collect::<Vec<_>>()
                    .join(",");
                format!(
                    "\"{}\":{{\"bounds\":[{}],\"counts\":[{}],\"sum\":{},\"count\":{},\"nonfinite\":{},\"min\":{},\"max\":{}}}",
                    json_escape(k),
                    bounds,
                    counts,
                    json_num(h.sum()),
                    h.count(),
                    h.nonfinite(),
                    // Empty histograms render min/max as null rather than
                    // the ±inf sentinels (json_num maps non-finite to null).
                    json_num(h.min().unwrap_or(f64::NAN)),
                    json_num(h.max().unwrap_or(f64::NAN)),
                )
            })
            .collect::<Vec<_>>()
            .join(",");
        format!(
            "{{\"counters\":{{{counters}}},\"gauges\":{{{gauges}}},\"histograms\":{{{histograms}}}}}"
        )
    }

    /// Renders a plain-text table: one `name value` row per metric,
    /// counters first, then gauges, then histogram means.
    pub fn render_table(&self) -> String {
        let width = self
            .counters
            .keys()
            .chain(self.gauges.keys())
            .chain(self.histograms.keys())
            .map(String::len)
            .max()
            .unwrap_or(0);
        let mut out = String::new();
        for (k, v) in &self.counters {
            out.push_str(&format!("{k:<width$}  {v}\n"));
        }
        for (k, v) in &self.gauges {
            out.push_str(&format!("{k:<width$}  {v:.3}\n"));
        }
        for (k, h) in &self.histograms {
            out.push_str(&format!(
                "{k:<width$}  count={} mean={:.3}\n",
                h.count(),
                h.mean()
            ));
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    /// Minimal recursive-descent JSON validator for the adversarial-name
    /// tests (the workspace has no JSON parser by design). Returns the
    /// remaining input after one complete value, or `None` on malformed
    /// input.
    fn json_value(s: &[u8]) -> Option<&[u8]> {
        let s = skip_ws(s);
        match s.first()? {
            b'{' => {
                let mut s = skip_ws(&s[1..]);
                if s.first() == Some(&b'}') {
                    return Some(&s[1..]);
                }
                loop {
                    s = json_string(skip_ws(s))?;
                    s = skip_ws(s);
                    s = s.strip_prefix(b":")?;
                    s = json_value(s)?;
                    s = skip_ws(s);
                    match s.first()? {
                        b',' => s = &s[1..],
                        b'}' => return Some(&s[1..]),
                        _ => return None,
                    }
                }
            }
            b'[' => {
                let mut s = skip_ws(&s[1..]);
                if s.first() == Some(&b']') {
                    return Some(&s[1..]);
                }
                loop {
                    s = json_value(s)?;
                    s = skip_ws(s);
                    match s.first()? {
                        b',' => s = &s[1..],
                        b']' => return Some(&s[1..]),
                        _ => return None,
                    }
                }
            }
            b'"' => json_string(s),
            b't' => s.strip_prefix(b"true"),
            b'f' => s.strip_prefix(b"false"),
            b'n' => s.strip_prefix(b"null"),
            _ => json_number(s),
        }
    }

    fn skip_ws(s: &[u8]) -> &[u8] {
        let n = s
            .iter()
            .take_while(|b| matches!(b, b' ' | b'\t' | b'\n' | b'\r'))
            .count();
        &s[n..]
    }

    fn json_string(s: &[u8]) -> Option<&[u8]> {
        let mut s = s.strip_prefix(b"\"")?;
        loop {
            match *s.first()? {
                b'"' => return Some(&s[1..]),
                b'\\' => match *s.get(1)? {
                    b'"' | b'\\' | b'/' | b'b' | b'f' | b'n' | b'r' | b't' => s = &s[2..],
                    b'u' => {
                        if s.len() < 6 || !s[2..6].iter().all(u8::is_ascii_hexdigit) {
                            return None;
                        }
                        s = &s[6..];
                    }
                    _ => return None,
                },
                c if c < 0x20 => return None,
                _ => s = &s[1..],
            }
        }
    }

    fn json_number(s: &[u8]) -> Option<&[u8]> {
        let mut s = s.strip_prefix(b"-").unwrap_or(s);
        let digits = s.iter().take_while(|b| b.is_ascii_digit()).count();
        if digits == 0 {
            return None;
        }
        s = &s[digits..];
        if let Some(rest) = s.strip_prefix(b".") {
            let frac = rest.iter().take_while(|b| b.is_ascii_digit()).count();
            if frac == 0 {
                return None;
            }
            s = &rest[frac..];
        }
        if matches!(s.first(), Some(b'e' | b'E')) {
            let mut rest = &s[1..];
            if matches!(rest.first(), Some(b'+' | b'-')) {
                rest = &rest[1..];
            }
            let exp = rest.iter().take_while(|b| b.is_ascii_digit()).count();
            if exp == 0 {
                return None;
            }
            s = &rest[exp..];
        }
        Some(s)
    }

    /// True iff `text` is exactly one well-formed JSON value.
    fn is_valid_json(text: &str) -> bool {
        matches!(json_value(text.as_bytes()), Some(rest) if skip_ws(rest).is_empty())
    }

    #[test]
    fn json_validator_self_check() {
        assert!(is_valid_json(
            r#"{"a":[1,2.5,-3e4],"b":{"c":"d\n"},"e":null}"#
        ));
        assert!(is_valid_json("  [true, false] "));
        for bad in [
            r#"{"a":}"#,
            r#"{"a":1,}"#,
            "[1,2",
            r#""unterminated"#,
            "01x",
            "{\"raw\tcontrol\":1}",
            r#"{"bad\q":1}"#,
            "1 2",
        ] {
            assert!(!is_valid_json(bad), "accepted malformed: {bad:?}");
        }
    }

    #[test]
    fn counters_gauges_histograms_roundtrip() {
        let m = MetricsRegistry::new();
        m.inc("a.count");
        m.add("a.count", 4);
        m.gauge("b.ms", 1.25);
        m.gauge_add("b.ms", 0.75);
        m.observe_with("c.ms", &[1.0, 10.0], 0.5);
        m.observe_with("c.ms", &[1.0, 10.0], 5.0);
        m.observe_with("c.ms", &[1.0, 10.0], 50.0);
        let snap = m.snapshot();
        assert_eq!(snap.counter("a.count"), Some(5));
        assert_eq!(snap.gauge("b.ms"), Some(2.0));
        let h = &snap.histograms["c.ms"];
        assert_eq!(h.counts(), &[1, 1, 1]);
        assert_eq!(h.count(), 3);
        assert!((h.sum() - 55.5).abs() < 1e-12);
    }

    #[test]
    fn snapshot_json_is_wellformed() {
        let m = MetricsRegistry::new();
        m.inc("x");
        m.gauge("g", 2.5);
        m.observe_with("h", &[1.0], 0.5);
        let json = m.snapshot().to_json();
        assert!(json.starts_with('{') && json.ends_with('}'));
        assert!(json.contains("\"x\":1"));
        assert!(json.contains("\"g\":2.5"));
        assert!(json.contains("\"bounds\":[1]"));
        assert!(json.contains("\"counts\":[1,0]"));
        // Balanced braces/brackets (no string values contain either).
        assert_eq!(json.matches('{').count(), json.matches('}').count());
        assert_eq!(json.matches('[').count(), json.matches(']').count());
    }

    #[test]
    fn empty_snapshot_reports_empty() {
        let m = MetricsRegistry::new();
        assert!(m.snapshot().is_empty());
        m.inc("x");
        assert!(!m.snapshot().is_empty());
    }

    #[test]
    fn flush_every_writes_periodic_and_final_snapshots() {
        let path = std::env::temp_dir().join(format!("h2p-flush-{}.jsonl", std::process::id()));
        let m = Arc::new(MetricsRegistry::new());
        m.inc("flush.start");
        let handle = m
            .flush_every(Duration::from_millis(5), &path)
            .expect("flusher starts");
        std::thread::sleep(Duration::from_millis(30));
        m.inc("flush.late");
        let lines = handle.stop().expect("flusher stops cleanly");
        assert!(lines >= 2, "expected periodic + final lines, got {lines}");
        let text = std::fs::read_to_string(&path).expect("file readable");
        let rows: Vec<&str> = text.lines().collect();
        assert_eq!(rows.len() as u64, lines);
        for (i, row) in rows.iter().enumerate() {
            assert!(
                row.starts_with(&format!("{{\"seq\":{i},")),
                "row {i}: {row}"
            );
            assert!(row.ends_with('}'), "row {i} truncated");
        }
        // The final line is written after stop() and must see the last
        // increment.
        let last = rows.last().expect("at least one row");
        assert!(last.contains("\"flush.late\":1"), "final line: {last}");
        let _ = std::fs::remove_file(&path);
    }

    #[test]
    fn flush_handle_drop_stops_thread_and_writes_final_line() {
        let path = std::env::temp_dir().join(format!("h2p-flushdrop-{}.jsonl", std::process::id()));
        let m = Arc::new(MetricsRegistry::new());
        m.gauge("g", 1.0);
        {
            let _handle = m
                .flush_every(Duration::from_secs(3600), &path)
                .expect("flusher starts");
            // Dropping immediately must not hang for the full period.
        }
        let text = std::fs::read_to_string(&path).expect("file readable");
        assert!(text.lines().count() >= 1);
        assert!(text.contains("\"g\":1"));
        let _ = std::fs::remove_file(&path);
    }

    #[test]
    fn flush_every_surfaces_unwritable_path() {
        let m = Arc::new(MetricsRegistry::new());
        let bad = Path::new("/nonexistent-h2p-dir/metrics.jsonl");
        assert!(m.flush_every(Duration::from_millis(5), bad).is_err());
    }

    #[test]
    fn render_table_lists_all_kinds() {
        let m = MetricsRegistry::new();
        m.inc("counter.one");
        m.gauge("gauge.two", 4.0);
        m.observe("hist.three", 2.0);
        let table = m.snapshot().render_table();
        assert!(table.contains("counter.one"));
        assert!(table.contains("gauge.two"));
        assert!(table.contains("hist.three"));
        assert!(table.contains("count=1"));
    }

    #[test]
    fn log_bounds_are_geometric_and_cover_range() {
        let bounds = log_bounds(LOG_MIN_MS, LOG_MAX_MS, LOG_SUB_BUCKETS);
        assert!(bounds.windows(2).all(|w| w[0] < w[1]), "bounds not sorted");
        assert!((bounds[0] - LOG_MIN_MS).abs() < 1e-12);
        assert!(*bounds.last().unwrap() >= LOG_MAX_MS);
        // Geometric ratio: per_octave sub-buckets per power of two.
        let ratio = bounds[1] / bounds[0];
        assert!((ratio - 2f64.powf(1.0 / f64::from(LOG_SUB_BUCKETS))).abs() < 1e-9);
        // ~104 buckets for µs..minute at 4/octave; layouts must agree
        // across registries so shard snapshots merge.
        assert_eq!(bounds, log_bounds(LOG_MIN_MS, LOG_MAX_MS, LOG_SUB_BUCKETS));
    }

    #[test]
    fn quantile_goldens_at_bucket_edges() {
        let mut h = Histogram::new(&[1.0, 2.0, 4.0]);
        for v in [1.0, 2.0, 4.0, 8.0] {
            h.observe(v);
        }
        // Each observation sits exactly on its bucket's upper edge, so
        // exact-rank quantiles reproduce the observed values.
        assert_eq!(h.quantile(0.25), Some(1.0));
        assert_eq!(h.quantile(0.5), Some(2.0));
        assert_eq!(h.quantile(0.75), Some(4.0));
        // The top rank lands in the overflow bucket → observed max.
        assert_eq!(h.quantile(1.0), Some(8.0));
        // q=0 means "first observation" (rank clamps to 1), and
        // out-of-range q clamps rather than panicking.
        assert_eq!(h.quantile(0.0), Some(1.0));
        assert_eq!(h.quantile(-3.0), Some(1.0));
        assert_eq!(h.quantile(7.0), Some(8.0));
    }

    #[test]
    fn quantile_clamps_to_observed_range() {
        // A single observation below the first bound: the bucket edge
        // (1.0) would over-report, so the clamp returns the observation.
        let mut h = Histogram::new(&[1.0, 2.0, 4.0]);
        h.observe(0.5);
        assert_eq!(h.quantile(0.5), Some(0.5));
        assert_eq!(h.quantile(1.0), Some(0.5));
        assert_eq!(h.min(), Some(0.5));
        assert_eq!(h.max(), Some(0.5));
        // Empty histogram has no quantiles and no min/max.
        let empty = Histogram::log_bucketed();
        assert_eq!(empty.quantile(0.5), None);
        assert_eq!(empty.min(), None);
        assert_eq!(empty.max(), None);
    }

    #[test]
    fn log_bucketed_quantile_within_relative_error() {
        let mut h = Histogram::log_bucketed();
        for i in 1..=1000u32 {
            h.observe(f64::from(i) * 0.1); // 0.1 .. 100 ms
        }
        let p50 = h.quantile(0.5).unwrap();
        let exact = 50.0;
        // One sub-bucket at 4/octave is a 2^(1/4)-1 ≈ 19% ratio.
        assert!(
            (p50 / exact - 1.0).abs() < 0.19,
            "p50 {p50} strays from {exact}"
        );
        let p99 = h.quantile(0.99).unwrap();
        assert!((p99 / 99.0 - 1.0).abs() < 0.19, "p99 {p99}");
    }

    #[test]
    fn observe_nonfinite_never_corrupts() {
        let mut h = Histogram::new(&[1.0, 2.0]);
        h.observe(1.5);
        for bad in [f64::NAN, f64::INFINITY, f64::NEG_INFINITY] {
            h.observe(bad);
        }
        assert_eq!(h.count(), 1);
        assert_eq!(h.nonfinite(), 3);
        assert!(h.sum().is_finite());
        assert_eq!(h.quantile(0.5), Some(1.5));
        assert_eq!(h.min(), Some(1.5));
        assert_eq!(h.max(), Some(1.5));
        // Registry path: a histogram fed only non-finite values stays
        // empty but renders valid JSON with null min/max.
        let m = MetricsRegistry::new();
        m.observe("h", f64::NAN);
        let snap = m.snapshot();
        assert_eq!(snap.histograms["h"].count(), 0);
        assert_eq!(snap.histograms["h"].nonfinite(), 1);
        let json = snap.to_json();
        assert!(json.contains("\"nonfinite\":1"));
        assert!(json.contains("\"min\":null,\"max\":null"));
        assert!(is_valid_json(&json), "bad JSON: {json}");
    }

    #[test]
    fn merge_requires_identical_layouts() {
        let mut a = Histogram::new(&[1.0, 2.0]);
        let b = Histogram::new(&[1.0, 3.0]);
        let err = a.merge(&b).unwrap_err();
        assert_eq!(err.to_string(), "histogram bucket layouts differ");
        let mut snap = MetricsSnapshot::default();
        snap.histograms.insert("h".into(), Histogram::new(&[1.0]));
        let mut other = MetricsSnapshot::default();
        other.histograms.insert("h".into(), Histogram::new(&[2.0]));
        let err = snap.merge(&other).unwrap_err();
        assert_eq!(err.name, "h");
        assert!(err.to_string().contains("`h`"));
    }

    #[test]
    fn snapshot_merge_folds_all_kinds() {
        let a = MetricsRegistry::new();
        a.add("c", 2);
        a.gauge("g", 1.0);
        a.observe("h", 5.0);
        let b = MetricsRegistry::new();
        b.add("c", 3);
        b.inc("only_b");
        b.gauge("g", 9.0);
        b.observe("h", 7.0);
        b.observe("h2", 1.0);
        let mut merged = a.snapshot();
        merged.merge(&b.snapshot()).unwrap();
        assert_eq!(merged.counter("c"), Some(5));
        assert_eq!(merged.counter("only_b"), Some(1));
        // Gauges are last-write-wins; `other` is the later shard.
        assert_eq!(merged.gauge("g"), Some(9.0));
        assert_eq!(merged.histograms["h"].count(), 2);
        assert_eq!(merged.histograms["h"].min(), Some(5.0));
        assert_eq!(merged.histograms["h"].max(), Some(7.0));
        assert_eq!(merged.histograms["h2"].count(), 1);
        assert_eq!(merged.quantile("h", 1.0), Some(7.0));
        // p50 reports the upper edge of the log bucket holding 5.0
        // (within one sub-bucket, ≈19% relative error).
        let p50 = merged.quantile("h", 0.5).unwrap();
        assert!((5.0..5.0 * 1.19).contains(&p50), "p50 {p50}");
        assert_eq!(merged.quantile("missing", 0.5), None);
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(64))]

        /// Merging shard histograms in any grouping yields identical
        /// counts, quantiles, and min/max — the property that makes
        /// fleet-level aggregation order-insensitive. (Sums are
        /// float-additive, so they only agree to tolerance.)
        #[test]
        fn merge_is_associative(
            xs in prop::collection::vec((0u32..3, 1u32..100_000), 0..48),
        ) {
            let mut shards = [
                Histogram::log_bucketed(),
                Histogram::log_bucketed(),
                Histogram::log_bucketed(),
            ];
            for &(shard, v) in &xs {
                // Spread microseconds..hundreds of ms across buckets.
                shards[shard as usize].observe(f64::from(v) * 1e-3);
            }
            let [a, b, c] = shards;
            let mut left = a.clone();
            left.merge(&b).unwrap();
            left.merge(&c).unwrap();
            let mut bc = b.clone();
            bc.merge(&c).unwrap();
            let mut right = a.clone();
            right.merge(&bc).unwrap();
            prop_assert_eq!(left.counts(), right.counts());
            prop_assert_eq!(left.count(), right.count());
            prop_assert_eq!(left.nonfinite(), right.nonfinite());
            prop_assert_eq!(left.min(), right.min());
            prop_assert_eq!(left.max(), right.max());
            for q in [0.0, 0.5, 0.95, 0.99, 1.0] {
                prop_assert_eq!(left.quantile(q), right.quantile(q));
            }
            prop_assert!((left.sum() - right.sum()).abs() <= 1e-9 * (1.0 + left.sum().abs()));
        }

        /// Quantiles bracket the observed range and never panic, for any
        /// mix of finite and non-finite observations.
        #[test]
        fn quantiles_stay_in_observed_range(
            xs in prop::collection::vec((1u32..1_000_000, any::<bool>()), 1..64),
        ) {
            let mut h = Histogram::log_bucketed();
            let mut finite = 0u64;
            for &(v, poison) in &xs {
                if poison {
                    h.observe(f64::NAN);
                } else {
                    h.observe(f64::from(v) * 1e-4);
                    finite += 1;
                }
            }
            prop_assert_eq!(h.count(), finite);
            prop_assert_eq!(h.nonfinite(), xs.len() as u64 - finite);
            if finite == 0 {
                prop_assert_eq!(h.quantile(0.5), None);
            } else {
                let (min, max) = (h.min().unwrap(), h.max().unwrap());
                for q in [0.0, 0.25, 0.5, 0.9, 0.99, 1.0] {
                    let v = h.quantile(q).unwrap();
                    prop_assert!(v >= min && v <= max, "q{q} = {v} outside [{min}, {max}]");
                }
                prop_assert_eq!(h.quantile(1.0), Some(max));
            }
        }

        /// Adversarial metric names — quotes, backslashes, control
        /// characters, non-ASCII — always render valid JSON, and
        /// identical snapshots render byte-identically (sorted keys).
        #[test]
        fn adversarial_names_render_valid_json(
            raw in prop::collection::vec(0u32..0x250, 0..12),
            kind in 0u32..3,
        ) {
            let mut name: String = raw
                .iter()
                .filter_map(|&c| char::from_u32(c))
                .collect();
            // Make sure the truly nasty bytes appear even in short names.
            name.push_str("\"\\\u{0}\n\u{1f}");
            let m = MetricsRegistry::new();
            match kind {
                0 => m.inc(&name),
                1 => m.gauge(&name, 0.5),
                _ => m.observe(&name, 1.0),
            }
            m.inc("plain");
            let snap = m.snapshot();
            let json = snap.to_json();
            prop_assert!(is_valid_json(&json), "invalid JSON for name {name:?}: {json}");
            prop_assert_eq!(&json, &snap.clone().to_json());
            // Merging with itself must keep the JSON valid too.
            let mut doubled = snap.clone();
            doubled.merge(&snap).unwrap();
            prop_assert!(is_valid_json(&doubled.to_json()));
        }
    }

    #[test]
    fn flush_stop_writes_final_snapshot_despite_long_period() {
        // Regression: with an hour-long flush period, everything recorded
        // after the last periodic tick exists only in the final snapshot
        // that stop() forces out. Losing it would silently truncate the
        // metrics tail of every short-lived run.
        let path = std::env::temp_dir().join(format!(
            "h2p-flushtail-{}-{:?}.jsonl",
            std::process::id(),
            std::thread::current().id()
        ));
        let m = Arc::new(MetricsRegistry::new());
        let handle = m
            .flush_every(Duration::from_secs(3600), &path)
            .expect("flusher starts");
        // Recorded strictly after the flusher started: no periodic tick
        // will ever see it within the test's lifetime.
        m.inc("tail.counter");
        m.observe("tail.ms", 4.2);
        let lines = handle.stop().expect("flusher stops cleanly");
        assert!(lines >= 1, "final snapshot line missing");
        let text = std::fs::read_to_string(&path).expect("file readable");
        let last = text.lines().last().expect("at least one line");
        assert!(
            last.contains("\"tail.counter\":1"),
            "metrics tail lost: {last}"
        );
        assert!(last.contains("tail.ms"), "histogram tail lost: {last}");
        let _ = std::fs::remove_file(&path);
    }
}
