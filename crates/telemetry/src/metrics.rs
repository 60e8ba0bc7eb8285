//! Metrics registry: counters, gauges, and histograms with a JSON- and
//! table-renderable snapshot.
//!
//! Histograms are log-bucketed (HDR-style geometric bounds spanning
//! microseconds to minutes) with exact-rank quantile extraction.
//!
//! A metric is registered once per registry by name
//! ([`MetricsRegistry::counter`], [`MetricsRegistry::gauge`],
//! [`MetricsRegistry::histogram`]), which returns a `Copy` handle, and
//! an update by handle is one indexed add. Hot callers (the planner,
//! the online planner and the recovery runner) register their handles
//! when they are built; the update methods also take a name, registered
//! on the spot, for cold callers. A registered metric enters snapshots
//! at its first update, and a snapshot lists its metrics in name order,
//! whatever order they were registered in.
//!
//! The registry has one owner: it holds its state in a `RefCell`, so it
//! is `!Sync`, and the planner that records into it shares it through
//! an `Rc`. Callers in hot loops still count into locals and flush once
//! per request or phase. Observing a non-finite value is counted
//! separately instead of corrupting the running sum.

use std::cell::RefCell;
use std::collections::BTreeMap;

use crate::{json_escape, json_num};

/// Lower edge of the default log-bucketed layout, in ms (1 µs).
pub const LOG_MIN_MS: f64 = 1e-3;
/// Upper edge of the default log-bucketed layout, in ms (one minute).
pub const LOG_MAX_MS: f64 = 60_000.0;
/// Sub-buckets per power of two in the default log layout: relative
/// quantile error is bounded by `2^(1/4) - 1 ≈ 19%` per bucket.
pub const LOG_SUB_BUCKETS: u32 = 4;

/// Geometric bucket upper bounds from `min` to at least `max` with
/// `per_octave` sub-buckets per power of two — the HDR-style layout the
/// registry's histograms use. Deterministic for fixed arguments, so
/// every registry lands on identical buckets.
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
}

/// A counter registered on a [`MetricsRegistry`]: an index into the
/// registry that issued it, and valid on that registry only.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct CounterId(usize);

/// A gauge registered on a [`MetricsRegistry`], valid on that registry
/// only.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct GaugeId(usize);

/// A histogram registered on a [`MetricsRegistry`], valid on that
/// registry only.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct HistogramId(usize);

/// A metric of one kind, named by its handle or by its name. The
/// registry's update methods take either: a name is registered on the
/// spot, which costs a lookup by name, and a handle is used as it is.
pub trait Metric<Id> {
    fn resolve(self, metrics: &MetricsRegistry) -> Id;
}

macro_rules! metric_by_handle_or_name {
    ($id:ident, $register:ident) => {
        impl Metric<$id> for $id {
            fn resolve(self, _: &MetricsRegistry) -> $id {
                self
            }
        }

        impl<T: AsRef<str> + ?Sized> Metric<$id> for &T {
            fn resolve(self, metrics: &MetricsRegistry) -> $id {
                metrics.$register(self.as_ref())
            }
        }
    };
}

metric_by_handle_or_name!(CounterId, counter);
metric_by_handle_or_name!(GaugeId, gauge);
metric_by_handle_or_name!(HistogramId, histogram);

/// The metrics of one kind: a sorted index of names and the values by
/// handle. A value stays `None` until its first update, so a metric
/// that is registered but never updated stays out of snapshots.
#[derive(Debug)]
struct Series<V> {
    index: BTreeMap<String, usize>,
    values: Vec<Option<V>>,
}

impl<V> Default for Series<V> {
    fn default() -> Self {
        Self {
            index: BTreeMap::new(),
            values: Vec::new(),
        }
    }
}

impl<V: Clone> Series<V> {
    /// The handle of `name`, registered on first use. The name is
    /// looked up by `&str` and copied only when it is new.
    fn register(&mut self, name: &str) -> usize {
        if let Some(&i) = self.index.get(name) {
            return i;
        }
        let i = self.values.len();
        self.values.push(None);
        self.index.insert(name.to_owned(), i);
        i
    }

    /// The value of handle `i`, created by `init` on its first update.
    fn value(&mut self, i: usize, init: impl FnOnce() -> V) -> &mut V {
        self.values[i].get_or_insert_with(init)
    }

    /// The updated metrics by name.
    fn snapshot(&self) -> BTreeMap<String, V> {
        self.index
            .iter()
            .filter_map(|(name, &i)| Some((name.clone(), self.values[i].clone()?)))
            .collect()
    }
}

#[derive(Debug, Default)]
struct Inner {
    counters: Series<u64>,
    gauges: Series<f64>,
    histograms: Series<Histogram>,
}

/// The registry proper. Cheap to create; share it through
/// [`crate::Telemetry`].
#[derive(Debug, Default)]
pub struct MetricsRegistry {
    inner: RefCell<Inner>,
}

impl MetricsRegistry {
    pub fn new() -> Self {
        Self::default()
    }

    /// Registers the counter `name`, or finds it registered, and
    /// returns its handle. It enters snapshots at its first update.
    pub fn counter(&self, name: &str) -> CounterId {
        CounterId(self.inner.borrow_mut().counters.register(name))
    }

    /// Registers the gauge `name`, or finds it registered.
    pub fn gauge(&self, name: &str) -> GaugeId {
        GaugeId(self.inner.borrow_mut().gauges.register(name))
    }

    /// Registers the histogram `name`, or finds it registered.
    pub fn histogram(&self, name: &str) -> HistogramId {
        HistogramId(self.inner.borrow_mut().histograms.register(name))
    }

    /// Increments a counter by one.
    pub fn inc(&self, counter: impl Metric<CounterId>) {
        self.add(counter, 1);
    }

    /// Adds `delta` to a counter, creating it at zero first.
    pub fn add(&self, counter: impl Metric<CounterId>, delta: u64) {
        let CounterId(i) = counter.resolve(self);
        *self.inner.borrow_mut().counters.value(i, || 0) += delta;
    }

    /// Sets a gauge to `value` (last write wins).
    pub fn set_gauge(&self, gauge: impl Metric<GaugeId>, value: f64) {
        let GaugeId(i) = gauge.resolve(self);
        *self.inner.borrow_mut().gauges.value(i, || 0.0) = value;
    }

    /// Adds `delta` to a gauge, creating it at zero first.
    pub fn gauge_add(&self, gauge: impl Metric<GaugeId>, delta: f64) {
        let GaugeId(i) = gauge.resolve(self);
        *self.inner.borrow_mut().gauges.value(i, || 0.0) += delta;
    }

    /// Records an observation into a histogram with the default
    /// log-bucketed millisecond layout ([`Histogram::log_bucketed`]).
    pub fn observe(&self, histogram: impl Metric<HistogramId>, value: f64) {
        let HistogramId(i) = histogram.resolve(self);
        let histograms = &mut self.inner.borrow_mut().histograms;
        histograms.value(i, Histogram::log_bucketed).observe(value);
    }

    /// Copies the updated metrics out into an immutable snapshot, in
    /// name order.
    pub fn snapshot(&self) -> MetricsSnapshot {
        let inner = self.inner.borrow();
        MetricsSnapshot {
            counters: inner.counters.snapshot(),
            gauges: inner.gauges.snapshot(),
            histograms: inner.histograms.snapshot(),
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
        m.set_gauge("b.ms", 1.25);
        m.gauge_add("b.ms", 0.75);
        m.observe("c.ms", 0.5);
        m.observe("c.ms", 5.0);
        m.observe("c.ms", 50.0);
        let snap = m.snapshot();
        assert_eq!(snap.counter("a.count"), Some(5));
        assert_eq!(snap.gauge("b.ms"), Some(2.0));
        let h = &snap.histograms["c.ms"];
        // Three observations an octave apart or more: three buckets.
        assert_eq!(h.counts().iter().filter(|&&c| c > 0).count(), 3);
        assert_eq!(h.counts().iter().sum::<u64>(), 3);
        assert_eq!(h.count(), 3);
        assert!((h.sum() - 55.5).abs() < 1e-12);
        assert_eq!(snap.quantile("c.ms", 1.0), Some(50.0));
        assert_eq!(snap.quantile("missing", 0.5), None);
    }

    #[test]
    fn snapshot_json_is_wellformed() {
        let m = MetricsRegistry::new();
        m.inc("x");
        m.set_gauge("g", 2.5);
        m.observe("h", 0.5);
        let json = m.snapshot().to_json();
        assert!(json.starts_with('{') && json.ends_with('}'));
        assert!(json.contains("\"x\":1"));
        assert!(json.contains("\"g\":2.5"));
        assert!(json.contains("\"bounds\":[0.001,"));
        assert!(json.contains("\"sum\":0.5,\"count\":1,"));
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
    fn render_table_lists_all_kinds() {
        let m = MetricsRegistry::new();
        m.inc("counter.one");
        m.set_gauge("gauge.two", 4.0);
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
        // ~104 buckets for µs..minute at 4/octave; layouts agree
        // across registries.
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

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(64))]

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

        /// One random sequence of updates renders the same snapshot
        /// whether it is applied by name or by handle, and a metric
        /// registered but never updated stays out of the snapshot.
        /// Names are registered out of name order.
        #[test]
        fn handles_and_names_record_the_same(
            ops in prop::collection::vec((0u32..5, 0usize..4, 0u32..1000), 0..48),
        ) {
            const NAMES: [&str; 4] = ["b.two", "d.four", "a.one", "c.three"];
            let by_name = MetricsRegistry::new();
            let by_handle = MetricsRegistry::new();
            let unused = (
                by_handle.counter("e.unused"),
                by_handle.gauge("e.unused"),
                by_handle.histogram("e.unused"),
            );
            let counters = NAMES.map(|n| by_handle.counter(n));
            let gauges = NAMES.map(|n| by_handle.gauge(n));
            let histograms = NAMES.map(|n| by_handle.histogram(n));
            for &(kind, metric, v) in &ops {
                let name = NAMES[metric];
                let v = f64::from(v);
                match kind {
                    0 => {
                        by_name.inc(name);
                        by_handle.inc(counters[metric]);
                    }
                    1 => {
                        by_name.add(name, v as u64);
                        by_handle.add(counters[metric], v as u64);
                    }
                    2 => {
                        by_name.set_gauge(name, v * 0.25);
                        by_handle.set_gauge(gauges[metric], v * 0.25);
                    }
                    3 => {
                        by_name.gauge_add(name, v * 0.5);
                        by_handle.gauge_add(gauges[metric], v * 0.5);
                    }
                    _ => {
                        by_name.observe(name, v * 0.01);
                        by_handle.observe(histograms[metric], v * 0.01);
                    }
                }
            }
            let (named, handled) = (by_name.snapshot(), by_handle.snapshot());
            prop_assert_eq!(named.to_json(), handled.to_json());
            prop_assert_eq!(named.render_table(), handled.render_table());
            prop_assert_eq!(handled.counter("e.unused"), None);
            prop_assert_eq!(handled.gauge("e.unused"), None);
            prop_assert!(!handled.histograms.contains_key("e.unused"));
            // Registering again finds the same handles.
            prop_assert_eq!(by_handle.counter("e.unused"), unused.0);
            prop_assert_eq!(by_handle.gauge("e.unused"), unused.1);
            prop_assert_eq!(by_handle.histogram("e.unused"), unused.2);
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
                1 => m.set_gauge(&name, 0.5),
                _ => m.observe(&name, 1.0),
            }
            m.inc("plain");
            let snap = m.snapshot();
            let json = snap.to_json();
            prop_assert!(is_valid_json(&json), "invalid JSON for name {name:?}: {json}");
            prop_assert_eq!(&json, &snap.clone().to_json());
        }
    }
}
