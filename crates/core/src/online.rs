//! Windowed online planning for streaming request arrival.
//!
//! The paper's complexity analysis ends with an operational note: the
//! planner's cost is governed by the number of queued requests `|M|`, so
//! "in case of more inference requests, the planner should be scheduled
//! more frequently to avoid enlarged search space". [`OnlinePlanner`]
//! realizes that deployment mode: requests are planned in fixed-size
//! windows as they arrive — mitigation re-ordering and work stealing are
//! scoped to a window, bounding per-invocation planning latency while the
//! pipeline keeps streaming.
//!
//! # Incremental window replanning
//!
//! An online deployment re-plans the *same* model set window after window
//! as contention shifts; re-solving every window from scratch is exactly
//! the overhead the paper's operational note warns about.
//! [`OnlinePlanner::plan_incremental`] memoizes finished window plans in a
//! cross-invocation cache and re-plans only windows whose key changed.
//! The key has three components, each pinning one way a cached plan can
//! go stale:
//!
//! * the **window's model graphs** (graph equality — names alone are not
//!   unique; a dispatch's graphs are clones of the memoized zoo graphs,
//!   which share storage with the entry's and compare by pointer, while
//!   batched or independently built graphs are compared in full),
//! * the **contention class** of every request (read from the request's
//!   cost-tables entry on every lookup, so a reclassification
//!   invalidates),
//! * the **pipeline processor list** (processor availability — a dropped
//!   or depth-truncated slot changes the list and invalidates).
//!
//! Below the window, step 1 (Algorithm 1's horizontal partitioning) is a
//! pure per-request function of the model's cost tables and the allowed
//! processor slots, so the planner memoizes it per request on the tables
//! entry ([`Planner::plan_request_cached`]). Steps 2–3, mitigation
//! re-ordering and work stealing, couple the requests *within* a window,
//! so the window stays their unit of reuse. Any window that misses falls
//! back to planning from scratch (the planner's normal path, with step 1
//! served from the memo), and in debug builds every cache hit is
//! re-planned and asserted bit-identical to the from-scratch plan.
//!
//! Windows are planned one after another on the calling thread, like
//! the requests inside [`Planner::plan`]. The window cache is shared by
//! clones through an `Rc`, so an online planner, like its planner, stays
//! on one thread and takes no lock.

use std::cell::RefCell;
use std::rc::Rc;
use std::sync::Arc;

use h2p_contention::ContentionClass;
use h2p_models::graph::ModelGraph;
use h2p_simulator::ProcessorId;
use h2p_telemetry::{span, CounterId, MetricsRegistry};

use crate::error::PlanError;
use crate::plan::PipelinePlan;
use crate::planner::{PlannedPipeline, Planner};

/// One memoized window: the key components and the finished plan (with
/// window-local request indices). The plan is stored as a one-window
/// stream's combined plan — no per-window pass reports — and shared: a
/// one-window dispatch that hits hands out the stored `Arc` itself.
#[derive(Debug, Clone)]
struct WindowEntry {
    graphs: Vec<ModelGraph>,
    classes: Vec<ContentionClass>,
    procs: Vec<ProcessorId>,
    planned: Arc<PlannedPipeline>,
}

impl WindowEntry {
    /// Whether this entry covers the given window on the given processor
    /// list, where `class_of(i)` is request `i`'s current contention
    /// class. Every component of the cache key is compared: a change to
    /// any one of them — model set, contention class, or processor list
    /// — misses. The classes, which cost a tables lookup each, are read
    /// only once the graphs and processors match.
    fn matches(
        &self,
        graphs: &[ModelGraph],
        procs: &[ProcessorId],
        class_of: impl Fn(usize) -> ContentionClass,
    ) -> bool {
        self.procs == procs
            && self.graphs.len() == graphs.len()
            && self.graphs.iter().zip(graphs).all(|(a, b)| a == b)
            && self
                .classes
                .iter()
                .enumerate()
                .all(|(i, &c)| c == class_of(i))
    }
}

/// The handles of the series an online planner records, on its
/// planner's telemetry sink, which an online planner never replaces.
#[derive(Debug, Clone, Copy)]
struct OnlineMetrics {
    invocations: CounterId,
    windows: CounterId,
    window_hits: CounterId,
    window_misses: CounterId,
}

impl OnlineMetrics {
    fn register(m: &MetricsRegistry) -> Self {
        Self {
            invocations: m.counter("online.invocations"),
            windows: m.counter("online.windows"),
            window_hits: m.counter("online.window_cache.hits"),
            window_misses: m.counter("online.window_cache.misses"),
        }
    }
}

/// A planner invoked once per arrival window.
#[derive(Debug, Clone)]
pub struct OnlinePlanner {
    planner: Planner,
    window: usize,
    metrics: OnlineMetrics,
    /// Cross-invocation window-plan cache for
    /// [`OnlinePlanner::plan_shared`]; shared by clones.
    window_cache: Rc<RefCell<Vec<WindowEntry>>>,
}

impl OnlinePlanner {
    /// Wraps `planner` with a re-planning window of `window` requests.
    ///
    /// # Panics
    ///
    /// Panics if `window == 0`.
    pub fn new(planner: Planner, window: usize) -> Self {
        assert!(window > 0, "window must be positive");
        OnlinePlanner {
            metrics: OnlineMetrics::register(&planner.telemetry().metrics),
            planner,
            window,
            window_cache: Rc::default(),
        }
    }

    /// The wrapped planner.
    pub fn planner(&self) -> &Planner {
        &self.planner
    }

    /// The re-planning window size.
    pub fn window(&self) -> usize {
        self.window
    }

    /// Plans the request stream window by window and concatenates the
    /// per-window plans into one executable pipeline plan. Request
    /// indices refer to the *global* submission order; re-ordering by
    /// contention mitigation never crosses a window boundary (a request
    /// is never delayed behind requests that arrived a full window later).
    ///
    /// # Errors
    ///
    /// Returns [`PlanError`] if any window fails to plan.
    pub fn plan(&self, requests: &[ModelGraph]) -> Result<PlannedPipeline, PlanError> {
        if requests.is_empty() {
            return Err(PlanError::EmptyRequestSet);
        }
        let telemetry = self.planner.telemetry();
        span!(telemetry.spans, "online:{}req", requests.len());
        self.count_invocation(requests.len());
        let window_plans = requests
            .chunks(self.window)
            .enumerate()
            .map(|(w, chunk)| {
                span!(telemetry.spans, "window:{}", w);
                self.planner.plan(chunk)
            })
            .collect::<Result<Vec<_>, _>>()?;
        Ok(self.combine(window_plans))
    }

    /// Counts one invocation over `requests` requests and its windows.
    fn count_invocation(&self, requests: usize) {
        let metrics = &self.planner.telemetry().metrics;
        metrics.inc(self.metrics.invocations);
        metrics.add(self.metrics.windows, requests.div_ceil(self.window) as u64);
    }

    /// Concatenates per-window plans (window-local request indices) into
    /// one executable pipeline plan with global submission-order indices.
    fn combine(&self, window_plans: Vec<PlannedPipeline>) -> PlannedPipeline {
        // Window-local passes already ran; the combined plan keeps them
        // and reports none.
        let mut out = PlannedPipeline {
            plan: PipelinePlan {
                procs: self.planner.pipeline_procs().to_vec(),
                requests: Vec::new(),
            },
            contexts: Vec::new(),
            mitigation: None,
            steal: None,
            tail_merges: 0,
        };
        for (w, planned) in window_plans.into_iter().enumerate() {
            let offset = w * self.window;
            out.plan
                .requests
                .extend(planned.plan.requests.into_iter().map(|mut req| {
                    req.request += offset;
                    req
                }));
            out.contexts.extend(planned.contexts);
            out.tail_merges += planned.tail_merges;
        }
        self.lint_combined(&out);
        out
    }

    /// Debug builds re-lint every combined plan: its indices and claims
    /// are new, while the per-window plans were already gated inside
    /// `Planner::plan`. Whoever admits the requests records their
    /// lifecycle; the online planner records none.
    fn lint_combined(&self, planned: &PlannedPipeline) {
        #[cfg(debug_assertions)]
        {
            let diags = planned.lint(self.planner.soc());
            debug_assert!(
                diags.is_clean(),
                "online planner produced a combined plan that fails its static lint:\n{diags}"
            );
        }
        #[cfg(not(debug_assertions))]
        let _ = planned;
    }

    /// [`OnlinePlanner::plan`] with incremental window replanning: windows
    /// whose cache key — model graphs, contention classes, and the
    /// pipeline processor list — is unchanged since a previous invocation
    /// reuse their memoized plan; only changed windows are re-planned
    /// (from scratch, on the planner's normal path). The combined plan is
    /// **bit-identical** to [`OnlinePlanner::plan`] on the same requests:
    /// the planner is deterministic, so equal inputs produce equal window
    /// plans, and in debug builds every cache hit re-plans its window and
    /// asserts exactly that.
    ///
    /// The by-value form of [`OnlinePlanner::plan_shared`]: a one-window
    /// hit copies the memoized plan out of the cache.
    ///
    /// # Errors
    ///
    /// Returns [`PlanError`] if any window fails to plan.
    pub fn plan_incremental(&self, requests: &[ModelGraph]) -> Result<PlannedPipeline, PlanError> {
        self.plan_shared(requests).map(Arc::unwrap_or_clone)
    }

    /// [`OnlinePlanner::plan_incremental`] without the copy: a stream
    /// that fits one window gets the memoized plan itself, shared.
    /// Longer streams combine their windows into a new plan as before.
    /// Windows are looked up and planned one after another, so a window
    /// that repeats inside one stream is planned and memoized once.
    ///
    /// # Errors
    ///
    /// Returns [`PlanError`] if any window fails to plan.
    pub fn plan_shared(&self, requests: &[ModelGraph]) -> Result<Arc<PlannedPipeline>, PlanError> {
        if requests.is_empty() {
            return Err(PlanError::EmptyRequestSet);
        }
        span!(
            self.planner.telemetry().spans,
            "online-inc:{}req",
            requests.len()
        );
        self.count_invocation(requests.len());
        if requests.len() <= self.window {
            // A memoized plan is stored as its window's combined plan.
            let planned = self.window_cached(0, requests)?;
            self.lint_combined(&planned);
            return Ok(planned);
        }
        let window_plans = requests
            .chunks(self.window)
            .enumerate()
            .map(|(w, chunk)| self.window_cached(w, chunk).map(Arc::unwrap_or_clone))
            .collect::<Result<Vec<_>, _>>()?;
        Ok(Arc::new(self.combine(window_plans)))
    }

    /// Window `w` of [`OnlinePlanner::plan_shared`]: the memoized plan of
    /// `chunk` if the cache holds one under the requests' current
    /// contention classes, else the plan [`OnlinePlanner::plan`] would
    /// make, under a `window:{w}` span, memoized without its pass reports
    /// as a one-window combined plan.
    fn window_cached(
        &self,
        w: usize,
        chunk: &[ModelGraph],
    ) -> Result<Arc<PlannedPipeline>, PlanError> {
        let telemetry = self.planner.telemetry();
        let procs = self.planner.pipeline_procs();
        let estimator = self.planner.estimator();
        // Key component 2: the *current* contention class of a request,
        // read from its tables entry on every lookup so a reclassified
        // model invalidates its windows. The lookup stays out of the
        // planner's tables counters: it runs on every dispatch,
        // window-cache hits included.
        let class_of = |g: &ModelGraph| estimator.tables_cached(g, procs).0.contention().1;
        let cached = self
            .window_cache
            .borrow()
            .iter()
            .find(|e| e.matches(chunk, procs, |i| class_of(&chunk[i])))
            .map(|e| Arc::clone(&e.planned));
        // Both counters are touched on every lookup, so each enters the
        // snapshot at the first one.
        let hit = cached.is_some();
        telemetry
            .metrics
            .add(self.metrics.window_hits, u64::from(hit));
        telemetry
            .metrics
            .add(self.metrics.window_misses, u64::from(!hit));
        if let Some(cached) = cached {
            self.check_hit(chunk, &cached)?;
            return Ok(cached);
        }
        // Classes before planning: the class lookups build any missing
        // tables, so the planner's own lookups stay hits.
        let classes = chunk.iter().map(class_of).collect();
        let mut planned = {
            span!(telemetry.spans, "window:{}", w);
            self.planner.plan(chunk)?
        };
        planned.mitigation = None;
        planned.steal = None;
        let planned = Arc::new(planned);
        self.window_cache.borrow_mut().push(WindowEntry {
            graphs: chunk.to_vec(),
            classes,
            procs: procs.to_vec(),
            planned: Arc::clone(&planned),
        });
        Ok(planned)
    }

    /// Debug-build equivalence gate: a hit re-plans its window from
    /// scratch and must match the memoized plan bit for bit.
    fn check_hit(&self, chunk: &[ModelGraph], cached: &PlannedPipeline) -> Result<(), PlanError> {
        #[cfg(debug_assertions)]
        {
            let fresh = self.planner.plan(chunk)?;
            debug_assert!(
                fresh.plan == cached.plan && fresh.tail_merges == cached.tail_merges,
                "memoized window plan diverged from the from-scratch plan"
            );
        }
        #[cfg(not(debug_assertions))]
        let _ = (chunk, cached);
        Ok(())
    }

    /// Number of memoized window plans currently held.
    pub fn window_cache_len(&self) -> usize {
        self.window_cache.borrow().len()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use h2p_models::zoo::ModelId;
    use h2p_simulator::SocSpec;

    fn graphs(ids: &[ModelId]) -> Vec<ModelGraph> {
        ids.iter().map(|m| m.graph()).collect()
    }

    fn stream() -> Vec<ModelGraph> {
        graphs(&[
            ModelId::ResNet50,
            ModelId::SqueezeNet,
            ModelId::Bert,
            ModelId::MobileNetV2,
            ModelId::Vgg16,
            ModelId::GoogLeNet,
            ModelId::Vit,
            ModelId::AlexNet,
        ])
    }

    #[test]
    fn giant_window_matches_offline_planning() {
        let soc = SocSpec::kirin_990();
        let planner = Planner::new(&soc).unwrap();
        let online = OnlinePlanner::new(planner.clone(), 100);
        let reqs = stream();
        let offline = planner.plan(&reqs).unwrap();
        let windowed = online.plan(&reqs).unwrap();
        assert_eq!(offline.plan, windowed.plan);
    }

    #[test]
    fn windows_bound_reordering_distance() {
        let soc = SocSpec::kirin_990();
        let planner = Planner::new(&soc).unwrap();
        let online = OnlinePlanner::new(planner, 3);
        let reqs = stream();
        let planned = online.plan(&reqs).unwrap();
        // Every request stays within its window of 3.
        for (pos, req) in planned.plan.requests.iter().enumerate() {
            assert_eq!(
                pos / 3,
                req.request / 3,
                "request {} at pos {pos}",
                req.request
            );
        }
        // All requests present exactly once.
        let mut seen: Vec<usize> = planned.plan.requests.iter().map(|r| r.request).collect();
        seen.sort_unstable();
        assert_eq!(seen, (0..reqs.len()).collect::<Vec<_>>());
    }

    #[test]
    fn windowed_plans_execute_and_stay_competitive() {
        let soc = SocSpec::kirin_990();
        let planner = Planner::new(&soc).unwrap();
        let reqs = stream();
        let offline = planner.plan(&reqs).unwrap().execute(&soc).unwrap();
        let online = OnlinePlanner::new(planner, 4)
            .plan(&reqs)
            .unwrap()
            .execute(&soc)
            .unwrap();
        assert_eq!(online.request_latency_ms.len(), reqs.len());
        // Windowing costs something but stays within 2x of offline.
        assert!(
            online.makespan_ms < 2.0 * offline.makespan_ms,
            "online {:.0} vs offline {:.0}",
            online.makespan_ms,
            offline.makespan_ms
        );
    }

    #[test]
    fn online_planning_records_window_metrics() {
        let soc = SocSpec::kirin_990();
        let online = OnlinePlanner::new(Planner::new(&soc).unwrap(), 3);
        let reqs = stream(); // 8 requests → 3 windows of ≤3
        online.plan(&reqs).unwrap();
        let snap = online.planner().telemetry().metrics.snapshot();
        assert_eq!(snap.counter("online.invocations"), Some(1));
        assert_eq!(snap.counter("online.windows"), Some(3));
        assert_eq!(snap.counter("planner.plans"), Some(3));
        let spans = online.planner().telemetry().spans.records();
        assert_eq!(
            spans
                .iter()
                .filter(|s| s.name.starts_with("window:"))
                .count(),
            3
        );
    }

    #[test]
    fn incremental_matches_from_scratch_and_hits_on_repeat() {
        let soc = SocSpec::kirin_990();
        let online = OnlinePlanner::new(Planner::new(&soc).unwrap(), 4);
        let reqs = stream(); // 8 requests → 2 windows of 4
        let scratch = online.plan(&reqs).unwrap();
        // Cold: every window misses, gets planned and memoized.
        let first = online.plan_incremental(&reqs).unwrap();
        assert_eq!(first.plan, scratch.plan);
        assert_eq!(first.tail_merges, scratch.tail_merges);
        assert_eq!(online.window_cache_len(), 2);
        // Warm: every window hits; the combined plan is bit-identical.
        let second = online.plan_incremental(&reqs).unwrap();
        assert_eq!(second.plan, scratch.plan);
        assert_eq!(
            second.plan.estimated_makespan_ms().to_bits(),
            scratch.plan.estimated_makespan_ms().to_bits()
        );
        assert_eq!(online.window_cache_len(), 2, "no duplicate entries");
        let snap = online.planner().telemetry().metrics.snapshot();
        assert_eq!(snap.counter("online.window_cache.misses"), Some(2));
        assert_eq!(snap.counter("online.window_cache.hits"), Some(2));
    }

    #[test]
    fn one_window_streams_share_the_memoized_plan() {
        // The miss memoizes the plan and hands it out; the hit returns
        // that same allocation, equal to the from-scratch plan.
        let soc = SocSpec::kirin_990();
        let online = OnlinePlanner::new(Planner::new(&soc).unwrap(), 4);
        let reqs = &stream()[..3];
        let miss = online.plan_shared(reqs).unwrap();
        let hit = online.plan_shared(reqs).unwrap();
        assert!(Arc::ptr_eq(&miss, &hit));
        assert_eq!(hit.plan, online.plan(reqs).unwrap().plan);
        assert_eq!(online.window_cache_len(), 1);
    }

    #[test]
    fn incremental_replans_only_changed_windows() {
        let soc = SocSpec::kirin_990();
        let online = OnlinePlanner::new(Planner::new(&soc).unwrap(), 4);
        let reqs = stream();
        online.plan_incremental(&reqs).unwrap(); // 2 windows memoized
                                                 // Change the second window only: its key misses, the first hits.
        let mut shifted = reqs.clone();
        shifted[6] = ModelId::InceptionV4.graph();
        let out = online.plan_incremental(&shifted).unwrap();
        assert_eq!(out.plan, online.plan(&shifted).unwrap().plan);
        let snap = online.planner().telemetry().metrics.snapshot();
        assert_eq!(snap.counter("online.window_cache.hits"), Some(1));
        assert_eq!(snap.counter("online.window_cache.misses"), Some(3));
        assert_eq!(online.window_cache_len(), 3);
    }

    /// A window that repeats inside one stream misses once and hits
    /// once: it is planned and memoized once, and the combined plan is
    /// the from-scratch one.
    #[test]
    fn a_repeated_window_is_planned_once() {
        let soc = SocSpec::kirin_990();
        let online = OnlinePlanner::new(Planner::new(&soc).unwrap(), 3);
        let window = &stream()[..3];
        let reqs: Vec<ModelGraph> = window.iter().chain(window).cloned().collect();
        let out = online.plan_shared(&reqs).unwrap();
        let snap = online.planner().telemetry().metrics.snapshot();
        assert_eq!(snap.counter("online.window_cache.misses"), Some(1));
        assert_eq!(snap.counter("online.window_cache.hits"), Some(1));
        assert_eq!(online.window_cache_len(), 1);
        assert_eq!(out.plan, online.plan(&reqs).unwrap().plan);
    }

    /// Pins cache invalidation on each key component independently: a
    /// change to the model set, the contention classes, or the processor
    /// list must each miss on its own.
    #[test]
    fn window_key_invalidates_on_each_component() {
        use h2p_contention::ContentionClass;
        let soc = SocSpec::kirin_990();
        let planner = Planner::new(&soc).unwrap();
        let win = graphs(&[ModelId::ResNet50, ModelId::SqueezeNet]);
        let classes = vec![ContentionClass::Low, ContentionClass::High];
        let procs = planner.pipeline_procs();
        let planned = Arc::new(planner.plan(&win).unwrap());
        let entry = WindowEntry {
            graphs: win.clone(),
            classes: classes.clone(),
            procs: procs.to_vec(),
            planned,
        };
        let current = |i: usize| classes[i];
        assert!(entry.matches(&win, procs, current), "unchanged key hits");
        // Component 1: model set (a different graph, same length).
        let other = graphs(&[ModelId::ResNet50, ModelId::AlexNet]);
        assert!(!entry.matches(&other, procs, current));
        // ...and a different window length.
        assert!(!entry.matches(&win[..1], procs, current));
        // Component 2: contention class of any request.
        let flipped = [ContentionClass::Low, ContentionClass::Low];
        assert!(!entry.matches(&win, procs, |i| flipped[i]));
        // Component 3: processor availability (a dropped tail slot).
        let degraded = procs[..procs.len() - 1].to_vec();
        assert!(!entry.matches(&win, &degraded, current));
    }

    #[test]
    fn empty_incremental_stream_is_rejected() {
        let soc = SocSpec::kirin_990();
        let online = OnlinePlanner::new(Planner::new(&soc).unwrap(), 4);
        assert_eq!(
            online.plan_incremental(&[]).unwrap_err(),
            PlanError::EmptyRequestSet
        );
    }

    #[test]
    fn empty_stream_is_rejected() {
        let soc = SocSpec::kirin_990();
        let online = OnlinePlanner::new(Planner::new(&soc).unwrap(), 4);
        assert_eq!(online.plan(&[]).unwrap_err(), PlanError::EmptyRequestSet);
    }

    #[test]
    #[should_panic(expected = "window")]
    fn zero_window_panics() {
        let soc = SocSpec::kirin_990();
        OnlinePlanner::new(Planner::new(&soc).unwrap(), 0);
    }
}
