//! The admission queue: bounded per-QoS-class depths, arrival-order
//! dispatch, and deadline-aware shedding.
//!
//! The serving loop is single-threaded, so the queue is a plain
//! `&mut self` type. Its accounting invariants (depth never exceeds its
//! limit, every admitted entry leaves exactly once, the per-class
//! counters always sum to the entry count) are property-tested over
//! random admit/shed/dispatch sequences below and re-checked by
//! [`crate::ServeReport::verify_invariants`] after every run.

use h2p_models::zoo::ModelId;
use h2p_telemetry::lifecycle::QosClass;

use crate::class_index;

/// One admitted, queued request awaiting dispatch.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct QueuedRequest {
    /// Stable request id (arrival index).
    pub id: usize,
    pub model: ModelId,
    pub class: QosClass,
    /// Arrival instant, ms.
    pub arrival_ms: f64,
    /// Solo (zero-contention) critical path, ms — the calibration
    /// estimate shedding compares remaining slack against.
    pub solo_ms: f64,
    /// Deadline relative to arrival, ms.
    pub deadline_ms: f64,
}

impl QueuedRequest {
    /// Remaining slack at `now`: time left until the absolute deadline.
    pub fn slack_ms(&self, now_ms: f64) -> f64 {
        self.arrival_ms + self.deadline_ms - now_ms
    }
}

/// Bounded multi-class admission queue. `limits` caps each class's
/// depth; [`AdmitQueue::try_admit`] refuses (returning the request to
/// the caller) rather than ever growing past a limit.
#[derive(Debug)]
pub struct AdmitQueue {
    limits: [usize; 3],
    /// Queued entries in arrival order.
    entries: Vec<QueuedRequest>,
    /// Current depth per class, always `== entries` partitioned.
    depth: [usize; 3],
    /// High-water marks for the bounded-depth invariant report.
    max_total: usize,
    max_class: [usize; 3],
}

impl AdmitQueue {
    pub fn new(limits: [usize; 3]) -> Self {
        AdmitQueue {
            limits,
            entries: Vec::new(),
            depth: [0; 3],
            max_total: 0,
            max_class: [0; 3],
        }
    }

    /// Per-class depth limits, in [`QosClass::ALL`] order.
    pub fn limits(&self) -> [usize; 3] {
        self.limits
    }

    /// Current depth of one class.
    pub fn class_depth(&self, class: QosClass) -> usize {
        self.depth[class_index(class)]
    }

    pub fn len(&self) -> usize {
        self.entries.len()
    }

    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }

    /// Sum of queued solo times — the backlog estimate admission uses
    /// to predict whether a new request could still meet its deadline.
    pub fn backlog_solo_ms(&self) -> f64 {
        self.entries.iter().map(|q| q.solo_ms).sum()
    }

    /// Admits `req` if its class has depth headroom; otherwise returns
    /// it to the caller (the caller records the typed rejection — the
    /// queue never drops anything silently).
    pub fn try_admit(&mut self, req: QueuedRequest) -> Result<(), QueuedRequest> {
        let c = class_index(req.class);
        if self.depth[c] >= self.limits[c] {
            return Err(req);
        }
        self.depth[c] += 1;
        self.entries.push(req);
        self.max_total = self.max_total.max(self.entries.len());
        self.max_class[c] = self.max_class[c].max(self.depth[c]);
        debug_assert!(self.depth[c] <= self.limits[c]);
        Ok(())
    }

    /// Evicts every queued request whose remaining slack at `now_ms`
    /// is below its solo critical path — it could not finish on time
    /// even if dispatched alone, immediately. Returns the evicted
    /// requests oldest-lowest-class first (batch before standard
    /// before interactive, arrival order within a class), the order
    /// their `shed` lifecycle events are recorded in.
    pub fn shed_expired(&mut self, now_ms: f64) -> Vec<QueuedRequest> {
        let mut shed = Vec::new();
        self.entries.retain(|q| {
            let expired = q.slack_ms(now_ms) < q.solo_ms;
            if expired {
                shed.push(*q);
            }
            !expired
        });
        for q in &shed {
            self.depth[class_index(q.class)] -= 1;
        }
        // Stable: arrival order survives within each class.
        shed.sort_by_key(|q| std::cmp::Reverse(class_index(q.class)));
        shed
    }

    /// Pops up to `max` requests in arrival order for dispatch.
    pub fn pop_batch(&mut self, max: usize) -> Vec<QueuedRequest> {
        let take = max.min(self.entries.len());
        let batch: Vec<QueuedRequest> = self.entries.drain(..take).collect();
        for q in &batch {
            self.depth[class_index(q.class)] -= 1;
        }
        batch
    }

    /// High-water marks observed so far: `(max total depth, max depth
    /// per class)`.
    pub fn high_water(&self) -> (usize, [usize; 3]) {
        (self.max_total, self.max_class)
    }

    /// Internal-consistency check: the per-class counters must
    /// partition the entry list and respect the limits. Returns a
    /// description of the first inconsistency, if any.
    pub fn check_consistency(&self) -> Option<String> {
        let mut counted = [0usize; 3];
        for q in &self.entries {
            counted[class_index(q.class)] += 1;
        }
        if counted != self.depth {
            return Some(format!(
                "class counters {:?} disagree with entries {counted:?}",
                self.depth
            ));
        }
        for (c, (&d, &l)) in self.depth.iter().zip(&self.limits).enumerate() {
            if d > l {
                return Some(format!("class {c} depth {d} exceeds limit {l}"));
            }
        }
        None
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    fn req(id: usize, class: QosClass, arrival: f64, solo: f64, deadline: f64) -> QueuedRequest {
        QueuedRequest {
            id,
            model: ModelId::SqueezeNet,
            class,
            arrival_ms: arrival,
            solo_ms: solo,
            deadline_ms: deadline,
        }
    }

    #[test]
    fn admission_respects_per_class_limits() {
        let mut q = AdmitQueue::new([1, 2, 1]);
        assert!(q
            .try_admit(req(0, QosClass::Interactive, 0.0, 1.0, 10.0))
            .is_ok());
        // Interactive is full; standard still has room.
        let back = q
            .try_admit(req(1, QosClass::Interactive, 1.0, 1.0, 10.0))
            .expect_err("full");
        assert_eq!(back.id, 1);
        assert!(q
            .try_admit(req(2, QosClass::Standard, 2.0, 1.0, 10.0))
            .is_ok());
        assert_eq!(q.len(), 2);
        assert_eq!(q.class_depth(QosClass::Interactive), 1);
        assert!(q.check_consistency().is_none());
        let (max_total, max_class) = q.high_water();
        assert_eq!(max_total, 2);
        assert_eq!(max_class, [1, 1, 0]);
    }

    #[test]
    fn shedding_evicts_slackless_requests_lowest_class_first() {
        let mut q = AdmitQueue::new([4, 4, 4]);
        // Interactive with no slack left, batch with no slack, standard healthy.
        q.try_admit(req(0, QosClass::Interactive, 0.0, 5.0, 6.0))
            .unwrap();
        q.try_admit(req(1, QosClass::Batch, 0.0, 5.0, 6.0)).unwrap();
        q.try_admit(req(2, QosClass::Standard, 0.0, 1.0, 100.0))
            .unwrap();
        q.try_admit(req(3, QosClass::Batch, 1.0, 5.0, 6.0)).unwrap();
        let shed = q.shed_expired(4.0);
        // slack(0) = 2 < 5, slack(1) = 2 < 5, slack(3) = 3 < 5; batch
        // evicted before interactive, oldest first.
        assert_eq!(shed.iter().map(|r| r.id).collect::<Vec<_>>(), vec![1, 3, 0]);
        assert_eq!(q.len(), 1);
        assert!(q.check_consistency().is_none());
        // Dispatch order is arrival order.
        let batch = q.pop_batch(8);
        assert_eq!(batch[0].id, 2);
        assert!(q.is_empty());
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(256))]

        /// Random admit / shed / dispatch sequences: after every
        /// operation the counters partition the entries within the
        /// limits, shed and dispatch orders follow their contracts, and
        /// at the end every admitted request has left exactly once while
        /// nothing left that was never admitted.
        #[test]
        fn random_operation_sequences_keep_accounting_exact(
            seed in any::<u64>(),
            steps in 1usize..160,
        ) {
            let mut state = seed | 1;
            let mut next = move || {
                state = state.wrapping_mul(6364136223846793005).wrapping_add(1);
                (state >> 33) as usize
            };
            let limits = [1 + next() % 4, 1 + next() % 4, 1 + next() % 4];
            let mut q = AdmitQueue::new(limits);
            let mut admitted = vec![false; steps];
            let mut left = vec![0usize; steps];
            let mut now = 0.0f64;
            for (id, was_admitted) in admitted.iter_mut().enumerate() {
                now += (next() % 4) as f64;
                match next() % 6 {
                    0..=3 => {
                        let class = QosClass::ALL[next() % 3];
                        let solo = (1 + next() % 6) as f64;
                        let deadline = solo + (next() % 12) as f64;
                        *was_admitted = q.try_admit(req(id, class, now, solo, deadline)).is_ok();
                    }
                    4 => {
                        let shed = q.shed_expired(now);
                        // Batch before standard before interactive,
                        // arrival (= id) order within a class.
                        let keys: Vec<_> = shed
                            .iter()
                            .map(|r| (std::cmp::Reverse(class_index(r.class)), r.id))
                            .collect();
                        prop_assert!(
                            keys.windows(2).all(|w| w[0] < w[1]),
                            "shed order {:?}",
                            keys
                        );
                        for r in shed {
                            prop_assert!(r.slack_ms(now) < r.solo_ms);
                            left[r.id] += 1;
                        }
                    }
                    _ => {
                        let batch = q.pop_batch(1 + next() % 4);
                        prop_assert!(batch.windows(2).all(|w| w[0].id < w[1].id));
                        for r in batch {
                            left[r.id] += 1;
                        }
                    }
                }
                prop_assert_eq!(q.check_consistency(), None);
            }
            for r in q.pop_batch(usize::MAX) {
                left[r.id] += 1;
            }
            prop_assert!(q.is_empty());
            for (id, (&n, &ok)) in left.iter().zip(&admitted).enumerate() {
                prop_assert_eq!(n, usize::from(ok), "request {}", id);
            }
            let (max_total, max_class) = q.high_water();
            prop_assert!(max_total <= limits.iter().sum::<usize>());
            prop_assert!(
                max_class.iter().zip(&limits).all(|(m, l)| m <= l),
                "high water {:?}",
                max_class
            );
        }
    }
}
