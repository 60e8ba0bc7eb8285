//! Admission control derived from calibration-time capacity estimates.
//!
//! At startup the server calibrates against the model zoo: every
//! model's solo (zero-contention) latency is the minimum over
//! processors of the roofline cost model's whole-graph estimate. From
//! those solos, per-class service-time profiles
//! ([`LatencyProfile`]) and a baseline SLO feasibility summary
//! ([`SloSummary`] over entries whose latency is the solo time and
//! whose deadline is the class SLO envelope) yield the two admission
//! knobs:
//!
//! * **Token buckets** — class `c` refills at `1 / p50_c` tokens per
//!   ms, the rate at which the SoC could serve class `c` even if it
//!   did nothing else. Offered load beyond that rate is turned away
//!   with [`RejectReason::Shedding`] before it can build unbounded
//!   queue.
//! * **Queue depth limits** — a class whose SLO envelope is
//!   `slo_multiplier(c) × solo` can tolerate a queue wait of at most
//!   `(multiplier − 1) × solo`, i.e. `multiplier − 1` service times;
//!   scaled by the dispatch window (the drain quantum) that gives
//!   `limit_c = max(2, (multiplier − 1) × window)`. A class whose
//!   calibration summary already burns its error budget at solo
//!   latencies (`burn_rate > 1`) gets the floor limit — queueing it
//!   deeper could never meet the SLO anyway.
//!
//! [`RejectReason::Shedding`]: crate::RejectReason::Shedding

use h2p_models::cost::CostModel;
use h2p_models::zoo::ModelId;
use h2p_simulator::processor::ProcessorId;
use h2p_simulator::soc::SocSpec;
use h2p_telemetry::analytics::{LatencyProfile, SloEntry, SloSummary};
use h2p_telemetry::lifecycle::QosClass;

use crate::{class_index, qos_class, slo_multiplier};

/// Per-model solo latency estimates over the zoo, computed once per
/// SoC from the roofline cost model.
#[derive(Debug, Clone)]
pub struct Calibration {
    /// Solo latency per model, parallel to [`ModelId::ALL`].
    solo_ms: Vec<f64>,
    /// QoS class per model, parallel to [`ModelId::ALL`].
    class: Vec<QosClass>,
}

impl Calibration {
    /// Calibrates against `soc`: each model's solo latency is the
    /// fastest single-processor placement the cost model admits
    /// (processors that cannot run some operator are skipped).
    pub fn new(soc: &SocSpec) -> Self {
        let cost = CostModel::new(soc);
        let mut solo_ms = Vec::with_capacity(ModelId::ALL.len());
        let mut class = Vec::with_capacity(ModelId::ALL.len());
        for id in ModelId::ALL {
            let graph = id.graph();
            let best = (0..soc.processors.len())
                .filter_map(|p| cost.model_latency_ms(&graph, ProcessorId(p)))
                .fold(f64::INFINITY, f64::min);
            // Every SoC has a big CPU cluster that supports all
            // operators, so `best` is finite; the fallback keeps the
            // math total anyway.
            solo_ms.push(if best.is_finite() { best } else { 1.0 });
            class.push(qos_class(graph.total_flops()));
        }
        Calibration { solo_ms, class }
    }

    /// Replaces `model`'s solo estimate with a measured value (e.g. a
    /// solo execution makespan from the simulator), keeping its class.
    /// Deadlines derived from measured solos are achievable by
    /// construction; the roofline estimate ignores pipeline fill and
    /// fan-out overhead and can undershoot. Non-finite or non-positive
    /// measurements are ignored.
    pub fn refine_solo(&mut self, model: ModelId, measured_ms: f64) {
        if let Some(i) = ModelId::ALL.iter().position(|&m| m == model) {
            if measured_ms.is_finite() && measured_ms > 0.0 {
                self.solo_ms[i] = measured_ms;
            }
        }
    }

    /// Solo latency estimate for `model`, ms.
    pub fn solo_ms(&self, model: ModelId) -> f64 {
        ModelId::ALL
            .iter()
            .position(|&m| m == model)
            .map_or(1.0, |i| self.solo_ms[i])
    }

    /// QoS class of `model`, by compute size.
    pub fn class(&self, model: ModelId) -> QosClass {
        ModelId::ALL
            .iter()
            .position(|&m| m == model)
            .map_or(QosClass::Standard, |i| self.class[i])
    }

    /// Deadline for one request of `model`, relative to its arrival:
    /// the class SLO envelope over the solo estimate.
    pub fn deadline_ms(&self, model: ModelId) -> f64 {
        slo_multiplier(self.class(model)) * self.solo_ms(model)
    }

    /// Median solo service time per class, in [`QosClass::ALL`] order.
    /// A class with no zoo models falls back to the overall median.
    pub fn class_p50_ms(&self) -> [f64; 3] {
        let overall = LatencyProfile::compute(&self.solo_ms).map_or(1.0, |p| p.p50_ms);
        let mut out = [overall; 3];
        for (slot, qc) in out.iter_mut().zip(QosClass::ALL) {
            let mine: Vec<f64> = self
                .solo_ms
                .iter()
                .zip(&self.class)
                .filter(|(_, c)| **c == qc)
                .map(|(s, _)| *s)
                .collect();
            if let Some(p) = LatencyProfile::compute(&mine) {
                *slot = p.p50_ms;
            }
        }
        out
    }

    /// Baseline SLO summary at calibration: one entry per zoo model
    /// with its solo latency against its class envelope. A class
    /// already burning budget here cannot absorb any queueing delay.
    pub fn slo_baseline(&self, budget: f64) -> Vec<SloSummary> {
        let entries: Vec<SloEntry> = self
            .solo_ms
            .iter()
            .zip(&self.class)
            .map(|(&solo, &class)| SloEntry {
                class,
                latency_ms: Some(solo),
                deadline_ms: Some(slo_multiplier(class) * solo),
            })
            .collect();
        SloSummary::compute(&entries, budget)
    }
}

/// One class's token bucket: refills continuously on the virtual
/// clock, capped at `burst`.
#[derive(Debug, Clone, Copy)]
struct TokenBucket {
    rate_per_ms: f64,
    burst: f64,
    tokens: f64,
    last_ms: f64,
}

impl TokenBucket {
    fn refill(&mut self, now_ms: f64) {
        if now_ms > self.last_ms {
            self.tokens =
                (self.tokens + (now_ms - self.last_ms) * self.rate_per_ms).min(self.burst);
            self.last_ms = now_ms;
        }
    }

    fn try_take(&mut self, now_ms: f64) -> bool {
        self.refill(now_ms);
        if self.tokens >= 1.0 {
            self.tokens -= 1.0;
            true
        } else {
            false
        }
    }
}

/// The admission policy: per-class token buckets plus the derived
/// queue depth limits (consumed by [`crate::AdmitQueue`]).
#[derive(Debug, Clone)]
pub struct AdmissionControl {
    buckets: [TokenBucket; 3],
    limits: [usize; 3],
    class_p50_ms: [f64; 3],
}

impl AdmissionControl {
    /// Derives the policy from a calibration, the dispatch window
    /// (batch drain quantum), and the SLO error budget.
    pub fn new(cal: &Calibration, window: usize, budget: f64) -> Self {
        let class_p50_ms = cal.class_p50_ms();
        let baseline = cal.slo_baseline(budget);
        let mut limits = [2usize; 3];
        let mut buckets = [TokenBucket {
            rate_per_ms: 1.0,
            burst: 1.0,
            tokens: 1.0,
            last_ms: 0.0,
        }; 3];
        for (i, qc) in QosClass::ALL.iter().enumerate() {
            let infeasible = baseline.iter().any(|s| s.class == *qc && s.burn_rate > 1.0);
            let slack_services = (slo_multiplier(*qc) - 1.0).max(0.0);
            limits[i] = if infeasible {
                2
            } else {
                ((slack_services * window as f64) as usize).max(2)
            };
            let rate = 1.0 / class_p50_ms[i].max(1e-9);
            buckets[i] = TokenBucket {
                rate_per_ms: rate,
                burst: limits[i] as f64,
                tokens: limits[i] as f64,
                last_ms: 0.0,
            };
        }
        AdmissionControl {
            buckets,
            limits,
            class_p50_ms,
        }
    }

    /// Per-class queue depth limits, in [`QosClass::ALL`] order.
    pub fn limits(&self) -> [usize; 3] {
        self.limits
    }

    /// Median calibration service time per class.
    pub fn class_p50_ms(&self) -> [f64; 3] {
        self.class_p50_ms
    }

    /// Takes one admission token for `class` at `now_ms`. `false`
    /// means the class's offered rate exceeds its sustainable service
    /// rate — the caller rejects with [`crate::RejectReason::Shedding`].
    pub fn try_take_token(&mut self, class: QosClass, now_ms: f64) -> bool {
        self.buckets[class_index(class)].try_take(now_ms)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn calibration_orders_solo_times_by_model_size() {
        let soc = SocSpec::kirin_990();
        let cal = Calibration::new(&soc);
        // A heavyweight model takes longer solo than a lightweight one.
        assert!(cal.solo_ms(ModelId::Vgg16) > cal.solo_ms(ModelId::SqueezeNet));
        assert!(cal.solo_ms(ModelId::SqueezeNet) > 0.0);
        // Deadlines scale the solo by the class envelope.
        let d = cal.deadline_ms(ModelId::SqueezeNet);
        let solo = cal.solo_ms(ModelId::SqueezeNet);
        assert!((d / solo - slo_multiplier(cal.class(ModelId::SqueezeNet))).abs() < 1e-9);
    }

    #[test]
    fn admission_limits_follow_the_slo_envelope() {
        let soc = SocSpec::kirin_990();
        let cal = Calibration::new(&soc);
        let ac = AdmissionControl::new(&cal, 4, SloSummary::DEFAULT_BUDGET);
        let limits = ac.limits();
        // Looser envelopes tolerate deeper queues: batch >= standard
        // >= interactive, and every limit respects the floor of 2.
        assert!(limits[2] >= limits[1] && limits[1] >= limits[0]);
        assert!(limits.iter().all(|&l| l >= 2));
        // Baseline calibration meets its own envelopes (no burn).
        assert!(cal
            .slo_baseline(SloSummary::DEFAULT_BUDGET)
            .iter()
            .all(|s| s.misses == 0));
    }

    #[test]
    fn token_bucket_throttles_then_refills() {
        let soc = SocSpec::kirin_990();
        let cal = Calibration::new(&soc);
        let mut ac = AdmissionControl::new(&cal, 4, SloSummary::DEFAULT_BUDGET);
        let p50 = ac.class_p50_ms()[0];
        // Drain the interactive burst at t=0.
        let mut taken = 0;
        while ac.try_take_token(QosClass::Interactive, 0.0) {
            taken += 1;
            assert!(taken < 10_000, "bucket never empties");
        }
        assert!(taken >= 2);
        assert!(!ac.try_take_token(QosClass::Interactive, 0.0));
        // After one service time the bucket has earned a token back.
        assert!(ac.try_take_token(QosClass::Interactive, p50 * 1.01));
    }
}
