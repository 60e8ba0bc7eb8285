//! Measured-profile overrides for the cost model.
//!
//! On real hardware the paper's planner consumes *profiled* per-layer
//! execution times (`T_e` tables measured once per model/processor), not
//! an analytical model. [`ProfileTable`] is that interface: measure your
//! layers however you like (on-device timers, vendor profilers), record
//! them here, and attach the table to a [`CostModel`](crate::CostModel) — every overridden
//! layer then uses the measurement while unmeasured layers keep the
//! analytical roofline estimate. Serializable, so profiles can be
//! collected once per device and shipped with an application.

use std::collections::HashMap;

use serde::{Deserialize, Serialize};

use h2p_simulator::processor::ProcessorId;

/// A set of measured per-layer latencies keyed by
/// `(model name, layer name, processor)`.
#[derive(Debug, Clone, Default, PartialEq, Serialize, Deserialize)]
pub struct ProfileTable {
    entries: HashMap<(String, String, usize), f64>,
}

impl ProfileTable {
    /// Creates an empty table.
    pub fn new() -> Self {
        ProfileTable::default()
    }

    /// Records a measured latency for one layer on one processor,
    /// returning the previous measurement if any.
    ///
    /// # Panics
    ///
    /// Panics if `latency_ms` is not finite and positive.
    pub fn record(
        &mut self,
        model: impl Into<String>,
        layer: impl Into<String>,
        proc: ProcessorId,
        latency_ms: f64,
    ) -> Option<f64> {
        assert!(
            latency_ms.is_finite() && latency_ms > 0.0,
            "measured latency must be finite and positive"
        );
        self.entries
            .insert((model.into(), layer.into(), proc.index()), latency_ms)
    }

    /// Looks up a measurement.
    pub fn lookup(&self, model: &str, layer: &str, proc: ProcessorId) -> Option<f64> {
        self.entries
            .get(&(model.to_owned(), layer.to_owned(), proc.index()))
            .copied()
    }

    /// Number of recorded measurements.
    pub fn len(&self) -> usize {
        self.entries.len()
    }

    /// Whether the table has no measurements.
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }

    /// Merges another table into this one; the other table's entries win
    /// on conflicts (newer measurements override older ones).
    pub fn merge(&mut self, other: &ProfileTable) {
        #[expect(
            clippy::iter_over_hash_type,
            reason = "keys are distinct, so every insert lands the same in any order"
        )]
        for (k, &v) in &other.entries {
            self.entries.insert(k.clone(), v);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn record_and_lookup_round_trip() {
        let mut t = ProfileTable::new();
        assert!(t.is_empty());
        let p = ProcessorId(1);
        assert_eq!(t.record("BERT", "enc0_attn", p, 12.5), None);
        assert_eq!(t.lookup("BERT", "enc0_attn", p), Some(12.5));
        assert_eq!(t.lookup("BERT", "enc0_attn", ProcessorId(2)), None);
        assert_eq!(t.record("BERT", "enc0_attn", p, 11.0), Some(12.5));
        assert_eq!(t.len(), 1);
    }

    #[test]
    fn merge_prefers_newer_measurements() {
        let p = ProcessorId(0);
        let mut a = ProfileTable::new();
        a.record("M", "l1", p, 10.0);
        a.record("M", "l2", p, 20.0);
        let mut b = ProfileTable::new();
        b.record("M", "l1", p, 8.0);
        a.merge(&b);
        assert_eq!(a.lookup("M", "l1", p), Some(8.0));
        assert_eq!(a.lookup("M", "l2", p), Some(20.0));
    }

    #[test]
    #[should_panic(expected = "finite and positive")]
    fn rejects_nonpositive_latency() {
        ProfileTable::new().record("M", "l", ProcessorId(0), 0.0);
    }
}
