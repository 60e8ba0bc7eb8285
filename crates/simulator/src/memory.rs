//! Memory subsystem: capacity ledger, page-fault penalty and the
//! demand-driven memory-frequency governor.
//!
//! The paper's Constraint (6) bounds the concurrent footprint of pipeline
//! stages by the physical memory capacity, and Fig. 9 traces the memory
//! frequency (driven to its maximum whenever CPU/GPU co-execute) and the
//! available memory (≈2.5 GB initially, dropping to ≈500 MB under a
//! three-stage pipeline of large models).

use serde::{Deserialize, Serialize};

/// Static description of the DRAM subsystem.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct MemorySpec {
    /// Memory available to the inference workload, in bytes (the paper
    /// observes ~2.5 GB available on the Kirin 990 test device).
    pub capacity_bytes: u64,
    /// Discrete memory controller frequency levels in MHz, ascending.
    pub freq_levels_mhz: Vec<u32>,
    /// Aggregate bandwidth demand (GB/s) above which the governor steps the
    /// frequency up one level.
    pub step_up_gbps: f64,
    /// Multiplicative progress-rate penalty applied to every running task
    /// while the footprint exceeds capacity (page faults / swapping).
    pub page_fault_penalty: f64,
}

impl MemorySpec {
    /// A spec resembling the paper's Kirin 990 test device.
    pub fn mobile_default() -> Self {
        MemorySpec {
            capacity_bytes: 2_500 * 1024 * 1024,
            freq_levels_mhz: vec![547, 1094, 1866],
            step_up_gbps: 4.0,
            page_fault_penalty: 0.35,
        }
    }

    /// The highest governor frequency level in MHz.
    pub fn max_freq_mhz(&self) -> u32 {
        #[expect(
            clippy::expect_used,
            reason = "documented invariant: every constructor provides at least one \
                      frequency level; an empty table is a spec-construction bug"
        )]
        *self
            .freq_levels_mhz
            .last()
            .expect("memory spec must define at least one frequency level")
    }
}

impl Default for MemorySpec {
    fn default() -> Self {
        MemorySpec::mobile_default()
    }
}

/// One sample of the memory trace (Fig. 9): time, governor frequency and
/// available memory.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct MemorySample {
    /// Simulation time of the sample in milliseconds.
    pub time_ms: f64,
    /// Governor frequency at the sample in MHz.
    pub freq_mhz: u32,
    /// Available (unallocated) memory in bytes; zero while over-committed.
    pub available_bytes: u64,
    /// Total allocated footprint in bytes.
    pub allocated_bytes: u64,
}

/// Runtime state of the memory subsystem during a simulation.
///
/// The engine allocates each task's footprint when the task starts and
/// releases it on completion, recording a trace sample at every change.
/// The state borrows its spec (the SoC's), so a run copies nothing of it.
#[derive(Debug, Clone)]
pub struct MemoryState<'spec> {
    spec: &'spec MemorySpec,
    allocated: u64,
    demand_gbps: f64,
    trace: Vec<MemorySample>,
}

impl<'spec> MemoryState<'spec> {
    /// Creates a fresh state with nothing allocated.
    pub fn new(spec: &'spec MemorySpec) -> Self {
        MemoryState {
            spec,
            allocated: 0,
            demand_gbps: 0.0,
            trace: Vec::new(),
        }
    }

    /// The spec this state was created from.
    pub fn spec(&self) -> &'spec MemorySpec {
        self.spec
    }

    /// Reserves room for `additional` more trace samples.
    pub fn reserve(&mut self, additional: usize) {
        self.trace.reserve(additional);
    }

    /// Currently allocated footprint in bytes.
    pub fn allocated_bytes(&self) -> u64 {
        self.allocated
    }

    /// Available memory in bytes (saturating at zero when over-committed).
    pub fn available_bytes(&self) -> u64 {
        self.spec.capacity_bytes.saturating_sub(self.allocated)
    }

    /// Whether the current footprint exceeds physical capacity, i.e. the
    /// device is paging and every running task suffers
    /// [`MemorySpec::page_fault_penalty`].
    pub fn over_capacity(&self) -> bool {
        self.allocated > self.spec.capacity_bytes
    }

    /// The multiplicative rate factor imposed by the memory subsystem on
    /// all running tasks: `1.0` normally, `page_fault_penalty` when
    /// over-committed.
    pub fn rate_factor(&self) -> f64 {
        if self.over_capacity() {
            self.spec.page_fault_penalty
        } else {
            1.0
        }
    }

    /// Governor frequency for the current aggregate bandwidth demand.
    ///
    /// Single-accelerator execution stays on a low level; once demand
    /// crosses multiples of `step_up_gbps` the governor climbs, saturating
    /// at the top level — matching Fig. 9 where involving the CPU/GPU
    /// drives the controller to its maximum state.
    pub fn governor_freq_mhz(&self) -> u32 {
        let levels = &self.spec.freq_levels_mhz;
        let step = (self.demand_gbps / self.spec.step_up_gbps).floor() as usize;
        let idx = step.min(levels.len() - 1);
        levels[idx]
    }

    /// Registers `bytes` of footprint and `bandwidth_gbps` of demand for a
    /// task starting at `time_ms`, recording a trace sample.
    pub fn allocate(&mut self, time_ms: f64, bytes: u64, bandwidth_gbps: f64) {
        self.allocated += bytes;
        self.demand_gbps += bandwidth_gbps;
        self.sample(time_ms);
    }

    /// Releases a task's footprint and bandwidth demand at `time_ms`.
    ///
    /// # Panics
    ///
    /// Panics in debug builds if more is released than was allocated
    /// (ledger conservation violation).
    pub fn release(&mut self, time_ms: f64, bytes: u64, bandwidth_gbps: f64) {
        debug_assert!(self.allocated >= bytes, "memory ledger underflow");
        self.allocated = self.allocated.saturating_sub(bytes);
        self.demand_gbps = (self.demand_gbps - bandwidth_gbps).max(0.0);
        self.sample(time_ms);
    }

    /// Records the current state as a trace sample at `time_ms`.
    pub fn sample(&mut self, time_ms: f64) {
        self.trace.push(MemorySample {
            time_ms,
            freq_mhz: self.governor_freq_mhz(),
            available_bytes: self.available_bytes(),
            allocated_bytes: self.allocated,
        });
    }

    /// The recorded trace, one sample per allocation change.
    pub fn trace(&self) -> &[MemorySample] {
        &self.trace
    }

    /// Consumes the state and returns the trace.
    pub fn into_trace(self) -> Vec<MemorySample> {
        self.trace
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn state() -> MemoryState<'static> {
        static SPEC: std::sync::OnceLock<MemorySpec> = std::sync::OnceLock::new();
        MemoryState::new(SPEC.get_or_init(MemorySpec::mobile_default))
    }

    #[test]
    fn ledger_conserves_allocations() {
        let mut m = state();
        m.allocate(0.0, 100 << 20, 2.0);
        m.allocate(1.0, 300 << 20, 3.0);
        assert_eq!(m.allocated_bytes(), 400 << 20);
        m.release(2.0, 100 << 20, 2.0);
        m.release(3.0, 300 << 20, 3.0);
        assert_eq!(m.allocated_bytes(), 0);
        assert_eq!(m.available_bytes(), m.spec().capacity_bytes);
    }

    #[test]
    fn governor_climbs_with_demand() {
        let mut m = state();
        let idle = m.governor_freq_mhz();
        assert_eq!(idle, 547);
        m.allocate(0.0, 0, 4.5);
        assert_eq!(m.governor_freq_mhz(), 1094);
        m.allocate(0.0, 0, 8.0);
        assert_eq!(m.governor_freq_mhz(), 1866, "saturates at max level");
    }

    #[test]
    fn page_fault_penalty_kicks_in_over_capacity() {
        let mut m = state();
        assert_eq!(m.rate_factor(), 1.0);
        m.allocate(0.0, 3_000 << 20, 1.0);
        assert!(m.over_capacity());
        assert_eq!(m.rate_factor(), m.spec().page_fault_penalty);
        assert_eq!(m.available_bytes(), 0);
    }

    #[test]
    fn trace_records_every_change() {
        let mut m = state();
        m.allocate(0.0, 10, 1.0);
        m.release(5.0, 10, 1.0);
        let t = m.trace();
        assert_eq!(t.len(), 2);
        assert_eq!(t[0].time_ms, 0.0);
        assert_eq!(t[1].time_ms, 5.0);
        assert_eq!(t[1].allocated_bytes, 0);
    }
}
