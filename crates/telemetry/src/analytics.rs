//! Derived run-level analytics over executed spans: per-processor
//! utilization and bubble timelines, contention-window occupancy,
//! latency distribution profiles, and deadline/SLO burn-rate
//! accounting.
//!
//! Everything here is a pure function over plain span data
//! ([`ExecSpan`]) so the module stays dependency-free: the simulator
//! and the CLI convert their richer trace types down and the same code
//! serves live runs, replayed event logs, and fleet roll-ups. All
//! iteration orders are deterministic (index- or time-sorted with total
//! float comparisons) — the report for a given trace is byte-stable.

use crate::lifecycle::QosClass;

/// Absolute tolerance below which an inter-span gap is rounding noise,
/// not a bubble. Matches the engine's completion epsilon.
const GAP_EPS: f64 = 1e-6;

/// One executed span, reduced to what the analytics need: who ran,
/// where, and when. `request` is `None` for auxiliary work (relocation
/// stubs, warmup) that occupies a processor but belongs to no request.
#[derive(Debug, Clone, PartialEq)]
pub struct ExecSpan {
    /// Request index the span belongs to, if any.
    pub request: Option<usize>,
    /// Processor index the span ran on.
    pub processor: usize,
    /// Start time, simulated milliseconds.
    pub start_ms: f64,
    /// End time, simulated milliseconds.
    pub end_ms: f64,
}

impl ExecSpan {
    pub fn duration_ms(&self) -> f64 {
        (self.end_ms - self.start_ms).max(0.0)
    }
}

/// An idle gap between two consecutive spans on one processor — a
/// pipeline bubble in the paper's Def. 3 sense.
#[derive(Debug, Clone, PartialEq)]
pub struct Bubble {
    pub processor: usize,
    pub start_ms: f64,
    pub end_ms: f64,
}

impl Bubble {
    pub fn duration_ms(&self) -> f64 {
        self.end_ms - self.start_ms
    }
}

/// Busy/idle accounting for one processor across the run.
#[derive(Debug, Clone, PartialEq)]
pub struct ProcessorUtilization {
    pub processor: usize,
    /// Milliseconds the processor spent executing spans.
    pub busy_ms: f64,
    /// Number of spans that ran on the processor.
    pub span_count: usize,
    /// `busy_ms / horizon_ms` (0 when the run is empty).
    pub utilization: f64,
}

/// Per-processor utilization and bubble timeline for one run.
#[derive(Debug, Clone, PartialEq)]
pub struct UtilizationTimeline {
    /// Run horizon: the latest span end (the makespan).
    pub horizon_ms: f64,
    pub processors: Vec<ProcessorUtilization>,
    /// Every inter-span idle gap, in (processor, time) order.
    pub bubbles: Vec<Bubble>,
}

impl UtilizationTimeline {
    /// Computes the timeline from executed spans. Gaps below a rounding
    /// epsilon are not counted as bubbles; lead-in before a processor's
    /// first span and lead-out after its last are not bubbles either,
    /// matching the simulator's `Trace::idle_bubble_ms` definition so
    /// the two reconcile exactly.
    pub fn compute(spans: &[ExecSpan], processor_count: usize) -> Self {
        let horizon_ms = spans.iter().map(|s| s.end_ms).fold(0.0, f64::max);
        let mut processors = Vec::with_capacity(processor_count);
        let mut bubbles = Vec::new();
        for p in 0..processor_count {
            let mut mine: Vec<&ExecSpan> = spans.iter().filter(|s| s.processor == p).collect();
            mine.sort_by(|a, b| a.start_ms.total_cmp(&b.start_ms));
            // fold from +0.0: `Sum for f64` starts at -0.0, which would
            // leak a negative zero into reports for idle processors.
            let busy_ms: f64 = mine.iter().fold(0.0, |a, s| a + s.duration_ms());
            for w in mine.windows(2) {
                let gap = w[1].start_ms - w[0].end_ms;
                if gap > GAP_EPS {
                    bubbles.push(Bubble {
                        processor: p,
                        start_ms: w[0].end_ms,
                        end_ms: w[1].start_ms,
                    });
                }
            }
            processors.push(ProcessorUtilization {
                processor: p,
                busy_ms,
                span_count: mine.len(),
                utilization: if horizon_ms > 0.0 {
                    busy_ms / horizon_ms
                } else {
                    0.0
                },
            });
        }
        Self {
            horizon_ms,
            processors,
            bubbles,
        }
    }

    /// Total bubble milliseconds across all processors (reconciles with
    /// `Trace::idle_bubble_ms` up to the rounding epsilon).
    pub fn total_bubble_ms(&self) -> f64 {
        self.bubbles.iter().fold(0.0, |a, b| a + b.duration_ms())
    }

    /// The `n` longest bubbles, longest first; ties break on
    /// (processor, start) so the order is deterministic.
    pub fn top_bubbles(&self, n: usize) -> Vec<&Bubble> {
        let mut sorted: Vec<&Bubble> = self.bubbles.iter().collect();
        sorted.sort_by(|a, b| {
            b.duration_ms()
                .total_cmp(&a.duration_ms())
                .then(a.processor.cmp(&b.processor))
                .then(a.start_ms.total_cmp(&b.start_ms))
        });
        sorted.truncate(n);
        sorted
    }
}

/// Time-weighted concurrency histogram: `levels[k]` is the fraction of
/// the run horizon during which exactly `k` processors were busy.
/// `levels[2..]` summed is the co-execution fraction — the time the SoC
/// actually pays the paper's co-execution slowdown.
#[derive(Debug, Clone, PartialEq)]
pub struct OccupancyProfile {
    pub horizon_ms: f64,
    /// Index k = number of simultaneously busy processors; values sum
    /// to 1 for a non-empty run.
    pub levels: Vec<f64>,
}

impl OccupancyProfile {
    /// Sweeps span start/end edges to integrate time at each
    /// concurrency level.
    pub fn compute(spans: &[ExecSpan], processor_count: usize) -> Self {
        let horizon_ms = spans.iter().map(|s| s.end_ms).fold(0.0, f64::max);
        let mut levels = vec![0.0; processor_count + 1];
        if horizon_ms <= 0.0 {
            return Self { horizon_ms, levels };
        }
        // Edge sweep: +1 at each start, -1 at each end; ends sort before
        // starts at equal times so a back-to-back handoff never counts
        // as concurrency.
        let mut edges: Vec<(f64, i32)> = Vec::with_capacity(spans.len() * 2);
        for s in spans {
            if s.end_ms > s.start_ms {
                edges.push((s.start_ms, 1));
                edges.push((s.end_ms, -1));
            }
        }
        edges.sort_by(|a, b| a.0.total_cmp(&b.0).then(a.1.cmp(&b.1)));
        let mut level: i32 = 0;
        let mut cursor = 0.0;
        for (t, delta) in edges {
            if t > cursor {
                let k = (level.max(0) as usize).min(processor_count);
                levels[k] += (t - cursor) / horizon_ms;
                cursor = t;
            }
            level += delta;
        }
        if cursor < horizon_ms {
            levels[0] += (horizon_ms - cursor) / horizon_ms;
        }
        Self { horizon_ms, levels }
    }

    /// Fraction of the run with two or more processors busy — the time
    /// co-execution slowdown applies.
    pub fn co_execution_fraction(&self) -> f64 {
        self.levels.iter().skip(2).sum()
    }

    /// Fraction of the run with every processor idle.
    pub fn idle_fraction(&self) -> f64 {
        self.levels.first().copied().unwrap_or(0.0)
    }
}

/// Latency distribution summary. Percentiles use the nearest-rank rule:
/// `p` picks the sorted sample at index `round(p / 100 · (len − 1))`.
#[derive(Debug, Clone, PartialEq)]
pub struct LatencyProfile {
    pub count: usize,
    pub mean_ms: f64,
    pub p50_ms: f64,
    pub p95_ms: f64,
    pub p99_ms: f64,
    pub max_ms: f64,
}

impl LatencyProfile {
    /// Summarizes a latency sample; `None` for an empty sample.
    pub fn compute(latencies_ms: &[f64]) -> Option<Self> {
        if latencies_ms.is_empty() {
            return None;
        }
        let mut s = latencies_ms.to_vec();
        s.sort_by(f64::total_cmp);
        let pick = |p: f64| -> f64 {
            let rank = ((p / 100.0) * (s.len() as f64 - 1.0)).round() as usize;
            s[rank.min(s.len() - 1)]
        };
        Some(Self {
            count: s.len(),
            mean_ms: s.iter().sum::<f64>() / s.len() as f64,
            p50_ms: pick(50.0),
            p95_ms: pick(95.0),
            p99_ms: pick(99.0),
            max_ms: *s.last().unwrap_or(&0.0),
        })
    }
}

/// One request's deadline outcome, as fed into [`SloSummary::compute`].
#[derive(Debug, Clone, PartialEq)]
pub struct SloEntry {
    pub class: QosClass,
    /// End-to-end latency; `None` if the request never completed
    /// (degraded requests always count as misses when they carry a
    /// deadline).
    pub latency_ms: Option<f64>,
    /// Deadline, if the request has one.
    pub deadline_ms: Option<f64>,
}

/// Deadline-miss and SLO burn-rate accounting for one QoS class.
#[derive(Debug, Clone, PartialEq)]
pub struct SloSummary {
    pub class: QosClass,
    /// Requests in the class.
    pub total: usize,
    /// Requests carrying a deadline.
    pub with_deadline: usize,
    /// Deadline misses (late completions plus degraded requests).
    pub misses: usize,
    /// `misses / with_deadline` (0 when no deadlines).
    pub miss_rate: f64,
    /// Miss rate divided by the error budget: > 1 means the class is
    /// burning budget faster than the SLO allows.
    pub burn_rate: f64,
}

impl SloSummary {
    /// Default error budget: a 99% on-deadline objective.
    pub const DEFAULT_BUDGET: f64 = 0.01;

    /// Aggregates entries per QoS class, in [`QosClass::ALL`] order.
    /// `budget` is the allowed miss fraction (e.g. 0.01 for a 99%
    /// objective); non-positive budgets are clamped to the default.
    pub fn compute(entries: &[SloEntry], budget: f64) -> Vec<SloSummary> {
        let budget = if budget > 0.0 {
            budget
        } else {
            Self::DEFAULT_BUDGET
        };
        QosClass::ALL
            .iter()
            .map(|&class| {
                let mine: Vec<&SloEntry> = entries.iter().filter(|e| e.class == class).collect();
                let with_deadline = mine.iter().filter(|e| e.deadline_ms.is_some()).count();
                let misses = mine
                    .iter()
                    .filter(|e| {
                        e.deadline_ms
                            .is_some_and(|d| e.latency_ms.is_none_or(|l| l > d + GAP_EPS))
                    })
                    .count();
                let miss_rate = if with_deadline > 0 {
                    misses as f64 / with_deadline as f64
                } else {
                    0.0
                };
                SloSummary {
                    class,
                    total: mine.len(),
                    with_deadline,
                    misses,
                    miss_rate,
                    burn_rate: miss_rate / budget,
                }
            })
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(request: Option<usize>, processor: usize, start: f64, end: f64) -> ExecSpan {
        ExecSpan {
            request,
            processor,
            start_ms: start,
            end_ms: end,
        }
    }

    #[test]
    fn utilization_and_bubbles_reconcile() {
        // Proc 0: [0,2] [3,5] → one 1 ms bubble; proc 1: [1,4] → none;
        // proc 2 idle the whole run.
        let spans = vec![
            span(Some(0), 0, 0.0, 2.0),
            span(Some(1), 0, 3.0, 5.0),
            span(Some(0), 1, 1.0, 4.0),
        ];
        let tl = UtilizationTimeline::compute(&spans, 3);
        assert_eq!(tl.horizon_ms, 5.0);
        assert_eq!(tl.processors[0].busy_ms, 4.0);
        assert_eq!(tl.processors[0].span_count, 2);
        assert!((tl.processors[0].utilization - 0.8).abs() < 1e-12);
        assert_eq!(tl.processors[1].busy_ms, 3.0);
        assert_eq!(tl.processors[2].busy_ms, 0.0);
        assert_eq!(tl.processors[2].utilization, 0.0);
        assert_eq!(
            tl.bubbles,
            vec![Bubble {
                processor: 0,
                start_ms: 2.0,
                end_ms: 3.0
            }]
        );
        assert!((tl.total_bubble_ms() - 1.0).abs() < 1e-12);
        let top = tl.top_bubbles(5);
        assert_eq!(top.len(), 1);
        assert_eq!(top[0].processor, 0);
    }

    #[test]
    fn top_bubbles_order_is_deterministic() {
        let spans = vec![
            span(None, 0, 0.0, 1.0),
            span(None, 0, 3.0, 4.0), // 2 ms bubble on proc 0
            span(None, 1, 0.0, 1.0),
            span(None, 1, 3.0, 4.0), // 2 ms bubble on proc 1 (tie)
            span(None, 2, 0.0, 1.0),
            span(None, 2, 1.5, 2.0), // 0.5 ms bubble on proc 2
        ];
        let tl = UtilizationTimeline::compute(&spans, 3);
        let top: Vec<(usize, f64)> = tl
            .top_bubbles(2)
            .iter()
            .map(|b| (b.processor, b.duration_ms()))
            .collect();
        assert_eq!(top, vec![(0, 2.0), (1, 2.0)]);
    }

    #[test]
    fn occupancy_levels_sum_to_one() {
        // [0,2] on p0 and [1,4] on p1: level 1 for [0,1]∪[2,4] = 3 ms,
        // level 2 for [1,2] = 1 ms, idle [4,4] = 0 → horizon 4 ms.
        let spans = vec![span(None, 0, 0.0, 2.0), span(None, 1, 1.0, 4.0)];
        let occ = OccupancyProfile::compute(&spans, 2);
        assert_eq!(occ.horizon_ms, 4.0);
        assert!((occ.levels.iter().sum::<f64>() - 1.0).abs() < 1e-12);
        assert!((occ.levels[1] - 0.75).abs() < 1e-12);
        assert!((occ.levels[2] - 0.25).abs() < 1e-12);
        assert!((occ.co_execution_fraction() - 0.25).abs() < 1e-12);
        assert_eq!(occ.idle_fraction(), 0.0);
    }

    #[test]
    fn occupancy_handoff_is_not_concurrency() {
        // Back-to-back on the same processor: end sorts before start at
        // t=2, so the level never reaches 2.
        let spans = vec![span(None, 0, 0.0, 2.0), span(None, 0, 2.0, 4.0)];
        let occ = OccupancyProfile::compute(&spans, 1);
        assert!((occ.levels[1] - 1.0).abs() < 1e-12);
        assert_eq!(occ.co_execution_fraction(), 0.0);
        // Empty run: all-zero levels, no NaN.
        let empty = OccupancyProfile::compute(&[], 2);
        assert_eq!(empty.horizon_ms, 0.0);
        assert!(empty.levels.iter().all(|&l| l == 0.0));
    }

    #[test]
    fn latency_profile_percentiles() {
        let xs: Vec<f64> = (1..=100).map(f64::from).collect();
        let p = LatencyProfile::compute(&xs).unwrap();
        assert_eq!(p.count, 100);
        assert_eq!(p.p50_ms, 51.0); // nearest-rank on n-1 grid
        assert_eq!(p.p95_ms, 95.0);
        assert_eq!(p.p99_ms, 99.0);
        assert_eq!(p.max_ms, 100.0);
        assert!((p.mean_ms - 50.5).abs() < 1e-12);
        assert_eq!(LatencyProfile::compute(&[]), None);
        let single = LatencyProfile::compute(&[7.0]).unwrap();
        assert_eq!(single.p99_ms, 7.0);
    }

    #[test]
    fn slo_accounting_counts_misses_and_burn() {
        let entries = vec![
            SloEntry {
                class: QosClass::Interactive,
                latency_ms: Some(5.0),
                deadline_ms: Some(10.0),
            },
            SloEntry {
                class: QosClass::Interactive,
                latency_ms: Some(12.0),
                deadline_ms: Some(10.0),
            },
            // Degraded request with a deadline: always a miss.
            SloEntry {
                class: QosClass::Interactive,
                latency_ms: None,
                deadline_ms: Some(10.0),
            },
            // No deadline: never a miss.
            SloEntry {
                class: QosClass::Batch,
                latency_ms: Some(500.0),
                deadline_ms: None,
            },
        ];
        let sums = SloSummary::compute(&entries, 0.01);
        assert_eq!(sums.len(), QosClass::ALL.len());
        let inter = &sums[0];
        assert_eq!(inter.class, QosClass::Interactive);
        assert_eq!((inter.total, inter.with_deadline, inter.misses), (3, 3, 2));
        assert!((inter.miss_rate - 2.0 / 3.0).abs() < 1e-12);
        assert!((inter.burn_rate - inter.miss_rate / 0.01).abs() < 1e-9);
        let batch = &sums[2];
        assert_eq!((batch.total, batch.misses), (1, 0));
        assert_eq!(batch.miss_rate, 0.0);
        // Exactly-on-deadline is not a miss.
        let on_time = SloSummary::compute(
            &[SloEntry {
                class: QosClass::Standard,
                latency_ms: Some(10.0),
                deadline_ms: Some(10.0),
            }],
            0.0, // clamped to the default budget
        );
        assert_eq!(on_time[1].misses, 0);
        assert!((on_time[1].burn_rate - 0.0).abs() < 1e-12);
    }
}
