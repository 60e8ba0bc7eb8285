//! Execution traces: per-task spans, utilization, slowdown and bubble
//! accounting over a completed simulation.

use serde::{Deserialize, Serialize};

use crate::label::TaskLabel;
use crate::memory::MemorySample;
use crate::processor::ProcessorId;

/// One executed task's record in the trace.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Span {
    /// Id of the task (index of submission).
    pub task: usize,
    /// Label supplied at submission, e.g. `BERT#0@s2` for a lowered
    /// stage ([`TaskLabel`]).
    pub label: TaskLabel,
    /// Processor the task ran on.
    pub processor: ProcessorId,
    /// Wall-clock start in milliseconds.
    pub start_ms: f64,
    /// Wall-clock end in milliseconds.
    pub end_ms: f64,
    /// The task's solo execution time (what it would have taken with no
    /// interference, throttling or paging).
    pub solo_ms: f64,
}

impl Span {
    /// Observed duration of the span in milliseconds.
    pub fn duration_ms(&self) -> f64 {
        self.end_ms - self.start_ms
    }

    /// Co-execution slowdown of this span relative to solo execution,
    /// e.g. `0.21` for a 21% slowdown. Non-negative up to rounding.
    pub fn slowdown(&self) -> f64 {
        if self.solo_ms <= 0.0 {
            0.0
        } else {
            self.duration_ms() / self.solo_ms - 1.0
        }
    }
}

/// The result of a completed simulation run.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Trace {
    /// Per-task spans in task-id order.
    pub spans: Vec<Span>,
    /// Memory subsystem samples (Fig. 9 trace).
    pub memory: Vec<MemorySample>,
    /// Number of processors on the simulated SoC.
    pub processor_count: usize,
}

impl Trace {
    /// Total makespan: the latest task end time (0 for an empty run).
    pub fn makespan_ms(&self) -> f64 {
        self.spans.iter().map(|s| s.end_ms).fold(0.0, f64::max)
    }

    /// Span of the task with the given id, if it ran. A complete trace
    /// holds its spans in task-id order, so this is an index; a trace
    /// assembled otherwise falls back to a scan.
    pub fn span(&self, task: usize) -> Option<&Span> {
        match self.spans.get(task) {
            Some(s) if s.task == task => Some(s),
            _ => self.spans.iter().find(|s| s.task == task),
        }
    }

    /// Busy milliseconds accumulated on `proc`.
    pub fn busy_ms(&self, proc: ProcessorId) -> f64 {
        self.spans
            .iter()
            .filter(|s| s.processor == proc)
            .map(Span::duration_ms)
            .sum()
    }

    /// Utilization of `proc` over the makespan, in `[0, 1]`.
    pub fn utilization(&self, proc: ProcessorId) -> f64 {
        let m = self.makespan_ms();
        if m <= 0.0 {
            0.0
        } else {
            self.busy_ms(proc) / m
        }
    }

    /// Total idle ("bubble") time summed over processors between the first
    /// and last event on each processor. This is the trace-level analogue
    /// of the paper's pipeline-bubble definition (Def. 3): time a
    /// processor sits idle waiting for a dependent stage while it still
    /// has work ahead of it.
    pub fn idle_bubble_ms(&self) -> f64 {
        idle_bubble_ms(self.spans.iter(), self.processor_count)
    }

    /// Throughput in completed tasks per second: every span counts, so
    /// a model split into several stages counts once per stage. Callers
    /// that want model-level throughput count completed requests
    /// themselves.
    pub fn throughput_per_sec(&self) -> f64 {
        let m = self.makespan_ms();
        if m <= 0.0 {
            0.0
        } else {
            self.spans.len() as f64 * 1000.0 / m
        }
    }

    /// Renders the trace as an ASCII Gantt chart, one row per processor,
    /// `width` characters across the makespan. Busy cells show the last
    /// character of the running task's label; dots are idle time.
    ///
    /// `names` supplies one display name per processor row (pass the
    /// SoC's processor names); rows without spans are still printed.
    pub fn render_gantt(&self, names: &[&str], width: usize) -> String {
        let width = width.max(10);
        let makespan = self.makespan_ms();
        let mut out = String::new();
        if makespan <= 0.0 {
            out.push_str("(empty trace)\n");
            return out;
        }
        let label_w = names.iter().map(|n| n.len()).max().unwrap_or(4).max(4);
        for p in 0..self.processor_count {
            let name = names.get(p).copied().unwrap_or("?");
            let mut row = vec!['.'; width];
            for s in self.spans.iter().filter(|s| s.processor == ProcessorId(p)) {
                let a = ((s.start_ms / makespan) * width as f64).floor() as usize;
                let b = ((s.end_ms / makespan) * width as f64).ceil() as usize;
                let ch = s
                    .label
                    .first_char()
                    .filter(|c| c.is_ascii_graphic())
                    .unwrap_or('#');
                for cell in row.iter_mut().take(b.min(width)).skip(a.min(width)) {
                    *cell = ch;
                }
            }
            out.push_str(&format!("{name:>label_w$} |"));
            out.extend(row);
            out.push_str("|\n");
        }
        out.push_str(&format!(
            "{:>label_w$}  0 ms {:>w$.0} ms\n",
            "",
            makespan,
            w = width.saturating_sub(5)
        ));
        out
    }
}

/// [`Trace::idle_bubble_ms`] over any spans, in the order given: the
/// faulted audit reads a run's completed spans where they lie.
pub(crate) fn idle_bubble_ms<'a>(
    spans: impl Iterator<Item = &'a Span>,
    processor_count: usize,
) -> f64 {
    // One buffer for every processor: spans ordered by processor, then
    // by start (a stable sort, so equal starts keep the given order and
    // the gaps sum in the same order as a per-processor pass).
    let mut order: Vec<&Span> = Vec::with_capacity(spans.size_hint().1.unwrap_or(0));
    order.extend(spans.filter(|s| s.processor.index() < processor_count));
    order.sort_by(|a, b| {
        a.processor
            .cmp(&b.processor)
            .then(a.start_ms.total_cmp(&b.start_ms))
    });
    let mut total = 0.0;
    for w in order.windows(2) {
        if w[0].processor == w[1].processor {
            total += (w[1].start_ms - w[0].end_ms).max(0.0);
        }
    }
    total
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(task: usize, proc: usize, start: f64, end: f64, solo: f64) -> Span {
        Span {
            task,
            label: format!("t{task}").into(),
            processor: ProcessorId(proc),
            start_ms: start,
            end_ms: end,
            solo_ms: solo,
        }
    }

    fn trace(spans: Vec<Span>, procs: usize) -> Trace {
        Trace {
            spans,
            memory: Vec::new(),
            processor_count: procs,
        }
    }

    #[test]
    fn makespan_is_latest_end() {
        let t = trace(
            vec![span(0, 0, 0.0, 5.0, 5.0), span(1, 1, 2.0, 9.0, 7.0)],
            2,
        );
        assert_eq!(t.makespan_ms(), 9.0);
    }

    #[test]
    fn slowdown_measures_stretch() {
        let s = span(0, 0, 0.0, 12.0, 10.0);
        assert!((s.slowdown() - 0.2).abs() < 1e-12);
    }

    #[test]
    fn utilization_and_bubbles() {
        // proc 0 busy [0,4] and [6,10]: bubble of 2ms, utilization 0.8.
        let t = trace(
            vec![span(0, 0, 0.0, 4.0, 4.0), span(1, 0, 6.0, 10.0, 4.0)],
            1,
        );
        assert!((t.idle_bubble_ms() - 2.0).abs() < 1e-12);
        assert!((t.utilization(ProcessorId(0)) - 0.8).abs() < 1e-12);
    }

    #[test]
    fn empty_trace_is_well_behaved() {
        let t = trace(vec![], 2);
        assert_eq!(t.makespan_ms(), 0.0);
        assert_eq!(t.idle_bubble_ms(), 0.0);
        assert_eq!(t.throughput_per_sec(), 0.0);
        assert!(t.render_gantt(&["A", "B"], 40).contains("empty"));
    }

    #[test]
    fn gantt_marks_busy_and_idle_cells() {
        // proc 0 busy first half, proc 1 busy second half.
        let t = trace(
            vec![span(0, 0, 0.0, 5.0, 5.0), span(1, 1, 5.0, 10.0, 5.0)],
            2,
        );
        let g = t.render_gantt(&["P0", "P1"], 20);
        let lines: Vec<&str> = g.lines().collect();
        assert!(lines[0].starts_with("  P0 |"));
        assert!(lines[0].contains('t'), "busy cells use the label char");
        assert!(lines[0].contains('.'), "idle cells are dots");
        assert!(lines[1].starts_with("  P1 |"));
        // P0's busy cells are in the first half of the row.
        let row0: Vec<char> = lines[0].chars().skip(6).take(20).collect();
        assert_eq!(row0[0], 't');
        assert_eq!(row0[19], '.');
    }
}
