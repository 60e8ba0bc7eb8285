#![allow(clippy::unwrap_used, clippy::expect_used, reason = "tests may panic")]

//! Property-based invariants of the discrete-event engine: physical
//! sanity (no task finishes faster than its solo time; one task per
//! processor at a time), conservation (ledger drains; every task runs
//! exactly once), and monotonicity (removing interference never slows
//! anything down).

use proptest::prelude::*;

use h2p_simulator::engine::{Simulation, TaskSpec};
use h2p_simulator::faults::FaultInjector;
use h2p_simulator::interference::CouplingMatrix;
use h2p_simulator::thermal::ThermalMode;
use h2p_simulator::{ProcessorId, SocSpec};

/// Deterministically derives a task set from a compact spec vector.
fn build<'soc>(soc: &'soc SocSpec, specs: &[(usize, u64, u64, bool)]) -> Simulation<'soc> {
    let mut sim = Simulation::new(soc);
    let mut prev = None;
    for (i, &(proc, tenth_ms, intensity_pct, chain)) in specs.iter().enumerate() {
        let mut t = TaskSpec::new(
            format!("t{i}"),
            ProcessorId(proc % soc.processors.len()),
            tenth_ms as f64 / 10.0,
        )
        .intensity((intensity_pct % 150) as f64 / 100.0);
        if chain {
            if let Some(p) = prev {
                t = t.after(p);
            }
        }
        prev = Some(sim.add_task(t));
    }
    sim
}

fn quiet_kirin() -> SocSpec {
    let mut soc = SocSpec::kirin_990();
    soc.thermal_mode = ThermalMode::Disabled;
    soc
}

/// Pinned regression from `engine_properties.proptest-regressions`: a
/// seven-task mix with one long NPU chain and an unchained GPU task that
/// once tripped the interference-removal bound. The shrunken spec vector
/// is re-run explicitly against every engine invariant the properties
/// below check, independent of the generator.
#[test]
fn engine_regression_pinned_seven_task_mix() {
    let specs: Vec<(usize, u64, u64, bool)> = vec![
        (2, 274, 43, false),
        (1, 1, 10, true),
        (0, 4, 10, true),
        (0, 19, 10, false),
        (3, 101, 10, true),
        (3, 152, 10, true),
        (1, 4, 10, true),
    ];
    let contended = quiet_kirin();
    let trace = build(&contended, &specs).run().expect("acyclic");
    assert_eq!(trace.spans.len(), specs.len(), "every task runs once");
    for s in &trace.spans {
        assert!(s.duration_ms() >= s.solo_ms - 1e-9);
    }
    // One task per processor at a time.
    for p in 0..contended.processors.len() {
        let mut spans: Vec<_> = trace
            .spans
            .iter()
            .filter(|s| s.processor == ProcessorId(p))
            .collect();
        spans.sort_by(|a, b| a.start_ms.total_cmp(&b.start_ms));
        for w in spans.windows(2) {
            assert!(w[1].start_ms >= w[0].end_ms - 1e-9);
        }
    }
    // Chain edges are honored.
    for (i, &(_, _, _, chain)) in specs.iter().enumerate() {
        if chain && i > 0 {
            let before = trace.span(i - 1).expect("ran");
            let after = trace.span(i).expect("ran");
            assert!(after.start_ms >= before.end_ms - 1e-9);
        }
    }
    // Removing interference stays within the Graham list-scheduling
    // bound and no quiet task exceeds its solo time.
    let mut quiet = contended.clone();
    quiet.coupling = CouplingMatrix::none();
    let without = build(&quiet, &specs).run().expect("runs");
    assert!(without.makespan_ms() <= trace.makespan_ms() * 2.0 + 1e-6);
    for s in &without.spans {
        assert!(s.duration_ms() <= s.solo_ms + 1e-6);
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(96))]

    #[test]
    fn no_task_beats_its_solo_time(
        specs in prop::collection::vec((0usize..4, 1u64..400, 0u64..150, prop::bool::ANY), 1..16),
    ) {
        let soc = quiet_kirin();
        let trace = build(&soc, &specs).run().expect("acyclic");
        prop_assert_eq!(trace.spans.len(), specs.len(), "every task runs once");
        for s in &trace.spans {
            prop_assert!(
                s.duration_ms() >= s.solo_ms - 1e-9,
                "{} finished in {} < solo {}",
                s.label,
                s.duration_ms(),
                s.solo_ms
            );
            prop_assert!(s.slowdown() >= -1e-9);
        }
    }

    #[test]
    fn processors_run_one_task_at_a_time(
        specs in prop::collection::vec((0usize..4, 1u64..300, 0u64..150, prop::bool::ANY), 1..16),
    ) {
        let soc = quiet_kirin();
        let trace = build(&soc, &specs).run().expect("acyclic");
        for p in 0..soc.processors.len() {
            let mut spans: Vec<_> = trace
                .spans
                .iter()
                .filter(|s| s.processor == ProcessorId(p))
                .collect();
            spans.sort_by(|a, b| a.start_ms.total_cmp(&b.start_ms));
            for w in spans.windows(2) {
                prop_assert!(
                    w[1].start_ms >= w[0].end_ms - 1e-9,
                    "overlap on processor {p}: {:?} then {:?}",
                    (w[0].start_ms, w[0].end_ms),
                    (w[1].start_ms, w[1].end_ms)
                );
            }
        }
    }

    #[test]
    fn removing_interference_rarely_hurts(
        specs in prop::collection::vec((0usize..4, 1u64..300, 10u64..150, prop::bool::ANY), 2..14),
    ) {
        let contended = quiet_kirin();
        let mut quiet = contended.clone();
        quiet.coupling = CouplingMatrix::none();
        let with = build(&contended, &specs).run().expect("runs");
        let without = build(&quiet, &specs).run().expect("runs");
        // Removing interference speeds every *task* up, but
        // non-preemptive FIFO list scheduling is subject to Graham
        // anomalies: a task finishing earlier can reorder ready queues
        // and lengthen the makespan (verified by construction in the
        // engine tests). The provable bound for list scheduling is a
        // factor of 2.
        prop_assert!(
            without.makespan_ms() <= with.makespan_ms() * 2.0 + 1e-6,
            "quiet {} beyond the Graham bound of contended {}",
            without.makespan_ms(),
            with.makespan_ms()
        );
        // Total busy time (work actually executed) strictly benefits:
        // without interference no task takes longer than its solo time.
        for s in &without.spans {
            prop_assert!(s.duration_ms() <= s.solo_ms + 1e-6);
        }
    }

    #[test]
    fn dependencies_are_respected(
        specs in prop::collection::vec((0usize..4, 1u64..300, 0u64..150, prop::bool::ANY), 2..16),
    ) {
        let soc = quiet_kirin();
        let trace = build(&soc, &specs).run().expect("acyclic");
        // Chained tasks (chain=true) must start after the previous task in
        // the chain ends.
        let mut prev: Option<usize> = None;
        for (i, &(_, _, _, chain)) in specs.iter().enumerate() {
            if chain {
                if let Some(p) = prev {
                    let before = trace.span(p).expect("ran");
                    let after = trace.span(i).expect("ran");
                    prop_assert!(after.start_ms >= before.end_ms - 1e-9);
                }
            }
            prev = Some(i);
        }
    }

    #[test]
    fn engine_traces_always_audit_clean(
        specs in prop::collection::vec((0usize..4, 1u64..300, 0u64..150, prop::bool::ANY), 1..16),
        steady_state in prop::bool::ANY,
    ) {
        // The audit layer re-derives every engine contract independently;
        // a trace the engine produced must never trip it, with or
        // without thermal throttling.
        let mut soc = SocSpec::kirin_990();
        if !steady_state {
            soc.thermal_mode = ThermalMode::Disabled;
        }
        let sim = build(&soc, &specs);
        let tasks = sim.tasks().to_vec();
        let trace = sim.run().expect("acyclic");
        let report = h2p_simulator::audit::audit(&soc, &tasks, &trace);
        prop_assert!(report.is_clean(), "audit violations:\n{report}");
    }

    #[test]
    fn throttled_traces_pass_every_audit_family_and_replay(
        specs in prop::collection::vec((0usize..4, 1u64..300, 0u64..150, prop::bool::ANY), 1..14),
        throttles in prop::collection::vec(
            (0usize..4, 0u64..2000, 1u64..3000, 10u64..100),
            1..4,
        ),
    ) {
        // Injected thermal throttles slow work down but never destroy
        // it: the run still completes every task, and the faulted audit
        // — all eight contract families (shape, exclusivity, releases,
        // dependencies, FIFO, the too-fast floor, bubble accounting,
        // memory ledger) plus the exact event-log replay — stays clean.
        let soc = quiet_kirin();
        let sim = build(&soc, &specs);
        let tasks = sim.tasks().to_vec();
        let mut inj = FaultInjector::new(soc.processors.len());
        for &(p, from_tenth, len_tenth, pct) in &throttles {
            let from = from_tenth as f64 / 10.0;
            inj = inj.throttle(
                ProcessorId(p % soc.processors.len()),
                from,
                from + len_tenth as f64 / 10.0,
                pct as f64 / 100.0,
            );
        }
        let (outcome, events) = sim.run_faulted(&inj).expect("acyclic");
        prop_assert!(
            outcome.is_complete(),
            "throttling costs time, never work: {} of {} completed",
            outcome.completed_count(),
            tasks.len()
        );
        let report = h2p_simulator::audit::audit_faulted(&soc, &tasks, &events, &outcome);
        prop_assert!(report.is_clean(), "audit violations:\n{report:?}");
        // The replay reconciliation independently reconstructs every
        // span from the logged piecewise rates.
        let spans = h2p_simulator::audit::replay(tasks.len(), &events).expect("replayable log");
        for (i, replayed) in spans.iter().enumerate() {
            let r = replayed.as_ref().expect("every task replays a finish");
            let actual = outcome.spans[i].as_ref().expect("completed");
            prop_assert!((r.start_ms - actual.start_ms).abs() < 1e-6);
            prop_assert!((r.end_ms - actual.end_ms).abs() < 1e-6);
            prop_assert!((r.integrated_ms - tasks[i].solo_ms).abs() < 1e-6);
        }
    }

    #[test]
    fn memory_trace_is_consistent(
        specs in prop::collection::vec(
            (0usize..4, 1u64..200, 0u64..150, prop::bool::ANY),
            1..12,
        ),
        footprint in 1u64..500_000_000u64,
    ) {
        let soc = quiet_kirin();
        let mut sim = Simulation::new(&soc);
        for (i, &(proc, tenth_ms, _, _)) in specs.iter().enumerate() {
            sim.add_task(
                TaskSpec::new(format!("t{i}"), ProcessorId(proc % 4), tenth_ms as f64 / 10.0)
                    .footprint(footprint / (i as u64 + 1)),
            );
        }
        let trace = sim.run().expect("runs");
        // Allocation never exceeds the sum of all footprints; final
        // sample has everything released.
        let total: u64 = (0..specs.len()).map(|i| footprint / (i as u64 + 1)).sum();
        for s in &trace.memory {
            prop_assert!(s.allocated_bytes <= total);
        }
        prop_assert_eq!(trace.memory.last().expect("samples").allocated_bytes, 0);
    }
}
