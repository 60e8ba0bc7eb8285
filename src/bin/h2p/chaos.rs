//! `h2p chaos`: seeded random fault scenarios through the recovery
//! runner.

use h2p_models::zoo::ModelId;
use h2p_simulator::eventlog::json_escape;
use h2p_simulator::{EngineEvent, FaultSpec, SocSpec};
use hetero2pipe::planner::Planner;
use hetero2pipe::recovery::{
    chaos_faults, run_with_recovery, RecoveryOutcome, RecoveryPolicy, RecoveryReport,
};
use hetero2pipe::workload::random_models;
use hetero2pipe::PlanError;

use crate::flags::{fail, positive, Arity::*, Flags};
use crate::graphs;

/// The workload and faults of chaos scenario `seed`: what `h2p chaos`
/// runs for that seed and `h2p report --chaos-seed` reports on.
pub fn scenario(soc: &SocSpec, seed: u64) -> (Vec<ModelId>, Vec<FaultSpec>) {
    let len = 2 + (seed % 3) as usize;
    let models = random_models(seed.wrapping_mul(0x9E37).wrapping_add(17), len);
    let faults = chaos_faults(soc, models.len(), seed);
    (models, faults)
}

/// Checks one chaos scenario's report against the sweep's invariants;
/// returns a violation description, or `None` if the scenario is
/// acceptable (recovered audit-clean, or degraded with a typed reason).
fn chaos_violation(
    report: &RecoveryReport,
    policy: &RecoveryPolicy,
    n_req: usize,
) -> Option<String> {
    if !report.all_rounds_audit_clean() {
        return Some("a recovery round failed its faulted audit".to_owned());
    }
    if let RecoveryOutcome::Degraded(e) = &report.outcome {
        let typed = matches!(
            e,
            PlanError::RetriesExhausted { .. }
                | PlanError::DeadlineExceeded { .. }
                | PlanError::NoSurvivingProcessors
        );
        if !typed {
            return Some(format!("untyped degraded outcome: {e}"));
        }
    }
    if report.retries > policy.max_retries * n_req {
        return Some(format!(
            "retry budget breached: {} retries granted for {} request(s)",
            report.retries, n_req
        ));
    }
    // No task may ever start on a processor that dropped out — within a
    // round or in any later round.
    let mut down: Vec<bool> = Vec::new();
    for round in &report.rounds {
        for e in &round.events {
            match e {
                EngineEvent::ProcessorDown { processor, .. } => {
                    let p = processor.index();
                    if down.len() <= p {
                        down.resize(p + 1, false);
                    }
                    down[p] = true;
                }
                EngineEvent::Start {
                    processor, task, ..
                } if down.get(processor.index()).copied().unwrap_or(false) => {
                    return Some(format!(
                        "task {task} started on down processor {}",
                        processor.index()
                    ));
                }
                _ => {}
            }
        }
    }
    None
}

/// `h2p chaos --seeds N`: run N seeded random fault scenarios through
/// the recovery runner and assert every one ends recovered audit-clean
/// or in a typed degraded outcome — never a panic, an audit violation,
/// an unbounded retry storm, or a task on a down processor.
pub fn main(args: &[String]) {
    let flags = Flags::new(
        "chaos",
        args,
        &[("--soc", Value), ("--seeds", Value), ("--json", Switch)],
    );
    flags.operands_at_most(0);
    let soc = flags.soc();
    let json = flags.has("--json");
    let Some(seeds) = flags.read("--seeds", "a positive integer", positive) else {
        fail("chaos needs --seeds N")
    };
    let planner = Planner::new(&soc).expect("planner");
    let policy = RecoveryPolicy::default();
    let mut failures = 0usize;
    for seed in 0..seeds {
        let (models, faults) = scenario(&soc, seed);
        let reqs = graphs(&models);
        let verdict = run_with_recovery(&planner, &reqs, &faults, &policy)
            .map_err(|e| format!("hard planning error: {e}"))
            .and_then(
                |report| match chaos_violation(&report, &policy, reqs.len()) {
                    Some(why) => Err(why),
                    None => Ok(report),
                },
            );
        let report = match verdict {
            Ok(report) => report,
            Err(why) => {
                failures += 1;
                if json {
                    println!(
                        "{{\"seed\":{seed},\"ok\":false,\"why\":\"{}\"}}",
                        json_escape(&why)
                    );
                } else {
                    println!("seed {seed:>3}: FAIL — {why}");
                }
                continue;
            }
        };
        let outcome = match &report.outcome {
            RecoveryOutcome::Recovered => "recovered".to_owned(),
            RecoveryOutcome::Degraded(e) => format!("degraded ({e})"),
        };
        if json {
            println!(
                "{{\"seed\":{seed},\"ok\":true,\"requests\":{},\"faults\":{},\"rounds\":{},\
                 \"replans\":{},\"retries\":{},\"outcome\":\"{}\"}}",
                reqs.len(),
                faults.len(),
                report.rounds.len(),
                report.replans,
                report.retries,
                json_escape(&outcome),
            );
        } else {
            println!(
                "seed {seed:>3}: {} request(s), {} fault(s), {} round(s), \
                 {} replan(s), {} retry(ies) — {outcome}",
                reqs.len(),
                faults.len(),
                report.rounds.len(),
                report.replans,
                report.retries,
            );
        }
    }
    if json {
        println!(
            "{{\"summary\":true,\"soc\":\"{}\",\"seeds\":{seeds},\"failures\":{failures}}}",
            json_escape(&soc.name)
        );
    } else {
        println!(
            "chaos sweep on {}: {}/{} scenario(s) ok",
            soc.name,
            seeds - failures as u64,
            seeds
        );
    }
    if failures > 0 {
        std::process::exit(1);
    }
}
