//! The benchmark measures what it claims: a change made to the program
//! from outside, through its public API, moves the named metrics beyond
//! their bounds, and the traced replay detects a run it does not match.
//!
//! Run with `cargo test --release --manifest-path h2pbench/Cargo.toml`.

use h2pbench::serve::new_server;
use h2pbench::{batch, replay, soc, stream_seed, Outcome, Workload, DEFAULT_SEED};
use hetero2pipe::planner::PlannerConfig;

/// The regression bound `BENCHMARK.json` fixes for an end-to-end metric.
fn bound(metric: &str) -> f64 {
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
    let text = std::fs::read_to_string(path).expect("BENCHMARK.json is readable");
    let entry = text
        .lines()
        .find(|l| l.contains(&format!("\"name\": \"{metric}\"")) && l.contains("\"bound\""))
        .unwrap_or_else(|| panic!("{metric} has no bound in BENCHMARK.json"));
    let value = entry
        .split("\"bound\":")
        .nth(1)
        .and_then(|rest| rest.trim().trim_end_matches(['}', ',']).trim().parse().ok());
    value.unwrap_or_else(|| panic!("cannot parse the bound of {metric}"))
}

fn metric(out: &Outcome, name: &str) -> f64 {
    out.metric(name)
        .unwrap_or_else(|| panic!("{name} missing from {:?}", out.metrics))
}

/// The paper's No-C/T ablation (contention mitigation and tail search
/// off) plans worse pipelines, faster: plan-batch's simulated throughput
/// and its planning time must both fall by more than their bounds.
#[test]
fn no_ct_moves_plan_batch_beyond_bounds() {
    let h2p = batch::run(DEFAULT_SEED, 0.0, PlannerConfig::default()).expect("plan-batch runs");
    let no_ct = batch::run(DEFAULT_SEED, 0.0, PlannerConfig::no_ct()).expect("plan-batch runs");
    assert!(h2p.is_correct(), "{:?}", h2p.errors);
    assert!(no_ct.is_correct(), "{:?}", no_ct.errors);
    let change = |name: &str| metric(&no_ct, name) / metric(&h2p, name) - 1.0;
    for name in [
        "sim_rps",
        "plan_ms_p50",
        "lat_p50_ms",
        "lat_p99_ms",
        "goodput_rps",
    ] {
        eprintln!(
            "No-C/T {name}: {:+.3} (bound {})",
            change(name),
            bound(name)
        );
    }
    assert!(
        change("sim_rps") < -bound("sim_rps"),
        "sim_rps moved {:+.3}",
        change("sim_rps")
    );
    assert!(
        change("plan_ms_p50") < -bound("plan_ms_p50"),
        "plan_ms_p50 moved {:+.3}",
        change("plan_ms_p50")
    );
}

/// Every serve workload's replay reconciles with its own run, and fails
/// to when pointed at another seed.
#[test]
fn replay_reconciles_only_with_its_own_seed() {
    for workload in [
        Workload::ServeLight,
        Workload::ServeOverload,
        Workload::ServeChaos,
    ] {
        let spec = workload.serve_spec().expect("a serve workload");
        let seed = stream_seed(DEFAULT_SEED, 0);
        let (server, _) = new_server(&soc()).expect("server builds");
        let report = server.run(&spec.config(seed)).expect("stream runs");
        let own = replay::replay_serve(&spec, seed, &report, true).expect("replay runs");
        assert!(
            own.reconciles() && own.check_failures.is_empty(),
            "{}: {} of {} matched: {:?} {:?}",
            workload.name(),
            own.reconciled,
            own.served,
            own.mismatches,
            own.check_failures
        );
        let other = replay::replay_serve(&spec, seed + 1, &report, false).expect("replay runs");
        assert!(
            !other.reconciles(),
            "{}: a replay of seed {} reconciled with the run of seed {seed}",
            workload.name(),
            seed + 1
        );
    }
}
