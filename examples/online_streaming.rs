//! Streaming deployment: requests arrive as a Poisson process and the
//! planner runs once per arrival window (the paper's note that "the
//! planner should be scheduled more frequently" as load grows).
//!
//! Compares window sizes by p50/p95 response time under the same arrival
//! trace on the Kirin 990.
//!
//! ```text
//! cargo run --release --example online_streaming
//! ```

use h2p_models::graph::ModelGraph;
use h2p_simulator::SocSpec;
use h2p_telemetry::analytics::LatencyProfile;
use hetero2pipe::executor::response_times;
use hetero2pipe::online::OnlinePlanner;
use hetero2pipe::planner::Planner;
use hetero2pipe::workload::{poisson_arrivals, random_models};

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let soc = SocSpec::kirin_990();
    let planner = Planner::new(&soc)?;
    let n = 24;
    let models = random_models(77, n);
    let requests: Vec<ModelGraph> = models.iter().map(|m| m.graph()).collect();
    let arrivals = poisson_arrivals(77, n, 250.0);
    println!(
        "{n} requests, Poisson arrivals with 250 ms mean gap (span {:.0} ms)",
        arrivals.last().copied().unwrap_or(0.0)
    );

    for window in [4usize, 8, 24] {
        let online = OnlinePlanner::new(planner.clone(), window);
        let planned = online.plan(&requests)?;
        let report = planned.execute_with_arrivals(&soc, &arrivals)?;
        let resp = LatencyProfile::compute(&response_times(&report, &arrivals))
            .ok_or("no requests to summarize")?;
        println!(
            "  window {window:>2}: makespan {:>7.1} ms  response p50 {:>7.1} ms  p95 {:>7.1} ms",
            report.makespan_ms, resp.p50_ms, resp.p95_ms,
        );
    }
    println!(
        "\nSmaller windows bound planning latency and re-ordering scope; larger\nwindows give the vertical optimizer more room — the deployment trade-off\nthe paper's complexity analysis describes."
    );
    Ok(())
}
