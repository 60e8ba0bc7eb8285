//! The planner's perf-trajectory suite: partition DP, a cold and a warm
//! single-request plan, LAP solve, the contention-mitigation pass,
//! end-to-end planning at 2/4/8/16 requests (frozen reference vs the
//! cached planner), a cold 8-request plan, lowering and simulated
//! execution of a planned 8-request pipeline, an online window replan,
//! the recovery re-plan after a processor dropout, the faulted audit of
//! one recovery round, the serve loop's batching step, one span entry
//! on a recorder that 10,000 spans went through, and one counter update
//! by handle on a planner's registry.
//!
//! Cases that repeat one request set on one planner are warm: from the
//! second iteration on, the cost tables, the memoized partitions and the
//! tail candidates come from the tables cache. Only `prepare_cold/BERT`,
//! `plan_cold/*` and `plan/reference/*` pay the subset search on every
//! iteration.
//! After running, writes the measurements to `BENCH_planner.json` (path
//! overridable via `H2P_BENCH_OUT`) so `scripts/ci.sh` and future PRs
//! have a machine-readable trajectory to regress against.
//!
//! `H2P_BENCH_QUICK=1` shrinks sampling so the suite finishes in seconds;
//! `scripts/bench.sh` wraps both modes.

use criterion::{BenchResult, BenchmarkId, Criterion};

use h2p_contention::ContentionClass;
use h2p_models::graph::ModelGraph;
use h2p_models::zoo::ModelId;
use h2p_simulator::faults::FaultInjector;
use h2p_simulator::{audit, SocSpec};
use hetero2pipe::batching::{coalesce, graphs_for_groups};
use hetero2pipe::online::OnlinePlanner;
use hetero2pipe::planner::Planner;
use hetero2pipe::workload::random_models;
use hetero2pipe::{lap, mitigation, partition};

/// Request count of the workload the speedup gate reads.
const GATE_REQUESTS: usize = 8;

fn workload(m: usize) -> Vec<ModelGraph> {
    // Seed fixed per size so every run (and both planner paths) measures
    // the identical workload.
    random_models(7, m).iter().map(|id| id.graph()).collect()
}

fn bench_partition_dp(c: &mut Criterion) {
    // The steady-state DP path a warm planner runs per (request, subset):
    // flat prefix-sum kernel over arena-backed scratch, no allocation.
    let soc = SocSpec::kirin_990();
    let planner = Planner::new(&soc).expect("planner");
    let procs = soc.processors_by_power();
    let mut group = c.benchmark_group("partition_dp");
    let mut scratch = partition::DpScratch::new();
    for id in [ModelId::Vgg16, ModelId::Bert] {
        let graph = id.graph();
        let tables = planner.estimator().tables(&graph, &procs);
        let n = graph.len();
        group.bench_with_input(BenchmarkId::from_parameter(id.name()), &n, |b, _| {
            b.iter(|| {
                tables
                    .partition_into(&[1, 2, 3], &mut scratch)
                    .expect("feasible")
            })
        });
    }
    group.finish();
}

fn bench_plan_single(c: &mut Criterion) {
    // One BERT request planned end-to-end on a warm planner: from the
    // second iteration on the partition memo answers the subset search
    // and the tail candidates, so this case times a memo hit plus the
    // lone assembly.
    let soc = SocSpec::kirin_990();
    let planner = Planner::new(&soc).expect("planner");
    let graphs = [ModelId::Bert.graph()];
    c.bench_function("plan_single/BERT", |b| {
        b.iter(|| planner.plan(&graphs).expect("plan"))
    });
    // The same plan from a cold tables cache: every iteration rebuilds
    // BERT's cost tables, runs the pruned subset search (8 of 15 subset
    // DPs), builds the stage vector and the tail candidates, and
    // assembles.
    c.bench_function("prepare_cold/BERT", |b| {
        b.iter(|| {
            planner.estimator().clear_tables_cache();
            planner.plan(&graphs).expect("plan")
        })
    });
}

fn bench_lap(c: &mut Criterion) {
    let n = 32usize;
    let mut seed = 0x9E3779B97F4A7C15u64;
    let mut next = move || {
        seed ^= seed << 13;
        seed ^= seed >> 7;
        seed ^= seed << 17;
        (seed % 1000) as f64
    };
    let cost: Vec<Vec<f64>> = (0..n).map(|_| (0..n).map(|_| next()).collect()).collect();
    c.bench_function("lap_solve/32", |b| {
        b.iter(|| lap::solve(&cost).expect("feasible"))
    });
}

fn bench_mitigation(c: &mut Criterion) {
    let mut group = c.benchmark_group("contention_mitigation");
    for m in [16usize, 64, 128] {
        let classes: Vec<ContentionClass> = (0..m)
            .map(|i| {
                if i % 3 == 0 {
                    ContentionClass::High
                } else {
                    ContentionClass::Low
                }
            })
            .collect();
        group.bench_with_input(BenchmarkId::from_parameter(m), &classes, |b, cls| {
            b.iter(|| mitigation::mitigate(cls, 4))
        });
    }
    group.finish();
}

fn bench_plan_scaling(c: &mut Criterion) {
    // The reference re-solves every request on every iteration; the
    // cached planner is warm (memo-hit prepare, then the four candidate
    // assemblies). The `t1` in its case names is kept from when the
    // planner could fan out, so the trajectory stays comparable.
    let soc = SocSpec::kirin_990();
    let planner = Planner::new(&soc).expect("planner");
    for m in [2usize, 4, 8, 16] {
        let graphs = workload(m);
        c.bench_function(&format!("plan/reference/{m}"), |b| {
            b.iter(|| planner.plan_reference(&graphs).expect("plan"))
        });
        c.bench_function(&format!("plan/t1/{m}"), |b| {
            b.iter(|| planner.plan(&graphs).expect("plan"))
        });
    }
}

fn bench_plan_cold(c: &mut Criterion) {
    // The 8-request plan from a cleared tables cache on every iteration,
    // as `prepare_cold/BERT` does: every request needs a subset search.
    let soc = SocSpec::kirin_990();
    let planner = Planner::new(&soc).expect("planner");
    let graphs = workload(GATE_REQUESTS);
    c.bench_function(&format!("plan_cold/t1/{GATE_REQUESTS}"), |b| {
        b.iter(|| {
            planner.estimator().clear_tables_cache();
            planner.plan(&graphs).expect("plan")
        })
    });
}

fn bench_simulate(c: &mut Criterion) {
    // One planned 8-request pipeline: lowering alone, then lowering plus
    // the discrete-event run.
    let soc = SocSpec::kirin_990();
    let planner = Planner::new(&soc).expect("planner");
    let planned = planner.plan(&workload(8)).expect("plan");
    c.bench_function("lower/8", |b| {
        b.iter(|| planned.lower(&soc).expect("lower"))
    });
    c.bench_function("simulate_8_requests", |b| {
        b.iter(|| planned.execute(&soc).expect("exec"))
    });
}

fn bench_online_replan(c: &mut Criterion) {
    let soc = SocSpec::kirin_990();
    let planner = Planner::new(&soc).expect("planner");
    let online = OnlinePlanner::new(planner, 4);
    let graphs = workload(16);
    c.bench_function("online/replan_w4/16", |b| {
        b.iter(|| online.plan(&graphs).expect("plan"))
    });
    // The incremental path on unchanged windows: the first call below
    // warms the window cache, so the measured steady state is the online
    // deployment's common case — every window's key (models, contention
    // classes, processor availability) unchanged since the last
    // invocation, every plan served from the memo. Release builds skip
    // the debug-only hit-equivalence replan, so this measures the cache.
    online
        .plan_incremental(&graphs)
        .expect("warm the window cache");
    c.bench_function("online/replan_incremental/16", |b| {
        b.iter(|| online.plan_incremental(&graphs).expect("plan"))
    });
}

fn bench_recovery_replan(c: &mut Criterion) {
    // The fault-recovery path: after the most powerful pipeline slot
    // drops out, every request is re-partitioned over the ordered
    // subsets of the surviving slots and re-aligned by work stealing.
    // This is the latency a live deployment pays between a dropout
    // notification and the resumed pipeline. From the second iteration
    // on, every request's survivor partition is a memo hit, so the case
    // times the lookups, the stage-vector copies and the stealing pass.
    let soc = SocSpec::kirin_990();
    let planner = Planner::new(&soc).expect("planner");
    let graphs = workload(8);
    let pending: Vec<usize> = (0..graphs.len()).collect();
    let mut down = vec![false; soc.processors.len()];
    down[planner.pipeline_procs()[0].index()] = true;
    c.bench_function("recovery/replan_drop1/8", |b| {
        b.iter(|| {
            hetero2pipe::recovery::replan_on_survivors(&planner, &graphs, &pending, &down)
                .expect("replan")
        })
    });
}

fn bench_audit_faulted(c: &mut Criterion) {
    // The faulted audit of one recovery round on its own: the planned
    // 8-request pipeline runs with its most powerful pipeline slot
    // dropping out halfway through the fault-free makespan and request
    // 0's final task failing transiently, so the audit checks a partial
    // completed subset and replays a log with fault markers.
    let soc = SocSpec::kirin_990();
    let planner = Planner::new(&soc).expect("planner");
    let planned = planner.plan(&workload(8)).expect("plan");
    let (sim, final_task, _) = planned.lower(&soc).expect("lower").into_parts();
    let half_ms = sim.run().expect("run").makespan_ms() / 2.0;
    let mut faults =
        FaultInjector::new(soc.processors.len()).dropout(planner.pipeline_procs()[0], half_ms);
    if let Some(task) = final_task[0] {
        faults = faults.fail_task(task.index(), 0.5);
    }
    let (outcome, events) = sim.run_faulted(&faults).expect("faulted run");
    assert!(
        !outcome.is_complete(),
        "the script must interrupt the round"
    );
    c.bench_function("audit/faulted/8", |b| {
        b.iter(|| audit::audit_faulted(&soc, sim.tasks(), &events, &outcome))
    });
}

fn bench_batching(c: &mut Criterion) {
    // The serve loop's batching step for one dispatch of every zoo model
    // once: `coalesce` finds no adjacent duplicates, so the ten batch-1
    // groups expand to clones of the memoized zoo graphs.
    c.bench_function("batching/graphs_for_groups/10", |b| {
        b.iter(|| graphs_for_groups(&coalesce(&ModelId::ALL, 8)))
    });
}

fn bench_serve_sweep(c: &mut Criterion) {
    // The serving front-end at overload: 16 requests offered well past
    // kirin-990 saturation (~1.5 served/s), driven through admission,
    // deadline shedding, batching, incremental window planning and
    // execution. `Server::new` runs the measured calibration pass (a
    // solo execution per zoo model) once, outside the measurement, so
    // the case tracks the steady-state cost of absorbing one overloaded
    // arrival burst end to end.
    let soc = SocSpec::kirin_990();
    let server = h2p_serve::Server::new(&soc, 4).expect("server");
    let cfg = h2p_serve::ServeConfig {
        qps: 8.0,
        requests: 16,
        seed: 7,
        ..h2p_serve::ServeConfig::default()
    };
    c.bench_function("serve/sweep_qps/16", |b| {
        b.iter(|| server.run(&cfg).expect("serve"))
    });
}

fn bench_span_enter(c: &mut Criterion) {
    // One span entered and closed on a recorder at its retention
    // window: the recorder of a serve loop deep into a stream, where
    // every cache-hit dispatch opens one `online-inc` root, through the
    // `span!` call `OnlinePlanner::plan_shared` makes. Each batch starts
    // from a recorder that 10,000 same-name roots went through outside
    // the timing, so it has swept three times and holds 3,856 records
    // and the name's key. The timed entries sweep again every 2,048, so
    // the reading is an entry's steady-state cost: the key and counter
    // lookups, the two clock reads, the push and its share of a sweep.
    // Entry must not scan the earlier spans.
    let enter = |recorder: &h2p_telemetry::SpanRecorder| {
        h2p_telemetry::span!(recorder, "online-inc:{}req", 1);
    };
    c.bench_function("telemetry/span_enter/10000", |b| {
        b.iter_custom(|iters| {
            let recorder = h2p_telemetry::SpanRecorder::new();
            for _ in 0..10_000 {
                enter(&recorder);
            }
            #[expect(
                clippy::disallowed_methods,
                reason = "a benchmark timer measures wall-clock time by design"
            )]
            let start = std::time::Instant::now();
            for _ in 0..iters {
                enter(&recorder);
            }
            start.elapsed()
        })
    });
}

fn bench_counter_add(c: &mut Criterion) {
    // One counter update by handle on the registry of a planner that
    // has planned, so it holds the planner's whole metric set, after
    // 10,000 updates outside the timing: the indexed add every hot
    // caller makes in place of a lookup by name.
    let soc = SocSpec::kirin_990();
    let planner = Planner::new(&soc).expect("planner");
    planner.plan(&workload(GATE_REQUESTS)).expect("plan");
    let metrics = &planner.telemetry().metrics;
    let requests = metrics.counter("planner.requests");
    for _ in 0..10_000 {
        metrics.add(std::hint::black_box(requests), 1);
    }
    c.bench_function("telemetry/counter_add/10000", |b| {
        b.iter(|| metrics.add(std::hint::black_box(requests), 1))
    });
}

fn median_of(results: &[BenchResult], name: &str) -> Option<f64> {
    results.iter().find(|r| r.name == name).map(|r| r.median_ns)
}

fn write_json(results: &[BenchResult]) {
    let out = std::env::var("H2P_BENCH_OUT").unwrap_or_else(|_| "BENCH_planner.json".to_owned());
    let cases: Vec<String> = results
        .iter()
        .map(|r| {
            format!(
                "    {{\"name\": \"{}\", \"median_ns\": {:.1}, \"mean_ns\": {:.1}, \"min_ns\": {:.1}, \"iters_per_sample\": {}, \"samples\": {}}}",
                r.name, r.median_ns, r.mean_ns, r.min_ns, r.iters_per_sample, r.samples
            )
        })
        .collect();
    // `t1_vs_reference` compares the warm plan with the reference.
    let reference = median_of(results, &format!("plan/reference/{GATE_REQUESTS}"));
    let t1 = median_of(results, &format!("plan/t1/{GATE_REQUESTS}"));
    let speedup = match (reference, t1) {
        (Some(reference), Some(t1)) if t1 > 0.0 => format!(
            concat!(
                "  \"speedup\": {{\n",
                "    \"workload_requests\": {req},\n",
                "    \"reference_median_ns\": {reference:.1},\n",
                "    \"t1_median_ns\": {t1:.1},\n",
                "    \"t1_vs_reference\": {vs_ref:.3}\n",
                "  }}"
            ),
            req = GATE_REQUESTS,
            reference = reference,
            t1 = t1,
            vs_ref = reference / t1,
        ),
        _ => "  \"speedup\": null".to_owned(),
    };
    let scratch = median_of(results, "online/replan_w4/16");
    let incremental = median_of(results, "online/replan_incremental/16");
    let replan = match (scratch, incremental) {
        (Some(scratch), Some(incremental)) if incremental > 0.0 => format!(
            concat!(
                "  \"replan\": {{\n",
                "    \"scratch_median_ns\": {scratch:.1},\n",
                "    \"incremental_median_ns\": {incremental:.1},\n",
                "    \"incremental_vs_scratch\": {ratio:.3}\n",
                "  }}"
            ),
            scratch = scratch,
            incremental = incremental,
            ratio = scratch / incremental,
        ),
        _ => "  \"replan\": null".to_owned(),
    };
    let json = format!(
        "{{\n  \"schema\": \"h2p-bench-planner/v1\",\n  \"quick\": {},\n  \"available_parallelism\": {},\n  \"cases\": [\n{}\n  ],\n{},\n{}\n}}\n",
        criterion::quick_mode(),
        std::thread::available_parallelism().map_or(1, std::num::NonZeroUsize::get),
        cases.join(",\n"),
        speedup,
        replan,
    );
    match std::fs::write(&out, &json) {
        Ok(()) => println!("\nwrote {out}"),
        Err(e) => {
            eprintln!("failed to write {out}: {e}");
            std::process::exit(1);
        }
    }
}

fn main() {
    let mut criterion = Criterion::default();
    bench_partition_dp(&mut criterion);
    bench_plan_single(&mut criterion);
    bench_lap(&mut criterion);
    bench_mitigation(&mut criterion);
    bench_plan_scaling(&mut criterion);
    bench_plan_cold(&mut criterion);
    bench_simulate(&mut criterion);
    bench_online_replan(&mut criterion);
    bench_recovery_replan(&mut criterion);
    bench_audit_faulted(&mut criterion);
    bench_batching(&mut criterion);
    bench_serve_sweep(&mut criterion);
    bench_span_enter(&mut criterion);
    bench_counter_add(&mut criterion);
    write_json(&criterion::take_results());
}
