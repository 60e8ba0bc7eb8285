//! Shape-level assertions for the paper's empirical claims: each test
//! pins one observation, property or evaluation result from the paper to
//! a concrete check against the reproduction.

use h2p_baselines::{exhaustive, Scheme};
use h2p_contention::counters::{ground_truth_intensity, measure};
use h2p_contention::IntensityModel;
use h2p_models::batch::BatchModel;
use h2p_models::cost::CostModel;
use h2p_models::graph::{LayerRange, ModelGraph};
use h2p_models::zoo::ModelId;
use h2p_simulator::engine::{Simulation, TaskSpec};
use h2p_simulator::interference::CouplingMatrix;
use h2p_simulator::processor::ProcessorKind;
use h2p_simulator::SocSpec;
use hetero2pipe::workload::random_combinations;

/// Fig. 1: NPU fastest where supported; CPU_B on par with GPU; CPU_S
/// heavily degraded; NPU errors exactly for YOLOv4 and BERT.
#[test]
fn fig1_processor_latency_shapes() {
    let soc = SocSpec::kirin_990();
    let cost = CostModel::new(&soc);
    let big = soc.processor_by_name("CPU_B").unwrap();
    let small = soc.processor_by_name("CPU_S").unwrap();
    let gpu = soc.processor_by_name("GPU").unwrap();
    let npu = soc.processor_by_name("NPU").unwrap();
    for id in ModelId::ALL {
        let g = id.graph();
        let t_big = cost.model_latency_ms(&g, big).unwrap();
        let t_small = cost.model_latency_ms(&g, small).unwrap();
        let t_gpu = cost.model_latency_ms(&g, gpu).unwrap();
        assert!(t_small > 2.0 * t_big, "{id}: small cores degrade");
        assert!(
            t_gpu < 4.0 * t_big && t_big < 4.0 * t_gpu,
            "{id}: CPU_B and GPU within the same regime"
        );
        match cost.model_latency_ms(&g, npu) {
            Some(t_npu) => assert!(t_npu < t_big, "{id}: NPU must be fastest"),
            None => assert!(
                matches!(id, ModelId::YoloV4 | ModelId::Bert),
                "{id}: only YOLOv4/BERT may error on the NPU"
            ),
        }
    }
}

/// Sec. III: CPU-GPU interference far exceeds CPU-NPU and GPU-NPU.
#[test]
fn cpu_gpu_interference_dominates_npu_pairs() {
    let m = CouplingMatrix::mobile_default();
    let cpu_gpu = m.kind_coupling(ProcessorKind::CpuBig, ProcessorKind::Gpu);
    assert!(cpu_gpu >= 3.0 * m.kind_coupling(ProcessorKind::CpuBig, ProcessorKind::Npu));
    assert!(cpu_gpu >= 3.0 * m.kind_coupling(ProcessorKind::Gpu, ProcessorKind::Npu));
}

/// Observation 1: equal-priority CPU/GPU co-execution suffers symmetric
/// slowdown when intensities match.
#[test]
fn obs1_slowdown_symmetry() {
    let mut soc = SocSpec::kirin_990();
    soc.thermal_mode = h2p_simulator::thermal::ThermalMode::Disabled;
    let big = soc.processor_by_name("CPU_B").unwrap();
    let gpu = soc.processor_by_name("GPU").unwrap();
    let mut sim = Simulation::new(soc);
    sim.add_task(
        TaskSpec::new("a", big, 200.0)
            .intensity(0.8)
            .sensitivity(0.9),
    );
    sim.add_task(
        TaskSpec::new("b", gpu, 200.0)
            .intensity(0.8)
            .sensitivity(0.9),
    );
    let t = sim.run().unwrap();
    let sa = t.span(0).unwrap().slowdown();
    let sb = t.span(1).unwrap().slowdown();
    assert!(sa > 0.05, "interference must be visible: {sa}");
    assert!((sa - sb).abs() < 1e-9, "symmetric: {sa} vs {sb}");
}

/// Observation 2: large-MatMul layers (VGG FC, BERT attention) are
/// memory-bound on the CPU with elevated miss rates.
#[test]
fn obs2_heavyweight_matmul_contention() {
    let soc = SocSpec::kirin_990();
    let cost = CostModel::new(&soc);
    let big = soc.processor_by_name("CPU_B").unwrap();
    let vgg = ModelId::Vgg16.graph();
    let fc = vgg.layers().iter().find(|l| l.name == "fc6").unwrap();
    assert!(cost.layer_cost(fc, big).unwrap().memory_bound);
    let bert = ModelId::Bert.graph();
    let attn = bert
        .layers()
        .iter()
        .find(|l| l.name == "enc0_attn")
        .unwrap();
    // Attention's working set exceeds the CPU L2.
    assert!(attn.working_set_bytes > 512 * 1024);
}

/// Observation 3: SqueezeNet (4.8 MB) ranks among the most
/// contention-intense models despite being ~70x smaller than ViT.
#[test]
fn obs3_lightweight_outliers() {
    let soc = SocSpec::kirin_990();
    let cost = CostModel::new(&soc);
    let big = soc.processor_by_name("CPU_B").unwrap();
    let sq = ground_truth_intensity(&cost, &ModelId::SqueezeNet.graph(), big);
    let vit = ground_truth_intensity(&cost, &ModelId::Vit.graph(), big);
    let resnet = ground_truth_intensity(&cost, &ModelId::ResNet50.graph(), big);
    assert!(sq > vit, "SqueezeNet {sq:.2} must out-contend ViT {vit:.2}");
    assert!(sq > resnet, "SqueezeNet must out-contend ResNet50");
    let size_ratio = ModelId::Vit.graph().weight_bytes() as f64
        / ModelId::SqueezeNet.graph().weight_bytes() as f64;
    assert!(
        size_ratio > 40.0,
        "ViT is ~70x larger, got {size_ratio:.0}x"
    );
}

/// Eq. 1: the ridge regression predicts contention intensity from the
/// three PMU features well enough to rank models.
#[test]
fn eq1_regression_ranks_models() {
    let soc = SocSpec::kirin_990();
    let cost = CostModel::new(&soc);
    let big = soc.processor_by_name("CPU_B").unwrap();
    let zoo: Vec<ModelGraph> = ModelId::ALL.iter().map(|m| m.graph()).collect();
    let model = IntensityModel::train_default(&cost, &zoo, big).unwrap();
    // Spearman correlation between predicted and true intensities > 0.8.
    let mut pairs: Vec<(f64, f64)> = zoo
        .iter()
        .map(|g| {
            (
                model.predict_sample(&measure(&cost, g, big)),
                ground_truth_intensity(&cost, g, big),
            )
        })
        .collect();
    let rank = |xs: Vec<f64>| -> Vec<usize> {
        let mut idx: Vec<usize> = (0..xs.len()).collect();
        idx.sort_by(|&a, &b| xs[a].total_cmp(&xs[b]));
        let mut r = vec![0usize; xs.len()];
        for (rank_pos, &i) in idx.iter().enumerate() {
            r[i] = rank_pos;
        }
        r
    };
    let pred_rank = rank(pairs.iter().map(|p| p.0).collect());
    let true_rank = rank(pairs.iter().map(|p| p.1).collect());
    let n = pairs.len() as f64;
    let d2: f64 = pred_rank
        .iter()
        .zip(&true_rank)
        .map(|(&a, &b)| {
            let d = a as f64 - b as f64;
            d * d
        })
        .sum();
    let spearman = 1.0 - 6.0 * d2 / (n * (n * n - 1.0));
    assert!(spearman > 0.8, "Spearman {spearman:.2}");
    pairs.sort_by(|a, b| a.0.total_cmp(&b.0));
}

/// Property 1: planned bubbles correlate positively with measured latency
/// across candidate plans (random orders × random splits) of a fixed
/// request set, as in Fig. 12.
#[test]
fn property1_bubbles_track_latency() {
    use hetero2pipe::plan::PipelinePlan;
    use hetero2pipe::planner::{Planner, PlannerConfig};
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};
    let soc = SocSpec::kirin_990();
    let cfg = PlannerConfig {
        contention_mitigation: false,
        work_stealing: false,
        tail_optimization: false,
        max_depth: 3,
        ..PlannerConfig::default()
    };
    let planner = Planner::with_config(&soc, cfg).unwrap();
    let ids = [ModelId::InceptionV4, ModelId::ResNet50, ModelId::SqueezeNet];
    let reqs: Vec<ModelGraph> = ids.iter().map(|m| m.graph()).collect();
    let base = planner.plan(&reqs).unwrap();
    let cost = planner.estimator().cost();
    let mut rng = StdRng::seed_from_u64(12);
    let mut points: Vec<(f64, f64)> = Vec::new();
    for _ in 0..80 {
        let mut order: Vec<usize> = (0..ids.len()).collect();
        for i in (1..order.len()).rev() {
            order.swap(i, rng.gen_range(0..=i));
        }
        let mut requests = Vec::new();
        for &i in &order {
            let mut req = base.plan.requests[i].clone();
            let ctx = &base.contexts[req.request];
            let (stages, n) = (ctx.stage_count(), ctx.layer_count());
            if stages >= 2 {
                for _ in 0..12 {
                    let mut cuts: Vec<usize> =
                        (0..stages - 1).map(|_| rng.gen_range(1..n)).collect();
                    cuts.sort_unstable();
                    cuts.dedup();
                    if cuts.len() != stages - 1 {
                        continue;
                    }
                    if let Some(st) = ctx.build_stages(cost, &cuts, base.plan.depth()) {
                        req.stages = st;
                        break;
                    }
                }
            }
            requests.push(req);
        }
        let plan = PipelinePlan {
            procs: base.plan.procs.clone(),
            requests,
        };
        let measured = hetero2pipe::executor::execute(&plan, &soc)
            .unwrap()
            .makespan_ms;
        points.push((plan.total_bubble_ms(), measured));
    }
    // Positive correlation between bubbles and latency.
    let n = points.len() as f64;
    let mx = points.iter().map(|p| p.0).sum::<f64>() / n;
    let my = points.iter().map(|p| p.1).sum::<f64>() / n;
    let cov: f64 = points.iter().map(|p| (p.0 - mx) * (p.1 - my)).sum();
    let vx: f64 = points.iter().map(|p| (p.0 - mx) * (p.0 - mx)).sum();
    let vy: f64 = points.iter().map(|p| (p.1 - my) * (p.1 - my)).sum();
    let r = cov / (vx.sqrt() * vy.sqrt()).max(1e-12);
    assert!(r > 0.5, "bubble-latency correlation {r:.2}");
}

/// Appendix D: batched latency of lightweight models is affine in the
/// batch size, and batching closes the gap to heavyweight models.
#[test]
fn appendix_d_affine_batching() {
    let soc = SocSpec::kirin_990();
    let cost = CostModel::new(&soc);
    let big = soc.processor_by_name("CPU_B").unwrap();
    let m = BatchModel::fit(&cost, &ModelId::MobileNetV2.graph(), big).unwrap();
    // Affinity: second differences vanish.
    let l = |b| m.latency_ms(b);
    assert!(((l(3) - l(2)) - (l(2) - l(1))).abs() < 1e-9);
    // Gap closing: some batch matches a BERT stage time.
    let bert = cost.model_latency_ms(&ModelId::Bert.graph(), big).unwrap();
    let b = m.batch_to_match(bert / 4.0, 64);
    assert!((2..=64).contains(&b));
}

/// Appendix B: at thermal steady state the CPU throttles but GPU/NPU do
/// not, and the whole evaluation runs in that regime.
#[test]
fn appendix_b_thermal_steady_state() {
    use h2p_simulator::thermal::{ThermalMode, ThermalSpec, ThermalState};
    for kind in [ProcessorKind::CpuBig, ProcessorKind::CpuSmall] {
        let st = ThermalState::new(ThermalSpec::for_kind(kind), ThermalMode::SteadyState);
        assert!(st.rate_factor() < 1.0, "{kind:?} throttles at steady state");
    }
    for kind in [ProcessorKind::Gpu, ProcessorKind::Npu] {
        let st = ThermalState::new(ThermalSpec::for_kind(kind), ThermalMode::SteadyState);
        assert_eq!(st.rate_factor(), 1.0, "{kind:?} stays cool");
    }
}

/// Table II regime: sustained CPU/GPU co-execution of real model pairs
/// produces double-digit-percent slowdowns.
#[test]
fn table2_coexec_slowdown_regime() {
    let mut soc = SocSpec::kirin_990();
    soc.thermal_mode = h2p_simulator::thermal::ThermalMode::Disabled;
    let cost = CostModel::new(&soc);
    let big = soc.processor_by_name("CPU_B").unwrap();
    let gpu = soc.processor_by_name("GPU").unwrap();
    let g_sq = ModelId::SqueezeNet.graph();
    let g_bert = ModelId::Bert.graph();
    let whole = |g: &ModelGraph| LayerRange::new(0, g.len() - 1);
    let t_sq = cost.slice_latency_ms(&g_sq, whole(&g_sq), big).unwrap();
    let bw_sq = cost.slice_bandwidth_gbps(&g_sq, whole(&g_sq), big).unwrap();
    let t_bert = cost.slice_latency_ms(&g_bert, whole(&g_bert), gpu).unwrap();
    let bw_bert = cost
        .slice_bandwidth_gbps(&g_bert, whole(&g_bert), gpu)
        .unwrap();
    let intensity = |bw: f64| bw / h2p_contention::counters::REFERENCE_BANDWIDTH_GBPS;
    let mut sim = Simulation::new(soc);
    // Loop SqueezeNet to cover BERT's runtime (sustained co-execution).
    let reps = (t_bert / t_sq).ceil() as usize;
    for _ in 0..reps {
        sim.add_task(
            TaskSpec::new("sq", big, t_sq)
                .intensity(intensity(bw_sq))
                .sensitivity(0.5 + 0.5 * intensity(bw_sq).clamp(0.0, 2.0)),
        );
    }
    sim.add_task(
        TaskSpec::new("bert", gpu, t_bert)
            .intensity(intensity(bw_bert))
            .sensitivity(0.5 + 0.5 * intensity(bw_bert).clamp(0.0, 2.0)),
    );
    let trace = sim.run().unwrap();
    let bert_slow = trace.span(reps).unwrap().slowdown();
    assert!(
        bert_slow > 0.05 && bert_slow < 0.40,
        "BERT slowdown under sustained SqueezeNet co-execution: {bert_slow:.3}"
    );
}

/// The seed of the Fig. 7 and Fig. 8 experiment binaries; the shape
/// tests below read the first 10 of its combinations.
const FIG_SEED: u64 = 20_250_705;
const FIG_COMBOS: usize = 10;

/// Mean simulated latency of `run` over `sets`.
fn mean_latency_ms(sets: &[Vec<ModelId>], run: impl Fn(&[ModelGraph]) -> f64) -> f64 {
    let total: f64 = sets
        .iter()
        .map(|set| run(&set.iter().map(|m| m.graph()).collect::<Vec<_>>()))
        .sum();
    total / sets.len() as f64
}

/// Fig. 7: Hetero²Pipe is faster than vanilla MNN on every SoC, and its
/// mean latency is lowest on Kirin 990.
#[test]
fn fig7_h2p_beats_mnn_on_every_soc_and_kirin_is_fastest() {
    let sets = random_combinations(FIG_SEED, FIG_COMBOS, 6, 12);
    let mut h2p_means = Vec::new();
    for soc in SocSpec::evaluation_platforms() {
        let mean =
            |scheme: Scheme| mean_latency_ms(&sets, |g| scheme.run(&soc, g).unwrap().makespan_ms);
        let (mnn, h2p) = (mean(Scheme::MnnSerial), mean(Scheme::Hetero2Pipe));
        assert!(
            mnn / h2p > 1.0,
            "{}: speedup over MNN {:.2}",
            soc.name,
            mnn / h2p
        );
        h2p_means.push((soc.name.clone(), h2p));
    }
    let fastest = h2p_means.iter().min_by(|a, b| a.1.total_cmp(&b.1)).unwrap();
    assert_eq!(fastest.0, "Kirin 990", "H2P mean latencies: {h2p_means:?}");
}

/// Fig. 8(a): on Kirin 990 the mean latencies order exhaustive search ≤
/// Hetero²Pipe ≤ No C/T. Simulated annealing is left out: it ranks
/// orders by the same estimate as the exhaustive search, and the table
/// reports simulated latency, so it may land just below exhaustive.
#[test]
fn fig8a_h2p_lies_between_exhaustive_and_no_ct() {
    let soc = SocSpec::kirin_990();
    let sets = random_combinations(FIG_SEED, FIG_COMBOS, 4, 6);
    let exact = mean_latency_ms(&sets, |g| {
        exhaustive::run_with(&soc, g, 5_000, exhaustive::Evaluation::Estimate)
            .unwrap()
            .report
            .makespan_ms
    });
    let h2p = mean_latency_ms(&sets, |g| {
        Scheme::Hetero2Pipe.run(&soc, g).unwrap().makespan_ms
    });
    let noct = mean_latency_ms(&sets, |g| Scheme::NoCt.run(&soc, g).unwrap().makespan_ms);
    assert!(
        exact <= h2p && h2p <= noct,
        "exhaustive {exact:.0} ms, H2P {h2p:.0} ms, No C/T {noct:.0} ms"
    );
}
