//! Batching of lightweight models (Appendix D).
//!
//! A single MobileNetV2/SqueezeNet inference is 20–40× shorter than a
//! BERT stage, so aligning it vertically is hopeless — the kernel-launch
//! and weight-load overhead dominates. The workaround is to coalesce
//! consecutive requests for the same lightweight model into one batched
//! request whose execution time is (almost) affine in the batch size,
//! closing the light/heavy gap and amortizing the fixed costs.

use h2p_models::graph::ModelGraph;
use h2p_models::layer::Layer;
use h2p_models::zoo::ModelId;

/// A coalesced run of identical requests.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct BatchGroup {
    /// The model all requests in the group ask for.
    pub model: ModelId,
    /// Number of original requests merged (1 = not batched).
    pub batch: u32,
}

/// Scales a model graph to batch size `b`: per-inference FLOPs and
/// activation traffic multiply by `b`, weights stay resident once, and
/// per-layer dispatch overhead is unchanged — which is exactly what makes
/// batched execution affine rather than proportional.
///
/// # Panics
///
/// Panics if `b == 0`.
pub fn batched_graph(graph: &ModelGraph, b: u32) -> ModelGraph {
    assert!(b > 0, "batch size must be positive");
    if b == 1 {
        return graph.clone();
    }
    let bf = b as u64;
    let layers: Vec<Layer> = graph
        .layers()
        .iter()
        .map(|l| {
            let mut scaled = Layer::new(
                l.name.to_string(),
                l.op,
                l.flops * b as f64,
                l.input_bytes * bf,
                l.output_bytes * bf,
                l.weight_bytes,
            )
            .locality(l.locality);
            // Activations scale with the batch; the weight-resident part
            // of the working set does not.
            let act_ws = l.working_set_bytes.saturating_sub(l.weight_bytes);
            scaled = scaled.working_set(l.weight_bytes + act_ws * bf);
            if let Some(t) = l.touched_bytes_override {
                scaled = scaled.touched_bytes(t * bf);
            }
            scaled
        })
        .collect();
    ModelGraph::new(
        format!("{}x{}", graph.name(), b),
        graph.input_bytes() * bf,
        layers,
    )
}

/// Coalesces consecutive identical *lightweight* requests into batch
/// groups of at most `max_batch`. Heavyweight models and non-adjacent
/// duplicates are left untouched (batching across positions would violate
/// arrival order).
///
/// ```
/// use h2p_models::zoo::ModelId::{Bert, MobileNetV2};
/// use hetero2pipe::batching::coalesce;
///
/// let groups = coalesce(&[MobileNetV2, MobileNetV2, Bert], 8);
/// assert_eq!(groups.len(), 2);
/// assert_eq!(groups[0].batch, 2);
/// assert_eq!(groups[1].batch, 1);
/// ```
///
/// # Panics
///
/// Panics if `max_batch == 0`.
pub fn coalesce(ids: &[ModelId], max_batch: u32) -> Vec<BatchGroup> {
    assert!(max_batch > 0, "max_batch must be positive");
    let mut out: Vec<BatchGroup> = Vec::new();
    for &id in ids {
        match out.last_mut() {
            Some(last) if last.model == id && id.is_lightweight() && last.batch < max_batch => {
                last.batch += 1;
            }
            _ => out.push(BatchGroup {
                model: id,
                batch: 1,
            }),
        }
    }
    out
}

/// Expands batch groups into the graphs the planner consumes.
pub fn graphs_for_groups(groups: &[BatchGroup]) -> Vec<ModelGraph> {
    groups
        .iter()
        .map(|g| match g.batch {
            1 => g.model.graph(),
            b => batched_graph(&g.model.graph(), b),
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use h2p_models::cost::CostModel;
    use h2p_simulator::SocSpec;

    #[test]
    fn coalesce_merges_only_adjacent_lightweights() {
        use ModelId::*;
        let ids = [
            MobileNetV2,
            MobileNetV2,
            MobileNetV2,
            Bert,
            MobileNetV2,
            SqueezeNet,
            SqueezeNet,
        ];
        let groups = coalesce(&ids, 8);
        assert_eq!(
            groups,
            vec![
                BatchGroup {
                    model: MobileNetV2,
                    batch: 3
                },
                BatchGroup {
                    model: Bert,
                    batch: 1
                },
                BatchGroup {
                    model: MobileNetV2,
                    batch: 1
                },
                BatchGroup {
                    model: SqueezeNet,
                    batch: 2
                },
            ]
        );
    }

    #[test]
    fn heavy_models_never_batch() {
        use ModelId::*;
        let groups = coalesce(&[Bert, Bert, Bert], 8);
        assert_eq!(groups.len(), 3);
        assert!(groups.iter().all(|g| g.batch == 1));
    }

    #[test]
    fn max_batch_caps_group_size() {
        let ids = vec![ModelId::SqueezeNet; 10];
        let groups = coalesce(&ids, 4);
        let batches: Vec<u32> = groups.iter().map(|g| g.batch).collect();
        assert_eq!(batches, vec![4, 4, 2]);
        assert_eq!(batches.iter().sum::<u32>(), 10, "requests conserved");
    }

    #[test]
    fn batched_graph_scales_work_but_not_weights() {
        let g = ModelId::MobileNetV2.graph();
        let b4 = batched_graph(&g, 4);
        assert!((b4.total_flops() - 4.0 * g.total_flops()).abs() < 1.0);
        assert_eq!(b4.weight_bytes(), g.weight_bytes());
        assert_eq!(b4.len(), g.len());
        assert!(b4.name().ends_with("x4"));
    }

    #[test]
    fn batching_amortizes_latency_on_the_simulated_cost_model() {
        let soc = SocSpec::kirin_990();
        let cost = CostModel::new(&soc);
        let gpu = soc.processor_by_name("GPU").unwrap();
        let g = ModelId::SqueezeNet.graph();
        let single = cost.model_latency_ms(&g, gpu).unwrap();
        let batched = cost.model_latency_ms(&batched_graph(&g, 8), gpu).unwrap();
        assert!(
            batched < 8.0 * single,
            "batch of 8 ({batched} ms) must beat 8 singles ({} ms)",
            8.0 * single
        );
        assert!(batched > single, "more work still takes longer");
    }

    #[test]
    fn batch_of_one_is_identity() {
        let g = ModelId::GoogLeNet.graph();
        assert_eq!(batched_graph(&g, 1), g);
    }

    #[test]
    fn graphs_for_groups_expands_each_group() {
        for model in ModelId::ALL {
            let g = model.graph();
            let graphs = graphs_for_groups(&[
                BatchGroup { model, batch: 1 },
                BatchGroup { model, batch: 3 },
            ]);
            assert_eq!(graphs, vec![g.clone(), batched_graph(&g, 3)], "{model}");
            assert_eq!(
                graphs[0].layers().as_ptr(),
                g.layers().as_ptr(),
                "{model}: a batch of one shares the zoo graph's storage"
            );
        }
    }

    #[test]
    #[should_panic(expected = "batch size")]
    fn zero_batch_panics() {
        batched_graph(&ModelId::SqueezeNet.graph(), 0);
    }
}

/// Property tests pinning the affine batching model of Appendix D
/// against the cost model, across randomized layer coefficients.
///
/// Two regimes matter:
///
/// * **Total latency is non-decreasing in the batch size** for *any*
///   coefficients: compute scales linearly, memory traffic and the
///   spill factor are non-decreasing in the working set, so a larger
///   batch can never get cheaper in absolute terms.
/// * **Per-item latency is non-increasing** only in the *constant-spill*
///   regime (working set under L2 at the largest batch), where the
///   model is exactly affine `O + k·b` and the fixed kernel overhead
///   amortizes as `k + O/b`. In the logarithmic spill band between L2
///   and the spill cap, per-item cost can legitimately creep upward as
///   activations overflow the cache — so the amortization property is
///   asserted only where the affine model holds.
#[cfg(test)]
mod properties {
    use super::*;
    use h2p_models::cost::CostModel;
    use h2p_models::layer::OpKind;
    use h2p_simulator::{ProcessorId, SocSpec};
    use proptest::prelude::*;

    const OPS: [OpKind; 4] = [OpKind::Conv, OpKind::DwConv, OpKind::Fc, OpKind::MatMul];

    /// One synthetic layer with the given coefficients; the default
    /// working set (input + output + weights) keeps the activation
    /// part batch-scaled by `batched_graph` while weights stay
    /// resident once.
    fn synthetic(mflops: u64, act_kib: u64, weight_kib: u64, op: OpKind) -> ModelGraph {
        let act = act_kib * 1024;
        let layer = Layer::new("l0", op, mflops as f64 * 1e6, act, act, weight_kib * 1024);
        ModelGraph::new("synthetic", act, vec![layer])
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(96))]

        #[test]
        fn batched_latency_is_monotone_in_batch_size(
            mflops in 1u64..2000,
            act_kib in 1u64..4096,
            weight_kib in 0u64..8192,
            op in 0usize..4,
            proc in 0usize..4,
            b in 1u32..16,
        ) {
            let soc = SocSpec::kirin_990();
            if proc >= soc.processors.len() {
                return Ok(());
            }
            let cost = CostModel::new(&soc);
            let g = synthetic(mflops, act_kib, weight_kib, OPS[op]);
            let pid = ProcessorId(proc);
            // Unsupported (op, processor) pairs have no latency at any
            // batch size; nothing to compare.
            let Some(lo) = cost.model_latency_ms(&batched_graph(&g, b), pid) else {
                return Ok(());
            };
            let Some(hi) = cost.model_latency_ms(&batched_graph(&g, b + 1), pid) else {
                return Ok(());
            };
            prop_assert!(
                hi >= lo * (1.0 - 1e-12),
                "batch {} -> {} got cheaper on proc {}: {} -> {} ms",
                b, b + 1, proc, lo, hi
            );
        }

        #[test]
        fn per_item_latency_amortizes_in_the_affine_regime(
            mflops in 1u64..2000,
            act_kib in 1u64..7,
            weight_kib in 0u64..65,
            op in 0usize..4,
            proc in 0usize..4,
            pair_seed in any::<u64>(),
        ) {
            let soc = SocSpec::kirin_990();
            if proc >= soc.processors.len() {
                return Ok(());
            }
            let spec = &soc.processors[proc];
            // Constant-spill guard: the working set at the largest
            // batch (weights + 2·act·16) must fit in this processor's
            // L2 so the spill factor is 1 throughout and the model is
            // exactly affine. The coefficient ranges keep this true on
            // every kirin-990 processor (min L2 = 256 KiB), but the
            // guard documents — and enforces — the regime boundary.
            let ws16_kib = weight_kib + 2 * act_kib * 16;
            if ws16_kib > u64::from(spec.l2_kib) {
                return Ok(());
            }
            let b1 = 1 + (pair_seed % 15) as u32; // 1..=15
            let span = u64::from(16 - b1);
            let b2 = b1 + 1 + ((pair_seed >> 8) % span) as u32; // b1+1..=16
            let cost = CostModel::new(&soc);
            let g = synthetic(mflops, act_kib, weight_kib, OPS[op]);
            let pid = ProcessorId(proc);
            let Some(l1) = cost.model_latency_ms(&batched_graph(&g, b1), pid) else {
                return Ok(());
            };
            let Some(l2) = cost.model_latency_ms(&batched_graph(&g, b2), pid) else {
                return Ok(());
            };
            let per1 = l1 / f64::from(b1);
            let per2 = l2 / f64::from(b2);
            prop_assert!(
                per2 <= per1 * (1.0 + 1e-12),
                "per-item latency grew in the affine regime on proc {}: \
                 batch {} = {} ms/item, batch {} = {} ms/item",
                proc, b1, per1, b2, per2
            );
        }
    }
}
