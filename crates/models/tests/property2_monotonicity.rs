#![allow(clippy::unwrap_used, clippy::expect_used, reason = "tests may panic")]

//! Property 2 (the monotonicity condition Algorithm 1's optimized search
//! depends on): slice costs `T_k(i, j)` strictly shrink when the front
//! layer is dropped and strictly grow when a layer is appended, for every
//! zoo model on every supporting processor.

use proptest::prelude::*;

use h2p_models::cost::CostModel;
use h2p_models::graph::LayerRange;
use h2p_models::zoo::ModelId;
use h2p_simulator::{ProcessorId, SocSpec};

proptest! {
    #![proptest_config(ProptestConfig::with_cases(128))]

    #[test]
    fn slice_costs_are_monotone(
        model in 0usize..10,
        proc in 0usize..4,
        seed in any::<u64>(),
    ) {
        let soc = SocSpec::kirin_990();
        let cost = CostModel::new(&soc);
        let g = ModelId::ALL[model].graph();
        let n = g.len();
        let p = ProcessorId(proc);
        let i = (seed as usize) % (n - 1);
        let j = i + (seed as usize / 7) % (n - 1 - i);
        let slice = |a: usize, b: usize| cost.slice_latency_ms(&g, LayerRange::new(a, b), p);
        if let Some(t) = slice(i, j) {
            prop_assert!(t > 0.0, "slice cost must be positive");
            // Dropping the front layer strictly shrinks the cost.
            if i < j {
                if let Some(shrunk) = slice(i + 1, j) {
                    prop_assert!(shrunk < t, "T({},{})={shrunk} !< T({i},{j})={t}", i + 1, j);
                }
            }
            // Appending a layer strictly grows the cost (when supported).
            if j + 1 < n {
                if let Some(grown) = slice(i, j + 1) {
                    prop_assert!(grown > t, "T({i},{})={grown} !> T({i},{j})={t}", j + 1);
                }
            }
        }
    }

    #[test]
    fn cost_tables_agree_with_direct_queries(
        model in 0usize..10,
        seed in any::<u64>(),
    ) {
        let soc = SocSpec::kirin_990();
        let cost = CostModel::new(&soc);
        let g = ModelId::ALL[model].graph();
        let procs = soc.processors_by_power();
        let table = cost.table(&g, &procs);
        let n = g.len();
        let i = (seed as usize) % n;
        let j = i + (seed as usize / 11) % (n - i);
        for (slot, &p) in procs.iter().enumerate() {
            let direct = cost.slice_latency_ms(&g, LayerRange::new(i, j), p);
            let tabled = table.slice_ms(slot, i, j);
            match (direct, tabled) {
                (Some(a), Some(b)) => prop_assert!((a - b).abs() < 1e-9),
                (None, None) => {}
                other => prop_assert!(false, "mismatch at slot {slot}: {other:?}"),
            }
        }
    }

    #[test]
    fn copy_costs_are_metric_like(
        bytes in 0u64..100_000_000,
        a in 0usize..4,
        b in 0usize..4,
    ) {
        let soc = SocSpec::kirin_990();
        let cost = CostModel::new(&soc);
        let (pa, pb) = (ProcessorId(a), ProcessorId(b));
        let ab = cost.copy_ms(bytes, pa, pb);
        let ba = cost.copy_ms(bytes, pb, pa);
        prop_assert!(ab >= 0.0);
        prop_assert!((ab - ba).abs() < 1e-12, "copies are symmetric");
        if a == b {
            prop_assert_eq!(ab, 0.0);
        } else {
            prop_assert!(ab > 0.0);
            // More bytes never cost less.
            prop_assert!(cost.copy_ms(bytes + 1024, pa, pb) >= ab);
        }
    }
}
