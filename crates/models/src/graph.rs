//! Linearized model graphs and contiguous layer slices.
//!
//! The paper's Definition 1 slices each model into `K` contiguous layer
//! ranges distributed across the heterogeneous processors. A
//! [`ModelGraph`] is the linearized layer chain such slicing operates on;
//! a [`LayerRange`] is one candidate slice.

use std::sync::Arc;

use serde::{Deserialize, Serialize};

use crate::layer::Layer;

/// An inclusive contiguous range of layer indices `[first, last]` within a
/// model, i.e. one pipeline-stage slice.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub struct LayerRange {
    /// Index of the first layer in the slice.
    pub first: usize,
    /// Index of the last layer in the slice (inclusive).
    pub last: usize,
}

impl LayerRange {
    /// Creates the range `[first, last]`.
    ///
    /// # Panics
    ///
    /// Panics if `first > last`.
    pub fn new(first: usize, last: usize) -> Self {
        assert!(first <= last, "empty or inverted layer range");
        LayerRange { first, last }
    }

    /// Number of layers covered.
    pub fn len(&self) -> usize {
        self.last - self.first + 1
    }

    /// Always false: ranges are non-empty by construction.
    pub fn is_empty(&self) -> bool {
        false
    }
}

impl std::fmt::Display for LayerRange {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "[{}..={}]", self.first, self.last)
    }
}

/// A model's linearized execution chain.
///
/// The name and the layers sit behind `Arc`s and are never mutated, so
/// a clone shares its source's storage and costs two reference-count
/// increments: every planner, server and dispatch that clones the
/// memoized zoo graph holds the same layers.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct ModelGraph {
    name: Arc<str>,
    layers: Arc<[Layer]>,
    input_bytes: u64,
}

/// Field-by-field equality, where a field whose storage both graphs
/// share is equal without reading it. Clones of one graph therefore
/// compare in O(1) — the memo lookups of the planner and the window
/// cache key on this — while independently built graphs (batched
/// graphs, rebuilt or deserialized ones) take the full comparison.
///
/// The shortcut is exact except for NaN: shared layers compare equal
/// even when a layer holds a NaN, which a full comparison would report
/// unequal. [`ModelGraph::validate`] flags non-finite FLOPs.
impl PartialEq for ModelGraph {
    fn eq(&self, other: &Self) -> bool {
        self.input_bytes == other.input_bytes
            && (Arc::ptr_eq(&self.name, &other.name) || self.name == other.name)
            && (Arc::ptr_eq(&self.layers, &other.layers) || self.layers == other.layers)
    }
}

impl ModelGraph {
    /// Builds a graph from its layer chain.
    ///
    /// # Panics
    ///
    /// Panics if `layers` is empty.
    pub fn new(name: impl Into<String>, input_bytes: u64, layers: Vec<Layer>) -> Self {
        assert!(!layers.is_empty(), "a model must have at least one layer");
        ModelGraph {
            name: name.into().into(),
            layers: layers.into(),
            input_bytes,
        }
    }

    /// The model's name, e.g. `"VGG16"`.
    pub fn name(&self) -> &str {
        &self.name
    }

    /// The model's name as the shared string the graph holds, so plans
    /// and task labels can name the model without copying the text.
    pub fn shared_name(&self) -> &Arc<str> {
        &self.name
    }

    /// The layers in execution order.
    pub fn layers(&self) -> &[Layer] {
        &self.layers
    }

    /// Number of layers.
    pub fn len(&self) -> usize {
        self.layers.len()
    }

    /// Whether the graph has no layers (never true by construction).
    pub fn is_empty(&self) -> bool {
        self.layers.is_empty()
    }

    /// Size in bytes of the network input tensor.
    pub fn input_bytes(&self) -> u64 {
        self.input_bytes
    }

    /// Total FLOPs of one inference.
    pub fn total_flops(&self) -> f64 {
        self.layers.iter().map(|l| l.flops).sum()
    }

    /// Total parameter bytes (the model's on-disk/in-memory size).
    pub fn weight_bytes(&self) -> u64 {
        self.layers.iter().map(|l| l.weight_bytes).sum()
    }

    /// Peak activation + weight residency of running the whole model,
    /// approximated as weights plus the largest inter-layer activation.
    pub fn footprint_bytes(&self) -> u64 {
        let max_act = self
            .layers
            .iter()
            .map(|l| l.input_bytes + l.output_bytes)
            .max()
            .unwrap_or(0);
        self.weight_bytes() + max_act
    }

    /// Aggregate weight bytes within a slice.
    pub fn slice_weight_bytes(&self, range: LayerRange) -> u64 {
        self.layers[range.first..=range.last]
            .iter()
            .map(|l| l.weight_bytes)
            .sum()
    }

    /// The activation bytes crossing the boundary *after* layer `i`
    /// (i.e. what must be copied if the model is split between `i` and
    /// `i+1`). For the final layer this is the network output size.
    pub fn boundary_bytes(&self, i: usize) -> u64 {
        self.layers[i].output_bytes
    }

    /// Bytes entering the slice: the network input for a slice starting at
    /// layer 0, otherwise the preceding boundary activation.
    pub fn slice_input_bytes(&self, range: LayerRange) -> u64 {
        if range.first == 0 {
            self.input_bytes
        } else {
            self.boundary_bytes(range.first - 1)
        }
    }

    /// Whether the model contains any NPU-unsupported operator.
    pub fn fully_npu_supported(&self) -> bool {
        self.layers.iter().all(|l| l.op.npu_supported())
    }

    /// Checks structural consistency of the layer chain and returns the
    /// list of problems found (empty = consistent):
    ///
    /// * non-finite or negative FLOPs, or zero-FLOP compute layers;
    /// * tensor-chain mismatches: a layer's input size differing from the
    ///   previous layer's output by more than `tolerance`× in either
    ///   direction (fused blocks and valid-vs-same padding justify small
    ///   discrepancies; large ones indicate a construction bug);
    /// * a working set smaller than the largest single tensor it must
    ///   hold.
    pub fn validate(&self, tolerance: f64) -> Vec<String> {
        assert!(tolerance >= 1.0, "tolerance is a ratio >= 1");
        let mut problems = Vec::new();
        for (i, l) in self.layers.iter().enumerate() {
            if !l.flops.is_finite() || l.flops < 0.0 {
                problems.push(format!(
                    "{}[{i}] {}: invalid flops {}",
                    self.name, l.name, l.flops
                ));
            }
            let max_tensor = l.input_bytes.max(l.output_bytes);
            if l.working_set_bytes < max_tensor / 2 {
                problems.push(format!(
                    "{}[{i}] {}: working set {} below largest tensor {}",
                    self.name, l.name, l.working_set_bytes, max_tensor
                ));
            }
            if i > 0 {
                let prev_out = self.layers[i - 1].output_bytes.max(1) as f64;
                let this_in = l.input_bytes.max(1) as f64;
                let ratio = (prev_out / this_in).max(this_in / prev_out);
                if ratio > tolerance {
                    problems.push(format!(
                        "{}[{i}] {}: input {} vs previous output {} ({}x off)",
                        self.name,
                        l.name,
                        l.input_bytes,
                        self.layers[i - 1].output_bytes,
                        ratio.round()
                    ));
                }
            }
        }
        problems
    }

    /// Splits `[0, len)` into the contiguous ranges induced by the given
    /// ascending split points (each split point `p` starts a new slice at
    /// layer `p`). Mirrors Definition 1's `K`-way partition.
    ///
    /// # Panics
    ///
    /// Panics if split points are not strictly ascending within
    /// `(0, len)`.
    pub fn ranges_from_splits(&self, splits: &[usize]) -> Vec<LayerRange> {
        let n = self.len();
        let mut prev = 0usize;
        let mut out = Vec::with_capacity(splits.len() + 1);
        for &s in splits {
            assert!(
                s > prev && s < n,
                "split points must be ascending in (0, n)"
            );
            out.push(LayerRange::new(prev, s - 1));
            prev = s;
        }
        out.push(LayerRange::new(prev, n - 1));
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::layer::OpKind;

    fn toy() -> ModelGraph {
        let layers = vec![
            Layer::new("a", OpKind::Conv, 100.0, 10, 20, 5),
            Layer::new("b", OpKind::Mish, 10.0, 20, 20, 0),
            Layer::new("c", OpKind::Fc, 200.0, 20, 4, 50),
        ];
        ModelGraph::new("toy", 10, layers)
    }

    #[test]
    fn aggregates_sum_layers() {
        let g = toy();
        assert_eq!(g.total_flops(), 310.0);
        assert_eq!(g.weight_bytes(), 55);
        assert_eq!(g.len(), 3);
    }

    #[test]
    fn boundary_and_slice_input_bytes() {
        let g = toy();
        assert_eq!(g.boundary_bytes(0), 20);
        assert_eq!(g.slice_input_bytes(LayerRange::new(0, 1)), 10);
        assert_eq!(g.slice_input_bytes(LayerRange::new(1, 2)), 20);
    }

    #[test]
    fn npu_support_is_per_range() {
        let g = toy();
        let supported = |first: usize, last: usize| {
            g.layers()[first..=last]
                .iter()
                .all(|l| l.op.npu_supported())
        };
        assert!(supported(0, 0));
        assert!(!supported(0, 1), "contains mish");
        assert!(supported(2, 2));
        assert!(!g.fully_npu_supported());
    }

    #[test]
    fn ranges_from_splits_partition_the_chain() {
        let g = toy();
        let ranges = g.ranges_from_splits(&[1, 2]);
        assert_eq!(
            ranges,
            vec![
                LayerRange::new(0, 0),
                LayerRange::new(1, 1),
                LayerRange::new(2, 2)
            ]
        );
        let whole = g.ranges_from_splits(&[]);
        assert_eq!(whole, vec![LayerRange::new(0, 2)]);
    }

    #[test]
    #[should_panic(expected = "ascending")]
    fn bad_split_points_panic() {
        toy().ranges_from_splits(&[2, 1]);
    }

    #[test]
    fn footprint_includes_weights_and_peak_activation() {
        let g = toy();
        assert_eq!(g.footprint_bytes(), 55 + 40);
    }

    #[test]
    fn validate_flags_chain_breaks_and_bad_values() {
        let layers = vec![
            Layer::new("a", OpKind::Conv, 100.0, 1000, 1000, 5),
            // Input 10x smaller than previous output: chain break.
            Layer::new("b", OpKind::Conv, f64::NAN, 100, 100, 5),
        ];
        let g = ModelGraph::new("broken", 1000, layers);
        let problems = g.validate(3.0);
        assert_eq!(problems.len(), 2, "{problems:?}");
        assert!(problems.iter().any(|p| p.contains("invalid flops")));
        assert!(problems.iter().any(|p| p.contains("previous output")));
    }

    /// What `==` must agree with: every field compared by value.
    fn fields_eq(a: &ModelGraph, b: &ModelGraph) -> bool {
        a.name() == b.name() && a.input_bytes() == b.input_bytes() && a.layers() == b.layers()
    }

    /// The graph `g` with its layer chain rewritten by `edit`, in fresh
    /// storage.
    fn rebuilt(g: &ModelGraph, edit: impl FnOnce(&mut Vec<Layer>)) -> ModelGraph {
        let mut layers = g.layers().to_vec();
        edit(&mut layers);
        ModelGraph::new(g.name(), g.input_bytes(), layers)
    }

    #[test]
    fn clones_share_layer_storage() {
        for id in crate::zoo::ModelId::ALL {
            let a = id.graph();
            let b = a.clone();
            assert_eq!(a.layers().as_ptr(), b.layers().as_ptr(), "{id}");
            assert_eq!(a.name().as_ptr(), b.name().as_ptr(), "{id}");
            assert_eq!(a.layers().as_ptr(), id.graph().layers().as_ptr(), "{id}");
            assert_eq!(a, b);
        }
    }

    #[test]
    fn equality_agrees_with_a_field_by_field_comparison() {
        let zoo = crate::zoo::ModelId::ALL.map(|id| id.graph());
        for g in &zoo {
            let mut variants = vec![(g.clone(), true), (rebuilt(g, |_| {}), true)];
            variants.push((
                ModelGraph::new(
                    format!("{}'", g.name()),
                    g.input_bytes(),
                    g.layers().to_vec(),
                ),
                false,
            ));
            variants.push((
                ModelGraph::new(g.name(), g.input_bytes() + 1, g.layers().to_vec()),
                false,
            ));
            type Edit = fn(&mut Layer);
            let edits: [Edit; 9] = [
                |l| l.name.push('\''),
                |l| {
                    l.op = if l.op == OpKind::Conv {
                        OpKind::Fc
                    } else {
                        OpKind::Conv
                    }
                },
                |l| l.flops = l.flops * 2.0 + 1.0,
                |l| l.input_bytes += 1,
                |l| l.output_bytes += 1,
                |l| l.weight_bytes += 1,
                |l| l.working_set_bytes += 1,
                |l| l.locality *= 0.5,
                |l| l.touched_bytes_override = Some(l.touched_bytes_override.map_or(1, |t| t + 1)),
            ];
            for i in 0..g.len() {
                for edit in edits {
                    variants.push((rebuilt(g, |layers| edit(&mut layers[i])), false));
                }
            }
            for (v, equal) in &variants {
                assert_eq!(*v == *g, *equal, "{}", g.name());
                assert_eq!(*g == *v, fields_eq(g, v), "{}", g.name());
            }
            // The rebuilt copy shares nothing, so it took the full
            // comparison.
            assert_ne!(variants[1].0.layers().as_ptr(), g.layers().as_ptr());
            for other in &zoo {
                assert_eq!(g == other, fields_eq(g, other));
            }
        }
    }

    #[test]
    fn shared_storage_compares_equal_even_with_a_nan_layer() {
        let nan = rebuilt(&toy(), |layers| layers[1].flops = f64::NAN);
        assert_eq!(nan, nan.clone(), "shared storage is not read");
        assert_ne!(nan, rebuilt(&nan, |_| {}), "a full comparison sees the NaN");
        assert_eq!(nan.validate(3.0).len(), 1, "validate flags the NaN");
    }

    #[test]
    fn validate_accepts_consistent_chains() {
        assert!(toy().validate(3.0).is_empty());
    }

    #[test]
    #[should_panic(expected = "ratio")]
    fn validate_rejects_sub_unit_tolerance() {
        toy().validate(0.5);
    }
}
