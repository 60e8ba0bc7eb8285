//! # h2p-models
//!
//! Layer-graph representations of the ten DNNs used in the Hetero²Pipe
//! evaluation, plus the analytical cost model that maps layers onto the
//! heterogeneous processors of [`h2p_simulator`].
//!
//! The paper runs pre-trained ONNX models through the MNN framework on
//! real silicon. This crate substitutes that stack with:
//!
//! * [`layer`] / [`graph`] — linearized layer chains carrying per-layer
//!   FLOPs, tensor sizes, operator kinds and locality, derived from the
//!   published architectures (VGG16's 13 conv + 3 FC layers, BERT-base's
//!   12 encoder blocks with 768×768 attention and 768×3072 FFN MatMuls,
//!   SqueezeNet's fire modules, …).
//! * [`zoo`] — constructors for AlexNet, VGG16, GoogLeNet, InceptionV4,
//!   ResNet50, YOLOv4, MobileNetV2, SqueezeNet, BERT and ViT.
//! * [`cost`] — a roofline cost model: per-layer latency on a processor is
//!   `max(compute_ms, memory_ms) + kernel_overhead`, with per-operator
//!   efficiency factors, an L2-spill traffic multiplier, NPU operator
//!   support (YOLOv4 and BERT contain NPU-unsupported operators, as in
//!   Fig. 1), and inter-processor tensor-copy costs.
//! * [`batch`] — the affine batch-latency model of Appendix D.
//!
//! ## Example
//!
//! ```
//! use h2p_models::zoo::ModelId;
//! use h2p_models::cost::CostModel;
//! use h2p_simulator::SocSpec;
//!
//! let soc = SocSpec::kirin_990();
//! let cost = CostModel::new(&soc);
//! let bert = ModelId::Bert.graph();
//! let npu = soc.processor_by_name("NPU").expect("kirin has an NPU");
//! // BERT contains NPU-unsupported operators (embedding lookup), so the
//! // whole-model NPU latency is unavailable without fallback:
//! assert!(cost.model_latency_ms(&bert, npu).is_none());
//! ```

#![forbid(unsafe_code)]
#![cfg_attr(
    test,
    allow(clippy::unwrap_used, clippy::expect_used, reason = "tests may panic")
)]

pub mod batch;
pub mod cost;
pub mod graph;
pub mod layer;
pub mod profile;
pub mod zoo;

pub use cost::CostModel;
pub use graph::ModelGraph;
pub use layer::{Layer, OpKind};
pub use profile::ProfileTable;
pub use zoo::ModelId;
