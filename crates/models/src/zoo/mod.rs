//! The model zoo: the ten DNNs of the paper's evaluation
//! ("a combination of 10 representative DNNs: AlexNet, VGG16, GoogLeNet,
//! Inceptionv4, ResNet50, YOLOv4, MobileNetV2, SqueezeNet, BERT and ViT").

pub(crate) mod builders;
pub(crate) mod classic;
pub(crate) mod modern;
pub(crate) mod transformer;

use std::sync::OnceLock;

use serde::{Deserialize, Serialize};

use crate::graph::ModelGraph;

pub use modern::resnet50_unfused;
pub use transformer::{bert_with_seq, vit_at, BERT_SEQ, VIT_TOKENS};

/// Identifier of one of the ten evaluation networks.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Serialize, Deserialize)]
pub enum ModelId {
    /// AlexNet — classic 8-layer CNN with giant FC layers.
    AlexNet,
    /// VGG16 — 138 M-parameter CNN, heavy FC tail.
    Vgg16,
    /// GoogLeNet — inception modules, small but contention-heavy.
    GoogLeNet,
    /// InceptionV4 — deep inception network.
    InceptionV4,
    /// ResNet50 — residual bottleneck CNN.
    ResNet50,
    /// YOLOv4 — object detector with NPU-unsupported operators.
    YoloV4,
    /// MobileNetV2 — lightweight depthwise-separable CNN.
    MobileNetV2,
    /// SqueezeNet — 4.8 MB fire-module CNN, the Observation-3 outlier.
    SqueezeNet,
    /// BERT-base — 12-block transformer encoder, NPU-unsupported embedding.
    Bert,
    /// ViT-B/16 — vision transformer.
    Vit,
}

impl ModelId {
    /// All ten models, in the paper's listing order.
    pub const ALL: [ModelId; 10] = [
        ModelId::AlexNet,
        ModelId::Vgg16,
        ModelId::GoogLeNet,
        ModelId::InceptionV4,
        ModelId::ResNet50,
        ModelId::YoloV4,
        ModelId::MobileNetV2,
        ModelId::SqueezeNet,
        ModelId::Bert,
        ModelId::Vit,
    ];

    /// The model's display name.
    pub fn name(self) -> &'static str {
        match self {
            ModelId::AlexNet => "AlexNet",
            ModelId::Vgg16 => "VGG16",
            ModelId::GoogLeNet => "GoogLeNet",
            ModelId::InceptionV4 => "InceptionV4",
            ModelId::ResNet50 => "ResNet50",
            ModelId::YoloV4 => "YOLOv4",
            ModelId::MobileNetV2 => "MobileNetV2",
            ModelId::SqueezeNet => "SqueezeNet",
            ModelId::Bert => "BERT",
            ModelId::Vit => "ViT",
        }
    }

    /// The model's layer graph. Each graph is built once per process
    /// and cloned from then on: every call returns a graph sharing that
    /// one copy's storage, so repeated calls cost two reference-count
    /// increments and compare equal by pointer.
    pub fn graph(self) -> ModelGraph {
        static GRAPHS: OnceLock<Vec<ModelGraph>> = OnceLock::new();
        // `ALL` lists the variants in declaration order, so a variant's
        // discriminant is its index in `ALL`.
        GRAPHS.get_or_init(|| Self::ALL.map(Self::build).into())[self as usize].clone()
    }

    /// Builds the model's layer graph from scratch.
    fn build(self) -> ModelGraph {
        match self {
            ModelId::AlexNet => classic::alexnet(),
            ModelId::Vgg16 => classic::vgg16(),
            ModelId::GoogLeNet => classic::googlenet(),
            ModelId::InceptionV4 => classic::inceptionv4(),
            ModelId::ResNet50 => modern::resnet50(),
            ModelId::YoloV4 => modern::yolov4(),
            ModelId::MobileNetV2 => modern::mobilenetv2(),
            ModelId::SqueezeNet => classic::squeezenet(),
            ModelId::Bert => transformer::bert(),
            ModelId::Vit => transformer::vit(),
        }
    }

    /// Whether the paper's evaluation classifies this model as
    /// *lightweight* (under 100 MB in Fig. 9's tiering; candidates for
    /// Appendix-D batching).
    pub fn is_lightweight(self) -> bool {
        matches!(
            self,
            ModelId::SqueezeNet | ModelId::MobileNetV2 | ModelId::GoogLeNet
        )
    }

    /// The paper's Fig. 9 memory tier: large (>300 MB), medium
    /// (100–300 MB) or light (<100 MB).
    pub fn memory_tier(self) -> MemoryTier {
        match self {
            ModelId::Bert | ModelId::Vit | ModelId::YoloV4 | ModelId::Vgg16 => MemoryTier::Large,
            ModelId::InceptionV4 | ModelId::ResNet50 | ModelId::AlexNet => MemoryTier::Medium,
            ModelId::SqueezeNet | ModelId::MobileNetV2 | ModelId::GoogLeNet => MemoryTier::Light,
        }
    }
}

impl std::fmt::Display for ModelId {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.name())
    }
}

/// Fig. 9 memory-footprint tiers.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum MemoryTier {
    /// Models over ~300 MB runtime footprint (BERT, ViT, YOLOv4, VGG16).
    Large,
    /// Models between ~100 and ~300 MB (InceptionV4, ResNet50, AlexNet).
    Medium,
    /// Models under ~100 MB (SqueezeNet, MobileNetV2, GoogLeNet).
    Light,
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn all_ten_models_build_nonempty_graphs() {
        for id in ModelId::ALL {
            let g = id.graph();
            assert!(!g.is_empty(), "{id}");
            assert!(g.total_flops() > 0.0, "{id}");
            assert_eq!(g.name(), id.name());
        }
    }

    #[test]
    fn zoo_graphs_pass_structural_validation() {
        // Fused blocks and valid-vs-same padding allow small tensor-chain
        // discrepancies; anything beyond 3x indicates a construction bug.
        for id in ModelId::ALL {
            let problems = id.graph().validate(3.0);
            assert!(problems.is_empty(), "{id}: {problems:?}");
        }
    }

    #[test]
    fn graphs_are_deterministic() {
        for id in ModelId::ALL {
            assert_eq!(id.build(), id.build(), "{id}");
        }
    }

    /// The memo hands out each model's own graph (which also pins the
    /// discriminant-to-`ALL` indexing), on repeated calls and from
    /// threads that may race to initialise it.
    #[test]
    fn memoized_graphs_equal_fresh_builds() {
        let fresh: Vec<ModelGraph> = ModelId::ALL.map(ModelId::build).into();
        let check = || {
            for (id, graph) in ModelId::ALL.into_iter().zip(&fresh) {
                assert_eq!(&id.graph(), graph, "{id}");
            }
        };
        std::thread::scope(|scope| {
            for _ in 0..4 {
                scope.spawn(check);
            }
        });
        check();
        check();
    }

    #[test]
    fn memory_tiers_follow_model_size_ordering() {
        use MemoryTier::*;
        for id in ModelId::ALL {
            let mb = id.graph().footprint_bytes() as f64 / (1024.0 * 1024.0);
            match id.memory_tier() {
                Large => assert!(mb > 100.0, "{id}: {mb} MB should be large-ish"),
                Medium => assert!((20.0..400.0).contains(&mb), "{id}: {mb} MB"),
                Light => assert!(mb < 100.0, "{id}: {mb} MB should be light"),
            }
        }
    }

    #[test]
    fn lightweight_models_are_the_light_tier() {
        for id in ModelId::ALL {
            assert_eq!(
                id.is_lightweight(),
                id.memory_tier() == MemoryTier::Light,
                "{id}"
            );
        }
    }

    #[test]
    fn exactly_two_models_lack_npu_support() {
        let unsupported: Vec<ModelId> = ModelId::ALL
            .into_iter()
            .filter(|id| !id.graph().fully_npu_supported())
            .collect();
        assert_eq!(
            unsupported,
            vec![ModelId::YoloV4, ModelId::Bert],
            "Fig. 1 reports NPU errors exactly for YOLOv4 and BERT"
        );
    }
}
