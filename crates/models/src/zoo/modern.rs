//! Modern CNNs: ResNet50, MobileNetV2 and the YOLOv4 detector.

use super::builders::*;
use crate::graph::ModelGraph;
use crate::layer::f32_bytes;

/// ResNet50 (He 2015): stem + 16 bottleneck blocks + FC, ~25.6 M params,
/// ~4.1 GFLOPs (MACs) at 224×224.
pub fn resnet50() -> ModelGraph {
    let mut layers = vec![
        conv("conv1", 224, 224, 3, 64, 7, 2),
        pool("pool1", 112, 112, 64, 3, 2),
    ];
    // (blocks, h, w, cin_first, mid, cout, stride_first)
    let stages: [(usize, u64, u64, u64, u64, u64); 4] = [
        (3, 56, 56, 64, 64, 256),
        (4, 56, 56, 256, 128, 512),
        (6, 28, 28, 512, 256, 1024),
        (3, 14, 14, 1024, 512, 2048),
    ];
    for (s, &(blocks, h, w, cin, mid, cout)) in stages.iter().enumerate() {
        for b in 0..blocks {
            let stride = if b == 0 && s > 0 { 2 } else { 1 };
            let (bh, bw) = if b == 0 {
                (h, w)
            } else {
                (h / if s > 0 { 2 } else { 1 }, w / if s > 0 { 2 } else { 1 })
            };
            let bcin = if b == 0 { cin } else { cout };
            layers.push(bottleneck(
                &format!("res{}_{b}", s + 2),
                bh,
                bw,
                bcin,
                mid,
                cout,
                stride,
            ));
        }
    }
    layers.push(global_pool("pool5", 7, 7, 2048));
    layers.push(fc("fc", 2048, 1000));
    layers.push(softmax("prob", 1000));
    ModelGraph::new("ResNet50", f32_bytes(224 * 224 * 3), layers)
}

/// MobileNetV2 (Sandler 2018): stem + 17 inverted-residual blocks,
/// ~3.5 M params, ~0.3 GFLOPs (MACs) at 224×224. The canonical
/// lightweight model the paper batches (Appendix D).
pub fn mobilenetv2() -> ModelGraph {
    let mut layers = vec![conv("conv1", 224, 224, 3, 32, 3, 2)];
    // (repeat, cin, cout, expand, stride_first, h, w) per published config.
    let cfg: [(usize, u64, u64, u64, u64, u64, u64); 7] = [
        (1, 32, 16, 1, 1, 112, 112),
        (2, 16, 24, 6, 2, 112, 112),
        (3, 24, 32, 6, 2, 56, 56),
        (4, 32, 64, 6, 2, 28, 28),
        (3, 64, 96, 6, 1, 14, 14),
        (3, 96, 160, 6, 2, 14, 14),
        (1, 160, 320, 6, 1, 7, 7),
    ];
    let mut idx = 0;
    for &(repeat, cin, cout, expand, stride, h, w) in &cfg {
        for r in 0..repeat {
            let (bh, bw) = if r == 0 {
                (h, w)
            } else {
                (h / stride.max(1), w / stride.max(1))
            };
            let bcin = if r == 0 { cin } else { cout };
            let bstride = if r == 0 { stride } else { 1 };
            layers.push(inverted_residual(
                &format!("ir{idx}"),
                bh,
                bw,
                bcin,
                cout,
                expand,
                bstride,
            ));
            idx += 1;
        }
    }
    layers.push(conv("conv_last", 7, 7, 320, 1280, 1, 1));
    layers.push(global_pool("pool", 7, 7, 1280));
    layers.push(fc("fc", 1280, 1000));
    layers.push(softmax("prob", 1000));
    ModelGraph::new("MobileNetV2", f32_bytes(224 * 224 * 3), layers)
}

/// ResNet50 at *layer* granularity: every bottleneck block expanded into
/// its explicit 1×1 / 3×3 / 1×1 convolutions plus the residual add
/// (53 weighted layers + stem/pool/head ≈ 58 slices).
///
/// The paper's Definition 1 deliberately chooses coarse-grained slicing
/// ("it is computationally intensive to provide a layer-wise granularity
/// for slicing large models"); this variant exists to quantify that
/// trade-off — see the `ext_granularity` experiment.
pub fn resnet50_unfused() -> ModelGraph {
    let mut layers = vec![
        conv("conv1", 224, 224, 3, 64, 7, 2),
        pool("pool1", 112, 112, 64, 3, 2),
    ];
    let stages: [(usize, u64, u64, u64, u64); 4] = [
        (3, 56, 64, 64, 256),
        (4, 28, 256, 128, 512),
        (6, 14, 512, 256, 1024),
        (3, 7, 1024, 512, 2048),
    ];
    for (s, &(blocks, hw, cin_first, mid, cout)) in stages.iter().enumerate() {
        for b in 0..blocks {
            let cin = if b == 0 { cin_first } else { cout };
            let prefix = format!("res{}_{b}", s + 2);
            // The stride-2 downsampling happens in the first block's 1x1
            // of stages 3..5 (stage 2 keeps the post-pool resolution).
            if b == 0 && s > 0 {
                layers.push(conv(&format!("{prefix}_a"), 2 * hw, 2 * hw, cin, mid, 1, 2));
            } else {
                layers.push(conv(&format!("{prefix}_a"), hw, hw, cin, mid, 1, 1));
            }
            layers.push(conv(&format!("{prefix}_b"), hw, hw, mid, mid, 3, 1));
            layers.push(conv(&format!("{prefix}_c"), hw, hw, mid, cout, 1, 1));
            layers.push(
                crate::layer::Layer::new(
                    format!("{prefix}_add"),
                    crate::layer::OpKind::Eltwise,
                    2.0 * (hw * hw * cout) as f64,
                    f32_bytes(hw * hw * cout),
                    f32_bytes(hw * hw * cout),
                    0,
                )
                .locality(0.9),
            );
        }
    }
    layers.push(global_pool("pool5", 7, 7, 2048));
    layers.push(fc("fc", 2048, 1000));
    layers.push(softmax("prob", 1000));
    ModelGraph::new("ResNet50-unfused", f32_bytes(224 * 224 * 3), layers)
}

/// YOLOv4 (Bochkovskiy 2020): CSPDarknet53 backbone with Mish
/// activations, SPP + PANet neck with upsampling, three detection heads.
/// ~64 M params, tens of GFLOPs at 416×416. The Mish and upsample
/// operators are NPU-unsupported, forcing operator fallback (Fig. 1).
pub fn yolov4() -> ModelGraph {
    let mut layers = vec![
        conv("conv0", 416, 416, 3, 32, 3, 1),
        mish("mish0", 416, 416, 32),
    ];
    // CSP stages: (blocks, h, w, cin, cout)
    let stages: [(usize, u64, u64, u64, u64); 5] = [
        (1, 416, 416, 32, 64),
        (2, 208, 208, 64, 128),
        (8, 104, 104, 128, 256),
        (8, 52, 52, 256, 512),
        (4, 26, 26, 512, 1024),
    ];
    for (s, &(blocks, h, w, cin, cout)) in stages.iter().enumerate() {
        layers.push(conv(&format!("down{s}"), h, w, cin, cout, 3, 2));
        layers.push(mish(&format!("mish_d{s}"), h / 2, w / 2, cout));
        for b in 0..blocks {
            // Darknet residual unit: 1x1 reduce to half + 3x3 back to full.
            let half = cout / 2;
            let f = 2.0 * ((cout * half + 9 * half * cout) * (h / 2) * (w / 2)) as f64;
            let weights = cout * half + 9 * half * cout;
            layers.push(
                crate::layer::Layer::new(
                    format!("csp{s}_{b}"),
                    crate::layer::OpKind::Eltwise,
                    f,
                    f32_bytes((h / 2) * (w / 2) * cout),
                    f32_bytes((h / 2) * (w / 2) * cout),
                    f32_bytes(weights),
                )
                .locality(0.7),
            );
        }
    }
    // SPP block over 13x13x1024.
    layers.push(pool("spp", 13, 13, 1024, 13, 1));
    // PANet neck with two upsampling paths (NPU-unsupported) and the
    // three detection heads interleaved in topological order: each head
    // consumes its own neck level's feature map.
    layers.push(conv("neck0", 13, 13, 1024, 512, 1, 1));
    layers.push(conv("head_l", 13, 13, 512, 255, 1, 1));
    layers.push(upsample("up1", 13, 13, 256));
    layers.push(conv("neck1", 26, 26, 768, 256, 3, 1));
    layers.push(conv("head_m", 26, 26, 256, 255, 1, 1));
    layers.push(upsample("up2", 26, 26, 128));
    layers.push(conv("neck2", 52, 52, 384, 128, 3, 1));
    layers.push(conv("head_s", 52, 52, 128, 255, 1, 1));
    ModelGraph::new("YOLOv4", f32_bytes(416 * 416 * 3), layers)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn resnet50_matches_published_scale() {
        let g = resnet50();
        let p = g.weight_bytes() / 4;
        assert!((20_000_000..32_000_000).contains(&p), "got {p}");
        let gf = g.total_flops() / 1e9;
        assert!((6.0..11.0).contains(&gf), "got {gf} GFLOPs (MACs×2)");
    }

    #[test]
    fn mobilenetv2_is_light() {
        let g = mobilenetv2();
        let p = g.weight_bytes() / 4;
        assert!(p < 6_000_000, "got {p}");
        let gf = g.total_flops() / 1e9;
        assert!(gf < 1.5, "got {gf} GFLOPs");
    }

    #[test]
    fn yolov4_is_heavy_and_not_npu_supported() {
        let g = yolov4();
        assert!(!g.fully_npu_supported(), "Mish/upsample break NPU support");
        let gf = g.total_flops() / 1e9;
        assert!(gf > 20.0, "got {gf} GFLOPs");
        let p = g.weight_bytes() / 4;
        assert!((40_000_000..90_000_000).contains(&p), "got {p}");
    }

    #[test]
    fn unfused_resnet_matches_fused_aggregates() {
        let fused = resnet50();
        let unfused = resnet50_unfused();
        assert!(unfused.len() > 2 * fused.len(), "finer granularity");
        // Same architecture: FLOPs and parameters agree within the
        // fused blocks' projection-conv approximation (~15%).
        let flops_ratio = unfused.total_flops() / fused.total_flops();
        assert!((0.8..1.2).contains(&flops_ratio), "got {flops_ratio}");
        let param_ratio = unfused.weight_bytes() as f64 / fused.weight_bytes() as f64;
        assert!((0.8..1.2).contains(&param_ratio), "got {param_ratio}");
        assert!(unfused.fully_npu_supported());
        assert!(
            unfused.validate(3.0).is_empty(),
            "{:?}",
            unfused.validate(3.0)
        );
    }

    #[test]
    fn resnet_and_mobilenet_are_npu_supported() {
        assert!(resnet50().fully_npu_supported());
        assert!(mobilenetv2().fully_npu_supported());
    }

    #[test]
    fn yolov4_has_supported_prefix_before_first_mish() {
        let g = yolov4();
        assert!(g.layers()[0].op.npu_supported());
        assert!(!g.layers()[1].op.npu_supported());
    }
}
