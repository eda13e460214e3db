//! Property-based tests for the quantized (i16) datapath and the temporal
//! incremental pyramid:
//!
//! - the blocked f32 kernel is **bit-identical** to the reference
//!   `score_window` (the promise `rtped_detect::kernel` documents);
//! - i16 window scores track f32 scores within the per-window analytic
//!   quantization bound (the same regime the PR-4 quantization ablation
//!   found accuracy-neutral);
//! - the temporal incremental pyramid is **bit-identical** to a stateless
//!   full rebuild across randomized frame-diff patterns, for both
//!   datapaths, both pyramid levels and window strides 1 and 2.

use rtped::core::{check, check_assert, check_assert_eq};
use rtped::dataset::scene::SceneBuilder;
use rtped::detect::detector::{
    score_window, Datapath, Detect, DetectorConfig, FeaturePyramidDetector,
};
use rtped::detect::kernel::{to_f64, F32Kernel};
use rtped::hog::params::HogParams;
use rtped::hog::pyramid::FeaturePyramid;
use rtped::hog::quant::FEATURE_FRAC_BITS;
use rtped::hog::FeatureMap;
use rtped::image::GrayImage;
use rtped::svm::{LinearSvm, QuantModel};

/// Deterministic mixed-sign weights parameterized by a seed.
fn seeded_model(params: &HogParams, seed: u64) -> LinearSvm {
    let dim = params.cell_descriptor_len();
    let weights: Vec<f64> = (0..dim)
        .map(|i| {
            let x = (i as u64)
                .wrapping_mul(0x9E37_79B9_7F4A_7C15)
                .wrapping_add(seed)
                .rotate_left(17);
            (x % 2000) as f64 / 1000.0 - 1.0
        })
        .collect();
    LinearSvm::new(weights, 0.1)
}

fn textured(w: usize, h: usize, seed: usize) -> GrayImage {
    GrayImage::from_fn(w, h, |x, y| {
        ((x * 7 + y * 13 + seed * (x + y + 1) + (x * y) % 29) % 256) as u8
    })
}

/// `frame` with the axis-aligned rectangle inverted — a localized,
/// row-bounded change like a moving object.
fn stamped(frame: &GrayImage, x0: usize, y0: usize, bw: usize, bh: usize) -> GrayImage {
    let (w, h) = frame.dimensions();
    GrayImage::from_fn(w, h, |x, y| {
        if x >= x0 && x < (x0 + bw).min(w) && y >= y0 && y < (y0 + bh).min(h) {
            255 - frame.get(x, y)
        } else {
            frame.get(x, y)
        }
    })
}

check! {
    #![cases = 12]

    fn blocked_kernel_is_bit_identical_to_score_window(
        seed in 0u64..=u64::MAX,
        wpix in 136usize..=224,
        hpix in 144usize..=208,
        stride in 1usize..=2,
    ) {
        let params = HogParams::pedestrian();
        let model = seeded_model(&params, seed);
        let img = textured(wpix, hpix, (seed % 97) as usize);
        let map = FeatureMap::extract(&img, &params);
        let raw64 = to_f64(&map);
        let (wc, hc) = params.window_cells();
        let (gx, gy) = map.cells();
        check_assert!(gx >= wc && gy >= hc, "scene too small for a window");
        let kernel = F32Kernel::new(&raw64, gx, map.cell_features(), wc, hc, &model);
        let rows = (gy - hc) / stride + 1;
        let cols = (gx - wc) / stride + 1;
        let mut out = vec![0.0f64; cols];
        for ry in 0..rows {
            kernel.score_window_row(ry * stride, cols, stride, &mut out);
            for (col, &got) in out.iter().enumerate() {
                let want = score_window(&map, col * stride, ry * stride, &params, &model);
                check_assert_eq!(
                    got.to_bits(),
                    want.to_bits(),
                    "window ({col},{ry}) stride {stride}: {got} != {want}"
                );
            }
        }
    }

    fn i16_scores_stay_within_the_quantization_bound(seed in 0u64..=u64::MAX) {
        let params = HogParams::pedestrian();
        let model = seeded_model(&params, seed);
        let img = textured(168, 176, (seed % 89) as usize);
        let map = FeatureMap::extract(&img, &params);
        let qmap = map.quantized();
        let (wc, hc) = params.window_cells();
        let bins = params.bins();
        let qmodel = QuantModel::from_svm(&model, FEATURE_FRAC_BITS, wc * 4 * bins);
        let (gx, gy) = map.cells();
        let f = map.cell_features();
        let row_len = wc * f;
        let feat_err = 0.5 / f64::from(1u32 << FEATURE_FRAC_BITS);
        let weight_err = 0.5 / f64::from(1u32 << qmodel.weight_frac_bits());
        let sum_abs_w: f64 = model.weights().iter().map(|w| w.abs()).sum();
        for (cy, cx) in [(0, 0), (gy - hc, gx - wc), ((gy - hc) / 2, (gx - wc) / 2)] {
            let f32_score = score_window(&map, cx, cy, &params, &model);
            // Score the whole stride-1 window row and read column cx.
            let cols = cx + 1;
            let mut row = vec![0i64; cols];
            qmap.score_window_row(qmodel.weights(), wc, hc, cy, cols, 1, &mut row[..]);
            let i16_score = qmodel.decision(row[cx]);
            // Per-window analytic bound: |Δ| ≤ Σ|w|·feat_err + Σ|x̂|·weight_err.
            let mut sum_abs_x = 0.0f64;
            for dy in 0..hc {
                let base = ((cy + dy) * gx + cx) * f;
                for &v in &map.as_raw()[base..base + row_len] {
                    sum_abs_x += f64::from(v.abs());
                }
            }
            let bound = sum_abs_w * feat_err + sum_abs_x * weight_err + 1e-9;
            let diff = (f32_score - i16_score).abs();
            check_assert!(
                diff <= bound,
                "window ({cx},{cy}): |{f32_score} - {i16_score}| = {diff} > bound {bound}"
            );
        }
    }

    fn temporal_f32_is_bit_identical_to_stateless(
        seed in 0u64..=u64::MAX,
        hpix in 192usize..=224,
        stride in 1usize..=2,
        x0 in 0usize..120,
        y0 in 0usize..160,
        bw in 4usize..48,
        bh in 4usize..48,
    ) {
        assert_temporal_sequence(Datapath::F32, seed, hpix, stride, [x0, y0, bw, bh]);
    }

    fn temporal_i16_is_bit_identical_to_stateless(
        seed in 0u64..=u64::MAX,
        hpix in 192usize..=224,
        stride in 1usize..=2,
        x0 in 0usize..120,
        y0 in 0usize..160,
        bw in 4usize..48,
        bh in 4usize..48,
    ) {
        assert_temporal_sequence(Datapath::I16, seed, hpix, stride, [x0, y0, bw, bh]);
    }
}

/// Shared body of the temporal properties: a randomized 4-frame sequence
/// (base, two localized stamps, one near-total rewrite = scene cut) must
/// produce exactly the stateless detections at every step. Frames are at
/// least 192 px tall so the 1.5 level is scanned too: that pins the
/// resampled incremental path (`source_rows` / `scaled_rows_into`) next to
/// the identity level, and `stride` pins the dirty-row → window-row
/// mapping at strides 1 and 2.
fn assert_temporal_sequence(
    datapath: Datapath,
    seed: u64,
    hpix: usize,
    stride: usize,
    [x0, y0, bw, bh]: [usize; 4],
) {
    let model = seeded_model(&HogParams::pedestrian(), seed);
    let config = DetectorConfig {
        datapath,
        stride_cells: stride,
        ..DetectorConfig::two_scale()
    };
    let stateless = FeaturePyramidDetector::new(model.clone(), config.clone());
    let temporal = FeaturePyramidDetector::new(
        model,
        DetectorConfig {
            temporal: true,
            ..config.clone()
        },
    );
    let base = textured(160, hpix, (seed % 101) as usize);
    let levels = FeaturePyramid::build(&base, &config.scales, &config.params);
    assert_eq!(levels.levels().len(), 2, "the 1.5 level must be scanned");
    let frames = [
        base.clone(),
        stamped(&base, x0, y0, bw, bh),
        stamped(&base, y0, x0.min(96), bh, bw),
        textured(160, hpix, (seed % 101) as usize + 1), // scene cut
    ];
    for (i, frame) in frames.iter().enumerate() {
        assert_eq!(
            temporal.detect(frame),
            stateless.detect(frame),
            "frame {i} ({datapath}, stride {stride}, {hpix} px) diverged"
        );
    }
    let stats = temporal.temporal_stats().expect("temporal stats");
    assert!(stats.incremental >= 1, "no incremental frame: {stats:?}");
}

/// Detection-level agreement on realistic scenes: the i16 detector must
/// reproduce the f32 detector's decisions except for windows whose score
/// sits within the quantization tolerance of the threshold.
#[test]
fn i16_detections_match_f32_up_to_near_threshold_flips() {
    const EPS: f64 = 0.1; // comfortably above the observed ~0.01 drift
    let params = HogParams::pedestrian();
    for seed in [5u64, 29, 73] {
        let scene = SceneBuilder::new(320, 240)
            .seed(seed)
            .pedestrian_window(64, 128, 1.0)
            .pedestrian_window(64, 128, 1.5)
            .build();
        let model = seeded_model(&params, seed);
        let config = DetectorConfig {
            threshold: 0.5,
            nms_iou: None, // raw window decisions, no set-level amplification
            ..DetectorConfig::two_scale()
        };
        let f32_det = FeaturePyramidDetector::new(model.clone(), config.clone());
        let i16_det = FeaturePyramidDetector::new(
            model,
            DetectorConfig {
                datapath: Datapath::I16,
                ..config
            },
        );
        let f32_hits = f32_det.detect(&scene.frame);
        let i16_hits = i16_det.detect(&scene.frame);
        assert!(
            !f32_hits.is_empty(),
            "seed {seed}: scene produced no detections to compare"
        );
        let check_contained = |from: &[rtped::detect::detector::Detection],
                               into: &[rtped::detect::detector::Detection],
                               label: &str| {
            for d in from {
                let twin = into.iter().find(|o| o.bbox == d.bbox && o.scale == d.scale);
                match twin {
                    Some(o) => assert!(
                        (o.score - d.score).abs() <= EPS,
                        "seed {seed} {label}: score drift {} at {:?}",
                        (o.score - d.score).abs(),
                        d.bbox
                    ),
                    None => assert!(
                        (d.score - 0.5).abs() <= EPS,
                        "seed {seed} {label}: non-marginal detection {:?} (score {}) \
                         missing from the other datapath",
                        d.bbox,
                        d.score
                    ),
                }
            }
        };
        check_contained(&f32_hits, &i16_hits, "f32→i16");
        check_contained(&i16_hits, &f32_hits, "i16→f32");
    }
}
