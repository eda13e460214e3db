//! The two in-process workloads: `drive-1080p` (moving camera, temporal
//! cache off) and `parked-1080p` (static camera, temporal cache on). Both
//! run `FeaturePyramidDetector` on the i16 datapath with the committed
//! model, then `Tracker::step`, in a closed loop over pre-generated
//! frames.

use std::collections::BTreeMap;
use std::time::Instant;

use rtped_detect::detector::{Detect, Detection, DetectorBuilder, FeaturePyramidDetector};
use rtped_detect::nms::non_maximum_suppression;
use rtped_detect::tracker::{Tracker, TrackerParams};
use rtped_detect::Datapath;
use rtped_hog::feature_map::FeatureMap;
use rtped_hog::grid::CellGrid;
use rtped_hog::pyramid::FeaturePyramid;
use rtped_image::GrayImage;
use rtped_svm::io::load_model;

use crate::stats::{cpu_seconds, host_ticks, median, peak_rss_mb, percentile};
use crate::trace::Trace;
use crate::{scenes, Args, Report};

pub const MODEL_PATH: &str = "models/pedestrian_synthetic.json";
/// Distinct frames per ring; the loops cycle through them.
const DRIVE_RING: usize = 32;
const PARKED_RING: usize = 48;
/// Set-up repetitions; `setup_s` is their median. More would steady it,
/// but the timed loop that follows feels the set-up's history: with 15,
/// parked-1080p's loop measured 7–10 % slower than with 5 (same seeds,
/// alternating runs).
const SETUP_REPS: usize = 5;
/// Segments per timed loop, and how many of the least-stolen ones the
/// frame metrics use (enough for ≥ 10 frames beyond p95 on drive).
const SEGMENTS: usize = 20;
const KEPT_SEGMENTS: usize = 12;
/// MACs per window: a 64×128 window is 8×16 cells × 36 features.
const MACS_PER_WINDOW: f64 = 4608.0;

/// Loads the model and builds the detector (the workloads' set-up).
fn build_detector(temporal: bool, nms: bool) -> Result<FeaturePyramidDetector, String> {
    let model = load_model(MODEL_PATH).map_err(|e| format!("{MODEL_PATH}: {e}"))?;
    let builder = DetectorBuilder::new(model)
        .datapath(Datapath::I16)
        .temporal(temporal);
    let builder = if nms { builder } else { builder.no_nms() };
    builder.build().map_err(|e| e.to_string())
}

/// Set-up, `SETUP_REPS` times: load the model, build the detector and
/// serve the first frame (the time to a first result). Returns the last
/// detector and the median set-up time in seconds.
fn timed_setup(temporal: bool, first: &GrayImage) -> Result<(FeaturePyramidDetector, f64), String> {
    let mut times = Vec::new();
    let mut detector = None;
    for _ in 0..SETUP_REPS {
        let t0 = Instant::now();
        let built = build_detector(temporal, true)?;
        std::hint::black_box(built.detect(first));
        times.push(t0.elapsed().as_secs_f64());
        detector = Some(built);
    }
    Ok((detector.expect("at least one set-up"), median(&times)))
}

fn same(a: &[Detection], b: &[Detection]) -> bool {
    a.len() == b.len()
        && a.iter().zip(b).all(|(x, y)| {
            x.bbox == y.bbox
                && x.score.to_bits() == y.score.to_bits()
                && x.scale.to_bits() == y.scale.to_bits()
        })
}

/// FNV-1a digest over detection lists, in order.
fn digest<'a>(lists: impl Iterator<Item = &'a Vec<Detection>>) -> u64 {
    let mut bytes = Vec::new();
    for list in lists {
        bytes.extend((list.len() as u64).to_le_bytes());
        for d in list {
            for v in [
                d.bbox.x as u64,
                d.bbox.y as u64,
                d.bbox.width,
                d.bbox.height,
                d.score.to_bits(),
                d.scale.to_bits(),
            ] {
                bytes.extend(v.to_le_bytes());
            }
        }
    }
    rtped_serve::tenant::fnv1a(&bytes)
}

/// Windows the configured scan visits over a pyramid.
fn windows(pyramid: &FeaturePyramid, detector: &FeaturePyramidDetector) -> usize {
    let config = detector.config();
    let (wc, hc) = config.params.window_cells();
    let stride = config.stride_cells;
    pyramid
        .levels()
        .iter()
        .map(|level| {
            let (gx, gy) = level.features.cells();
            if gx < wc || gy < hc {
                0
            } else {
                ((gx - wc) / stride + 1) * ((gy - hc) / stride + 1)
            }
        })
        .sum()
}

/// Per-frame counts of the stateless decomposition.
struct Decomposed {
    detections: Vec<Detection>,
    windows: usize,
    raw_hits: usize,
}

/// The stateless detect path, split at the public layer calls with a
/// span around each: grid, normalize, `detect_on_features` with NMS off
/// (its pyramid and quantize children re-run alone to split off the
/// scan), then NMS.
fn traced_detect(
    trace: &mut Trace,
    op: u64,
    parent: Option<usize>,
    frame: &GrayImage,
    nms_off: &FeaturePyramidDetector,
    iou: f64,
) -> Decomposed {
    let config = nms_off.config();
    let params = &config.params;
    let grid = trace.time("hog.grid", op, parent, || CellGrid::compute(frame, params));
    let base = trace.time("hog.normalize", op, parent, || {
        FeatureMap::from_cell_grid(&grid, params)
    });
    let scan = trace.begin("detect.scan", op, parent);
    let raw = nms_off.detect_on_features(&base);
    trace.end(scan);
    let pyramid = trace.time("hog.pyramid", op, Some(scan), || {
        FeaturePyramid::from_base(&base, &config.scales, params)
    });
    if config.datapath == Datapath::I16 {
        for level in pyramid.levels() {
            let q = trace.time("hog.quant", op, Some(scan), || level.features.quantized());
            std::hint::black_box(q);
        }
    }
    let raw_hits = raw.len();
    let detections = trace.time("detect.nms", op, parent, || {
        non_maximum_suppression(raw, iou)
    });
    Decomposed {
        detections,
        windows: windows(&pyramid, nms_off),
        raw_hits,
    }
}

/// Adds the per-layer medians of a decomposed trace to `report`.
fn layer_metrics(report: &mut Report, trace: &Trace, decomposed: &[Decomposed]) {
    let n = decomposed.len();
    for (metric, span) in [
        ("hog.grid_ms", "hog.grid"),
        ("hog.normalize_ms", "hog.normalize"),
        ("hog.pyramid_ms", "hog.pyramid"),
        ("hog.quant_ms", "hog.quant"),
        ("detect.scan_ms", "detect.scan"),
        ("detect.nms_ms", "detect.nms"),
    ] {
        let (value, samples) = trace.median_self_ms(span);
        report.metric(metric, value, samples);
    }
    let windows = median(
        &decomposed
            .iter()
            .map(|d| d.windows as f64)
            .collect::<Vec<_>>(),
    );
    let (scan_ms, _) = trace.median_self_ms("detect.scan");
    report.metric("detect.windows", windows, n);
    report.metric(
        "detect.raw_hits",
        median(
            &decomposed
                .iter()
                .map(|d| d.raw_hits as f64)
                .collect::<Vec<_>>(),
        ),
        n,
    );
    report.metric(
        "detect.detections",
        median(
            &decomposed
                .iter()
                .map(|d| d.detections.len() as f64)
                .collect::<Vec<_>>(),
        ),
        n,
    );
    if scan_ms > 0.0 {
        report.metric(
            "detect.scan_gmac_s",
            windows * MACS_PER_WINDOW / (scan_ms * 1e-3) / 1e9,
            n,
        );
    }
}

/// Where a segment of the timed loop starts: wall clock, host ticks and
/// this process's CPU time.
struct Mark {
    at: Instant,
    steal: u64,
    total: u64,
    cpu_s: f64,
}

impl Mark {
    fn now() -> Self {
        let (steal, total) = host_ticks();
        Mark {
            at: Instant::now(),
            steal,
            total,
            cpu_s: cpu_seconds("self"),
        }
    }
}

/// Runs `step` (detect + track frame `i` of the ring `frames`) in a
/// closed loop for `seconds`, split into `SEGMENTS` equal segments, and
/// returns every output in order. The frame metrics come from the
/// `KEPT_SEGMENTS` segments in which the hypervisor stole the least CPU
/// time: on a shared host, steal bursts and not the code drive most of
/// the run-to-run spread. `peak_rss_mb` leaves out the ring, which the
/// benchmark and not the detector holds.
fn closed_loop(
    report: &mut Report,
    seconds: f64,
    frames: &[GrayImage],
    mut step: impl FnMut(usize) -> Vec<Detection>,
) -> Vec<(usize, Vec<Detection>)> {
    let ring = frames.len();
    let segment_s = seconds / SEGMENTS as f64;
    let mut outputs = Vec::new();
    let mut times: Vec<(usize, f64)> = Vec::new();
    let mut marks = vec![Mark::now()];
    while marks.len() <= SEGMENTS {
        let segment = marks.len() - 1;
        if marks[0].at.elapsed().as_secs_f64() >= segment_s * (segment + 1) as f64 {
            marks.push(Mark::now());
            continue;
        }
        let i = outputs.len() % ring;
        let start = Instant::now();
        let dets = step(i);
        times.push((segment, start.elapsed().as_secs_f64() * 1e3));
        outputs.push((i, dets));
    }
    let steal = |a: &Mark, b: &Mark| (b.steal - a.steal) as f64 / (b.total - a.total).max(1) as f64;
    let mut order: Vec<usize> = (0..SEGMENTS).collect();
    order.sort_by(|&a, &b| {
        steal(&marks[a], &marks[a + 1]).total_cmp(&steal(&marks[b], &marks[b + 1]))
    });
    let kept = &order[..KEPT_SEGMENTS];
    let kept_ms: Vec<f64> = times
        .iter()
        .filter(|(seg, _)| kept.contains(seg))
        .map(|&(_, ms)| ms)
        .collect();
    let span = |k: &usize| (&marks[*k], &marks[*k + 1]);
    let wall_s: f64 = kept
        .iter()
        .map(span)
        .map(|(a, b)| (b.at - a.at).as_secs_f64())
        .sum();
    let cpu_s: f64 = kept.iter().map(span).map(|(a, b)| b.cpu_s - a.cpu_s).sum();
    let n = kept_ms.len();
    report.metric("latency_ms.p50", percentile(&kept_ms, 50.0), n);
    report.metric("latency_ms.p95", percentile(&kept_ms, 95.0), n);
    report.metric("throughput_per_s", n as f64 / wall_s, n);
    report.metric("cpu_ms_per_op", cpu_s * 1e3 / n as f64, n);
    let hwm_mb = peak_rss_mb("self");
    let ring_mb = frames.iter().map(|f| f.as_raw().len()).sum::<usize>() as f64 / (1 << 20) as f64;
    report.metric("peak_rss_mb", hwm_mb - ring_mb, 1);
    report.input(
        "VmHWM / frame ring (MB)",
        format!("{hwm_mb:.1} / {ring_mb:.1}"),
    );
    let kept_steal: Vec<f64> = kept.iter().map(span).map(|(a, b)| steal(a, b)).collect();
    report.input(
        "host steal, whole loop / kept segments",
        format!(
            "{:.3} / {:.3} (max {:.3})",
            steal(&marks[0], &marks[SEGMENTS]),
            median(&kept_steal),
            kept_steal.iter().copied().fold(0.0, f64::max)
        ),
    );
    report.input("frames timed / kept", format!("{} / {n}", outputs.len()));
    outputs
}

fn input_properties(report: &mut Report, frames: &[GrayImage]) {
    let (identical, cuts) = scenes::row_stats(frames);
    report.input("identical_row_frac", format!("{identical:.4}"));
    report.input("scene_cut_frac", format!("{cuts:.4}"));
    report.input("frames in ring", frames.len());
    report.metric("input.identical_row_frac", identical, frames.len());
    report.metric("input.scene_cut_frac", cuts, frames.len());
}

/// Runs `f` with the worker pool forced to one thread.
fn serially<R>(f: impl FnOnce() -> R) -> R {
    let previous = std::env::var(rtped_core::par::THREADS_ENV).ok();
    std::env::set_var(rtped_core::par::THREADS_ENV, "1");
    let out = f();
    match previous {
        Some(value) => std::env::set_var(rtped_core::par::THREADS_ENV, value),
        None => std::env::remove_var(rtped_core::par::THREADS_ENV),
    }
    out
}

pub fn drive(args: &Args) -> Result<Report, String> {
    let frames = scenes::drive(args.seed, DRIVE_RING);
    let mut report = Report::default();
    input_properties(&mut report, &frames);
    let (detector, setup_s) = timed_setup(false, &frames[0])?;
    let mut tracker = Tracker::new(TrackerParams::default());
    for frame in frames.iter().take(2) {
        tracker.step(&detector.detect(frame));
    }
    if args.trace {
        return drive_traced(args, report, &frames, &detector);
    }

    report.metric("setup_s", setup_s, SETUP_REPS);
    let outputs = closed_loop(&mut report, args.seconds, &frames, |i| {
        let dets = detector.detect(&frames[i]);
        tracker.step(&dets);
        dets
    });

    // Output check: every parallel result equals the serial detector's on
    // the same frame.
    let used = outputs.len().min(frames.len());
    let serial: Vec<Vec<Detection>> =
        serially(|| frames[..used].iter().map(|f| detector.detect(f)).collect());
    report.attempted = outputs.len() as u64;
    for (k, (i, dets)) in outputs.iter().enumerate() {
        if !same(dets, &serial[*i]) {
            report.mismatch(format!("frame {k} (ring {i}): parallel != serial"));
        }
    }
    report.input(
        "detections digest",
        format!("{:016x}", digest(outputs.iter().map(|(_, d)| d))),
    );
    report.input("windows per frame", {
        let pyramid = FeaturePyramid::from_base(
            &FeatureMap::extract(&frames[0], &detector.config().params),
            &detector.config().scales,
            &detector.config().params,
        );
        windows(&pyramid, &detector)
    });
    report.input(
        "detections per frame (median)",
        median(
            &outputs
                .iter()
                .map(|(_, d)| d.len() as f64)
                .collect::<Vec<_>>(),
        ),
    );
    Ok(report)
}

/// Traced `drive-1080p`: see [`detect_layers`].
fn drive_traced(
    args: &Args,
    mut report: Report,
    frames: &[GrayImage],
    detector: &FeaturePyramidDetector,
) -> Result<Report, String> {
    let nms_off = build_detector(false, false)?;
    let t0 = Instant::now();
    detect_layers(&mut report, frames, detector, &nms_off, |op| {
        (t0.elapsed().as_secs_f64() < args.seconds).then_some(op as usize % frames.len())
    });
    Ok(report)
}

/// Runs operation `op` once untraced (`plain`) and once traced, the
/// untraced one first on even operations, so that neither always finds
/// the caches warmed by the other.
fn alternate<P, T>(op: u64, plain: impl FnOnce() -> P, traced: impl FnOnce() -> T) -> (P, T) {
    if op.is_multiple_of(2) {
        let p = plain();
        (p, traced())
    } else {
        let t = traced();
        (plain(), t)
    }
}

/// Runs frames `next(0), next(1), ...` (until `None`) once untraced
/// through `detector` and once through the traced decomposition on
/// `nms_off` (see [`alternate`]), each followed by a tracker step.
/// Checks that both give the same detections and adds the per-layer
/// medians, the tracing overhead and the accounted share to `report`;
/// returns the untraced detections of every frame, in order.
pub fn detect_layers(
    report: &mut Report,
    frames: &[GrayImage],
    detector: &FeaturePyramidDetector,
    nms_off: &FeaturePyramidDetector,
    mut next: impl FnMut(u64) -> Option<usize>,
) -> Vec<Vec<Detection>> {
    let iou = detector
        .config()
        .nms_iou
        .expect("two-scale config runs NMS");
    let mut trace = Trace::default();
    let mut tracker_u = Tracker::new(TrackerParams::default());
    let mut tracker_t = Tracker::new(TrackerParams::default());
    let mut untraced_ms = Vec::new();
    let mut traced_ms = Vec::new();
    let mut decomposed = Vec::new();
    let mut untraced = Vec::new();
    let mut op = 0u64;
    while let Some(i) = next(op) {
        let frame = &frames[i];
        let plain = || {
            let start = Instant::now();
            let dets = detector.detect(frame);
            tracker_u.step(&dets);
            (dets, start.elapsed().as_secs_f64() * 1e3)
        };
        let traced = || {
            let start = Instant::now();
            let root = trace.begin("frame", op, None);
            let d = traced_detect(&mut trace, op, Some(root), frame, nms_off, iou);
            trace.time("detect.tracker", op, Some(root), || {
                tracker_t.step(&d.detections)
            });
            trace.end(root);
            (d, start.elapsed().as_secs_f64() * 1e3)
        };
        let ((dets, u_ms), (d, t_ms)) = alternate(op, plain, traced);
        report.attempted += 1;
        if !same(&dets, &d.detections) {
            report.mismatch(format!("frame {op}: traced NMS-off + NMS != detect"));
        }
        untraced_ms.push(u_ms);
        traced_ms.push(t_ms);
        decomposed.push(d);
        untraced.push(dets);
        op += 1;
    }
    layer_metrics(report, &trace, &decomposed);
    let (tracker_ms, samples) = trace.median_self_ms("detect.tracker");
    report.metric("detect.tracker_ms", tracker_ms, samples);
    overhead_metrics(report, &trace, &untraced_ms, &traced_ms);
    untraced
}

/// `trace.overhead_frac`: traced over untraced median op time, minus 1.
/// `trace.accounted_frac`: median over ops of the sum of layer self times
/// (the root excluded) over the untraced time of the same op.
fn overhead_metrics(report: &mut Report, trace: &Trace, untraced_ms: &[f64], traced_ms: &[f64]) {
    let n = untraced_ms.len();
    let u = median(untraced_ms);
    report.metric("trace.overhead_frac", median(traced_ms) / u - 1.0, n);
    let mut per_op: BTreeMap<u64, f64> = BTreeMap::new();
    for (span, self_ms) in trace.spans().iter().zip(trace.self_ms()) {
        if span.parent.is_some() {
            *per_op.entry(span.op).or_default() += self_ms;
        }
    }
    let ratios: Vec<f64> = per_op
        .iter()
        .filter_map(|(&op, &sum)| untraced_ms.get(op as usize).map(|u| sum / u))
        .collect();
    report.metric("trace.accounted_frac", median(&ratios), ratios.len());
}

pub fn parked(args: &Args) -> Result<Report, String> {
    let frames = scenes::parked(args.seed, PARKED_RING);
    let mut report = Report::default();
    input_properties(&mut report, &frames);
    let (detector, setup_s) = timed_setup(true, &frames[0])?;
    let mut tracker = Tracker::new(TrackerParams::default());
    // Warm-up: one exposure segment, so the timed loop opens on the
    // ring's first frame with a warm cache behind it.
    let warm = scenes::PARKED_CUT_EVERY;
    for frame in &frames[frames.len() - warm..] {
        tracker.step(&detector.detect(frame));
    }
    if args.trace {
        return parked_traced(args, report, &frames, &detector);
    }

    let stats0 = detector.temporal_stats().unwrap_or_default();
    report.metric("setup_s", setup_s, SETUP_REPS);
    let outputs = closed_loop(&mut report, args.seconds, &frames, |i| {
        let dets = detector.detect(&frames[i]);
        tracker.step(&dets);
        dets
    });
    let stats1 = detector.temporal_stats().unwrap_or_default();

    // Output check: temporal == stateless on every frame.
    let stateless = build_detector(false, true)?;
    let used = outputs.len().min(frames.len());
    let reference: Vec<Vec<Detection>> =
        frames[..used].iter().map(|f| stateless.detect(f)).collect();
    report.attempted = outputs.len() as u64;
    for (k, (i, dets)) in outputs.iter().enumerate() {
        if !same(dets, &reference[*i]) {
            report.mismatch(format!("frame {k} (ring {i}): temporal != stateless"));
        }
    }
    let timed = (stats1.frames - stats0.frames).max(1) as f64;
    report.input(
        "temporal incremental / full / unchanged frac",
        format!(
            "{:.4} / {:.4} / {:.4}",
            (stats1.incremental - stats0.incremental) as f64 / timed,
            (stats1.full_builds - stats0.full_builds) as f64 / timed,
            (stats1.unchanged - stats0.unchanged) as f64 / timed
        ),
    );
    report.input(
        "detections digest",
        format!("{:016x}", digest(outputs.iter().map(|(_, d)| d))),
    );
    Ok(report)
}

/// Traced `parked-1080p`. Two temporal detectors see the same frame
/// sequence, one untraced and one inside a span (alternating which runs
/// first); the traced one's frames are classified as full or incremental
/// by its `temporal_stats()` delta. The stateless reference pass for the
/// output check runs through the traced decomposition, which gives the
/// cold-path hog and scan layers on these frames.
fn parked_traced(
    args: &Args,
    mut report: Report,
    frames: &[GrayImage],
    detector: &FeaturePyramidDetector,
) -> Result<Report, String> {
    let traced_det = build_detector(true, true)?;
    let warm = scenes::PARKED_CUT_EVERY;
    for frame in &frames[frames.len() - warm..] {
        std::hint::black_box(traced_det.detect(frame));
    }
    let mut trace = Trace::default();
    let mut tracker_u = Tracker::new(TrackerParams::default());
    let mut tracker_t = Tracker::new(TrackerParams::default());
    let mut untraced_ms = Vec::new();
    let mut traced_ms = Vec::new();
    let mut full_ms = Vec::new();
    let mut incremental_ms = Vec::new();
    let mut outputs: Vec<(usize, Vec<Detection>)> = Vec::new();
    let t0 = Instant::now();
    let mut op = 0u64;
    while t0.elapsed().as_secs_f64() < args.seconds {
        let i = op as usize % frames.len();
        let frame = &frames[i];
        let plain = || {
            let start = Instant::now();
            let dets = detector.detect(frame);
            tracker_u.step(&dets);
            (dets, start.elapsed().as_secs_f64() * 1e3)
        };
        let traced = || {
            let before = traced_det.temporal_stats().unwrap_or_default();
            let start = Instant::now();
            let root = trace.begin("frame", op, None);
            let span = trace.begin("detect.temporal", op, Some(root));
            let dets = traced_det.detect(frame);
            trace.end(span);
            trace.time("detect.tracker", op, Some(root), || tracker_t.step(&dets));
            trace.end(root);
            let elapsed = start.elapsed().as_secs_f64() * 1e3;
            let after = traced_det.temporal_stats().unwrap_or_default();
            let temporal_ms = trace.spans()[span].ms();
            (dets, elapsed, temporal_ms, before, after)
        };
        let ((dets_u, u_ms), (dets_t, t_ms, temporal_ms, before, after)) =
            alternate(op, plain, traced);
        if after.full_builds > before.full_builds {
            full_ms.push(temporal_ms);
        } else if after.incremental > before.incremental {
            incremental_ms.push(temporal_ms);
        }
        report.attempted += 1;
        if !same(&dets_u, &dets_t) {
            report.mismatch(format!("frame {op}: traced temporal != untraced temporal"));
        }
        untraced_ms.push(u_ms);
        traced_ms.push(t_ms);
        outputs.push((i, dets_t));
        op += 1;
    }
    let n = outputs.len();
    report.metric("detect.temporal.full_ms", median(&full_ms), full_ms.len());
    report.metric(
        "detect.temporal.incremental_ms",
        median(&incremental_ms),
        incremental_ms.len(),
    );
    report.metric(
        "detect.temporal.incremental_frac",
        incremental_ms.len() as f64 / n as f64,
        n,
    );
    let (tracker_ms, samples) = trace.median_self_ms("detect.tracker");
    report.metric("detect.tracker_ms", tracker_ms, samples);
    overhead_metrics(&mut report, &trace, &untraced_ms, &traced_ms);

    // Output check against the stateless path, run through the traced
    // decomposition (cold-path layer times on the same frames).
    let nms_off = build_detector(false, false)?;
    let iou = detector
        .config()
        .nms_iou
        .expect("two-scale config runs NMS");
    let mut cold = Trace::default();
    let used = n.min(frames.len());
    let decomposed: Vec<Decomposed> = frames[..used]
        .iter()
        .enumerate()
        .map(|(i, f)| traced_detect(&mut cold, i as u64, None, f, &nms_off, iou))
        .collect();
    for (k, (i, dets)) in outputs.iter().enumerate() {
        if !same(dets, &decomposed[*i].detections) {
            report.mismatch(format!("frame {k} (ring {i}): temporal != stateless"));
        }
    }
    layer_metrics(&mut report, &cold, &decomposed);
    Ok(report)
}
