//! rtped benchmark: one binary, three workloads.
//!
//! ```text
//! perfbench --workload <drive-1080p|parked-1080p|serve-vga> --seed N
//!           --seconds S --trace <0|1> [--serve-bin PATH] [--work-dir DIR]
//! ```
//!
//! With `--trace 0` it prints every end-to-end metric; with `--trace 1`
//! it runs the traced variant and prints every per-layer metric (0 for a
//! layer the workload does not run). The last stdout line is one JSON
//! object: `{"correct", "attempted", "failed", "metrics"}`. See
//! `perfbench/README.md` for what each workload and metric means.

mod library;
mod scenes;
mod serve;
mod stats;
mod trace;

use std::collections::BTreeMap;
use std::process::ExitCode;

/// End-to-end metrics, reported by every workload with `--trace 0`.
pub const END_TO_END: &[(&str, &str)] = &[
    ("setup_s", "s"),
    ("latency_ms.p50", "ms"),
    ("latency_ms.p95", "ms"),
    ("throughput_per_s", "1/s"),
    ("cpu_ms_per_op", "ms"),
    ("peak_rss_mb", "MB"),
];

/// Per-layer metrics, reported by every workload with `--trace 1`.
pub const PER_LAYER: &[(&str, &str)] = &[
    ("hog.grid_ms", "ms"),
    ("hog.normalize_ms", "ms"),
    ("hog.pyramid_ms", "ms"),
    ("hog.quant_ms", "ms"),
    ("detect.scan_ms", "ms"),
    ("detect.scan_gmac_s", "GMAC/s"),
    ("detect.nms_ms", "ms"),
    ("detect.tracker_ms", "ms"),
    ("detect.windows", "count"),
    ("detect.raw_hits", "count"),
    ("detect.detections", "count"),
    ("detect.temporal.full_ms", "ms"),
    ("detect.temporal.incremental_ms", "ms"),
    ("detect.temporal.incremental_frac", "ratio"),
    ("serve.decode_ms", "ms"),
    ("serve.admission_ms", "ms"),
    ("serve.render_ms", "ms"),
    ("serve.journal_ms", "ms"),
    ("serve.encode_ms", "ms"),
    ("runtime.serve_frame_ms", "ms"),
    ("hw.serve_frame_ms.hw1", "ms"),
    ("hw.serve_frame_ms.hw4", "ms"),
    ("runtime.degraded_frac", "ratio"),
    ("serve.queue_wait_ms", "ms"),
    ("serve.request_bytes", "bytes"),
    ("serve.response_bytes", "bytes"),
    ("serve.shed", "count"),
    ("serve.rejected", "count"),
    ("serve.hw_request_frac", "ratio"),
    ("gen.lag_ms.p95", "ms"),
    ("input.identical_row_frac", "ratio"),
    ("input.scene_cut_frac", "ratio"),
    ("trace.overhead_frac", "ratio"),
    ("trace.accounted_frac", "ratio"),
];

/// Command-line settings shared by all workloads.
#[derive(Debug, Clone)]
pub struct Args {
    pub workload: String,
    pub seed: u64,
    pub seconds: f64,
    pub trace: bool,
    pub serve_bin: Option<String>,
    /// Scratch directory for the daemon's journal.
    pub work_dir: String,
}

/// What one run measured: outcome counts, metric values with their
/// sample counts, and the input properties the numbers depend on.
#[derive(Debug, Default)]
pub struct Report {
    pub attempted: u64,
    pub failed: u64,
    pub check_failures: Vec<String>,
    pub metrics: BTreeMap<&'static str, (f64, usize)>,
    pub inputs: Vec<(&'static str, String)>,
}

impl Report {
    pub fn metric(&mut self, name: &'static str, value: f64, samples: usize) {
        self.metrics.insert(name, (value, samples));
    }

    pub fn input(&mut self, name: &'static str, value: impl ToString) {
        self.inputs.push((name, value.to_string()));
    }

    /// Records a failed output check (counted as a failed operation).
    pub fn mismatch(&mut self, what: String) {
        self.failed += 1;
        if self.check_failures.len() < 8 {
            self.check_failures.push(what);
        }
    }
}

fn parse_args() -> Result<Args, String> {
    let mut args = Args {
        workload: String::new(),
        seed: 1,
        seconds: 0.0,
        trace: false,
        serve_bin: None,
        work_dir: String::from(".bench_build/perfbench-work"),
    };
    let mut iter = std::env::args().skip(1);
    while let Some(flag) = iter.next() {
        let mut value = || iter.next().ok_or_else(|| format!("{flag} needs a value"));
        match flag.as_str() {
            "--workload" => args.workload = value()?,
            "--seed" => args.seed = value()?.parse().map_err(|e| format!("--seed: {e}"))?,
            "--seconds" => {
                args.seconds = value()?.parse().map_err(|e| format!("--seconds: {e}"))?;
            }
            "--trace" => args.trace = value()? == "1",
            "--serve-bin" => args.serve_bin = Some(value()?),
            "--work-dir" => args.work_dir = value()?,
            other => return Err(format!("unknown flag {other}")),
        }
    }
    if !args.seconds.is_finite() || args.seconds <= 0.0 {
        return Err("--seconds must be given and positive".into());
    }
    Ok(args)
}

/// The workload-specific name of a generic end-to-end metric, for the
/// human-readable listing.
fn alias(workload: &str, name: &str) -> &'static str {
    let serving = workload == "serve-vga";
    match name {
        "latency_ms.p50" if serving => "req_ms.p50 at the reference rate",
        "latency_ms.p95" if serving => "req_ms.p95 at the reference rate",
        "throughput_per_s" if serving => "sustained_rps",
        "latency_ms.p50" => "frame_ms.p50",
        "latency_ms.p95" => "frame_ms.p95",
        "throughput_per_s" => "fps",
        "peak_rss_mb" if serving => "daemon VmHWM",
        _ => "",
    }
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(args) => args,
        Err(err) => {
            eprintln!("perfbench: {err}");
            return ExitCode::FAILURE;
        }
    };
    let result = match args.workload.as_str() {
        "drive-1080p" => library::drive(&args),
        "parked-1080p" => library::parked(&args),
        "serve-vga" => serve::run(&args),
        other => Err(format!("unknown workload {other:?}")),
    };
    let report = match result {
        Ok(report) => report,
        Err(err) => {
            eprintln!("perfbench: {}: {err}", args.workload);
            return ExitCode::FAILURE;
        }
    };

    let registry = if args.trace { PER_LAYER } else { END_TO_END };
    println!(
        "perfbench {} seed {} ({} s{})",
        args.workload,
        args.seed,
        args.seconds,
        if args.trace { ", traced" } else { "" }
    );
    for (name, value) in &report.inputs {
        println!("  input  {name:<34} {value}");
    }
    for failure in &report.check_failures {
        println!("  CHECK FAILED: {failure}");
    }
    println!(
        "  outcome attempted {} failed {} failed_frac {}",
        report.attempted,
        report.failed,
        report.failed as f64 / report.attempted.max(1) as f64
    );
    let mut json = Vec::new();
    for &(name, unit) in registry {
        let (value, samples) = report.metrics.get(name).copied().unwrap_or((0.0, 0));
        let alias = alias(&args.workload, name);
        let alias = if alias.is_empty() || args.trace {
            String::new()
        } else {
            format!("  [{alias}]")
        };
        println!("  metric {name:<34} {value:>14.4} {unit:<7} n={samples}{alias}");
        json.push(format!(
            "\"{name}\": {{\"value\": {}, \"unit\": \"{unit}\"}}",
            finite(value)
        ));
    }
    let correct = report.failed == 0 && report.check_failures.is_empty();
    println!(
        "{{\"correct\": {correct}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
        report.attempted.max(1),
        report.failed,
        json.join(", ")
    );
    ExitCode::SUCCESS
}

/// JSON has no NaN or infinity.
fn finite(value: f64) -> f64 {
    if value.is_finite() {
        value
    } else {
        0.0
    }
}
