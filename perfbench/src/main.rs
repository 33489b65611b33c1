//! Wall-clock benchmark for augur.
//!
//! ```text
//! perfbench --workload <window_job|ar_frame|insight_query>
//!           --seed <n> --seconds <s> --trace <0|1>
//! ```
//!
//! Each workload generates its inputs from the seed, drives the program
//! through the public functions of its layers for `--seconds`, checks the
//! outputs and prints, as the last line of standard output, one JSON
//! object: the end-to-end metrics with `--trace 0`, the per-layer metrics
//! of a traced run with `--trace 1`. See README.md for the metric table.

mod ar_frame;
mod insight_query;
mod live_ingest;
mod trace;
mod util;
mod window_job;

use std::fmt::Write as _;
use std::path::PathBuf;
use std::time::Instant;

use trace::Trace;

/// End-to-end metrics: every workload prints all of them, tracing off.
const END_TO_END: &[(&str, &str)] = &[
    ("throughput_rps", "1/s"),
    ("latency_p50_us", "us"),
    ("latency_p99_us", "us"),
    ("setup_s", "s"),
    ("peak_rss_mb", "MiB"),
];

/// Per-layer metrics of the traced run. A workload that bypasses a layer
/// reports 0 for it.
const PER_LAYER: &[(&str, &str)] = &[
    ("core.ingest_ns", "ns"),
    ("core.ingest_allocs", "count"),
    ("stream.collect_ns", "ns"),
    ("stream.window_ns", "ns"),
    ("stream.read_allocs", "count"),
    ("stream.resume_ns", "ns"),
    ("stream.windows_out", "count"),
    ("stream.late_dropped", "count"),
    ("stream.partition_skew", "ratio"),
    ("live.latency_p50_us", "us"),
    ("live.latency_p99_us", "us"),
    ("live.throughput_rps", "1/s"),
    ("live.ingest_ns", "ns"),
    ("stream.backlog_max", "count"),
    ("stream.delivered_share", "ratio"),
    ("recover_ms", "ms"),
    ("max_rate_rps", "1/s"),
    ("gen.lag_p99_us", "us"),
    ("proc.cpu_ns_per_rec", "ns"),
    ("track.update_ns", "ns"),
    ("geo.knn_us", "us"),
    ("geo.radius_us", "us"),
    ("geo.candidates", "count"),
    ("render.occlusion_us", "us"),
    ("render.project_us", "us"),
    ("render.layout_us", "us"),
    ("render.labels", "count"),
    ("render.placed_share", "ratio"),
    ("semantic.interpret_us", "us"),
    ("frame.allocs", "count"),
    ("store.col_append_ns", "ns"),
    ("analytics.sketch_update_ns", "ns"),
    ("store.lsm_put_ns", "ns"),
    ("store.lsm_flushes", "count"),
    ("store.lsm_compactions", "count"),
    ("store.ts_append_ns", "ns"),
    ("store.col_scan_ns_per_row", "ns"),
    ("store.col_selectivity", "ratio"),
    ("store.lsm_get_ns", "ns"),
    ("store.lsm_read_amp", "count"),
    ("store.ts_range_ns", "ns"),
    ("analytics.recommend_us", "us"),
    ("query.col_sum_p50_us", "us"),
    ("query.col_mean_p50_us", "us"),
    ("query.lsm_get_p50_us", "us"),
    ("query.lsm_scan_p50_us", "us"),
    ("query.lsm_put_p50_us", "us"),
    ("query.sketch_p50_us", "us"),
    ("query.ts_range_p50_us", "us"),
    ("query.recommend_p50_us", "us"),
    ("telemetry.flight_overhead_share", "ratio"),
    ("trace.coverage_share", "ratio"),
    ("tracing.throughput_cost_share", "ratio"),
    ("tracing.p50_cost_share", "ratio"),
    ("tracing.p99_cost_share", "ratio"),
];

/// What one measured pass of a workload produced.
#[derive(Debug, Default)]
pub struct Outcome {
    /// Operations attempted (jobs, frames, queries, records).
    pub attempted: u64,
    /// Operations whose output check failed.
    pub failed: u64,
    /// Work completed per second (events, frames, rows, records).
    pub throughput: f64,
    /// Per-operation latency percentiles, µs, and their sample count.
    pub p50_us: f64,
    pub p99_us: f64,
    pub samples: u64,
    /// Per-layer metrics (filled on traced passes).
    pub layers: Vec<(&'static str, f64)>,
    /// Human-readable lines printed before the result.
    pub notes: Vec<String>,
}

/// Failure notes printed per run; later failures are only counted.
const MAX_FAILURE_NOTES: u64 = 10;

impl Outcome {
    /// Counts a failed operation, noting the first few reasons.
    fn fail(&mut self, reason: String) {
        self.failed += 1;
        if self.failed <= MAX_FAILURE_NOTES {
            self.notes.push(reason);
        }
    }

    fn latencies(&mut self, lat_us: &[f64]) {
        let mut sorted = lat_us.to_vec();
        sorted.sort_by(f64::total_cmp);
        self.p50_us = util::sorted_percentile(&sorted, 0.5);
        self.p99_us = util::sorted_percentile(&sorted, 0.99);
        self.samples = lat_us.len() as u64;
    }
}

/// A workload: seeded set-up, fingerprint of the generated inputs, and a
/// measured pass.
pub trait Workload {
    type Inputs;
    /// Names of the spans that each time one request (job, frame,
    /// query); layer spans must cover `MIN_COVERAGE` of their time.
    const ROOTS: &'static [&'static str];
    fn setup(seed: u64) -> Self::Inputs;
    fn fingerprint(inputs: &Self::Inputs) -> u64;
    fn run(inputs: &mut Self::Inputs, seconds: f64, trace: &mut Trace) -> Outcome;
}

struct Args {
    workload: String,
    seed: u64,
    seconds: f64,
    trace: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut workload = None;
    let mut seed = 1u64;
    let mut seconds = 10.0f64;
    let mut trace = false;
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let mut value = || it.next().ok_or_else(|| format!("{flag} needs a value"));
        match flag.as_str() {
            "--workload" => workload = Some(value()?),
            "--seed" => seed = value()?.parse().map_err(|e| format!("--seed: {e}"))?,
            "--seconds" => {
                seconds = value()?.parse().map_err(|e| format!("--seconds: {e}"))?;
                if !(seconds > 0.0 && seconds <= 600.0) {
                    return Err("--seconds must be in (0, 600]".into());
                }
            }
            "--trace" => {
                trace = match value()?.as_str() {
                    "0" => false,
                    "1" => true,
                    other => return Err(format!("--trace takes 0 or 1, not {other}")),
                }
            }
            other => return Err(format!("unknown argument {other}")),
        }
    }
    Ok(Args {
        workload: workload.ok_or("--workload is required")?,
        seed,
        seconds,
        trace,
    })
}

/// Share of request time the layer spans must cover in a traced pass.
const MIN_COVERAGE: f64 = 0.9;

/// Number of times set-up runs per invocation; `setup_s` is the median.
const SETUP_REPEATS: usize = 3;

fn drive<W: Workload>(args: &Args) -> String {
    let mut setup_s = Vec::with_capacity(SETUP_REPEATS);
    let mut prints = Vec::with_capacity(SETUP_REPEATS);
    let mut inputs = None;
    for _ in 0..SETUP_REPEATS {
        drop(inputs.take());
        let t0 = Instant::now();
        let generated = W::setup(args.seed);
        setup_s.push(t0.elapsed().as_secs_f64());
        prints.push(W::fingerprint(&generated));
        inputs = Some(generated);
    }
    let Some(mut inputs) = inputs else {
        unreachable!("set-up runs at least once")
    };
    let deterministic = prints.windows(2).all(|w| w[0] == w[1]);
    println!(
        "fingerprint workload={} seed={} inputs={:016x}{}",
        args.workload,
        args.seed,
        prints[0],
        if deterministic {
            ""
        } else {
            " (NOT DETERMINISTIC)"
        }
    );

    let mut untraced = W::run(&mut inputs, args.seconds, &mut Trace::new(false));
    let mut metrics: Vec<(&str, f64, &str)> = Vec::new();
    let outcome = if args.trace {
        let mut trace = Trace::new(true);
        let mut traced = W::run(&mut inputs, args.seconds, &mut trace);
        let (coverage, remainder) = trace.coverage(W::ROOTS);
        let mut layers = std::mem::take(&mut traced.layers);
        layers.extend([
            ("trace.coverage_share", coverage),
            (
                "tracing.throughput_cost_share",
                share(untraced.throughput - traced.throughput, untraced.throughput),
            ),
            (
                "tracing.p50_cost_share",
                share(traced.p50_us - untraced.p50_us, untraced.p50_us),
            ),
            (
                "tracing.p99_cost_share",
                share(traced.p99_us - untraced.p99_us, untraced.p99_us),
            ),
        ]);
        for (name, ms) in &remainder {
            traced
                .notes
                .push(format!("uncovered {name}: {ms:.1} ms outside layer spans"));
        }
        let ok = coverage >= MIN_COVERAGE;
        traced.notes.push(format!(
            "coverage {coverage:.3} of request time in layer spans (need {MIN_COVERAGE}) {}",
            if ok { "ok" } else { "FAILED" }
        ));
        if !ok {
            traced.failed += 1;
        }
        for (name, ms) in trace.self_times_ms() {
            traced.notes.push(format!("self {name}: {ms:.1} ms"));
        }
        let path = PathBuf::from("perfbench/traces")
            .join(format!("{}-seed{}.spans.tsv", args.workload, args.seed));
        match trace.write(&path) {
            Ok(()) => traced
                .notes
                .push(format!("spans written to {}", path.display())),
            Err(e) => traced.notes.push(format!("spans not written: {e}")),
        }
        for &(name, unit) in PER_LAYER {
            let v = layers
                .iter()
                .rev()
                .find(|(n, _)| *n == name)
                .map_or(0.0, |(_, v)| *v);
            metrics.push((name, v, unit));
        }
        traced.attempted += untraced.attempted;
        traced.failed += untraced.failed;
        traced
    } else {
        let values = [
            untraced.throughput,
            untraced.p50_us,
            untraced.p99_us,
            util::median(&setup_s),
            util::peak_rss_mb(),
        ];
        for ((name, unit), v) in END_TO_END.iter().zip(values) {
            metrics.push((name, v, unit));
        }
        let note = match util::supported_percentile(untraced.samples as usize) {
            0 => "no percentile has >=10 samples beyond it".to_string(),
            p => format!("p{p} is the highest percentile with >=10 samples beyond it"),
        };
        untraced
            .notes
            .push(format!("latency samples={} ({note})", untraced.samples));
        untraced
    };
    for note in &outcome.notes {
        println!("{note}");
    }
    let finite = metrics.iter().all(|(_, v, _)| v.is_finite());
    let correct = deterministic && finite && outcome.failed == 0 && outcome.attempted > 0;
    let mut json = format!(
        "{{\"correct\": {correct}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{",
        outcome.attempted.max(1),
        outcome.failed
    );
    for (i, (name, v, unit)) in metrics.iter().enumerate() {
        let v = if v.is_finite() { *v } else { 0.0 };
        let sep = if i == 0 { "" } else { ", " };
        let _ = write!(
            json,
            "{sep}\"{name}\": {{\"value\": {v:?}, \"unit\": \"{unit}\"}}"
        );
    }
    json.push_str("}}");
    json
}

fn share(delta: f64, base: f64) -> f64 {
    if base == 0.0 {
        0.0
    } else {
        delta / base
    }
}

fn main() {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}");
            std::process::exit(2);
        }
    };
    let line = match args.workload.as_str() {
        "window_job" => drive::<window_job::WindowJob>(&args),
        "ar_frame" => drive::<ar_frame::ArFrame>(&args),
        "insight_query" => drive::<insight_query::InsightQuery>(&args),
        other => {
            eprintln!("perfbench: unknown workload {other}");
            std::process::exit(2);
        }
    };
    println!("{line}");
}
