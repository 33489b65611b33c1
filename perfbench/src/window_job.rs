//! `window_job`: the record appended → window result path, as a batch job
//! on one thread. A seeded mixed sensor stream is ingested event by event
//! through `AugurPlatform::ingest`; two bounded consumers then read
//! `vitals` (an alert filter through `Pipeline::collect` and 1 s tumbling
//! per-device stats through `Pipeline::run_windowed`); last, a
//! checkpointed windowed run crashes at 60% and resumes.

use std::collections::BTreeMap;
use std::time::Instant;

use augur_core::{decode_vitals, AugurPlatform, PlatformConfig, VitalsRecord};
use augur_geo::{Enu, GeoPoint};
use augur_log::EventLog;
use augur_sensor::{
    AnchorObservation, DeviceId, GpsFix, ImuReading, SensorEvent, SensorReading, Timestamp,
    VitalSign, VitalsSample,
};
use augur_stream::window::{NumericStats, StatsAggregation};
use augur_stream::{
    Broker, CheckpointStore, PartitionId, PipelineBuilder, TumblingWindows, WindowResult,
    WindowState,
};
use augur_telemetry::{FlightRecorder, TraceContext};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

use crate::live_ingest;
use crate::trace::Trace;
use crate::util::{self, Fingerprint, Zipf};
use crate::{Outcome, Workload};

/// Events per job. The broker logs of one job (about 120 B per record
/// with its payload) outgrow a 105 MiB last-level cache.
const EVENTS: usize = 1_000_000;
const DEVICES: usize = 10_000;
const ZIPF_S: f64 = 1.1;
const PARTITIONS: u32 = 8;
/// Event-time spacing of the base clock; the stream spans 100 s.
const SPACING_US: u64 = 100;
/// Per-device clock skew bound: event times arrive out of order across
/// devices by up to this much (within a device they stay ordered, as the
/// time-series store requires).
const SKEW_US: u64 = 200_000;
const WINDOW_US: u64 = 1_000_000;
/// The checkpointed run crashes after this share of the vitals records.
const CRASH_AT: f64 = 0.6;
const CHECKPOINT_EVERY: usize = 50_000;
/// Every this many jobs also runs the crash-and-resume recovery.
const RECOVER_EVERY: u64 = 3;
/// Instrumentation A/B pairs in the traced pass.
const AB_PAIRS: usize = 5;

pub struct WindowJob;

pub struct Inputs {
    origin: GeoPoint,
    events: Vec<SensorEvent>,
    vitals: usize,
    alerts: usize,
    /// The generator table of the traced pass's open-loop segment.
    live: live_ingest::Inputs,
    /// Reference windows from the benchmark's own inputs:
    /// (window start, device) → (count, sum).
    reference: BTreeMap<(u64, u64), (u64, f64)>,
}

type Windows = Vec<WindowResult<NumericStats>>;

fn is_alert(sign: VitalSign, value: f64) -> bool {
    let (lo, hi) = sign.alert_range();
    value < lo || value > hi
}

impl Workload for WindowJob {
    type Inputs = Inputs;
    const ROOTS: &'static [&'static str] = &["job", "recovery"];

    fn setup(seed: u64) -> Inputs {
        let mut rng = StdRng::seed_from_u64(seed ^ 0x5749_4e44_4f57);
        let zipf = Zipf::new(DEVICES, ZIPF_S);
        // Device ids are fixed per Zipf rank, so every seed puts the same
        // hot keys on the same partitions.
        let ids: Vec<u64> = (0..DEVICES as u64).map(|i| 1_000 + i * 7).collect();
        let skew: Vec<u64> = (0..DEVICES).map(|_| rng.gen_range(0..SKEW_US)).collect();
        let mut events = Vec::with_capacity(EVENTS);
        let mut vitals = 0usize;
        let mut alerts = 0usize;
        let mut reference: BTreeMap<(u64, u64), (u64, f64)> = BTreeMap::new();
        for i in 0..EVENTS {
            let rank = zipf.sample(&mut rng);
            let device = ids[rank];
            let t_us = i as u64 * SPACING_US + skew[rank];
            let time = Timestamp::from_micros(t_us);
            let kind = rng.gen_range(0..100u32);
            let reading = if kind < 80 {
                let sign = VitalSign::ALL[rng.gen_range(0..3usize)];
                let mut value = sign.baseline() + util::normal(&mut rng) * sign.noise_sigma();
                if rng.gen_bool(0.03) {
                    value *= if rng.gen_bool(0.5) { 0.7 } else { 1.3 };
                }
                vitals += 1;
                alerts += usize::from(is_alert(sign, value));
                let cell = reference
                    .entry(((t_us / WINDOW_US) * WINDOW_US, device))
                    .or_insert((0, 0.0));
                cell.0 += 1;
                cell.1 += value;
                SensorReading::Vitals(VitalsSample {
                    time,
                    patient: device as u32,
                    sign,
                    value,
                    in_anomaly: false,
                })
            } else if kind < 85 {
                SensorReading::Gps(GpsFix {
                    time,
                    position: Enu::new(
                        rng.gen_range(-2_000.0..2_000.0),
                        rng.gen_range(-2_000.0..2_000.0),
                        0.0,
                    ),
                    speed_mps: rng.gen_range(0.0..3.0),
                    accuracy_m: rng.gen_range(2.0..15.0),
                })
            } else if kind < 90 {
                SensorReading::Imu(ImuReading {
                    time,
                    accel_east: util::normal(&mut rng) * 0.3,
                    accel_north: util::normal(&mut rng) * 0.3,
                    yaw_rate_dps: util::normal(&mut rng) * 5.0,
                })
            } else if kind < 95 {
                SensorReading::Camera(AnchorObservation {
                    time,
                    anchor_index: rng.gen_range(0..64usize),
                    u_px: rng.gen_range(0.0..1920.0),
                    v_px: rng.gen_range(0.0..1080.0),
                })
            } else {
                const KINDS: [&str; 4] = ["tap", "gaze", "dwell", "purchase"];
                SensorReading::Interaction {
                    kind: KINDS[rng.gen_range(0..KINDS.len())].to_string(),
                    subject: rng.gen_range(0..5_000u64),
                    value: rng.gen_range(0.0..100.0),
                }
            };
            events.push(SensorEvent::new(DeviceId(device), time, reading));
        }
        Inputs {
            origin: GeoPoint::clamped(22.3364, 114.2655),
            live: live_ingest::Inputs::generate(seed),
            events,
            vitals,
            alerts,
            reference,
        }
    }

    fn fingerprint(inputs: &Inputs) -> u64 {
        let mut fp = Fingerprint::new();
        for e in &inputs.events {
            fp.u64(e.device.0);
            fp.u64(e.time.as_micros());
            match &e.reading {
                SensorReading::Vitals(v) => {
                    fp.u64(v.sign as u64);
                    fp.f64(v.value);
                }
                SensorReading::Gps(g) => {
                    fp.f64(g.position.east);
                    fp.f64(g.position.north);
                    fp.f64(g.accuracy_m);
                }
                SensorReading::Imu(r) => {
                    fp.f64(r.accel_east);
                    fp.f64(r.accel_north);
                    fp.f64(r.yaw_rate_dps);
                }
                SensorReading::Camera(o) => {
                    fp.u64(o.anchor_index as u64);
                    fp.f64(o.u_px);
                    fp.f64(o.v_px);
                }
                SensorReading::Interaction {
                    kind,
                    subject,
                    value,
                } => {
                    fp.str(kind);
                    fp.u64(*subject);
                    fp.f64(*value);
                }
            }
        }
        fp.u64(inputs.live.fingerprint());
        fp.value()
    }

    fn run(inputs: &mut Inputs, seconds: f64, trace: &mut Trace) -> Outcome {
        let mut out = Outcome::default();
        let mut job_us: Vec<f64> = Vec::new();
        let mut recover_ms: Vec<f64> = Vec::new();
        let mut stats = JobStats::default();
        let mut last_broker = None;
        let t_run = Instant::now();
        let mut job = 0u64;
        while job == 0 || t_run.elapsed().as_secs_f64() < seconds {
            // One job's broker at a time: the previous one goes before the
            // next job allocates its own.
            drop(last_broker.take());
            out.attempted += 1;
            match run_job(inputs, job, trace, &mut stats) {
                Ok(done) => {
                    job_us.push(done.job_us);
                    recover_ms.extend(done.recover_ms);
                    if let Some(reason) = done.check_failure {
                        out.fail(format!("job {job}: check failed: {reason}"));
                    }
                    last_broker = Some(done.broker);
                }
                Err(e) => {
                    trace.abandon_open();
                    out.fail(format!("job {job}: error: {e}"));
                }
            }
            job += 1;
        }
        let total_s: f64 = job_us.iter().sum::<f64>() / 1e6;
        out.throughput = if total_s > 0.0 {
            (job_us.len() * inputs.events.len()) as f64 / total_s
        } else {
            0.0
        };
        out.latencies(&job_us);
        out.notes.push(format!(
            "window_job: {} jobs of {} events ({} vitals, {} alerts, {} reference windows)",
            job_us.len(),
            inputs.events.len(),
            inputs.vitals,
            inputs.alerts,
            inputs.reference.len(),
        ));
        let ms: Vec<String> = job_us.iter().map(|us| format!("{:.0}", us / 1e3)).collect();
        out.notes.push(format!(
            "job ms: {}; recover_ms median {:.1} over {} recoveries",
            ms.join(" "),
            util::median(&recover_ms),
            recover_ms.len()
        ));
        if trace.on() {
            let totals = trace.totals();
            let events = (job_us.len() * inputs.events.len()).max(1) as f64;
            let records = (job_us.len() * inputs.vitals).max(1) as f64;
            let per_job = |v: u64| v as f64 / job_us.len().max(1) as f64;
            let ab = last_broker
                .as_ref()
                .map_or(0.0, |b| instrumentation_ab(b, &mut out.notes));
            out.layers = vec![
                (
                    "core.ingest_ns",
                    totals.get("core.ingest").map_or(0.0, |t| t.ns_per_item()),
                ),
                (
                    "core.ingest_allocs",
                    trace.allocs("core.ingest") as f64 / events,
                ),
                (
                    "stream.collect_ns",
                    totals
                        .get("stream.collect")
                        .map_or(0.0, |t| t.ns_per_item()),
                ),
                (
                    "stream.window_ns",
                    totals.get("stream.window").map_or(0.0, |t| t.ns_per_item()),
                ),
                (
                    "stream.read_allocs",
                    trace.allocs("stream.read") as f64 / (2.0 * records),
                ),
                (
                    "stream.resume_ns",
                    totals.get("stream.resume").map_or(0.0, |t| t.ns_per_item()),
                ),
                ("stream.windows_out", per_job(stats.windows_out)),
                ("stream.late_dropped", per_job(stats.late_dropped)),
                ("stream.partition_skew", stats.partition_skew),
                ("recover_ms", util::median(&recover_ms)),
                ("telemetry.flight_overhead_share", ab),
            ];
            let live = live_ingest::measure(&inputs.live, live_ingest::SECONDS, trace, &mut out);
            out.layers.extend(live);
        }
        out
    }
}

#[derive(Default)]
struct JobStats {
    windows_out: u64,
    late_dropped: u64,
    partition_skew: f64,
}

struct JobDone {
    job_us: f64,
    recover_ms: Option<f64>,
    check_failure: Option<String>,
    /// Kept for the instrumentation A/B of a traced pass.
    broker: Broker,
}

fn vitals_pipeline(broker: &Broker) -> PipelineBuilder<VitalsRecord> {
    PipelineBuilder::new(broker.clone(), "vitals", |r| decode_vitals(&r.payload))
}

fn value_of(r: &VitalsRecord) -> f64 {
    r.value
}

fn stats_agg() -> StatsAggregation<VitalsRecord, fn(&VitalsRecord) -> f64> {
    StatsAggregation::new(value_of as fn(&VitalsRecord) -> f64)
}

fn run_job(
    inputs: &Inputs,
    job: u64,
    trace: &mut Trace,
    stats: &mut JobStats,
) -> Result<JobDone, String> {
    let t0 = Instant::now();
    let root = trace.begin("job", job);
    let mut platform = trace
        .span("core.new", job, 1, || {
            AugurPlatform::new(PlatformConfig {
                partitions: PARTITIONS,
                origin: inputs.origin,
            })
        })
        .map_err(|e| e.to_string())?;
    let ingest = trace.begin("core.ingest", job);
    {
        let _scope = trace.alloc_scope("core.ingest");
        for e in &inputs.events {
            platform.ingest(e).map_err(|e| e.to_string())?;
        }
    }
    trace.end(ingest, inputs.events.len() as u64);
    let broker = platform.broker().clone();

    let collect = trace.begin("stream.collect", job);
    let alerts = {
        let _scope = trace.alloc_scope("stream.read");
        vitals_pipeline(&broker)
            .filter(|r| is_alert(r.sign, r.value))
            .build()
            .collect()
    };
    let (alerts, _) = alerts.map_err(|e| e.to_string())?;
    trace.end(collect, inputs.vitals as u64);

    let window = trace.begin("stream.window", job);
    let windowed = {
        let _scope = trace.alloc_scope("stream.read");
        vitals_pipeline(&broker).build().run_windowed(
            TumblingWindows::new(WINDOW_US),
            stats_agg(),
            None,
            None,
            false,
        )
    };
    let (windows, metrics) = windowed.map_err(|e| e.to_string())?;
    trace.end(window, inputs.vitals as u64);
    trace.end(root, inputs.events.len() as u64);
    let job_us = t0.elapsed().as_secs_f64() * 1e6;

    // Checks, outside the timed region.
    stats.windows_out += windows.len() as u64;
    stats.late_dropped += metrics.late_dropped;
    stats.partition_skew = partition_skew(&broker);
    let mut failure = if alerts.len() != inputs.alerts {
        Some(format!(
            "collect returned {} alerts, reference {}",
            alerts.len(),
            inputs.alerts
        ))
    } else {
        matches_reference(&windows, &inputs.reference).err()
    };

    // Recovery: crash at 60%, restore the latest checkpoint, resume.
    let mut recover_ms = None;
    if job.is_multiple_of(RECOVER_EVERY) {
        let recovery = trace.begin("recovery", job);
        let store: CheckpointStore<WindowState<NumericStats>> = CheckpointStore::new(4);
        let crash_at = (inputs.vitals as f64 * CRASH_AT) as usize;
        let crashed = trace.span("stream.crash_run", job, crash_at as u64, || {
            vitals_pipeline(&broker).build().run_windowed(
                TumblingWindows::new(WINDOW_US),
                stats_agg(),
                Some((&store, CHECKPOINT_EVERY)),
                Some(crash_at),
                false,
            )
        });
        let (partial, _) = crashed.map_err(|e| e.to_string())?;
        let t_restore = Instant::now();
        let resume = trace.begin("stream.resume", job);
        let resumed = vitals_pipeline(&broker).build().run_windowed(
            TumblingWindows::new(WINDOW_US),
            stats_agg(),
            Some((&store, CHECKPOINT_EVERY)),
            None,
            true,
        );
        let (rest, resume_metrics) = resumed.map_err(|e| e.to_string())?;
        trace.end(resume, resume_metrics.records_in);
        recover_ms = Some(t_restore.elapsed().as_secs_f64() * 1e3);
        trace.end(recovery, 1);
        let mut recovered = partial;
        recovered.extend(rest);
        if failure.is_none() && canonical(recovered) != canonical(windows) {
            failure = Some("crash + resume output differs from the uninterrupted run".into());
        }
    }
    Ok(JobDone {
        job_us,
        recover_ms,
        check_failure: failure,
        broker,
    })
}

/// Window results sorted by (start, key) with duplicates (windows
/// re-emitted after a resume) removed, as comparable tuples.
fn canonical(mut w: Windows) -> Vec<(u64, u64, u64, u64)> {
    w.sort_by_key(|r| (r.window.start_us, r.key));
    w.dedup_by_key(|r| (r.window.start_us, r.key));
    w.iter()
        .map(|r| {
            (
                r.window.start_us,
                r.key,
                r.value.count,
                r.value.sum.to_bits(),
            )
        })
        .collect()
}

fn matches_reference(
    windows: &Windows,
    reference: &BTreeMap<(u64, u64), (u64, f64)>,
) -> Result<(), String> {
    if windows.len() != reference.len() {
        return Err(format!(
            "{} windows, reference {}",
            windows.len(),
            reference.len()
        ));
    }
    for w in windows {
        let Some((count, sum)) = reference.get(&(w.window.start_us, w.key)) else {
            return Err(format!("unexpected window {} for key {}", w.window, w.key));
        };
        let tol = 1e-9 * sum.abs().max(1.0);
        if w.value.count != *count || (w.value.sum - sum).abs() > tol {
            return Err(format!(
                "window {} key {}: count {} sum {} vs reference {count} {sum}",
                w.window, w.key, w.value.count, w.value.sum
            ));
        }
    }
    Ok(())
}

/// Max ÷ mean end offset across the `vitals` partitions.
fn partition_skew(broker: &Broker) -> f64 {
    let ends: Vec<f64> = (0..PARTITIONS)
        .filter_map(|p| broker.end_offset("vitals", PartitionId(p)).ok())
        .map(|e| e as f64)
        .collect();
    let mean = ends.iter().sum::<f64>() / ends.len().max(1) as f64;
    let max = ends.iter().copied().fold(0.0, f64::max);
    if mean > 0.0 {
        max / mean
    } else {
        0.0
    }
}

/// Repeats `collect` + `run_windowed` over one job's broker with and
/// without a flight recorder and event log attached, alternating, and
/// returns (with − without) ÷ without of the medians.
fn instrumentation_ab(broker: &Broker, notes: &mut Vec<String>) -> f64 {
    let bare = || {
        let t0 = Instant::now();
        let a = vitals_pipeline(broker)
            .filter(|r| is_alert(r.sign, r.value))
            .build()
            .collect();
        let w = vitals_pipeline(broker).build().run_windowed(
            TumblingWindows::new(WINDOW_US),
            stats_agg(),
            None,
            None,
            false,
        );
        std::hint::black_box((a.is_ok(), w.is_ok()));
        t0.elapsed().as_secs_f64()
    };
    let instrumented = |i: usize| {
        let recorder = FlightRecorder::new(1 << 16);
        let log = EventLog::new(1 << 14);
        let ctx = TraceContext::root(0xab, i as u64);
        let t0 = Instant::now();
        let a = vitals_pipeline(broker)
            .flight(&recorder, ctx)
            .log(&log, ctx)
            .filter(|r| is_alert(r.sign, r.value))
            .build()
            .collect();
        let w = vitals_pipeline(broker)
            .flight(&recorder, ctx)
            .log(&log, ctx)
            .build()
            .run_windowed(
                TumblingWindows::new(WINDOW_US),
                stats_agg(),
                None,
                None,
                false,
            );
        std::hint::black_box((a.is_ok(), w.is_ok()));
        t0.elapsed().as_secs_f64()
    };
    let mut without = Vec::with_capacity(AB_PAIRS);
    let mut with = Vec::with_capacity(AB_PAIRS);
    for i in 0..AB_PAIRS {
        if i % 2 == 0 {
            without.push(bare());
            with.push(instrumented(i));
        } else {
            with.push(instrumented(i));
            without.push(bare());
        }
    }
    let (w, wo) = (util::median(&with), util::median(&without));
    notes.push(format!(
        "instrumentation A/B over {AB_PAIRS} pairs: with flight+log {:.1} ms, without {:.1} ms",
        w * 1e3,
        wo * 1e3
    ));
    if wo > 0.0 {
        (w - wo) / wo
    } else {
        0.0
    }
}
