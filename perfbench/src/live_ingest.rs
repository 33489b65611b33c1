//! The `live_ingest` segment of a traced `window_job` pass: an open loop.
//! The generator, on the main thread, ingests vitals through
//! `AugurPlatform::ingest` on a 1 ms tick schedule at a fixed rate, each
//! event stamped with its due time; a continuous pipeline
//! (`Pipeline::spawn_continuous` over `vitals`) delivers them to a sink
//! that records due → delivery latency. The pump and worker threads spin
//! on `yield_now`, so on a 2-core host three busy threads share two
//! cores. Its latencies did not repeat within a tenth from run to run, so
//! it reports per-layer metrics only (see README.md).

use std::sync::atomic::{AtomicU32, AtomicU64, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

use augur_core::{decode_vitals, AugurPlatform, PlatformConfig};
use augur_geo::GeoPoint;
use augur_sensor::{DeviceId, SensorEvent, SensorReading, Timestamp, VitalSign, VitalsSample};
use augur_stream::{PartitionId, PipelineBuilder, StopHandle};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

use crate::trace::Trace;
use crate::util::{self, Fingerprint, Zipf};
use crate::Outcome;

/// The fixed offered rate, records per second (see README.md for how it
/// was chosen against the knee).
pub const RATE: u64 = 300_000;
const TICK_US: u64 = 1_000;
const PARTITIONS: u32 = 8;
const DEVICES: usize = 10_000;
/// Generated (device, sign) pairs the generator cycles through.
const TABLE: usize = 1 << 16;
/// How long the sink may take to drain after the last tick.
const DRAIN: Duration = Duration::from_secs(5);
/// Rates tried for `max_rate_rps` in the traced pass, ascending.
const LADDER: [u64; 7] = [
    100_000, 200_000, 300_000, 400_000, 500_000, 600_000, 800_000,
];
const RUNG_SECONDS: f64 = 1.5;
const LADDER_P99_LIMIT_US: f64 = 5_000.0;

/// Seconds of the open-loop segment in a traced `window_job` pass.
pub const SECONDS: f64 = 5.0;

/// The generator's inputs: (device, sign) pairs it cycles through.
pub struct Inputs {
    origin: GeoPoint,
    table: Vec<(u64, VitalSign)>,
}

impl Inputs {
    pub fn generate(seed: u64) -> Inputs {
        let mut rng = StdRng::seed_from_u64(seed ^ 0x4c49_5645);
        let zipf = Zipf::new(DEVICES, 1.1);
        let table = (0..TABLE)
            .map(|_| {
                (
                    1_000 + zipf.sample(&mut rng) as u64,
                    VitalSign::ALL[rng.gen_range(0..3usize)],
                )
            })
            .collect();
        Inputs {
            origin: GeoPoint::clamped(22.3364, 114.2655),
            table,
        }
    }

    pub fn fingerprint(&self) -> u64 {
        let mut fp = Fingerprint::new();
        fp.u64(RATE);
        for (device, sign) in &self.table {
            fp.u64(*device);
            fp.u64(*sign as u64);
        }
        fp.value()
    }
}

/// What one open-loop segment measured.
struct Segment {
    ingested: u64,
    delivered: u64,
    seq_sum_ok: bool,
    ingest_errors: u64,
    seconds: f64,
    /// Due → delivery latency of every delivered record, µs.
    latency_us: Vec<f64>,
    gen_lag_us: Vec<f64>,
    backlog_max: u64,
    backlog_half: u64,
    backlog_end: u64,
    cpu_ns: u64,
}

/// Runs the open loop at [`RATE`] for `seconds` (with `core.ingest`
/// spans per tick), then the `max_rate_rps` ladder. Adds the records it
/// ingested to `out.attempted` and every record not delivered exactly
/// once to `out.failed`; returns the per-layer metrics.
pub fn measure(
    inputs: &Inputs,
    seconds: f64,
    trace: &mut Trace,
    out: &mut Outcome,
) -> Vec<(&'static str, f64)> {
    let seg = match open_loop(inputs, RATE, seconds, true, trace) {
        Ok(s) => s,
        Err(e) => {
            out.attempted += 1;
            out.fail(format!("live segment: {e}"));
            return Vec::new();
        }
    };
    out.attempted += seg.ingested;
    let lost = seg.ingested.saturating_sub(seg.delivered) + seg.ingest_errors;
    if lost > 0 {
        out.fail(format!(
            "live segment: {lost} records not ingested or not delivered"
        ));
        out.failed += lost - 1;
    }
    if !seg.seq_sum_ok || seg.delivered > seg.ingested {
        out.fail("live segment: delivered sequence numbers differ from ingested ones".into());
    }
    let mut sorted = seg.latency_us.clone();
    sorted.sort_by(f64::total_cmp);
    let (p50, p99) = (
        util::sorted_percentile(&sorted, 0.5),
        util::sorted_percentile(&sorted, 0.99),
    );
    out.notes.push(format!(
        "live segment: rate {RATE}/s for {seconds} s, {} ingested, {} delivered, latency p50 {p50:.0} us p99 {p99:.0} us, generator lag p99 {:.0} us",
        seg.ingested,
        seg.delivered,
        util::percentile(&seg.gen_lag_us, 0.99)
    ));
    let totals = trace.totals();
    let max_rate = max_rate(inputs, &mut out.notes);
    vec![
        ("live.latency_p50_us", p50),
        ("live.latency_p99_us", p99),
        ("live.throughput_rps", seg.delivered as f64 / seg.seconds),
        (
            "live.ingest_ns",
            totals.get("live.ingest").map_or(0.0, |t| t.ns_per_item()),
        ),
        ("stream.backlog_max", seg.backlog_max as f64),
        (
            "stream.delivered_share",
            seg.delivered as f64 / seg.ingested.max(1) as f64,
        ),
        ("gen.lag_p99_us", util::percentile(&seg.gen_lag_us, 0.99)),
        (
            "proc.cpu_ns_per_rec",
            seg.cpu_ns as f64 / seg.delivered.max(1) as f64,
        ),
        ("max_rate_rps", max_rate),
    ]
}

/// The backlog: records appended to `vitals` but not yet delivered.
fn backlog(platform: &AugurPlatform, handle: &StopHandle) -> u64 {
    let appended: u64 = (0..PARTITIONS)
        .filter_map(|p| platform.broker().end_offset("vitals", PartitionId(p)).ok())
        .sum();
    appended.saturating_sub(handle.processed())
}

/// Runs the generator for `seconds` at `rate`, then drains and stops
/// the pipeline. `sample_backlog` reads the backlog after every tick.
fn open_loop(
    inputs: &Inputs,
    rate: u64,
    seconds: f64,
    sample_backlog: bool,
    trace: &mut Trace,
) -> Result<Segment, String> {
    let mut platform = AugurPlatform::new(PlatformConfig {
        partitions: PARTITIONS,
        origin: inputs.origin,
    })
    .map_err(|e| e.to_string())?;
    let per_tick = rate * TICK_US / 1_000_000;
    let ticks = (seconds * 1e6 / TICK_US as f64) as u64;
    // Preallocated latency slots the sink fills in delivery order; they
    // are read after `stop` has joined the pipeline threads.
    let slots: Arc<Vec<AtomicU32>> =
        Arc::new((0..per_tick * ticks).map(|_| AtomicU32::new(0)).collect());
    let seq_sum = Arc::new(AtomicU64::new(0));
    let start = Instant::now();
    let handle = {
        let (slots, seq_sum) = (Arc::clone(&slots), Arc::clone(&seq_sum));
        let mut next = 0usize;
        PipelineBuilder::new(platform.broker().clone(), "vitals", |r| {
            decode_vitals(&r.payload)
        })
        .build()
        .spawn_continuous(move |r| {
            let us = util::micros_since(start).saturating_sub(r.t_us);
            if let Some(slot) = slots.get(next) {
                slot.store(u32::try_from(us).unwrap_or(u32::MAX), Ordering::Relaxed);
            }
            next += 1;
            seq_sum.fetch_add(r.value as u64, Ordering::Relaxed);
        })
        .map_err(|e| e.to_string())?
    };
    let cpu0 = util::process_cpu_ns();
    let mut seg = Segment {
        ingested: 0,
        delivered: 0,
        seq_sum_ok: false,
        ingest_errors: 0,
        seconds: 0.0,
        latency_us: Vec::new(),
        gen_lag_us: Vec::with_capacity(ticks as usize),
        backlog_max: 0,
        backlog_half: 0,
        backlog_end: 0,
        cpu_ns: 0,
    };
    let mut seq = 0u64;
    let mut want_sum = 0u64;
    for tick in 1..=ticks {
        let due_us = tick * TICK_US;
        let now = util::micros_since(start);
        if now < due_us {
            std::thread::sleep(Duration::from_micros(due_us - now));
        }
        seg.gen_lag_us
            .push(util::micros_since(start).saturating_sub(due_us) as f64);
        let id = trace.begin("live.ingest", tick);
        for _ in 0..per_tick {
            seq += 1;
            let (device, sign) = inputs.table[seq as usize % TABLE];
            let time = Timestamp::from_micros(due_us);
            let event = SensorEvent::new(
                DeviceId(device),
                time,
                SensorReading::Vitals(VitalsSample {
                    time,
                    patient: device as u32,
                    sign,
                    value: seq as f64,
                    in_anomaly: false,
                }),
            );
            match platform.ingest(&event) {
                Ok(()) => {
                    seg.ingested += 1;
                    want_sum += seq;
                }
                Err(_) => seg.ingest_errors += 1,
            }
        }
        trace.end(id, per_tick);
        if sample_backlog {
            let b = backlog(&platform, &handle);
            seg.backlog_max = seg.backlog_max.max(b);
            if tick == ticks / 2 {
                seg.backlog_half = b;
            }
            if tick == ticks {
                seg.backlog_end = b;
            }
        }
    }
    seg.seconds = start.elapsed().as_secs_f64();
    let drain_until = Instant::now() + DRAIN;
    while handle.processed() < seg.ingested && Instant::now() < drain_until {
        std::thread::sleep(Duration::from_millis(1));
    }
    seg.delivered = handle.processed();
    handle.stop();
    seg.cpu_ns = util::process_cpu_ns().saturating_sub(cpu0);
    seg.seq_sum_ok = seq_sum.load(Ordering::Relaxed) == want_sum;
    seg.latency_us = slots
        .iter()
        .take(seg.delivered as usize)
        .map(|s| f64::from(s.load(Ordering::Relaxed)))
        .collect();
    Ok(seg)
}

/// The highest ladder rate at which the backlog stops growing and p99
/// stays under the limit; rungs run in ascending order until one fails.
fn max_rate(inputs: &Inputs, notes: &mut Vec<String>) -> f64 {
    let mut best = 0;
    for rate in LADDER {
        let Ok(seg) = open_loop(inputs, rate, RUNG_SECONDS, true, &mut Trace::new(false)) else {
            break;
        };
        let p99 = util::percentile(&seg.latency_us, 0.99);
        let complete = seg.delivered == seg.ingested;
        // Growing: the second half added more than 10 ms of input.
        let growing = seg.backlog_end > seg.backlog_half + rate / 100;
        notes.push(format!(
            "ladder {rate}/s: p99 {p99:.0} us, backlog {} -> {}, delivered {}/{}",
            seg.backlog_half, seg.backlog_end, seg.delivered, seg.ingested
        ));
        if !complete || growing || p99 > LADDER_P99_LIMIT_US {
            break;
        }
        best = rate;
    }
    best as f64
}
