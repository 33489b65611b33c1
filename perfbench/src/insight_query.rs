//! `insight_query`: one analyst client in a closed loop against the store
//! and analytics layers. A load phase writes rows into a `ColumnTable`,
//! Count-Min / HyperLogLog / P² sketches, an `LsmStore` of per-device
//! profiles and a `TimeSeriesStore`; a query phase then runs a seeded mix
//! of columnar aggregates, LSM gets/scans/puts, sketch estimates,
//! time-series range + downsample and top-10 recommendations.

use std::collections::{HashMap, HashSet};
use std::time::Instant;

use augur_analytics::{
    CountMinSketch, HyperLogLog, Interaction, ItemItemRecommender, P2Quantile, Recommender,
};
use augur_store::{
    ColumnTable, ColumnType, Downsample, LsmParams, LsmStore, Predicate, Schema, SeriesId,
    TimeSeriesStore, Value,
};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

use crate::trace::Trace;
use crate::util::{self, Fingerprint, Zipf};
use crate::{Outcome, Workload};

const ROWS: usize = 60_000;
const DEVICES: usize = 10_000;
const CATEGORIES: [&str; 12] = [
    "retail", "food", "landmark", "health", "transit", "lodging", "park", "museum", "school",
    "office", "venue", "market",
];
const TS_STEP_US: u64 = 1_000;
/// Profiles are kept per device and epoch of event time.
const EPOCH_US: u64 = 5_000_000;
const EPOCHS: usize = (ROWS as u64 * TS_STEP_US / EPOCH_US) as usize;
/// A small memtable, so flushes and compactions also land during the
/// query phase's puts.
const LSM: LsmParams = LsmParams {
    memtable_flush_entries: 256,
    compaction_trigger_runs: 4,
};
/// Rows per load micro-batch; each batch goes to one layer at a time.
const BATCH: usize = 1_024;
/// Load-then-query rounds per pass; `throughput_rps` is the median
/// load rate.
const ROUNDS: usize = 12;
const QUERIES: usize = 50_000;
const USERS: usize = 2_000;
const ITEMS: usize = 1_000;
const INTERACTIONS: usize = 40_000;
/// One columnar query in this many is checked against a row-order scan.
const COL_CHECK_EVERY: usize = 4;

pub struct InsightQuery;

struct Row {
    device: u64,
    category: usize,
    value: f64,
    score: f64,
    ts: u64,
}

#[derive(Clone, Copy, PartialEq, Eq, Hash, Debug)]
enum Class {
    ColSum,
    ColMean,
    LsmGet,
    LsmScan,
    LsmPut,
    Sketch,
    TsRange,
    Recommend,
}

const CLASSES: [(Class, &str, u32); 8] = [
    (Class::ColSum, "query.col_sum_p50_us", 15),
    (Class::ColMean, "query.col_mean_p50_us", 10),
    (Class::LsmGet, "query.lsm_get_p50_us", 25),
    (Class::LsmScan, "query.lsm_scan_p50_us", 5),
    (Class::LsmPut, "query.lsm_put_p50_us", 10),
    (Class::Sketch, "query.sketch_p50_us", 15),
    (Class::TsRange, "query.ts_range_p50_us", 10),
    (Class::Recommend, "query.recommend_p50_us", 10),
];

enum Query {
    Col {
        mean: bool,
        /// (value lo, hi), (score lo, hi), (ts lo, hi); `None` = absent.
        bounds: [Option<(f64, f64)>; 3],
        predicates: Vec<Predicate>,
    },
    /// (device, epoch)
    Get(u64, u64),
    /// Every epoch of one device.
    Scan(u64),
    Put(u64, u64, f64),
    Sketch(u64),
    TsRange {
        category: usize,
        from: u64,
        to: u64,
    },
    Recommend(u64),
}

impl Query {
    fn class(&self) -> Class {
        match self {
            Query::Col { mean: false, .. } => Class::ColSum,
            Query::Col { mean: true, .. } => Class::ColMean,
            Query::Get(..) => Class::LsmGet,
            Query::Scan(..) => Class::LsmScan,
            Query::Put(..) => Class::LsmPut,
            Query::Sketch(_) => Class::Sketch,
            Query::TsRange { .. } => Class::TsRange,
            Query::Recommend(_) => Class::Recommend,
        }
    }
}

pub struct Inputs {
    rows: Vec<Row>,
    queries: Vec<Query>,
    interactions: Vec<Interaction>,
    owned: HashMap<u64, HashSet<u64>>,
    recommender: ItemItemRecommender,
}

fn profile_key(device: u64, epoch: u64) -> Vec<u8> {
    let mut k = Vec::with_capacity(17);
    k.push(b'd');
    k.extend_from_slice(&device.to_be_bytes());
    k.extend_from_slice(&epoch.to_be_bytes());
    k
}

fn profile_slot(device: u64, epoch: u64) -> Option<usize> {
    ((device as usize) < DEVICES && (epoch as usize) < EPOCHS)
        .then(|| device as usize * EPOCHS + epoch as usize)
}

fn profile_bytes(count: u64, sum: f64) -> Vec<u8> {
    let mut v = Vec::with_capacity(16);
    v.extend_from_slice(&count.to_le_bytes());
    v.extend_from_slice(&sum.to_le_bytes());
    v
}

fn make_query(rng: &mut StdRng, zipf: &Zipf, users: &Zipf) -> Query {
    let total: u32 = CLASSES.iter().map(|c| c.2).sum();
    let mut pick = rng.gen_range(0..total);
    let mut class = Class::ColSum;
    for (c, _, w) in CLASSES {
        if pick < w {
            class = c;
            break;
        }
        pick -= w;
    }
    match class {
        Class::ColSum | Class::ColMean => {
            let selectivity: f64 = [0.01, 0.1, 0.5][rng.gen_range(0..3usize)];
            let npred = rng.gen_range(1..=3usize);
            let each = selectivity.powf(1.0 / npred as f64);
            let mut bounds = [None; 3];
            let mut predicates = Vec::with_capacity(npred);
            let spans = [1_000.0, 1.0, (ROWS as u64 * TS_STEP_US) as f64];
            for (i, name) in ["value", "score", "ts"].iter().enumerate().take(npred) {
                let width = spans[i] * each;
                let lo = rng.gen_range(0.0..spans[i] - width);
                bounds[i] = Some((lo, lo + width));
                predicates.push(Predicate::NumBetween {
                    column: (*name).to_string(),
                    lo,
                    hi: lo + width,
                });
            }
            Query::Col {
                mean: class == Class::ColMean,
                bounds,
                predicates,
            }
        }
        // Cold devices have no profile in most epochs, so some gets miss.
        Class::LsmGet => Query::Get(zipf.sample(rng) as u64, rng.gen_range(0..EPOCHS as u64)),
        Class::LsmScan => Query::Scan(zipf.sample(rng) as u64),
        Class::LsmPut => Query::Put(
            zipf.sample(rng) as u64,
            rng.gen_range(0..EPOCHS as u64),
            rng.gen_range(0.0..1_000.0),
        ),
        Class::Sketch => Query::Sketch(zipf.sample(rng) as u64),
        Class::TsRange => {
            let span = ROWS as u64 * TS_STEP_US;
            let from = rng.gen_range(0..span / 2);
            Query::TsRange {
                category: rng.gen_range(0..CATEGORIES.len()),
                from,
                to: from + span / 10,
            }
        }
        Class::Recommend => Query::Recommend(users.sample(rng) as u64),
    }
}

impl Workload for InsightQuery {
    type Inputs = Inputs;
    const ROOTS: &'static [&'static str] = &["load", "query"];

    fn setup(seed: u64) -> Inputs {
        let mut rng = StdRng::seed_from_u64(seed ^ 0x494e_5349_4748);
        let zipf = Zipf::new(DEVICES, 1.1);
        let rows = (0..ROWS)
            .map(|i| Row {
                device: zipf.sample(&mut rng) as u64,
                category: rng.gen_range(0..CATEGORIES.len()),
                value: rng.gen_range(0.0..1_000.0),
                score: rng.gen_range(0.0..1.0),
                ts: i as u64 * TS_STEP_US,
            })
            .collect();
        let users = Zipf::new(USERS, 0.8);
        let items = Zipf::new(ITEMS, 1.0);
        let interactions: Vec<Interaction> = (0..INTERACTIONS)
            .map(|_| Interaction {
                user: users.sample(&mut rng) as u64,
                item: items.sample(&mut rng) as u64,
                weight: 1.0,
            })
            .collect();
        let mut owned: HashMap<u64, HashSet<u64>> = HashMap::new();
        for i in &interactions {
            owned.entry(i.user).or_default().insert(i.item);
        }
        let recommender = ItemItemRecommender::train(&interactions, 20);
        let queries = (0..QUERIES)
            .map(|_| make_query(&mut rng, &zipf, &users))
            .collect();
        Inputs {
            rows,
            queries,
            interactions,
            owned,
            recommender,
        }
    }

    fn fingerprint(inputs: &Inputs) -> u64 {
        let mut fp = Fingerprint::new();
        for r in &inputs.rows {
            fp.u64(r.device);
            fp.u64(r.category as u64);
            fp.f64(r.value);
            fp.f64(r.score);
            fp.u64(r.ts);
        }
        for i in &inputs.interactions {
            fp.u64(i.user);
            fp.u64(i.item);
            fp.f64(i.weight);
        }
        for q in &inputs.queries {
            match q {
                Query::Col { mean, bounds, .. } => {
                    fp.u64(u64::from(*mean));
                    for (lo, hi) in bounds.iter().flatten() {
                        fp.f64(*lo);
                        fp.f64(*hi);
                    }
                }
                Query::Scan(d) | Query::Sketch(d) | Query::Recommend(d) => fp.u64(*d),
                Query::Get(d, e) => {
                    fp.u64(*d);
                    fp.u64(*e);
                }
                Query::Put(d, e, v) => {
                    fp.u64(*d);
                    fp.u64(*e);
                    fp.f64(*v);
                }
                Query::TsRange { category, from, to } => {
                    fp.u64(*category as u64);
                    fp.u64(*from);
                    fp.u64(*to);
                }
            }
        }
        fp.u64(inputs.recommender.item_count() as u64);
        fp.value()
    }

    fn run(inputs: &mut Inputs, seconds: f64, trace: &mut Trace) -> Outcome {
        let mut out = Outcome::default();
        let t_run = Instant::now();
        let mut load_s = Vec::with_capacity(ROUNDS);
        let mut lat_us: Vec<f64> = Vec::with_capacity(1 << 16);
        let mut by_class: HashMap<Class, Vec<f64>> = HashMap::new();
        let mut checked_rows = (0u64, 0u64);
        let (mut flushes, mut compactions, mut read_amp) = (0, 0, 0);
        let mut n = 0usize;
        // Rounds of one load phase into fresh stores followed by queries
        // against them, so load samples spread over the whole run.
        for round in 0..ROUNDS {
            let t0 = Instant::now();
            let mut s = load_rows(&inputs.rows, trace, round as u64);
            load_s.push(t0.elapsed().as_secs_f64());
            out.attempted += 1;
            if let Err(e) = s.check_load(&inputs.rows) {
                out.fail(format!("load {round}: {e}"));
            }
            // At least one query per round, then until this round's share
            // of the run is used up.
            let until = seconds * (round + 1) as f64 / ROUNDS as f64;
            let first = n;
            while n == first || t_run.elapsed().as_secs_f64() < until {
                let q = &inputs.queries[n % inputs.queries.len()];
                let t0 = Instant::now();
                let root = trace.begin("query", n as u64);
                let answer = s.execute(q, &inputs.recommender, trace, n as u64);
                trace.end(root, 1);
                let us = t0.elapsed().as_secs_f64() * 1e6;
                lat_us.push(us);
                by_class.entry(q.class()).or_default().push(us);
                out.attempted += 1;
                // Checks, outside the timed region.
                let check = match q {
                    Query::Col { .. } if !n.is_multiple_of(COL_CHECK_EVERY) => Ok(()),
                    _ => s.check(q, &answer, inputs, &mut checked_rows),
                };
                if let Err(e) = check {
                    out.fail(format!("query {n} ({:?}): {e}", q.class()));
                }
                n += 1;
            }
            let stats = s.lsm.stats();
            flushes += stats.flushes;
            compactions += stats.compactions;
            read_amp = read_amp.max(s.lsm.read_amplification().1);
        }
        out.throughput = inputs.rows.len() as f64 / util::median(&load_s);
        let ms: Vec<String> = load_s.iter().map(|s| format!("{:.0}", s * 1e3)).collect();
        out.notes.push(format!("load ms: {}", ms.join(" ")));
        out.latencies(&lat_us);
        out.notes.push(format!(
            "insight_query: load {:.0} rows/s (median of {ROUNDS} loads of {ROWS}); {n} queries; lsm flushes {flushes} compactions {compactions}",
            out.throughput
        ));
        if trace.on() {
            let totals = trace.totals();
            let ns_per = |name: &str| totals.get(name).map_or(0.0, |t| t.ns_per_item());
            let us_per = |name: &str| totals.get(name).map_or(0.0, |t| t.us_per_call());
            out.layers = vec![
                ("store.col_append_ns", ns_per("store.col_append")),
                (
                    "analytics.sketch_update_ns",
                    ns_per("analytics.sketch_update"),
                ),
                ("store.lsm_put_ns", ns_per("store.lsm_put")),
                ("store.lsm_flushes", flushes as f64 / ROUNDS as f64),
                ("store.lsm_compactions", compactions as f64 / ROUNDS as f64),
                ("store.ts_append_ns", ns_per("store.ts_append")),
                ("store.col_scan_ns_per_row", ns_per("store.col_scan")),
                (
                    "store.col_selectivity",
                    checked_rows.1 as f64 / checked_rows.0.max(1) as f64,
                ),
                ("store.lsm_get_ns", ns_per("store.lsm_get")),
                ("store.lsm_read_amp", read_amp as f64),
                ("store.ts_range_ns", ns_per("store.ts_range")),
                ("analytics.recommend_us", us_per("analytics.recommend")),
            ];
            for (class, name, _) in CLASSES {
                let p50 = by_class.get(&class).map_or(0.0, |v| util::median(v));
                out.layers.push((name, p50));
            }
        }
        out
    }
}

/// The stores one load phase fills, plus the benchmark's own model of
/// what the LSM store must return.
struct Stores {
    table: ColumnTable,
    cms: CountMinSketch,
    hll: HyperLogLog,
    p2: P2Quantile,
    lsm: LsmStore,
    ts: TimeSeriesStore,
    series: Vec<SeriesId>,
    /// Per device and epoch: (count, sum) as last written to the LSM
    /// store.
    profiles: Vec<(u64, f64)>,
    /// Per device: rows loaded (the Count-Min lower bound).
    counts: Vec<u64>,
}

enum Answer {
    Num(f64),
    Mean(Option<f64>),
    Bytes(Option<Vec<u8>>),
    Scan(Vec<(Vec<u8>, Vec<u8>)>),
    Estimate(u64),
    Buckets(usize, f64),
    Items(Vec<u64>),
    None,
    Err(String),
}

fn load_rows(rows: &[Row], trace: &mut Trace, load: u64) -> Stores {
    let schema = Schema::new(vec![
        ("device", ColumnType::I64),
        ("category", ColumnType::Str),
        ("value", ColumnType::F64),
        ("score", ColumnType::F64),
        ("ts", ColumnType::I64),
    ]);
    let mut s = Stores {
        table: ColumnTable::new(schema),
        cms: CountMinSketch::new(2_048, 4).unwrap_or_else(|_| unreachable!("valid sketch size")),
        hll: HyperLogLog::new(12).unwrap_or_else(|_| unreachable!("valid precision")),
        p2: P2Quantile::new(0.99).unwrap_or_else(|_| unreachable!("valid quantile")),
        lsm: LsmStore::new(LSM),
        ts: TimeSeriesStore::new(),
        series: Vec::new(),
        profiles: vec![(0, 0.0); DEVICES * EPOCHS],
        counts: vec![0; DEVICES],
    };
    let root = trace.begin("load", load);
    s.series = trace.span("store.ts_append", load, 0, || {
        CATEGORIES
            .iter()
            .map(|c| s.ts.create_series(&format!("category/{c}")))
            .collect()
    });
    for chunk in rows.chunks(BATCH) {
        let table = &mut s.table;
        let appended = trace.span("store.col_append", load, chunk.len() as u64, || {
            chunk.iter().all(|r| {
                table
                    .append(vec![
                        Value::I64(r.device as i64),
                        Value::Str(CATEGORIES[r.category].to_string()),
                        Value::F64(r.value),
                        Value::F64(r.score),
                        Value::I64(r.ts as i64),
                    ])
                    .is_ok()
            })
        });
        let (cms, hll, p2) = (&mut s.cms, &mut s.hll, &mut s.p2);
        trace.span("analytics.sketch_update", load, chunk.len() as u64, || {
            for r in chunk {
                cms.add(r.device, 1);
                hll.add(r.device);
                p2.observe(r.value);
            }
        });
        for r in chunk {
            if let Some(slot) = profile_slot(r.device, r.ts / EPOCH_US) {
                s.profiles[slot].0 += 1;
                s.profiles[slot].1 += r.value;
            }
            s.counts[r.device as usize] += 1;
        }
        let (lsm, profiles) = (&mut s.lsm, &s.profiles);
        trace.span("store.lsm_put", load, chunk.len() as u64, || {
            for r in chunk {
                let epoch = r.ts / EPOCH_US;
                if let Some(slot) = profile_slot(r.device, epoch) {
                    let (count, sum) = profiles[slot];
                    lsm.put(profile_key(r.device, epoch), profile_bytes(count, sum));
                }
            }
        });
        let (ts, series) = (&mut s.ts, &s.series);
        let ts_ok = trace.span("store.ts_append", load, chunk.len() as u64, || {
            chunk
                .iter()
                .all(|r| ts.append(series[r.category], r.ts, r.value).is_ok())
        });
        if !appended || !ts_ok {
            // Surfaces through check_load as a row-count mismatch.
            break;
        }
    }
    trace.end(root, rows.len() as u64);
    s
}

impl Stores {
    fn check_load(&self, rows: &[Row]) -> Result<(), String> {
        if self.table.len() != rows.len() || self.ts.sample_count() != rows.len() {
            return Err(format!(
                "{} table rows and {} samples for {} rows",
                self.table.len(),
                self.ts.sample_count(),
                rows.len()
            ));
        }
        let distinct = self.counts.iter().filter(|c| **c > 0).count() as f64;
        let est = self.hll.estimate();
        if (est - distinct).abs() > 0.1 * distinct {
            return Err(format!(
                "HyperLogLog estimate {est:.0} for {distinct} devices"
            ));
        }
        Ok(())
    }

    fn execute(
        &mut self,
        q: &Query,
        recommender: &ItemItemRecommender,
        trace: &mut Trace,
        n: u64,
    ) -> Answer {
        match q {
            Query::Col {
                mean, predicates, ..
            } => {
                let table = &self.table;
                let rows = table.len() as u64;
                trace.span("store.col_scan", n, rows, || {
                    if *mean {
                        table
                            .mean("value", predicates)
                            .map_or_else(|e| Answer::Err(e.to_string()), Answer::Mean)
                    } else {
                        table
                            .sum("value", predicates)
                            .map_or_else(|e| Answer::Err(e.to_string()), Answer::Num)
                    }
                })
            }
            Query::Get(d, e) => {
                let key = profile_key(*d, *e);
                let lsm = &self.lsm;
                trace.span("store.lsm_get", n, 1, || {
                    Answer::Bytes(lsm.get(&key).map(|b| b.to_vec()))
                })
            }
            Query::Scan(d) => {
                let (from, to) = (profile_key(*d, 0), profile_key(*d + 1, 0));
                let lsm = &self.lsm;
                trace.span("store.lsm_scan", n, 1, || {
                    Answer::Scan(
                        lsm.scan(&from, &to)
                            .into_iter()
                            .map(|(k, v)| (k.to_vec(), v.to_vec()))
                            .collect(),
                    )
                })
            }
            Query::Put(d, e, v) => {
                let Some(slot) = profile_slot(*d, *e) else {
                    return Answer::Err(format!("no profile slot for device {d} epoch {e}"));
                };
                let p = &mut self.profiles[slot];
                p.0 += 1;
                p.1 += v;
                let (key, value) = (profile_key(*d, *e), profile_bytes(p.0, p.1));
                let lsm = &mut self.lsm;
                trace.span("store.lsm_put", n, 1, || lsm.put(key, value));
                Answer::None
            }
            Query::Sketch(d) => {
                let (cms, hll, p2) = (&self.cms, &self.hll, &self.p2);
                trace.span("analytics.sketch_estimate", n, 1, || {
                    let est = cms.estimate(*d);
                    std::hint::black_box((hll.estimate(), p2.estimate()));
                    Answer::Estimate(est)
                })
            }
            Query::TsRange { category, from, to } => {
                let (ts, id) = (&self.ts, self.series[*category]);
                trace.span("store.ts_range", n, 1, || {
                    let range = ts.range(id, *from, *to).map(<[_]>::len);
                    let buckets =
                        ts.downsample(id, *from, *to, (to - from) / 20, Downsample::Count);
                    match (range, buckets) {
                        (Ok(len), Ok(b)) => Answer::Buckets(len, b.iter().map(|x| x.1).sum()),
                        (Err(e), _) | (_, Err(e)) => Answer::Err(e.to_string()),
                    }
                })
            }
            Query::Recommend(user) => trace.span("analytics.recommend", n, 1, || {
                Answer::Items(recommender.recommend(*user, 10))
            }),
        }
    }

    /// Checks one answer against the benchmark's own model of the data.
    fn check(
        &self,
        q: &Query,
        answer: &Answer,
        inputs: &Inputs,
        checked_rows: &mut (u64, u64),
    ) -> Result<(), String> {
        match (q, answer) {
            (_, Answer::Err(e)) => Err(e.clone()),
            (Query::Col { mean, bounds, .. }, got) => {
                let within =
                    |b: &Option<(f64, f64)>, x: f64| b.is_none_or(|(lo, hi)| x >= lo && x <= hi);
                let (mut sum, mut matched) = (0.0, 0u64);
                for r in &inputs.rows {
                    if within(&bounds[0], r.value)
                        && within(&bounds[1], r.score)
                        && within(&bounds[2], r.ts as f64)
                    {
                        sum += r.value;
                        matched += 1;
                    }
                }
                checked_rows.0 += inputs.rows.len() as u64;
                checked_rows.1 += matched;
                let want = if *mean {
                    (matched > 0).then(|| sum / matched as f64)
                } else {
                    Some(sum)
                };
                let got = match got {
                    Answer::Num(x) => Some(*x),
                    Answer::Mean(x) => *x,
                    _ => return Err("wrong answer kind".into()),
                };
                match (got, want) {
                    (None, None) => Ok(()),
                    (Some(g), Some(w)) if (g - w).abs() <= 1e-9 * w.abs().max(1.0) => Ok(()),
                    _ => Err(format!("columnar {got:?}, row-order reference {want:?}")),
                }
            }
            (Query::Get(d, e), Answer::Bytes(got)) => {
                let want = profile_slot(*d, *e)
                    .map(|slot| self.profiles[slot])
                    .filter(|p| p.0 > 0)
                    .map(|p| profile_bytes(p.0, p.1));
                if *got == want {
                    Ok(())
                } else {
                    Err(format!("get({d}, {e}) is not the last value written"))
                }
            }
            (Query::Scan(d), Answer::Scan(got)) => {
                let want: Vec<(Vec<u8>, Vec<u8>)> = (0..EPOCHS as u64)
                    .filter_map(|e| {
                        let p = self.profiles[profile_slot(*d, e)?];
                        (p.0 > 0).then(|| (profile_key(*d, e), profile_bytes(p.0, p.1)))
                    })
                    .collect();
                if *got == want {
                    Ok(())
                } else {
                    Err(format!(
                        "scan of device {d} returned {} entries, want {}",
                        got.len(),
                        want.len()
                    ))
                }
            }
            (Query::Put(..), Answer::None) => Ok(()),
            (Query::Sketch(d), Answer::Estimate(est)) => {
                let truth = self.counts[*d as usize];
                if *est >= truth {
                    Ok(())
                } else {
                    Err(format!(
                        "Count-Min estimate {est} below the true count {truth}"
                    ))
                }
            }
            (Query::TsRange { category, from, to }, Answer::Buckets(len, counted)) => {
                let want = inputs
                    .rows
                    .iter()
                    .filter(|r| r.category == *category && r.ts >= *from && r.ts < *to)
                    .count();
                if *len == want && (*counted - want as f64).abs() < 0.5 {
                    Ok(())
                } else {
                    Err(format!(
                        "range returned {len} samples ({counted} in buckets), want {want}"
                    ))
                }
            }
            (Query::Recommend(user), Answer::Items(items)) => {
                let owned = inputs.owned.get(user);
                if items.len() > 10 {
                    Err(format!("{} recommendations for top-10", items.len()))
                } else if items.iter().any(|i| owned.is_some_and(|o| o.contains(i))) {
                    Err("recommended an item the user already has".into())
                } else {
                    Ok(())
                }
            }
            _ => Err("wrong answer kind".into()),
        }
    }
}
