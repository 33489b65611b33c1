//! `ar_frame`: the sensor sample → AR label placed path, one AR client in
//! a closed loop on one thread. Each frame feeds the step's GPS and IMU
//! samples to a `KalmanTracker`, queries the POI database around the
//! fused pose, decides x-ray reveals against an `OcclusionIndex`,
//! projects and lays out the labels, and interprets the placed labels
//! under a fixed rule set.

use std::time::Instant;

use augur_geo::{
    CityModel, CityParams, Enu, GeoPoint, LocalFrame, Poi, PoiCategory, PoiDatabase, PoiId,
};
use augur_render::{
    greedy_layout, xray_reveals, LabelBox, LayoutMetrics, OcclusionIndex, ViewCamera, Viewport,
};
use augur_semantic::{
    ActionTemplate, Condition, Fact, FeatureId, InterpretationEngine, Rule, UserContext,
};
use augur_sensor::{GpsFix, ImuReading, Timestamp};
use augur_track::{KalmanParams, KalmanTracker, Tracker};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

use crate::trace::Trace;
use crate::util::{self, Fingerprint};
use crate::{Outcome, Workload};

/// POIs in the database: well beyond cache once indexed.
const POIS: usize = 200_000;
/// Dense districts sit on a square grid so every seed sees the same
/// density profile; a twentieth of the POIs are scattered uniformly.
const GRID: usize = 7;
const GRID_PITCH_M: f64 = 860.0;
const CLUSTER_SIGMA_M: f64 = 150.0;
const BACKGROUND_SHARE: f64 = 0.05;
const HALF_EXTENT_M: f64 = 3_000.0;
/// Walks pass a district centre at offsets spread evenly up to this.
const MAX_OFFSET_M: f64 = 300.0;
const WALKS: usize = 98;
/// Frames per walk; each walk drives 1.2 km through one dense district.
const FRAMES_PER_WALK: usize = 600;
const STEP_M: f64 = 2.0;
const FRAME_DT_US: u64 = 100_000;
const IMU_PER_FRAME: usize = 3;
const KNN: usize = 64;
const RADIUS_M: f64 = 120.0;
const FAR_M: f64 = 400.0;
const FOV_DEG: f64 = 66.0;
const LABEL_W: f64 = 150.0;
const LABEL_H: f64 = 32.0;
/// One frame in this many has its kNN answer checked by brute force.
const KNN_CHECK_EVERY: u64 = 1_024;

pub struct ArFrame;

struct Walk {
    gps: Vec<GpsFix>,
    imu: Vec<ImuReading>,
}

pub struct Inputs {
    world: World,
    walks: Vec<Walk>,
    engine: InterpretationEngine,
}

/// What every frame reads: the POI database, the city and the user.
struct World {
    frame: LocalFrame,
    db: PoiDatabase,
    city: CityModel,
    occlusion: OcclusionIndex,
    user: UserContext,
}

fn rules() -> Vec<Rule> {
    let label = |name: &str, conditions: Vec<Condition>, text: &str, priority: f64| {
        Rule::new(
            name,
            conditions,
            ActionTemplate::ShowLabel {
                text: text.into(),
                priority,
            },
        )
    };
    let rules = [
        label(
            "poi-label",
            vec![Condition::FactIs("poi".into())],
            "{name} {category}",
            0.5,
        ),
        label(
            "popular",
            vec![
                Condition::FactIs("poi".into()),
                Condition::ValueAtLeast(0.001),
            ],
            "popular {category} ({value})",
            0.9,
        ),
        Rule::new(
            "interest-highlight",
            vec![
                Condition::FactIs("poi".into()),
                Condition::AttrInInterests("category".into()),
            ],
            ActionTemplate::Highlight { color: 0x00ff_aa00 },
        ),
        Rule::new(
            "touring-route",
            vec![
                Condition::ActivityIs("touring".into()),
                Condition::AttrIs("category".into(), "landmark".into()),
            ],
            ActionTemplate::SuggestRoute {
                reason: "landmark nearby: {category}".into(),
            },
        ),
        Rule::new(
            "health-alert",
            vec![
                Condition::HealthMonitoringOn,
                Condition::AttrIs("category".into(), "health".into()),
            ],
            ActionTemplate::Alert {
                text: "clinic {value}".into(),
                severity_per_unit: 10.0,
            },
        ),
    ];
    rules.into_iter().filter_map(Result::ok).collect()
}

fn district_centre(i: usize) -> (f64, f64) {
    let half = (GRID - 1) as f64 / 2.0;
    (
        ((i % GRID) as f64 - half) * GRID_PITCH_M,
        ((i / GRID) as f64 - half) * GRID_PITCH_M,
    )
}

/// Clustered POIs with Zipf popularity by rank, in the shape of
/// `PoiGenerator`'s output but with districts on a fixed grid.
fn generate_pois(rng: &mut StdRng, frame: &LocalFrame) -> Vec<Poi> {
    (0..POIS)
        .map(|i| {
            let (x, y) = if rng.gen_bool(BACKGROUND_SHARE) {
                (
                    rng.gen_range(-HALF_EXTENT_M..HALF_EXTENT_M),
                    rng.gen_range(-HALF_EXTENT_M..HALF_EXTENT_M),
                )
            } else {
                let (cx, cy) = district_centre(rng.gen_range(0..GRID * GRID));
                (
                    cx + util::normal(rng) * CLUSTER_SIGMA_M,
                    cy + util::normal(rng) * CLUSTER_SIGMA_M,
                )
            };
            let category = PoiCategory::ALL[rng.gen_range(0..PoiCategory::ALL.len())];
            Poi {
                id: PoiId(i as u64),
                name: format!("{category}-{i}"),
                category,
                position: frame.to_geodetic(Enu::new(x, y, 0.0)),
                popularity: 1.0 / (i + 1) as f64,
            }
        })
        .collect()
}

/// Walk `i` drives straight-ish through district `i mod GRID²`, passing
/// its centre at the `i`-th of `WALKS` evenly spread offsets.
fn generate_walk(rng: &mut StdRng, i: usize) -> Walk {
    let (cx, cy) = district_centre(i % (GRID * GRID));
    let mut heading = rng.gen_range(0.0..std::f64::consts::TAU);
    let offset = MAX_OFFSET_M * (i as f64 + rng.gen_range(0.0..1.0)) / WALKS as f64;
    let half = STEP_M * FRAMES_PER_WALK as f64 / 2.0;
    let mut e = cx + offset * heading.cos() - half * heading.sin();
    let mut n = cy - offset * heading.sin() - half * heading.cos();
    let mut gps = Vec::with_capacity(FRAMES_PER_WALK);
    let mut imu = Vec::with_capacity(FRAMES_PER_WALK * IMU_PER_FRAME);
    let speed = STEP_M / (FRAME_DT_US as f64 / 1e6);
    for i in 0..FRAMES_PER_WALK {
        let t_us = (i as u64 + 1) * FRAME_DT_US;
        let turn = util::normal(rng) * 0.002;
        heading += turn;
        e += STEP_M * heading.sin();
        n += STEP_M * heading.cos();
        for j in 0..IMU_PER_FRAME {
            imu.push(ImuReading {
                time: Timestamp::from_micros(
                    t_us - FRAME_DT_US + (j as u64 + 1) * FRAME_DT_US / (IMU_PER_FRAME as u64 + 1),
                ),
                accel_east: util::normal(rng) * 0.2,
                accel_north: util::normal(rng) * 0.2,
                yaw_rate_dps: turn.to_degrees() * 10.0 + util::normal(rng) * 0.5,
            });
        }
        gps.push(GpsFix {
            time: Timestamp::from_micros(t_us),
            position: Enu::new(
                e + util::normal(rng) * 3.0,
                n + util::normal(rng) * 3.0,
                0.0,
            ),
            speed_mps: speed + util::normal(rng) * 0.2,
            accuracy_m: 3.0,
        });
    }
    Walk { gps, imu }
}

impl Workload for ArFrame {
    type Inputs = Inputs;
    const ROOTS: &'static [&'static str] = &["frame"];

    fn setup(seed: u64) -> Inputs {
        let mut rng = StdRng::seed_from_u64(seed ^ 0x4152_4652);
        let origin = GeoPoint::clamped(22.3364, 114.2655);
        let frame = LocalFrame::new(origin);
        let pois = generate_pois(&mut rng, &frame);
        let city = CityModel::generate(
            &CityParams {
                blocks: 40,
                block_size_m: 120.0,
                street_width_m: 18.0,
                buildings_per_block_axis: 2,
                mean_height_m: 25.0,
                height_spread: 0.5,
            },
            &mut rng,
        );
        let walks = (0..WALKS).map(|i| generate_walk(&mut rng, i)).collect();
        let db = PoiDatabase::build(origin, pois);
        let occlusion = OcclusionIndex::build(&city);
        let mut engine = InterpretationEngine::new();
        for rule in rules() {
            engine.add_rule(rule);
        }
        Inputs {
            world: World {
                frame,
                db,
                city,
                occlusion,
                user: UserContext {
                    activity: "touring".into(),
                    interests: vec!["food".into(), "landmark".into()],
                    health_monitoring: true,
                },
            },
            walks,
            engine,
        }
    }

    fn fingerprint(inputs: &Inputs) -> u64 {
        let mut fp = Fingerprint::new();
        for p in inputs.world.db.iter() {
            fp.u64(p.id.0);
            fp.str(&p.name);
            fp.str(&p.category.to_string());
            fp.f64(p.position.latitude_deg());
            fp.f64(p.position.longitude_deg());
            fp.f64(p.popularity);
        }
        for b in inputs.world.city.buildings() {
            fp.u64(u64::from(b.id));
            fp.f64(b.footprint.min_x());
            fp.f64(b.footprint.min_y());
            fp.f64(b.footprint.max_x());
            fp.f64(b.footprint.max_y());
            fp.f64(b.height_m);
        }
        for w in &inputs.walks {
            for g in &w.gps {
                fp.u64(g.time.as_micros());
                fp.f64(g.position.east);
                fp.f64(g.position.north);
                fp.f64(g.speed_mps);
            }
            for r in &w.imu {
                fp.u64(r.time.as_micros());
                fp.f64(r.accel_east);
                fp.f64(r.accel_north);
                fp.f64(r.yaw_rate_dps);
            }
        }
        fp.u64(inputs.engine.rule_count() as u64);
        fp.value()
    }

    fn run(inputs: &mut Inputs, seconds: f64, trace: &mut Trace) -> Outcome {
        let mut out = Outcome::default();
        let mut frame_us: Vec<f64> = Vec::with_capacity(1 << 16);
        let mut knn_samples: Vec<(Enu, Vec<f64>)> = Vec::new();
        let mut sums = FrameSums::default();
        let Inputs {
            world,
            walks,
            engine,
        } = inputs;
        let t_run = Instant::now();
        let mut n = 0u64;
        'walks: for walk in walks.iter().cycle() {
            let mut tracker = KalmanTracker::new(KalmanParams::default());
            for step in 0..walk.gps.len() {
                if n > 0 && t_run.elapsed().as_secs_f64() >= seconds {
                    break 'walks;
                }
                let t0 = Instant::now();
                let root = trace.begin("frame", n);
                let scope = trace.alloc_scope("frame");
                let f = run_frame(world, engine, walk, step, &mut tracker, trace, n);
                drop(scope);
                trace.end(root, 1);
                frame_us.push(t0.elapsed().as_secs_f64() * 1e6);
                out.attempted += 1;
                // Checks, outside the timed region.
                let metrics = LayoutMetrics::measure(&f.labels, &f.placed);
                if metrics.overlap_ratio > 0.0 {
                    out.fail(format!("frame {n}: placed labels overlap"));
                } else if f.directives < f.placed.len() {
                    out.fail(format!("frame {n}: a placed label was not interpreted"));
                }
                if n.is_multiple_of(KNN_CHECK_EVERY) {
                    knn_samples.push((f.here, f.knn_dist));
                }
                sums.candidates += f.candidates as u64;
                sums.labels += f.labels.len() as u64;
                sums.placed += f.placed.len() as u64;
                sums.per_frame_labels.push(f.labels.len() as f64);
                n += 1;
            }
        }
        for (here, got) in &knn_samples {
            if brute_force_knn(&world.db, &world.frame, *here) != *got {
                out.fail(format!("kNN at {here:?} differs from brute force"));
            }
        }
        out.attempted += knn_samples.len() as u64;
        out.throughput = frame_us.len() as f64 / (frame_us.iter().sum::<f64>() / 1e6);
        out.latencies(&frame_us);
        let frames = n.max(1) as f64;
        out.notes.push(format!(
            "ar_frame: {n} frames, {:.1} candidates, {:.1} labels (p10 {} p50 {} p90 {} max {}), {:.1} placed per frame; {} kNN checks",
            sums.candidates as f64 / frames,
            sums.labels as f64 / frames,
            util::percentile(&sums.per_frame_labels, 0.1),
            util::percentile(&sums.per_frame_labels, 0.5),
            util::percentile(&sums.per_frame_labels, 0.9),
            util::percentile(&sums.per_frame_labels, 1.0),
            sums.placed as f64 / frames,
            knn_samples.len()
        ));
        if trace.on() {
            let totals = trace.totals();
            let per_frame = |name: &str| totals.get(name).map_or(0.0, |t| t.us_per_call());
            out.layers = vec![
                (
                    "track.update_ns",
                    totals.get("track.update").map_or(0.0, |t| t.ns_per_item()),
                ),
                ("geo.knn_us", per_frame("geo.knn")),
                ("geo.radius_us", per_frame("geo.radius")),
                ("geo.candidates", sums.candidates as f64 / frames),
                ("render.occlusion_us", per_frame("render.occlusion")),
                ("render.project_us", per_frame("render.project")),
                ("render.layout_us", per_frame("render.layout")),
                ("render.labels", sums.labels as f64 / frames),
                (
                    "render.placed_share",
                    sums.placed as f64 / sums.labels.max(1) as f64,
                ),
                ("semantic.interpret_us", per_frame("semantic.interpret")),
                ("frame.allocs", trace.allocs("frame") as f64 / frames),
            ];
        }
        out
    }
}

#[derive(Default)]
struct FrameSums {
    candidates: u64,
    labels: u64,
    placed: u64,
    per_frame_labels: Vec<f64>,
}

struct FrameOut {
    here: Enu,
    knn_dist: Vec<f64>,
    candidates: usize,
    labels: Vec<LabelBox>,
    placed: Vec<augur_render::PlacedLabel>,
    directives: usize,
}

/// One candidate POI in the frame: position, category, priority.
struct Target {
    pos: Enu,
    category: PoiCategory,
    popularity: f64,
}

fn run_frame(
    world: &World,
    engine: &mut InterpretationEngine,
    walk: &Walk,
    step: usize,
    tracker: &mut KalmanTracker,
    trace: &mut Trace,
    n: u64,
) -> FrameOut {
    let fix = &walk.gps[step];
    let imu = &walk.imu[step * IMU_PER_FRAME..(step + 1) * IMU_PER_FRAME];
    let pose = trace.span("track.update", n, (1 + imu.len()) as u64, || {
        tracker.update_gps(fix);
        for r in imu {
            tracker.update_imu(r);
        }
        tracker.pose(fix.time)
    });
    let db = &world.db;
    let frame = &world.frame;
    let here = frame.to_geodetic(pose.position);
    let knn = trace.span("geo.knn", n, KNN as u64, || db.nearest(here, KNN, None));
    let near = trace.span("geo.radius", n, 1, || db.within_radius(here, RADIUS_M));
    // Candidates: the kNN answer plus the radius answer minus the POIs
    // both returned, in the local frame.
    let targets: Vec<Target> = trace.span("geo.to_enu", n, 1, || {
        let mut knn_ids: Vec<u64> = knn.iter().map(|p| p.id.0).collect();
        knn_ids.sort_unstable();
        let extra = near
            .iter()
            .filter(|p| knn_ids.binary_search(&p.id.0).is_err());
        knn.iter()
            .chain(extra)
            .map(|p| {
                let e = frame.to_enu(p.position);
                Target {
                    pos: Enu::new(e.east, e.north, 4.0),
                    category: p.category,
                    popularity: p.popularity,
                }
            })
            .collect()
    });
    let centre = frame.to_enu(here);
    let mut knn_dist: Vec<f64> = knn
        .iter()
        .map(|p| planar_distance(frame.to_enu(p.position), centre))
        .collect();
    knn_dist.sort_by(f64::total_cmp);
    let camera = ViewCamera::new(
        Enu::new(pose.position.east, pose.position.north, 1.6),
        pose.heading_deg,
        FOV_DEG,
        Viewport::default(),
        FAR_M,
    );
    let mut out = FrameOut {
        here: centre,
        knn_dist,
        candidates: targets.len(),
        labels: Vec::new(),
        placed: Vec::new(),
        directives: 0,
    };
    let Ok(camera) = camera else {
        return out;
    };
    // Scene ids are indices into `targets`.
    let points: Vec<(u64, Enu)> = targets
        .iter()
        .enumerate()
        .map(|(i, t)| (i as u64, t.pos))
        .collect();
    let reveals = trace.span("render.occlusion", n, points.len() as u64, || {
        xray_reveals(&camera, &points, &world.occlusion)
    });
    out.labels = trace.span("render.project", n, reveals.len() as u64, || {
        reveals
            .iter()
            .filter_map(|r| {
                let t = &targets[r.target_id as usize];
                camera.project(t.pos).map(|px| LabelBox {
                    id: r.target_id,
                    anchor_px: px,
                    width_px: LABEL_W,
                    height_px: LABEL_H,
                    priority: if r.reveal {
                        t.popularity * 0.5
                    } else {
                        t.popularity
                    },
                })
            })
            .collect()
    });
    let labels = &out.labels;
    out.placed = trace.span("render.layout", n, labels.len() as u64, || {
        greedy_layout(labels, Viewport::default())
    });
    let placed = &out.placed;
    let user = &world.user;
    out.directives = trace.span("semantic.interpret", n, placed.len() as u64, || {
        let mut fired = 0usize;
        for p in placed {
            let t = &targets[p.id as usize];
            let fact = Fact::new("poi", FeatureId(p.id), t.popularity)
                .with_attr("category", &t.category.to_string());
            fired += engine.interpret(&fact, user).len();
        }
        fired
    });
    out
}

fn planar_distance(a: Enu, b: Enu) -> f64 {
    (a.east - b.east).hypot(a.north - b.north)
}

/// Distances of the `KNN` nearest POIs by exhaustive scan, in the same
/// local frame the index works in.
fn brute_force_knn(db: &PoiDatabase, frame: &LocalFrame, here: Enu) -> Vec<f64> {
    let mut d: Vec<f64> = db
        .iter()
        .map(|p| planar_distance(frame.to_enu(p.position), here))
        .collect();
    d.sort_by(f64::total_cmp);
    d.truncate(KNN);
    d
}
