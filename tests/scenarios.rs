//! Integration: the four §3 scenarios hold their headline invariants at
//! test scale, the Figure 5 reconstruction derives from them, and no
//! observability sink changes a scenario's report.
// Panic-family lints exempt #[test] fns automatically (clippy.toml) but
// not test-support helpers; assertions are the point here.
#![allow(clippy::expect_used)]

use std::fmt::Debug;

use augur::core::{
    healthcare, influence_report, retail, tourism, traffic, CoreError, InfluenceLevel, Obs,
};
use augur::log::EventLog;
use augur::telemetry::{FlightRecorder, Registry};
use augur::watch::{WatchConfig, WatchSession};

#[test]
fn retail_ordering_and_layout_invariants() {
    let r = retail::run(
        &retail::RetailParams {
            users: 400,
            ..Default::default()
        },
        &mut Obs::default(),
    )
    .unwrap();
    assert!(r.cf.hit_rate > r.popularity.hit_rate);
    assert!(r.popularity.hit_rate >= r.random.hit_rate);
    assert!(r.decluttered_layout.overlap_ratio <= r.naive_layout.overlap_ratio);
    assert!((0.0..=1.0).contains(&r.cf.hit_rate));
}

/// E7's item-item CF figures stay put: hit-rate@10 equals the committed
/// `results/e7_retail.txt` values and MRR is pinned bit for bit, so a
/// faster recommender cannot silently change what it ranks.
#[test]
fn e7_retail_cf_figures_are_pinned() {
    for (users, hit_rate, mrr_bits) in [
        (100u64, 0.17, 0x3fac_a64f_83b0_8cf6u64),
        (300, 0.22, 0x3fba_ba2f_0cc1_02ad),
    ] {
        let r = retail::run(
            &retail::RetailParams {
                users,
                ..Default::default()
            },
            &mut Obs::default(),
        )
        .unwrap();
        assert_eq!(r.cf.hit_rate, hit_rate, "{users} users");
        assert_eq!(
            r.cf.mrr.to_bits(),
            mrr_bits,
            "{users} users: mrr {}",
            r.cf.mrr
        );
    }
}

#[test]
fn tourism_invariants() {
    let r = tourism::run(
        &tourism::TourismParams {
            pois: 4_000,
            duration_s: 40.0,
            ..Default::default()
        },
        &mut Obs::default(),
    )
    .unwrap();
    assert!(r.index_speedup > 1.0);
    assert!(r.tracking_error_m.is_finite() && r.tracking_error_m < 20.0);
    assert!(r.pois_surfaced >= r.queries, "k≥1 per query");
    assert!(r.decluttered_overlap <= r.naive_overlap);
}

#[test]
fn healthcare_invariants() {
    let r = healthcare::run(
        &healthcare::HealthcareParams {
            patients: 8,
            duration_s: 600.0,
            ..Default::default()
        },
        &mut Obs::default(),
    )
    .unwrap();
    assert!((0.0..=1.0).contains(&r.recall));
    assert!(r.detected <= r.episodes);
    assert!(r.median_latency_s <= r.p95_latency_s);
    assert_eq!(r.samples_streamed, 8 * 3 * 600);
}

#[test]
fn traffic_invariants() {
    let r = traffic::run(
        &traffic::TrafficParams {
            vehicles: 20,
            duration_s: 40.0,
            ..Default::default()
        },
        &mut Obs::default(),
    )
    .unwrap();
    assert!((0.0..=1.0).contains(&r.coverage));
    assert!(r.warned_in_time <= r.near_misses);
    assert!((0.0..=1.0).contains(&r.false_alarm_ratio));
    assert!(r.mean_lead_time_s >= 0.0);
}

#[test]
fn influence_reconstruction_covers_all_fields() {
    let retail_r = retail::run(
        &retail::RetailParams {
            users: 300,
            ..Default::default()
        },
        &mut Obs::default(),
    )
    .unwrap();
    let tourism_r = tourism::run(
        &tourism::TourismParams {
            pois: 3_000,
            duration_s: 30.0,
            ..Default::default()
        },
        &mut Obs::default(),
    )
    .unwrap();
    let health_r = healthcare::run(
        &healthcare::HealthcareParams {
            patients: 6,
            duration_s: 600.0,
            ..Default::default()
        },
        &mut Obs::default(),
    )
    .unwrap();
    let traffic_r = traffic::run(
        &traffic::TrafficParams {
            vehicles: 20,
            duration_s: 40.0,
            ..Default::default()
        },
        &mut Obs::default(),
    )
    .unwrap();
    let entries = influence_report(&retail_r, &tourism_r, &health_r, &traffic_r);
    assert_eq!(entries.len(), 4);
    for e in &entries {
        assert!((0.0..=1.0).contains(&e.score), "{e:?}");
        assert!(e.level >= InfluenceLevel::Low, "derived level for {e:?}");
    }
}

/// Runs a scenario with a metrics-only handle, a traced + logged handle
/// and a watched handle, and requires the three reports to be equal.
fn assert_sinks_keep_report<R: PartialEq + Debug>(
    config: WatchConfig,
    run: impl Fn(&mut Obs) -> Result<R, CoreError>,
) {
    let metrics_only = run(&mut Obs::default()).expect("metrics-only run");
    let recorder = FlightRecorder::new(1 << 16);
    let log = EventLog::new(1 << 14);
    let traced = run(&mut Obs::new(&Registry::new()).traced(&recorder).logged(&log))
        .expect("traced + logged run");
    let mut session = WatchSession::new(config).expect("valid watch config");
    let watched = run(&mut Obs::watched(&mut session)).expect("watched run");
    assert!(!recorder.drain().is_empty(), "traced run emitted no spans");
    assert!(!log.drain().is_empty(), "logged run emitted no records");
    assert_eq!(metrics_only, traced);
    assert_eq!(metrics_only, watched);
}

#[test]
fn sinks_never_change_a_report() {
    let retail_p = retail::RetailParams {
        users: 200,
        ..Default::default()
    };
    assert_sinks_keep_report(retail::watch_config(retail_p.seed), |obs| {
        retail::run(&retail_p, obs)
    });
    let tourism_p = tourism::TourismParams {
        pois: 3_000,
        duration_s: 30.0,
        ..Default::default()
    };
    assert_sinks_keep_report(tourism::watch_config(tourism_p.seed), |obs| {
        tourism::run(&tourism_p, obs)
    });
    let health_p = healthcare::HealthcareParams {
        patients: 6,
        duration_s: 600.0,
        ..Default::default()
    };
    assert_sinks_keep_report(healthcare::watch_config(health_p.seed), |obs| {
        healthcare::run(&health_p, obs)
    });
    let traffic_p = traffic::TrafficParams {
        vehicles: 20,
        duration_s: 40.0,
        ..Default::default()
    };
    assert_sinks_keep_report(traffic::watch_config(traffic_p.seed), |obs| {
        traffic::run(&traffic_p, obs)
    });
}
