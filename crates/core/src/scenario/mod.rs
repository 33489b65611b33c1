//! The four §3 application scenarios as runnable simulations.
//!
//! Each submodule exposes a `Params` (deterministic under its seed), a
//! typed `Report` carrying the quantities the experiment index in
//! DESIGN.md references (the reports also feed the Figure 5
//! reconstruction in [`crate::influence`]), a `watch_config(seed)`
//! declaring the scenario's service-level objectives, and one entry
//! point, `run(params, &mut Obs)`. The [`Obs`] handle names the sinks
//! the run reports into: per-stage span histograms
//! (`span_duration_us{span="<scenario>/<stage>", scenario}`) always;
//! with a flight recorder, causal spans (a run root with one child per
//! stage, plus per-frame roots for tourism); with an event log, the
//! run's decisions on the same trace ids, which
//! [`augur_log::render_chrome_trace_with_logs`] interleaves with the
//! spans; with a watch session, the run's cycles graded against
//! `watch_config`'s objectives. Stage durations are **modeled**: a
//! [`augur_telemetry::ManualTime`] advances by each stage's
//! deterministic work count (one work unit ≙ one microsecond), so every
//! artifact is byte-identical across same-seed runs, and no sink
//! changes the report. Profiles and xray reports are post-processing of
//! the recorder's drain ([`augur_profile::Profile::from_events`],
//! [`augur_xray::analyze`]).

pub mod healthcare;
mod obs;
pub mod retail;
pub mod tourism;
pub mod traffic;

pub use obs::Obs;

use augur_watch::{BurnRule, Objective, SloSpec};

/// The shared trace-loss objective every scenario's `watch_config`
/// declares: the flight ring must lose fewer than 1% of its records
/// (`flight_dropped_events_total` over `flight_events_total`, both
/// exported by the watch session each tick). Silent span loss corrupts
/// profiles and traces, so it alerts like any other SLO.
pub(crate) fn trace_loss_slo() -> SloSpec {
    SloSpec {
        name: "trace_loss".to_string(),
        objective: Objective::RatioBelow {
            bad_series: "flight_dropped_events_total".to_string(),
            total_series: "flight_events_total".to_string(),
            max_ratio: 0.01,
        },
        budget: 0.1,
        period_us: 5_000_000,
        rules: vec![BurnRule {
            name: "fast".to_string(),
            short_us: 100_000,
            long_us: 250_000,
            factor: 2.0,
        }],
    }
}

/// The shared log-error-rate objective every scenario's `watch_config`
/// declares: fewer than 1% of the structured log records the session
/// drains each tick may be ERROR
/// (`log_error_records_total` over `log_records_total`, both exported
/// by the watch session). A healthy run logs decisions at INFO/WARN;
/// a burst of ERROR records is an incident regardless of what the
/// latency series say.
pub(crate) fn log_error_slo() -> SloSpec {
    SloSpec {
        name: "log_error_rate".to_string(),
        objective: Objective::RatioBelow {
            bad_series: "log_error_records_total".to_string(),
            total_series: "log_records_total".to_string(),
            max_ratio: 0.01,
        },
        budget: 0.1,
        period_us: 5_000_000,
        rules: vec![BurnRule {
            name: "fast".to_string(),
            short_us: 100_000,
            long_us: 250_000,
            factor: 2.0,
        }],
    }
}

/// The shared observability-self-cost objective every scenario's
/// `watch_config` declares: the modeled cost of recording telemetry
/// (`augur_obs_record_ns_total`, maintained by the session's
/// [`augur_sample::SelfCost`] meter) must stay below 1% of the busy
/// time it observes (`augur_obs_busy_ns_total`). Observability that
/// eats the latency budget it is supposed to protect is an incident
/// in its own right — `augur-doctor` gates the same share via the
/// exported `obs_overhead_share` gauge.
pub(crate) fn obs_overhead_slo() -> SloSpec {
    SloSpec {
        name: "obs_overhead".to_string(),
        objective: Objective::RatioBelow {
            bad_series: "augur_obs_record_ns_total".to_string(),
            total_series: "augur_obs_busy_ns_total".to_string(),
            max_ratio: 0.01,
        },
        budget: 0.1,
        period_us: 5_000_000,
        rules: vec![BurnRule {
            name: "fast".to_string(),
            short_us: 100_000,
            long_us: 250_000,
            factor: 2.0,
        }],
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use augur_log::{render_jsonl, EventLog, Level};
    use augur_telemetry::{FlightRecorder, Registry};

    fn tourism_logged() -> (Vec<augur_log::LogRecord>, Vec<augur_telemetry::FlightEvent>) {
        let params = tourism::TourismParams {
            pois: 3_000,
            duration_s: 30.0,
            k: 8,
            radius_m: 200.0,
            seed: 9,
        };
        let log = EventLog::new(1 << 12);
        let rec = FlightRecorder::new(1 << 14);
        let mut obs = Obs::new(&Registry::new()).traced(&rec).logged(&log);
        tourism::run(&params, &mut obs).expect("tourism run");
        assert_eq!(log.dropped_records(), 0, "log ring must not overflow");
        (log.drain(), rec.drain())
    }

    #[test]
    fn tourism_run_logged_correlates_with_flight_trace() {
        let (records, spans) = tourism_logged();
        let summary = records
            .iter()
            .find(|r| r.msg == "tourism/summary")
            .expect("summary record");
        assert_eq!(summary.level, Level::Info);
        // The summary sits on the run root: the flight recorder holds a
        // span with the same trace AND span id (the run-root span).
        assert!(
            spans
                .iter()
                .any(|s| s.trace_id == summary.trace_id && s.span_id == summary.span_id),
            "summary must share the flight run-root ids"
        );
        let queries = summary
            .fields
            .iter()
            .find(|(k, _)| k == "queries")
            .expect("queries field");
        assert_eq!(queries.1, augur_log::FieldValue::U64(30));
    }

    #[test]
    fn scenario_jsonl_is_byte_identical_across_runs() {
        let (a, _) = tourism_logged();
        let (b, _) = tourism_logged();
        assert_eq!(render_jsonl(&a), render_jsonl(&b));
    }

    #[test]
    fn healthcare_run_logged_captures_pipeline_decisions() {
        let params = healthcare::HealthcareParams {
            patients: 10,
            duration_s: 300.0,
            ..Default::default()
        };
        let log = EventLog::new(1 << 12);
        let rec = FlightRecorder::new(1 << 15);
        let mut obs = Obs::new(&Registry::new()).traced(&rec).logged(&log);
        healthcare::run(&params, &mut obs).expect("healthcare run");
        let records = log.drain();
        let summary = records
            .iter()
            .find(|r| r.msg == "healthcare/summary")
            .expect("summary record");
        // The vitals pipeline was wired to the same root, so its run
        // record shares the scenario trace.
        let pipeline_run = records
            .iter()
            .find(|r| r.msg == "pipeline/run")
            .expect("pipeline run record");
        assert_eq!(pipeline_run.trace_id, summary.trace_id);
        assert!(pipeline_run
            .fields
            .iter()
            .any(|(k, v)| k == "topic" && *v == augur_log::FieldValue::Str("vitals".to_string())));
    }

    #[test]
    fn traffic_run_logged_rate_limits_warning_storms() {
        let params = traffic::TrafficParams {
            vehicles: 30,
            duration_s: 60.0,
            ..Default::default()
        };
        let log = EventLog::new(1 << 12);
        let rec = FlightRecorder::new(1 << 14);
        let mut obs = Obs::new(&Registry::new()).traced(&rec).logged(&log);
        let report = traffic::run(&params, &mut obs).expect("traffic run");
        let records = log.drain();
        let warns: Vec<_> = records
            .iter()
            .filter(|r| r.msg == "traffic/warning_raised")
            .collect();
        assert!(!warns.is_empty(), "dense traffic should raise warnings");
        // The warn site's burst cap bounds the stored records even when
        // the scenario raised more warnings than that.
        assert!(
            warns.len() <= 32,
            "warn burst cap exceeded: {}",
            warns.len()
        );
        let summary = records
            .iter()
            .find(|r| r.msg == "traffic/summary")
            .expect("summary record");
        assert!(summary.fields.iter().any(|(k, v)| k == "near_misses"
            && *v == augur_log::FieldValue::U64(report.near_misses as u64)));
    }
}
