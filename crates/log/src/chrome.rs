//! Merged Chrome trace-event export: spans from a drained
//! [`FlightRecorder`](augur_telemetry::FlightRecorder) plus log records
//! as instant events, in one Perfetto-loadable document — so a WARN
//! about a late drop renders *inside* the frame span that caused it.
//!
//! Spans and metadata rows are written by the same row writers as
//! `augur_telemetry::render_chrome_trace`; log records add
//! `"cat":"log"` instants whose `args` carry the level and the typed
//! fields. Worker-lane spans render on `tid == lane id` with
//! a named `thread_name` row; control-lane events and logs are
//! assigned per-`trace_id` synthetic tids (offset above
//! [`CONTROL_TID_BASE`](augur_telemetry::chrome::CONTROL_TID_BASE), in
//! order of first appearance over the merged stream), so a causal
//! chain's spans and logs share a row. A log whose trace ran on a
//! worker lane joins that lane's row.

use std::fmt::Write as _;

use augur_telemetry::chrome::{
    write_event, write_process_name, write_thread_name, CONTROL_TID_BASE,
};
use augur_telemetry::{escape_json, json_f64, FlightEvent, LaneId};

use crate::export::canonical_order;
use crate::ring::{FieldValue, LogRecord};

/// Renders spans and logs (each in drain order) as one Chrome
/// trace-event JSON document. Logs are canonically ordered first, so the
/// output is a pure function of the two record sets.
pub fn render_chrome_trace_with_logs(
    process_name: &str,
    spans: &[FlightEvent],
    logs: &[LogRecord],
) -> String {
    let mut sorted_logs: Vec<LogRecord> = logs.to_vec();
    canonical_order(&mut sorted_logs);
    // Worker lanes present, and the lane each lane-borne trace ran on.
    let mut worker_lanes: Vec<LaneId> = Vec::new();
    let mut lane_of_trace: Vec<(u64, LaneId)> = Vec::new();
    for e in spans {
        if e.lane.is_worker() {
            if !worker_lanes.contains(&e.lane) {
                worker_lanes.push(e.lane);
            }
            if !lane_of_trace.iter().any(|(t, _)| *t == e.trace_id) {
                lane_of_trace.push((e.trace_id, e.lane));
            }
        }
    }
    worker_lanes.sort();
    let lane_of = |trace_id: u64| -> Option<LaneId> {
        lane_of_trace
            .iter()
            .find(|(t, _)| *t == trace_id)
            .map(|(_, l)| *l)
    };
    // Control chains in first-appearance order over spans then logs.
    let mut chains: Vec<u64> = Vec::new();
    for e in spans {
        if !e.lane.is_worker() && !chains.contains(&e.trace_id) {
            chains.push(e.trace_id);
        }
    }
    for r in &sorted_logs {
        if lane_of(r.trace_id).is_none() && !chains.contains(&r.trace_id) {
            chains.push(r.trace_id);
        }
    }
    let tid_of = |trace_id: u64, lane: LaneId| -> u64 {
        if lane.is_worker() {
            return u64::from(lane.0);
        }
        if let Some(l) = lane_of(trace_id) {
            return u64::from(l.0);
        }
        let pos = chains.iter().position(|t| *t == trace_id).unwrap_or(0);
        CONTROL_TID_BASE + pos as u64
    };
    let mut out = String::from("{\"traceEvents\":[");
    write_process_name(&mut out, process_name);
    for lane in &worker_lanes {
        out.push(',');
        write_thread_name(&mut out, u64::from(lane.0), &format!("lane-{}", lane.0));
    }
    for idx in 0..chains.len() {
        out.push(',');
        write_thread_name(
            &mut out,
            CONTROL_TID_BASE + idx as u64,
            &format!("trace-{idx}"),
        );
    }
    for e in spans {
        out.push(',');
        write_event(&mut out, e, tid_of(e.trace_id, e.lane));
    }
    for r in &sorted_logs {
        let tid = tid_of(r.trace_id, LaneId::CONTROL);
        out.push(',');
        let _ = write!(
            out,
            "{{\"name\":\"{}\",\"cat\":\"log\",\"ph\":\"i\",\"s\":\"t\",\"ts\":{},\
             \"pid\":1,\"tid\":{tid},\"args\":{{\"trace_id\":\"{:016x}\",\
             \"span_id\":\"{:016x}\",\"level\":\"{}\"",
            escape_json(&r.msg),
            r.ts_us,
            r.trace_id,
            r.span_id,
            r.level
        );
        for (key, value) in &r.fields {
            let _ = write!(out, ",\"{}\":", escape_json(key));
            match value {
                FieldValue::U64(v) => {
                    let _ = write!(out, "{v}");
                }
                FieldValue::I64(v) => {
                    let _ = write!(out, "{v}");
                }
                FieldValue::F64(v) => out.push_str(&json_f64(*v)),
                FieldValue::Bool(v) => out.push_str(if *v { "true" } else { "false" }),
                FieldValue::Str(s) => {
                    let _ = write!(out, "\"{}\"", escape_json(s));
                }
            }
        }
        out.push_str("}}");
    }
    out.push_str("],\"displayTimeUnit\":\"ms\"}");
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::level::Level;
    use crate::ring::EventLog;
    use crate::site::LogSite;
    use augur_telemetry::{FlightRecorder, TraceContext};

    fn sample() -> (Vec<FlightEvent>, Vec<LogRecord>) {
        let rec = FlightRecorder::new(16);
        let frame = rec.intern("frame");
        let root = TraceContext::root(7, 0);
        rec.record_span(root, frame, 0, 1_000);
        rec.record_span(root.child_named("layout"), rec.intern("layout"), 100, 400);

        let log = EventLog::new(16);
        let site = LogSite::unlimited();
        log.event(
            &site,
            Level::Warn,
            root.child_named("layout"),
            "layout/declutter_drop",
            450,
            &[("dropped", crate::ring::Arg::U64(3))],
        );
        (rec.drain(), log.drain())
    }

    #[test]
    fn logs_render_as_instants_on_the_span_chain_row() {
        let (spans, logs) = sample();
        let json = render_chrome_trace_with_logs("augur", &spans, &logs);
        assert!(json.starts_with("{\"traceEvents\":["));
        assert!(json.ends_with("],\"displayTimeUnit\":\"ms\"}"));
        assert!(json.contains("\"cat\":\"log\""));
        assert!(json.contains("\"level\":\"warn\""));
        assert!(json.contains("\"dropped\":3"));
        // The log instant shares the causal chain's named tid with its
        // spans (thread_name row + two spans + one log).
        let tid = format!("\"tid\":{CONTROL_TID_BASE},");
        assert_eq!(json.matches(tid.as_str()).count(), 4);
        assert!(json.contains("{\"name\":\"trace-0\"}"));
        // The log's span_id matches the layout span it was emitted under.
        let layout_span = spans[1].span_id;
        assert!(logs.iter().all(|r| r.span_id == layout_span));
    }

    #[test]
    fn rendering_is_a_pure_function_of_inputs() {
        let (spans, logs) = sample();
        assert_eq!(
            render_chrome_trace_with_logs("p", &spans, &logs),
            render_chrome_trace_with_logs("p", &spans, &logs)
        );
    }

    #[test]
    fn without_logs_matches_the_span_only_renderer() {
        // Two control-lane chains plus a worker lane whose trace never
        // touches the control lane: with no logs to place, the merged
        // document is the span-only document byte for byte.
        let (mut spans, _) = sample();
        let rec = FlightRecorder::new(16);
        let n = rec.intern("frame");
        rec.record_instant(TraceContext::root(7, 1), n, 1_200, 9);
        spans.extend(rec.drain());
        let lanes = augur_telemetry::Lanes::new(9, 16);
        let pump = lanes.register("pump");
        let time = augur_telemetry::ManualTime::shared();
        let clock: augur_telemetry::Clock = time.clone();
        let poll = pump.recorder().intern("poll");
        let work = pump.work(&clock, pump.root(), poll);
        time.advance_micros(5);
        work.end();
        spans.extend(lanes.merge_drains().events);
        assert_eq!(
            render_chrome_trace_with_logs("p \"q\"", &spans, &[]),
            augur_telemetry::render_chrome_trace("p \"q\"", &spans)
        );
    }
}
