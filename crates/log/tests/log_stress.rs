//! Event-log overflow stress: 4 producer threads hammer a small ring far
//! past capacity with four-field records (the widest slot the seqlock
//! ring carries) while a drainer thread drains concurrently. Every
//! drained record must be untorn — its ids, message and all four fields
//! must belong to the same emit — and at quiescence the books balance
//! exactly: `drained + dropped_records == total_records`. Races in the
//! slot protocol only show under optimized builds; CI runs this crate's
//! tests with `--release` as well.
#![allow(clippy::expect_used)] // test harness: a panicked producer is fatal by design

use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::thread;

use augur_log::{EventLog, FieldValue, Level, LogRecord, LogSite, Value};
use augur_telemetry::TraceContext;

const PRODUCERS: u64 = 4;
const RECORDS_PER_PRODUCER: u64 = 50_000;
const CAPACITY: usize = 1024;

/// Asserts `r` is exactly what producer `ts_us / RECORDS_PER_PRODUCER`
/// emitted as its `ts_us % RECORDS_PER_PRODUCER`-th record.
fn assert_untorn(r: &LogRecord) {
    let producer = r.ts_us / RECORDS_PER_PRODUCER;
    let i = r.ts_us % RECORDS_PER_PRODUCER;
    let expected = TraceContext::root(0x106, producer).child(i);
    assert_eq!(r.level, Level::Warn);
    assert_eq!(r.trace_id, expected.trace_id, "torn trace_id");
    assert_eq!(r.span_id, expected.span_id, "torn span_id");
    assert_eq!(r.msg, format!("producer/{producer}"), "msg/payload mix");
    assert_eq!(
        r.fields,
        vec![
            ("index".to_string(), FieldValue::U64(i)),
            ("neg".to_string(), FieldValue::I64(-(r.ts_us as i64))),
            ("half".to_string(), FieldValue::F64(r.ts_us as f64 * 0.5)),
            ("odd".to_string(), FieldValue::Bool(i % 2 == 1)),
        ],
        "torn fields"
    );
}

#[test]
fn four_producer_overflow_drains_only_untorn_records() {
    let log = Arc::new(EventLog::new(CAPACITY));
    // Intern up-front: the hot path must stay lock-free.
    let msgs: Vec<_> = (0..PRODUCERS)
        .map(|p| log.intern(&format!("producer/{p}")))
        .collect();
    let keys = [
        log.intern("index"),
        log.intern("neg"),
        log.intern("half"),
        log.intern("odd"),
    ];

    let done = Arc::new(AtomicBool::new(false));
    let drainer = {
        let log = Arc::clone(&log);
        let done = Arc::clone(&done);
        thread::spawn(move || {
            let mut drained = 0u64;
            while !done.load(Ordering::Acquire) {
                let records = log.drain();
                records.iter().for_each(assert_untorn);
                drained += records.len() as u64;
            }
            drained
        })
    };
    let mut handles = Vec::new();
    for p in 0..PRODUCERS {
        let log = Arc::clone(&log);
        let msg = msgs[p as usize];
        handles.push(thread::spawn(move || {
            let site = LogSite::unlimited();
            let root = TraceContext::root(0x106, p);
            for i in 0..RECORDS_PER_PRODUCER {
                // Encode (producer, i) into the timestamp so drained
                // records can be structurally validated.
                let ts = p * RECORDS_PER_PRODUCER + i;
                log.record(
                    &site,
                    Level::Warn,
                    root.child(i),
                    msg,
                    ts,
                    &[
                        (keys[0], Value::U64(i)),
                        (keys[1], Value::I64(-(ts as i64))),
                        (keys[2], Value::F64(ts as f64 * 0.5)),
                        (keys[3], Value::Bool(i % 2 == 1)),
                    ],
                );
            }
        }));
    }
    for h in handles {
        h.join().expect("producer thread panicked");
    }
    done.store(true, Ordering::Release);
    let concurrently_drained = drainer.join().expect("drainer thread panicked");

    // Quiescent now: one more drain must balance the books exactly.
    let records = log.drain();
    let total = log.total_records();
    let dropped = log.dropped_records();
    assert_eq!(total, PRODUCERS * RECORDS_PER_PRODUCER);
    assert!(
        records.len() <= CAPACITY,
        "at most `capacity` records can survive a lapped ring, got {}",
        records.len()
    );
    assert_eq!(
        concurrently_drained + records.len() as u64 + dropped,
        total,
        "every ticket must be drained or counted dropped"
    );

    // No torn payloads: every survivor must be internally consistent.
    records.iter().for_each(assert_untorn);

    // A second drain on a quiescent ring yields nothing and moves no
    // counters.
    assert!(log.drain().is_empty());
    assert_eq!(log.dropped_records(), dropped);
    assert_eq!(log.total_records(), total);
}
