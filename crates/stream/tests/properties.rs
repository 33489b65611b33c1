//! Property-based tests for the stream substrate.

use augur_stream::window::{CountAggregation, NumericStats, StatsAggregation};
use augur_stream::{
    BoundedOutOfOrderness, Broker, CheckpointStore, PartitionId, PipelineBuilder, Record,
    SessionWindows, SlidingWindows, StreamError, TumblingWindows, Watermark, WatermarkGenerator,
    WindowAssigner, WindowResult, WindowState, WindowedAggregator,
};
use proptest::prelude::*;

/// A decoded test record: (append sequence number, value).
type Item = (u64, f64);

fn item_payload(seq: u64, value: f64) -> Vec<u8> {
    let mut out = seq.to_le_bytes().to_vec();
    out.extend_from_slice(&value.to_le_bytes());
    out
}

fn decode_item(r: &Record) -> Option<Item> {
    let seq = u64::from_le_bytes(r.payload.get(0..8)?.try_into().ok()?);
    let value = f64::from_le_bytes(r.payload.get(8..16)?.try_into().ok()?);
    Some((seq, value))
}

/// Appends `(key, event time, value)` records in order; the payload
/// carries the append sequence number.
fn broker_with(records: &[(u64, u64, f64)], partitions: u32) -> Result<Broker, StreamError> {
    let broker = Broker::new();
    broker.create_topic("t", partitions)?;
    for (seq, &(key, t, value)) in records.iter().enumerate() {
        broker.append("t", Record::new(key, item_payload(seq as u64, value), t))?;
    }
    Ok(broker)
}

/// `(key, event time, item)` in partition-then-offset order, skipping
/// what does not decode as the pipeline does.
fn arrival_order(broker: &Broker, partitions: u32) -> Result<Vec<(u64, u64, Item)>, StreamError> {
    let mut out = Vec::new();
    for p in 0..partitions {
        for pr in broker.poll("t", PartitionId(p), 0, usize::MAX)? {
            if let Some(item) = decode_item(&pr.record) {
                out.push((pr.record.key, pr.record.event_time_us, item));
            }
        }
    }
    Ok(out)
}

fn stats() -> StatsAggregation<Item, fn(&Item) -> f64> {
    fn value(i: &Item) -> f64 {
        i.1
    }
    StatsAggregation::new(value as fn(&Item) -> f64)
}

/// The window operator fed `items` in the given order, exactly as a
/// bounded run drives it: watermark first, then the offer.
fn reference_windows(
    items: &[(u64, u64, Item)],
    size_us: u64,
    bound_us: u64,
) -> (Vec<WindowResult<NumericStats>>, u64) {
    let mut agg = WindowedAggregator::new(TumblingWindows::new(size_us), stats());
    let mut wm = BoundedOutOfOrderness::new(bound_us);
    let mut out = Vec::new();
    for (key, t, item) in items {
        if wm.observe(*t).is_some() {
            out.extend(agg.advance(wm.current()));
        }
        agg.offer(*key, *t, item);
    }
    out.extend(agg.flush());
    (out, agg.late_dropped())
}

/// Window results as comparable bit patterns, in emission order.
fn bits(windows: &[WindowResult<NumericStats>]) -> Vec<(u64, u64, u64, u64, u64, u64, u64)> {
    windows
        .iter()
        .map(|w| {
            (
                w.window.start_us,
                w.window.end_us,
                w.key,
                w.value.count,
                w.value.sum.to_bits(),
                w.value.min.to_bits(),
                w.value.max.to_bits(),
            )
        })
        .collect()
}

fn pipeline(broker: &Broker, bound_us: u64, arrival: bool) -> augur_stream::Pipeline<Item> {
    PipelineBuilder::new(broker.clone(), "t", decode_item)
        .watermark_bound_us(bound_us)
        .arrival_order(arrival)
        .build()
}

/// Records with few keys and a narrow event-time range, so equal event
/// times are common within and across partitions.
fn tied_records() -> impl Strategy<Value = Vec<(u64, u64, f64)>> {
    prop::collection::vec((0u64..6, 0u64..40, -1_000.0f64..1_000.0), 1..120)
}

proptest! {
    #[test]
    fn broker_preserves_per_key_order(
        keys in prop::collection::vec(0u64..8, 1..300),
        partitions in 1u32..8,
    ) {
        let broker = Broker::new();
        broker.create_topic("t", partitions).unwrap();
        for (seq, &k) in keys.iter().enumerate() {
            broker
                .append("t", Record::new(k, (seq as u64).to_le_bytes().to_vec(), seq as u64))
                .unwrap();
        }
        // For every key: the sequence numbers read back from its
        // partition, filtered to that key, must be increasing.
        for k in 0..8u64 {
            let pid = broker.partition_for("t", k).unwrap();
            let polled = broker.poll("t", pid, 0, usize::MAX).unwrap();
            let seqs: Vec<u64> = polled
                .iter()
                .filter(|pr| pr.record.key == k)
                .map(|pr| u64::from_le_bytes(pr.record.payload.as_ref().try_into().unwrap()))
                .collect();
            for w in seqs.windows(2) {
                prop_assert!(w[1] > w[0]);
            }
        }
    }

    #[test]
    fn broker_total_records_conserved(
        counts in prop::collection::vec(0u64..40, 1..6),
        partitions in 1u32..16,
    ) {
        let broker = Broker::new();
        broker.create_topic("t", partitions).unwrap();
        let mut total = 0u64;
        for (round, &c) in counts.iter().enumerate() {
            broker
                .append_batch(
                    "t",
                    (0..c).map(|i| Record::new(i * 31 + round as u64, vec![1u8], i)),
                )
                .unwrap();
            total += c;
        }
        prop_assert_eq!(broker.stats("t").unwrap().records, total);
        let mut read = 0u64;
        for p in 0..partitions {
            read += broker.end_offset("t", PartitionId(p)).unwrap();
        }
        prop_assert_eq!(read, total);
    }

    #[test]
    fn watermark_is_monotone(times in prop::collection::vec(0u64..1_000_000, 1..200), bound in 0u64..10_000) {
        let mut wm = BoundedOutOfOrderness::new(bound);
        let mut prev = Watermark(0);
        for t in times {
            wm.observe(t);
            let cur = wm.current();
            prop_assert!(cur >= prev);
            prev = cur;
        }
    }

    #[test]
    fn tumbling_windows_partition_the_timeline(size in 1u64..10_000, t in 0u64..1_000_000) {
        let assigner = TumblingWindows::new(size);
        let windows = assigner.assign(t);
        prop_assert_eq!(windows.len(), 1);
        prop_assert!(windows[0].contains(t));
        prop_assert_eq!(windows[0].len_us(), size);
        prop_assert_eq!(windows[0].start_us % size, 0);
    }

    #[test]
    fn sliding_windows_all_contain_event(
        slide in 1u64..1_000,
        factor in 1u64..8,
        t in 0u64..100_000,
    ) {
        let size = slide * factor;
        let assigner = SlidingWindows::new(size, slide);
        let windows = assigner.assign(t);
        // Near the epoch there are no negative window starts, so fewer
        // than `factor` panes exist.
        let expected = factor.min(t / slide + 1);
        prop_assert_eq!(windows.len() as u64, expected);
        for w in &windows {
            prop_assert!(w.contains(t), "window {w} must contain {t}");
        }
    }

    #[test]
    fn windowed_count_conserves_events(
        events in prop::collection::vec((0u64..5, 0u64..100_000), 1..300),
        size in 1_000u64..20_000,
    ) {
        let mut agg = WindowedAggregator::new(TumblingWindows::new(size), CountAggregation);
        for &(k, t) in &events {
            prop_assert!(agg.offer(k, t, &()));
        }
        let fired = agg.flush();
        let total: u64 = fired.iter().map(|r| r.value).sum();
        prop_assert_eq!(total, events.len() as u64);
    }

    #[test]
    fn session_windows_conserve_events_and_respect_gap(
        times in prop::collection::vec(0u64..200_000, 1..150),
        gap in 100u64..20_000,
    ) {
        let mut agg = WindowedAggregator::new(SessionWindows::new(gap), CountAggregation);
        for &t in &times {
            agg.offer(1, t, &());
        }
        let fired = agg.flush();
        let total: u64 = fired.iter().map(|r| r.value).sum();
        prop_assert_eq!(total, times.len() as u64);
        // Sessions for one key never overlap and are separated by > gap
        // between end and next start.
        let mut windows: Vec<_> = fired.iter().map(|r| r.window).collect();
        windows.sort_by_key(|w| w.start_us);
        for pair in windows.windows(2) {
            prop_assert!(pair[1].start_us >= pair[0].end_us,
                "sessions overlap: {} then {}", pair[0], pair[1]);
        }
    }

    #[test]
    fn late_plus_counted_equals_offered(
        times in prop::collection::vec(0u64..50_000, 1..200),
        advance_at in 10usize..100,
    ) {
        let mut agg = WindowedAggregator::new(TumblingWindows::new(1_000), CountAggregation);
        let mut counted = 0u64;
        for (i, &t) in times.iter().enumerate() {
            if i == advance_at.min(times.len() - 1) {
                agg.advance(Watermark(25_000));
            }
            if agg.offer(1, t, &()) {
                counted += 1;
            }
        }
        let emitted: u64 = agg.flush().iter().map(|r| r.value).sum();
        // Everything offered before the watermark already fired.
        let pre_fired: u64 = {
            // Events accepted before the advance with window end <= 25000.
            times
                .iter()
                .take(advance_at.min(times.len() - 1))
                .filter(|t| (**t / 1_000) * 1_000 + 1_000 <= 25_000)
                .count() as u64
        };
        prop_assert_eq!(emitted + pre_fired, counted);
        prop_assert_eq!(counted + agg.late_dropped(), times.len() as u64);
    }
}

proptest! {
    #[test]
    fn collect_order_is_a_stable_event_time_sort_of_arrival_order(
        records in tied_records(),
        partitions in 1u32..5,
    ) {
        let broker = broker_with(&records, partitions).unwrap();
        let mut expected = arrival_order(&broker, partitions).unwrap();
        expected.sort_by_key(|(_, t, _)| *t);
        let expected: Vec<u64> = expected.iter().map(|(_, _, (seq, _))| *seq).collect();
        let (got, metrics) = pipeline(&broker, 10, false).collect().unwrap();
        let got: Vec<u64> = got.iter().map(|(seq, _)| *seq).collect();
        prop_assert_eq!(got, expected);
        prop_assert_eq!(metrics.records_in, records.len() as u64);
    }

    #[test]
    fn arrival_order_runs_read_partition_then_offset(
        records in tied_records(),
        partitions in 1u32..5,
        size_us in 1u64..12,
        bound_us in 0u64..8,
    ) {
        let broker = broker_with(&records, partitions).unwrap();
        let arrival = arrival_order(&broker, partitions).unwrap();
        let (got, _) = pipeline(&broker, bound_us, true).collect().unwrap();
        let expected: Vec<u64> = arrival.iter().map(|(_, _, (seq, _))| *seq).collect();
        prop_assert_eq!(got.iter().map(|(seq, _)| *seq).collect::<Vec<_>>(), expected);
        let (windows, metrics) = pipeline(&broker, bound_us, true)
            .run_windowed(TumblingWindows::new(size_us), stats(), None, None, false)
            .unwrap();
        let (reference, late) = reference_windows(&arrival, size_us, bound_us);
        prop_assert_eq!(bits(&windows), bits(&reference));
        prop_assert_eq!(metrics.late_dropped, late);
    }

    #[test]
    fn windowed_run_matches_the_operator_over_the_reference_order(
        records in tied_records(),
        partitions in 1u32..5,
        size_us in 1u64..12,
        bound_us in 0u64..8,
    ) {
        let broker = broker_with(&records, partitions).unwrap();
        let mut order = arrival_order(&broker, partitions).unwrap();
        order.sort_by_key(|(_, t, _)| *t);
        let (windows, metrics) = pipeline(&broker, bound_us, false)
            .run_windowed(TumblingWindows::new(size_us), stats(), None, None, false)
            .unwrap();
        let (reference, late) = reference_windows(&order, size_us, bound_us);
        prop_assert_eq!(bits(&windows), bits(&reference));
        prop_assert_eq!(metrics.late_dropped, late);
    }

    #[test]
    fn crash_and_resume_at_any_point_matches_the_uninterrupted_run(
        records in tied_records(),
        partitions in 1u32..5,
        size_us in 1u64..12,
        bound_us in 0u64..8,
        interval in 1usize..16,
        arrival in any::<bool>(),
    ) {
        let broker = broker_with(&records, partitions).unwrap();
        let (whole, _) = pipeline(&broker, bound_us, arrival)
            .run_windowed(TumblingWindows::new(size_us), stats(), None, None, false)
            .unwrap();
        let mut whole = bits(&whole);
        whole.sort_unstable();
        for crash_at in 0..=records.len() {
            let store: CheckpointStore<WindowState<NumericStats>> = CheckpointStore::new(2);
            let (partial, _) = pipeline(&broker, bound_us, arrival)
                .run_windowed(
                    TumblingWindows::new(size_us),
                    stats(),
                    Some((&store, interval)),
                    Some(crash_at),
                    false,
                )
                .unwrap();
            // Before the first checkpoint there is nothing to resume
            // from: recovery reruns from the start.
            let resume = store.latest().is_ok();
            let (rest, _) = pipeline(&broker, bound_us, arrival)
                .run_windowed(
                    TumblingWindows::new(size_us),
                    stats(),
                    Some((&store, interval)),
                    None,
                    resume,
                )
                .unwrap();
            // Windows fired between the checkpoint and the crash fire
            // again after the resume, bit for bit the same.
            let mut recovered = bits(&partial);
            recovered.extend(bits(&rest));
            recovered.sort_unstable();
            recovered.dedup();
            prop_assert_eq!(&recovered, &whole, "crash at {}", crash_at);
        }
    }
}
