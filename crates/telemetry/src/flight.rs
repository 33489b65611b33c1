//! The flight recorder: a bounded, lock-free MPSC ring of structured
//! span/event records.
//!
//! Producers on hot paths call [`FlightRecorder::record_span`] /
//! [`FlightRecorder::record_instant`]; each record is a ticket from one
//! `fetch_add` on the write cursor plus a handful of atomic stores into a
//! fixed-size slot — **no lock, no allocation, never blocks**. When the
//! ring wraps before a drain, old entries are overwritten and counted in
//! [`FlightRecorder::dropped_events`]; losing telemetry is acceptable,
//! stalling a frame is not (the paper's timeliness constraint, §4).
//!
//! ## Slot protocol (why this is torn-proof without `unsafe`)
//!
//! Each slot is a fixed set of `AtomicU64` cells plus a `seq` cell. A
//! writer with ticket `t`:
//!
//! 1. stores `t | BUSY` into `seq` (the slot is now visibly in flux),
//! 2. stores the payload cells with `Release`,
//! 3. stores `t` into `seq` with `Release` (publish).
//!
//! A drainer accepts ticket `t` only if `seq == t` both **before and
//! after** reading the payload. If a concurrent writer had published any
//! payload cell in between, the drainer's `Acquire` load of that cell
//! synchronizes with the writer's `Release` store, which makes the
//! writer's earlier `BUSY` marker visible — so the second `seq` check
//! fails and the ticket is counted as dropped instead of surfacing torn
//! data. Every ticket is therefore accounted **exactly once**: drained,
//! or dropped (`drained + dropped == total_events` at quiescence — the
//! invariant `tests/flight_stress.rs` asserts under 4-producer overflow).
//!
//! Draining takes a `parking_lot` mutex around the read cursor only;
//! drains are control-plane operations and never sit on a hot path.
//!
//! # Example
//!
//! ```
//! use augur_telemetry::{FlightRecorder, TraceContext};
//!
//! let rec = FlightRecorder::new(64);
//! let name = rec.intern("render/layout");
//! let ctx = TraceContext::root(42, 0);
//! rec.record_span(ctx, name, 1_000, 250);
//! let events = rec.drain();
//! assert_eq!(events.len(), 1);
//! assert_eq!(events[0].name, "render/layout");
//! assert_eq!(rec.dropped_events(), 0);
//! ```

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

use parking_lot::{Mutex, RwLock};

use crate::lane::LaneId;
use crate::time::Clock;
use crate::trace::TraceContext;

/// Marks a slot whose payload is mid-write (or never written).
const BUSY: u64 = 1 << 63;

/// An interned event name: hot paths carry this copyable id instead of a
/// string. Intern names once at setup via [`FlightRecorder::intern`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct NameId(u32);

/// What kind of record a flight event is.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FlightEventKind {
    /// A duration: `ts_us..ts_us + dur_us`.
    Span,
    /// A point event at `ts_us`; `arg` carries a payload (e.g. a count).
    Instant,
}

/// One drained flight-recorder entry.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct FlightEvent {
    /// Causal chain identity.
    pub trace_id: u64,
    /// This event's span id.
    pub span_id: u64,
    /// Parent span id (0 for a root).
    pub parent_span_id: u64,
    /// Resolved event name.
    pub name: String,
    /// Span or instant.
    pub kind: FlightEventKind,
    /// Start (spans) or occurrence (instants) time, microseconds.
    pub ts_us: u64,
    /// Duration in microseconds (0 for instants).
    pub dur_us: u64,
    /// Free-form payload for instants (0 for spans).
    pub arg: u64,
    /// The worker lane that recorded this event ([`LaneId::CONTROL`]
    /// for plain recorders; see [`FlightRecorder::for_lane`]).
    pub lane: LaneId,
}

#[derive(Debug)]
struct Slot {
    seq: AtomicU64,
    trace_id: AtomicU64,
    span_id: AtomicU64,
    parent_span_id: AtomicU64,
    /// `(name_id << 8) | kind`.
    meta: AtomicU64,
    ts_us: AtomicU64,
    dur_us: AtomicU64,
    arg: AtomicU64,
}

impl Slot {
    fn empty() -> Slot {
        Slot {
            seq: AtomicU64::new(BUSY | u64::MAX >> 1),
            trace_id: AtomicU64::new(0),
            span_id: AtomicU64::new(0),
            parent_span_id: AtomicU64::new(0),
            meta: AtomicU64::new(0),
            ts_us: AtomicU64::new(0),
            dur_us: AtomicU64::new(0),
            arg: AtomicU64::new(0),
        }
    }
}

#[derive(Debug)]
struct FlightInner {
    slots: Vec<Slot>,
    mask: u64,
    /// Next ticket to hand out; also the total number of records accepted.
    write: AtomicU64,
    /// Tickets below this have been consumed (drained or dropped).
    read: Mutex<u64>,
    dropped: AtomicU64,
    /// Interned names; written only on the registration path.
    names: RwLock<Vec<String>>,
    /// Stamped onto every drained event; the ring belongs to one lane.
    lane: LaneId,
}

/// The bounded lock-free span/event ring. Cloning shares the ring. See
/// the module docs for the protocol and guarantees.
#[derive(Debug, Clone)]
pub struct FlightRecorder {
    inner: Arc<FlightInner>,
}

impl Default for FlightRecorder {
    fn default() -> Self {
        FlightRecorder::new(4096)
    }
}

impl FlightRecorder {
    /// A recorder holding up to `capacity` entries (rounded up to a power
    /// of two, minimum 8). Events drain on the control lane
    /// ([`LaneId::CONTROL`]).
    pub fn new(capacity: usize) -> FlightRecorder {
        FlightRecorder::for_lane(capacity, LaneId::CONTROL)
    }

    /// A recorder whose drained events carry `lane` — one ring per
    /// worker lane, so lanes never share a write cursor. Normally
    /// constructed through [`crate::Lanes::register`].
    pub fn for_lane(capacity: usize, lane: LaneId) -> FlightRecorder {
        let cap = capacity.max(8).next_power_of_two();
        FlightRecorder {
            inner: Arc::new(FlightInner {
                slots: (0..cap).map(|_| Slot::empty()).collect(),
                mask: cap as u64 - 1,
                write: AtomicU64::new(0),
                read: Mutex::new(0),
                dropped: AtomicU64::new(0),
                names: RwLock::new(Vec::new()),
                lane,
            }),
        }
    }

    /// The lane this ring records for ([`LaneId::CONTROL`] by default).
    pub fn lane(&self) -> LaneId {
        self.inner.lane
    }

    /// Ring capacity in entries.
    pub fn capacity(&self) -> usize {
        self.inner.slots.len()
    }

    /// Interns `name`, returning the id hot paths pass to the record
    /// calls. Takes a short lock — call at setup, not per event.
    pub fn intern(&self, name: &str) -> NameId {
        let mut names = self.inner.names.write();
        if let Some(pos) = names.iter().position(|n| n == name) {
            return NameId(pos as u32);
        }
        names.push(name.to_string());
        NameId((names.len() - 1) as u32)
    }

    /// Total records accepted so far (drained, pending, or dropped).
    pub fn total_events(&self) -> u64 {
        self.inner.write.load(Ordering::Relaxed)
    }

    /// Records overwritten before a drain could read them (plus torn
    /// slots rejected mid-drain). Monotonic; updated at drain time.
    pub fn dropped_events(&self) -> u64 {
        self.inner.dropped.load(Ordering::Relaxed)
    }

    /// Live loss estimate: already-charged drops **plus** tickets the
    /// ring has overwritten since the last drain **plus** live-window
    /// slots where a writer published a ticket other than the slot's.
    /// Unlike [`FlightRecorder::dropped_events`] this moves between
    /// drains, so monitors (e.g. the watch session's trace-loss SLO) can
    /// alert on span loss while a run is still in flight.
    ///
    /// At quiescence this is exactly what the next [`FlightRecorder::drain`]
    /// will have charged: two writers a lap apart (tickets `t` and
    /// `t + capacity`) share a slot, and when the older one publishes
    /// last the slot holds a stale `seq` that the drain rejects. A slot
    /// still being written is not counted until its writer publishes.
    /// Scans the ring (O(capacity)) under the read-cursor lock; call
    /// from control-plane code, not hot paths.
    pub fn lost_events(&self) -> u64 {
        let inner = &*self.inner;
        let read = inner.read.lock();
        let w = inner.write.load(Ordering::Acquire);
        let live_from = (*read).max(w.saturating_sub(inner.slots.len() as u64));
        let stale = (live_from..w)
            .filter(|&ticket| {
                inner
                    .slots
                    .get((ticket & inner.mask) as usize)
                    .is_some_and(|slot| {
                        let seq = slot.seq.load(Ordering::Acquire);
                        seq & BUSY == 0 && seq != ticket
                    })
            })
            .count() as u64;
        inner.dropped.load(Ordering::Relaxed) + (live_from - *read) + stale
    }

    fn record(
        &self,
        ctx: TraceContext,
        name: NameId,
        kind: u64,
        ts_us: u64,
        dur_us: u64,
        arg: u64,
    ) {
        if !ctx.sampled {
            return;
        }
        let inner = &*self.inner;
        let ticket = inner.write.fetch_add(1, Ordering::Relaxed);
        let Some(slot) = inner.slots.get((ticket & inner.mask) as usize) else {
            return; // unreachable: mask < slots.len()
        };
        slot.seq.store(ticket | BUSY, Ordering::Relaxed);
        slot.trace_id.store(ctx.trace_id, Ordering::Release);
        slot.span_id.store(ctx.span_id, Ordering::Release);
        slot.parent_span_id
            .store(ctx.parent_span_id, Ordering::Release);
        slot.meta
            .store((u64::from(name.0) << 8) | kind, Ordering::Release);
        slot.ts_us.store(ts_us, Ordering::Release);
        slot.dur_us.store(dur_us, Ordering::Release);
        slot.arg.store(arg, Ordering::Release);
        slot.seq.store(ticket, Ordering::Release);
    }

    /// Records a completed span (`start_us..start_us + dur_us`).
    /// Lock-free, allocation-free; a no-op for unsampled contexts.
    pub fn record_span(&self, ctx: TraceContext, name: NameId, start_us: u64, dur_us: u64) {
        self.record(ctx, name, 0, start_us, dur_us, 0);
    }

    /// Records a point event with a free-form `arg` payload.
    /// Lock-free, allocation-free; a no-op for unsampled contexts.
    pub fn record_instant(&self, ctx: TraceContext, name: NameId, ts_us: u64, arg: u64) {
        self.record(ctx, name, 1, ts_us, arg, 0);
    }

    /// Starts a span guard that records `ctx` when dropped, timed on
    /// `clock`. Convenience for scenario/stage code that holds a clock.
    pub fn span(&self, clock: &Clock, ctx: TraceContext, name: NameId) -> TraceSpan {
        TraceSpan {
            recorder: self.clone(),
            clock: clock.clone(),
            ctx,
            name,
            start_us: clock.now_micros(),
        }
    }

    /// Drains every currently-readable entry in ticket (chronological)
    /// order, advancing the read cursor and charging overwritten or torn
    /// tickets to [`FlightRecorder::dropped_events`]. At quiescence
    /// (no concurrent producers) `drained_total + dropped_events ==`
    /// [`FlightRecorder::total_events`] exactly.
    pub fn drain(&self) -> Vec<FlightEvent> {
        let inner = &*self.inner;
        let mut read = inner.read.lock();
        let w = inner.write.load(Ordering::Acquire);
        let cap = inner.slots.len() as u64;
        let mut r = *read;
        if w.saturating_sub(r) > cap {
            // The ring lapped the reader: everything below w - cap is gone.
            inner.dropped.fetch_add(w - cap - r, Ordering::Relaxed);
            r = w - cap;
        }
        let names = inner.names.read();
        let mut out = Vec::with_capacity((w - r) as usize);
        for ticket in r..w {
            let Some(slot) = inner.slots.get((ticket & inner.mask) as usize) else {
                continue; // unreachable: mask < slots.len()
            };
            if slot.seq.load(Ordering::Acquire) != ticket {
                inner.dropped.fetch_add(1, Ordering::Relaxed);
                continue;
            }
            let trace_id = slot.trace_id.load(Ordering::Acquire);
            let span_id = slot.span_id.load(Ordering::Acquire);
            let parent_span_id = slot.parent_span_id.load(Ordering::Acquire);
            let meta = slot.meta.load(Ordering::Acquire);
            let ts_us = slot.ts_us.load(Ordering::Acquire);
            let dur_us = slot.dur_us.load(Ordering::Acquire);
            let arg = slot.arg.load(Ordering::Acquire);
            if slot.seq.load(Ordering::Acquire) != ticket {
                // A writer raced us mid-read; its BUSY marker (made
                // visible by the Acquire payload loads) fails this check.
                inner.dropped.fetch_add(1, Ordering::Relaxed);
                continue;
            }
            let name = names
                .get((meta >> 8) as usize)
                .cloned()
                .unwrap_or_else(|| String::from("?"));
            let kind = if meta & 0xff == 0 {
                FlightEventKind::Span
            } else {
                FlightEventKind::Instant
            };
            let (dur_us, arg) = match kind {
                FlightEventKind::Span => (dur_us, 0),
                FlightEventKind::Instant => (0, dur_us.max(arg)),
            };
            out.push(FlightEvent {
                trace_id,
                span_id,
                parent_span_id,
                name,
                kind,
                ts_us,
                dur_us,
                arg,
                lane: inner.lane,
            });
        }
        *read = w;
        out
    }
}

/// A live span tied to a [`FlightRecorder`] and a clock: records a
/// [`FlightEventKind::Span`] covering its lifetime when dropped (or via
/// [`TraceSpan::end`]). Use [`TraceSpan::ctx`] to derive child contexts
/// for work it causes.
pub struct TraceSpan {
    recorder: FlightRecorder,
    clock: Clock,
    ctx: TraceContext,
    name: NameId,
    start_us: u64,
}

impl std::fmt::Debug for TraceSpan {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("TraceSpan")
            .field("ctx", &self.ctx)
            .field("start_us", &self.start_us)
            .finish_non_exhaustive()
    }
}

impl TraceSpan {
    /// The context this span runs under (derive children from it).
    pub fn ctx(&self) -> TraceContext {
        self.ctx
    }

    /// Ends the span now (equivalent to dropping it).
    pub fn end(self) {}
}

impl Drop for TraceSpan {
    fn drop(&mut self) {
        let end = self.clock.now_micros();
        self.recorder.record_span(
            self.ctx,
            self.name,
            self.start_us,
            end.saturating_sub(self.start_us),
        );
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::time::ManualTime;

    #[test]
    fn records_and_drains_in_order() {
        let rec = FlightRecorder::new(16);
        let a = rec.intern("a");
        let b = rec.intern("b");
        assert_eq!(rec.intern("a"), a, "interning is idempotent");
        let ctx = TraceContext::root(1, 1);
        rec.record_span(ctx, a, 10, 5);
        rec.record_instant(ctx.child(1), b, 20, 7);
        let events = rec.drain();
        assert_eq!(events.len(), 2);
        assert_eq!(events[0].name, "a");
        assert_eq!(events[0].kind, FlightEventKind::Span);
        assert_eq!(events[0].dur_us, 5);
        assert_eq!(events[1].name, "b");
        assert_eq!(events[1].kind, FlightEventKind::Instant);
        assert_eq!(events[1].arg, 7);
        assert_eq!(events[1].parent_span_id, ctx.span_id);
        assert!(rec.drain().is_empty(), "drain consumes");
        assert_eq!(rec.dropped_events(), 0);
    }

    #[test]
    fn overflow_is_counted_not_silent() {
        let rec = FlightRecorder::new(8);
        let n = rec.intern("x");
        let ctx = TraceContext::root(2, 2);
        for i in 0..20u64 {
            rec.record_span(ctx, n, i, 1);
        }
        let events = rec.drain();
        assert_eq!(events.len(), 8, "only the last `capacity` survive");
        assert_eq!(rec.dropped_events(), 12);
        assert_eq!(
            events.len() as u64 + rec.dropped_events(),
            rec.total_events()
        );
        // The survivors are the most recent tickets, in order.
        assert_eq!(events[0].ts_us, 12);
        assert_eq!(events[7].ts_us, 19);
    }

    #[test]
    fn lost_events_tracks_overwrites_before_drain() {
        let rec = FlightRecorder::new(8);
        let n = rec.intern("x");
        let ctx = TraceContext::root(5, 5);
        for i in 0..6u64 {
            rec.record_span(ctx, n, i, 1);
        }
        assert_eq!(rec.lost_events(), 0, "ring not yet lapped");
        for i in 6..20u64 {
            rec.record_span(ctx, n, i, 1);
        }
        assert_eq!(rec.lost_events(), 12, "live estimate sees overwrites");
        assert_eq!(rec.dropped_events(), 0, "not yet charged: no drain ran");
        let _ = rec.drain();
        assert_eq!(rec.dropped_events(), 12);
        assert_eq!(rec.lost_events(), 12, "estimate matches after drain");
    }

    #[test]
    fn lost_events_counts_a_slot_left_stale_by_a_lapped_writer() {
        let rec = FlightRecorder::new(8);
        let n = rec.intern("x");
        let ctx = TraceContext::root(6, 6);
        for i in 0..10u64 {
            rec.record_span(ctx, n, i, 1);
        }
        // Tickets 1 and 9 share a slot. Replay the race in which the
        // older writer publishes last: the slot keeps ticket 1's seq.
        if let Some(slot) = rec.inner.slots.get(1) {
            slot.seq.store(1, Ordering::Release);
        }
        let live = rec.lost_events();
        let events = rec.drain();
        assert_eq!(live, 3, "two lapped tickets plus the stale slot");
        assert_eq!(rec.dropped_events(), live);
        assert_eq!(events.len() as u64 + live, rec.total_events());
    }

    #[test]
    fn unsampled_contexts_record_nothing() {
        let rec = FlightRecorder::new(8);
        let n = rec.intern("x");
        rec.record_span(TraceContext::root(3, 3).unsampled(), n, 0, 1);
        assert_eq!(rec.total_events(), 0);
        assert!(rec.drain().is_empty());
    }

    #[test]
    fn span_guard_times_on_the_clock() {
        let rec = FlightRecorder::new(8);
        let n = rec.intern("stage");
        let time = ManualTime::shared();
        let clock: Clock = time.clone();
        time.advance_micros(100);
        let ctx = TraceContext::root(4, 4);
        {
            let span = rec.span(&clock, ctx.child_named("stage"), n);
            time.advance_micros(250);
            span.end();
        }
        let events = rec.drain();
        assert_eq!(events.len(), 1);
        assert_eq!(events[0].ts_us, 100);
        assert_eq!(events[0].dur_us, 250);
        assert_eq!(events[0].parent_span_id, ctx.span_id);
    }
}
