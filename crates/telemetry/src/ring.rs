//! The seqlock ring: a bounded, lock-free MPSC ring of fixed-width
//! word slots with exact loss accounting and a symbol interner.
//!
//! [`FlightRecorder`](crate::FlightRecorder) and `augur_log::EventLog`
//! are thin encoders over [`SeqRing`](crate::ring::SeqRing): each packs
//! a record into at most `W` words, pushes them, and decodes them again
//! in [`drain`](crate::ring::SeqRing::drain). A push is a ticket from one
//! `fetch_add` on the write cursor plus a few atomic stores into a
//! fixed-size slot — **no lock, no allocation, never blocks**. When the
//! ring wraps before a drain, old entries are overwritten and counted as
//! [`dropped`](crate::ring::SeqRing::dropped); losing telemetry is
//! acceptable, stalling a frame is not (the paper's timeliness
//! constraint, §4).
//!
//! ## Slot protocol (why this is torn-proof without `unsafe`)
//!
//! Each slot is `W` `AtomicU64` words plus a `seq` cell. A writer with
//! ticket `t` (1) stores `t | BUSY` into `seq`, (2) stores its words with
//! `Release`, and (3) publishes by storing `t` into `seq` with `Release`.
//! A drainer accepts ticket `t` only if `seq == t` both **before and
//! after** reading all `W` words. If a concurrent writer had stored any
//! word in between, the drainer's `Acquire` load of that word
//! synchronizes with the writer's `Release` store, which makes the
//! writer's earlier `BUSY` marker visible — so the second `seq` check
//! fails and the ticket is counted as dropped instead of surfacing torn
//! data. A writer may store fewer than `W` words; its decoder must only
//! read the words its leading words say were written. Every ticket is
//! accounted **exactly once**, drained or dropped:
//! `drained + dropped == total` at quiescence (asserted under 4-producer
//! overflow by `tests/flight_stress.rs` and
//! `crates/log/tests/log_stress.rs`).
//!
//! Draining takes a `parking_lot` mutex around the read cursor only;
//! drains are control-plane operations and never sit on a hot path.

use std::sync::atomic::{AtomicU64, Ordering};

use parking_lot::{Mutex, RwLock};

/// Marks a slot whose payload is mid-write (or never written).
const BUSY: u64 = 1 << 63;

#[derive(Debug)]
struct Slot<const W: usize> {
    seq: AtomicU64,
    words: [AtomicU64; W],
}

impl<const W: usize> Slot<W> {
    fn empty() -> Slot<W> {
        Slot {
            seq: AtomicU64::new(BUSY | u64::MAX >> 1),
            words: std::array::from_fn(|_| AtomicU64::new(0)),
        }
    }
}

/// A bounded lock-free ring of `W`-word records. See the module docs
/// for the protocol and guarantees.
#[derive(Debug)]
pub struct SeqRing<const W: usize> {
    slots: Vec<Slot<W>>,
    mask: u64,
    /// Next ticket to hand out; also the total number of records pushed.
    write: AtomicU64,
    /// Tickets below this have been consumed (drained or dropped).
    read: Mutex<u64>,
    dropped: AtomicU64,
    /// Interned symbols; written only on the registration path.
    syms: RwLock<Vec<String>>,
}

impl<const W: usize> SeqRing<W> {
    /// A ring holding up to `capacity` records (rounded up to a power of
    /// two, minimum 8).
    pub fn new(capacity: usize) -> SeqRing<W> {
        let cap = capacity.max(8).next_power_of_two();
        SeqRing {
            slots: (0..cap).map(|_| Slot::empty()).collect(),
            mask: cap as u64 - 1,
            write: AtomicU64::new(0),
            read: Mutex::new(0),
            dropped: AtomicU64::new(0),
            syms: RwLock::new(Vec::new()),
        }
    }

    /// Ring capacity in records.
    pub fn capacity(&self) -> usize {
        self.slots.len()
    }

    /// Interns `s`, returning its index into the symbol table that
    /// [`SeqRing::drain`] hands its decoder. Takes a short lock — call at
    /// setup, not per record.
    pub fn intern(&self, s: &str) -> u32 {
        let mut syms = self.syms.write();
        if let Some(pos) = syms.iter().position(|n| n == s) {
            return pos as u32;
        }
        syms.push(s.to_string());
        (syms.len() - 1) as u32
    }

    /// Total records pushed so far (drained, pending, or dropped).
    pub fn total(&self) -> u64 {
        self.write.load(Ordering::Relaxed)
    }

    /// Records overwritten before a drain could read them (plus torn
    /// slots rejected mid-drain). Monotonic; updated at drain time.
    pub fn dropped(&self) -> u64 {
        self.dropped.load(Ordering::Relaxed)
    }

    /// Live loss estimate that moves between drains: charged drops
    /// **plus** tickets overwritten since the last drain **plus**
    /// live-window slots left stale — two writers a lap apart share a
    /// slot, and when the older one publishes last the drain rejects the
    /// newer ticket. At quiescence this is exactly what the next
    /// [`SeqRing::drain`] will have charged; a slot still being written
    /// is not counted until its writer publishes. Scans the ring
    /// (O(capacity)) under the read-cursor lock; not for hot paths.
    pub fn lost(&self) -> u64 {
        let read = self.read.lock();
        let w = self.write.load(Ordering::Acquire);
        let live_from = (*read).max(w.saturating_sub(self.slots.len() as u64));
        let stale = (live_from..w)
            .filter(|&ticket| {
                self.slots
                    .get((ticket & self.mask) as usize)
                    .is_some_and(|slot| {
                        let seq = slot.seq.load(Ordering::Acquire);
                        seq & BUSY == 0 && seq != ticket
                    })
            })
            .count() as u64;
        self.dropped.load(Ordering::Relaxed) + (live_from - *read) + stale
    }

    /// Pushes one record: the first `W` of `words` (fewer if `words` is
    /// shorter). Lock-free and allocation-free.
    pub fn push(&self, words: &[u64]) {
        let ticket = self.write.fetch_add(1, Ordering::Relaxed);
        let Some(slot) = self.slots.get((ticket & self.mask) as usize) else {
            return; // unreachable: mask < slots.len()
        };
        slot.seq.store(ticket | BUSY, Ordering::Relaxed);
        for (cell, &word) in slot.words.iter().zip(words) {
            cell.store(word, Ordering::Release);
        }
        slot.seq.store(ticket, Ordering::Release);
    }

    /// The words of `ticket`, or `None` if its slot holds another ticket
    /// or a writer raced the read.
    fn read_slot(&self, ticket: u64) -> Option<[u64; W]> {
        let slot = self.slots.get((ticket & self.mask) as usize)?;
        if slot.seq.load(Ordering::Acquire) != ticket {
            return None;
        }
        let mut words = [0u64; W];
        for (dst, cell) in words.iter_mut().zip(&slot.words) {
            *dst = cell.load(Ordering::Acquire);
        }
        // A writer that raced us mid-read made its BUSY marker visible
        // through the Acquire word loads, so this check fails.
        (slot.seq.load(Ordering::Acquire) == ticket).then_some(words)
    }

    /// Decodes every currently-readable record in ticket (chronological)
    /// order, advancing the read cursor and charging overwritten or torn
    /// tickets to [`SeqRing::dropped`]. `decode` gets the record's words
    /// and the symbol table. At quiescence (no concurrent producers)
    /// `drained_total + dropped == total` exactly.
    pub fn drain<T>(&self, mut decode: impl FnMut(&[u64; W], &[String]) -> T) -> Vec<T> {
        let mut read = self.read.lock();
        let w = self.write.load(Ordering::Acquire);
        let cap = self.slots.len() as u64;
        let mut r = *read;
        if w.saturating_sub(r) > cap {
            // The ring lapped the reader: everything below w - cap is gone.
            self.dropped.fetch_add(w - cap - r, Ordering::Relaxed);
            r = w - cap;
        }
        let syms = self.syms.read();
        let mut out = Vec::with_capacity((w - r) as usize);
        for ticket in r..w {
            match self.read_slot(ticket) {
                Some(words) => out.push(decode(&words, &syms)),
                None => {
                    self.dropped.fetch_add(1, Ordering::Relaxed);
                }
            }
        }
        *read = w;
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn short_pushes_keep_their_words_and_count_laps() {
        let ring: SeqRing<3> = SeqRing::new(8);
        for i in 0..20u64 {
            ring.push(&[i, i * 10]);
        }
        assert_eq!(ring.lost(), 12, "live estimate sees overwrites");
        let drained = ring.drain(|words, _| (words[0], words[1]));
        assert_eq!(drained.len(), 8, "only the last `capacity` survive");
        assert_eq!(drained[0], (12, 120));
        assert_eq!(drained[7], (19, 190));
        assert_eq!(ring.dropped(), 12);
        assert_eq!(drained.len() as u64 + ring.dropped(), ring.total());
    }

    #[test]
    fn lost_counts_a_slot_left_stale_by_a_lapped_writer() {
        let ring: SeqRing<1> = SeqRing::new(8);
        for i in 0..10u64 {
            ring.push(&[i]);
        }
        // Tickets 1 and 9 share a slot. Replay the race in which the
        // older writer publishes last: the slot keeps ticket 1's seq.
        if let Some(slot) = ring.slots.get(1) {
            slot.seq.store(1, Ordering::Release);
        }
        let live = ring.lost();
        let drained = ring.drain(|words, _| words[0]);
        assert_eq!(live, 3, "two lapped tickets plus the stale slot");
        assert_eq!(ring.dropped(), live);
        assert_eq!(drained.len() as u64 + live, ring.total());
    }
}
