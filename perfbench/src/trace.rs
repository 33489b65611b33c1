//! The benchmark's own span list. Spans are recorded from the benchmark's
//! files around calls into each layer's public functions, kept in memory
//! and written out when the run ends. With tracing off every call is a
//! single branch and reads no clock.

use std::collections::BTreeMap;
use std::io::Write;
use std::time::Instant;

use augur_profile::alloc::{register_scope, AllocScope, AllocSnapshot};

/// One recorded span.
#[derive(Debug, Clone, Copy)]
pub struct Span {
    pub name: &'static str,
    pub start_ns: u64,
    pub end_ns: u64,
    /// Index of the enclosing span, `NO_PARENT` for a request root.
    pub parent: u32,
    /// The request (job, frame, query, tick) the span belongs to.
    pub request: u64,
    /// Work items the call handled (events, rows, labels...).
    pub items: u64,
}

pub const NO_PARENT: u32 = u32::MAX;

/// Handle returned by [`Trace::begin`].
#[derive(Debug, Clone, Copy)]
pub struct SpanId(u32);

/// Spans written to the trace file per run; the in-memory list (and every
/// metric computed from it) keeps them all.
const WRITE_LIMIT: usize = 200_000;

pub struct Trace {
    on: bool,
    t0: Instant,
    spans: Vec<Span>,
    stack: Vec<u32>,
    alloc_start: Option<AllocSnapshot>,
}

impl Trace {
    pub fn new(on: bool) -> Self {
        Trace {
            on,
            t0: Instant::now(),
            spans: Vec::with_capacity(if on { 1 << 16 } else { 0 }),
            stack: Vec::new(),
            alloc_start: on.then(AllocSnapshot::capture),
        }
    }

    pub fn on(&self) -> bool {
        self.on
    }

    fn now_ns(&self) -> u64 {
        self.t0.elapsed().as_nanos() as u64
    }

    #[inline]
    pub fn begin(&mut self, name: &'static str, request: u64) -> SpanId {
        if !self.on {
            return SpanId(NO_PARENT);
        }
        let idx = self.spans.len() as u32;
        let parent = self.stack.last().copied().unwrap_or(NO_PARENT);
        let start_ns = self.now_ns();
        self.spans.push(Span {
            name,
            start_ns,
            end_ns: start_ns,
            parent,
            request,
            items: 0,
        });
        self.stack.push(idx);
        SpanId(idx)
    }

    /// Ends span `id`, and with it any span it encloses that was left
    /// open.
    #[inline]
    pub fn end(&mut self, id: SpanId, items: u64) {
        if !self.on || id.0 == NO_PARENT {
            return;
        }
        let end_ns = self.now_ns();
        if let Some(s) = self.spans.get_mut(id.0 as usize) {
            s.end_ns = end_ns;
            s.items = items;
        }
        if let Some(pos) = self.stack.iter().rposition(|i| *i == id.0) {
            self.stack.truncate(pos);
        }
    }

    /// Runs `f` inside a span named `name` that handled `items` items.
    #[inline]
    pub fn span<R>(
        &mut self,
        name: &'static str,
        request: u64,
        items: u64,
        f: impl FnOnce() -> R,
    ) -> R {
        if !self.on {
            return f();
        }
        let id = self.begin(name, request);
        let out = f();
        self.end(id, items);
        out
    }

    /// Charges this thread's allocations to scope `name` until the guard
    /// drops; a no-op when tracing is off.
    pub fn alloc_scope(&self, name: &str) -> Option<AllocScope> {
        self.on.then(|| AllocScope::enter(register_scope(name)))
    }

    /// Forgets every open span, after an error path returned early
    /// without ending them; the next span starts a new request.
    pub fn abandon_open(&mut self) {
        self.stack.clear();
    }

    /// Allocations charged to scope `name` since tracing started.
    pub fn allocs(&self, name: &str) -> u64 {
        self.alloc_start.as_ref().map_or(0, |snap| {
            snap.delta()
                .iter()
                .filter(|s| s.name == name)
                .map(|s| s.count)
                .sum()
        })
    }

    /// Per-name totals over every span.
    pub fn totals(&self) -> BTreeMap<&'static str, NameTotal> {
        let mut out: BTreeMap<&'static str, NameTotal> = BTreeMap::new();
        for s in &self.spans {
            let t = out.entry(s.name).or_default();
            t.calls += 1;
            t.ns += s.end_ns.saturating_sub(s.start_ns);
            t.items += s.items;
        }
        out
    }

    /// Durations (µs) of every span named `name`.
    pub fn durations_us(&self, name: &str) -> Vec<f64> {
        self.spans
            .iter()
            .filter(|s| s.name == name)
            .map(|s| s.end_ns.saturating_sub(s.start_ns) as f64 / 1e3)
            .collect()
    }

    /// Per span, the time its direct children cover.
    fn covered_ns(&self) -> Vec<u64> {
        let mut covered = vec![0u64; self.spans.len()];
        for s in &self.spans {
            if let Some(c) = covered.get_mut(s.parent as usize) {
                *c += s.end_ns.saturating_sub(s.start_ns);
            }
        }
        covered
    }

    /// Share of the time of request spans (top-level spans named in
    /// `roots`) covered by their direct children, and the uncovered
    /// remainder per request name, in ms.
    pub fn coverage(&self, roots: &[&str]) -> (f64, BTreeMap<&'static str, f64>) {
        let covered = self.covered_ns();
        let (mut root_ns, mut child_ns) = (0u64, 0u64);
        let mut rest: BTreeMap<&'static str, f64> = BTreeMap::new();
        for (s, c) in self.spans.iter().zip(&covered) {
            if s.parent == NO_PARENT && roots.contains(&s.name) {
                let dur = s.end_ns.saturating_sub(s.start_ns);
                root_ns += dur;
                child_ns += (*c).min(dur);
                *rest.entry(s.name).or_default() += dur.saturating_sub(*c) as f64 / 1e6;
            }
        }
        let share = if root_ns == 0 {
            0.0
        } else {
            child_ns as f64 / root_ns as f64
        };
        (share, rest)
    }

    /// Self time per span name (duration minus the time its children
    /// cover), ms.
    pub fn self_times_ms(&self) -> BTreeMap<&'static str, f64> {
        let mut out: BTreeMap<&'static str, f64> = BTreeMap::new();
        for (s, c) in self.spans.iter().zip(self.covered_ns()) {
            let dur = s.end_ns.saturating_sub(s.start_ns);
            *out.entry(s.name).or_default() += dur.saturating_sub(c) as f64 / 1e6;
        }
        out
    }

    /// Writes the spans as tab-separated lines:
    /// `index parent request name start_ns end_ns items`.
    pub fn write(&self, path: &std::path::Path) -> std::io::Result<()> {
        if let Some(dir) = path.parent() {
            std::fs::create_dir_all(dir)?;
        }
        let mut out = std::io::BufWriter::new(std::fs::File::create(path)?);
        writeln!(
            out,
            "# spans={} written={}",
            self.spans.len(),
            self.spans.len().min(WRITE_LIMIT)
        )?;
        writeln!(out, "index\tparent\trequest\tname\tstart_ns\tend_ns\titems")?;
        for (i, s) in self.spans.iter().take(WRITE_LIMIT).enumerate() {
            let parent = if s.parent == NO_PARENT {
                -1
            } else {
                i64::from(s.parent)
            };
            writeln!(
                out,
                "{i}\t{parent}\t{}\t{}\t{}\t{}\t{}",
                s.request, s.name, s.start_ns, s.end_ns, s.items
            )?;
        }
        out.flush()
    }
}

#[derive(Debug, Clone, Copy, Default)]
pub struct NameTotal {
    pub calls: u64,
    pub ns: u64,
    pub items: u64,
}

impl NameTotal {
    /// Nanoseconds per item (0 when no items).
    pub fn ns_per_item(&self) -> f64 {
        if self.items == 0 {
            0.0
        } else {
            self.ns as f64 / self.items as f64
        }
    }

    /// Microseconds per call (0 when never called).
    pub fn us_per_call(&self) -> f64 {
        if self.calls == 0 {
            0.0
        } else {
            self.ns as f64 / self.calls as f64 / 1e3
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn coverage_counts_direct_children_only() {
        let mut t = Trace::new(true);
        let root = t.begin("frame", 0);
        let a = t.begin("geo", 0);
        std::thread::sleep(std::time::Duration::from_millis(2));
        t.end(a, 1);
        t.end(root, 1);
        let (share, rest) = t.coverage(&["frame"]);
        assert!(share > 0.5 && share <= 1.0, "{share}");
        assert!(rest.contains_key("frame"));
        assert_eq!(t.totals()["geo"].calls, 1);
    }

    #[test]
    fn disabled_trace_records_nothing() {
        let mut t = Trace::new(false);
        let id = t.begin("x", 0);
        t.end(id, 3);
        assert_eq!(t.span("y", 0, 1, || 7), 7);
        assert!(t.spans.is_empty());
    }
}
