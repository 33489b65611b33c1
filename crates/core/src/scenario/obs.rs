//! The observability handle a scenario run reports into.
//!
//! [`Obs`] carries the four sinks a run can feed: a metrics registry
//! (always), and optionally a flight recorder, a structured event log
//! and a watch session. Inside a scenario, [`Obs::start`] opens a
//! [`Run`] that owns the scenario's manual clock and does the per-stage
//! bookkeeping for whichever sinks are wired, so scenario bodies never
//! branch on them.

use std::sync::Arc;

use augur_log::{Arg, EventLog, Level, LogSite};
use augur_profile::{register_scope, AllocScope};
use augur_stream::PipelineBuilder;
use augur_telemetry::{
    FlightRecorder, ManualTime, Registry, SpanGuard, TimeSource, TraceContext, Tracer,
};
use augur_watch::WatchSession;

/// The sinks one scenario run reports into.
///
/// Every run records per-stage span histograms into the registry. A
/// flight recorder adds causal spans, an event log adds the run's
/// decisions (correlated to the same trace ids), and a watch session
/// grades the run's cycles against the scenario's SLOs on the
/// scenario's own clock. None of them changes the run's report.
#[derive(Debug)]
pub struct Obs<'a> {
    registry: Registry,
    recorder: Option<FlightRecorder>,
    log: Option<EventLog>,
    watch: Option<&'a mut WatchSession>,
}

impl Default for Obs<'_> {
    /// Metrics only, into a fresh registry.
    fn default() -> Self {
        Obs::new(&Registry::new())
    }
}

impl<'a> Obs<'a> {
    /// Metrics only: span histograms into `registry`.
    pub fn new(registry: &Registry) -> Self {
        Obs {
            registry: registry.clone(),
            recorder: None,
            log: None,
            watch: None,
        }
    }

    /// Adds causal flight spans into `recorder`.
    #[must_use]
    pub fn traced(mut self, recorder: &FlightRecorder) -> Self {
        self.recorder = Some(recorder.clone());
        self
    }

    /// Adds the run's decision records into `log`.
    #[must_use]
    pub fn logged(mut self, log: &EventLog) -> Self {
        self.log = Some(log.clone());
        self
    }

    /// Reports into `session`'s registry, flight recorder and event log,
    /// drives its rollups and SLOs on the scenario clock, and finishes
    /// the session when the run ends.
    pub fn watched(session: &'a mut WatchSession) -> Self {
        Obs {
            registry: session.registry(),
            recorder: Some(session.recorder()),
            log: Some(session.log()),
            watch: Some(session),
        }
    }

    /// Opens the run of `scenario` under `seed` on a fresh manual clock.
    /// The run-root trace context is [`TraceContext::root_named`], so
    /// flight spans and log records of one run share trace ids.
    pub(crate) fn start(&mut self, scenario: &'static str, seed: u64) -> Run<'_> {
        let clock = ManualTime::shared();
        Run {
            scenario,
            tracer: Tracer::with_labels(&self.registry, clock.clone(), &[("scenario", scenario)]),
            t0: clock.now_micros(),
            clock,
            recorder: self.recorder.as_ref(),
            log: self.log.as_ref(),
            watch: self.watch.as_deref_mut(),
            root: TraceContext::root_named(seed, scenario),
            // Per-event warnings get a deterministic burst cap, so a
            // degenerate parameterisation cannot flood the ring.
            warn_site: LogSite::new(32, 0),
            _alloc: AllocScope::enter(register_scope(scenario)),
        }
    }
}

/// One scenario run in progress. Stage durations are **modeled**: the
/// scenario advances [`Run::clock`] by each stage's deterministic work
/// count (one work unit ≙ one microsecond), so every sink's output is
/// reproducible under the seed.
pub(crate) struct Run<'r> {
    scenario: &'static str,
    clock: Arc<ManualTime>,
    tracer: Tracer,
    recorder: Option<&'r FlightRecorder>,
    log: Option<&'r EventLog>,
    watch: Option<&'r mut WatchSession>,
    root: TraceContext,
    t0: u64,
    warn_site: LogSite,
    /// Charges the run's allocations to the scenario's scope (counted
    /// only when the counting allocator is installed).
    _alloc: AllocScope,
}

/// An open stage: a span histogram, a flight span under `parent`, and
/// an allocation scope, all named after the stage. When the counting
/// allocator is installed (`augur-profile`'s `global-alloc` feature,
/// bins and tests only), the stage's allocations are charged to its
/// name, so profiles can be rendered by bytes as well as modeled time.
pub(crate) struct Stage {
    name: &'static str,
    parent: TraceContext,
    t0: u64,
    _span: SpanGuard,
    _alloc: AllocScope,
}

impl Stage {
    /// Records the span histogram and leaves the allocation scope,
    /// returning the stage's flight context, name and start.
    fn close(self) -> (TraceContext, &'static str, u64) {
        (self.parent.child_named(self.name), self.name, self.t0)
    }
}

impl<'r> Run<'r> {
    /// The scenario's manual clock.
    pub(crate) fn clock(&self) -> &Arc<ManualTime> {
        &self.clock
    }

    /// The clock's current time, µs.
    pub(crate) fn now(&self) -> u64 {
        self.clock.now_micros()
    }

    /// The registry the run's metrics land in.
    pub(crate) fn registry(&self) -> &Registry {
        self.tracer.registry()
    }

    /// Opens stage `name` as a child of the run root.
    pub(crate) fn stage(&self, name: &'static str) -> Stage {
        self.stage_in(self.root, name)
    }

    /// Opens stage `name` as a child of `parent` (a per-frame root, say).
    pub(crate) fn stage_in(&self, parent: TraceContext, name: &'static str) -> Stage {
        Stage {
            name,
            parent,
            t0: self.now(),
            _span: self.tracer.span(name),
            _alloc: AllocScope::enter(register_scope(name)),
        }
    }

    /// Closes `stage`: records its span histogram and flight span.
    pub(crate) fn end(&self, stage: Stage) {
        let (ctx, name, t0) = stage.close();
        self.span_since(ctx, name, t0);
    }

    /// [`Run::end`], then advances the watch session's rollups to now:
    /// for stages between observed cycles.
    pub(crate) fn end_tick(&mut self, stage: Stage) {
        self.end(stage);
        if let Some(session) = self.watch.as_deref_mut() {
            session.tick_clock(&self.clock);
        }
    }

    /// Closes `stage` as one observed watch cycle traced by `cycle_ctx`.
    /// The cycle is observed before the flight span closes, so injected
    /// fault latency (which advances the clock) shows in the span.
    pub(crate) fn end_cycle(&mut self, stage: Stage, cycle_ctx: TraceContext) {
        let (ctx, name, t0) = stage.close();
        self.cycle(t0, cycle_ctx);
        self.span_since(ctx, name, t0);
    }

    /// Reports one work cycle that began at `start_us` to the watch
    /// session, with `ctx` as its exemplar trace.
    pub(crate) fn cycle(&mut self, start_us: u64, ctx: TraceContext) {
        if let Some(session) = self.watch.as_deref_mut() {
            session.observe_cycle_traced(self.scenario, &self.clock, start_us, ctx);
        }
    }

    /// Records a completed flight span (no-op without a recorder).
    pub(crate) fn record_span(&self, ctx: TraceContext, name: &str, start_us: u64, dur_us: u64) {
        if let Some(rec) = self.recorder {
            rec.record_span(ctx, rec.intern(name), start_us, dur_us);
        }
    }

    /// Records a flight span from `start_us` to now.
    pub(crate) fn span_since(&self, ctx: TraceContext, name: &str, start_us: u64) {
        self.record_span(ctx, name, start_us, self.now().saturating_sub(start_us));
    }

    /// Records a WARN decision on a named child of the run root,
    /// rate-limited to a deterministic burst (no-op without a log).
    pub(crate) fn warn(&self, msg: &str, fields: &[(&str, Arg)]) {
        if let Some(log) = self.log {
            let ctx = self.root.child_named(msg);
            log.event(&self.warn_site, Level::Warn, ctx, msg, self.now(), fields);
        }
    }

    /// Wires `builder` into the run: the run's registry and clock, and
    /// the flight recorder and log under the run root when present.
    pub(crate) fn wire<T: Send + 'static>(
        &self,
        builder: PipelineBuilder<T>,
    ) -> PipelineBuilder<T> {
        let mut builder = builder.registry(self.registry()).clock(self.clock.clone());
        if let Some(rec) = self.recorder {
            builder = builder.flight(rec, self.root);
        }
        if let Some(log) = self.log {
            builder = builder.log(log, self.root);
        }
        builder
    }

    /// Ends the run: records the run-root span, logs `summary` as an
    /// INFO on the run root (never rate-limited), and finishes the
    /// watch session.
    pub(crate) fn finish(self, summary: &str, fields: &[(&str, Arg)]) {
        self.span_since(self.root, self.scenario, self.t0);
        if let Some(log) = self.log {
            let site = LogSite::unlimited();
            log.event(&site, Level::Info, self.root, summary, self.now(), fields);
        }
        if let Some(session) = self.watch {
            session.finish();
        }
    }
}
