//! The metric registry: named, labeled families of instruments.
//!
//! A [`Registry`] is a sharded map from `(name, labels)` to a shared
//! instrument handle. **Registration** (get-or-create) takes a short
//! shard lock; the **hot path** never touches the registry — call sites
//! hold the returned [`Counter`]/[`Gauge`]/[`Histogram`] handles, whose
//! record operations are pure atomics. Cloning a `Registry` clones an
//! `Arc`, so subsystems can share one registry without lifetimes.

use std::collections::BTreeMap;
use std::sync::{Arc, OnceLock};

use parking_lot::RwLock;

use crate::metric::{Counter, Gauge, Histogram, HistogramSnapshot};

/// Owned label pairs, sorted by key for canonical identity and output.
pub type Labels = Vec<(String, String)>;

#[derive(Debug, Clone, PartialEq, Eq, PartialOrd, Ord)]
struct MetricKey {
    name: String,
    labels: Labels,
}

fn make_key(name: &str, labels: &[(&str, &str)]) -> MetricKey {
    let mut labels: Labels = labels
        .iter()
        .map(|(k, v)| (k.to_string(), v.to_string()))
        .collect();
    labels.sort();
    MetricKey {
        name: name.to_string(),
        labels,
    }
}

#[derive(Debug, Clone)]
enum MetricEntry {
    Counter(Counter),
    Gauge(Gauge),
    Histogram(Histogram),
}

const SHARDS: usize = 8;

#[derive(Debug, Default)]
struct Inner {
    shards: [RwLock<BTreeMap<MetricKey, MetricEntry>>; SHARDS],
}

/// FNV-1a over the metric name, used only to pick a shard.
fn shard_of(name: &str) -> usize {
    (crate::trace::name_salt(name) as usize) % SHARDS
}

/// A point-in-time readout of one counter family member.
#[derive(Debug, Clone, PartialEq)]
pub struct CounterSnapshot {
    /// Metric name.
    pub name: String,
    /// Sorted label pairs.
    pub labels: Labels,
    /// Counter value at snapshot time.
    pub value: u64,
}

/// A point-in-time readout of one gauge family member.
#[derive(Debug, Clone, PartialEq)]
pub struct GaugeSnapshot {
    /// Metric name.
    pub name: String,
    /// Sorted label pairs.
    pub labels: Labels,
    /// Gauge value at snapshot time.
    pub value: f64,
}

/// A point-in-time readout of one histogram family member.
#[derive(Debug, Clone, PartialEq)]
pub struct HistogramFamilySnapshot {
    /// Metric name.
    pub name: String,
    /// Sorted label pairs.
    pub labels: Labels,
    /// Quantile/count/sum readout.
    pub stats: HistogramSnapshot,
}

/// Everything a registry holds, read at one point in time and sorted by
/// `(name, labels)` — the input to both exporters and to assertions in
/// tests.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct RegistrySnapshot {
    /// All counters.
    pub counters: Vec<CounterSnapshot>,
    /// All gauges.
    pub gauges: Vec<GaugeSnapshot>,
    /// All histograms.
    pub histograms: Vec<HistogramFamilySnapshot>,
}

/// The sharded metric registry; see the module docs.
#[derive(Debug, Clone, Default)]
pub struct Registry {
    inner: Arc<Inner>,
}

impl Registry {
    /// An empty registry.
    pub fn new() -> Self {
        Registry::default()
    }

    /// The process-wide registry (created on first use). Library code
    /// should take a `&Registry` parameter instead; the global exists for
    /// binaries and examples that want zero plumbing.
    pub fn global() -> Registry {
        static GLOBAL: OnceLock<Registry> = OnceLock::new();
        GLOBAL.get_or_init(Registry::new).clone()
    }

    fn get_or_insert(&self, name: &str, labels: &[(&str, &str)], make: MetricEntry) -> MetricEntry {
        let key = make_key(name, labels);
        let shard = self
            .inner
            .shards
            .get(shard_of(name))
            .unwrap_or_else(|| &self.inner.shards[0]);
        if let Some(entry) = shard.read().get(&key) {
            return entry.clone();
        }
        let mut map = shard.write();
        map.entry(key).or_insert(make).clone()
    }

    /// The counter `name` with no labels (registered on first use).
    pub fn counter(&self, name: &str) -> Counter {
        self.counter_labeled(name, &[])
    }

    /// The counter `name` with the given labels. If the key is already
    /// registered as a different metric type, a detached counter is
    /// returned (updates still work; nothing is exported) — mixing types
    /// under one name is a bug the exporter must not amplify into a panic.
    pub fn counter_labeled(&self, name: &str, labels: &[(&str, &str)]) -> Counter {
        match self.get_or_insert(name, labels, MetricEntry::Counter(Counter::new())) {
            MetricEntry::Counter(c) => c,
            _ => Counter::new(),
        }
    }

    /// The gauge `name` with no labels (registered on first use).
    pub fn gauge(&self, name: &str) -> Gauge {
        self.gauge_labeled(name, &[])
    }

    /// The gauge `name` with the given labels (see [`Registry::counter_labeled`]
    /// for the type-conflict rule).
    pub fn gauge_labeled(&self, name: &str, labels: &[(&str, &str)]) -> Gauge {
        match self.get_or_insert(name, labels, MetricEntry::Gauge(Gauge::new())) {
            MetricEntry::Gauge(g) => g,
            _ => Gauge::new(),
        }
    }

    /// The histogram `name` with no labels (registered on first use).
    pub fn histogram(&self, name: &str) -> Histogram {
        self.histogram_labeled(name, &[])
    }

    /// The histogram `name` with the given labels (see
    /// [`Registry::counter_labeled`] for the type-conflict rule).
    pub fn histogram_labeled(&self, name: &str, labels: &[(&str, &str)]) -> Histogram {
        match self.get_or_insert(name, labels, MetricEntry::Histogram(Histogram::new())) {
            MetricEntry::Histogram(h) => h,
            _ => Histogram::new(),
        }
    }

    /// Live handles to every registered histogram, sorted by
    /// `(name, labels)`. Unlike [`Registry::snapshot`], which bakes
    /// quantiles into a [`HistogramSnapshot`], this hands back the shared
    /// instruments themselves so an aggregator (the `augur-watch` rollup
    /// engine) can read raw bucket contents and compute windowed deltas.
    pub fn histogram_handles(&self) -> Vec<(String, Labels, Histogram)> {
        let mut out: Vec<(String, Labels, Histogram)> = Vec::new();
        for shard in &self.inner.shards {
            for (k, v) in shard.read().iter() {
                if let MetricEntry::Histogram(h) = v {
                    out.push((k.name.clone(), k.labels.clone(), h.clone()));
                }
            }
        }
        out.sort_by(|a, b| (&a.0, &a.1).cmp(&(&b.0, &b.1)));
        out
    }

    /// Reads every registered metric, sorted by `(name, labels)`.
    pub fn snapshot(&self) -> RegistrySnapshot {
        let mut entries: Vec<(MetricKey, MetricEntry)> = Vec::new();
        for shard in &self.inner.shards {
            for (k, v) in shard.read().iter() {
                entries.push((k.clone(), v.clone()));
            }
        }
        entries.sort_by(|a, b| a.0.cmp(&b.0));
        let mut snap = RegistrySnapshot::default();
        for (key, entry) in entries {
            match entry {
                MetricEntry::Counter(c) => snap.counters.push(CounterSnapshot {
                    name: key.name,
                    labels: key.labels,
                    value: c.get(),
                }),
                MetricEntry::Gauge(g) => snap.gauges.push(GaugeSnapshot {
                    name: key.name,
                    labels: key.labels,
                    value: g.get(),
                }),
                MetricEntry::Histogram(h) => snap.histograms.push(HistogramFamilySnapshot {
                    name: key.name,
                    labels: key.labels,
                    stats: h.snapshot(),
                }),
            }
        }
        snap
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn get_or_register_returns_shared_handles() {
        let reg = Registry::new();
        let a = reg.counter("requests_total");
        let b = reg.counter("requests_total");
        a.inc();
        b.inc();
        assert_eq!(reg.counter("requests_total").get(), 2);
    }

    #[test]
    fn labels_distinguish_family_members() {
        let reg = Registry::new();
        reg.counter_labeled("hits", &[("shard", "a")]).add(1);
        reg.counter_labeled("hits", &[("shard", "b")]).add(2);
        // Label order does not matter.
        let c = reg.counter_labeled("multi", &[("x", "1"), ("a", "2")]);
        c.inc();
        assert_eq!(
            reg.counter_labeled("multi", &[("a", "2"), ("x", "1")])
                .get(),
            1
        );
        let snap = reg.snapshot();
        assert_eq!(snap.counters.len(), 3);
    }

    #[test]
    fn type_conflict_yields_detached_metric() {
        let reg = Registry::new();
        reg.counter("mixed").inc();
        let g = reg.gauge("mixed");
        g.set(5.0); // must not panic, must not clobber the counter
        assert_eq!(reg.counter("mixed").get(), 1);
        let snap = reg.snapshot();
        assert_eq!(snap.gauges.len(), 0);
    }

    #[test]
    fn snapshot_is_sorted_and_complete() {
        let reg = Registry::new();
        reg.gauge("z_last").set(1.0);
        reg.gauge("a_first").set(2.0);
        reg.histogram("lat").record(10);
        let snap = reg.snapshot();
        let names: Vec<&str> = snap.gauges.iter().map(|g| g.name.as_str()).collect();
        assert_eq!(names, vec!["a_first", "z_last"]);
        assert_eq!(snap.histograms.len(), 1);
        assert_eq!(snap.histograms.first().map(|h| h.stats.count), Some(1));
    }

    #[test]
    fn histogram_handles_are_live_and_sorted() {
        let reg = Registry::new();
        reg.histogram_labeled("lat", &[("s", "b")]).record(1);
        reg.histogram_labeled("lat", &[("s", "a")]).record(1);
        reg.histogram("alpha").record(1);
        reg.counter("not_a_histogram").inc();
        let handles = reg.histogram_handles();
        let keys: Vec<(String, Labels)> = handles
            .iter()
            .map(|(n, l, _)| (n.clone(), l.clone()))
            .collect();
        assert_eq!(keys[0].0, "alpha");
        assert_eq!(keys[1].1, vec![("s".to_string(), "a".to_string())]);
        assert_eq!(keys[2].1, vec![("s".to_string(), "b".to_string())]);
        // Handles are live: recording through the registry is visible.
        reg.histogram("alpha").record(2);
        let alpha = handles.iter().find(|(n, _, _)| n == "alpha");
        assert_eq!(alpha.map(|(_, _, h)| h.count()), Some(2));
    }

    #[test]
    fn global_registry_is_shared() {
        let a = Registry::global();
        let b = Registry::global();
        a.counter("global_smoke_total").inc();
        assert!(b.counter("global_smoke_total").get() >= 1);
    }
}
