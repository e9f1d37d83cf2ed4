//! Named metric registration.
//!
//! A [`Registry`] hands out `Arc` handles to counters, gauges, and
//! atomic histograms keyed by a dotted name (`"serve.stage.inference"`,
//! `"net.accepted"`, `"pool.jobs"`). Handles are cheap to clone and
//! record through relaxed atomics; the registry itself is only locked
//! at registration and snapshot time, never on the hot path.
//!
//! All GesturePrint subsystems publish into one registry owned by the
//! serve engine: gp-serve registers its stage histograms, gp-net its
//! connection counters, gp-runtime its pool utilization — which is
//! what makes a single [`TelemetrySnapshot`]
//! the whole story.

use crate::hist::{AtomicHistogram, Histogram};
use crate::snapshot::TelemetrySnapshot;
use gp_codec::Value;
use std::collections::BTreeMap;
use std::sync::atomic::{AtomicI64, AtomicU64, Ordering};
use std::sync::{Arc, Mutex, MutexGuard};

/// A monotonically increasing counter.
#[derive(Debug, Default)]
pub struct Counter(AtomicU64);

impl Counter {
    /// Adds one.
    pub fn inc(&self) {
        self.add(1);
    }

    /// Adds `n`.
    pub fn add(&self, n: u64) {
        self.0.fetch_add(n, Ordering::Relaxed);
    }

    /// Current value.
    pub fn get(&self) -> u64 {
        self.0.load(Ordering::Relaxed)
    }
}

/// An instantaneous signed value (queue depths, busy workers).
#[derive(Debug, Default)]
pub struct Gauge(AtomicI64);

impl Gauge {
    /// Sets the value.
    pub fn set(&self, v: i64) {
        self.0.store(v, Ordering::Relaxed);
    }

    /// Adds `n` (may be negative via [`Gauge::sub`]).
    pub fn add(&self, n: i64) {
        self.0.fetch_add(n, Ordering::Relaxed);
    }

    /// Subtracts `n`.
    pub fn sub(&self, n: i64) {
        self.0.fetch_sub(n, Ordering::Relaxed);
    }

    /// Current value.
    pub fn get(&self) -> i64 {
        self.0.load(Ordering::Relaxed)
    }
}

#[derive(Default)]
struct Tables {
    counters: BTreeMap<String, Arc<Counter>>,
    gauges: BTreeMap<String, Arc<Gauge>>,
    histograms: BTreeMap<String, Arc<AtomicHistogram>>,
    attrs: BTreeMap<String, Value>,
}

/// The shared metric namespace.
#[derive(Default)]
pub struct Registry {
    tables: Mutex<Tables>,
}

// A poisoned registry mutex means a panic mid-registration; the tables
// themselves are always structurally valid, so recording must go on.
fn lock(tables: &Mutex<Tables>) -> MutexGuard<'_, Tables> {
    tables.lock().unwrap_or_else(|p| p.into_inner())
}

impl Registry {
    /// An empty registry.
    pub fn new() -> Self {
        Registry::default()
    }

    /// Returns (registering on first use) the counter named `name`.
    pub fn counter(&self, name: &str) -> Arc<Counter> {
        let mut t = lock(&self.tables);
        t.counters.entry(name.to_owned()).or_default().clone()
    }

    /// Returns (registering on first use) the gauge named `name`.
    pub fn gauge(&self, name: &str) -> Arc<Gauge> {
        let mut t = lock(&self.tables);
        t.gauges.entry(name.to_owned()).or_default().clone()
    }

    /// Returns (registering on first use) the histogram named `name`.
    pub fn histogram(&self, name: &str) -> Arc<AtomicHistogram> {
        let mut t = lock(&self.tables);
        t.histograms.entry(name.to_owned()).or_default().clone()
    }

    /// Attaches a free-form attribute (workload shape, config echo)
    /// carried verbatim into every snapshot.
    pub fn set_attr(&self, name: &str, value: Value) {
        let mut t = lock(&self.tables);
        t.attrs.insert(name.to_owned(), value);
    }

    /// Materialises the current state of every registered metric.
    pub fn snapshot(&self) -> TelemetrySnapshot {
        let t = lock(&self.tables);
        let mut snap = TelemetrySnapshot::new();
        for (name, c) in &t.counters {
            snap.counters.insert(name.clone(), c.get());
        }
        for (name, g) in &t.gauges {
            snap.gauges.insert(name.clone(), g.get());
        }
        for (name, h) in &t.histograms {
            let h: Histogram = h.snapshot();
            snap.histograms.insert(name.clone(), h);
        }
        snap.attrs = t.attrs.clone();
        snap
    }
}

impl std::fmt::Debug for Registry {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let t = lock(&self.tables);
        f.debug_struct("Registry")
            .field("counters", &t.counters.len())
            .field("gauges", &t.gauges.len())
            .field("histograms", &t.histograms.len())
            .field("attrs", &t.attrs.len())
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn registration_is_idempotent() {
        let reg = Registry::new();
        let a = reg.counter("x");
        let b = reg.counter("x");
        a.inc();
        b.add(2);
        assert_eq!(reg.counter("x").get(), 3);
        assert!(Arc::ptr_eq(&a, &b));
    }

    #[test]
    fn snapshot_carries_all_metric_kinds() {
        let reg = Registry::new();
        reg.counter("c").add(7);
        reg.gauge("g").set(-2);
        reg.histogram("h").record(1500);
        reg.set_attr("shape", Value::Str("8x200".into()));
        let snap = reg.snapshot();
        assert_eq!(snap.counters.get("c"), Some(&7));
        assert_eq!(snap.gauges.get("g"), Some(&-2));
        assert_eq!(snap.histograms.get("h").map(|h| h.count()), Some(1));
        assert_eq!(snap.attrs.get("shape"), Some(&Value::Str("8x200".into())));
    }

    #[test]
    fn gauge_add_sub_roundtrip() {
        let g = Gauge::default();
        g.add(5);
        g.sub(2);
        assert_eq!(g.get(), 3);
    }
}
