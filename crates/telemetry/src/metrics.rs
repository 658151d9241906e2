//! Counters and the registry.

use std::collections::BTreeMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex};

use crate::trace::Tracer;

/// A relaxed atomic event counter.
///
/// Counters count *deterministic work* (queries issued, cells
/// computed, instructions retired): their totals must not depend on
/// thread interleaving, which is what makes `jobs=1` and `jobs=4`
/// runs comparable. Wall time is the flight recorder's
/// ([`crate::Tracer`]) and the run report's `stages`.
#[derive(Debug, Default)]
pub struct Counter(AtomicU64);

impl Counter {
    /// A counter at zero.
    pub fn new() -> Counter {
        Counter::default()
    }

    /// Adds `n` events.
    pub fn add(&self, n: u64) {
        self.0.fetch_add(n, Ordering::Relaxed);
    }

    /// The current total.
    pub fn get(&self) -> u64 {
        self.0.load(Ordering::Relaxed)
    }
}

/// A named home for counters, and the telemetry handle instrumented
/// code takes: `Option<&Registry>`, where `None` records nothing.
///
/// Sites are `&'static str` names (dot-separated by convention:
/// `engine.sims`, `sim.instructions`). Registration takes a lock;
/// hot paths resolve their handles once and count lock-free through
/// the returned `Arc`s. A registry may also carry a flight recorder
/// ([`Registry::with_tracer`]); code that records trace events reads
/// it through [`Registry::tracer`].
#[derive(Debug, Default)]
pub struct Registry {
    counters: Mutex<BTreeMap<&'static str, Arc<Counter>>>,
    tracer: Option<Arc<Tracer>>,
}

impl Registry {
    /// An empty registry.
    pub fn new() -> Registry {
        Registry::default()
    }

    /// An empty registry that also records trace events into `tracer`.
    pub fn with_tracer(tracer: Arc<Tracer>) -> Registry {
        Registry {
            tracer: Some(tracer),
            ..Registry::default()
        }
    }

    /// The flight recorder this registry carries, if any.
    pub fn tracer(&self) -> Option<&Tracer> {
        self.tracer.as_deref()
    }

    /// The counter named `site`, created on first use.
    pub fn counter(&self, site: &'static str) -> Arc<Counter> {
        Arc::clone(
            self.counters
                .lock()
                .expect("registry lock")
                .entry(site)
                .or_default(),
        )
    }

    /// Adds `n` to the counter named `site`.
    pub fn add(&self, site: &'static str, n: u64) {
        self.counter(site).add(n);
    }

    /// A deterministic plain-data copy of every counter.
    pub fn snapshot(&self) -> Snapshot {
        Snapshot {
            counters: self
                .counters
                .lock()
                .expect("registry lock")
                .iter()
                .map(|(&k, v)| (k.to_string(), v.get()))
                .collect(),
        }
    }
}

/// A plain-data copy of a [`Registry`], `BTreeMap`-ordered so two
/// snapshots of equal state compare and serialize identically.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct Snapshot {
    /// Counter totals by site name.
    pub counters: BTreeMap<String, u64>,
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn registry_shares_handles_and_snapshots_deterministically() {
        let reg = Registry::new();
        let c = reg.counter("site.a");
        reg.counter("site.a").add(2);
        c.add(3);
        assert_eq!(c.get(), 5, "same site, same counter");
        std::thread::scope(|s| {
            for _ in 0..4 {
                s.spawn(|| {
                    for _ in 0..1000 {
                        reg.add("site.b", 1);
                    }
                });
            }
        });
        let snap = reg.snapshot();
        assert_eq!(snap.counters["site.b"], 4000);
        assert_eq!(reg.snapshot(), snap, "snapshotting is stable");
    }

    #[test]
    fn registry_carries_its_tracer() {
        assert!(Registry::new().tracer().is_none());
        let tracer = Arc::new(Tracer::new(64));
        let reg = Registry::with_tracer(Arc::clone(&tracer));
        let carried = reg.tracer().expect("the registry carries the tracer");
        assert!(
            std::ptr::eq(carried, &*tracer),
            "the same tracer, not a copy"
        );
    }
}
