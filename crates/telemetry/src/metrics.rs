//! Counters, histograms, spans, and the registry.

use std::collections::BTreeMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex};
use std::time::Instant;

use crate::trace::Tracer;

/// Number of histogram buckets: bucket 0 holds the value `0`, bucket
/// `i` (1..=64) holds values in `[2^(i-1), 2^i)` — together covering
/// every `u64`.
pub const BUCKETS: usize = 65;

/// A relaxed atomic event counter.
///
/// Counters count *deterministic work* (queries issued, cells
/// computed, instructions retired): their totals must not depend on
/// thread interleaving, which is what makes `jobs=1` and `jobs=4`
/// runs comparable. Wall-time measurements belong in a [`Histogram`].
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

/// A log2-bucketed distribution of `u64` values with lock-free
/// recording.
///
/// Recording is four relaxed atomic RMWs plus one indexed increment.
#[derive(Debug)]
pub struct Histogram {
    count: AtomicU64,
    sum: AtomicU64,
    min: AtomicU64,
    max: AtomicU64,
    buckets: [AtomicU64; BUCKETS],
}

impl Default for Histogram {
    fn default() -> Histogram {
        Histogram {
            count: AtomicU64::new(0),
            sum: AtomicU64::new(0),
            min: AtomicU64::new(u64::MAX),
            max: AtomicU64::new(0),
            buckets: [const { AtomicU64::new(0) }; BUCKETS],
        }
    }
}

impl Histogram {
    /// An empty histogram.
    pub fn new() -> Histogram {
        Histogram::default()
    }

    /// The bucket index of `v`: 0 for `v == 0`, otherwise
    /// `floor(log2 v) + 1`.
    pub fn bucket_of(v: u64) -> usize {
        (u64::BITS - v.leading_zeros()) as usize
    }

    /// The inclusive `[lo, hi]` value range of bucket `idx`.
    pub fn bucket_range(idx: usize) -> (u64, u64) {
        match idx {
            0 => (0, 0),
            64 => (1 << 63, u64::MAX),
            i => (1 << (i - 1), (1 << i) - 1),
        }
    }

    /// Records one value.
    pub fn record(&self, v: u64) {
        self.count.fetch_add(1, Ordering::Relaxed);
        self.sum.fetch_add(v, Ordering::Relaxed);
        self.min.fetch_min(v, Ordering::Relaxed);
        self.max.fetch_max(v, Ordering::Relaxed);
        self.buckets[Histogram::bucket_of(v)].fetch_add(1, Ordering::Relaxed);
    }

    /// Number of recorded values.
    pub fn count(&self) -> u64 {
        self.count.load(Ordering::Relaxed)
    }

    /// A plain-data copy of the current state.
    pub fn snapshot(&self) -> HistogramSnapshot {
        let count = self.count.load(Ordering::Relaxed);
        HistogramSnapshot {
            count,
            sum: self.sum.load(Ordering::Relaxed),
            min: if count == 0 {
                0
            } else {
                self.min.load(Ordering::Relaxed)
            },
            max: self.max.load(Ordering::Relaxed),
            buckets: self
                .buckets
                .iter()
                .enumerate()
                .filter_map(|(i, b)| {
                    let n = b.load(Ordering::Relaxed);
                    (n > 0).then_some((i as u8, n))
                })
                .collect(),
        }
    }
}

/// A plain-data [`Histogram`] state: what run reports serialize, what
/// diffs and gates compare.
///
/// `buckets` holds only nonzero buckets, sorted by index.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct HistogramSnapshot {
    /// Number of recorded values.
    pub count: u64,
    /// Sum of recorded values (wrapping on overflow, like recording).
    pub sum: u64,
    /// Smallest recorded value (0 when empty).
    pub min: u64,
    /// Largest recorded value (0 when empty).
    pub max: u64,
    /// `(bucket index, count)` for every nonzero bucket, ascending.
    pub buckets: Vec<(u8, u64)>,
}

impl HistogramSnapshot {
    /// Mean recorded value (0.0 when empty).
    pub fn mean(&self) -> f64 {
        if self.count == 0 {
            0.0
        } else {
            self.sum as f64 / self.count as f64
        }
    }

    /// Estimates the `q`-quantile (`0.0 ..= 1.0`) from the buckets:
    /// the midpoint of the bucket holding the rank-`⌈q·count⌉` value,
    /// clamped to the observed `[min, max]`. Exact for single-bucket
    /// distributions, within a factor of 2 otherwise — the right
    /// fidelity for ns-latency gates.
    pub fn quantile(&self, q: f64) -> u64 {
        if self.count == 0 {
            return 0;
        }
        let rank = ((q * self.count as f64).ceil() as u64).clamp(1, self.count);
        let mut seen = 0u64;
        for (i, &(idx, n)) in self.buckets.iter().enumerate() {
            seen += n;
            if seen >= rank {
                // The lowest occupied bucket contains `min` and the
                // highest contains `max`, so the estimate at the ends
                // is exact; interior buckets use the clamped midpoint.
                if i == 0 {
                    return self.min;
                }
                if i == self.buckets.len() - 1 {
                    return self.max;
                }
                let (lo, hi) = Histogram::bucket_range(idx as usize);
                return (lo + (hi - lo) / 2).clamp(self.min, self.max);
            }
        }
        self.max
    }
}

/// An RAII wall-time guard: records its elapsed nanoseconds into a
/// histogram when dropped. Spans nest naturally — an inner span's
/// time is part of its enclosing span's, as with any wall clock.
#[derive(Debug)]
pub struct Span {
    hist: Arc<Histogram>,
    start: Instant,
}

impl Span {
    /// Starts a span recording into `hist` on drop.
    pub fn new(hist: Arc<Histogram>) -> Span {
        Span {
            hist,
            start: Instant::now(),
        }
    }
}

impl Drop for Span {
    fn drop(&mut self) {
        self.hist.record(self.start.elapsed().as_nanos() as u64);
    }
}

/// A named home for counters and histograms, and the telemetry
/// handle instrumented code takes: `Option<&Registry>`, where `None`
/// records nothing.
///
/// Sites are `&'static str` names (dot-separated by convention:
/// `engine.sims`, `sim.run_ns`). Registration takes a lock;
/// hot paths resolve their handles once and record lock-free through
/// the returned `Arc`s. A registry may also carry a flight recorder
/// ([`Registry::with_tracer`]); code that records trace events reads
/// it through [`Registry::tracer`].
#[derive(Debug, Default)]
pub struct Registry {
    counters: Mutex<BTreeMap<&'static str, Arc<Counter>>>,
    histograms: Mutex<BTreeMap<&'static str, Arc<Histogram>>>,
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

    /// The histogram named `site`, created on first use.
    pub fn histogram(&self, site: &'static str) -> Arc<Histogram> {
        Arc::clone(
            self.histograms
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

    /// Records `v` into the histogram named `site`.
    pub fn record(&self, site: &'static str, v: u64) {
        self.histogram(site).record(v);
    }

    /// Starts a [`Span`] recording into the histogram named `site`.
    pub fn span(&self, site: &'static str) -> Span {
        Span::new(self.histogram(site))
    }

    /// A deterministic plain-data copy of every site.
    pub fn snapshot(&self) -> Snapshot {
        Snapshot {
            counters: self
                .counters
                .lock()
                .expect("registry lock")
                .iter()
                .map(|(&k, v)| (k.to_string(), v.get()))
                .collect(),
            histograms: self
                .histograms
                .lock()
                .expect("registry lock")
                .iter()
                .map(|(&k, v)| (k.to_string(), v.snapshot()))
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
    /// Histogram states by site name.
    pub histograms: BTreeMap<String, HistogramSnapshot>,
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn bucket_boundaries_are_exact_powers_of_two() {
        // Bucket 0 is the value zero; bucket i holds [2^(i-1), 2^i).
        assert_eq!(Histogram::bucket_of(0), 0);
        assert_eq!(Histogram::bucket_of(1), 1);
        assert_eq!(Histogram::bucket_of(2), 2);
        assert_eq!(Histogram::bucket_of(3), 2);
        assert_eq!(Histogram::bucket_of(4), 3);
        for i in 1..=63usize {
            let lo = 1u64 << (i - 1);
            assert_eq!(Histogram::bucket_of(lo), i, "lower edge of bucket {i}");
            assert_eq!(
                Histogram::bucket_of(2 * lo - 1),
                i,
                "upper edge of bucket {i}"
            );
            assert_eq!(
                Histogram::bucket_of(2 * lo),
                i + 1,
                "first of bucket {}",
                i + 1
            );
        }
        assert_eq!(Histogram::bucket_of(u64::MAX), 64);
        for idx in 0..BUCKETS {
            let (lo, hi) = Histogram::bucket_range(idx);
            assert_eq!(Histogram::bucket_of(lo), idx);
            assert_eq!(Histogram::bucket_of(hi), idx);
        }
    }

    #[test]
    fn histogram_records_and_snapshots() {
        let h = Histogram::new();
        for v in [0, 1, 1, 5, 1000] {
            h.record(v);
        }
        let s = h.snapshot();
        assert_eq!(s.count, 5);
        assert_eq!(s.sum, 1007);
        assert_eq!(s.min, 0);
        assert_eq!(s.max, 1000);
        // 0 -> bucket 0; 1,1 -> bucket 1; 5 -> bucket 3; 1000 -> bucket 10.
        assert_eq!(s.buckets, vec![(0, 1), (1, 2), (3, 1), (10, 1)]);
        assert!((s.mean() - 201.4).abs() < 1e-9);
    }

    #[test]
    fn empty_snapshot_is_all_zero() {
        let s = Histogram::new().snapshot();
        assert_eq!(s, HistogramSnapshot::default());
        assert_eq!(s.quantile(0.5), 0);
        assert_eq!(s.mean(), 0.0);
    }

    #[test]
    fn quantiles_land_in_the_right_bucket() {
        let h = Histogram::new();
        // 90 small values, 10 large ones.
        for _ in 0..90 {
            h.record(10);
        }
        for _ in 0..10 {
            h.record(10_000);
        }
        let s = h.snapshot();
        assert_eq!(s.quantile(0.5), 10, "p50 clamps to the observed min");
        let p99 = s.quantile(0.99);
        let (lo, hi) = Histogram::bucket_range(Histogram::bucket_of(10_000));
        assert!(p99 >= lo && p99 <= hi, "p99 {p99} outside [{lo}, {hi}]");
        assert_eq!(s.quantile(1.0), 10_000, "p100 clamps to the observed max");
    }

    #[test]
    fn spans_nest_and_record_on_drop() {
        let reg = Registry::new();
        {
            let _outer = reg.span("outer_ns");
            std::thread::sleep(std::time::Duration::from_millis(2));
            {
                let _inner = reg.span("inner_ns");
                std::thread::sleep(std::time::Duration::from_millis(1));
            }
            let snap = reg.snapshot();
            assert_eq!(
                snap.histograms["inner_ns"].count, 1,
                "inner span recorded when it dropped"
            );
            assert!(
                !snap.histograms.contains_key("outer_ns") || snap.histograms["outer_ns"].count == 0,
                "outer span not yet recorded while open"
            );
        }
        let snap = reg.snapshot();
        let outer = &snap.histograms["outer_ns"];
        let inner = &snap.histograms["inner_ns"];
        assert_eq!(outer.count, 1);
        assert!(
            outer.max >= inner.max,
            "outer span ({}) encloses inner ({})",
            outer.max,
            inner.max
        );
    }

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
                        reg.record("site.h", 42);
                    }
                });
            }
        });
        let snap = reg.snapshot();
        assert_eq!(snap.counters["site.b"], 4000);
        assert_eq!(snap.histograms["site.h"].count, 4000);
        assert_eq!(snap.histograms["site.h"].min, 42);
        assert_eq!(snap.histograms["site.h"].max, 42);
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
