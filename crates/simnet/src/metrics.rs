//! Lightweight metrics registry: counters and raw-sample histograms.
//!
//! Experiments run at modest scale (thousands–millions of samples), so
//! histograms keep raw `f64` samples and compute exact quantiles on demand
//! (amortized through a sorted cache).
//!
//! Counters and histograms are written only through pre-registered
//! handles ([`CounterId`], [`HistogramId`]): the name is resolved to a
//! dense array slot once at setup, and each increment or sample is a
//! single indexed write. The simulator's per-event counters fire on every
//! message send, delivery and timer, so a by-name map lookup per event
//! would be a measurable tax. Reads by name ([`Metrics::counter`],
//! [`Metrics::histogram`]) see the same slots, and reporting iterates
//! names in deterministic (sorted) order.

use std::cell::RefCell;
use std::collections::BTreeMap;
use std::fmt;

/// Pre-registered handle to a named counter: increments through it are a
/// single array-indexed add, no name lookup. Obtain via
/// [`Metrics::register_counter`]; valid for the registry that issued it.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub struct CounterId(u32);

/// Pre-registered handle to a named histogram, the sample-recording twin
/// of [`CounterId`]. Obtain via [`Metrics::register_histogram`]; valid for
/// the registry that issued it.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub struct HistogramId(u32);

/// Lazily sorted copy of a histogram's samples. `record` only marks it
/// stale, so a report-time quantile sweep (p50/p95/p99/min/max) costs one
/// sort total instead of one clone+sort per quantile.
#[derive(Clone, Debug, Default)]
struct SortedCache {
    sorted: Vec<f64>,
    valid: bool,
}

/// A histogram over raw samples with exact quantiles.
#[derive(Clone, Debug, Default)]
pub struct Histogram {
    samples: Vec<f64>,
    cache: RefCell<SortedCache>,
}

impl Histogram {
    /// Record one sample.
    #[inline]
    pub fn record(&mut self, v: f64) {
        self.samples.push(v);
        self.cache.get_mut().valid = false;
    }

    /// Number of samples recorded.
    pub fn count(&self) -> usize {
        self.samples.len()
    }

    /// Arithmetic mean, or 0.0 when empty.
    pub fn mean(&self) -> f64 {
        if self.samples.is_empty() {
            0.0
        } else {
            self.samples.iter().sum::<f64>() / self.samples.len() as f64
        }
    }

    /// Run `f` over the sorted samples, (re)building the cache if stale.
    fn with_sorted<R>(&self, f: impl FnOnce(&[f64]) -> R) -> R {
        let mut cache = self.cache.borrow_mut();
        if !cache.valid {
            cache.sorted.clone_from(&self.samples);
            cache
                .sorted
                .sort_by(|a, b| a.partial_cmp(b).expect("NaN sample"));
            cache.valid = true;
        }
        f(&cache.sorted)
    }

    /// Exact quantile by nearest-rank; `q` in `[0,1]`. 0.0 when empty.
    pub fn quantile(&self, q: f64) -> f64 {
        if self.samples.is_empty() {
            return 0.0;
        }
        self.with_sorted(|sorted| {
            let rank = ((q * sorted.len() as f64).ceil() as usize).clamp(1, sorted.len());
            sorted[rank - 1]
        })
    }

    /// Minimum sample, or 0.0 when empty.
    pub fn min(&self) -> f64 {
        if self.samples.is_empty() {
            0.0
        } else {
            self.with_sorted(|sorted| sorted[0])
        }
    }

    /// Maximum sample, or 0.0 when empty.
    pub fn max(&self) -> f64 {
        if self.samples.is_empty() {
            0.0
        } else {
            self.with_sorted(|sorted| sorted[sorted.len() - 1])
        }
    }

    /// Condensed summary for reports (one sort for all five statistics).
    pub fn summary(&self) -> Summary {
        Summary {
            count: self.count(),
            mean: self.mean(),
            p50: self.quantile(0.50),
            p95: self.quantile(0.95),
            p99: self.quantile(0.99),
            min: self.min(),
            max: self.max(),
        }
    }

    /// Borrow the raw samples (for custom analyses in experiments).
    pub fn samples(&self) -> &[f64] {
        &self.samples
    }
}

/// Point-in-time condensation of a histogram.
#[derive(Clone, Copy, Debug, Default, PartialEq)]
pub struct Summary {
    /// Number of samples.
    pub count: usize,
    /// Arithmetic mean.
    pub mean: f64,
    /// Median (nearest rank).
    pub p50: f64,
    /// 95th percentile.
    pub p95: f64,
    /// 99th percentile.
    pub p99: f64,
    /// Minimum.
    pub min: f64,
    /// Maximum.
    pub max: f64,
}

impl fmt::Display for Summary {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "n={} mean={:.3} p50={:.3} p95={:.3} p99={:.3} max={:.3}",
            self.count, self.mean, self.p50, self.p95, self.p99, self.max
        )
    }
}

/// Registry of named counters and histograms.
///
/// Counter values and histograms live in dense `Vec`s indexed by
/// [`CounterId`] / [`HistogramId`]; the `BTreeMap`s map names to slots, so
/// iteration (reporting) is deterministically name-ordered regardless of
/// registration order.
#[derive(Clone, Debug, Default)]
pub struct Metrics {
    counter_ids: BTreeMap<String, CounterId>,
    counter_vals: Vec<u64>,
    histogram_ids: BTreeMap<String, HistogramId>,
    histogram_vals: Vec<Histogram>,
}

impl Metrics {
    /// Fresh empty registry.
    pub fn new() -> Self {
        Self::default()
    }

    /// Resolve `name` to a counter handle, creating the slot (at zero) if
    /// new. Idempotent: the same name always yields the same handle.
    pub fn register_counter(&mut self, name: &str) -> CounterId {
        if let Some(id) = self.counter_ids.get(name) {
            return *id;
        }
        let id = CounterId(self.counter_vals.len() as u32);
        self.counter_vals.push(0);
        self.counter_ids.insert(name.to_owned(), id);
        id
    }

    /// Add `delta` to the counter behind a pre-registered handle.
    #[inline]
    pub fn incr_id_by(&mut self, id: CounterId, delta: u64) {
        self.counter_vals[id.0 as usize] += delta;
    }

    /// Increment the counter behind a pre-registered handle by one.
    #[inline]
    pub fn incr_id(&mut self, id: CounterId) {
        self.counter_vals[id.0 as usize] += 1;
    }

    /// Read a counter through its handle.
    #[inline]
    pub fn counter_by_id(&self, id: CounterId) -> u64 {
        self.counter_vals[id.0 as usize]
    }

    /// Read a counter (0 if never written).
    pub fn counter(&self, name: &str) -> u64 {
        self.counter_ids
            .get(name)
            .map(|id| self.counter_vals[id.0 as usize])
            .unwrap_or(0)
    }

    /// Resolve `name` to a histogram handle, creating it (empty) if new.
    /// Idempotent: the same name always yields the same handle.
    pub fn register_histogram(&mut self, name: &str) -> HistogramId {
        if let Some(id) = self.histogram_ids.get(name) {
            return *id;
        }
        let id = HistogramId(self.histogram_vals.len() as u32);
        self.histogram_vals.push(Histogram::default());
        self.histogram_ids.insert(name.to_owned(), id);
        id
    }

    /// Record a raw sample into the histogram behind a pre-registered
    /// handle.
    #[inline]
    pub fn record_id(&mut self, id: HistogramId, v: f64) {
        self.histogram_vals[id.0 as usize].record(v);
    }

    /// Borrow a histogram if present (registered or recorded into).
    pub fn histogram(&self, name: &str) -> Option<&Histogram> {
        self.histogram_ids
            .get(name)
            .map(|id| &self.histogram_vals[id.0 as usize])
    }

    /// Summary of a histogram (default/empty when absent).
    pub fn summary(&self, name: &str) -> Summary {
        self.histogram(name)
            .map(Histogram::summary)
            .unwrap_or_default()
    }

    /// Iterate counters in name order.
    pub fn counters(&self) -> impl Iterator<Item = (&str, u64)> {
        self.counter_ids
            .iter()
            .map(|(k, id)| (k.as_str(), self.counter_vals[id.0 as usize]))
    }

    /// Iterate histograms in name order.
    pub fn histograms(&self) -> impl Iterator<Item = (&str, &Histogram)> {
        self.histogram_ids
            .iter()
            .map(|(k, id)| (k.as_str(), &self.histogram_vals[id.0 as usize]))
    }

    /// Merge another registry into this one (used to aggregate runs).
    pub fn merge(&mut self, other: &Metrics) {
        for (k, v) in other.counters() {
            let id = self.register_counter(k);
            self.incr_id_by(id, v);
        }
        for (k, h) in other.histograms() {
            let id = self.register_histogram(k);
            for &s in h.samples() {
                self.record_id(id, s);
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn counters_accumulate() {
        let mut m = Metrics::new();
        let id = m.register_counter("msgs");
        m.incr_id(id);
        m.incr_id_by(id, 4);
        assert_eq!(m.counter("msgs"), 5);
        assert_eq!(m.counter("absent"), 0);
    }

    #[test]
    fn handle_and_name_share_one_slot() {
        let mut m = Metrics::new();
        let id = m.register_counter("msgs");
        m.incr_id(id);
        // Re-registration returns the same handle.
        let again = m.register_counter("msgs");
        assert_eq!(again, id);
        m.incr_id_by(again, 4);
        assert_eq!(m.counter("msgs"), 5);
        assert_eq!(m.counter_by_id(id), 5);
    }

    #[test]
    fn registered_counter_is_visible_at_zero() {
        let mut m = Metrics::new();
        m.register_counter("armed");
        assert_eq!(m.counter("armed"), 0);
        let names: Vec<&str> = m.counters().map(|(k, _)| k).collect();
        assert_eq!(names, vec!["armed"]);
    }

    #[test]
    fn histogram_handle_and_name_share_one_slot() {
        let mut m = Metrics::new();
        let id = m.register_histogram("lat");
        assert_eq!(m.histogram("lat").map(Histogram::count), Some(0));
        m.record_id(id, 2.0);
        let again = m.register_histogram("lat");
        assert_eq!(again, id);
        m.record_id(again, 4.0);
        assert_eq!(m.summary("lat").count, 2);
        assert!((m.summary("lat").mean - 3.0).abs() < 1e-9);
        assert!(m.histogram("absent").is_none());
    }

    #[test]
    fn histogram_quantiles_exact() {
        let mut h = Histogram::default();
        for v in 1..=100 {
            h.record(v as f64);
        }
        assert_eq!(h.count(), 100);
        assert!((h.mean() - 50.5).abs() < 1e-9);
        assert_eq!(h.quantile(0.5), 50.0);
        assert_eq!(h.quantile(0.95), 95.0);
        assert_eq!(h.quantile(1.0), 100.0);
        assert_eq!(h.quantile(0.0), 1.0);
        assert_eq!(h.min(), 1.0);
        assert_eq!(h.max(), 100.0);
    }

    #[test]
    fn sorted_cache_invalidates_on_record() {
        let mut h = Histogram::default();
        h.record(5.0);
        assert_eq!(h.quantile(1.0), 5.0); // builds the cache
        h.record(9.0); // must invalidate it
        assert_eq!(h.quantile(1.0), 9.0);
        assert_eq!(h.min(), 5.0);
        h.record(1.0);
        assert_eq!(h.min(), 1.0);
        // Samples stay in insertion order; only the cache is sorted.
        assert_eq!(h.samples(), &[5.0, 9.0, 1.0]);
    }

    #[test]
    fn empty_histogram_is_zeroed() {
        let h = Histogram::default();
        let s = h.summary();
        assert_eq!(s.count, 0);
        assert_eq!(s.mean, 0.0);
        assert_eq!(s.p99, 0.0);
    }

    #[test]
    fn merge_combines() {
        let mut a = Metrics::new();
        let mut b = Metrics::new();
        let x = a.register_counter("x");
        a.incr_id(x);
        let x = b.register_counter("x");
        b.incr_id_by(x, 2);
        let h = b.register_histogram("h");
        b.record_id(h, 1.0);
        a.merge(&b);
        assert_eq!(a.counter("x"), 3);
        assert_eq!(a.summary("h").count, 1);
    }

    #[test]
    fn deterministic_iteration_order() {
        let mut m = Metrics::new();
        m.register_counter("zeta");
        m.register_counter("alpha");
        let names: Vec<&str> = m.counters().map(|(k, _)| k).collect();
        assert_eq!(names, vec!["alpha", "zeta"]);
    }

    #[test]
    fn clone_preserves_values_and_slots() {
        let mut m = Metrics::new();
        let id = m.register_counter("x");
        m.incr_id(id);
        let mut c = m.clone();
        c.incr_id(id); // handle remains valid for the clone
        assert_eq!(m.counter("x"), 1);
        assert_eq!(c.counter("x"), 2);
    }
}
