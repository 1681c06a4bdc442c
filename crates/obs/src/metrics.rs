//! The process-wide metrics registry: named atomic counters and
//! fixed-bucket (power-of-two) histograms.
//!
//! Names are `&'static str` in dotted-namespace form (`cache.hits`,
//! `batch.jobs`, `runtime.barrier_wait_ns`). Registration is implicit
//! on first use; [`ensure_counters`] pre-registers a key set so exports
//! always contain the expected names even when their values are zero.

use crate::metrics_enabled;
use std::collections::BTreeMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex};

/// Histogram bucket count: bucket `i` holds values `v` with
/// `bit_width(v) == i`, i.e. upper bound `2^i - 1`; the last bucket
/// absorbs everything larger.
pub(crate) const BUCKETS: usize = 40;

/// Index of the log2 bucket for `v`.
pub(crate) fn bucket_index(v: u64) -> usize {
    ((u64::BITS - v.leading_zeros()) as usize).min(BUCKETS - 1)
}

/// Inclusive upper bound of bucket `i` (`u64::MAX` for the last).
pub(crate) fn bucket_bound(i: usize) -> u64 {
    if i >= BUCKETS - 1 {
        u64::MAX
    } else {
        (1u64 << i) - 1
    }
}

#[derive(Debug)]
struct Histogram {
    buckets: [AtomicU64; BUCKETS],
    count: AtomicU64,
    sum: AtomicU64,
    max: AtomicU64,
}

impl Default for Histogram {
    fn default() -> Self {
        Self {
            buckets: std::array::from_fn(|_| AtomicU64::new(0)),
            count: AtomicU64::new(0),
            sum: AtomicU64::new(0),
            max: AtomicU64::new(0),
        }
    }
}

#[derive(Default)]
struct Registry {
    counters: BTreeMap<&'static str, Arc<AtomicU64>>,
    histograms: BTreeMap<&'static str, Arc<Histogram>>,
}

static REGISTRY: Mutex<Option<Registry>> = Mutex::new(None);

fn with_registry<R>(f: impl FnOnce(&mut Registry) -> R) -> R {
    let mut guard = REGISTRY
        .lock()
        .unwrap_or_else(std::sync::PoisonError::into_inner);
    f(guard.get_or_insert_with(Registry::default))
}

pub(crate) fn clear() {
    let mut guard = REGISTRY
        .lock()
        .unwrap_or_else(std::sync::PoisonError::into_inner);
    *guard = None;
}

fn counter(name: &'static str) -> Arc<AtomicU64> {
    with_registry(|r| Arc::clone(r.counters.entry(name).or_default()))
}

fn histogram(name: &'static str) -> Arc<Histogram> {
    with_registry(|r| Arc::clone(r.histograms.entry(name).or_default()))
}

/// Adds `n` to the named counter (no-op while metrics are disabled).
pub fn counter_add(name: &'static str, n: u64) {
    if !metrics_enabled() {
        return;
    }
    counter(name).fetch_add(n, Ordering::Relaxed);
}

/// Raises the named counter to at least `v` (gauge-style maximum; used
/// for pool sizes and high-water marks).
pub fn counter_max(name: &'static str, v: u64) {
    if !metrics_enabled() {
        return;
    }
    counter(name).fetch_max(v, Ordering::Relaxed);
}

/// The current value of a counter (0 when never touched).
pub fn counter_value(name: &'static str) -> u64 {
    with_registry(|r| {
        r.counters
            .get(name)
            .map_or(0, |c| c.load(Ordering::Relaxed))
    })
}

/// Records one observation into the named histogram (no-op while
/// metrics are disabled).
pub fn histogram_record(name: &'static str, value: u64) {
    if !metrics_enabled() {
        return;
    }
    let h = histogram(name);
    h.buckets[bucket_index(value)].fetch_add(1, Ordering::Relaxed);
    h.count.fetch_add(1, Ordering::Relaxed);
    h.sum.fetch_add(value, Ordering::Relaxed);
    h.max.fetch_max(value, Ordering::Relaxed);
}

/// Pre-registers counters so exports always carry these keys.
pub fn ensure_counters(names: &[&'static str]) {
    with_registry(|r| {
        for name in names {
            r.counters.entry(name).or_default();
        }
    });
}

/// A counter's exported view.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct CounterSnapshot {
    /// Dotted metric name.
    pub name: &'static str,
    /// Current value.
    pub value: u64,
}

/// A histogram's exported view.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct HistogramSnapshot {
    /// Dotted metric name.
    pub name: &'static str,
    /// Total observations.
    pub count: u64,
    /// Sum of observed values.
    pub sum: u64,
    /// Largest observed value.
    pub max: u64,
    /// Non-empty buckets as `(inclusive upper bound, count)`.
    pub buckets: Vec<(u64, u64)>,
}

/// Everything the registry currently holds, names sorted.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct MetricsSnapshot {
    /// All counters (including pre-registered zeros).
    pub counters: Vec<CounterSnapshot>,
    /// All histograms.
    pub histograms: Vec<HistogramSnapshot>,
}

/// Snapshots the whole registry.
pub fn metrics_snapshot() -> MetricsSnapshot {
    with_registry(|r| MetricsSnapshot {
        counters: r
            .counters
            .iter()
            .map(|(name, c)| CounterSnapshot {
                name,
                value: c.load(Ordering::Relaxed),
            })
            .collect(),
        histograms: r
            .histograms
            .iter()
            .map(|(name, h)| HistogramSnapshot {
                name,
                count: h.count.load(Ordering::Relaxed),
                sum: h.sum.load(Ordering::Relaxed),
                max: h.max.load(Ordering::Relaxed),
                buckets: h
                    .buckets
                    .iter()
                    .enumerate()
                    .filter_map(|(i, b)| {
                        let c = b.load(Ordering::Relaxed);
                        (c > 0).then(|| (bucket_bound(i), c))
                    })
                    .collect(),
            })
            .collect(),
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{enable_metrics, reset, testutil};

    #[test]
    fn bucket_indexing_is_log2() {
        assert_eq!(bucket_index(0), 0);
        assert_eq!(bucket_index(1), 1);
        assert_eq!(bucket_index(2), 2);
        assert_eq!(bucket_index(3), 2);
        assert_eq!(bucket_index(1024), 11);
        assert_eq!(bucket_index(u64::MAX), BUCKETS - 1);
        assert_eq!(bucket_bound(1), 1);
        assert_eq!(bucket_bound(2), 3);
        assert_eq!(bucket_bound(BUCKETS - 1), u64::MAX);
    }

    #[test]
    fn counters_and_histograms_aggregate() {
        let _g = testutil::lock();
        reset();
        enable_metrics();
        counter_add("t.a", 2);
        counter_add("t.a", 3);
        counter_max("t.w", 4);
        counter_max("t.w", 2);
        histogram_record("t.h", 3);
        histogram_record("t.h", 1000);
        assert_eq!(counter_value("t.a"), 5);
        assert_eq!(counter_value("t.w"), 4);
        let snap = metrics_snapshot();
        let h = &snap.histograms[0];
        assert_eq!(h.count, 2);
        assert_eq!(h.sum, 1003);
        assert_eq!(h.max, 1000);
        assert_eq!(h.buckets.len(), 2);
        reset();
    }

    #[test]
    fn ensure_counters_exports_zeros() {
        let _g = testutil::lock();
        reset();
        enable_metrics();
        ensure_counters(&["pre.one", "pre.two"]);
        let snap = metrics_snapshot();
        let names: Vec<&str> = snap.counters.iter().map(|c| c.name).collect();
        assert!(names.contains(&"pre.one") && names.contains(&"pre.two"));
        assert!(snap.counters.iter().all(|c| c.value == 0));
        reset();
    }

    #[test]
    fn concurrent_adds_do_not_lose_updates() {
        let _g = testutil::lock();
        reset();
        enable_metrics();
        std::thread::scope(|s| {
            for _ in 0..8 {
                s.spawn(|| {
                    for _ in 0..1000 {
                        counter_add("t.race", 1);
                        histogram_record("t.race_h", 7);
                    }
                });
            }
        });
        assert_eq!(counter_value("t.race"), 8000);
        let snap = metrics_snapshot();
        let h = snap
            .histograms
            .iter()
            .find(|h| h.name == "t.race_h")
            .unwrap();
        assert_eq!(h.count, 8000);
        reset();
    }
}
