//! A process-global metrics registry: named counters and log₂-bucket
//! latency histograms.
//!
//! Handles are interned once ([`counter`], [`histogram`]) and are plain
//! `&'static` atomics afterwards, so hot-path increments cost the same as
//! a hand-rolled `static AtomicU64` — the registry only takes its lock at
//! registration and snapshot time. Names are dotted by layer:
//! `relational.index_probes`, `penguin.plan_cache.hits`,
//! `store.wal.fsyncs`.

use crate::json::Json;
use std::collections::BTreeMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Mutex, OnceLock};
use std::time::Duration;

/// Histogram bucket count: bucket 0 holds value 0, bucket `b ≥ 1` holds
/// values with exactly `b` significant bits, i.e. `[2^(b-1), 2^b - 1]`.
pub const BUCKETS: usize = 65;

/// A registered counter handle; cheap to copy, relaxed-atomic to bump.
#[derive(Clone, Copy)]
pub struct Counter(&'static AtomicU64);

impl Counter {
    /// Add `n`.
    #[inline]
    pub fn add(&self, n: u64) {
        self.0.fetch_add(n, Ordering::Relaxed);
    }

    /// Add one.
    #[inline]
    pub fn inc(&self) {
        self.0.fetch_add(1, Ordering::Relaxed);
    }

    /// Current value.
    pub fn get(&self) -> u64 {
        self.0.load(Ordering::Relaxed)
    }

    /// Reset to zero.
    pub fn reset(&self) {
        self.0.store(0, Ordering::Relaxed);
    }
}

impl std::fmt::Debug for Counter {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "Counter({})", self.get())
    }
}

/// A registered gauge handle: a last-write-wins level (queue depth,
/// live WAL segment count, bytes on disk) rather than a monotone count.
/// Cheap to copy, relaxed-atomic to set.
#[derive(Clone, Copy)]
pub struct Gauge(&'static AtomicU64);

impl Gauge {
    /// Set the current level.
    #[inline]
    pub fn set(&self, v: u64) {
        self.0.store(v, Ordering::Relaxed);
    }

    /// Add `n` to the level.
    #[inline]
    pub fn add(&self, n: u64) {
        self.0.fetch_add(n, Ordering::Relaxed);
    }

    /// Subtract `n` from the level (saturating at zero).
    #[inline]
    pub fn sub(&self, n: u64) {
        let _ = self
            .0
            .fetch_update(Ordering::Relaxed, Ordering::Relaxed, |v| {
                Some(v.saturating_sub(n))
            });
    }

    /// Current level.
    pub fn get(&self) -> u64 {
        self.0.load(Ordering::Relaxed)
    }
}

impl std::fmt::Debug for Gauge {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "Gauge({})", self.get())
    }
}

/// A registered histogram handle over log₂ buckets.
#[derive(Clone, Copy)]
pub struct Histogram(&'static HistogramCells);

struct HistogramCells {
    buckets: [AtomicU64; BUCKETS],
    count: AtomicU64,
    sum: AtomicU64,
    min: AtomicU64,
    max: AtomicU64,
}

impl HistogramCells {
    fn new() -> Self {
        HistogramCells {
            buckets: [const { AtomicU64::new(0) }; BUCKETS],
            count: AtomicU64::new(0),
            sum: AtomicU64::new(0),
            min: AtomicU64::new(u64::MAX),
            max: AtomicU64::new(0),
        }
    }
}

/// The log₂ bucket index of a value: 0 for 0, else the number of
/// significant bits.
pub fn bucket_of(v: u64) -> usize {
    if v == 0 {
        0
    } else {
        64 - v.leading_zeros() as usize
    }
}

/// The inclusive lower bound of a bucket.
pub fn bucket_floor(bucket: usize) -> u64 {
    if bucket == 0 {
        0
    } else {
        1u64 << (bucket - 1)
    }
}

impl Histogram {
    /// Record one observation.
    #[inline]
    pub fn record(&self, v: u64) {
        let cells = self.0;
        cells.buckets[bucket_of(v)].fetch_add(1, Ordering::Relaxed);
        cells.count.fetch_add(1, Ordering::Relaxed);
        cells.sum.fetch_add(v, Ordering::Relaxed);
        cells.min.fetch_min(v, Ordering::Relaxed);
        cells.max.fetch_max(v, Ordering::Relaxed);
    }

    /// Record a duration in whole microseconds.
    #[inline]
    pub fn record_duration(&self, d: Duration) {
        self.record(d.as_micros() as u64);
    }

    /// Point-in-time copy of the histogram.
    pub fn snapshot(&self) -> HistogramSnapshot {
        let cells = self.0;
        let count = cells.count.load(Ordering::Relaxed);
        HistogramSnapshot {
            count,
            sum: cells.sum.load(Ordering::Relaxed),
            min: if count == 0 {
                0
            } else {
                cells.min.load(Ordering::Relaxed)
            },
            max: cells.max.load(Ordering::Relaxed),
            buckets: cells
                .buckets
                .iter()
                .enumerate()
                .filter_map(|(i, c)| {
                    let n = c.load(Ordering::Relaxed);
                    (n > 0).then_some((bucket_floor(i), n))
                })
                .collect(),
        }
    }

    /// Zero every cell.
    pub fn reset(&self) {
        let cells = self.0;
        for b in &cells.buckets {
            b.store(0, Ordering::Relaxed);
        }
        cells.count.store(0, Ordering::Relaxed);
        cells.sum.store(0, Ordering::Relaxed);
        cells.min.store(u64::MAX, Ordering::Relaxed);
        cells.max.store(0, Ordering::Relaxed);
    }
}

impl std::fmt::Debug for Histogram {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let s = self.snapshot();
        write!(f, "Histogram(count={} sum={})", s.count, s.sum)
    }
}

/// A point-in-time copy of one histogram.
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct HistogramSnapshot {
    /// Observations recorded.
    pub count: u64,
    /// Sum of recorded values.
    pub sum: u64,
    /// Smallest recorded value (0 when empty).
    pub min: u64,
    /// Largest recorded value.
    pub max: u64,
    /// Non-empty buckets as `(inclusive lower bound, count)`.
    pub buckets: Vec<(u64, u64)>,
}

impl HistogramSnapshot {
    /// Mean of recorded values (0.0 when empty).
    pub fn mean(&self) -> f64 {
        if self.count == 0 {
            0.0
        } else {
            self.sum as f64 / self.count as f64
        }
    }

    /// Estimate the `q`-quantile (`0.0 ≤ q ≤ 1.0`) by linear
    /// interpolation inside the covering log₂ bucket.
    ///
    /// The target rank `q·count` is located in the cumulative bucket
    /// counts; within the bucket `[floor, 2·floor − 1]` the estimate
    /// interpolates linearly by rank. The result is clamped to the exact
    /// recorded `[min, max]`, so `quantile(0.0) == min` and
    /// `quantile(1.0) == max`; an empty histogram estimates 0. Error is
    /// bounded by the bucket width (a factor of 2 in the value).
    pub fn quantile(&self, q: f64) -> f64 {
        if self.count == 0 {
            return 0.0;
        }
        let q = q.clamp(0.0, 1.0);
        let target = q * self.count as f64;
        let mut cum = 0u64;
        for &(lo, n) in &self.buckets {
            if (cum + n) as f64 >= target {
                let hi = if lo == 0 { 0 } else { lo.saturating_mul(2) - 1 };
                let f = ((target - cum as f64) / n as f64).clamp(0.0, 1.0);
                let est = lo as f64 + f * (hi - lo) as f64;
                return est.clamp(self.min as f64, self.max as f64);
            }
            cum += n;
        }
        self.max as f64
    }

    /// The snapshot as a JSON object.
    pub fn to_json(&self) -> Json {
        Json::obj(vec![
            ("count", Json::Int(self.count as i64)),
            ("sum", Json::Int(self.sum as i64)),
            ("min", Json::Int(self.min as i64)),
            ("max", Json::Int(self.max as i64)),
            (
                "buckets",
                Json::Arr(
                    self.buckets
                        .iter()
                        .map(|&(lo, n)| Json::Arr(vec![Json::Int(lo as i64), Json::Int(n as i64)]))
                        .collect(),
                ),
            ),
        ])
    }
}

struct RegistryInner {
    counters: BTreeMap<String, &'static AtomicU64>,
    gauges: BTreeMap<String, &'static AtomicU64>,
    histograms: BTreeMap<String, &'static HistogramCells>,
}

fn registry() -> &'static Mutex<RegistryInner> {
    static R: OnceLock<Mutex<RegistryInner>> = OnceLock::new();
    R.get_or_init(|| {
        Mutex::new(RegistryInner {
            counters: BTreeMap::new(),
            gauges: BTreeMap::new(),
            histograms: BTreeMap::new(),
        })
    })
}

/// Register (or fetch) the counter named `name`.
pub fn counter(name: &str) -> Counter {
    let mut r = registry().lock().unwrap();
    if let Some(c) = r.counters.get(name) {
        return Counter(c);
    }
    let cell: &'static AtomicU64 = Box::leak(Box::new(AtomicU64::new(0)));
    r.counters.insert(name.to_owned(), cell);
    Counter(cell)
}

/// Register (or fetch) the gauge named `name`.
pub fn gauge(name: &str) -> Gauge {
    let mut r = registry().lock().unwrap();
    if let Some(g) = r.gauges.get(name) {
        return Gauge(g);
    }
    let cell: &'static AtomicU64 = Box::leak(Box::new(AtomicU64::new(0)));
    r.gauges.insert(name.to_owned(), cell);
    Gauge(cell)
}

/// Register (or fetch) the histogram named `name`.
pub fn histogram(name: &str) -> Histogram {
    let mut r = registry().lock().unwrap();
    if let Some(h) = r.histograms.get(name) {
        return Histogram(h);
    }
    let cells: &'static HistogramCells = Box::leak(Box::new(HistogramCells::new()));
    r.histograms.insert(name.to_owned(), cells);
    Histogram(cells)
}

/// A point-in-time copy of every registered metric.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct MetricsSnapshot {
    /// Counter values by name.
    pub counters: BTreeMap<String, u64>,
    /// Gauge levels by name.
    pub gauges: BTreeMap<String, u64>,
    /// Histogram snapshots by name.
    pub histograms: BTreeMap<String, HistogramSnapshot>,
}

impl MetricsSnapshot {
    /// The snapshot as a JSON object
    /// `{counters: {...}, gauges: {...}, histograms: {...}}`.
    ///
    /// Deterministic: every section renders sorted by metric name (the
    /// snapshot stores them in `BTreeMap`s), never in registration order,
    /// so two exported snapshots diff cleanly line-by-line.
    pub fn to_json(&self) -> Json {
        Json::obj(vec![
            (
                "counters",
                Json::Obj(
                    self.counters
                        .iter()
                        .map(|(k, &v)| (k.clone(), Json::Int(v as i64)))
                        .collect(),
                ),
            ),
            (
                "gauges",
                Json::Obj(
                    self.gauges
                        .iter()
                        .map(|(k, &v)| (k.clone(), Json::Int(v as i64)))
                        .collect(),
                ),
            ),
            (
                "histograms",
                Json::Obj(
                    self.histograms
                        .iter()
                        .map(|(k, h)| (k.clone(), h.to_json()))
                        .collect(),
                ),
            ),
        ])
    }
}

/// A metric name in Prometheus form: every character outside
/// `[a-zA-Z0-9_:]` becomes `_` (dotted registry names flatten to
/// underscores).
fn prometheus_name(name: &str) -> String {
    name.chars()
        .map(|c| {
            if c.is_ascii_alphanumeric() || c == '_' || c == ':' {
                c
            } else {
                '_'
            }
        })
        .collect()
}

impl MetricsSnapshot {
    /// Render the snapshot as Prometheus-style exposition text, sorted by
    /// metric name (counters first, then gauges, then histograms).
    ///
    /// Counters become `# TYPE <name> counter` plus one sample line,
    /// gauges `# TYPE <name> gauge` likewise. Histograms become
    /// summaries: `{quantile="0.5|0.9|0.99"}` estimate lines (see
    /// [`HistogramSnapshot::quantile`]) plus `_sum`, `_count`, `_min` and
    /// `_max` samples. The output is deterministic for a given snapshot,
    /// so two exports diff cleanly.
    pub fn expose_text(&self) -> String {
        use std::fmt::Write as _;
        let mut out = String::new();
        for (name, value) in &self.counters {
            let n = prometheus_name(name);
            let _ = writeln!(out, "# TYPE {n} counter");
            let _ = writeln!(out, "{n} {value}");
        }
        for (name, value) in &self.gauges {
            let n = prometheus_name(name);
            let _ = writeln!(out, "# TYPE {n} gauge");
            let _ = writeln!(out, "{n} {value}");
        }
        for (name, h) in &self.histograms {
            let n = prometheus_name(name);
            let _ = writeln!(out, "# TYPE {n} summary");
            for (label, q) in [("0.5", 0.5), ("0.9", 0.9), ("0.99", 0.99)] {
                let _ = writeln!(out, "{n}{{quantile=\"{label}\"}} {}", h.quantile(q));
            }
            let _ = writeln!(out, "{n}_sum {}", h.sum);
            let _ = writeln!(out, "{n}_count {}", h.count);
            let _ = writeln!(out, "{n}_min {}", h.min);
            let _ = writeln!(out, "{n}_max {}", h.max);
        }
        out
    }
}

/// Snapshot every registered metric and render it as Prometheus-style
/// exposition text — the pull-based counterpart of the telemetry
/// pipeline's push-based JSONL export.
pub fn expose_text() -> String {
    snapshot_all().expose_text()
}

/// Snapshot every registered metric.
pub fn snapshot_all() -> MetricsSnapshot {
    let r = registry().lock().unwrap();
    MetricsSnapshot {
        counters: r
            .counters
            .iter()
            .map(|(k, c)| (k.clone(), c.load(Ordering::Relaxed)))
            .collect(),
        gauges: r
            .gauges
            .iter()
            .map(|(k, g)| (k.clone(), g.load(Ordering::Relaxed)))
            .collect(),
        histograms: r
            .histograms
            .iter()
            .map(|(k, h)| (k.clone(), Histogram(h).snapshot()))
            .collect(),
    }
}

/// Reset every registered metric to zero.
pub fn reset_all() {
    let r = registry().lock().unwrap();
    for c in r.counters.values() {
        c.store(0, Ordering::Relaxed);
    }
    for g in r.gauges.values() {
        g.store(0, Ordering::Relaxed);
    }
    for h in r.histograms.values() {
        Histogram(h).reset();
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn counters_intern_and_accumulate() {
        let a = counter("test.metrics.alpha");
        let b = counter("test.metrics.alpha");
        let before = a.get();
        a.inc();
        b.add(2);
        assert_eq!(a.get(), before + 3);
        assert!(snapshot_all().counters.contains_key("test.metrics.alpha"));
    }

    #[test]
    fn bucketing_is_log2() {
        assert_eq!(bucket_of(0), 0);
        assert_eq!(bucket_of(1), 1);
        assert_eq!(bucket_of(2), 2);
        assert_eq!(bucket_of(3), 2);
        assert_eq!(bucket_of(4), 3);
        assert_eq!(bucket_of(1023), 10);
        assert_eq!(bucket_of(1024), 11);
        assert_eq!(bucket_of(u64::MAX), 64);
        assert_eq!(bucket_floor(0), 0);
        assert_eq!(bucket_floor(1), 1);
        assert_eq!(bucket_floor(11), 1024);
    }

    #[test]
    fn histogram_records_and_snapshots() {
        let h = histogram("test.metrics.latency");
        h.reset();
        for v in [0, 1, 3, 100, 100] {
            h.record(v);
        }
        let s = h.snapshot();
        assert_eq!(s.count, 5);
        assert_eq!(s.sum, 204);
        assert_eq!(s.min, 0);
        assert_eq!(s.max, 100);
        assert!((s.mean() - 40.8).abs() < 1e-9);
        // buckets: 0 -> 1, [1,1] -> 1, [2,3] -> 1, [64,127] -> 2
        assert_eq!(s.buckets, vec![(0, 1), (1, 1), (2, 1), (64, 2)]);
        let j = s.to_json();
        assert_eq!(j.field("count").unwrap().as_i64().unwrap(), 5);
    }

    #[test]
    fn quantile_interpolates_and_clamps() {
        // empty → 0
        assert_eq!(HistogramSnapshot::default().quantile(0.5), 0.0);

        // a single repeated value: every quantile is that value
        let h = histogram("test.metrics.q_single");
        h.reset();
        for _ in 0..10 {
            h.record(37);
        }
        let s = h.snapshot();
        for q in [0.0, 0.25, 0.5, 0.99, 1.0] {
            assert_eq!(s.quantile(q), 37.0, "q={q}");
        }

        // uniform 1..=100: estimates land within the covering bucket and
        // the endpoints are exact
        let h = histogram("test.metrics.q_uniform");
        h.reset();
        for v in 1..=100 {
            h.record(v);
        }
        let s = h.snapshot();
        assert_eq!(s.quantile(0.0), 1.0);
        assert_eq!(s.quantile(1.0), 100.0);
        let p50 = s.quantile(0.5);
        assert!((32.0..=63.0).contains(&p50), "p50={p50}");
        let p90 = s.quantile(0.9);
        assert!((64.0..=100.0).contains(&p90), "p90={p90}");
        // monotone in q
        let mut prev = 0.0;
        for i in 0..=20 {
            let v = s.quantile(i as f64 / 20.0);
            assert!(
                v >= prev,
                "q={} went backwards: {v} < {prev}",
                i as f64 / 20.0
            );
            prev = v;
        }
        // out-of-range q clamps rather than panicking
        assert_eq!(s.quantile(-1.0), 1.0);
        assert_eq!(s.quantile(2.0), 100.0);
    }

    #[test]
    fn gauges_set_and_expose() {
        let g = gauge("test.metrics.gauge_level");
        let g2 = gauge("test.metrics.gauge_level");
        g.set(10);
        g2.add(5);
        g2.sub(3);
        assert_eq!(g.get(), 12);
        g.sub(100);
        assert_eq!(g.get(), 0, "sub saturates at zero");
        g.set(42);
        let snap = snapshot_all();
        assert_eq!(snap.gauges.get("test.metrics.gauge_level"), Some(&42));
        let text = snap.expose_text();
        assert!(text.contains("# TYPE test_metrics_gauge_level gauge"));
        assert!(text.lines().any(|l| l == "test_metrics_gauge_level 42"));
        let j = snap.to_json();
        assert_eq!(
            j.field("gauges")
                .unwrap()
                .field("test.metrics.gauge_level")
                .unwrap()
                .as_i64()
                .unwrap(),
            42
        );
    }

    #[test]
    fn exposition_covers_registry_and_stays_sorted() {
        counter("test.metrics.expose_counter").add(7);
        let h = histogram("test.metrics.expose_hist");
        h.reset();
        for v in [10, 20, 30] {
            h.record(v);
        }
        let text = expose_text();
        assert!(text.contains("# TYPE test_metrics_expose_counter counter"));
        assert!(text.contains("# TYPE test_metrics_expose_hist summary"));
        assert!(text.contains("test_metrics_expose_hist{quantile=\"0.5\"}"));
        assert!(text.contains("test_metrics_expose_hist_sum 60"));
        assert!(text.contains("test_metrics_expose_hist_count 3"));
        // sample lines for counters carry their value
        assert!(text
            .lines()
            .any(|l| l.starts_with("test_metrics_expose_counter ")));
        // deterministic: two renders of the same snapshot are identical
        let snap = snapshot_all();
        assert_eq!(snap.expose_text(), snap.expose_text());
        // counter sample names are sorted (they come from a BTreeMap)
        let counter_names: Vec<&str> = snap.counters.keys().map(|s| s.as_str()).collect();
        let mut sorted = counter_names.clone();
        sorted.sort_unstable();
        assert_eq!(counter_names, sorted);
    }

    #[test]
    fn snapshot_json_is_deterministic_and_sorted() {
        // registration order must not leak into the export: counters and
        // histograms render sorted by name regardless of interning order.
        // Sibling tests bump their own counters concurrently, so only the
        // key order (all keys) and this test's own entries are compared.
        counter("test.metrics.det_zz").inc();
        counter("test.metrics.det_aa").inc();
        let own_counters = || {
            let json = snapshot_all().to_json();
            let counters = json.field("counters").unwrap().entries().unwrap();
            assert!(
                counters.is_sorted_by(|a, b| a.0 <= b.0),
                "counters must render in name order"
            );
            counters
                .iter()
                .filter(|(k, _)| k.starts_with("test.metrics.det_"))
                .cloned()
                .collect::<Vec<_>>()
        };
        let own = own_counters();
        assert_eq!(own.len(), 2);
        assert_eq!(own, own_counters());
    }

    #[test]
    fn snapshot_json_renders() {
        counter("test.metrics.json").inc();
        let j = snapshot_all().to_json();
        assert!(j
            .field("counters")
            .unwrap()
            .field("test.metrics.json")
            .is_ok());
        // compact form stays one line
        assert!(!j.compact().contains('\n'));
    }
}
