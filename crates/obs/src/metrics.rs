//! Lock-free metrics: counters, gauges and log-scale histograms behind a
//! shared [`Registry`], with Prometheus-style text exposition and JSON
//! snapshot export.
//!
//! The hot-path contract: registration (name lookup) takes a mutex once,
//! after which the caller holds an `Arc` handle whose update methods are a
//! single relaxed atomic RMW — cheap enough for per-message and
//! per-sub-task code. A [`Histogram`] uses 64 fixed power-of-two buckets
//! (one per bit position of the observed value), so `observe` is two
//! `fetch_add`s, one `fetch_max` and no allocation; quantiles are read
//! back with one-octave resolution, clamped to the exact observed
//! maximum.

use std::collections::BTreeMap;
use std::sync::atomic::{AtomicI64, AtomicU64, Ordering};
use std::sync::{Arc, Mutex};

use crate::json::JsonValue;

/// A monotonically increasing counter.
#[derive(Debug, Default)]
pub struct Counter(AtomicU64);

impl Counter {
    /// Increment by one.
    pub fn inc(&self) {
        self.add(1);
    }

    /// Increment by `n`.
    pub fn add(&self, n: u64) {
        self.0.fetch_add(n, Ordering::Relaxed);
    }

    /// Current value.
    pub fn get(&self) -> u64 {
        self.0.load(Ordering::Relaxed)
    }
}

/// A gauge: a value that can move both ways (e.g. currently-dead slaves).
#[derive(Debug, Default)]
pub struct Gauge(AtomicI64);

impl Gauge {
    /// Set the value.
    pub fn set(&self, v: i64) {
        self.0.store(v, Ordering::Relaxed);
    }

    /// Add `d` (may be negative).
    pub fn add(&self, d: i64) {
        self.0.fetch_add(d, Ordering::Relaxed);
    }

    /// Current value.
    pub fn get(&self) -> i64 {
        self.0.load(Ordering::Relaxed)
    }
}

/// Number of histogram buckets: one per bit position of a `u64` value.
pub const HIST_BUCKETS: usize = 64;

/// A fixed-bucket log-scale histogram of `u64` samples (typically
/// nanoseconds). Bucket `i` holds values with `floor(log2(v)) == i`
/// (value 0 lands in bucket 0), so recording never allocates and never
/// locks.
#[derive(Debug)]
pub struct Histogram {
    buckets: [AtomicU64; HIST_BUCKETS],
    count: AtomicU64,
    sum: AtomicU64,
    max: AtomicU64,
}

impl Default for Histogram {
    fn default() -> Self {
        Self {
            buckets: [const { AtomicU64::new(0) }; HIST_BUCKETS],
            count: AtomicU64::new(0),
            sum: AtomicU64::new(0),
            max: AtomicU64::new(0),
        }
    }
}

impl Histogram {
    /// Record one sample.
    pub fn observe(&self, v: u64) {
        let idx = 63 - (v | 1).leading_zeros() as usize;
        self.buckets[idx].fetch_add(1, Ordering::Relaxed);
        self.count.fetch_add(1, Ordering::Relaxed);
        self.sum.fetch_add(v, Ordering::Relaxed);
        self.max.fetch_max(v, Ordering::Relaxed);
    }

    /// Number of samples recorded.
    pub fn count(&self) -> u64 {
        self.count.load(Ordering::Relaxed)
    }

    /// Sum of all samples.
    pub fn sum(&self) -> u64 {
        self.sum.load(Ordering::Relaxed)
    }

    /// Largest sample (0 when empty).
    pub fn max(&self) -> u64 {
        self.max.load(Ordering::Relaxed)
    }

    /// Mean sample (0.0 when empty).
    pub fn mean(&self) -> f64 {
        let n = self.count();
        if n == 0 {
            0.0
        } else {
            self.sum() as f64 / n as f64
        }
    }

    /// The `q`-quantile (`0.0..=1.0`) with one-octave resolution: the
    /// upper bound of the bucket holding the target sample, clamped to
    /// the exact observed maximum. 0 when empty.
    pub fn quantile(&self, q: f64) -> u64 {
        let counts: Vec<u64> = self
            .buckets
            .iter()
            .map(|b| b.load(Ordering::Relaxed))
            .collect();
        let total: u64 = counts.iter().sum();
        if total == 0 {
            return 0;
        }
        let target = ((q.clamp(0.0, 1.0) * total as f64).ceil() as u64).clamp(1, total);
        let mut cum = 0u64;
        for (i, c) in counts.iter().enumerate() {
            cum += c;
            if cum >= target {
                let upper = if i >= 63 {
                    u64::MAX
                } else {
                    (1u64 << (i + 1)) - 1
                };
                return upper.min(self.max());
            }
        }
        self.max()
    }

    /// Snapshot of the derived statistics.
    pub fn snapshot(&self) -> HistSnapshot {
        HistSnapshot {
            count: self.count(),
            sum: self.sum(),
            max: self.max(),
            p50: self.quantile(0.50),
            p95: self.quantile(0.95),
            p99: self.quantile(0.99),
        }
    }
}

/// Point-in-time view of a [`Histogram`].
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct HistSnapshot {
    /// Samples recorded.
    pub count: u64,
    /// Sum of samples.
    pub sum: u64,
    /// Exact maximum sample.
    pub max: u64,
    /// Median (one-octave resolution).
    pub p50: u64,
    /// 95th percentile (one-octave resolution).
    pub p95: u64,
    /// 99th percentile (one-octave resolution).
    pub p99: u64,
}

#[derive(Debug, Clone)]
enum Metric {
    Counter(Arc<Counter>),
    Gauge(Arc<Gauge>),
    Histogram(Arc<Histogram>),
}

/// A named collection of metrics. Handles returned by the accessors are
/// `Arc`s: keep them on the hot path instead of re-looking names up.
/// Cloning an `Arc<Registry>` shares the underlying metrics — in the
/// in-process virtual cluster, master and slaves all write to one
/// registry, distinguished by metric labels.
#[derive(Debug, Default)]
pub struct Registry {
    metrics: Mutex<BTreeMap<String, Metric>>,
}

/// Render `name{k="v",...}` — the registry's label convention. Metrics
/// with the same base name and different labels are distinct series.
pub fn labeled(name: &str, labels: &[(&str, &str)]) -> String {
    if labels.is_empty() {
        return name.to_string();
    }
    let mut out = String::with_capacity(name.len() + 16 * labels.len());
    out.push_str(name);
    out.push('{');
    for (i, (k, v)) in labels.iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        out.push_str(k);
        out.push_str("=\"");
        out.push_str(v);
        out.push('"');
    }
    out.push('}');
    out
}

impl Registry {
    /// Empty registry.
    pub fn new() -> Self {
        Self::default()
    }

    /// Get or create the counter `name`. Panics if `name` is already
    /// registered as a different metric kind.
    pub fn counter(&self, name: &str) -> Arc<Counter> {
        let mut m = self.metrics.lock().expect("registry mutex");
        match m
            .entry(name.to_string())
            .or_insert_with(|| Metric::Counter(Arc::new(Counter::default())))
        {
            Metric::Counter(c) => c.clone(),
            _ => panic!("metric {name} already registered with a different kind"),
        }
    }

    /// Get or create the gauge `name`. Panics on a kind mismatch.
    pub fn gauge(&self, name: &str) -> Arc<Gauge> {
        let mut m = self.metrics.lock().expect("registry mutex");
        match m
            .entry(name.to_string())
            .or_insert_with(|| Metric::Gauge(Arc::new(Gauge::default())))
        {
            Metric::Gauge(g) => g.clone(),
            _ => panic!("metric {name} already registered with a different kind"),
        }
    }

    /// Get or create the histogram `name`. Panics on a kind mismatch.
    pub fn histogram(&self, name: &str) -> Arc<Histogram> {
        let mut m = self.metrics.lock().expect("registry mutex");
        match m
            .entry(name.to_string())
            .or_insert_with(|| Metric::Histogram(Arc::new(Histogram::default())))
        {
            Metric::Histogram(h) => h.clone(),
            _ => panic!("metric {name} already registered with a different kind"),
        }
    }

    /// Point-in-time snapshot of every registered metric, sorted by name.
    pub fn snapshot(&self) -> Snapshot {
        let m = self.metrics.lock().expect("registry mutex");
        let entries = m
            .iter()
            .map(|(name, metric)| {
                let value = match metric {
                    Metric::Counter(c) => MetricValue::Counter(c.get()),
                    Metric::Gauge(g) => MetricValue::Gauge(g.get()),
                    Metric::Histogram(h) => MetricValue::Histogram(h.snapshot()),
                };
                (name.clone(), value)
            })
            .collect();
        Snapshot { entries }
    }
}

/// Snapshotted value of one metric.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum MetricValue {
    /// Counter value.
    Counter(u64),
    /// Gauge value.
    Gauge(i64),
    /// Histogram statistics.
    Histogram(HistSnapshot),
}

/// A point-in-time snapshot of a [`Registry`], renderable as Prometheus
/// text exposition or JSON.
#[derive(Clone, Debug, Default)]
pub struct Snapshot {
    /// `(full name, value)`, sorted by name.
    pub entries: Vec<(String, MetricValue)>,
}

/// `name{a="b"}` -> `("name", Some("a=\"b\""))`.
fn split_labels(full: &str) -> (&str, Option<&str>) {
    match full.split_once('{') {
        Some((base, rest)) => (base, Some(rest.trim_end_matches('}'))),
        None => (full, None),
    }
}

/// Re-attach labels, optionally appending one extra `k="v"` pair.
fn with_labels(base: &str, labels: Option<&str>, extra: Option<(&str, &str)>) -> String {
    let mut parts = Vec::new();
    if let Some(l) = labels {
        parts.push(l.to_string());
    }
    if let Some((k, v)) = extra {
        parts.push(format!("{k}=\"{v}\""));
    }
    if parts.is_empty() {
        base.to_string()
    } else {
        format!("{base}{{{}}}", parts.join(","))
    }
}

impl Snapshot {
    /// Value of the counter `name` (full name, labels included).
    pub fn counter(&self, name: &str) -> Option<u64> {
        self.entries.iter().find_map(|(n, v)| match v {
            MetricValue::Counter(c) if n == name => Some(*c),
            _ => None,
        })
    }

    /// Value of the gauge `name`.
    pub fn gauge(&self, name: &str) -> Option<i64> {
        self.entries.iter().find_map(|(n, v)| match v {
            MetricValue::Gauge(g) if n == name => Some(*g),
            _ => None,
        })
    }

    /// Statistics of the histogram `name`.
    pub fn histogram(&self, name: &str) -> Option<HistSnapshot> {
        self.entries.iter().find_map(|(n, v)| match v {
            MetricValue::Histogram(h) if n == name => Some(*h),
            _ => None,
        })
    }

    /// Sum of every counter series whose base name is `base` (labels
    /// aggregated away).
    pub fn counter_total(&self, base: &str) -> u64 {
        self.entries
            .iter()
            .filter(|(n, _)| split_labels(n).0 == base)
            .map(|(_, v)| match v {
                MetricValue::Counter(c) => *c,
                _ => 0,
            })
            .sum()
    }

    /// Prometheus-style text exposition. Histograms render as summaries:
    /// `_count`, `_sum`, `_max` plus `quantile`-labelled series.
    pub fn render_text(&self) -> String {
        let mut out = String::new();
        let mut last_typed: Option<String> = None;
        for (name, value) in &self.entries {
            let (base, labels) = split_labels(name);
            let kind = match value {
                MetricValue::Counter(_) => "counter",
                MetricValue::Gauge(_) => "gauge",
                MetricValue::Histogram(_) => "summary",
            };
            if last_typed.as_deref() != Some(base) {
                out.push_str(&format!("# TYPE {base} {kind}\n"));
                last_typed = Some(base.to_string());
            }
            match value {
                MetricValue::Counter(c) => out.push_str(&format!("{name} {c}\n")),
                MetricValue::Gauge(g) => out.push_str(&format!("{name} {g}\n")),
                MetricValue::Histogram(h) => {
                    let series = |extra| with_labels(base, labels, extra);
                    out.push_str(&format!("{}_count{} {}\n", base, suffix(labels), h.count));
                    out.push_str(&format!("{}_sum{} {}\n", base, suffix(labels), h.sum));
                    out.push_str(&format!("{}_max{} {}\n", base, suffix(labels), h.max));
                    out.push_str(&format!(
                        "{} {}\n",
                        series(Some(("quantile", "0.5"))),
                        h.p50
                    ));
                    out.push_str(&format!(
                        "{} {}\n",
                        series(Some(("quantile", "0.95"))),
                        h.p95
                    ));
                    out.push_str(&format!(
                        "{} {}\n",
                        series(Some(("quantile", "0.99"))),
                        h.p99
                    ));
                }
            }
        }
        out
    }

    /// JSON snapshot: `{"counters":{...},"gauges":{...},"histograms":{...}}`.
    pub fn render_json(&self) -> String {
        let mut counters = Vec::new();
        let mut gauges = Vec::new();
        let mut histograms = Vec::new();
        for (name, value) in &self.entries {
            match value {
                MetricValue::Counter(c) => {
                    counters.push((name.clone(), JsonValue::from(*c)));
                }
                MetricValue::Gauge(g) => {
                    gauges.push((name.clone(), JsonValue::Num(*g as f64)));
                }
                MetricValue::Histogram(h) => {
                    let obj = JsonValue::Obj(vec![
                        ("count".into(), JsonValue::from(h.count)),
                        ("sum".into(), JsonValue::from(h.sum)),
                        ("max".into(), JsonValue::from(h.max)),
                        ("p50".into(), JsonValue::from(h.p50)),
                        ("p95".into(), JsonValue::from(h.p95)),
                        ("p99".into(), JsonValue::from(h.p99)),
                        ("mean".into(), JsonValue::Num(h.mean())),
                    ]);
                    histograms.push((name.clone(), obj));
                }
            }
        }
        JsonValue::Obj(vec![
            ("counters".into(), JsonValue::Obj(counters)),
            ("gauges".into(), JsonValue::Obj(gauges)),
            ("histograms".into(), JsonValue::Obj(histograms)),
        ])
        .to_string()
    }
}

impl HistSnapshot {
    fn mean(&self) -> f64 {
        if self.count == 0 {
            0.0
        } else {
            self.sum as f64 / self.count as f64
        }
    }
}

/// `Some("a=\"b\"")` -> `{a="b"}`, `None` -> ``.
fn suffix(labels: Option<&str>) -> String {
    match labels {
        Some(l) => format!("{{{l}}}"),
        None => String::new(),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn counter_and_gauge_roundtrip() {
        let r = Registry::new();
        let c = r.counter("easyhps_test_total");
        c.inc();
        c.add(4);
        assert_eq!(c.get(), 5);
        // Same name returns the same underlying metric.
        assert_eq!(r.counter("easyhps_test_total").get(), 5);

        let g = r.gauge("easyhps_test_gauge");
        g.set(7);
        g.add(-3);
        assert_eq!(g.get(), 4);
    }

    #[test]
    fn histogram_quantiles_are_octave_accurate() {
        let h = Histogram::default();
        for v in 1..=1000u64 {
            h.observe(v);
        }
        assert_eq!(h.count(), 1000);
        assert_eq!(h.sum(), 500_500);
        assert_eq!(h.max(), 1000);
        // True p50 = 500; bucket [512, 1023] or [256, 511] upper bound.
        let p50 = h.quantile(0.5);
        assert!((256..=1023).contains(&p50), "p50 = {p50}");
        // p99 = 990 -> bucket [512,1023], clamped to max 1000.
        assert_eq!(h.quantile(0.99), 1000);
        assert_eq!(h.quantile(1.0), 1000);
        // Empty histogram.
        let e = Histogram::default();
        assert_eq!(e.quantile(0.5), 0);
        assert_eq!(e.mean(), 0.0);
    }

    #[test]
    fn histogram_handles_zero_and_huge_values() {
        let h = Histogram::default();
        h.observe(0);
        h.observe(u64::MAX);
        assert_eq!(h.count(), 2);
        assert_eq!(h.max(), u64::MAX);
        assert_eq!(h.quantile(0.0), 1, "zero lands in bucket 0 (upper bound 1)");
    }

    #[test]
    fn labeled_series_are_distinct() {
        let r = Registry::new();
        r.counter(&labeled("retx", &[("peer", "1")])).add(3);
        r.counter(&labeled("retx", &[("peer", "2")])).add(5);
        let snap = r.snapshot();
        assert_eq!(snap.counter("retx{peer=\"1\"}"), Some(3));
        assert_eq!(snap.counter("retx{peer=\"2\"}"), Some(5));
        assert_eq!(snap.counter_total("retx"), 8);
    }

    #[test]
    fn text_exposition_format() {
        let r = Registry::new();
        r.counter("a_total").add(2);
        r.gauge("b_gauge").set(-1);
        r.histogram("lat_ns").observe(100);
        let text = r.snapshot().render_text();
        assert!(
            text.contains("# TYPE a_total counter\na_total 2\n"),
            "{text}"
        );
        assert!(
            text.contains("# TYPE b_gauge gauge\nb_gauge -1\n"),
            "{text}"
        );
        assert!(text.contains("lat_ns_count 1"), "{text}");
        assert!(text.contains("lat_ns{quantile=\"0.5\"} 100"), "{text}");
    }

    #[test]
    fn json_snapshot_parses_back() {
        let r = Registry::new();
        r.counter(&labeled("retx", &[("peer", "3")])).add(7);
        r.histogram("lat_ns").observe(1024);
        let json = r.snapshot().render_json();
        let v = crate::json::parse(&json).expect("valid JSON");
        let c = v
            .get("counters")
            .and_then(|c| c.get("retx{peer=\"3\"}"))
            .and_then(|x| x.as_f64());
        assert_eq!(c, Some(7.0));
        let p50 = v
            .get("histograms")
            .and_then(|h| h.get("lat_ns"))
            .and_then(|h| h.get("p50"))
            .and_then(|x| x.as_f64());
        assert_eq!(p50, Some(1024.0));
    }

    #[test]
    fn concurrent_updates_do_not_lose_counts() {
        let r = Arc::new(Registry::new());
        let c = r.counter("c");
        let h = r.histogram("h");
        std::thread::scope(|s| {
            for _ in 0..4 {
                let (c, h) = (c.clone(), h.clone());
                s.spawn(move || {
                    for i in 0..10_000u64 {
                        c.inc();
                        h.observe(i);
                    }
                });
            }
        });
        assert_eq!(c.get(), 40_000);
        assert_eq!(h.count(), 40_000);
    }
}
