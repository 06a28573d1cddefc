//! Process-wide metrics registry: named counters and log₂-scale
//! histograms.
//!
//! Registration (by name, `crate.subsystem.event` convention) takes a
//! registry lock once; the returned handle is `&'static` and every
//! subsequent update is a relaxed atomic operation — safe and cheap to
//! call from parallel chase workers. The [`counter!`](macro@crate::counter)/[`histogram!`](macro@crate::histogram)
//! macros cache the handle per call site in a `OnceLock`, so hot loops
//! never touch the registry lock.
//!
//! Unlike spans and the journal, metrics are **not** gated behind the
//! `trace` feature: `--metrics` snapshots and the benchmark baselines
//! need them in no-trace builds too.

use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Mutex;

use crate::json;

/// A monotonically increasing counter.
#[derive(Debug, Default)]
pub struct Counter {
    value: AtomicU64,
}

impl Counter {
    /// Add one.
    #[inline]
    pub fn inc(&self) {
        self.add(1);
    }

    /// Add `n`.
    #[inline]
    pub fn add(&self, n: u64) {
        self.value.fetch_add(n, Ordering::Relaxed);
    }

    /// Current value.
    pub fn get(&self) -> u64 {
        self.value.load(Ordering::Relaxed)
    }
}

/// Number of histogram buckets: one for zero plus one per power of
/// two up to `u64::MAX`.
pub const BUCKETS: usize = 65;

/// A log₂-scale histogram of `u64` samples. Bucket `0` holds the
/// value `0`; bucket `i ≥ 1` holds values in `[2^(i-1), 2^i)`. Each
/// bucket, the sample count, and the sample sum are separate relaxed
/// atomics, so a snapshot taken while writers are active may be
/// momentarily skewed by in-flight samples; quiescent snapshots are
/// exact.
#[derive(Debug)]
pub struct Histogram {
    buckets: [AtomicU64; BUCKETS],
    count: AtomicU64,
    sum: AtomicU64,
    max: AtomicU64,
}

impl Default for Histogram {
    fn default() -> Self {
        Histogram {
            buckets: std::array::from_fn(|_| AtomicU64::new(0)),
            count: AtomicU64::new(0),
            sum: AtomicU64::new(0),
            max: AtomicU64::new(0),
        }
    }
}

/// The bucket index a value lands in.
pub fn bucket_of(v: u64) -> usize {
    if v == 0 {
        0
    } else {
        64 - v.leading_zeros() as usize
    }
}

/// The inclusive upper bound of bucket `i` (`2^i - 1`; bucket 0 holds
/// only zero).
pub fn bucket_bound(i: usize) -> u64 {
    if i >= 64 {
        u64::MAX
    } else {
        (1u64 << i) - 1
    }
}

impl Histogram {
    /// Record one sample.
    #[inline]
    pub fn record(&self, v: u64) {
        self.buckets[bucket_of(v)].fetch_add(1, Ordering::Relaxed);
        self.count.fetch_add(1, Ordering::Relaxed);
        self.sum.fetch_add(v, Ordering::Relaxed);
        self.max.fetch_max(v, Ordering::Relaxed);
    }

    /// Copy out the current state.
    pub fn snapshot(&self) -> HistogramSnapshot {
        HistogramSnapshot {
            buckets: std::array::from_fn(|i| self.buckets[i].load(Ordering::Relaxed)),
            count: self.count.load(Ordering::Relaxed),
            sum: self.sum.load(Ordering::Relaxed),
            max: self.max.load(Ordering::Relaxed),
        }
    }
}

/// A point-in-time copy of one histogram.
#[derive(Debug, Clone)]
pub struct HistogramSnapshot {
    /// Per-bucket sample counts (see [`bucket_of`]).
    pub buckets: [u64; BUCKETS],
    /// Total samples recorded.
    pub count: u64,
    /// Sum of all samples (wrapping on overflow).
    pub sum: u64,
    /// Largest sample recorded.
    pub max: u64,
}

impl HistogramSnapshot {
    /// Mean sample value (0 when empty).
    pub fn mean(&self) -> f64 {
        if self.count == 0 {
            0.0
        } else {
            self.sum as f64 / self.count as f64
        }
    }

    /// Upper bound of the bucket containing quantile `q` (in `[0,1]`)
    /// — a conservative estimate within a factor of two of the true
    /// value.
    pub fn quantile_bound(&self, q: f64) -> u64 {
        if self.count == 0 {
            return 0;
        }
        let rank = ((self.count as f64) * q).ceil().max(1.0) as u64;
        let mut seen = 0u64;
        for (i, &n) in self.buckets.iter().enumerate() {
            seen += n;
            if seen >= rank {
                return bucket_bound(i).min(self.max);
            }
        }
        self.max
    }
}

/// A last-value-wins level metric (cache occupancy, in-flight request
/// count). Unlike a [`Counter`] it can go down; unlike a [`Histogram`]
/// a snapshot reports the *current* level, not a distribution.
#[derive(Debug, Default)]
pub struct Gauge {
    value: AtomicU64,
}

impl Gauge {
    /// Set the level.
    #[inline]
    pub fn set(&self, v: u64) {
        self.value.store(v, Ordering::Relaxed);
    }

    /// Raise the level by `n`.
    #[inline]
    pub fn add(&self, n: u64) {
        self.value.fetch_add(n, Ordering::Relaxed);
    }

    /// Lower the level by `n` (saturating at zero: a racing mix of
    /// add/sub may momentarily observe zero rather than wrapping).
    #[inline]
    pub fn sub(&self, n: u64) {
        let mut cur = self.value.load(Ordering::Relaxed);
        loop {
            let next = cur.saturating_sub(n);
            match self.value.compare_exchange_weak(cur, next, Ordering::Relaxed, Ordering::Relaxed)
            {
                Ok(_) => return,
                Err(seen) => cur = seen,
            }
        }
    }

    /// Current level.
    pub fn get(&self) -> u64 {
        self.value.load(Ordering::Relaxed)
    }
}

#[derive(Clone, Copy)]
enum Metric {
    Counter(&'static Counter),
    Histogram(&'static Histogram),
    Gauge(&'static Gauge),
}

static REGISTRY: Mutex<BTreeMap<&'static str, Metric>> = Mutex::new(BTreeMap::new());

fn registry() -> std::sync::MutexGuard<'static, BTreeMap<&'static str, Metric>> {
    REGISTRY.lock().unwrap_or_else(std::sync::PoisonError::into_inner)
}

/// The labeled registry, keyed by `(name, canonical label string)`.
/// Kept separate from the unlabeled one so the hot `counter!` macros
/// stay `&'static str`-keyed and allocation-free.
static LABELED: Mutex<BTreeMap<(&'static str, String), Metric>> = Mutex::new(BTreeMap::new());

fn labeled_registry() -> std::sync::MutexGuard<'static, BTreeMap<(&'static str, String), Metric>> {
    LABELED.lock().unwrap_or_else(std::sync::PoisonError::into_inner)
}

/// Render `labels` in canonical form: sorted by key, each pair as
/// `key="value"` joined by commas, values escaped Prometheus-style
/// (`\\`, `\"`, `\n`). Two label slices describe the same series iff
/// their canonical forms are equal — the labeled registry keys on this
/// string, and the `METRICS` exposition emits it verbatim.
pub fn format_labels(labels: &[(&str, &str)]) -> String {
    let mut sorted: Vec<&(&str, &str)> = labels.iter().collect();
    sorted.sort_by_key(|(k, _)| *k);
    let mut out = String::new();
    for (i, (k, v)) in sorted.iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        out.push_str(k);
        out.push_str("=\"");
        for ch in v.chars() {
            match ch {
                '\\' => out.push_str("\\\\"),
                '"' => out.push_str("\\\""),
                '\n' => out.push_str("\\n"),
                _ => out.push(ch),
            }
        }
        out.push('"');
    }
    out
}

/// Parse a canonical label string (the form [`format_labels`] renders)
/// back into key/value pairs. Returns `None` on anything malformed —
/// consumers reading an exposition off the wire should not guess.
pub fn parse_labels(s: &str) -> Option<Vec<(String, String)>> {
    let mut pairs = Vec::new();
    let mut rest = s;
    while !rest.is_empty() {
        let eq = rest.find("=\"")?;
        let key = &rest[..eq];
        if key.is_empty() {
            return None;
        }
        let mut value = String::new();
        let mut chars = rest[eq + 2..].char_indices();
        let close = loop {
            let (i, ch) = chars.next()?;
            match ch {
                '\\' => match chars.next()?.1 {
                    '\\' => value.push('\\'),
                    '"' => value.push('"'),
                    'n' => value.push('\n'),
                    _ => return None,
                },
                '"' => break eq + 2 + i,
                _ => value.push(ch),
            }
        };
        pairs.push((key.to_owned(), value));
        rest = &rest[close + 1..];
        if let Some(r) = rest.strip_prefix(',') {
            rest = r;
            if rest.is_empty() {
                return None;
            }
        } else if !rest.is_empty() {
            return None;
        }
    }
    Some(pairs)
}

fn labeled_metric(name: &'static str, labels: &[(&str, &str)], make: fn() -> Metric) -> Metric {
    let key = (name, format_labels(labels));
    // The Metric enum only holds `&'static` leaked handles, so handing
    // a copy out from under the lock is fine.
    *labeled_registry().entry(key).or_insert_with(make)
}

/// Fetch (registering on first use) the counter named `name` with
/// label set `labels`. Label order does not matter; the canonical
/// sorted form identifies the series. Takes the labeled-registry lock
/// on every call — fine for per-request bookkeeping, wrong for inner
/// loops (use the unlabeled [`counter!`](macro@crate::counter) there).
///
/// Panics if the series is already registered with another type.
pub fn labeled_counter(name: &'static str, labels: &[(&str, &str)]) -> &'static Counter {
    match labeled_metric(name, labels, || Metric::Counter(Box::leak(Box::default()))) {
        Metric::Counter(c) => c,
        _ => panic!("labeled metric {name:?} is already registered with another type"),
    }
}

/// Fetch (registering on first use) the histogram named `name` with
/// label set `labels`; see [`labeled_counter`] for the locking story.
///
/// Panics if the series is already registered with another type.
pub fn labeled_histogram(name: &'static str, labels: &[(&str, &str)]) -> &'static Histogram {
    match labeled_metric(name, labels, || Metric::Histogram(Box::leak(Box::default()))) {
        Metric::Histogram(h) => h,
        _ => panic!("labeled metric {name:?} is already registered with another type"),
    }
}

/// Fetch (registering on first use) the gauge named `name` with label
/// set `labels`; see [`labeled_counter`] for the locking story.
///
/// Panics if the series is already registered with another type.
pub fn labeled_gauge(name: &'static str, labels: &[(&str, &str)]) -> &'static Gauge {
    match labeled_metric(name, labels, || Metric::Gauge(Box::leak(Box::default()))) {
        Metric::Gauge(g) => g,
        _ => panic!("labeled metric {name:?} is already registered with another type"),
    }
}

/// Fetch (registering on first use) the counter named `name`.
///
/// Panics if `name` is already registered as a histogram.
pub fn counter(name: &'static str) -> &'static Counter {
    match registry().entry(name).or_insert_with(|| Metric::Counter(Box::leak(Box::default()))) {
        Metric::Counter(c) => c,
        _ => panic!("metric {name:?} is already registered with another type"),
    }
}

/// Fetch (registering on first use) the histogram named `name`.
///
/// Panics if `name` is already registered as a counter.
pub fn histogram(name: &'static str) -> &'static Histogram {
    match registry().entry(name).or_insert_with(|| Metric::Histogram(Box::leak(Box::default()))) {
        Metric::Histogram(h) => h,
        _ => panic!("metric {name:?} is already registered with another type"),
    }
}

/// Fetch (registering on first use) the gauge named `name`.
///
/// Panics if `name` is already registered with another metric type.
pub fn gauge(name: &'static str) -> &'static Gauge {
    match registry().entry(name).or_insert_with(|| Metric::Gauge(Box::leak(Box::default()))) {
        Metric::Gauge(g) => g,
        _ => panic!("metric {name:?} is already registered with another type"),
    }
}

/// Fetch the counter named `$name`, caching the handle at the call
/// site so repeat hits skip the registry lock.
#[macro_export]
macro_rules! counter {
    ($name:expr) => {{
        static HANDLE: std::sync::OnceLock<&'static $crate::Counter> = std::sync::OnceLock::new();
        *HANDLE.get_or_init(|| $crate::metrics::counter($name))
    }};
}

/// Fetch the histogram named `$name`, caching the handle at the call
/// site so repeat hits skip the registry lock.
#[macro_export]
macro_rules! histogram {
    ($name:expr) => {{
        static HANDLE: std::sync::OnceLock<&'static $crate::Histogram> = std::sync::OnceLock::new();
        *HANDLE.get_or_init(|| $crate::metrics::histogram($name))
    }};
}

/// Fetch the gauge named `$name`, caching the handle at the call site
/// so repeat hits skip the registry lock.
#[macro_export]
macro_rules! gauge {
    ($name:expr) => {{
        static HANDLE: std::sync::OnceLock<&'static $crate::Gauge> = std::sync::OnceLock::new();
        *HANDLE.get_or_init(|| $crate::metrics::gauge($name))
    }};
}

/// A point-in-time copy of the whole registry.
#[derive(Debug, Clone, Default)]
pub struct Snapshot {
    /// Counter values, sorted by name.
    pub counters: Vec<(String, u64)>,
    /// Histogram states, sorted by name.
    pub histograms: Vec<(String, HistogramSnapshot)>,
    /// Gauge levels, sorted by name.
    pub gauges: Vec<(String, u64)>,
    /// Labeled counter values as `(name, canonical labels, value)`,
    /// sorted by name then label string.
    pub labeled_counters: Vec<(String, String, u64)>,
    /// Labeled histogram states, same ordering.
    pub labeled_histograms: Vec<(String, String, HistogramSnapshot)>,
    /// Labeled gauge levels, same ordering.
    pub labeled_gauges: Vec<(String, String, u64)>,
}

/// Snapshot every registered metric, labeled and unlabeled.
pub fn snapshot() -> Snapshot {
    let mut snap = Snapshot::default();
    for (&name, metric) in registry().iter() {
        match metric {
            Metric::Counter(c) => snap.counters.push((name.to_owned(), c.get())),
            Metric::Histogram(h) => snap.histograms.push((name.to_owned(), h.snapshot())),
            Metric::Gauge(g) => snap.gauges.push((name.to_owned(), g.get())),
        }
    }
    for ((name, labels), metric) in labeled_registry().iter() {
        let (name, labels) = ((*name).to_owned(), labels.clone());
        match metric {
            Metric::Counter(c) => snap.labeled_counters.push((name, labels, c.get())),
            Metric::Histogram(h) => snap.labeled_histograms.push((name, labels, h.snapshot())),
            Metric::Gauge(g) => snap.labeled_gauges.push((name, labels, g.get())),
        }
    }
    snap
}

impl Snapshot {
    /// The value of counter `name`, if registered.
    pub fn counter(&self, name: &str) -> Option<u64> {
        self.counters.iter().find(|(n, _)| n == name).map(|&(_, v)| v)
    }

    /// The state of histogram `name`, if registered.
    pub fn histogram(&self, name: &str) -> Option<&HistogramSnapshot> {
        self.histograms.iter().find(|(n, _)| n == name).map(|(_, h)| h)
    }

    /// The level of gauge `name`, if registered.
    pub fn gauge(&self, name: &str) -> Option<u64> {
        self.gauges.iter().find(|(n, _)| n == name).map(|&(_, v)| v)
    }

    /// The value of the labeled counter series `name{labels}`, where
    /// `labels` is in [`format_labels`] canonical form.
    pub fn labeled_counter(&self, name: &str, labels: &str) -> Option<u64> {
        self.labeled_counters.iter().find(|(n, l, _)| n == name && l == labels).map(|&(_, _, v)| v)
    }

    /// The state of the labeled histogram series `name{labels}`.
    pub fn labeled_histogram(&self, name: &str, labels: &str) -> Option<&HistogramSnapshot> {
        self.labeled_histograms.iter().find(|(n, l, _)| n == name && l == labels).map(|(_, _, h)| h)
    }

    /// The level of the labeled gauge series `name{labels}`.
    pub fn labeled_gauge(&self, name: &str, labels: &str) -> Option<u64> {
        self.labeled_gauges.iter().find(|(n, l, _)| n == name && l == labels).map(|&(_, _, v)| v)
    }

    /// Is there anything to show?
    pub fn is_empty(&self) -> bool {
        self.counters.is_empty()
            && self.histograms.is_empty()
            && self.gauges.is_empty()
            && self.labeled_counters.is_empty()
            && self.labeled_histograms.is_empty()
            && self.labeled_gauges.is_empty()
    }

    /// Render a human-readable table (the `--metrics` output). Labeled
    /// series appear in the same sections as their unlabeled peers,
    /// displayed as `name{labels}`.
    pub fn render(&self) -> String {
        let series = |labels: &str| {
            if labels.is_empty() {
                String::new()
            } else {
                format!("{{{labels}}}")
            }
        };
        let counters: Vec<(String, u64)> = self
            .counters
            .iter()
            .map(|(n, v)| (n.clone(), *v))
            .chain(self.labeled_counters.iter().map(|(n, l, v)| (format!("{n}{}", series(l)), *v)))
            .collect();
        let gauges: Vec<(String, u64)> = self
            .gauges
            .iter()
            .map(|(n, v)| (n.clone(), *v))
            .chain(self.labeled_gauges.iter().map(|(n, l, v)| (format!("{n}{}", series(l)), *v)))
            .collect();
        let histograms: Vec<(String, &HistogramSnapshot)> = self
            .histograms
            .iter()
            .map(|(n, h)| (n.clone(), h))
            .chain(self.labeled_histograms.iter().map(|(n, l, h)| (format!("{n}{}", series(l)), h)))
            .collect();
        let width = counters
            .iter()
            .map(|(n, _)| n.len())
            .chain(histograms.iter().map(|(n, _)| n.len()))
            .chain(gauges.iter().map(|(n, _)| n.len()))
            .max()
            .unwrap_or(0)
            .max(6);
        let mut out = String::new();
        if !counters.is_empty() {
            let _ = writeln!(out, "{:width$}  {:>12}", "counter", "value");
            for (name, value) in &counters {
                let _ = writeln!(out, "{name:width$}  {value:>12}");
            }
        }
        if !gauges.is_empty() {
            if !counters.is_empty() {
                out.push('\n');
            }
            let _ = writeln!(out, "{:width$}  {:>12}", "gauge", "level");
            for (name, value) in &gauges {
                let _ = writeln!(out, "{name:width$}  {value:>12}");
            }
        }
        if !histograms.is_empty() {
            if !counters.is_empty() || !gauges.is_empty() {
                out.push('\n');
            }
            let _ = writeln!(
                out,
                "{:width$}  {:>10} {:>14} {:>12} {:>10} {:>10}",
                "histogram", "count", "sum", "mean", "p50<=", "max"
            );
            for (name, h) in &histograms {
                let _ = writeln!(
                    out,
                    "{name:width$}  {:>10} {:>14} {:>12.1} {:>10} {:>10}",
                    h.count,
                    h.sum,
                    h.mean(),
                    h.quantile_bound(0.5),
                    h.max
                );
            }
        }
        out
    }

    /// Render as a single JSON object (embedded in `BENCH_*.json`):
    /// `{"counters": {...}, "gauges": {...}, "histograms": {name:
    /// {count, sum, max, buckets: {bound: n, ...}}}, "labeled_counters":
    /// {"name{labels}": v, ...}, "labeled_gauges": {...},
    /// "labeled_histograms": {...}}`. Labeled series are keyed by their
    /// exposition-style `name{labels}` series string.
    pub fn to_json(&self) -> String {
        fn histogram_body(out: &mut String, h: &HistogramSnapshot) {
            let _ = write!(
                out,
                "{{\"count\": {}, \"sum\": {}, \"max\": {}, \"buckets\": {{",
                h.count, h.sum, h.max
            );
            let mut first = true;
            for (b, &n) in h.buckets.iter().enumerate() {
                if n == 0 {
                    continue;
                }
                if !first {
                    out.push_str(", ");
                }
                first = false;
                let _ = write!(out, "\"{}\": {n}", bucket_bound(b));
            }
            out.push_str("}}");
        }
        let series = |name: &str, labels: &str| format!("{name}{{{labels}}}");
        let mut out = String::from("{\"counters\": {");
        for (i, (name, value)) in self.counters.iter().enumerate() {
            if i > 0 {
                out.push_str(", ");
            }
            json::escape_into(&mut out, name);
            let _ = write!(out, ": {value}");
        }
        out.push_str("}, \"gauges\": {");
        for (i, (name, value)) in self.gauges.iter().enumerate() {
            if i > 0 {
                out.push_str(", ");
            }
            json::escape_into(&mut out, name);
            let _ = write!(out, ": {value}");
        }
        out.push_str("}, \"histograms\": {");
        for (i, (name, h)) in self.histograms.iter().enumerate() {
            if i > 0 {
                out.push_str(", ");
            }
            json::escape_into(&mut out, name);
            out.push_str(": ");
            histogram_body(&mut out, h);
        }
        out.push_str("}, \"labeled_counters\": {");
        for (i, (name, labels, value)) in self.labeled_counters.iter().enumerate() {
            if i > 0 {
                out.push_str(", ");
            }
            json::escape_into(&mut out, &series(name, labels));
            let _ = write!(out, ": {value}");
        }
        out.push_str("}, \"labeled_gauges\": {");
        for (i, (name, labels, value)) in self.labeled_gauges.iter().enumerate() {
            if i > 0 {
                out.push_str(", ");
            }
            json::escape_into(&mut out, &series(name, labels));
            let _ = write!(out, ": {value}");
        }
        out.push_str("}, \"labeled_histograms\": {");
        for (i, (name, labels, h)) in self.labeled_histograms.iter().enumerate() {
            if i > 0 {
                out.push_str(", ");
            }
            json::escape_into(&mut out, &series(name, labels));
            out.push_str(": ");
            histogram_body(&mut out, h);
        }
        out.push_str("}}");
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn bucket_boundaries_are_exact_powers_of_two() {
        assert_eq!(bucket_of(0), 0);
        assert_eq!(bucket_of(1), 1);
        assert_eq!(bucket_of(2), 2);
        assert_eq!(bucket_of(3), 2);
        assert_eq!(bucket_of(4), 3);
        assert_eq!(bucket_of(255), 8);
        assert_eq!(bucket_of(256), 9);
        assert_eq!(bucket_of(u64::MAX), 64);
        for i in 0..BUCKETS {
            assert_eq!(bucket_of(bucket_bound(i)), i);
            if i < 64 {
                assert_eq!(bucket_of(bucket_bound(i) + 1), i + 1);
            }
        }
    }

    #[test]
    fn histogram_aggregates_track_samples() {
        let h = Histogram::default();
        for v in [0, 1, 1, 3, 100, 4096] {
            h.record(v);
        }
        let s = h.snapshot();
        assert_eq!(s.count, 6);
        assert_eq!(s.sum, 4201);
        assert_eq!(s.max, 4096);
        assert_eq!(s.buckets[0], 1);
        assert_eq!(s.buckets[1], 2);
        assert_eq!(s.buckets[2], 1);
        assert_eq!(s.buckets[7], 1);
        assert_eq!(s.buckets[13], 1);
        assert!((s.mean() - 4201.0 / 6.0).abs() < 1e-9);
        assert_eq!(s.quantile_bound(0.5), 1);
    }

    #[test]
    fn snapshot_json_is_valid() {
        counter("test.metrics.json_counter").add(7);
        histogram("test.metrics.json_hist").record(9);
        gauge("test.metrics.json_gauge").set(3);
        let snap = snapshot();
        assert!(crate::json::is_valid(&snap.to_json()), "{}", snap.to_json());
        assert_eq!(snap.counter("test.metrics.json_counter"), Some(7));
        assert_eq!(snap.gauge("test.metrics.json_gauge"), Some(3));
    }

    #[test]
    fn labels_canonicalize_sorted_and_escaped() {
        assert_eq!(format_labels(&[]), "");
        assert_eq!(
            format_labels(&[("op", "CHASE"), ("mapping", "flights")]),
            "mapping=\"flights\",op=\"CHASE\"",
            "keys sort, so label order at the call site is irrelevant"
        );
        let tricky = format_labels(&[("m", "a\"b\\c\nd")]);
        assert_eq!(tricky, "m=\"a\\\"b\\\\c\\nd\"");
        assert_eq!(parse_labels(&tricky).unwrap(), vec![("m".into(), "a\"b\\c\nd".into())]);
        let canon = format_labels(&[("b", "2"), ("a", "1")]);
        assert_eq!(parse_labels(&canon).unwrap().len(), 2);
        assert_eq!(parse_labels("").unwrap(), vec![]);
        for bad in ["=\"v\"", "k=v", "k=\"v", "k=\"v\",", "k=\"v\"x"] {
            assert!(parse_labels(bad).is_none(), "must reject {bad:?}");
        }
    }

    #[test]
    fn labeled_series_are_distinct_and_snapshot() {
        labeled_counter("test.metrics.labeled", &[("op", "A"), ("m", "x")]).add(2);
        labeled_counter("test.metrics.labeled", &[("m", "x"), ("op", "A")]).add(3);
        labeled_counter("test.metrics.labeled", &[("op", "B"), ("m", "x")]).inc();
        labeled_histogram("test.metrics.labeled_us", &[("m", "x")]).record(7);
        labeled_gauge("test.metrics.labeled_gauge", &[("m", "x")]).set(9);
        let snap = snapshot();
        assert_eq!(
            snap.labeled_counter("test.metrics.labeled", "m=\"x\",op=\"A\""),
            Some(5),
            "differently-ordered label slices hit the same series"
        );
        assert_eq!(snap.labeled_counter("test.metrics.labeled", "m=\"x\",op=\"B\""), Some(1));
        assert_eq!(
            snap.labeled_histogram("test.metrics.labeled_us", "m=\"x\"").map(|h| h.count),
            Some(1)
        );
        assert_eq!(snap.labeled_gauge("test.metrics.labeled_gauge", "m=\"x\""), Some(9));
        assert!(crate::json::is_valid(&snap.to_json()), "{}", snap.to_json());
        assert!(snap.render().contains("test.metrics.labeled{m=\"x\",op=\"A\"}"));
    }

    #[test]
    fn gauge_levels_move_both_ways_and_saturate() {
        let g = Gauge::default();
        g.set(5);
        g.add(3);
        assert_eq!(g.get(), 8);
        g.sub(6);
        assert_eq!(g.get(), 2);
        g.sub(10);
        assert_eq!(g.get(), 0, "sub saturates at zero");
        let named = gauge("test.metrics.gauge_level");
        named.set(42);
        assert_eq!(snapshot().gauge("test.metrics.gauge_level"), Some(42));
        named.set(41);
        assert_eq!(snapshot().gauge("test.metrics.gauge_level"), Some(41), "last value wins");
    }
}
