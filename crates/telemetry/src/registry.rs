//! Process-wide live metrics: striped atomic counters, gauges, and
//! log-linear histograms behind a labeled-family registry with
//! Prometheus text exposition.
//!
//! This is the *service health* plane, distinct from
//! [`MemoryRecorder`](crate::MemoryRecorder): the recorder aggregates
//! per-run *simulation* metrics (cycles, voltages, band occupancy) that
//! are merged deterministically and exported once per run, while the
//! registry holds *live* operational state — request counts, latency
//! distributions, queue depth — that any thread updates lock-free and a
//! scraper reads at any moment without quiescing the process.
//!
//! # Design constraints
//!
//! * **Updates are boundary-cost only.** Handles ([`Counter`],
//!   [`Gauge`], [`Histogram`]) are `Arc`s resolved once at setup; the
//!   hot update is one or two relaxed atomic RMWs. Registry lookups
//!   (mutex + map walk) happen only when a handle is first created —
//!   at request/shard boundaries in the serve stack, never inside the
//!   simulation loop.
//! * **Deterministic structure.** Histogram bucket bounds are a pure
//!   function of the bucket index ([`bucket_lo`]/[`bucket_hi`]), so two
//!   processes — or two halves of a merge — always agree on the layout,
//!   and snapshots merge by elementwise addition.
//! * **Bounded cardinality.** Families and label sets are created by
//!   code, not by request contents; the serve layer normalizes routes
//!   to templates before labeling so an adversarial client cannot grow
//!   the exposition.

use std::collections::BTreeMap;
use std::sync::atomic::{AtomicI64, AtomicU64, AtomicUsize, Ordering};
use std::sync::{Arc, Mutex, OnceLock, PoisonError};

/// Stripes per [`Counter`]: enough to keep 8-ish worker threads off each
/// other's cache lines without bloating every counter.
const STRIPES: usize = 8;

/// One cache line per stripe so concurrent increments from different
/// threads do not false-share.
#[repr(align(64))]
#[derive(Debug, Default)]
struct Stripe(AtomicU64);

/// Returns this thread's stripe index (assigned round-robin on first
/// use, stable for the thread's lifetime).
fn stripe_index() -> usize {
    static NEXT: AtomicUsize = AtomicUsize::new(0);
    thread_local! {
        static IDX: usize = NEXT.fetch_add(1, Ordering::Relaxed) % STRIPES;
    }
    IDX.with(|i| *i)
}

/// A monotone counter striped across cache lines. `add` is one relaxed
/// `fetch_add` on the calling thread's stripe; `get` sums the stripes.
#[derive(Debug, Default)]
pub struct Counter {
    stripes: [Stripe; STRIPES],
}

impl Counter {
    /// A fresh zero counter (registry use; tests may hold one directly).
    pub fn new() -> Counter {
        Counter::default()
    }

    /// Increments by 1.
    pub fn inc(&self) {
        self.add(1);
    }

    /// Increments by `n`.
    pub fn add(&self, n: u64) {
        self.stripes[stripe_index()]
            .0
            .fetch_add(n, Ordering::Relaxed);
    }

    /// Current total across stripes.
    pub fn get(&self) -> u64 {
        self.stripes
            .iter()
            .map(|s| s.0.load(Ordering::Relaxed))
            .sum()
    }
}

/// A settable signed gauge (current queue depth, busy workers, …).
#[derive(Debug, Default)]
pub struct Gauge {
    value: AtomicI64,
}

impl Gauge {
    /// A fresh zero gauge.
    pub fn new() -> Gauge {
        Gauge::default()
    }

    /// Sets the gauge.
    pub fn set(&self, v: i64) {
        self.value.store(v, Ordering::Relaxed);
    }

    /// Adds (possibly negative) `delta`.
    pub fn add(&self, delta: i64) {
        self.value.fetch_add(delta, Ordering::Relaxed);
    }

    /// Current value.
    pub fn get(&self) -> i64 {
        self.value.load(Ordering::Relaxed)
    }
}

/// Exact buckets for values `0..LINEAR_BUCKETS`; beyond that, octaves of
/// 4 sub-buckets each.
const LINEAR_BUCKETS: usize = 8;
/// Sub-buckets per power-of-two octave (log-linear resolution: worst
/// relative error within a bucket is 1/4 + a bit).
const SUB_BUCKETS: usize = 4;
/// Total bucket count: 8 exact + 4 per octave for octaves 3..=63.
pub const NUM_BUCKETS: usize = LINEAR_BUCKETS + (64 - 4) * SUB_BUCKETS + SUB_BUCKETS;

/// The bucket index holding `v`. Total over all of `u64`; deterministic
/// by construction (pure bit arithmetic, no floats).
pub fn bucket_of(v: u64) -> usize {
    if v < LINEAR_BUCKETS as u64 {
        return v as usize;
    }
    let msb = 63 - v.leading_zeros() as usize; // >= 3
    let sub = ((v >> (msb - 2)) & (SUB_BUCKETS as u64 - 1)) as usize;
    LINEAR_BUCKETS + (msb - 3) * SUB_BUCKETS + sub
}

/// Smallest value landing in bucket `idx`.
///
/// # Panics
///
/// Panics if `idx >= NUM_BUCKETS`.
pub fn bucket_lo(idx: usize) -> u64 {
    assert!(idx < NUM_BUCKETS, "bucket index {idx} out of range");
    if idx < LINEAR_BUCKETS {
        return idx as u64;
    }
    let octave = (idx - LINEAR_BUCKETS) / SUB_BUCKETS + 3;
    let sub = ((idx - LINEAR_BUCKETS) % SUB_BUCKETS) as u64;
    (1u64 << octave) + sub * (1u64 << (octave - 2))
}

/// Largest value landing in bucket `idx` (inclusive upper bound; the
/// last bucket tops out at `u64::MAX`).
///
/// # Panics
///
/// Panics if `idx >= NUM_BUCKETS`.
pub fn bucket_hi(idx: usize) -> u64 {
    if idx + 1 == NUM_BUCKETS {
        return u64::MAX;
    }
    bucket_lo(idx + 1) - 1
}

/// A log-linear histogram of `u64` observations (latencies in
/// nanoseconds throughout the serve stack). Bucket bounds are fixed at
/// compile time; `observe` is two relaxed atomic adds.
#[derive(Debug)]
pub struct Histogram {
    buckets: Box<[AtomicU64]>,
    sum: AtomicU64,
}

impl Default for Histogram {
    fn default() -> Histogram {
        Histogram::new()
    }
}

impl Histogram {
    /// A fresh empty histogram.
    pub fn new() -> Histogram {
        Histogram {
            buckets: (0..NUM_BUCKETS).map(|_| AtomicU64::new(0)).collect(),
            sum: AtomicU64::new(0),
        }
    }

    /// Records one observation.
    pub fn observe(&self, v: u64) {
        self.buckets[bucket_of(v)].fetch_add(1, Ordering::Relaxed);
        self.sum.fetch_add(v, Ordering::Relaxed);
    }

    /// A point-in-time copy of the bucket counts. (Concurrent observers
    /// may land between the bucket reads; each bucket read is atomic, so
    /// the snapshot is a valid histogram of a *set* of observations even
    /// if it straddles an update.)
    pub fn snapshot(&self) -> HistSnapshot {
        HistSnapshot {
            counts: self
                .buckets
                .iter()
                .map(|b| b.load(Ordering::Relaxed))
                .collect(),
            sum: self.sum.load(Ordering::Relaxed),
        }
    }
}

/// A plain-data copy of a [`Histogram`], mergeable by elementwise
/// addition (commutative and associative, pinned by the property suite).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct HistSnapshot {
    /// Per-bucket observation counts (`NUM_BUCKETS` long).
    pub counts: Vec<u64>,
    /// Sum of all observed values.
    pub sum: u64,
}

impl Default for HistSnapshot {
    fn default() -> HistSnapshot {
        HistSnapshot::empty()
    }
}

impl HistSnapshot {
    /// The zero histogram (merge identity).
    pub fn empty() -> HistSnapshot {
        HistSnapshot {
            counts: vec![0; NUM_BUCKETS],
            sum: 0,
        }
    }

    /// Total observations.
    pub fn count(&self) -> u64 {
        self.counts.iter().sum()
    }

    /// Folds `other` in (elementwise bucket addition). Adds wrap, as
    /// [`Histogram::observe`]'s atomic `fetch_add` does, so debug and
    /// release builds agree.
    pub fn merge(&mut self, other: &HistSnapshot) {
        for (mine, theirs) in self.counts.iter_mut().zip(&other.counts) {
            *mine = mine.wrapping_add(*theirs);
        }
        self.sum = self.sum.wrapping_add(other.sum);
    }

    /// The bucket `(lo, hi)` bounds containing the `q`-quantile
    /// observation (rank `ceil(q * count)`, clamped to `1..=count`).
    /// `None` on an empty histogram.
    pub fn quantile_bounds(&self, q: f64) -> Option<(u64, u64)> {
        let total = self.count();
        if total == 0 {
            return None;
        }
        let rank = ((q * total as f64).ceil() as u64).clamp(1, total);
        let mut seen = 0u64;
        for (idx, &c) in self.counts.iter().enumerate() {
            seen += c;
            if seen >= rank {
                return Some((bucket_lo(idx), bucket_hi(idx)));
            }
        }
        None // unreachable: seen reaches total
    }

    /// The upper bucket bound of the `q`-quantile — the conservative
    /// scalar estimate `top` and the exposition consumers use.
    pub fn quantile(&self, q: f64) -> Option<u64> {
        self.quantile_bounds(q).map(|(_, hi)| hi)
    }
}

/// What a family's series measure (maps to the Prometheus `# TYPE`).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Kind {
    Counter,
    Gauge,
    Histogram,
}

impl Kind {
    fn name(self) -> &'static str {
        match self {
            Kind::Counter => "counter",
            Kind::Gauge => "gauge",
            Kind::Histogram => "histogram",
        }
    }
}

#[derive(Debug)]
enum Series {
    Counter(Arc<Counter>),
    Gauge(Arc<Gauge>),
    Histogram(Arc<Histogram>),
}

#[derive(Debug)]
struct Family {
    help: &'static str,
    kind: Kind,
    /// Keyed by the rendered label string (`route="/jobs",status="200"`;
    /// empty for unlabeled series), so exposition order is
    /// deterministic.
    series: BTreeMap<String, Series>,
}

/// A named, labeled metrics registry.
///
/// Handle creation takes the registry lock; updates through the
/// returned `Arc` handles never do. One process-wide instance lives
/// behind [`Registry::global`]; tests build private ones.
#[derive(Debug, Default)]
pub struct Registry {
    families: Mutex<BTreeMap<&'static str, Family>>,
}

/// Escapes a label value per the Prometheus text format (backslash,
/// double quote, newline).
fn escape_label(v: &str) -> String {
    let mut out = String::with_capacity(v.len());
    for c in v.chars() {
        match c {
            '\\' => out.push_str("\\\\"),
            '"' => out.push_str("\\\""),
            '\n' => out.push_str("\\n"),
            c => out.push(c),
        }
    }
    out
}

/// Renders a label set to its canonical string form.
fn label_key(labels: &[(&str, &str)]) -> String {
    let mut parts: Vec<String> = labels
        .iter()
        .map(|(k, v)| format!("{k}=\"{}\"", escape_label(v)))
        .collect();
    parts.sort();
    parts.join(",")
}

impl Registry {
    /// A fresh private registry (tests; the daemon uses
    /// [`Registry::global`]).
    pub fn new() -> Registry {
        Registry::default()
    }

    /// The process-wide registry.
    pub fn global() -> &'static Registry {
        static GLOBAL: OnceLock<Registry> = OnceLock::new();
        GLOBAL.get_or_init(Registry::new)
    }

    fn lock(&self) -> std::sync::MutexGuard<'_, BTreeMap<&'static str, Family>> {
        // Poison-tolerant: a panicking thread can only have completed or
        // not-completed a map insertion; either state is valid.
        self.families.lock().unwrap_or_else(PoisonError::into_inner)
    }

    fn series<T>(
        &self,
        name: &'static str,
        help: &'static str,
        kind: Kind,
        labels: &[(&str, &str)],
        make: impl FnOnce() -> Series,
        extract: impl FnOnce(&Series) -> Option<Arc<T>>,
    ) -> Arc<T> {
        let mut families = self.lock();
        let family = families.entry(name).or_insert_with(|| Family {
            help,
            kind,
            series: BTreeMap::new(),
        });
        assert!(
            family.kind == kind,
            "metric family {name} registered as {} and re-requested as {}",
            family.kind.name(),
            kind.name()
        );
        let series = family.series.entry(label_key(labels)).or_insert_with(make);
        extract(series).expect("kind checked above")
    }

    /// The counter `name{labels}`, created on first request.
    ///
    /// # Panics
    ///
    /// Panics if `name` is already registered with a different kind.
    pub fn counter(
        &self,
        name: &'static str,
        help: &'static str,
        labels: &[(&str, &str)],
    ) -> Arc<Counter> {
        self.series(
            name,
            help,
            Kind::Counter,
            labels,
            || Series::Counter(Arc::new(Counter::new())),
            |s| match s {
                Series::Counter(c) => Some(Arc::clone(c)),
                _ => None,
            },
        )
    }

    /// The gauge `name{labels}`, created on first request.
    ///
    /// # Panics
    ///
    /// Panics if `name` is already registered with a different kind.
    pub fn gauge(
        &self,
        name: &'static str,
        help: &'static str,
        labels: &[(&str, &str)],
    ) -> Arc<Gauge> {
        self.series(
            name,
            help,
            Kind::Gauge,
            labels,
            || Series::Gauge(Arc::new(Gauge::new())),
            |s| match s {
                Series::Gauge(g) => Some(Arc::clone(g)),
                _ => None,
            },
        )
    }

    /// The histogram `name{labels}`, created on first request.
    ///
    /// # Panics
    ///
    /// Panics if `name` is already registered with a different kind.
    pub fn histogram(
        &self,
        name: &'static str,
        help: &'static str,
        labels: &[(&str, &str)],
    ) -> Arc<Histogram> {
        self.series(
            name,
            help,
            Kind::Histogram,
            labels,
            || Series::Histogram(Arc::new(Histogram::new())),
            |s| match s {
                Series::Histogram(h) => Some(Arc::clone(h)),
                _ => None,
            },
        )
    }

    /// Registered family names, sorted (tests and cardinality gates).
    pub fn family_names(&self) -> Vec<&'static str> {
        self.lock().keys().copied().collect()
    }

    /// Renders the whole registry in Prometheus text exposition format
    /// (version 0.0.4): `# HELP` / `# TYPE` per family, one line per
    /// series, histograms as cumulative `_bucket{le=…}` + `_sum` +
    /// `_count`. Only non-empty buckets are emitted (plus `+Inf`), so
    /// exposition size scales with observed spread, not with
    /// [`NUM_BUCKETS`].
    pub fn render_prometheus(&self) -> String {
        let families = self.lock();
        let mut out = String::new();
        for (name, family) in families.iter() {
            out.push_str(&format!("# HELP {name} {}\n", family.help));
            out.push_str(&format!("# TYPE {name} {}\n", family.kind.name()));
            for (labels, series) in &family.series {
                match series {
                    Series::Counter(c) => {
                        out.push_str(&render_line(name, labels, &[], c.get() as f64));
                    }
                    Series::Gauge(g) => {
                        out.push_str(&render_line(name, labels, &[], g.get() as f64));
                    }
                    Series::Histogram(h) => {
                        let snap = h.snapshot();
                        let mut cumulative = 0u64;
                        for (idx, &count) in snap.counts.iter().enumerate() {
                            if count == 0 {
                                continue;
                            }
                            cumulative += count;
                            let le = format!("{}", bucket_hi(idx));
                            out.push_str(&render_line(
                                &format!("{name}_bucket"),
                                labels,
                                &[("le", &le)],
                                cumulative as f64,
                            ));
                        }
                        out.push_str(&render_line(
                            &format!("{name}_bucket"),
                            labels,
                            &[("le", "+Inf")],
                            cumulative as f64,
                        ));
                        out.push_str(&render_line(
                            &format!("{name}_sum"),
                            labels,
                            &[],
                            snap.sum as f64,
                        ));
                        out.push_str(&render_line(
                            &format!("{name}_count"),
                            labels,
                            &[],
                            cumulative as f64,
                        ));
                    }
                }
            }
        }
        out
    }
}

/// One exposition line: `name{labels,extra} value`.
fn render_line(name: &str, labels: &str, extra: &[(&str, &str)], value: f64) -> String {
    let mut all = String::from(labels);
    for (k, v) in extra {
        if !all.is_empty() {
            all.push(',');
        }
        all.push_str(&format!("{k}=\"{}\"", escape_label(v)));
    }
    let value = if value.fract() == 0.0 && value.abs() < 1e15 {
        format!("{}", value as i64)
    } else {
        format!("{value}")
    };
    if all.is_empty() {
        format!("{name} {value}\n")
    } else {
        format!("{name}{{{all}}} {value}\n")
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn bucket_bounds_partition_u64() {
        // Every bucket's hi + 1 is the next bucket's lo; bucket_of maps
        // both endpoints back to the bucket.
        for idx in 0..NUM_BUCKETS {
            let (lo, hi) = (bucket_lo(idx), bucket_hi(idx));
            assert!(lo <= hi, "bucket {idx}: lo {lo} > hi {hi}");
            assert_eq!(bucket_of(lo), idx, "lo of bucket {idx}");
            assert_eq!(bucket_of(hi), idx, "hi of bucket {idx}");
            if idx + 1 < NUM_BUCKETS {
                assert_eq!(bucket_lo(idx + 1), hi + 1, "gap after bucket {idx}");
            } else {
                assert_eq!(hi, u64::MAX);
            }
        }
        assert_eq!(bucket_of(0), 0);
        assert_eq!(bucket_of(u64::MAX), NUM_BUCKETS - 1);
    }

    #[test]
    fn counter_sums_across_stripes_and_threads() {
        let c = Arc::new(Counter::new());
        std::thread::scope(|scope| {
            for _ in 0..8 {
                let c = Arc::clone(&c);
                scope.spawn(move || {
                    for _ in 0..1000 {
                        c.inc();
                    }
                });
            }
        });
        assert_eq!(c.get(), 8000);
    }

    #[test]
    fn gauge_set_add_get() {
        let g = Gauge::new();
        g.set(5);
        g.add(-2);
        assert_eq!(g.get(), 3);
    }

    #[test]
    fn histogram_quantiles_are_bucket_bounded() {
        let h = Histogram::new();
        for v in 1..=1000u64 {
            h.observe(v);
        }
        let snap = h.snapshot();
        assert_eq!(snap.count(), 1000);
        assert_eq!(snap.sum, 500500);
        let (lo, hi) = snap.quantile_bounds(0.5).unwrap();
        assert!(lo <= 500 && 500 <= hi, "p50 bucket [{lo},{hi}] misses 500");
        let (lo, hi) = snap.quantile_bounds(0.99).unwrap();
        assert!(lo <= 990 && 990 <= hi, "p99 bucket [{lo},{hi}] misses 990");
        assert!(HistSnapshot::empty().quantile(0.5).is_none());
    }

    #[test]
    fn snapshot_merge_matches_combined_observation() {
        let (a, b) = (Histogram::new(), Histogram::new());
        let combined = Histogram::new();
        for v in [0u64, 1, 7, 8, 100, 1_000_000, u64::MAX] {
            a.observe(v);
            combined.observe(v);
        }
        for v in [3u64, 8, 255, 1 << 40] {
            b.observe(v);
            combined.observe(v);
        }
        let mut merged = a.snapshot();
        merged.merge(&b.snapshot());
        assert_eq!(merged, combined.snapshot());
    }

    #[test]
    fn registry_renders_prometheus_text() {
        let reg = Registry::new();
        reg.counter("test_requests_total", "requests", &[("route", "/x")])
            .add(3);
        reg.gauge("test_depth", "queue depth", &[]).set(7);
        reg.histogram("test_latency_ns", "latency", &[])
            .observe(100);
        let text = reg.render_prometheus();
        assert!(text.contains("# TYPE test_requests_total counter"));
        assert!(text.contains("test_requests_total{route=\"/x\"} 3"));
        assert!(text.contains("# TYPE test_depth gauge"));
        assert!(text.contains("test_depth 7"));
        assert!(text.contains("# TYPE test_latency_ns histogram"));
        assert!(text.contains("test_latency_ns_bucket{le=\"+Inf\"} 1"));
        assert!(text.contains("test_latency_ns_sum 100"));
        assert!(text.contains("test_latency_ns_count 1"));
        assert_eq!(
            reg.family_names(),
            vec!["test_depth", "test_latency_ns", "test_requests_total"]
        );
    }

    #[test]
    fn same_handle_is_returned_for_same_series() {
        let reg = Registry::new();
        let a = reg.counter("test_total", "t", &[("k", "v")]);
        let b = reg.counter("test_total", "t", &[("k", "v")]);
        a.inc();
        assert_eq!(b.get(), 1);
        assert!(Arc::ptr_eq(&a, &b));
    }

    #[test]
    #[should_panic(expected = "registered as counter")]
    fn kind_mismatch_panics() {
        let reg = Registry::new();
        reg.counter("test_kind", "t", &[]);
        reg.gauge("test_kind", "t", &[]);
    }
}
