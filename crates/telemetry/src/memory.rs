//! The in-memory aggregating recorder, structure-of-arrays edition.
//!
//! # Hot-path layout
//!
//! Metric names are interned once into a [`MetricId`] (a dense `u32`);
//! every channel is then a flat `Vec` indexed by that id:
//!
//! * counters — `Vec<u64>`, one add per record;
//! * timers — `Vec<(count, total_ns)>`, two adds per record;
//! * value series — a per-metric *pending ring* of raw `f64` samples.
//!   Recording is a bare `Vec::push` into preallocated capacity; the
//!   min/max/sum fold is deferred until the ring fills
//!   ([`PENDING_CHUNK`] samples), the series is merged, or a snapshot
//!   is taken. Samples are always folded in
//!   arrival order, so the deferred aggregation produces bit-identical
//!   `f64` statistics to the old fold-per-sample recorder.
//!
//! The string-keyed [`Recorder`] methods remain (they intern on every
//! call and are fine for run-level flushes); per-cycle call sites
//! resolve ids up front via [`Recorder::metric_id`] and use the `*_id`
//! methods, which cost one bounds-checked index instead of a `BTreeMap`
//! walk per sample.

use crate::linear::LinearHistogram;
use crate::recorder::{Level, MetricId, Recorder};
use crate::snapshot::{CounterSnapshot, HistogramSnapshot, Snapshot, TimerSnapshot, ValueSnapshot};
use std::collections::BTreeMap;

/// Pending-ring capacity per value series: samples buffered before the
/// deferred min/max/sum fold runs. Amortizes the fold to a few
/// tenths of a nanosecond per sample while bounding per-metric memory.
pub const PENDING_CHUNK: usize = 4096;

#[derive(Debug, Clone, Copy)]
struct ValueStat {
    count: u64,
    sum: f64,
    min: f64,
    max: f64,
}

impl ValueStat {
    fn new() -> ValueStat {
        ValueStat {
            count: 0,
            sum: 0.0,
            min: f64::MAX,
            max: f64::MIN,
        }
    }

    fn push(&mut self, sample: f64) {
        self.count += 1;
        self.sum += sample;
        self.min = self.min.min(sample);
        self.max = self.max.max(sample);
    }

    fn merge(&mut self, other: &ValueStat) {
        self.count += other.count;
        self.sum += other.sum;
        self.min = self.min.min(other.min);
        self.max = self.max.max(other.max);
    }
}

/// One value series: the pending sample ring plus the folded statistics.
#[derive(Debug, Clone)]
struct ValueSeries {
    pending: Vec<f64>,
    stat: ValueStat,
}

impl ValueSeries {
    fn new() -> ValueSeries {
        ValueSeries {
            pending: Vec::new(),
            stat: ValueStat::new(),
        }
    }

    #[inline]
    fn push(&mut self, sample: f64) {
        if self.pending.capacity() == 0 {
            self.pending.reserve_exact(PENDING_CHUNK);
        }
        self.pending.push(sample);
        if self.pending.len() >= PENDING_CHUNK {
            self.drain();
        }
    }

    /// Folds the pending ring into the running statistics, in arrival
    /// order.
    fn drain(&mut self) {
        for &sample in &self.pending {
            self.stat.push(sample);
        }
        self.pending.clear();
    }

    /// The folded statistics *as if* the ring were drained, without
    /// mutating (for `&self` snapshots).
    fn effective_stat(&self) -> ValueStat {
        let mut stat = self.stat;
        for &sample in &self.pending {
            stat.push(sample);
        }
        stat
    }
}

/// A recorded discrete event.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct RecordedEvent {
    /// Severity.
    pub level: Level,
    /// Event topic.
    pub topic: &'static str,
    /// Free-form message.
    pub message: String,
}

/// Aggregates counters, value statistics, timers, histograms, and events
/// in memory; the run-end [`Snapshot`] feeds the exporters.
#[derive(Debug, Clone, Default)]
pub struct MemoryRecorder {
    /// `name -> id`; also the sorted iteration order for snapshots.
    index: BTreeMap<&'static str, u32>,
    /// `id -> name`.
    names: Vec<&'static str>,
    /// Counter channel, id-indexed; the parallel `bool` marks slots a
    /// counter was actually recorded into (an interned name does not by
    /// itself create a counter).
    counters: Vec<u64>,
    counters_used: Vec<bool>,
    /// Timer channel, id-indexed `(span count, total ns)`.
    timers: Vec<(u64, u64)>,
    timers_used: Vec<bool>,
    /// Value channel, id-indexed.
    values: Vec<ValueSeries>,
    /// Wholesale pre-aggregated histograms ([`Recorder::histogram`]),
    /// id-indexed.
    histograms: Vec<Option<LinearHistogram>>,
    events: Vec<RecordedEvent>,
    echo_warnings: bool,
}

impl MemoryRecorder {
    /// Creates an empty recorder.
    pub fn new() -> MemoryRecorder {
        MemoryRecorder::default()
    }

    /// Also prints `Warn` events to stderr as they arrive (for long runs
    /// where the summary only appears at the end).
    pub fn echo_warnings(mut self, echo: bool) -> MemoryRecorder {
        self.echo_warnings = echo;
        self
    }

    /// Interns `name`, growing every channel's flat storage in lockstep.
    fn intern(&mut self, name: &'static str) -> u32 {
        if let Some(&id) = self.index.get(name) {
            return id;
        }
        let id = self.names.len() as u32;
        self.index.insert(name, id);
        self.names.push(name);
        self.counters.push(0);
        self.counters_used.push(false);
        self.timers.push((0, 0));
        self.timers_used.push(false);
        self.values.push(ValueSeries::new());
        self.histograms.push(None);
        id
    }

    /// Adds `h` into histogram slot `id`: same-shape histograms add
    /// bin-wise, a different shape replaces.
    fn add_histogram(&mut self, id: usize, h: &LinearHistogram) {
        match &mut self.histograms[id] {
            Some(existing) if existing.same_shape(h) => existing.merge(h),
            slot => *slot = Some(h.clone()),
        }
    }

    /// The events recorded so far, in arrival order.
    pub fn events(&self) -> &[RecordedEvent] {
        &self.events
    }

    /// Folds another recorder's aggregates into this one (counters and
    /// timers add; value stats combine; histograms add bin-wise when the
    /// shapes match, otherwise the other's replaces this one's; events
    /// append).
    pub fn merge(&mut self, other: &MemoryRecorder) {
        // Fold our own pending samples first so the combined sums keep
        // strict arrival order: everything recorded here so far, then the
        // other recorder's totals.
        for series in &mut self.values {
            series.drain();
        }
        for (&name, &oid) in &other.index {
            let oid = oid as usize;
            let id = self.intern(name) as usize;
            if other.counters_used[oid] {
                self.counters[id] += other.counters[oid];
                self.counters_used[id] = true;
            }
            if other.timers_used[oid] {
                self.timers[id].0 += other.timers[oid].0;
                self.timers[id].1 += other.timers[oid].1;
                self.timers_used[id] = true;
            }
            let ostat = other.values[oid].effective_stat();
            if ostat.count > 0 {
                self.values[id].stat.merge(&ostat);
            }
            if let Some(h) = &other.histograms[oid] {
                self.add_histogram(id, h);
            }
        }
        self.events.extend(other.events.iter().cloned());
    }

    /// Produces the plain-data view for export (names sorted).
    pub fn snapshot(&self) -> Snapshot {
        let mut counters = Vec::new();
        let mut values = Vec::new();
        let mut timers = Vec::new();
        let mut histograms = Vec::new();
        for (&name, &id) in &self.index {
            let id = id as usize;
            if self.counters_used[id] {
                counters.push(CounterSnapshot {
                    name: name.to_string(),
                    value: self.counters[id],
                });
            }
            let stat = self.values[id].effective_stat();
            if stat.count > 0 {
                values.push(ValueSnapshot {
                    name: name.to_string(),
                    count: stat.count,
                    sum: stat.sum,
                    min: stat.min,
                    max: stat.max,
                });
            }
            if self.timers_used[id] {
                let (count, total_ns) = self.timers[id];
                timers.push(TimerSnapshot {
                    name: name.to_string(),
                    count,
                    total_ns,
                });
            }
            if let Some(h) = &self.histograms[id] {
                histograms.push(HistogramSnapshot {
                    name: name.to_string(),
                    histogram: h.clone(),
                });
            }
        }
        Snapshot {
            counters,
            values,
            timers,
            histograms,
        }
    }
}

impl voltctl_snap::Pack for ValueStat {
    fn pack(&self, w: &mut voltctl_snap::ByteWriter) {
        w.put_u64(self.count);
        w.put_f64(self.sum);
        w.put_f64(self.min);
        w.put_f64(self.max);
    }
}

impl voltctl_snap::Unpack for ValueStat {
    fn unpack(r: &mut voltctl_snap::ByteReader<'_>) -> Result<Self, voltctl_snap::SnapError> {
        Ok(ValueStat {
            count: r.get_u64()?,
            sum: r.get_f64()?,
            min: r.get_f64()?,
            max: r.get_f64()?,
        })
    }
}

/// A value series is checkpointed with its pending ring pre-folded:
/// samples fold in arrival order either way, so folding at save time
/// and restoring with an empty ring is bitwise-equivalent to never
/// having checkpointed.
impl voltctl_snap::Pack for ValueSeries {
    fn pack(&self, w: &mut voltctl_snap::ByteWriter) {
        voltctl_snap::Pack::pack(&self.effective_stat(), w);
        // The absent tag of the per-series histogram older versions
        // carried, kept so checkpoints keep their layout.
        w.put_u8(0);
    }
}

impl voltctl_snap::Unpack for ValueSeries {
    fn unpack(r: &mut voltctl_snap::ByteReader<'_>) -> Result<Self, voltctl_snap::SnapError> {
        let stat = voltctl_snap::Unpack::unpack(r)?;
        match r.get_u8()? {
            0 => Ok(ValueSeries {
                pending: Vec::new(),
                stat,
            }),
            tag => Err(voltctl_snap::SnapError::Corrupt(format!(
                "value series carries histogram tag {tag}; per-series histograms are not supported"
            ))),
        }
    }
}

impl voltctl_snap::Pack for RecordedEvent {
    fn pack(&self, w: &mut voltctl_snap::ByteWriter) {
        voltctl_snap::Pack::pack(&self.level, w);
        w.put_str(self.topic);
        w.put_str(&self.message);
    }
}

impl voltctl_snap::Unpack for RecordedEvent {
    fn unpack(r: &mut voltctl_snap::ByteReader<'_>) -> Result<Self, voltctl_snap::SnapError> {
        Ok(RecordedEvent {
            level: voltctl_snap::Unpack::unpack(r)?,
            topic: crate::intern::intern_static(&r.get_str()?),
            message: r.get_str()?,
        })
    }
}

impl voltctl_snap::Pack for MemoryRecorder {
    fn pack(&self, w: &mut voltctl_snap::ByteWriter) {
        w.put_usize(self.names.len());
        for name in &self.names {
            w.put_str(name);
        }
        voltctl_snap::Pack::pack(&self.counters, w);
        voltctl_snap::Pack::pack(&self.counters_used, w);
        voltctl_snap::Pack::pack(&self.timers, w);
        voltctl_snap::Pack::pack(&self.timers_used, w);
        voltctl_snap::Pack::pack(&self.values, w);
        voltctl_snap::Pack::pack(&self.histograms, w);
        voltctl_snap::Pack::pack(&self.events, w);
        w.put_bool(self.echo_warnings);
    }
}

impl voltctl_snap::Unpack for MemoryRecorder {
    fn unpack(r: &mut voltctl_snap::ByteReader<'_>) -> Result<Self, voltctl_snap::SnapError> {
        use voltctl_snap::SnapError;
        let n = r.get_count("recorder names")?;
        let mut names: Vec<&'static str> = Vec::with_capacity(n);
        let mut index = BTreeMap::new();
        for id in 0..n {
            let name = crate::intern::intern_static(&r.get_str()?);
            if index.insert(name, id as u32).is_some() {
                return Err(SnapError::Corrupt(format!(
                    "duplicate metric name {name:?} in recorder snapshot"
                )));
            }
            names.push(name);
        }
        let counters: Vec<u64> = voltctl_snap::Unpack::unpack(r)?;
        let counters_used: Vec<bool> = voltctl_snap::Unpack::unpack(r)?;
        let timers: Vec<(u64, u64)> = voltctl_snap::Unpack::unpack(r)?;
        let timers_used: Vec<bool> = voltctl_snap::Unpack::unpack(r)?;
        let values: Vec<ValueSeries> = voltctl_snap::Unpack::unpack(r)?;
        let histograms: Vec<Option<LinearHistogram>> = voltctl_snap::Unpack::unpack(r)?;
        let events: Vec<RecordedEvent> = voltctl_snap::Unpack::unpack(r)?;
        let echo_warnings = r.get_bool()?;
        for (what, len) in [
            ("counters", counters.len()),
            ("counters_used", counters_used.len()),
            ("timers", timers.len()),
            ("timers_used", timers_used.len()),
            ("values", values.len()),
            ("histograms", histograms.len()),
        ] {
            if len != n {
                return Err(SnapError::Corrupt(format!(
                    "recorder channel {what} has {len} slot(s) for {n} name(s)"
                )));
            }
        }
        Ok(MemoryRecorder {
            index,
            names,
            counters,
            counters_used,
            timers,
            timers_used,
            values,
            histograms,
            events,
            echo_warnings,
        })
    }
}

impl Recorder for MemoryRecorder {
    fn metric_id(&mut self, name: &'static str) -> MetricId {
        MetricId(self.intern(name))
    }

    fn counter(&mut self, name: &'static str, delta: u64) {
        let id = self.intern(name);
        self.counter_id(MetricId(id), delta);
    }

    #[inline]
    fn counter_id(&mut self, id: MetricId, delta: u64) {
        let i = id.0 as usize;
        self.counters[i] += delta;
        self.counters_used[i] = true;
    }

    fn value(&mut self, name: &'static str, sample: f64) {
        let id = self.intern(name);
        self.value_id(MetricId(id), sample);
    }

    #[inline]
    fn value_id(&mut self, id: MetricId, sample: f64) {
        self.values[id.0 as usize].push(sample);
    }

    fn timer_ns(&mut self, name: &'static str, nanos: u64) {
        let id = self.intern(name);
        self.timer_id(MetricId(id), nanos);
    }

    #[inline]
    fn timer_id(&mut self, id: MetricId, nanos: u64) {
        let i = id.0 as usize;
        self.timers[i].0 += 1;
        self.timers[i].1 += nanos;
        self.timers_used[i] = true;
    }

    fn histogram(&mut self, name: &'static str, hist: &LinearHistogram) {
        let id = self.intern(name) as usize;
        self.add_histogram(id, hist);
    }

    fn event(&mut self, level: Level, topic: &'static str, message: &str) {
        if self.echo_warnings && level == Level::Warn {
            crate::warn(topic, message);
        }
        self.events.push(RecordedEvent {
            level,
            topic,
            message: message.to_string(),
        });
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn counters_accumulate() {
        let mut r = MemoryRecorder::new();
        r.counter("a", 3);
        r.counter("a", 4);
        r.counter("b", 1);
        let s = r.snapshot();
        assert_eq!(s.counter("a"), Some(7));
        assert_eq!(s.counter("b"), Some(1));
    }

    #[test]
    fn value_stats_track_min_max_mean() {
        let mut r = MemoryRecorder::new();
        for v in [1.0, 2.0, 6.0] {
            r.value("x", v);
        }
        let s = r.snapshot();
        let v = s.value("x").unwrap();
        assert_eq!(v.count, 3);
        assert_eq!(v.min, 1.0);
        assert_eq!(v.max, 6.0);
        assert!((v.mean() - 3.0).abs() < 1e-12);
    }

    #[test]
    fn timers_accumulate_spans() {
        let mut r = MemoryRecorder::new();
        r.timer_ns("t", 100);
        r.timer_ns("t", 300);
        let s = r.snapshot();
        let t = s.timer("t").unwrap();
        assert_eq!(t.count, 2);
        assert_eq!(t.total_ns, 400);
        assert!((t.mean_ns() - 200.0).abs() < 1e-12);
    }

    #[test]
    fn id_path_matches_name_path_exactly() {
        let mut by_name = MemoryRecorder::new();
        let mut by_id = MemoryRecorder::new();
        let v = by_id.metric_id("v");
        let c = by_id.metric_id("c");
        let t = by_id.metric_id("t");
        assert_eq!(by_id.metric_id("v"), v, "interning is idempotent");
        let mut x = 0.9_f64;
        for i in 0..10_000u64 {
            x = (x * 1.3).fract();
            by_name.value("v", x);
            by_name.counter("c", i & 3);
            by_name.timer_ns("t", i);
            by_id.value_id(v, x);
            by_id.counter_id(c, i & 3);
            by_id.timer_id(t, i);
        }
        assert_eq!(by_name.snapshot(), by_id.snapshot());
    }

    #[test]
    fn pending_ring_drains_across_chunk_boundary() {
        let mut r = MemoryRecorder::new();
        let id = r.metric_id("v");
        let n = (PENDING_CHUNK * 2 + 17) as u64;
        for i in 0..n {
            r.value_id(id, i as f64);
        }
        let s = r.snapshot();
        let v = s.value("v").unwrap();
        assert_eq!(v.count, n);
        assert_eq!(v.min, 0.0);
        assert_eq!(v.max, (n - 1) as f64);
        assert_eq!(v.sum, (n * (n - 1) / 2) as f64);
    }

    #[test]
    fn merge_combines_all_channels() {
        let mut a = MemoryRecorder::new();
        a.counter("c", 1);
        a.value("v", 1.0);
        a.timer_ns("t", 10);
        a.event(Level::Info, "e", "one");
        let mut b = MemoryRecorder::new();
        b.counter("c", 2);
        b.value("v", 3.0);
        b.timer_ns("t", 20);
        b.event(Level::Warn, "e", "two");
        a.merge(&b);
        let s = a.snapshot();
        assert_eq!(s.counter("c"), Some(3));
        assert_eq!(s.value("v").unwrap().count, 2);
        assert_eq!(s.timer("t").unwrap().total_ns, 30);
        assert_eq!(a.events().len(), 2);
    }

    #[test]
    fn merge_adds_matching_histograms() {
        let h = |samples: &[f64]| {
            let mut h = LinearHistogram::new(0.0, 1.0, 2);
            for &v in samples {
                h.record(v);
            }
            h
        };
        let mut a = MemoryRecorder::new();
        a.histogram("h", &h(&[0.1, 1.5]));
        let mut b = MemoryRecorder::new();
        b.histogram("h", &h(&[0.1, 0.2, 0.6, 0.7, 0.8, 0.9, 0.95, 1.5]));
        a.merge(&b);
        let s = a.snapshot();
        let got = s.histogram("h").unwrap();
        assert_eq!(got.counts(), &[3, 5]);
        assert_eq!(got.over(), 2);
    }

    #[test]
    fn merge_replaces_a_histogram_of_another_shape() {
        let mut a = MemoryRecorder::new();
        a.histogram("h", &LinearHistogram::new(0.0, 1.0, 2));
        let mut wider = LinearHistogram::new(0.0, 2.0, 2);
        wider.record(1.5);
        let mut b = MemoryRecorder::new();
        b.histogram("h", &wider);
        a.merge(&b);
        assert_eq!(a.snapshot().histogram("h"), Some(&wider));
    }

    #[test]
    fn merge_folds_pending_samples_from_both_sides() {
        let mut a = MemoryRecorder::new();
        let mut b = MemoryRecorder::new();
        let ia = a.metric_id("v");
        let ib = b.metric_id("v");
        for i in 0..100 {
            a.value_id(ia, i as f64 / 100.0);
            b.value_id(ib, i as f64 / 100.0);
        }
        a.merge(&b);
        let s = a.snapshot();
        assert_eq!(s.value("v").unwrap().count, 200, "pending samples survive");
        // `b` itself is untouched.
        assert_eq!(b.snapshot().value("v").unwrap().count, 100);
    }

    #[test]
    fn wire_round_trip_preserves_every_channel_and_future_samples() {
        use voltctl_snap::{ByteReader, ByteWriter, Pack, Unpack};
        let build = |checkpoint_at: usize| -> Snapshot {
            let mut r = MemoryRecorder::new();
            r.histogram("h", &LinearHistogram::new(0.0, 1.0, 8));
            r.counter("c", 5);
            r.timer_ns("t", 111);
            r.event(Level::Warn, "topic", "early");
            // Force the id-interning path so the checkpoint carries an
            // interned metric, not just name-keyed series.
            let _id = r.metric_id("v");
            let mut x = 0.37_f64;
            for i in 0..(PENDING_CHUNK + 99) {
                if i == checkpoint_at {
                    // Detour through the wire format mid-stream.
                    let mut w = ByteWriter::new();
                    r.pack(&mut w);
                    let bytes = w.into_bytes();
                    let mut rd = ByteReader::new(&bytes);
                    r = MemoryRecorder::unpack(&mut rd).unwrap();
                    rd.expect_end("recorder").unwrap();
                }
                x = (x * 1.7 + 0.11).fract();
                r.value("v", x);
            }
            r.counter("c", 2);
            r.event(Level::Info, "topic", "late");
            r.snapshot()
        };
        let straight = build(usize::MAX);
        // Checkpointing mid-pending-ring or at a chunk boundary must be
        // invisible in the final snapshot, bit for bit.
        for at in [0, 17, PENDING_CHUNK] {
            assert_eq!(build(at), straight, "checkpoint at sample {at}");
        }
    }

    #[test]
    fn wire_decode_rejects_mismatched_channel_lengths() {
        use voltctl_snap::{ByteReader, ByteWriter, Pack, Unpack};
        let mut r = MemoryRecorder::new();
        r.counter("a", 1);
        r.counter("b", 2);
        let mut w = ByteWriter::new();
        r.pack(&mut w);
        let mut bytes = w.into_bytes();
        // Claim three names but keep two channels' worth of data.
        assert_eq!(bytes[0], 2, "name count is the leading u64");
        bytes[0] = 1;
        let mut rd = ByteReader::new(&bytes);
        let clean = MemoryRecorder::unpack(&mut rd).is_ok() && rd.finished();
        assert!(!clean, "shrunken name table must not decode cleanly");
    }

    #[test]
    fn repeated_histogram_records_accumulate() {
        let mut r = MemoryRecorder::new();
        let mut h = LinearHistogram::new(0.0, 1.0, 2);
        for v in [-1.0, 0.2, 0.6, 0.7] {
            h.record(v);
        }
        for _ in 0..2 {
            r.histogram("h", &h);
        }
        let s = r.snapshot();
        let h = s.histogram("h").unwrap();
        assert_eq!(h.counts(), &[2, 4]);
        assert_eq!(h.under(), 2);
    }

    #[test]
    fn wire_decode_rejects_zero_bin_histograms() {
        use voltctl_snap::{ByteReader, ByteWriter, Pack, SnapError, Unpack};
        let encode = |h: Option<LinearHistogram>| {
            let mut w = ByteWriter::new();
            h.pack(&mut w);
            w.into_bytes()
        };
        let one_bin = LinearHistogram::new(0.25, 0.75, 1);
        let mut r = MemoryRecorder::new();
        r.histogram("h", &one_bin);
        let mut w = ByteWriter::new();
        r.pack(&mut w);
        let bytes = w.into_bytes();
        // Swap the encoded one-bin histogram for the same one without bins.
        let needle = encode(Some(one_bin));
        let at = bytes
            .windows(needle.len())
            .position(|win| win == needle.as_slice())
            .expect("histogram encoded once");
        let mut w = ByteWriter::new();
        w.put_u8(1);
        w.put_f64(0.25);
        w.put_f64(0.75);
        w.put_usize(0);
        w.put_u64(0);
        w.put_u64(0);
        let bytes = [&bytes[..at], w.as_bytes(), &bytes[at + needle.len()..]].concat();
        let got = MemoryRecorder::unpack(&mut ByteReader::new(&bytes));
        assert!(matches!(got, Err(SnapError::Corrupt(_))), "{got:?}");
    }

    #[test]
    fn wire_decode_rejects_a_value_series_histogram() {
        use voltctl_snap::{ByteReader, ByteWriter, Pack, SnapError, Unpack};
        let mut r = MemoryRecorder::new();
        r.value("v", 0.5);
        let mut w = ByteWriter::new();
        r.pack(&mut w);
        let mut bytes = w.into_bytes();
        // One name, one slot per channel: the value series' tag byte sits
        // right after its 32-byte statistics, which follow the name table
        // and the four counter/timer vectors.
        let mut w = ByteWriter::new();
        w.put_usize(1);
        w.put_str("v");
        vec![0u64].pack(&mut w);
        vec![false].pack(&mut w);
        vec![(0u64, 0u64)].pack(&mut w);
        vec![false].pack(&mut w);
        w.put_usize(1);
        let tag_at = w.into_bytes().len() + 32;
        assert_eq!(bytes[tag_at], 0, "absent tag");
        bytes[tag_at] = 1;
        let got = MemoryRecorder::unpack(&mut ByteReader::new(&bytes));
        assert!(matches!(got, Err(SnapError::Corrupt(_))), "{got:?}");
    }
}
