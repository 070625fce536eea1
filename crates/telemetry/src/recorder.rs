//! The [`Recorder`] trait: the metric/event sink the simulation layers
//! write into.
//!
//! Instrumented hot paths are generic over `R: Recorder` and guard any
//! work with non-zero cost (wall-clock reads, histogram pushes) behind
//! `R::ENABLED`. [`NullRecorder`] sets `ENABLED = false` and inherits the
//! empty default methods, so the disabled configuration compiles to the
//! uninstrumented loop.

use crate::linear::LinearHistogram;

/// Severity of a telemetry event.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Level {
    /// Informational progress marker.
    Info,
    /// A recoverable anomaly the user should see.
    Warn,
}

impl Level {
    /// The lowercase label used in exports.
    pub fn name(self) -> &'static str {
        match self {
            Level::Info => "info",
            Level::Warn => "warn",
        }
    }
}

impl voltctl_snap::Pack for Level {
    fn pack(&self, w: &mut voltctl_snap::ByteWriter) {
        w.put_u8(match self {
            Level::Info => 0,
            Level::Warn => 1,
        });
    }
}

impl voltctl_snap::Unpack for Level {
    fn unpack(r: &mut voltctl_snap::ByteReader<'_>) -> Result<Self, voltctl_snap::SnapError> {
        match r.get_u8()? {
            0 => Ok(Level::Info),
            1 => Ok(Level::Warn),
            other => Err(voltctl_snap::SnapError::Corrupt(format!(
                "unknown event level {other}"
            ))),
        }
    }
}

/// A pre-resolved handle to one metric name.
///
/// Hot paths that record the same metric millions of times resolve the
/// name to an id once (via [`Recorder::metric_id`], typically at loop
/// setup) and then record through the `*_id` methods, which index flat
/// storage directly instead of re-hashing the name per sample.
///
/// Ids are only meaningful for the recorder that issued them.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq, Hash)]
pub struct MetricId(pub u32);

/// A sink for counters, sampled values, timers, histograms, and events.
///
/// All methods default to no-ops so implementors opt into exactly the
/// channels they aggregate; `ENABLED` lets generic call sites skip
/// argument construction entirely.
///
/// The `*_id` methods are the zero-lookup hot-path variants: callers
/// resolve a [`MetricId`] once with [`metric_id`] and record through it.
/// They also default to no-ops, so implementors that want to observe
/// id-recorded streams (as the closed loop emits) must implement them.
///
/// [`metric_id`]: Recorder::metric_id
pub trait Recorder {
    /// Whether this recorder observes anything at all. Generic hot paths
    /// guard expensive instrumentation (e.g. `Instant::now`) behind this
    /// constant so the disabled case folds away at compile time.
    const ENABLED: bool = true;

    /// Resolves `name` to a stable [`MetricId`] for the `*_id` methods.
    /// The default returns a dummy id (matching the no-op defaults).
    fn metric_id(&mut self, name: &'static str) -> MetricId {
        let _ = name;
        MetricId::default()
    }

    /// Adds `delta` to the monotonic counter `name`.
    fn counter(&mut self, name: &'static str, delta: u64) {
        let _ = (name, delta);
    }

    /// Id-resolved variant of [`counter`](Recorder::counter).
    fn counter_id(&mut self, id: MetricId, delta: u64) {
        let _ = (id, delta);
    }

    /// Records one sample of the value series `name`.
    fn value(&mut self, name: &'static str, sample: f64) {
        let _ = (name, sample);
    }

    /// Id-resolved variant of [`value`](Recorder::value).
    fn value_id(&mut self, id: MetricId, sample: f64) {
        let _ = (id, sample);
    }

    /// Adds `nanos` of wall-clock time to the timer `name`.
    fn timer_ns(&mut self, name: &'static str, nanos: u64) {
        let _ = (name, nanos);
    }

    /// Id-resolved variant of [`timer_ns`](Recorder::timer_ns).
    fn timer_id(&mut self, id: MetricId, nanos: u64) {
        let _ = (id, nanos);
    }

    /// Adds a pre-aggregated histogram into the one stored under `name`
    /// (bin-wise when the shapes match; a different shape replaces it).
    fn histogram(&mut self, name: &'static str, hist: &LinearHistogram) {
        let _ = (name, hist);
    }

    /// Emits a discrete event.
    fn event(&mut self, level: Level, topic: &'static str, message: &str) {
        let _ = (level, topic, message);
    }
}

/// The disabled recorder: drops everything, `ENABLED == false`.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct NullRecorder;

impl Recorder for NullRecorder {
    const ENABLED: bool = false;
}

/// Forwarding so call sites can hand out `&mut R` sub-borrows.
impl<R: Recorder + ?Sized> Recorder for &mut R {
    const ENABLED: bool = R::ENABLED;

    fn metric_id(&mut self, name: &'static str) -> MetricId {
        (**self).metric_id(name)
    }

    fn counter(&mut self, name: &'static str, delta: u64) {
        (**self).counter(name, delta);
    }

    fn counter_id(&mut self, id: MetricId, delta: u64) {
        (**self).counter_id(id, delta);
    }

    fn value(&mut self, name: &'static str, sample: f64) {
        (**self).value(name, sample);
    }

    fn value_id(&mut self, id: MetricId, sample: f64) {
        (**self).value_id(id, sample);
    }

    fn timer_ns(&mut self, name: &'static str, nanos: u64) {
        (**self).timer_ns(name, nanos);
    }

    fn timer_id(&mut self, id: MetricId, nanos: u64) {
        (**self).timer_id(id, nanos);
    }

    fn histogram(&mut self, name: &'static str, hist: &LinearHistogram) {
        (**self).histogram(name, hist);
    }

    fn event(&mut self, level: Level, topic: &'static str, message: &str) {
        (**self).event(level, topic, message);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn enabled_of<R: Recorder>() -> bool {
        R::ENABLED
    }

    #[test]
    fn null_recorder_is_disabled_and_inert() {
        assert!(!enabled_of::<NullRecorder>());
        let mut r = NullRecorder;
        r.counter("a", 1);
        r.value("b", 2.0);
        r.timer_ns("c", 3);
        r.event(Level::Warn, "d", "e");
        let id = r.metric_id("a");
        assert_eq!(id, MetricId::default(), "null ids are dummies");
        r.counter_id(id, 1);
        r.value_id(id, 2.0);
        r.timer_id(id, 3);
        r.histogram("h", &LinearHistogram::new(0.0, 1.0, 1));
    }

    #[test]
    fn mut_ref_forwards_enabled() {
        fn enabled<R: Recorder>(_: &R) -> bool {
            R::ENABLED
        }
        let mut n = NullRecorder;
        assert!(!enabled(&&mut n));
    }
}
