//! Plain-data views of an aggregated telemetry run.
//!
//! A [`Snapshot`] is what exporters consume: it owns its strings, is
//! cheap to clone, and is decoupled from the recorder that produced it so
//! snapshots can be merged, diffed, or serialized after the simulation
//! state is gone.

use crate::linear::LinearHistogram;

/// One monotonic counter.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct CounterSnapshot {
    /// Metric name (dot-separated, e.g. `loop.cycles_in_low`).
    pub name: String,
    /// Accumulated value.
    pub value: u64,
}

/// Summary statistics of one sampled value series.
#[derive(Debug, Clone, PartialEq)]
pub struct ValueSnapshot {
    /// Metric name.
    pub name: String,
    /// Number of samples.
    pub count: u64,
    /// Sum of samples.
    pub sum: f64,
    /// Smallest sample.
    pub min: f64,
    /// Largest sample.
    pub max: f64,
}

impl ValueSnapshot {
    /// Arithmetic mean (0 when empty).
    pub fn mean(&self) -> f64 {
        if self.count == 0 {
            0.0
        } else {
            self.sum / self.count as f64
        }
    }
}

/// One wall-clock timer.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct TimerSnapshot {
    /// Timer name.
    pub name: String,
    /// Number of recorded spans.
    pub count: u64,
    /// Total nanoseconds across spans.
    pub total_ns: u64,
}

impl TimerSnapshot {
    /// Mean span length in nanoseconds (0 when empty).
    pub fn mean_ns(&self) -> f64 {
        if self.count == 0 {
            0.0
        } else {
            self.total_ns as f64 / self.count as f64
        }
    }
}

/// One named fixed-bin histogram.
#[derive(Debug, Clone, PartialEq)]
pub struct HistogramSnapshot {
    /// Histogram name.
    pub name: String,
    /// The aggregated bins.
    pub histogram: LinearHistogram,
}

/// Everything a recorder aggregated, ready for export.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct Snapshot {
    /// Counters, sorted by name.
    pub counters: Vec<CounterSnapshot>,
    /// Value series, sorted by name.
    pub values: Vec<ValueSnapshot>,
    /// Timers, sorted by name.
    pub timers: Vec<TimerSnapshot>,
    /// Histograms, sorted by name.
    pub histograms: Vec<HistogramSnapshot>,
}

impl Snapshot {
    /// Whether nothing was recorded.
    pub fn is_empty(&self) -> bool {
        self.counters.is_empty()
            && self.values.is_empty()
            && self.timers.is_empty()
            && self.histograms.is_empty()
    }

    /// Looks up a counter by name.
    pub fn counter(&self, name: &str) -> Option<u64> {
        self.counters
            .iter()
            .find(|c| c.name == name)
            .map(|c| c.value)
    }

    /// Looks up a value series by name.
    pub fn value(&self, name: &str) -> Option<&ValueSnapshot> {
        self.values.iter().find(|v| v.name == name)
    }

    /// Looks up a timer by name.
    pub fn timer(&self, name: &str) -> Option<&TimerSnapshot> {
        self.timers.iter().find(|t| t.name == name)
    }

    /// Looks up a histogram by name.
    pub fn histogram(&self, name: &str) -> Option<&LinearHistogram> {
        self.histograms
            .iter()
            .find(|h| h.name == name)
            .map(|h| &h.histogram)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn value_mean_handles_empty() {
        let v = ValueSnapshot {
            name: "x".into(),
            count: 0,
            sum: 0.0,
            min: f64::MAX,
            max: f64::MIN,
        };
        assert_eq!(v.mean(), 0.0);
    }

    #[test]
    fn lookup_by_name() {
        let snap = Snapshot {
            counters: vec![CounterSnapshot {
                name: "a".into(),
                value: 7,
            }],
            ..Default::default()
        };
        assert_eq!(snap.counter("a"), Some(7));
        assert_eq!(snap.counter("b"), None);
        assert!(!snap.is_empty());
        assert!(Snapshot::default().is_empty());
    }
}
