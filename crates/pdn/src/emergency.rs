//! Voltage-emergency detection, counting, and distribution histograms.
//!
//! The paper defines a **voltage emergency** as any excursion of the supply
//! beyond +/-5% of nominal (Section 3.3). [`VoltageMonitor`] consumes a
//! per-cycle voltage stream and tallies emergencies both as discrete
//! *events* (each entry into the forbidden band counts once) and as
//! *cycle counts* (how long the supply stays out of specification), which is
//! what Table 2's "emergency frequency" reports. [`figure10_histogram`] is
//! the empty voltage distribution of Figure 10.

use voltctl_telemetry::LinearHistogram;

/// Classification of a single voltage sample.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum VoltageBand {
    /// Below `v_nominal * (1 - tolerance)` — an undervoltage emergency.
    UnderEmergency,
    /// Within specification.
    Safe,
    /// Above `v_nominal * (1 + tolerance)` — an overvoltage emergency.
    OverEmergency,
}

/// Streaming detector/counter for voltage emergencies.
///
/// # Example
///
/// ```
/// use voltctl_pdn::VoltageMonitor;
///
/// let mut mon = VoltageMonitor::new(1.0, 0.05);
/// for &v in &[1.0, 0.97, 0.94, 0.94, 0.98, 1.06] {
///     mon.observe(v);
/// }
/// let report = mon.report();
/// assert_eq!(report.under_events, 1);
/// assert_eq!(report.over_events, 1);
/// assert_eq!(report.emergency_cycles, 3);
/// assert_eq!(report.total_cycles, 6);
/// ```
#[derive(Debug, Clone)]
pub struct VoltageMonitor {
    v_nominal: f64,
    tolerance: f64,
    total_cycles: u64,
    under_cycles: u64,
    over_cycles: u64,
    under_events: u64,
    over_events: u64,
    min_v: f64,
    max_v: f64,
    last_band: VoltageBand,
}

impl VoltageMonitor {
    /// Creates a monitor for `v_nominal` volts with relative `tolerance`
    /// (0.05 = +/-5%).
    ///
    /// # Panics
    ///
    /// Panics unless `v_nominal > 0` and `0 < tolerance < 1`.
    pub fn new(v_nominal: f64, tolerance: f64) -> Self {
        assert!(v_nominal > 0.0, "v_nominal must be positive");
        assert!(
            tolerance > 0.0 && tolerance < 1.0,
            "tolerance must be in (0, 1)"
        );
        VoltageMonitor {
            v_nominal,
            tolerance,
            total_cycles: 0,
            under_cycles: 0,
            over_cycles: 0,
            under_events: 0,
            over_events: 0,
            min_v: f64::MAX,
            max_v: f64::MIN,
            last_band: VoltageBand::Safe,
        }
    }

    /// The lower emergency threshold in volts.
    pub fn v_low(&self) -> f64 {
        self.v_nominal * (1.0 - self.tolerance)
    }

    /// The upper emergency threshold in volts.
    pub fn v_high(&self) -> f64 {
        self.v_nominal * (1.0 + self.tolerance)
    }

    /// Classifies a voltage without recording it.
    pub fn classify(&self, volts: f64) -> VoltageBand {
        if volts < self.v_low() {
            VoltageBand::UnderEmergency
        } else if volts > self.v_high() {
            VoltageBand::OverEmergency
        } else {
            VoltageBand::Safe
        }
    }

    /// Records one per-cycle voltage sample and returns its band.
    pub fn observe(&mut self, volts: f64) -> VoltageBand {
        let band = self.classify(volts);
        self.total_cycles += 1;
        self.min_v = self.min_v.min(volts);
        self.max_v = self.max_v.max(volts);
        match band {
            VoltageBand::UnderEmergency => {
                self.under_cycles += 1;
                if self.last_band != VoltageBand::UnderEmergency {
                    self.under_events += 1;
                }
            }
            VoltageBand::OverEmergency => {
                self.over_cycles += 1;
                if self.last_band != VoltageBand::OverEmergency {
                    self.over_events += 1;
                }
            }
            VoltageBand::Safe => {}
        }
        self.last_band = band;
        band
    }

    /// Records an entire voltage trace.
    pub fn observe_all(&mut self, volts: &[f64]) {
        for &v in volts {
            self.observe(v);
        }
    }

    /// Produces the accumulated report.
    pub fn report(&self) -> EmergencyReport {
        EmergencyReport {
            total_cycles: self.total_cycles,
            emergency_cycles: self.under_cycles + self.over_cycles,
            under_cycles: self.under_cycles,
            over_cycles: self.over_cycles,
            under_events: self.under_events,
            over_events: self.over_events,
            min_v: if self.total_cycles == 0 {
                f64::NAN
            } else {
                self.min_v
            },
            max_v: if self.total_cycles == 0 {
                f64::NAN
            } else {
                self.max_v
            },
        }
    }

    /// Clears all counters.
    pub fn reset(&mut self) {
        *self = VoltageMonitor::new(self.v_nominal, self.tolerance);
    }
}

impl voltctl_snap::Pack for VoltageBand {
    fn pack(&self, w: &mut voltctl_snap::ByteWriter) {
        w.put_u8(match self {
            VoltageBand::UnderEmergency => 0,
            VoltageBand::Safe => 1,
            VoltageBand::OverEmergency => 2,
        });
    }
}

impl voltctl_snap::Unpack for VoltageBand {
    fn unpack(r: &mut voltctl_snap::ByteReader<'_>) -> Result<Self, voltctl_snap::SnapError> {
        match r.get_u8()? {
            0 => Ok(VoltageBand::UnderEmergency),
            1 => Ok(VoltageBand::Safe),
            2 => Ok(VoltageBand::OverEmergency),
            other => Err(voltctl_snap::SnapError::Corrupt(format!(
                "unknown voltage band {other}"
            ))),
        }
    }
}

impl voltctl_snap::Pack for VoltageMonitor {
    fn pack(&self, w: &mut voltctl_snap::ByteWriter) {
        w.put_f64(self.v_nominal);
        w.put_f64(self.tolerance);
        w.put_u64(self.total_cycles);
        w.put_u64(self.under_cycles);
        w.put_u64(self.over_cycles);
        w.put_u64(self.under_events);
        w.put_u64(self.over_events);
        w.put_f64(self.min_v);
        w.put_f64(self.max_v);
        self.last_band.pack(w);
    }
}

impl voltctl_snap::Unpack for VoltageMonitor {
    fn unpack(r: &mut voltctl_snap::ByteReader<'_>) -> Result<Self, voltctl_snap::SnapError> {
        let v_nominal = r.get_f64()?;
        let tolerance = r.get_f64()?;
        if v_nominal.is_nan()
            || v_nominal <= 0.0
            || tolerance.is_nan()
            || tolerance <= 0.0
            || tolerance >= 1.0
        {
            return Err(voltctl_snap::SnapError::Corrupt(format!(
                "voltage monitor parameters out of range: nominal {v_nominal}, \
                 tolerance {tolerance}"
            )));
        }
        Ok(VoltageMonitor {
            v_nominal,
            tolerance,
            total_cycles: r.get_u64()?,
            under_cycles: r.get_u64()?,
            over_cycles: r.get_u64()?,
            under_events: r.get_u64()?,
            over_events: r.get_u64()?,
            min_v: r.get_f64()?,
            max_v: r.get_f64()?,
            last_band: voltctl_snap::Unpack::unpack(r)?,
        })
    }
}

/// Accumulated emergency statistics for a run.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct EmergencyReport {
    /// Number of observed cycles.
    pub total_cycles: u64,
    /// Cycles spent outside specification (under + over).
    pub emergency_cycles: u64,
    /// Cycles under the low threshold.
    pub under_cycles: u64,
    /// Cycles over the high threshold.
    pub over_cycles: u64,
    /// Discrete undervoltage events (entries into the low band).
    pub under_events: u64,
    /// Discrete overvoltage events (entries into the high band).
    pub over_events: u64,
    /// Minimum voltage seen (NaN when no samples).
    pub min_v: f64,
    /// Maximum voltage seen (NaN when no samples).
    pub max_v: f64,
}

impl EmergencyReport {
    /// Total discrete emergency events.
    pub fn events(&self) -> u64 {
        self.under_events + self.over_events
    }

    /// Whether any emergency occurred.
    pub fn any(&self) -> bool {
        self.emergency_cycles > 0
    }

    /// Fraction of cycles out of specification — Table 2's "emergency
    /// frequency". Zero when no cycles were observed.
    pub fn frequency(&self) -> f64 {
        if self.total_cycles == 0 {
            0.0
        } else {
            self.emergency_cycles as f64 / self.total_cycles as f64
        }
    }

    /// Dumps the report into a telemetry recorder under `pdn.*` names.
    pub fn record_telemetry(&self, rec: &mut impl voltctl_telemetry::Recorder) {
        rec.counter("pdn.observed_cycles", self.total_cycles);
        rec.counter("pdn.emergency_cycles", self.emergency_cycles);
        rec.counter("pdn.under_cycles", self.under_cycles);
        rec.counter("pdn.over_cycles", self.over_cycles);
        rec.counter("pdn.under_events", self.under_events);
        rec.counter("pdn.over_events", self.over_events);
        if self.min_v.is_finite() {
            rec.value("pdn.min_v", self.min_v);
        }
        if self.max_v.is_finite() {
            rec.value("pdn.max_v", self.max_v);
        }
    }
}

/// An empty histogram over Figure 10's range for 1.0 V nominal:
/// [0.90, 1.10) V in 100 bins (2 mV resolution).
pub fn figure10_histogram() -> LinearHistogram {
    LinearHistogram::new(0.90, 1.10, 100)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn classify_bands() {
        let mon = VoltageMonitor::new(1.0, 0.05);
        assert_eq!(mon.classify(1.0), VoltageBand::Safe);
        assert_eq!(mon.classify(0.951), VoltageBand::Safe);
        assert_eq!(mon.classify(0.949), VoltageBand::UnderEmergency);
        assert_eq!(mon.classify(1.049), VoltageBand::Safe);
        assert_eq!(mon.classify(1.051), VoltageBand::OverEmergency);
    }

    #[test]
    fn events_count_entries_not_cycles() {
        let mut mon = VoltageMonitor::new(1.0, 0.05);
        mon.observe_all(&[0.94, 0.94, 0.94, 1.0, 0.94, 1.0]);
        let r = mon.report();
        assert_eq!(r.under_events, 2);
        assert_eq!(r.under_cycles, 4);
        assert_eq!(r.over_events, 0);
    }

    #[test]
    fn transition_under_to_over_counts_both() {
        let mut mon = VoltageMonitor::new(1.0, 0.05);
        mon.observe_all(&[0.90, 1.10]);
        let r = mon.report();
        assert_eq!(r.under_events, 1);
        assert_eq!(r.over_events, 1);
        assert_eq!(r.events(), 2);
    }

    #[test]
    fn frequency_is_fraction_of_cycles() {
        let mut mon = VoltageMonitor::new(1.0, 0.05);
        mon.observe_all(&[1.0, 1.0, 0.90, 1.0]);
        assert!((mon.report().frequency() - 0.25).abs() < 1e-12);
        assert!(mon.report().any());
    }

    #[test]
    fn empty_report_is_clean() {
        let mon = VoltageMonitor::new(1.0, 0.05);
        let r = mon.report();
        assert_eq!(r.frequency(), 0.0);
        assert!(!r.any());
        assert!(r.min_v.is_nan() && r.max_v.is_nan());
    }

    #[test]
    fn reset_clears_counters() {
        let mut mon = VoltageMonitor::new(1.0, 0.05);
        mon.observe(0.9);
        mon.reset();
        assert_eq!(mon.report().total_cycles, 0);
        assert_eq!(mon.report().events(), 0);
    }

    #[test]
    fn min_max_tracked() {
        let mut mon = VoltageMonitor::new(1.0, 0.05);
        mon.observe_all(&[0.98, 1.03, 0.96]);
        let r = mon.report();
        assert_eq!(r.min_v, 0.96);
        assert_eq!(r.max_v, 1.03);
    }
}
