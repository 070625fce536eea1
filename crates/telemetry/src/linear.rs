//! The fixed-range linear histogram: equal-width bins over `[lo, hi)`
//! plus tallies of the samples that fall outside.
//!
//! This is the shape of the paper's Figure 10 supply-voltage
//! distributions, and the one fixed-bin histogram of the workspace: the
//! control loop and trace replay record into it, recorders aggregate it,
//! and snapshots export it. The service-side latency histograms are the
//! log-linear [`registry::Histogram`](crate::registry::Histogram), which
//! covers all of `u64` instead of a fixed range.

use voltctl_snap::{ByteReader, ByteWriter, Pack, SnapError, Unpack};

/// Equal-width bins over `[lo, hi)`, with `under`/`over` counting the
/// samples below `lo` and at or above `hi`.
///
/// The geometry (a finite, non-empty range and at least one bin) is
/// checked once, by [`new`](LinearHistogram::new) and by the decoder, so
/// every histogram in existence can bin a sample.
#[derive(Debug, Clone, PartialEq)]
pub struct LinearHistogram {
    lo: f64,
    hi: f64,
    counts: Vec<u64>,
    under: u64,
    over: u64,
}

/// Why `(lo, hi, bins)` cannot describe a histogram, if it cannot.
fn geometry_error(lo: f64, hi: f64, bins: usize) -> Option<String> {
    let ok = lo.is_finite() && hi.is_finite() && lo < hi && bins > 0;
    (!ok).then(|| format!("histogram geometry invalid: range [{lo}, {hi}), {bins} bin(s)"))
}

impl LinearHistogram {
    /// An empty histogram of `bins` equal bins spanning `[lo, hi)`.
    ///
    /// # Panics
    ///
    /// Panics unless `lo < hi`, both are finite, and `bins > 0`.
    pub fn new(lo: f64, hi: f64, bins: usize) -> LinearHistogram {
        if let Some(e) = geometry_error(lo, hi, bins) {
            panic!("{e}");
        }
        LinearHistogram {
            lo,
            hi,
            counts: vec![0; bins],
            under: 0,
            over: 0,
        }
    }

    /// Records one sample.
    #[inline]
    pub fn record(&mut self, sample: f64) {
        if sample < self.lo {
            self.under += 1;
        } else if sample >= self.hi {
            self.over += 1;
        } else {
            let n = self.counts.len();
            let idx = ((sample - self.lo) / (self.hi - self.lo) * n as f64) as usize;
            self.counts[idx.min(n - 1)] += 1;
        }
    }

    /// Whether `other` has the same range and bin count, so the two can
    /// [`merge`](LinearHistogram::merge).
    pub fn same_shape(&self, other: &LinearHistogram) -> bool {
        self.lo == other.lo && self.hi == other.hi && self.counts.len() == other.counts.len()
    }

    /// Adds `other`'s tallies bin by bin.
    ///
    /// # Panics
    ///
    /// Panics unless the two have the [same shape](LinearHistogram::same_shape).
    pub fn merge(&mut self, other: &LinearHistogram) {
        assert!(self.same_shape(other), "histogram shapes differ");
        for (a, b) in self.counts.iter_mut().zip(&other.counts) {
            *a += b;
        }
        self.under += other.under;
        self.over += other.over;
    }

    /// Lower edge of the first bin.
    pub fn lo(&self) -> f64 {
        self.lo
    }

    /// Upper edge of the last bin (exclusive).
    pub fn hi(&self) -> f64 {
        self.hi
    }

    /// Per-bin counts, ascending.
    pub fn counts(&self) -> &[u64] {
        &self.counts
    }

    /// Samples below `lo`.
    pub fn under(&self) -> u64 {
        self.under
    }

    /// Samples at or above `hi`.
    pub fn over(&self) -> u64 {
        self.over
    }

    /// Every recorded sample, in range or not.
    pub fn total(&self) -> u64 {
        self.counts.iter().sum::<u64>() + self.under + self.over
    }

    /// `(bin_center, count)` for each bin, ascending.
    pub fn centers(&self) -> impl Iterator<Item = (f64, u64)> + '_ {
        let width = (self.hi - self.lo) / self.counts.len() as f64;
        self.counts
            .iter()
            .enumerate()
            .map(move |(i, &c)| (self.lo + width * (i as f64 + 0.5), c))
    }

    /// The standard deviation of the in-range samples, approximated from
    /// bin centers (0 when no sample is in range). A measure of how
    /// "wide" a benchmark's voltage distribution is (ammp narrow, galgel
    /// wide in Fig. 10).
    pub fn spread(&self) -> f64 {
        let in_range = self.counts.iter().sum::<u64>().max(1) as f64;
        let mean: f64 = self.centers().map(|(v, c)| v * (c as f64 / in_range)).sum();
        let var: f64 = self
            .centers()
            .map(|(v, c)| (v - mean).powi(2) * (c as f64 / in_range))
            .sum();
        var.sqrt()
    }
}

impl Pack for LinearHistogram {
    fn pack(&self, w: &mut ByteWriter) {
        w.put_f64(self.lo);
        w.put_f64(self.hi);
        self.counts.pack(w);
        w.put_u64(self.under);
        w.put_u64(self.over);
    }
}

impl Unpack for LinearHistogram {
    fn unpack(r: &mut ByteReader<'_>) -> Result<Self, SnapError> {
        let lo = r.get_f64()?;
        let hi = r.get_f64()?;
        let counts: Vec<u64> = Unpack::unpack(r)?;
        let under = r.get_u64()?;
        let over = r.get_u64()?;
        if let Some(e) = geometry_error(lo, hi, counts.len()) {
            return Err(SnapError::Corrupt(e));
        }
        Ok(LinearHistogram {
            lo,
            hi,
            counts,
            under,
            over,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn bins_and_out_of_range_tallies() {
        let mut h = LinearHistogram::new(0.9, 1.1, 20);
        for v in [0.95, 0.95, 1.05, 0.85, 1.15] {
            h.record(v);
        }
        assert_eq!(h.total(), 5);
        assert_eq!((h.under(), h.over()), (1, 1));
        assert_eq!(h.counts().iter().sum::<u64>(), 3);
    }

    #[test]
    fn edge_samples_go_to_last_bin_or_over() {
        let mut h = LinearHistogram::new(0.0, 1.0, 10);
        h.record(0.0);
        h.record(0.999_999_9);
        assert_eq!((h.counts()[0], h.counts()[9]), (1, 1));
        h.record(1.0);
        assert_eq!(h.over(), 1);
    }

    #[test]
    fn centers_are_midpoints() {
        let mut h = LinearHistogram::new(0.0, 1.0, 2);
        h.record(0.7);
        let c: Vec<(f64, u64)> = h.centers().collect();
        assert!((c[0].0 - 0.25).abs() < 1e-12);
        assert!((c[1].0 - 0.75).abs() < 1e-12);
        assert_eq!((c[0].1, c[1].1), (0, 1));
    }

    #[test]
    fn spread_orders_stable_vs_variable() {
        let mut narrow = LinearHistogram::new(0.90, 1.10, 100);
        let mut wide = narrow.clone();
        for k in 0..1000 {
            narrow.record(1.0 + 0.001 * ((k % 3) as f64 - 1.0));
            wide.record(1.0 + 0.03 * (((k % 7) as f64 - 3.0) / 3.0));
        }
        assert!(wide.spread() > 3.0 * narrow.spread());
    }

    #[test]
    fn spread_ignores_out_of_range_samples() {
        let mut h = LinearHistogram::new(0.90, 1.10, 100);
        h.record(1.0);
        h.record(1.0);
        assert_eq!(h.spread(), 0.0);
        h.record(0.5);
        assert_eq!(
            h.spread(),
            0.0,
            "the under-range sample is not in the distribution"
        );
        assert_eq!(LinearHistogram::new(0.0, 1.0, 4).spread(), 0.0, "empty");
    }

    #[test]
    fn merge_adds_bin_wise() {
        let mut a = LinearHistogram::new(0.0, 1.0, 2);
        let mut b = a.clone();
        a.record(0.1);
        b.record(0.1);
        b.record(0.9);
        b.record(2.0);
        a.merge(&b);
        assert_eq!(a.counts(), &[2, 1]);
        assert_eq!((a.under(), a.over()), (0, 1));
        assert!(!a.same_shape(&LinearHistogram::new(0.0, 1.0, 3)));
        assert!(!a.same_shape(&LinearHistogram::new(0.0, 2.0, 2)));
    }

    #[test]
    #[should_panic(expected = "geometry invalid")]
    fn empty_range_rejected() {
        LinearHistogram::new(1.0, 1.0, 4);
    }

    #[test]
    #[should_panic(expected = "geometry invalid")]
    fn zero_bins_rejected() {
        LinearHistogram::new(0.0, 1.0, 0);
    }

    #[test]
    fn wire_round_trip_and_geometry_check() {
        let mut h = LinearHistogram::new(0.25, 0.75, 3);
        for v in [0.0, 0.3, 0.5, 0.7, 0.75] {
            h.record(v);
        }
        let mut w = ByteWriter::new();
        h.pack(&mut w);
        let bytes = w.into_bytes();
        let mut r = ByteReader::new(&bytes);
        assert_eq!(LinearHistogram::unpack(&mut r).unwrap(), h);
        r.expect_end("histogram").unwrap();

        for (lo, hi, bins) in [(0.0, 1.0, 0), (1.0, 1.0, 2), (f64::NAN, 1.0, 2)] {
            let mut w = ByteWriter::new();
            w.put_f64(lo);
            w.put_f64(hi);
            vec![0u64; bins].pack(&mut w);
            w.put_u64(0);
            w.put_u64(0);
            let bytes = w.into_bytes();
            let got = LinearHistogram::unpack(&mut ByteReader::new(&bytes));
            assert!(
                matches!(got, Err(SnapError::Corrupt(_))),
                "[{lo}, {hi}) x {bins}: {got:?}"
            );
        }
    }
}
