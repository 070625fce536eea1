//! Order statistics for run summaries and for `compare`'s pair rule.
//!
//! Quartiles follow Python's `statistics.quantiles(values, n=4)` (the
//! default exclusive method), so the spreads `compare` prints are the
//! ones anyone recomputing them from the run records gets.

/// A copy of `values` in ascending order.
pub fn sorted(values: &[f64]) -> Vec<f64> {
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    v
}

/// Nearest-rank percentile of an ascending sample: the value at rank
/// `ceil(q * n)` (1-based, clamped to `1..=n`). 0 for an empty sample.
pub fn percentile(sorted: &[f64], q: f64) -> f64 {
    if sorted.is_empty() {
        return 0.0;
    }
    let n = sorted.len();
    let rank = ((q * n as f64).ceil() as usize).clamp(1, n);
    sorted[rank - 1]
}

/// The median, averaging the two middle values of an even sample
/// (Python's `statistics.median`). 0 for an empty sample.
pub fn median(values: &[f64]) -> f64 {
    let s = sorted(values);
    let n = s.len();
    match n {
        0 => 0.0,
        _ if n % 2 == 1 => s[n / 2],
        _ => (s[n / 2 - 1] + s[n / 2]) / 2.0,
    }
}

/// First and third quartiles, as `statistics.quantiles(values, n=4)`
/// returns them. Both equal the value for a single sample.
pub fn quartiles(values: &[f64]) -> (f64, f64) {
    let s = sorted(values);
    let n = s.len();
    match n {
        0 => (0.0, 0.0),
        1 => (s[0], s[0]),
        _ => {
            let m = n as i64 + 1;
            let cut = |i: i64| {
                let j = (i * m / 4).clamp(1, n as i64 - 1);
                // Negative near the ends of small samples: Python
                // extrapolates there, and so do we.
                let delta = (i * m - j * 4) as f64;
                let j = j as usize;
                (s[j - 1] * (4.0 - delta) + s[j] * delta) / 4.0
            };
            (cut(1), cut(3))
        }
    }
}

/// The interquartile distance as a share of the median (0 when the
/// median is 0).
pub fn spread(values: &[f64]) -> f64 {
    let (q1, q3) = quartiles(values);
    let med = median(values).abs();
    if med == 0.0 {
        0.0
    } else {
        (q3 - q1) / med
    }
}

/// Which direction of a metric is an improvement.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Better {
    /// Smaller values are better (times, memory).
    Lower,
    /// Larger values are better (throughput).
    Higher,
}

impl Better {
    /// The JSON spelling used by `BENCHMARK.json`.
    pub fn name(self) -> &'static str {
        match self {
            Better::Lower => "lower",
            Better::Higher => "higher",
        }
    }

    /// Maps a value so that smaller always means better.
    fn badness(self, v: f64) -> f64 {
        match self {
            Better::Lower => v,
            Better::Higher => -v,
        }
    }
}

/// The outcome of comparing a change's runs against its parent's.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Verdict {
    /// Won at least 9 of 10 pairs by more than the parent's spread.
    Improved,
    /// Not worse than the parent by more than the bound.
    Within,
    /// Worse than the parent by more than the bound.
    Regression,
    /// The run-to-run spread exceeds the bound, so the data cannot tell.
    Unresolved,
}

impl Verdict {
    /// Display name.
    pub fn name(self) -> &'static str {
        match self {
            Verdict::Improved => "improved",
            Verdict::Within => "within",
            Verdict::Regression => "REGRESSION",
            Verdict::Unresolved => "unresolved",
        }
    }
}

/// The pair rule. Runs are paired by position (`parent[i]` with
/// `change[i]`). The change improved when it wins at least nine tenths of
/// the pairs (ties count for neither side) and the medians differ by more
/// than the parent's interquartile distance.
///
/// Otherwise, when either side's spread exceeds `bound`, the data cannot
/// place a change of `bound` size: the result is a regression when every
/// change run is worse than every parent run by more than `bound`, within
/// when every change run beats every parent run, and unresolved in
/// between. With both spreads inside `bound`, a median worse by more than
/// `bound` (a share of the parent's median) is a regression.
pub fn verdict(parent: &[f64], change: &[f64], better: Better, bound: f64) -> Verdict {
    if parent.is_empty() || change.is_empty() {
        return Verdict::Unresolved;
    }
    let bad = |v: &f64| better.badness(*v);
    let pairs = parent.len().min(change.len());
    let wins = parent
        .iter()
        .zip(change)
        .filter(|(p, c)| bad(c) < bad(p))
        .count();
    let (q1, q3) = quartiles(parent);
    let med_p = median(parent);
    let med_c = median(change);
    let gain = bad(&med_p) - bad(&med_c);
    if wins * 10 >= pairs * 9 && gain > q3 - q1 {
        return Verdict::Improved;
    }
    let margin = bound * med_p.abs();
    if spread(parent) > bound || spread(change) > bound {
        let parent_best = parent.iter().map(bad).fold(f64::INFINITY, f64::min);
        let parent_worst = parent.iter().map(bad).fold(f64::NEG_INFINITY, f64::max);
        let change_best = change.iter().map(bad).fold(f64::INFINITY, f64::min);
        let change_worst = change.iter().map(bad).fold(f64::NEG_INFINITY, f64::max);
        return if change_best > parent_worst + margin {
            Verdict::Regression
        } else if change_worst < parent_best {
            Verdict::Within
        } else {
            Verdict::Unresolved
        };
    }
    if -gain > margin {
        Verdict::Regression
    } else {
        Verdict::Within
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn percentile_is_nearest_rank() {
        let s: Vec<f64> = (1..=100).map(f64::from).collect();
        assert_eq!(percentile(&s, 0.50), 50.0);
        assert_eq!(percentile(&s, 0.99), 99.0);
        assert_eq!(percentile(&s, 1.0), 100.0);
        assert_eq!(percentile(&s, 0.0), 1.0);
        assert_eq!(percentile(&[7.0, 9.0], 0.5), 7.0);
        assert_eq!(percentile(&[], 0.5), 0.0);
    }

    #[test]
    fn median_averages_the_middle_pair() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), 2.5);
        assert_eq!(median(&[]), 0.0);
    }

    #[test]
    fn quartiles_match_python_statistics() {
        // statistics.quantiles(range(1, 11), n=4) == [2.75, 5.5, 8.25]
        let ten: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(quartiles(&ten), (2.75, 8.25));
        // statistics.quantiles([1, 2, 3, 4, 5], n=4) == [1.5, 3.0, 4.5]
        assert_eq!(quartiles(&[5.0, 1.0, 4.0, 2.0, 3.0]), (1.5, 4.5));
        // statistics.quantiles([1, 2], n=4) == [0.75, 1.5, 2.25]
        assert_eq!(quartiles(&[1.0, 2.0]), (0.75, 2.25));
        assert_eq!(quartiles(&[4.0]), (4.0, 4.0));
    }

    #[test]
    fn spread_is_iqr_over_median() {
        let ten: Vec<f64> = (1..=10).map(f64::from).collect();
        assert!((spread(&ten) - 5.5 / 5.5).abs() < 1e-12);
        assert_eq!(spread(&[2.0, 2.0, 2.0]), 0.0);
    }

    fn runs(center: f64, jitter: f64) -> Vec<f64> {
        (0..10)
            .map(|i| center + jitter * ((i % 5) as f64 - 2.0))
            .collect()
    }

    #[test]
    fn clear_gain_is_improved() {
        let parent = runs(100.0, 0.5);
        let change = runs(90.0, 0.5);
        assert_eq!(
            verdict(&parent, &change, Better::Lower, 0.1),
            Verdict::Improved
        );
        // The same numbers read as throughput are a 10% loss: within a
        // 0.1 bound, a regression under a tighter one.
        assert_eq!(
            verdict(&parent, &change, Better::Higher, 0.11),
            Verdict::Within
        );
        assert_eq!(
            verdict(&parent, &change, Better::Higher, 0.05),
            Verdict::Regression
        );
    }

    #[test]
    fn gain_inside_the_parent_spread_is_not_improved() {
        let parent = runs(100.0, 3.0);
        let change = runs(97.0, 3.0);
        assert_eq!(
            verdict(&parent, &change, Better::Lower, 0.1),
            Verdict::Within
        );
    }

    #[test]
    fn losing_pairs_block_an_improvement() {
        // Medians differ but the change wins only 8 of 10 pairs.
        let parent = vec![100.0; 10];
        let mut change = vec![90.0; 10];
        change[0] = 101.0;
        change[1] = 101.0;
        assert_eq!(
            verdict(&parent, &change, Better::Lower, 0.2),
            Verdict::Within
        );
    }

    #[test]
    fn wide_spread_is_unresolved_unless_every_run_is_better() {
        let parent = runs(100.0, 10.0);
        let change = runs(105.0, 10.0);
        assert_eq!(
            verdict(&parent, &change, Better::Lower, 0.1),
            Verdict::Unresolved
        );
        let far_better: Vec<f64> = parent.iter().map(|v| v - 60.0).collect();
        assert_ne!(
            verdict(&parent, &far_better, Better::Lower, 0.1),
            Verdict::Unresolved
        );
    }

    #[test]
    fn much_worse_with_a_wide_spread_never_passes() {
        // Spreads of ~20% against a 0.1 bound; the change is 45% slower.
        let parent = runs(100.0, 10.0);
        let change = runs(145.0, 10.0);
        assert_eq!(
            verdict(&parent, &change, Better::Lower, 0.1),
            Verdict::Unresolved
        );
        // 90% slower: every change run is past every parent run by more
        // than the bound, which the wide spread cannot explain.
        let far_worse: Vec<f64> = parent.iter().map(|v| v + 90.0).collect();
        assert_eq!(
            verdict(&parent, &far_worse, Better::Lower, 0.1),
            Verdict::Regression
        );
        // The same for a higher-is-better metric that halves.
        let halved: Vec<f64> = parent.iter().map(|v| v / 2.0).collect();
        assert_eq!(
            verdict(&parent, &halved, Better::Higher, 0.1),
            Verdict::Regression
        );
    }

    #[test]
    fn empty_sides_are_unresolved() {
        assert_eq!(
            verdict(&[], &[1.0], Better::Lower, 0.1),
            Verdict::Unresolved
        );
    }
}
