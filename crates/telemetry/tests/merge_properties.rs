//! Property tests for cross-thread [`MemoryRecorder::merge`].
//!
//! The experiment engine merges per-worker recorders in whatever order
//! cells finish (and then re-merges per-cell recorders in grid order for
//! deterministic reports). For that to be sound, the order-insensitive
//! channels — counters, value-series statistics, timers, and same-shape
//! histogram bins — must be associative and commutative: any merge tree
//! over the same set of recorders must produce the same aggregate.
//!
//! A histogram merge must also agree with recording: any sample
//! sequence recorded into one histogram equals the same sequence split
//! in two, recorded into two histograms, and merged.
//!
//! Every case is generated from the in-tree SplitMix64 RNG, so a failure
//! reproduces from its printed seed.

use voltctl_telemetry::{LinearHistogram, MemoryRecorder, Recorder, Rng, Snapshot};

/// Shared histogram shape: merge is only bin-additive for matching
/// shapes (a mismatched shape intentionally replaces), so the
/// commutativity property is stated over same-shape histograms.
const HIST_LO: f64 = 0.0;
const HIST_HI: f64 = 1.0;
const HIST_BINS: usize = 16;

const COUNTER_NAMES: [&str; 4] = ["c.alpha", "c.beta", "c.gamma", "c.delta"];
const VALUE_NAMES: [&str; 3] = ["v.volt", "v.amp", "v.ipc"];
const TIMER_NAMES: [&str; 2] = ["t.step", "t.solve"];
const HIST_NAMES: [&str; 2] = ["h.voltage", "h.current"];

/// Up to 200 samples, mostly in `[HIST_LO, HIST_HI)`, with some exactly
/// at either edge and some outside the range on both sides.
fn random_samples(rng: &mut Rng) -> Vec<f64> {
    let len = (rng.next_u64() % 200) as usize;
    (0..len)
        .map(|_| match rng.next_u64() % 8 {
            0 => HIST_LO,
            1 => HIST_HI,
            2 => rng.range_f64(HIST_LO - 1.0, HIST_LO),
            3 => rng.range_f64(HIST_HI, HIST_HI + 1.0),
            _ => rng.range_f64(HIST_LO, HIST_HI),
        })
        .collect()
}

/// Builds a recorder with random contents (possibly leaving some
/// channels untouched, so name sets differ between recorders).
fn random_recorder(rng: &mut Rng) -> MemoryRecorder {
    let mut rec = MemoryRecorder::new();
    for name in COUNTER_NAMES {
        if !rng.next_u64().is_multiple_of(4) {
            rec.counter(name, rng.next_u64() % 1000);
        }
    }
    for name in VALUE_NAMES {
        let samples = rng.next_u64() % 8;
        for _ in 0..samples {
            rec.value(name, rng.next_f64() * 200.0 - 100.0);
        }
    }
    for name in TIMER_NAMES {
        if !rng.next_u64().is_multiple_of(3) {
            rec.timer_ns(name, rng.next_u64() % 1_000_000);
        }
    }
    for name in HIST_NAMES {
        if !rng.next_u64().is_multiple_of(3) {
            let mut h = LinearHistogram::new(HIST_LO, HIST_HI, HIST_BINS);
            for v in random_samples(rng) {
                h.record(v);
            }
            rec.histogram(name, &h);
        }
    }
    rec
}

/// Exact equality of the order-insensitive channels. Counter/timer/
/// histogram arithmetic is integral, and value stats add the same f64
/// terms in the same per-name arrival order regardless of the merge
/// tree (each recorder's partial sums are fixed before any merge), so
/// bitwise comparison is the honest check: merge must not introduce
/// any re-association of per-sample floating-point arithmetic.
fn assert_aggregates_equal(a: &Snapshot, b: &Snapshot, what: &str, seed: u64) {
    assert_eq!(
        a.counters, b.counters,
        "{what} counters differ (seed {seed:#x})"
    );
    assert_eq!(a.timers, b.timers, "{what} timers differ (seed {seed:#x})");
    assert_eq!(
        a.histograms, b.histograms,
        "{what} histograms differ (seed {seed:#x})"
    );
    assert_eq!(
        a.values.len(),
        b.values.len(),
        "{what} value-name sets differ (seed {seed:#x})"
    );
    for (va, vb) in a.values.iter().zip(&b.values) {
        assert_eq!(
            va.name, vb.name,
            "{what} value names differ (seed {seed:#x})"
        );
        assert_eq!(
            va.count, vb.count,
            "{what} {}.count (seed {seed:#x})",
            va.name
        );
        assert_eq!(va.min, vb.min, "{what} {}.min (seed {seed:#x})", va.name);
        assert_eq!(va.max, vb.max, "{what} {}.max (seed {seed:#x})", va.name);
        assert!(
            (va.sum - vb.sum).abs() <= 1e-9 * va.sum.abs().max(1.0),
            "{what} {}.sum: {} vs {} (seed {seed:#x})",
            va.name,
            va.sum,
            vb.sum
        );
    }
}

/// Merges `parts` left-to-right in the order given by `perm`.
fn merge_in_order(parts: &[MemoryRecorder], perm: &[usize]) -> MemoryRecorder {
    let mut acc = MemoryRecorder::new();
    for &k in perm {
        acc.merge(&parts[k]);
    }
    acc
}

fn random_permutation(rng: &mut Rng, n: usize) -> Vec<usize> {
    let mut perm: Vec<usize> = (0..n).collect();
    rng.shuffle(&mut perm);
    perm
}

#[test]
fn merge_is_commutative_under_arbitrary_order() {
    let mut rng = Rng::new(0x00b5_ecca_u64);
    for case in 0..40 {
        let seed = rng.next_u64();
        let mut case_rng = Rng::new(seed);
        let n = 2 + (case_rng.next_u64() % 6) as usize;
        let parts: Vec<MemoryRecorder> = (0..n).map(|_| random_recorder(&mut case_rng)).collect();

        let identity: Vec<usize> = (0..n).collect();
        let reference = merge_in_order(&parts, &identity).snapshot();
        for _ in 0..4 {
            let perm = random_permutation(&mut case_rng, n);
            let shuffled = merge_in_order(&parts, &perm).snapshot();
            assert_aggregates_equal(
                &reference,
                &shuffled,
                &format!("case {case} perm {perm:?}"),
                seed,
            );
        }
    }
}

#[test]
fn merge_is_associative_under_arbitrary_grouping() {
    let mut rng = Rng::new(0x000a_550c_1a7e_u64);
    for case in 0..40 {
        let seed = rng.next_u64();
        let mut case_rng = Rng::new(seed);
        let n = 3 + (case_rng.next_u64() % 5) as usize;
        let parts: Vec<MemoryRecorder> = (0..n).map(|_| random_recorder(&mut case_rng)).collect();

        // Flat left fold: ((a ⊕ b) ⊕ c) ⊕ ...
        let identity: Vec<usize> = (0..n).collect();
        let flat = merge_in_order(&parts, &identity).snapshot();

        // Random binary grouping: split at a random point, fold each
        // side flat, then merge the two partial aggregates — the shape
        // the engine produces when workers pre-aggregate their cells.
        let split = 1 + (case_rng.next_u64() as usize) % (n - 1);
        let mut left = merge_in_order(&parts, &identity[..split]);
        let right = merge_in_order(&parts, &identity[split..]);
        left.merge(&right);
        assert_aggregates_equal(
            &flat,
            &left.snapshot(),
            &format!("case {case} split {split}"),
            seed,
        );

        // Deeper tree: pairwise reduction rounds.
        let mut round: Vec<MemoryRecorder> = parts.clone();
        while round.len() > 1 {
            let mut next = Vec::new();
            for pair in round.chunks(2) {
                let mut acc = pair[0].clone();
                if let Some(b) = pair.get(1) {
                    acc.merge(b);
                }
                next.push(acc);
            }
            round = next;
        }
        assert_aggregates_equal(
            &flat,
            &round[0].snapshot(),
            &format!("case {case} pairwise-tree"),
            seed,
        );
    }
}

#[test]
fn merge_identity_is_neutral() {
    let mut rng = Rng::new(0x1d_e417_u64);
    for _ in 0..10 {
        let seed = rng.next_u64();
        let rec = random_recorder(&mut Rng::new(seed));
        let reference = rec.snapshot();

        // empty ⊕ rec == rec ⊕ empty == rec
        let mut left = MemoryRecorder::new();
        left.merge(&rec);
        assert_aggregates_equal(&reference, &left.snapshot(), "left identity", seed);
        let mut right = rec.clone();
        right.merge(&MemoryRecorder::new());
        assert_aggregates_equal(&reference, &right.snapshot(), "right identity", seed);
    }
}

#[test]
fn split_record_then_merge_equals_one_record() {
    let mut rng = Rng::new(0x5b11_7e4e_u64);
    let (mut under, mut over) = (0, 0);
    for _ in 0..64 {
        let seed = rng.next_u64();
        let mut case_rng = Rng::new(seed);
        let samples = random_samples(&mut case_rng);
        let split = (case_rng.next_u64() as usize) % (samples.len() + 1);
        let empty = LinearHistogram::new(HIST_LO, HIST_HI, HIST_BINS);
        let (mut whole, mut left, mut right) = (empty.clone(), empty.clone(), empty);
        for &v in &samples {
            whole.record(v);
        }
        for &v in &samples[..split] {
            left.record(v);
        }
        for &v in &samples[split..] {
            right.record(v);
        }
        left.merge(&right);
        assert_eq!(left.counts(), whole.counts(), "counts (seed {seed:#x})");
        assert_eq!(left.under(), whole.under(), "under (seed {seed:#x})");
        assert_eq!(left.over(), whole.over(), "over (seed {seed:#x})");
        assert_eq!(whole.total(), samples.len() as u64, "seed {seed:#x}");
        under += whole.under();
        over += whole.over();
    }
    assert!(under > 0 && over > 0, "cases must reach past both edges");
}
