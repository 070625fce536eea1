//! Concurrency oracle for the bounded threshold-solution memo.
//!
//! `solve_for` sits behind a bounded sharded LRU
//! (`voltctl_pdn::ShardedLru`), shared by every daemon worker. Under an
//! 8-thread hammer over a mixed configuration set, every returned solution —
//! thresholds *and* cached infeasibility errors — must equal the
//! single-threaded result for that configuration, and re-solving after
//! churn must reproduce the original solution exactly (the solver is
//! deterministic, so eviction may cost time but never changes answers).

use std::collections::BTreeMap;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Arc;
use voltctl_core::prelude::ActuationScope;
use voltctl_exp::{harness, solve_for};

#[test]
fn eight_thread_hammer_agrees_with_single_threaded_solutions() {
    let configs: Vec<(ActuationScope, u32, f64)> = vec![
        (ActuationScope::Ideal, 2, 2.0),
        (ActuationScope::Ideal, 4, 2.0),
        (ActuationScope::FuDl1, 2, 2.0),
        (ActuationScope::FuDl1Il1, 2, 3.0),
        (ActuationScope::Fu, 2, 2.0),
    ];
    // Single-threaded oracle, solved before any contention.
    let oracle: BTreeMap<usize, _> = configs
        .iter()
        .enumerate()
        .map(|(i, &(scope, delay, percent))| (i, solve_for(scope, delay, percent)))
        .collect();
    let configs = Arc::new(configs);
    let oracle = Arc::new(oracle);

    let mismatches = Arc::new(AtomicUsize::new(0));
    std::thread::scope(|scope_| {
        for thread in 0..8usize {
            let configs = Arc::clone(&configs);
            let oracle = Arc::clone(&oracle);
            let mismatches = Arc::clone(&mismatches);
            scope_.spawn(move || {
                for round in 0..16 {
                    let i = (thread + round) % configs.len();
                    let (scope, delay, percent) = configs[i];
                    if solve_for(scope, delay, percent) != oracle[&i] {
                        mismatches.fetch_add(1, Ordering::Relaxed);
                    }
                }
            });
        }
    });
    assert_eq!(
        mismatches.load(Ordering::Relaxed),
        0,
        "concurrent solves must match the single-threaded oracle"
    );
}

#[test]
fn solutions_survive_eviction_churn_bitwise() {
    let probe = solve_for(ActuationScope::Ideal, 3, 2.0);
    // Push more distinct configurations through than the memo's bound
    // (delays spread across percents), forcing eviction somewhere.
    let percents = [2.0, 2.5, 3.0, 3.5];
    let mut pushed = 0usize;
    'outer: for &percent in &percents {
        for delay in 1..=40u32 {
            let _ = solve_for(ActuationScope::Ideal, delay, percent);
            pushed += 1;
            if pushed > harness::solve_cache_capacity() {
                break 'outer;
            }
        }
    }
    assert_eq!(
        solve_for(ActuationScope::Ideal, 3, 2.0),
        probe,
        "a re-solved configuration must reproduce its original solution"
    );
}
