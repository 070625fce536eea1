//! Registry-consistency check: the `voltctl-exp list` rows must be
//! sorted and duplicate-free.

use voltctl_exp::engine::Ctx;
use voltctl_exp::{listing, registry};

#[test]
fn listing_is_sorted_and_duplicate_free() {
    let rows = listing(&Ctx::default());
    assert_eq!(rows.len(), registry().len());
    let ids: Vec<&String> = rows.iter().map(|r| &r[0]).collect();
    let mut sorted = ids.clone();
    sorted.sort();
    sorted.dedup();
    assert_eq!(ids, sorted, "listing must be sorted and duplicate-free");
    for row in &rows {
        assert!(
            row[2].parse::<usize>().map(|n| n > 0).unwrap_or(false),
            "{} has a bad cell count {:?}",
            row[0],
            row[2]
        );
        assert!(
            row[3] == "yes" || row[3] == "-",
            "{} has a bad trace marker {:?}",
            row[0],
            row[3]
        );
        assert!(!row[4].is_empty(), "{} has no title", row[0]);
    }
}
