//! Cycle-budget scaling (`--scale`).
//!
//! Every experiment declares its cycle budgets at paper scale; a single
//! multiplicative factor shrinks them for quick passes
//! (`--scale 0.2`) or stretches them for long runs (`--scale 10`).

/// Minimum cycle budget after scaling: below this the simulated
/// transients dominate and the numbers mean nothing.
pub const MIN_CYCLES: u64 = 1_000;

/// Parses a scale factor. Returns `Err` with a human-readable reason
/// for anything that is not a positive finite number.
pub fn parse_scale(raw: &str) -> Result<f64, String> {
    match raw.trim().parse::<f64>() {
        Ok(s) if s.is_finite() && s > 0.0 => Ok(s),
        _ => Err(format!("{raw:?} is not a positive number")),
    }
}

/// Applies a scale factor to a default cycle budget, with the
/// [`MIN_CYCLES`] floor.
pub fn scaled_budget(default_cycles: u64, scale: f64) -> u64 {
    ((default_cycles as f64) * scale).max(MIN_CYCLES as f64) as u64
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn valid_scales_parse() {
        assert_eq!(parse_scale("1"), Ok(1.0));
        assert_eq!(parse_scale(" 0.5 "), Ok(0.5));
        assert_eq!(parse_scale("10"), Ok(10.0));
    }

    #[test]
    fn invalid_scales_report_reason() {
        for bad in ["O.2", "", "-3", "0", "nan", "inf", "fast"] {
            let err = parse_scale(bad).expect_err(bad);
            assert!(err.contains("not a positive number"), "{err}");
        }
    }

    #[test]
    fn budget_scales_with_floor() {
        assert_eq!(scaled_budget(100_000, 1.0), 100_000);
        assert_eq!(scaled_budget(100_000, 0.5), 50_000);
        assert_eq!(scaled_budget(100, 2.0), MIN_CYCLES, "floor applies");
    }
}
