//! The scenario registry: every table and figure of the paper plus the
//! §6 ablations, each as a [`Scenario`](crate::engine::Scenario)
//! implementation over the shared engine.
//!
//! Registry order follows the paper (figures, tables interleaved as in
//! `DESIGN.md` §4) and is the execution order of `voltctl-exp run --all`.

mod ablations;
mod stressmark;
mod suite;
mod sweeps;
mod waveforms;

use crate::engine::Scenario;

/// Every registered scenario, in paper order.
pub fn registry() -> &'static [&'static dyn Scenario] {
    static REGISTRY: &[&dyn Scenario] = &[
        &waveforms::Fig01Itrs,
        &waveforms::Fig02Response,
        &waveforms::Fig03NarrowSpike,
        &waveforms::Fig04WideSpike,
        &waveforms::Fig05NotchedSpike,
        &waveforms::Fig06ResonantTrain,
        &stressmark::Fig08Stressmark,
        &stressmark::Fig09StressmarkVsWorst,
        &suite::Fig10VoltageDistributions,
        &stressmark::Fig11ControllerTrace,
        &suite::Table2Emergencies,
        &sweeps::Table3Thresholds,
        &sweeps::FIG14_SENSOR_DELAY_PERF,
        &sweeps::FIG15_SENSOR_DELAY_ENERGY,
        &sweeps::FIG16_SENSOR_ERROR,
        &sweeps::FIG17_ACTUATOR_PERF,
        &sweeps::FIG18_ACTUATOR_ENERGY,
        &ablations::AblationPid,
        &ablations::AblationGrid,
        &ablations::AblationAsymmetric,
        &ablations::AblationLadder,
    ];
    REGISTRY
}

/// Looks a scenario up by id.
pub fn find(id: &str) -> Option<&'static dyn Scenario> {
    registry().iter().copied().find(|s| s.id() == id)
}

/// The `voltctl-exp list` rows — `[id, runtime, cells, trace, title]` —
/// sorted by id for scanability. The `trace` column marks trace-aware
/// scenarios (`yes`: `run --trace` writes trace artifacts for them).
/// The registry itself stays in paper order (the execution order of
/// `run --all`); only the listing is sorted.
pub fn listing(ctx: &crate::engine::Ctx) -> Vec<[String; 5]> {
    let mut rows: Vec<[String; 5]> = registry()
        .iter()
        .map(|s| {
            [
                s.id().to_string(),
                s.runtime().name().to_string(),
                s.cells(ctx).len().to_string(),
                if s.trace_aware() { "yes" } else { "-" }.to_string(),
                s.title().to_string(),
            ]
        })
        .collect();
    rows.sort_by(|a, b| a[0].cmp(&b[0]));
    rows
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn registry_ids_are_unique_and_findable() {
        let mut seen = std::collections::HashSet::new();
        for s in registry() {
            assert!(seen.insert(s.id()), "duplicate id {}", s.id());
            assert!(find(s.id()).is_some());
            assert!(!s.title().is_empty(), "{} needs a title", s.id());
        }
        assert_eq!(registry().len(), 21);
        assert!(find("not_a_scenario").is_none());
    }

    #[test]
    fn trace_aware_scenarios_are_marked() {
        let traced: Vec<&str> = registry()
            .iter()
            .filter(|s| s.trace_aware())
            .map(|s| s.id())
            .collect();
        assert_eq!(
            traced,
            [
                "fig08_stressmark",
                "fig10_voltage_distributions",
                "fig11_controller_trace"
            ]
        );
        let listing = listing(&crate::engine::Ctx::default());
        for row in &listing {
            let expected = if traced.contains(&row[0].as_str()) {
                "yes"
            } else {
                "-"
            };
            assert_eq!(row[3], expected, "{} trace column", row[0]);
        }
    }

    #[test]
    fn grids_are_nonempty() {
        let ctx = crate::engine::Ctx::default();
        for s in registry() {
            assert!(!s.cells(&ctx).is_empty(), "{} has an empty grid", s.id());
        }
    }
}
