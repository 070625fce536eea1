//! The lane executor's identity contract: a batchable scenario's report
//! is byte-identical whether each cell's lanes are stepped one at a time
//! (the default `run_cell`) or planned across the grid and stepped in
//! shared-CPU work units — at any worker count, so the order in which
//! workers build and step lanes is covered too.
//!
//! `ForceScalar` pins a scenario to the per-loop path by masking
//! `batchable`; the unwrapped scenario takes the lane path whenever
//! telemetry and tracing are off, and the per-loop path with telemetry
//! on.

use voltctl_exp::engine::{run_scenario, CellResult, Ctx, Runtime, Scenario};
use voltctl_exp::scenarios::find;

/// Delegates everything but `batchable`, forcing the per-loop path.
struct ForceScalar<'a>(&'a dyn Scenario);

impl Scenario for ForceScalar<'_> {
    fn id(&self) -> &'static str {
        self.0.id()
    }
    fn title(&self) -> &'static str {
        self.0.title()
    }
    fn runtime(&self) -> Runtime {
        self.0.runtime()
    }
    fn cells(&self, ctx: &Ctx) -> Vec<String> {
        self.0.cells(ctx)
    }
    fn run_cell(&self, ctx: &Ctx, cell: usize) -> CellResult {
        self.0.run_cell(ctx, cell)
    }
    fn render(&self, ctx: &Ctx, cells: &[CellResult]) -> String {
        self.0.render(ctx, cells)
    }
}

fn assert_lane_path_matches_scalar(id: &str) {
    let ctx = Ctx {
        smoke: true,
        ..Ctx::default()
    };
    let scenario = find(id).expect("registered scenario");
    assert!(scenario.batchable(), "{id} must opt into the lane executor");
    let scalar = run_scenario(&ForceScalar(scenario), &ctx, 1);
    for jobs in [1, 2, 3, 8] {
        let lanes = run_scenario(scenario, &ctx, jobs);
        assert_eq!(
            lanes.report, scalar.report,
            "{id}: lane-batched report differs from scalar at --jobs {jobs}"
        );
    }
    let telemetry = Ctx {
        telemetry: true,
        ..ctx
    };
    let recorded = run_scenario(scenario, &telemetry, 2);
    assert_eq!(
        recorded.report, scalar.report,
        "{id}: telemetry report differs from scalar"
    );
    let cycles = recorded.telemetry.snapshot().counter("loop.cycles");
    assert!(
        cycles.is_some_and(|c| c > 0),
        "{id}: telemetry run recorded no loop cycles ({cycles:?})"
    );
}

#[test]
fn fig14_lane_report_matches_scalar() {
    assert_lane_path_matches_scalar("fig14_sensor_delay_perf");
}

#[test]
fn fig15_lane_report_matches_scalar() {
    assert_lane_path_matches_scalar("fig15_sensor_delay_energy");
}

#[test]
fn fig16_lane_report_matches_scalar() {
    assert_lane_path_matches_scalar("fig16_sensor_error");
}

/// Figure 17's grid mixes simulated cells with zero-lane unstable ones
/// (FU-only at delay >= 3): the plan carries their empty lane lists
/// through to the scatter.
#[test]
fn fig17_mixed_grid_lane_report_matches_scalar() {
    assert_lane_path_matches_scalar("fig17_actuator_perf");
}

/// Figure 18 walks Figure 17's grid, zero-lane cells included.
#[test]
fn fig18_mixed_grid_lane_report_matches_scalar() {
    assert_lane_path_matches_scalar("fig18_actuator_energy");
}
