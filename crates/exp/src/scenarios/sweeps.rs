//! §5 controller sweeps: threshold solving under delay (Table 3) and the
//! sensor/actuator sensitivity studies (Figures 14–18). Each controller
//! configuration (delay, error, scope×delay) is one grid cell, so the
//! full-stack simulations fan out across workers.
//!
//! Figures 14–18 are one [`SensitivitySweep`] type: a cell is the lane
//! list of a baseline/controlled pair per workload at one grid point
//! ([`sweep_batch`]), and each figure supplies only its grid, its row
//! shape and its render.

use std::fmt::Write as _;
use voltctl_core::prelude::ActuationScope;
use voltctl_core::LaneOutcome;

use crate::engine::{BatchLane, CellResult, Ctx, Runtime, Scenario};
use crate::harness::{
    solve_for, sweep_batch, sweep_finish, tuned_stressmark, variable_eight, SweepRow,
};
use crate::report::{pct, TextTable};

/// Table 3: voltage thresholds under sensor delay at 200% impedance.
///
/// Solved with the worst-case plant and an ideal actuator, as in the
/// paper's Simulink flow. Shape targets: the low threshold rises with
/// delay, and the safe window shrinks monotonically (94 mV-class at
/// delay 0 down to the 40 mV class at delay 6).
pub struct Table3Thresholds;

impl Scenario for Table3Thresholds {
    fn id(&self) -> &'static str {
        "table3_thresholds"
    }
    fn title(&self) -> &'static str {
        "thresholds vs sensor delay (ideal actuator)"
    }
    fn runtime(&self) -> Runtime {
        Runtime::Instant
    }
    fn cells(&self, _ctx: &Ctx) -> Vec<String> {
        (0..=6u32).map(|d| format!("delay {d}")).collect()
    }
    fn run_cell(&self, _ctx: &Ctx, cell: usize) -> CellResult {
        let delay = cell as u32;
        let mut out = CellResult::new(format!("delay {delay}"));
        match solve_for(ActuationScope::Ideal, delay, 2.0) {
            Ok(th) => {
                out.value("window_mv", th.window_mv());
                out.row = vec![
                    delay.to_string(),
                    format!("{:.3}", th.v_low),
                    format!("{:.3}", th.v_high),
                    format!("{:.0}", th.window_mv()),
                ];
            }
            Err(e) => {
                out.row = vec![delay.to_string(), "-".into(), "-".into(), format!("{e}")];
            }
        }
        out
    }
    fn render(&self, ctx: &Ctx, cells: &[CellResult]) -> String {
        let mut s = String::new();
        writeln!(
            s,
            "== Table 3: voltage thresholds under sensor delay (200% impedance) ==\n"
        )
        .unwrap();
        let mut t = TextTable::new([
            "delay (cycles)",
            "low threshold (V)",
            "high threshold (V)",
            "safe window (mV)",
        ]);
        let mut prev_window = f64::INFINITY;
        for c in cells {
            if let Some(window) = c.get("window_mv") {
                ctx.check(
                    window <= prev_window + 1e-6,
                    "window must shrink with delay",
                );
                prev_window = window;
            }
            t.row(c.row.clone());
        }
        writeln!(s, "{}", t.render()).unwrap();
        writeln!(
            s,
            "(high side is unconstrained in our worst-case plant — the regulator"
        )
        .unwrap();
        writeln!(
            s,
            " reference sits at the minimum-power point, so overshoot never binds"
        )
        .unwrap();
        writeln!(
            s,
            " before the undershoot controller engages; see EXPERIMENTS.md)"
        )
        .unwrap();
        s
    }
}

/// One point of a sensitivity grid.
#[derive(Debug, Clone, Copy)]
struct SweepPoint {
    scope: ActuationScope,
    delay: u32,
    error_mv: f64,
}

/// The grids of Figures 14–18, each walked in report order.
#[derive(Debug, Clone, Copy)]
enum Grid {
    /// Sensor delay 0..=6, ideal actuator, no error (Figures 14, 15).
    Delay,
    /// Sensor error over [`ERRORS_MV`], ideal actuator, delay 1
    /// (Figure 16).
    Error,
    /// [`SCOPES`] × delays `0..DELAYS_PER_SCOPE`, scope-major, no error
    /// (Figures 17, 18).
    ScopeDelay,
}

const ERRORS_MV: [f64; 5] = [0.0, 10.0, 15.0, 20.0, 25.0];

/// The actuation scopes of Figures 17 and 18, in report order.
const SCOPES: [ActuationScope; 3] = [
    ActuationScope::Fu,
    ActuationScope::FuDl1,
    ActuationScope::FuDl1Il1,
];
const DELAYS_PER_SCOPE: usize = 6;

impl Grid {
    fn len(self) -> usize {
        match self {
            Grid::Delay => 7,
            Grid::Error => ERRORS_MV.len(),
            Grid::ScopeDelay => SCOPES.len() * DELAYS_PER_SCOPE,
        }
    }

    fn point(self, cell: usize) -> SweepPoint {
        let (scope, delay, error_mv) = match self {
            Grid::Delay => (ActuationScope::Ideal, cell as u32, 0.0),
            Grid::Error => (ActuationScope::Ideal, 1, ERRORS_MV[cell]),
            Grid::ScopeDelay => (
                SCOPES[cell / DELAYS_PER_SCOPE],
                (cell % DELAYS_PER_SCOPE) as u32,
                0.0,
            ),
        };
        SweepPoint {
            scope,
            delay,
            error_mv,
        }
    }

    fn label(self, cell: usize) -> String {
        let p = self.point(cell);
        match self {
            Grid::Delay => format!("delay {}", p.delay),
            Grid::Error => format!("{:.0} mV", p.error_mv),
            Grid::ScopeDelay => format!("{} delay {}", p.scope.name(), p.delay),
        }
    }
}

/// A table row from a point and its `SPEC mean` and stressmark rows.
type RowShape = fn(SweepPoint, &SweepRow, &SweepRow) -> Vec<String>;

/// A §5 sensitivity study (Figures 14–18): the variable-eight SPEC
/// subset plus the tuned stressmark, controlled vs. uncontrolled at
/// 200% impedance, at every point of a [`Grid`].
pub struct SensitivitySweep {
    id: &'static str,
    title: &'static str,
    grid: Grid,
    row: RowShape,
    render: fn(&Ctx, &[CellResult]) -> String,
}

impl Scenario for SensitivitySweep {
    fn id(&self) -> &'static str {
        self.id
    }
    fn title(&self) -> &'static str {
        self.title
    }
    fn runtime(&self) -> Runtime {
        Runtime::Minutes
    }
    fn cells(&self, _ctx: &Ctx) -> Vec<String> {
        (0..self.grid.len()).map(|c| self.grid.label(c)).collect()
    }
    fn render(&self, ctx: &Ctx, cells: &[CellResult]) -> String {
        (self.render)(ctx, cells)
    }
    fn batchable(&self) -> bool {
        true
    }
    fn batch_cell(&self, ctx: &Ctx, cell: usize) -> Vec<BatchLane> {
        let p = self.grid.point(cell);
        sweep_batch(
            ctx,
            &variable_eight(),
            &tuned_stressmark(),
            p.scope,
            p.delay,
            p.error_mv,
            2.0,
            ctx.budget(100_000),
        )
    }
    fn finish_batch_cell(&self, _ctx: &Ctx, cell: usize, outcomes: Vec<LaneOutcome>) -> CellResult {
        let p = self.grid.point(cell);
        let rows = sweep_finish(
            &variable_eight(),
            &tuned_stressmark(),
            p.scope,
            p.delay,
            p.error_mv,
            &outcomes,
        );
        let [.., spec, sm] = rows.as_slice() else {
            unreachable!("sweep rows end with the SPEC mean and the stressmark")
        };
        let mut out = CellResult::new(self.grid.label(cell));
        out.row = (self.row)(p, spec, sm);
        out
    }
}

/// Figure 14: impact of sensor delay on performance (ideal actuator).
///
/// The paper's claim: SPEC barely notices the controller at any delay,
/// while the stressmark — contrived to live at the controller's worst
/// case — degrades visibly as delay grows.
pub static FIG14_SENSOR_DELAY_PERF: SensitivitySweep = SensitivitySweep {
    id: "fig14_sensor_delay_perf",
    title: "sensor delay vs performance (ideal actuator)",
    grid: Grid::Delay,
    row: |p, spec, sm| vec![p.delay.to_string(), pct(spec.perf_loss), pct(sm.perf_loss)],
    render: |ctx, cells| {
        let cycles = ctx.budget(100_000);
        let mut s = String::new();
        writeln!(
            s,
            "== Figure 14: sensor delay vs performance (ideal actuator, 200% impedance) =="
        )
        .unwrap();
        writeln!(
            s,
            "   (SPEC subset: the paper's eight variable benchmarks; {cycles} cycles each)\n"
        )
        .unwrap();
        let mut t = TextTable::new(["delay", "SPEC-8 perf loss", "stressmark perf loss"]);
        for c in cells {
            t.row(c.row.clone());
        }
        writeln!(s, "{}", t.render()).unwrap();
        writeln!(
            s,
            "(expected shape: SPEC column ~0%, stressmark grows with delay)"
        )
        .unwrap();
        s
    },
};

/// Figure 15: impact of sensor delay on energy (ideal actuator).
///
/// Energy overhead comes from two sides: stall-induced longer execution
/// (undershoot gating) and phantom-firing power (overshoot response).
/// SPEC stays near zero; the stressmark pays more as delay grows.
pub static FIG15_SENSOR_DELAY_ENERGY: SensitivitySweep = SensitivitySweep {
    id: "fig15_sensor_delay_energy",
    title: "sensor delay vs energy (ideal actuator)",
    grid: Grid::Delay,
    row: |p, spec, sm| {
        vec![
            p.delay.to_string(),
            pct(spec.energy_increase),
            pct(sm.energy_increase),
        ]
    },
    render: |_ctx, cells| {
        let mut s = String::new();
        writeln!(
            s,
            "== Figure 15: sensor delay vs energy (ideal actuator, 200% impedance) ==\n"
        )
        .unwrap();
        let mut t = TextTable::new([
            "delay",
            "SPEC-8 energy increase",
            "stressmark energy increase",
        ]);
        for c in cells {
            t.row(c.row.clone());
        }
        writeln!(s, "{}", t.render()).unwrap();
        writeln!(
            s,
            "(expected shape: SPEC column <1%, stressmark grows with delay)"
        )
        .unwrap();
        s
    },
};

/// Figure 16: impact of sensor error on performance and energy.
///
/// Error is compensated by tightening the thresholds (§4.5), shrinking
/// the operating window: small errors (<15 mV) are nearly free; larger
/// errors cost increasingly more performance and energy.
pub static FIG16_SENSOR_ERROR: SensitivitySweep = SensitivitySweep {
    id: "fig16_sensor_error",
    title: "sensor error vs performance and energy",
    grid: Grid::Error,
    row: |p, spec, sm| {
        vec![
            format!("{:.0}", p.error_mv),
            pct(spec.perf_loss),
            pct(spec.energy_increase),
            pct(sm.perf_loss),
            pct(sm.energy_increase),
        ]
    },
    render: |_ctx, cells| {
        let mut s = String::new();
        writeln!(s, "== Figure 16: sensor error vs performance and energy ==").unwrap();
        writeln!(s, "   (ideal actuator, sensor delay 1, 200% impedance)\n").unwrap();
        let mut t = TextTable::new([
            "error (mV)",
            "SPEC-8 perf loss",
            "SPEC-8 energy",
            "stressmark perf loss",
            "stressmark energy",
        ]);
        for c in cells {
            t.row(c.row.clone());
        }
        writeln!(s, "{}", t.render()).unwrap();
        writeln!(
            s,
            "(expected shape: negligible below ~15 mV, rising beyond)"
        )
        .unwrap();
        s
    },
};

/// Figure 17: actuation granularity vs performance under controller
/// delay.
///
/// FU-only control lacks the leverage to reshape the current quickly:
/// the threshold solver proves it unstable for delays >= 3 (matching
/// §5.2). FU/DL1 and FU/DL1/IL1 hold SPEC losses under ~2% through
/// delay 4-5; the stressmark pays ~6% at delay 0 growing to the ~25%
/// class at 5.
pub static FIG17_ACTUATOR_PERF: SensitivitySweep = SensitivitySweep {
    id: "fig17_actuator_perf",
    title: "actuator granularity vs performance",
    grid: Grid::ScopeDelay,
    row: |p, spec, sm| {
        if spec.unstable {
            vec![
                p.delay.to_string(),
                "UNSTABLE".into(),
                "UNSTABLE".into(),
                "-".into(),
            ]
        } else {
            vec![
                p.delay.to_string(),
                pct(spec.perf_loss),
                pct(sm.perf_loss),
                sm.controlled_emergencies.to_string(),
            ]
        }
    },
    render: |_ctx, cells| {
        let mut s = String::new();
        writeln!(
            s,
            "== Figure 17: actuator granularity vs performance (200% impedance) ==\n"
        )
        .unwrap();
        for (scope, cells) in SCOPES.iter().zip(cells.chunks(DELAYS_PER_SCOPE)) {
            writeln!(s, "-- actuator: {} --", scope.name()).unwrap();
            let mut t = TextTable::new([
                "delay",
                "SPEC-8 perf loss",
                "stressmark perf loss",
                "emergencies left (stressmark)",
            ]);
            for c in cells {
                t.row(c.row.clone());
            }
            writeln!(s, "{}", t.render()).unwrap();
        }
        writeln!(
            s,
            "(expected shape: FU unstable at delay >= 3; FU/DL1 and FU/DL1/IL1"
        )
        .unwrap();
        writeln!(
            s,
            " keep SPEC under ~2% while eliminating the stressmark's emergencies)"
        )
        .unwrap();
        s
    },
};

/// Figure 18: actuation granularity vs energy under controller delay.
///
/// SPEC energy overhead stays under ~1%; the stressmark's grows from
/// the ~5% class at delay 0 toward ~20%+ at delay 5 (paper's §5.3).
pub static FIG18_ACTUATOR_ENERGY: SensitivitySweep = SensitivitySweep {
    id: "fig18_actuator_energy",
    title: "actuator granularity vs energy",
    grid: Grid::ScopeDelay,
    row: |p, spec, sm| {
        if spec.unstable {
            vec![p.delay.to_string(), "UNSTABLE".into(), "UNSTABLE".into()]
        } else {
            vec![
                p.delay.to_string(),
                pct(spec.energy_increase),
                pct(sm.energy_increase),
            ]
        }
    },
    render: |_ctx, cells| {
        let mut s = String::new();
        writeln!(
            s,
            "== Figure 18: actuator granularity vs energy (200% impedance) ==\n"
        )
        .unwrap();
        for (scope, cells) in SCOPES.iter().zip(cells.chunks(DELAYS_PER_SCOPE)) {
            writeln!(s, "-- actuator: {} --", scope.name()).unwrap();
            let mut t = TextTable::new([
                "delay",
                "SPEC-8 energy increase",
                "stressmark energy increase",
            ]);
            for c in cells {
                t.row(c.row.clone());
            }
            writeln!(s, "{}", t.render()).unwrap();
        }
        s
    },
};
