//! Quickstart: close a dI/dt control loop around a program in ~40 lines.
//!
//! Builds the paper's reference machine (Table 1 CPU + Wattch-style power
//! model + 200%-of-target-impedance supply network), solves safe voltage
//! thresholds for a 2-cycle sensor, and runs the auto-tuned dI/dt
//! stressmark with and without the controller.
//!
//! Run with: `cargo run --release --example quickstart`

use voltctl::control::prelude::*;
use voltctl::cpu::CpuConfig;
use voltctl::pdn::PdnModel;
use voltctl::power::{PowerModel, PowerParams};
use voltctl::workloads::stressmark;

fn main() -> Result<(), Box<dyn std::error::Error>> {
    // 1. The machine: power model and calibrated supply network.
    let power = PowerModel::new(PowerParams::paper_3ghz());
    let pdn = calibrated_pdn(&PdnModel::paper_default()?, &power, 2.0)?;
    println!(
        "package: {:.0} MHz resonance, {:.2} mOhm peak (200% of target impedance)",
        pdn.resonant_freq_hz() / 1e6,
        pdn.peak_impedance() * 1e3
    );

    // 2. Solve guaranteed-safe thresholds for a 2-cycle sensor driving the
    //    FU/DL1/IL1 actuator.
    let scope = ActuationScope::FuDl1Il1;
    let setup = SolveSetup::new(
        &pdn,
        power.min_current(),
        power.achievable_peak_current(),
        scope.leverage(&power),
        2,
    );
    let thresholds = solve_thresholds(&setup)?;
    println!(
        "thresholds: gate below {:.3} V, fire above {:.3} V ({:.0} mV window)",
        thresholds.v_low,
        thresholds.v_high,
        thresholds.window_mv()
    );

    // 3. The victim: a dI/dt stressmark tuned to the package resonance.
    let (params, workload) =
        stressmark::tune(pdn.resonant_period_cycles(), &CpuConfig::table1(), &power);
    println!(
        "stressmark: divide chain {}, burst {} ops\n",
        params.divide_chain, params.burst_ops
    );

    // 4. Uncontrolled baseline vs controlled run.
    let mut baseline = ControlLoop::builder(workload.program.clone())
        .power(power.clone())
        .pdn(pdn.clone())
        .build()?;
    baseline.step_n(workload.warmup_cycles + 100_000);
    let base = baseline.report();

    let mut controlled = ControlLoop::builder(workload.program.clone())
        .power(power)
        .pdn(pdn)
        .thresholds(thresholds)
        .scope(scope)
        .sensor(SensorConfig {
            delay_cycles: 2,
            noise_mv: 0.0,
            seed: 42,
        })
        .build()?;
    controlled.step_n(workload.warmup_cycles + 100_000);
    let ctrl = controlled.report();

    println!(
        "uncontrolled: {:>7} emergency cycles, IPC {:.2}",
        base.emergencies.emergency_cycles, base.ipc
    );
    println!(
        "controlled:   {:>7} emergency cycles, IPC {:.2} ({} interventions)",
        ctrl.emergencies.emergency_cycles, ctrl.ipc, ctrl.interventions
    );
    println!(
        "performance cost of safety: {:.1}%",
        (1.0 - ctrl.ipc / base.ipc) * 100.0
    );
    Ok(())
}
