//! Run any assembly program through the full dI/dt stack.
//!
//! Loads a text assembly file (see `voltctl::isa::asm` for the syntax),
//! sets up the standard environment (`r4` points at a seeded data buffer,
//! `f2` = 1.0, `r1` = 1 for `bne r1, <label>` infinite loops), and runs it
//! closed-loop with and without the voltage controller.
//!
//! ```text
//! cargo run --release --example run_asm -- examples/programs/pulse.s [impedance%] [cycles]
//! ```

use voltctl::control::prelude::*;
use voltctl::isa::{asm, FpReg, IntReg, Program, ProgramBuilder};
use voltctl::pdn::PdnModel;
use voltctl::power::{PowerModel, PowerParams};

/// Wraps the user program with the standard environment preamble.
fn with_preamble(user: &Program) -> Program {
    let mut b = ProgramBuilder::new(user.name());
    const BUF: i64 = 0x20_0000;
    b.data_f64(BUF as u64, &[1.0]);
    b.data_f64(BUF as u64 + 16, &[1.0]);
    b.lda(IntReg::R4, IntReg::R31, BUF);
    b.ldt(FpReg::F2, 16, IntReg::R4);
    b.lda(IntReg::R1, IntReg::R31, 1);
    let offset = b.len() as u32;
    for inst in user.insts() {
        let mut inst = *inst;
        if let Some(t) = inst.target {
            inst.target = Some(t + offset);
        }
        b.raw(inst);
    }
    b.build().expect("preamble wrapping preserves validity")
}

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let args: Vec<String> = std::env::args().collect();
    let path = args
        .get(1)
        .map(String::as_str)
        .unwrap_or("examples/programs/pulse.s");
    let impedance: f64 = args.get(2).and_then(|s| s.parse().ok()).unwrap_or(200.0) / 100.0;
    let cycles: u64 = args.get(3).and_then(|s| s.parse().ok()).unwrap_or(100_000);

    let text = std::fs::read_to_string(path)?;
    let user = asm::assemble(path, &text)?;
    let program = with_preamble(&user);
    println!(
        "loaded `{path}`: {} instructions (+5 preamble), {} cycles at {:.0}% impedance\n",
        user.len(),
        cycles,
        impedance * 100.0
    );

    let power = PowerModel::new(PowerParams::paper_3ghz());
    let pdn = calibrated_pdn(&PdnModel::paper_default()?, &power, impedance)?;

    let mut baseline = ControlLoop::builder(program.clone())
        .power(power.clone())
        .pdn(pdn.clone())
        .build()?;
    baseline.step_n(cycles);
    let base = baseline.report();
    println!(
        "uncontrolled: IPC {:.2}, min voltage {:.4} V, emergencies {} cycles ({} events)",
        base.ipc,
        base.emergencies.min_v,
        base.emergencies.emergency_cycles,
        base.emergencies.events()
    );

    let scope = ActuationScope::FuDl1Il1;
    let setup = SolveSetup::new(
        &pdn,
        power.min_current(),
        power.achievable_peak_current(),
        scope.leverage(&power),
        2,
    );
    match solve_thresholds(&setup) {
        Ok(thresholds) => {
            let mut controlled = ControlLoop::builder(program)
                .power(power)
                .pdn(pdn)
                .thresholds(thresholds)
                .scope(scope)
                .sensor(SensorConfig {
                    delay_cycles: 2,
                    noise_mv: 0.0,
                    seed: 1,
                })
                .build()?;
            controlled.step_n(cycles);
            let ctrl = controlled.report();
            println!(
                "controlled:   IPC {:.2}, min voltage {:.4} V, emergencies {} cycles, {} interventions",
                ctrl.ipc,
                ctrl.emergencies.min_v,
                ctrl.emergencies.emergency_cycles,
                ctrl.interventions
            );
            println!(
                "\nthresholds [{:.3}, {:.3}] V; performance cost {:.2}%",
                thresholds.v_low,
                thresholds.v_high,
                (1.0 - ctrl.ipc / base.ipc) * 100.0
            );
        }
        Err(e) => println!("controller infeasible at this design point: {e}"),
    }
    Ok(())
}
