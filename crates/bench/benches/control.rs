//! Micro-benchmarks for the control layer: closed-loop simulation
//! throughput (the cost of attaching the controller to the simulator) and
//! the offline worst-case threshold solver.
//!
//! The uncontrolled/controlled pair doubles as the overhead check for the
//! telemetry layer: both run with the default `NullRecorder`, whose
//! instrumentation compiles away, so `controlled` minus `uncontrolled` is
//! the controller's own cost.
//!
//! Runs on the in-tree harness (`voltctl_telemetry::stopwatch::bench`);
//! invoke with `cargo bench --features bench`.

use std::hint::black_box;
use voltctl_bench::{pdn_at, power_model, solve_for};
use voltctl_core::prelude::*;
use voltctl_telemetry::stopwatch::bench;
use voltctl_workloads::spec;

const CYCLES: u64 = 20_000;

fn bench_closed_loop() {
    let wl = spec::by_name("gcc").expect("suite kernel");
    let power = power_model();
    let pdn = pdn_at(2.0);
    let thresholds = solve_for(ActuationScope::FuDl1, 2, 2.0).expect("stable");

    bench("control/closed_loop/uncontrolled_20k", 10, 1, || {
        let mut sim = ControlLoop::builder(wl.program.clone())
            .power(power.clone())
            .pdn(pdn.clone())
            .build()
            .expect("loop builds");
        sim.step_n(CYCLES);
        black_box(sim.report().committed)
    });
    bench("control/closed_loop/controlled_20k", 10, 1, || {
        let mut sim = ControlLoop::builder(wl.program.clone())
            .power(power.clone())
            .pdn(pdn.clone())
            .thresholds(thresholds)
            .scope(ActuationScope::FuDl1)
            .sensor(SensorConfig {
                delay_cycles: 2,
                noise_mv: 10.0,
                seed: 3,
            })
            .build()
            .expect("loop builds");
        sim.step_n(CYCLES);
        black_box(sim.report().committed)
    });
    bench("control/closed_loop/controlled_recorded_20k", 10, 1, || {
        let mut sim = ControlLoop::builder(wl.program.clone())
            .power(power.clone())
            .pdn(pdn.clone())
            .thresholds(thresholds)
            .scope(ActuationScope::FuDl1)
            .sensor(SensorConfig {
                delay_cycles: 2,
                noise_mv: 10.0,
                seed: 3,
            })
            .recorder(voltctl_telemetry::MemoryRecorder::new())
            .build()
            .expect("loop builds");
        sim.step_n(CYCLES);
        sim.finish_telemetry();
        black_box(sim.report().committed)
    });
}

fn bench_solver() {
    let power = power_model();
    let pdn = pdn_at(2.0);
    for delay in [0u32, 4] {
        let setup = SolveSetup::new(
            &pdn,
            power.min_current(),
            power.achievable_peak_current(),
            ActuationScope::FuDl1Il1.leverage(&power),
            delay,
        );
        bench(
            &format!("control/solver/solve_thresholds_delay{delay}"),
            10,
            2,
            || black_box(solve_thresholds(&setup).expect("stable")),
        );
    }
}

fn main() {
    bench_closed_loop();
    bench_solver();
}
