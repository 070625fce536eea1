//! Differential oracle for the lane path: bitwise identity between
//! [`LaneLoop`] lockstep execution and the scalar [`ControlLoop`], the
//! hard contract `crates/core/src/lane.rs` promises.
//!
//! Random grids of per-lane configurations (controlled/uncontrolled,
//! tight/loose thresholds, sensor delay and noise, symmetric and
//! asymmetric actuation scopes, mixed programs, uneven budgets, exact
//! duplicate lanes) are run at lane widths 1, 4, 8, and 9 — one past
//! the widest regular group, so a ragged tail lane is always exercised —
//! and every lane, duplicates included, must agree with its scalar twin
//! on the run report, the architectural digest, every per-cycle trace
//! sample, the snapshot bytes and the continuation after scatter, to
//! the bit. A second property drives the mid-run checkpoint contract:
//! lane → `save_lane` → scalar restore → re-gather must continue
//! bit-for-bit, so `--shards`/`--resume` cannot tell the paths apart.

use voltctl_check::{check, ensure, ensure_eq, usize_in, Config};
use voltctl_core::actuator::{ActuationScope, AsymmetricActuator};
use voltctl_core::calibrate::calibrated_pdn;
use voltctl_core::loopsim::LoopSample;
use voltctl_core::prelude::*;
use voltctl_core::sensor::SensorConfig;
use voltctl_core::LaneLoop;
use voltctl_isa::builder::ProgramBuilder;
use voltctl_isa::reg::IntReg;
use voltctl_pdn::PdnModel;
use voltctl_power::{PowerModel, PowerParams};
use voltctl_telemetry::Rng;

/// The tested lane widths: singleton, two regular groups, and a ragged
/// tail one past width 8.
const WIDTHS: [usize; 4] = [1, 4, 8, 9];

/// A steady high-activity spin: the supply dips hard, so tight
/// thresholds intervene and controlled lanes diverge from the group.
fn spin_program() -> voltctl_isa::Program {
    let mut b = ProgramBuilder::new("oracle-spin");
    b.label("top");
    b.addq_imm(IntReg::R1, IntReg::R1, 1);
    b.br("top");
    b.build().unwrap()
}

/// A mixed ALU loop with a different activity profile, so grids hold
/// lanes that can never share a CPU with the spin lanes.
fn mix_program() -> voltctl_isa::Program {
    let mut b = ProgramBuilder::new("oracle-mix");
    b.label("top");
    b.addq_imm(IntReg::R1, IntReg::R1, 3);
    b.mulq_imm(IntReg::R2, IntReg::R1, 5);
    b.xor(IntReg::R3, IntReg::R2, IntReg::R1);
    b.srl_imm(IntReg::R4, IntReg::R3, 2);
    b.br("top");
    b.build().unwrap()
}

/// One lane's randomized configuration, drawn from a seeded [`Rng`] so
/// the whole grid reproduces from a single case seed.
#[derive(Debug, Clone)]
struct LaneConfig {
    mix: bool,
    thresholds: Option<Thresholds>,
    delay: u32,
    noise_mv: f64,
    budget: u64,
    actuator: AsymmetricActuator,
}

impl LaneConfig {
    fn draw(rng: &mut Rng) -> LaneConfig {
        // The tight 1 mV window rejects any meaningful sensor noise
        // (the builder calls it Infeasible), so noise only pairs with
        // the loose band or no thresholds at all.
        let (thresholds, tight) = match rng.next_u64() % 3 {
            0 => (None, false),
            1 => (
                Some(Thresholds {
                    v_low: 0.955,
                    v_high: 1.045,
                }),
                false,
            ),
            _ => (
                Some(Thresholds {
                    v_low: 0.9995,
                    v_high: 1.0005,
                }),
                true,
            ),
        };
        LaneConfig {
            mix: rng.next_bool(),
            thresholds,
            delay: (rng.next_u64() % 4) as u32,
            noise_mv: if !tight && rng.next_bool() { 10.0 } else { 0.0 },
            budget: 300 + rng.next_u64() % 900,
            actuator: draw_actuator(rng),
        }
    }

    fn build(&self, pdn: &PdnModel, power: &PowerModel) -> ControlLoop {
        let program = if self.mix {
            mix_program()
        } else {
            spin_program()
        };
        let mut b = ControlLoop::builder(program)
            .power(power.clone())
            .pdn(pdn.clone())
            .record_trace(true)
            .actuator(self.actuator)
            .sensor(SensorConfig {
                delay_cycles: self.delay,
                noise_mv: self.noise_mv,
                seed: 0xd1d7,
            });
        if let Some(t) = self.thresholds {
            b = b.thresholds(t);
        }
        b.build().unwrap()
    }

    fn restore(&self, pdn: &PdnModel, power: &PowerModel, bytes: &[u8]) -> ControlLoop {
        let program = if self.mix {
            mix_program()
        } else {
            spin_program()
        };
        let mut b = ControlLoop::builder(program)
            .power(power.clone())
            .pdn(pdn.clone())
            .record_trace(true)
            .actuator(self.actuator)
            .sensor(SensorConfig {
                delay_cycles: self.delay,
                noise_mv: self.noise_mv,
                seed: 0xd1d7,
            });
        if let Some(t) = self.thresholds {
            b = b.thresholds(t);
        }
        b.restore(bytes).unwrap()
    }
}

/// One of the four symmetric scopes, or (one draw in five) an
/// asymmetric actuator whose reduce and increase scopes differ, so the
/// lanes' gating masks cover every scope on both responses.
fn draw_actuator(rng: &mut Rng) -> AsymmetricActuator {
    let scopes = ActuationScope::all();
    match rng.next_u64() % 5 {
        k @ 0..=3 => AsymmetricActuator::symmetric(scopes[k as usize]),
        _ => {
            let reduce = (rng.next_u64() % 4) as usize;
            let increase = (reduce + 1 + (rng.next_u64() % 3) as usize) % 4;
            AsymmetricActuator {
                reduce: scopes[reduce],
                increase: scopes[increase],
            }
        }
    }
}

/// A random grid in which about one lane in three repeats an earlier
/// lane exactly (configuration and budget), as a sweep's uncontrolled
/// baselines do, so `gather` makes it an alias.
fn grid(seed: u64, width: usize) -> Vec<LaneConfig> {
    let mut rng = Rng::new(seed ^ 0xa5a5_5a5a);
    let mut configs: Vec<LaneConfig> = Vec::with_capacity(width);
    for _ in 0..width {
        let config = if !configs.is_empty() && rng.next_u64().is_multiple_of(3) {
            configs[(rng.next_u64() % configs.len() as u64) as usize].clone()
        } else {
            LaneConfig::draw(&mut rng)
        };
        configs.push(config);
    }
    configs
}

fn sample_bits_equal(a: &LoopSample, b: &LoopSample) -> bool {
    a.current.to_bits() == b.current.to_bits()
        && a.voltage.to_bits() == b.voltage.to_bits()
        && a.reducing == b.reducing
        && a.increasing == b.increasing
}

/// Lane execution agrees bitwise with scalar execution — reports,
/// architectural digests, and every trace sample — for random grids at
/// every tested width.
#[test]
fn lanes_match_scalar_bitwise_over_random_grids() {
    let power = PowerModel::new(PowerParams::paper_3ghz());
    let pdn = calibrated_pdn(&PdnModel::paper_default().unwrap(), &power, 2.0).unwrap();
    let gen = (usize_in(0, WIDTHS.len() - 1), usize_in(0, usize::MAX >> 1));
    check(
        "oracle.lanes.scalar-differential",
        &Config::cases(12, 0x1a7e),
        &gen,
        |(w_idx, seed)| {
            let width = WIDTHS[*w_idx];
            let configs = grid(*seed as u64, width);
            let budgets: Vec<u64> = configs.iter().map(|c| c.budget).collect();

            let mut lanes = LaneLoop::gather(
                configs.iter().map(|c| c.build(&pdn, &power)).collect(),
                &budgets,
            );
            lanes.run();

            // Every accessor first: an alias still shares its source's
            // state until a trace is taken.
            let mut scalars = Vec::with_capacity(width);
            for (l, config) in configs.iter().enumerate() {
                let mut scalar = config.build(&pdn, &power);
                scalar.step_n(config.budget);
                let out = lanes.outcome(l).expect("lane exited at its budget");
                ensure_eq!(out.report, scalar.report());
                ensure_eq!(lanes.report(l), scalar.report());
                ensure_eq!(out.arch_digest, scalar.arch_digest());
                ensure_eq!(lanes.arch_digest(l), scalar.arch_digest());
                ensure!(
                    lanes.save_lane(l) == scalar.save(),
                    "lane {l} snapshot bytes"
                );
                scalars.push(scalar);
            }
            // Aliases come after their source; taking theirs first
            // must leave the source's trace in place.
            for (l, scalar) in scalars.iter_mut().enumerate().rev() {
                let want = scalar.take_trace();
                let got = lanes.take_trace(l);
                ensure_eq!(want.len(), got.len());
                for (k, (a, b)) in want.iter().zip(&got).enumerate() {
                    ensure!(
                        sample_bits_equal(a, b),
                        "lane {l} ({:?}) cycle {k}: {a:?} vs {b:?}",
                        configs[l]
                    );
                }
            }
            // Scattered lanes (aliases included) continue like their
            // scalar twins.
            for (l, (mut lane, mut scalar)) in
                lanes.into_loops().into_iter().zip(scalars).enumerate()
            {
                lane.step_n(200);
                scalar.step_n(200);
                ensure!(lane.save() == scalar.save(), "lane {l} bytes after scatter");
            }
            Ok(())
        },
    );
}

/// The mid-run checkpoint contract: pause a lane run, serialize every
/// lane with `save_lane`, restore each through the scalar snapshot
/// path, re-gather, and finish under lanes. The snapshot bytes must
/// match a scalar run paused at the same cycle, and the completed runs
/// must agree bitwise end to end — including the sensor RNG and the
/// in-flight trace carried across the checkpoint.
#[test]
fn mid_run_save_restore_continues_bitwise() {
    let power = PowerModel::new(PowerParams::paper_3ghz());
    let pdn = calibrated_pdn(&PdnModel::paper_default().unwrap(), &power, 2.0).unwrap();
    let gen = (usize_in(0, WIDTHS.len() - 1), usize_in(0, usize::MAX >> 1));
    check(
        "oracle.lanes.save-restore-continue",
        &Config::cases(8, 0x5a7e),
        &gen,
        |(w_idx, seed)| {
            let width = WIDTHS[*w_idx];
            let configs = grid(*seed as u64, width);
            let splits: Vec<u64> = configs.iter().map(|c| c.budget / 2).collect();
            let rests: Vec<u64> = configs
                .iter()
                .zip(&splits)
                .map(|(c, s)| c.budget - s)
                .collect();

            // First half under lanes, checkpoint, second half under
            // lanes again on the restored loops.
            let mut first = LaneLoop::gather(
                configs.iter().map(|c| c.build(&pdn, &power)).collect(),
                &splits,
            );
            first.run();
            let mut restored = Vec::with_capacity(width);
            for (l, config) in configs.iter().enumerate() {
                let bytes = first.save_lane(l);
                let mut paused = config.build(&pdn, &power);
                paused.step_n(splits[l]);
                ensure!(bytes == paused.save(), "lane {l} checkpoint bytes");
                restored.push(config.restore(&pdn, &power, &bytes));
            }
            // Scattering without a checkpoint continues the same way.
            for (l, mut sim) in first.into_loops().into_iter().enumerate() {
                sim.step_n(rests[l]);
                let mut scalar = configs[l].build(&pdn, &power);
                scalar.step_n(configs[l].budget);
                ensure!(sim.save() == scalar.save(), "lane {l} scattered bytes");
            }
            let mut second = LaneLoop::gather(restored, &rests);
            second.run();

            for (l, config) in configs.iter().enumerate() {
                let mut scalar = config.build(&pdn, &power);
                scalar.step_n(config.budget);
                let out = second.outcome(l).expect("restored lane exited");
                ensure_eq!(out.report, scalar.report());
                ensure_eq!(out.arch_digest, scalar.arch_digest());
                // The full snapshot (CPU, PDN, sensor RNG, controller,
                // trace) agrees after crossing the checkpoint.
                ensure!(second.save_lane(l) == scalar.save(), "lane {l} final bytes");
            }
            Ok(())
        },
    );
}
