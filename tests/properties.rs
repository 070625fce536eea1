//! Randomized property tests across the crates, run on the in-tree
//! [`voltctl_check`] property harness. Each suite keeps its historical
//! base seed (`0xA110`, `0x6A7E`, `0x11EA`, `0xA53A`) and case budget:
//! the runner seeds case `k` with `base + k`, and the generators consume
//! the `Rng` exactly like the hand-rolled loops they replaced, so every
//! historical case is still covered — now with shrinking and failure-seed
//! persistence on top.

use voltctl::cpu::{Cpu, CpuConfig, Domain};
use voltctl::isa::{FpReg, IntReg, ProgramBuilder};
use voltctl::pdn::{convolve, PdnModel};
use voltctl::telemetry::Rng;
use voltctl_check::{check, ensure, ensure_eq, from_fn, vec_f64, vec_of, Config, Gen};

/// A recipe for one straight-line instruction.
#[derive(Debug, Clone, PartialEq)]
enum OpRecipe {
    AddImm { rd: u8, ra: u8, imm: i32 },
    Mul { rd: u8, ra: u8, rb: u8 },
    Xor { rd: u8, ra: u8, rb: u8 },
    Store { src: u8, slot: u8 },
    Load { rd: u8, slot: u8 },
    FpMul { fd: u8, fa: u8 },
    Div { rd: u8, ra: u8, rb: u8 },
}

/// Registers restricted to r1..r8 / f1..f4; memory to 32 slots.
fn random_op(rng: &mut Rng) -> OpRecipe {
    let reg = |rng: &mut Rng| rng.range_i64(1, 9) as u8;
    let freg = |rng: &mut Rng| rng.range_i64(1, 5) as u8;
    let slot = |rng: &mut Rng| rng.range_i64(0, 32) as u8;
    match rng.below(7) {
        0 => OpRecipe::AddImm {
            rd: reg(rng),
            ra: reg(rng),
            imm: rng.range_i64(-1000, 1000) as i32,
        },
        1 => OpRecipe::Mul {
            rd: reg(rng),
            ra: reg(rng),
            rb: reg(rng),
        },
        2 => OpRecipe::Xor {
            rd: reg(rng),
            ra: reg(rng),
            rb: reg(rng),
        },
        3 => OpRecipe::Store {
            src: reg(rng),
            slot: slot(rng),
        },
        4 => OpRecipe::Load {
            rd: reg(rng),
            slot: slot(rng),
        },
        5 => OpRecipe::FpMul {
            fd: freg(rng),
            fa: freg(rng),
        },
        _ => OpRecipe::Div {
            rd: reg(rng),
            ra: reg(rng),
            rb: reg(rng),
        },
    }
}

/// `min..max` random ops: same draw order as the old `random_ops`
/// helper (length via `range_i64`, then each op), plus element-dropping
/// shrinks from [`vec_of`] — a failing program gets minimized.
fn ops_gen(min: usize, max: usize) -> impl Gen<Value = Vec<OpRecipe>> {
    vec_of(from_fn(random_op), min, max)
}

fn build_program(ops: &[OpRecipe]) -> voltctl::isa::Program {
    let mut b = ProgramBuilder::new("prop");
    b.data_f64(0x7000, &[1.5, 2.5, 3.5, 4.5]);
    b.lda(IntReg::R4, IntReg::R31, 0x7000);
    // Seed the integer registers with distinct values.
    for r in 1..9 {
        b.lda(IntReg::new(r), IntReg::R31, (r as i64) * 77 + 5);
    }
    for f in 1..5 {
        b.ldt(FpReg::new(f), ((f as i64) % 4) * 8, IntReg::R4);
    }
    for op in ops {
        match *op {
            OpRecipe::AddImm { rd, ra, imm } => {
                b.addq_imm(IntReg::new(rd), IntReg::new(ra), imm as i64);
            }
            OpRecipe::Mul { rd, ra, rb } => {
                b.mulq(IntReg::new(rd), IntReg::new(ra), IntReg::new(rb));
            }
            OpRecipe::Xor { rd, ra, rb } => {
                b.xor(IntReg::new(rd), IntReg::new(ra), IntReg::new(rb));
            }
            OpRecipe::Store { src, slot } => {
                b.stq(IntReg::new(src), 256 + (slot as i64) * 8, IntReg::R4);
            }
            OpRecipe::Load { rd, slot } => {
                b.ldq(IntReg::new(rd), 256 + (slot as i64) * 8, IntReg::R4);
            }
            OpRecipe::FpMul { fd, fa } => {
                b.mult(FpReg::new(fd), FpReg::new(fa), FpReg::new(fa));
            }
            OpRecipe::Div { rd, ra, rb } => {
                b.divq(IntReg::new(rd), IntReg::new(ra), IntReg::new(rb));
            }
        }
    }
    b.halt();
    b.build().expect("generated programs are label-free")
}

/// Architectural results are a function of the program alone:
/// microarchitecture (window sizes, widths, caches) must not change
/// them — the foundation for "control does not alter correctness".
#[test]
fn results_independent_of_microarchitecture() {
    check(
        "properties.uarch-independent",
        &Config::cases(24, 0xA110),
        &ops_gen(1, 200),
        |ops| {
            let program = build_program(ops);
            let mut big = Cpu::new(CpuConfig::table1(), &program).unwrap();
            big.run(1_000_000);
            ensure!(big.done(), "table1 config did not finish");
            let mut small = Cpu::new(CpuConfig::small(), &program).unwrap();
            small.run(2_000_000);
            ensure!(small.done(), "small config did not finish");
            ensure_eq!(big.arch_digest(), small.arch_digest());
            ensure_eq!(big.stats().committed, small.stats().committed);
            Ok(())
        },
    );
}

/// Random gating schedules stall execution but never change results.
#[test]
fn gating_schedules_never_change_results() {
    // Draw order matches the historical loop: the op list first, then
    // the schedule (`below(40)` entries of `(below(3), range_i64(1,16),
    // next_bool())`), so the tuple generator replays the same streams.
    let schedule_gen = from_fn(|rng: &mut Rng| -> Vec<(u8, u8, bool)> {
        (0..rng.below(40))
            .map(|_| {
                (
                    rng.below(3) as u8,
                    rng.range_i64(1, 16) as u8,
                    rng.next_bool(),
                )
            })
            .collect()
    });
    check(
        "properties.gating-preserves-results",
        &Config::cases(24, 0x6A7E),
        &(ops_gen(1, 120), schedule_gen),
        |(ops, schedule)| {
            let program = build_program(ops);
            let mut free = Cpu::new(CpuConfig::table1(), &program).unwrap();
            free.run(1_000_000);
            ensure!(free.done(), "ungated run did not finish");

            let mut gated = Cpu::new(CpuConfig::table1(), &program).unwrap();
            'outer: for &(domain, cycles, phantom) in schedule {
                let d = match domain {
                    0 => Domain::Fu,
                    1 => Domain::Dl1,
                    _ => Domain::Il1,
                };
                if phantom {
                    gated.gating_mut().set_phantom(d, true);
                } else {
                    gated.gating_mut().set_gated(d, true);
                }
                for _ in 0..cycles {
                    if gated.done() {
                        break 'outer;
                    }
                    gated.step();
                }
                gated.gating_mut().release_all();
            }
            gated.gating_mut().release_all();
            gated.run(1_000_000);
            ensure!(gated.done(), "gated run did not finish");
            ensure_eq!(free.arch_digest(), gated.arch_digest());
            Ok(())
        },
    );
}

/// The PDN is linear time-invariant: scaling the current trace scales
/// the deviation, and the state-space path agrees with convolution.
#[test]
fn pdn_linearity_and_equivalence() {
    let model = PdnModel::paper_default().unwrap();
    let kernel = convolve::kernel_for(&model, 1e-9);
    check(
        "properties.pdn-linearity",
        &Config::cases(24, 0x11EA),
        &(vec_f64(16, 300, 0.0, 60.0), voltctl_check::f64_in(0.1, 4.0)),
        |(trace, scale)| {
            let mut s1 = model.discretize();
            let v1: Vec<f64> = trace
                .iter()
                .map(|&i| s1.step(i) - model.v_nominal())
                .collect();

            let scaled: Vec<f64> = trace.iter().map(|&i| i * scale).collect();
            let mut s2 = model.discretize();
            let v2: Vec<f64> = scaled
                .iter()
                .map(|&i| s2.step(i) - model.v_nominal())
                .collect();
            for (t, (a, b)) in v1.iter().zip(&v2).enumerate() {
                ensure!(
                    (a * scale - b).abs() < 1e-9,
                    "linearity broke at cycle {t}: {a} * {scale} vs {b}"
                );
            }

            let conv = convolve::convolve_full(&kernel, trace, 0.0);
            for (t, (a, b)) in v1.iter().zip(&conv).enumerate() {
                ensure!(
                    (a - b).abs() < 1e-7,
                    "state-space vs convolution at cycle {t}: {a} vs {b}"
                );
            }
            Ok(())
        },
    );
}

/// Assembler round-trip: disassembling any generated program and
/// re-assembling it yields the identical instruction stream.
#[test]
fn assembler_roundtrip() {
    check(
        "properties.assembler-roundtrip",
        &Config::cases(24, 0xA53A),
        &ops_gen(1, 150),
        |ops| {
            let program = build_program(ops);
            let text = voltctl::isa::asm::disassemble(&program);
            let back = voltctl::isa::asm::assemble("prop", &text)
                .map_err(|e| format!("re-assemble: {e}"))?;
            ensure_eq!(program.insts(), back.insts());
            Ok(())
        },
    );
}

/// Steps `program` for up to 50k cycles (stopping early once it is done)
/// under a seeded schedule that toggles the FU, DL1 and IL1 gates, and
/// folds every `CycleActivity` field plus the final `arch_digest` into
/// one word. Any change to what the pipeline does in a cycle — which
/// instructions issue, in what order, to which units — moves the word.
fn activity_digest(program: &voltctl::isa::Program, seed: u64) -> u64 {
    fn fold(h: u64, x: u64) -> u64 {
        (h.rotate_left(5) ^ x).wrapping_mul(0x9e37_79b9_7f4a_7c15)
    }
    let mut cpu = Cpu::new(CpuConfig::table1(), program).unwrap();
    let mut rng = Rng::new(seed);
    let mut h = 0xcbf2_9ce4_8422_2325u64;
    let mut segment_left = 0;
    while cpu.cycle() < 50_000 && !cpu.done() {
        if segment_left == 0 {
            segment_left = rng.range_i64(1, 64);
            let gating = cpu.gating_mut();
            gating.gate_fu = rng.below(4) == 0;
            gating.gate_dl1 = rng.below(4) == 0;
            gating.gate_il1 = rng.below(4) == 0;
        }
        segment_left -= 1;
        let a = cpu.step();
        for x in [
            a.fetched,
            a.dispatched,
            a.issued,
            a.completed,
            a.committed,
            a.il1_accesses,
            a.il1_misses,
            a.dl1_accesses,
            a.dl1_misses,
            a.l2_accesses,
            a.l2_misses,
            a.bpred_lookups,
            a.mispredicts,
            a.regfile_reads,
            a.regfile_writes,
            a.lsq_forwards,
            a.ruu_occupancy,
            a.lsq_occupancy,
        ]
        .into_iter()
        .chain(a.issued_per_fu)
        .chain(a.executing_per_fu)
        {
            h = fold(h, u64::from(x));
        }
    }
    fold(h, cpu.arch_digest())
}

/// The cycle-by-cycle activity of the Table 1 machine is pinned: every
/// SPEC kernel, the default stressmark and 20 seeded random programs,
/// each under its own gating schedule, reproduce recorded digests. The
/// digests were recorded from an issue stage that walked every window
/// slot, so they also pin that visiting only ready slots, and skipping
/// units that refused a claim, changes no cycle.
#[test]
fn cycle_activity_is_pinned_under_gating() {
    let mut spec = 0u64;
    for (i, wl) in voltctl_workloads::spec::iter().enumerate() {
        spec ^= activity_digest(&wl.program, 0x5EC0 + i as u64).rotate_left(i as u32);
    }
    let stress = voltctl_workloads::stressmark::build(&Default::default());
    let stress = activity_digest(&stress.program, 0x57E5);
    let gen = ops_gen(200, 600);
    let mut random = 0u64;
    for k in 0..20u64 {
        let ops = gen.generate(&mut Rng::new(0xB17A + k));
        random ^= activity_digest(&build_program(&ops), 0xB17A + k).rotate_left(k as u32);
    }
    assert_eq!(
        (spec, stress, random),
        (
            0xf58c_d9aa_37c3_7036,
            0x93cc_f658_5794_eece,
            0xa7fc_71ca_2e24_27f7
        ),
        "per-cycle activity drifted from the recorded digests"
    );
}
