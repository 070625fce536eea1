//! Batched lockstep execution of many [`ControlLoop`]s (the lane path).
//!
//! A grid experiment steps hundreds of independent control loops, and
//! the scalar profile is dominated by [`Cpu::step`]. [`LaneLoop`] wins by
//! **CPU sharing**: the simulator is fully deterministic, so two lanes
//! whose CPUs are byte-identical (same program, configuration,
//! architectural and microarchitectural state — including clock-gating)
//! and whose power models are parameter-identical *must* produce
//! identical activity every cycle until their controllers command
//! different gating. Lanes are therefore grouped: one [`Cpu::step`] and
//! one power evaluation per group per cycle, broadcast to every member
//! lane. The experiment engine plans a sweep's lanes across the whole
//! grid and gathers each program's distinct lanes into one `LaneLoop`
//! (its work unit, keyed by [`snapshot_keys`]). A workload's uncontrolled
//! baseline, identical at every grid point, is therefore one lane
//! stepped once for the whole run, and each controlled lane rides on its
//! CPU until its first intervention.
//!
//! Everything downstream of the power model — supply network, sensor,
//! controller, actuator, ground-truth observers, band counters, sample
//! trace — is each lane's own copy of the scalar loop's state (the
//! crate-private `LoopTail`), advanced by the very stage methods
//! [`ControlLoop::step`] calls. There is no second copy of the
//! per-cycle algorithm, so per lane every f64 operation (including the
//! conditional sensor-noise RNG draw) happens in scalar order by
//! construction. The differential oracle in `tests/oracle_lanes.rs`
//! guards what the lane path adds on top: grouping, divergence, exits,
//! and scatter.
//!
//! # Divergence-exit rules
//!
//! * **Gating divergence**: at the end of each cycle every controlled
//!   lane's command is applied by its own actuator to a released gating
//!   state and reduced to a 6-bit mask (actuation is absolute — the
//!   actuator always releases everything first — so the mask is the
//!   gating the scalar loop would be left with). Lanes in a group are
//!   partitioned by mask; the first partition keeps the group's CPU,
//!   every other partition *forks* a clone. Groups split and never
//!   merge.
//! * **Lane exit**: a lane leaves the lockstep the moment its cycle
//!   budget is spent or its program finishes; its outcome (report +
//!   architectural digest) is materialized at that boundary, and a CPU
//!   clone is parked on the lane so it can still be scattered back into
//!   a scalar [`ControlLoop`] while its former group runs on.
//! * **Unsupported observers**: loops carrying a live recorder or tracer
//!   never enter the lane path (those observers fire from the scalar
//!   step). Lanes are the only description of a sweep cell, so with
//!   telemetry or tracing on the engine steps the same unobserved loops
//!   one at a time instead, attaching observers with
//!   [`ControlLoop::with_observers`]. The in-memory [`LoopSample`]
//!   trace *is* supported — it lives in the lane's own state.

use crate::loopsim::{
    cycle_draw, power_fingerprint, section, ControlLoop, LoopReport, LoopSample, LoopTail,
};
use voltctl_cpu::{Cpu, GatingState};
use voltctl_power::PowerModel;

/// Gating-mask sentinel for lanes that issued no command this cycle
/// (uncontrolled lanes): keep whatever gating the group already has.
const MASK_KEEP: u8 = 0x40;

/// A lane's materialized end-of-run result.
#[derive(Debug, Clone, PartialEq)]
pub struct LaneOutcome {
    /// The run report, bitwise identical to the scalar loop's.
    pub report: LoopReport,
    /// Digest of the CPU's architectural state at exit.
    pub arch_digest: u64,
}

/// Two cheap keys read from a loop snapshot ([`ControlLoop::save`]
/// bytes) without decoding or re-hashing it: `(share, image)`.
///
/// * `share` hashes the program digest and machine-configuration
///   fingerprint that head the CPU section. Lanes that
///   [`LaneLoop::gather`] could place in one group always have equal
///   `share` keys, so a scheduler can put them in one work unit.
/// * `image` is the container's trailing FNV-1a checksum of the whole
///   snapshot.
///
/// Equal keys prove nothing: exact duplicates need a byte comparison,
/// and `gather` still groups by exact CPU bytes. `None` when `snapshot`
/// is not a loop container with a CPU section.
pub fn snapshot_keys(snapshot: &[u8]) -> Option<(u64, u64)> {
    let body = snapshot.len().checked_sub(8)?;
    let image = u64::from_le_bytes(snapshot[body..].try_into().ok()?);
    // Container framing: magic, version (u32), kind (u16), section
    // count (u32), then `tag (u16) | version (u16) | len | payload`.
    let mut r = voltctl_snap::ByteReader::new(snapshot.get(voltctl_snap::MAGIC.len()..body)?);
    r.get_u32().ok()?;
    r.get_u16().ok()?;
    for _ in 0..r.get_u32().ok()? {
        let tag = r.get_u16().ok()?;
        r.get_u16().ok()?;
        let len = r.get_usize().ok()?;
        let payload = r.get_raw(len, "section payload").ok()?;
        if tag == section::CPU {
            return Some((voltctl_snap::fnv1a(payload.get(..16)?), image));
        }
    }
    None
}

/// One CPU shared by every lane whose control history is still
/// identical. `lanes` is empty once all members have exited (the group
/// itself is retained so parked lanes can still clone its power model).
#[derive(Debug)]
struct LaneGroup {
    cpu: Cpu,
    power: PowerModel,
    lanes: Vec<usize>,
}

/// W control loops stepped in lockstep over shared CPU groups.
///
/// Build one with [`gather`](LaneLoop::gather), drive it with
/// [`run`](LaneLoop::run) or [`step_all`](LaneLoop::step_all), then read
/// [`outcome`](LaneLoop::outcome)s or scatter back to scalar loops with
/// [`into_loops`](LaneLoop::into_loops) / [`save_lane`](LaneLoop::save_lane).
#[derive(Debug)]
pub struct LaneLoop {
    /// Each lane's supply/sensor/controller/observer state.
    tails: Vec<LoopTail>,
    groups: Vec<LaneGroup>,
    lane_group: Vec<usize>,
    budget: Vec<u64>,
    parked: Vec<Option<Cpu>>,
    outcome: Vec<Option<LaneOutcome>>,
    /// Per-cycle scratch: each lane's commanded gating mask.
    next_mask: Vec<u8>,
}

/// Reduces a gating state to its 6-bit mask.
fn mask_of(g: GatingState) -> u8 {
    (g.gate_fu as u8)
        | (g.gate_dl1 as u8) << 1
        | (g.gate_il1 as u8) << 2
        | (g.phantom_fu as u8) << 3
        | (g.phantom_dl1 as u8) << 4
        | (g.phantom_il1 as u8) << 5
}

/// Sets a gating state to exactly the bits of `mask` (the inverse of
/// [`mask_of`]).
fn apply_mask(g: &mut GatingState, mask: u8) {
    g.gate_fu = mask & 1 != 0;
    g.gate_dl1 = mask & 2 != 0;
    g.gate_il1 = mask & 4 != 0;
    g.phantom_fu = mask & 8 != 0;
    g.phantom_dl1 = mask & 16 != 0;
    g.phantom_il1 = mask & 32 != 0;
}

impl LaneLoop {
    /// Takes `loops` into lane state, assigning each lane the cycle
    /// budget in `budgets` (a lane exits once it has stepped that many
    /// cycles, or earlier when its program finishes — exactly
    /// [`ControlLoop::step_n`] semantics).
    ///
    /// Lanes whose CPUs are byte-identical and whose power models are
    /// parameter-identical are placed in one shared-CPU group.
    ///
    /// # Panics
    ///
    /// Panics when `budgets.len() != loops.len()`.
    pub fn gather(loops: Vec<ControlLoop>, budgets: &[u64]) -> LaneLoop {
        assert_eq!(loops.len(), budgets.len(), "one budget per lane");
        let n = loops.len();
        let mut lanes = LaneLoop {
            tails: Vec::with_capacity(n),
            groups: Vec::new(),
            lane_group: Vec::with_capacity(n),
            budget: budgets.to_vec(),
            parked: vec![None; n],
            outcome: vec![None; n],
            next_mask: vec![MASK_KEEP; n],
        };

        // Group keys: (power fingerprint, fnv of CPU bytes, CPU bytes).
        // The byte image embeds the program digest and configuration
        // fingerprint, so byte equality really does imply identical
        // future behavior under identical gating commands.
        let mut keys: Vec<(u64, u64, Vec<u8>)> = Vec::new();
        for (lane, sim) in loops.into_iter().enumerate() {
            let (cpu, power, tail) = sim.into_tail();
            let power_fp = power_fingerprint(&power);
            let mut w = voltctl_snap::ByteWriter::new();
            cpu.pack_state(&mut w);
            let cpu_bytes = w.into_bytes();
            let cpu_fp = voltctl_snap::fnv1a(&cpu_bytes);

            let group = keys
                .iter()
                .position(|(pfp, cfp, bytes)| {
                    *pfp == power_fp && *cfp == cpu_fp && *bytes == cpu_bytes
                })
                .unwrap_or_else(|| {
                    lanes.groups.push(LaneGroup {
                        cpu,
                        power,
                        lanes: Vec::new(),
                    });
                    keys.push((power_fp, cpu_fp, cpu_bytes));
                    lanes.groups.len() - 1
                });
            lanes.groups[group].lanes.push(lane);
            lanes.lane_group.push(group);
            lanes.tails.push(tail);
        }
        lanes
    }

    /// Number of lanes (width W).
    pub fn width(&self) -> usize {
        self.budget.len()
    }

    /// Number of CPU groups that still have running lanes.
    pub fn active_group_count(&self) -> usize {
        self.groups.iter().filter(|g| !g.lanes.is_empty()).count()
    }

    /// Number of lanes that have not yet exited.
    pub fn active_lane_count(&self) -> usize {
        self.groups.iter().map(|g| g.lanes.len()).sum()
    }

    /// The lane's materialized outcome, once it has exited.
    pub fn outcome(&self, lane: usize) -> Option<&LaneOutcome> {
        self.outcome[lane].as_ref()
    }

    /// The lane's run report at its current state (live lanes included).
    pub fn report(&self, lane: usize) -> LoopReport {
        self.tails[lane].report(self.lane_cpu(lane))
    }

    /// Digest of the lane CPU's architectural state.
    pub fn arch_digest(&self, lane: usize) -> u64 {
        self.lane_cpu(lane).arch_digest()
    }

    /// Takes the lane's recorded per-cycle trace (empty unless the
    /// gathered loop had `record_trace` enabled).
    pub fn take_trace(&mut self, lane: usize) -> Vec<LoopSample> {
        self.tails[lane].take_trace()
    }

    fn lane_cpu(&self, lane: usize) -> &Cpu {
        match &self.parked[lane] {
            Some(cpu) => cpu,
            None => &self.groups[self.lane_group[lane]].cpu,
        }
    }

    /// Serializes one lane as a scalar loop snapshot — byte-identical to
    /// the [`ControlLoop::save`] of a loop stepped scalar to the same
    /// point, so `--shards`/`--resume` round-trip through the lane path.
    pub fn save_lane(&self, lane: usize) -> Vec<u8> {
        let power = self.groups[self.lane_group[lane]].power.clone();
        ControlLoop::from_tail(self.lane_cpu(lane).clone(), power, self.tails[lane].clone()).save()
    }

    /// Scatters every lane back into a scalar [`ControlLoop`], in lane
    /// order. Each scattered loop continues bit-for-bit from where the
    /// lane left off.
    pub fn into_loops(self) -> Vec<ControlLoop> {
        let LaneLoop {
            tails,
            groups,
            lane_group,
            parked,
            ..
        } = self;
        tails
            .into_iter()
            .zip(parked)
            .zip(lane_group)
            .map(|((tail, parked), g)| {
                let cpu = parked.unwrap_or_else(|| groups[g].cpu.clone());
                ControlLoop::from_tail(cpu, groups[g].power.clone(), tail)
            })
            .collect()
    }

    /// Runs every lane to its exit (budget spent or program finished);
    /// returns the total number of lane-cycles stepped.
    pub fn run(&mut self) -> u64 {
        let mut total = 0u64;
        loop {
            let stepped = self.step_all();
            if stepped == 0 {
                return total;
            }
            total += stepped as u64;
        }
    }

    /// Retires lanes that cannot step this cycle (budget spent, or the
    /// group's program finished), materializing their outcomes and
    /// parking a CPU clone on each.
    fn retire_exits(&mut self) {
        for g_idx in 0..self.groups.len() {
            if self.groups[g_idx].lanes.is_empty() {
                continue;
            }
            let done = self.groups[g_idx].cpu.done();
            let any_exit = done
                || self.groups[g_idx]
                    .lanes
                    .iter()
                    .any(|&l| self.budget[l] == 0);
            if !any_exit {
                continue;
            }
            let exits: Vec<usize> = self.groups[g_idx]
                .lanes
                .iter()
                .copied()
                .filter(|&l| done || self.budget[l] == 0)
                .collect();
            let budget = std::mem::take(&mut self.budget);
            self.groups[g_idx]
                .lanes
                .retain(|&l| !(done || budget[l] == 0));
            self.budget = budget;
            for &l in &exits {
                let cpu = self.groups[g_idx].cpu.clone();
                self.outcome[l] = Some(LaneOutcome {
                    report: self.tails[l].report(&cpu),
                    arch_digest: cpu.arch_digest(),
                });
                self.parked[l] = Some(cpu);
            }
        }
    }

    /// Advances every live lane one cycle in lockstep; returns how many
    /// lanes stepped (0 = all lanes have exited).
    ///
    /// Per group: read the pre-step gating, one CPU step and power
    /// evaluation, then each member lane runs the scalar loop's supply,
    /// observer, sensor/controller and band/trace stages on its own
    /// state; finally the group is partitioned by the lanes' commanded
    /// gating (copy-on-diverge) for the next cycle.
    pub fn step_all(&mut self) -> usize {
        self.retire_exits();
        let mut stepped = 0;
        // Groups forked by `partition` are appended past this range;
        // their lanes have already stepped this cycle.
        for g_idx in 0..self.groups.len() {
            let g = &mut self.groups[g_idx];
            if g.lanes.is_empty() {
                continue;
            }
            let gating = g.cpu.gating();
            let act = g.cpu.step();
            let (watts, amps) = cycle_draw(&g.power, &act, &gating);
            for &l in &g.lanes {
                let tail = &mut self.tails[l];
                let volts = tail.supply(amps);
                tail.observe(volts, watts);
                let (reading, action) = tail.sense(volts);
                self.next_mask[l] = match action {
                    Some(action) => {
                        let mut wanted = GatingState::default();
                        tail.actuate(action, &mut wanted);
                        mask_of(wanted)
                    }
                    None => MASK_KEEP,
                };
                tail.finish_cycle(reading, amps, volts, &gating);
                self.budget[l] -= 1;
            }
            stepped += g.lanes.len();
            self.partition(g_idx);
        }
        stepped
    }

    /// Applies the lanes' commanded gating to group `g_idx`: unchanged
    /// when they agree, otherwise a [`split_group`](Self::split_group).
    fn partition(&mut self, g_idx: usize) {
        let g_cur = mask_of(self.groups[g_idx].cpu.gating());
        // Fast path: all lanes want the same mask.
        let unanimous = {
            let lanes = &self.groups[g_idx].lanes;
            let first = self.next_mask[lanes[0]];
            let first = if first == MASK_KEEP { g_cur } else { first };
            lanes[1..]
                .iter()
                .all(|&l| {
                    let m = self.next_mask[l];
                    (if m == MASK_KEEP { g_cur } else { m }) == first
                })
                .then_some(first)
        };
        match unanimous {
            Some(mask) => {
                if mask != g_cur {
                    apply_mask(self.groups[g_idx].cpu.gating_mut(), mask);
                }
            }
            None => self.split_group(g_idx, g_cur),
        }
    }

    /// Partitions `g_idx`'s lanes by desired gating mask (encounter
    /// order). The first partition keeps the group's CPU; every other
    /// partition forks a clone into a fresh group. Uncontrolled lanes
    /// resolve to the group's current mask and therefore always stay
    /// with the no-change partition — their gating never moves.
    fn split_group(&mut self, g_idx: usize, g_cur: u8) {
        let lanes = std::mem::take(&mut self.groups[g_idx].lanes);
        let mut parts: Vec<(u8, Vec<usize>)> = Vec::new();
        for &l in &lanes {
            let m = self.next_mask[l];
            let m = if m == MASK_KEEP { g_cur } else { m };
            match parts.iter_mut().find(|(mask, _)| *mask == m) {
                Some((_, members)) => members.push(l),
                None => parts.push((m, vec![l])),
            }
        }
        let mut parts = parts.into_iter();
        let (first_mask, first_lanes) = parts.next().expect("group was non-empty");
        self.groups[g_idx].lanes = first_lanes;
        if first_mask != g_cur {
            apply_mask(self.groups[g_idx].cpu.gating_mut(), first_mask);
        }
        for (mask, members) in parts {
            let mut cpu = self.groups[g_idx].cpu.clone();
            // The clone may already carry the first partition's mask;
            // apply unconditionally — actuation is absolute.
            apply_mask(cpu.gating_mut(), mask);
            let power = self.groups[g_idx].power.clone();
            let new_idx = self.groups.len();
            for &l in &members {
                self.lane_group[l] = new_idx;
            }
            self.groups.push(LaneGroup {
                cpu,
                power,
                lanes: members,
            });
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::calibrate::calibrated_pdn;
    use crate::sensor::SensorConfig;
    use crate::thresholds::Thresholds;
    use voltctl_isa::builder::ProgramBuilder;
    use voltctl_isa::reg::IntReg;
    use voltctl_pdn::PdnModel;
    use voltctl_power::PowerParams;

    fn spin_program() -> voltctl_isa::Program {
        let mut b = ProgramBuilder::new("spin");
        b.label("top");
        b.addq_imm(IntReg::R1, IntReg::R1, 1);
        b.br("top");
        b.build().unwrap()
    }

    fn make_loop(thresholds: Option<Thresholds>, delay: u32, noise_mv: f64) -> ControlLoop {
        let power = PowerModel::new(PowerParams::paper_3ghz());
        let pdn = calibrated_pdn(&PdnModel::paper_default().unwrap(), &power, 2.0).unwrap();
        let mut b = ControlLoop::builder(spin_program())
            .power(power)
            .pdn(pdn)
            .record_trace(true)
            .sensor(SensorConfig {
                delay_cycles: delay,
                noise_mv,
                seed: 0xd1d7,
            });
        if let Some(t) = thresholds {
            b = b.thresholds(t);
        }
        b.build().unwrap()
    }

    fn tight() -> Thresholds {
        Thresholds {
            v_low: 0.9995,
            v_high: 1.0005,
        }
    }

    fn loose() -> Thresholds {
        Thresholds {
            v_low: 0.955,
            v_high: 1.045,
        }
    }

    #[test]
    fn lane_run_matches_scalar_bitwise() {
        let configs: [(Option<Thresholds>, u32, f64); 4] = [
            (None, 0, 0.0),
            (Some(loose()), 2, 15.0),
            (Some(tight()), 1, 0.0),
            (Some(tight()), 3, 0.0),
        ];
        let budget = 4_000u64;

        let mut scalars: Vec<ControlLoop> = configs
            .iter()
            .map(|&(t, d, n)| make_loop(t, d, n))
            .collect();
        let lanes_in: Vec<ControlLoop> = configs
            .iter()
            .map(|&(t, d, n)| make_loop(t, d, n))
            .collect();

        let mut lanes = LaneLoop::gather(lanes_in, &vec![budget; configs.len()]);
        // All four CPUs start byte-identical (same program/config), so
        // gather must collapse them into one group.
        assert_eq!(lanes.active_group_count(), 1);
        lanes.run();

        for (l, scalar) in scalars.iter_mut().enumerate() {
            scalar.step_n(budget);
            let out = lanes.outcome(l).expect("lane exited");
            assert_eq!(out.report, scalar.report(), "lane {l} report");
            assert_eq!(out.arch_digest, scalar.arch_digest(), "lane {l} digest");
            let a = scalar.take_trace();
            let b = lanes.take_trace(l);
            assert_eq!(a.len(), b.len(), "lane {l} trace length");
            for (k, (x, y)) in a.iter().zip(&b).enumerate() {
                assert!(
                    x.current.to_bits() == y.current.to_bits()
                        && x.voltage.to_bits() == y.voltage.to_bits()
                        && x.reducing == y.reducing
                        && x.increasing == y.increasing,
                    "lane {l} cycle {k}: {x:?} vs {y:?}"
                );
            }
        }
        // The tight-threshold lanes must have diverged from the shared
        // group (the controller intervened on the spin supply dip).
        assert!(lanes.groups.len() > 1, "divergence expected");
    }

    #[test]
    fn uneven_budgets_exit_lanes_individually() {
        let budgets = [500u64, 2_000, 1_000];
        let lanes_in: Vec<ControlLoop> = (0..3).map(|_| make_loop(Some(loose()), 1, 0.0)).collect();
        let mut lanes = LaneLoop::gather(lanes_in, &budgets);
        lanes.run();
        for (l, &b) in budgets.iter().enumerate() {
            let mut scalar = make_loop(Some(loose()), 1, 0.0);
            scalar.step_n(b);
            let out = lanes.outcome(l).expect("exited");
            assert_eq!(out.report, scalar.report(), "lane {l}");
        }
    }

    #[test]
    fn save_lane_bytes_match_scalar_save() {
        let budget = 1_500u64;
        let lanes_in = vec![make_loop(Some(loose()), 2, 10.0), make_loop(None, 0, 0.0)];
        let mut lanes = LaneLoop::gather(lanes_in, &[budget, budget]);
        lanes.run();
        for (l, &(t, d, n)) in [(Some(loose()), 2, 10.0), (None, 0, 0.0)]
            .iter()
            .enumerate()
        {
            let mut scalar = make_loop(t, d, n);
            scalar.step_n(budget);
            assert_eq!(lanes.save_lane(l), scalar.save(), "lane {l} snapshot bytes");
        }
    }

    #[test]
    fn into_loops_continue_bitwise() {
        let half = 900u64;
        let rest = 1_100u64;
        let lanes_in = vec![
            make_loop(Some(tight()), 1, 0.0),
            make_loop(Some(loose()), 0, 0.0),
        ];
        let mut lanes = LaneLoop::gather(lanes_in, &[half, half]);
        lanes.run();
        let mut scattered = lanes.into_loops();
        for (l, &(t, d)) in [(Some(tight()), 1u32), (Some(loose()), 0)]
            .iter()
            .enumerate()
        {
            let mut scalar = make_loop(t, d, 0.0);
            scalar.step_n(half + rest);
            scattered[l].step_n(rest);
            assert_eq!(scattered[l].report(), scalar.report(), "lane {l}");
            assert_eq!(scattered[l].save(), scalar.save(), "lane {l} bytes");
        }
    }

    #[test]
    fn snapshot_keys_share_by_program_and_hash_the_image() {
        let baseline = make_loop(None, 0, 0.0).save();
        let controlled = make_loop(Some(loose()), 2, 0.0).save();
        let mut b = ProgramBuilder::new("other");
        b.label("top");
        b.subq_imm(IntReg::R2, IntReg::R2, 1);
        b.br("top");
        let power = PowerModel::new(PowerParams::paper_3ghz());
        let pdn = calibrated_pdn(&PdnModel::paper_default().unwrap(), &power, 2.0).unwrap();
        let other = ControlLoop::builder(b.build().unwrap())
            .power(power)
            .pdn(pdn)
            .build()
            .unwrap()
            .save();

        let (share, image) = snapshot_keys(&baseline).expect("loop snapshot");
        assert_eq!(image, voltctl_snap::fnv1a(&baseline[..baseline.len() - 8]));
        let (controlled_share, controlled_image) = snapshot_keys(&controlled).unwrap();
        assert_eq!(controlled_share, share, "same program and machine");
        assert_ne!(controlled_image, image, "different loops");
        assert_ne!(snapshot_keys(&other).unwrap().0, share, "other program");
        assert_eq!(snapshot_keys(b"not a snapshot"), None);
    }

    #[test]
    fn finished_program_exits_before_budget() {
        let mut b = ProgramBuilder::new("short");
        for _ in 0..32 {
            b.addq_imm(IntReg::R1, IntReg::R1, 1);
        }
        let program = b.build().unwrap();
        let power = PowerModel::new(PowerParams::paper_3ghz());
        let pdn = calibrated_pdn(&PdnModel::paper_default().unwrap(), &power, 2.0).unwrap();
        let mk = || {
            ControlLoop::builder(program.clone())
                .power(power.clone())
                .pdn(pdn.clone())
                .build()
                .unwrap()
        };
        let mut lanes = LaneLoop::gather(vec![mk()], &[100_000]);
        lanes.run();
        let mut scalar = mk();
        scalar.step_n(100_000);
        let out = lanes.outcome(0).unwrap();
        assert!(out.report.cycles < 100_000, "program must finish early");
        assert_eq!(out.report, scalar.report());
    }
}
