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
//! lane.
//!
//! Inside a group, a lane whose budget and tail bytes (every
//! [`ControlLoop::save`] section but the CPU's, packed by the same
//! calls) equal an earlier member's is an **alias**: determinism makes
//! its run that member's run, so it is never stepped and every accessor
//! reads the member's state. [`LaneLoop::gather`] is the one place lane
//! identity is decided, always on snapshot bytes. The experiment engine
//! gathers all of a sweep's lanes for one program and machine into one
//! `LaneLoop`, so a workload's uncontrolled baseline, identical at every
//! grid point, is stepped once for the whole run, and each controlled
//! lane rides on its CPU until its first intervention.
//!
//! Everything downstream of the power model — supply network, sensor,
//! controller, actuator, ground-truth observers, band counters, sample
//! trace — is each lane's own copy of the scalar loop's state (the
//! crate-private `LoopTail`), advanced by the very stage methods
//! [`ControlLoop::step`] calls. There is no second copy of the
//! per-cycle algorithm, so per lane every f64 operation (including the
//! conditional sensor-noise RNG draw) happens in scalar order by
//! construction. The differential oracle in `tests/oracle_lanes.rs`
//! guards what the lane path adds on top: grouping, aliases,
//! divergence, exits, and scatter.
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
    cycle_draw, power_fingerprint, ControlLoop, LoopReport, LoopSample, LoopTail,
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
    /// Each lane's supply/sensor/controller/observer state (an alias's
    /// own entry is never read).
    tails: Vec<LoopTail>,
    groups: Vec<LaneGroup>,
    lane_group: Vec<usize>,
    budget: Vec<u64>,
    parked: Vec<Option<Cpu>>,
    outcome: Vec<Option<LaneOutcome>>,
    /// The lane whose state each lane reads: itself, or for an alias
    /// the earlier byte-identical lane that is stepped in its place.
    source: Vec<usize>,
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
    /// This is where lane identity is decided, on snapshot bytes. Lanes
    /// whose CPUs are byte-identical and whose power models are
    /// parameter-identical are placed in one shared-CPU group. Inside a
    /// group, a lane whose budget and tail bytes (every
    /// [`ControlLoop::save`] section but the CPU's) equal an earlier
    /// member's is an *alias* of that member: it is never stepped, and
    /// every accessor reads it as its own scalar loop.
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
            source: Vec::with_capacity(n),
            next_mask: vec![MASK_KEEP; n],
        };

        // Group keys: (power fingerprint, fnv of CPU bytes, CPU bytes).
        // The byte image embeds the program digest and configuration
        // fingerprint, so byte equality really does imply identical
        // future behavior under identical gating commands. Stepped
        // lanes: (group, lane, tail bytes).
        let mut keys: Vec<(u64, u64, Vec<u8>)> = Vec::new();
        let mut stepped: Vec<(usize, usize, Vec<u8>)> = Vec::new();
        for (lane, sim) in loops.into_iter().enumerate() {
            let (cpu, power, tail) = sim.into_tail();
            let power_fp = power_fingerprint(&power);
            let tail_bytes = tail.state_bytes(&power);
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
            let source = stepped
                .iter()
                .find(|(g, m, bytes)| {
                    *g == group && budgets[*m] == budgets[lane] && *bytes == tail_bytes
                })
                .map_or(lane, |&(_, m, _)| m);
            if source == lane {
                stepped.push((group, lane, tail_bytes));
                lanes.groups[group].lanes.push(lane);
            }
            lanes.source.push(source);
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

    /// Number of lanes still being stepped: not yet exited, and not an
    /// alias of another lane.
    pub fn active_lane_count(&self) -> usize {
        self.groups.iter().map(|g| g.lanes.len()).sum()
    }

    /// The lane's materialized outcome, once it has exited.
    pub fn outcome(&self, lane: usize) -> Option<&LaneOutcome> {
        self.outcome[self.source[lane]].as_ref()
    }

    /// The lane's run report at its current state (live lanes included).
    pub fn report(&self, lane: usize) -> LoopReport {
        let (tail, cpu, _) = self.lane_state(lane);
        tail.report(cpu)
    }

    /// Digest of the lane CPU's architectural state.
    pub fn arch_digest(&self, lane: usize) -> u64 {
        self.lane_state(lane).1.arch_digest()
    }

    /// Takes the lane's recorded per-cycle trace (empty unless the
    /// gathered loop had `record_trace` enabled).
    pub fn take_trace(&mut self, lane: usize) -> Vec<LoopSample> {
        // Taking changes the lane's state, so no other lane may share it.
        let source = self.source[lane];
        for alias in 0..self.width() {
            if alias != source && self.source[alias] == source {
                self.detach(alias);
            }
        }
        self.tails[lane].take_trace()
    }

    /// The tail, CPU and power model the lane reads: its source's.
    fn lane_state(&self, lane: usize) -> (&LoopTail, &Cpu, &PowerModel) {
        let lane = self.source[lane];
        let group = &self.groups[self.lane_group[lane]];
        let cpu = self.parked[lane].as_ref().unwrap_or(&group.cpu);
        (&self.tails[lane], cpu, &group.power)
    }

    /// Gives an alias its own copy of its source's state. From then on
    /// it is stepped with its source's group (or stays parked with it).
    fn detach(&mut self, alias: usize) {
        let source = self.source[alias];
        self.tails[alias] = self.tails[source].clone();
        self.parked[alias] = self.parked[source].clone();
        self.outcome[alias] = self.outcome[source].clone();
        self.budget[alias] = self.budget[source];
        self.lane_group[alias] = self.lane_group[source];
        if self.parked[source].is_none() {
            self.groups[self.lane_group[source]].lanes.push(alias);
        }
        self.source[alias] = alias;
    }

    /// Serializes one lane as a scalar loop snapshot — byte-identical to
    /// the [`ControlLoop::save`] of a loop stepped scalar to the same
    /// point, so `--shards`/`--resume` round-trip through the lane path.
    pub fn save_lane(&self, lane: usize) -> Vec<u8> {
        let (tail, cpu, power) = self.lane_state(lane);
        ControlLoop::from_tail(cpu.clone(), power.clone(), tail.clone()).save()
    }

    /// Scatters every lane back into a scalar [`ControlLoop`], in lane
    /// order. Each scattered loop continues bit-for-bit from where the
    /// lane left off.
    pub fn into_loops(mut self) -> Vec<ControlLoop> {
        for lane in 0..self.width() {
            if self.source[lane] != lane {
                self.detach(lane);
            }
        }
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
    /// returns the total number of lane-cycles stepped (aliases add
    /// none).
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

    /// Advances every live lane but the aliases one cycle in lockstep;
    /// returns how many lanes stepped (0 = all lanes have exited).
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
    fn byte_identical_lanes_are_stepped_once_and_read_as_their_own() {
        let budget = 2_000u64;
        let configs = [(Some(tight()), 1), (None, 0), (Some(tight()), 1), (None, 0)];
        let build = || configs.iter().map(|&(t, d)| make_loop(t, d, 0.0));
        let mut lanes = LaneLoop::gather(build().collect(), &[budget; 4]);
        assert_eq!(lanes.active_lane_count(), 2, "lanes 2 and 3 are aliases");
        assert_eq!(lanes.run(), 2 * budget, "aliases are never stepped");
        let saved: Vec<Vec<u8>> = (0..4).map(|l| lanes.save_lane(l)).collect();
        for (l, mut scalar) in build().enumerate() {
            scalar.step_n(budget);
            let out = lanes.outcome(l).expect("lane exited");
            assert_eq!(out.report, scalar.report(), "lane {l} report");
            assert_eq!(out.arch_digest, scalar.arch_digest(), "lane {l} digest");
            assert!(saved[l] == scalar.save(), "lane {l} bytes");
            // Taking a trace leaves the lanes that shared it intact.
            assert_eq!(lanes.take_trace(l).len(), budget as usize, "lane {l}");
            scalar.take_trace();
            assert!(lanes.save_lane(l) == scalar.save(), "lane {l} bytes");
        }
        for l in [1, 3] {
            assert!(lanes.take_trace(l).is_empty(), "lane {l} was taken once");
        }
    }

    #[test]
    fn lanes_that_differ_in_budget_power_or_one_tail_byte_are_not_aliases() {
        let power = |gating_floor| {
            let mut params = PowerParams::paper_3ghz();
            params.gating_floor = gating_floor;
            PowerModel::new(params)
        };
        let pdn = calibrated_pdn(&PdnModel::paper_default().unwrap(), &power(0.10), 2.0).unwrap();
        let build = |gating_floor, seed| {
            ControlLoop::builder(spin_program())
                .power(power(gating_floor))
                .pdn(pdn.clone())
                .thresholds(loose())
                .sensor(SensorConfig {
                    delay_cycles: 1,
                    noise_mv: 0.0,
                    seed,
                })
                .build()
                .unwrap()
        };
        // Equal state under another budget; equal state under another
        // power model; and a sensor seed that differs (noise is 0 mV, so
        // the seed is never drawn and only its bytes differ).
        for (other, budgets) in [
            (build(0.10, 1), [500, 501]),
            (build(0.11, 1), [500, 500]),
            (build(0.10, 2), [500, 500]),
        ] {
            let mut lanes = LaneLoop::gather(vec![build(0.10, 1), other], &budgets);
            assert_eq!(lanes.active_lane_count(), 2, "{budgets:?}");
            lanes.run();
            assert_ne!(lanes.save_lane(0), lanes.save_lane(1));
        }
        let equal = LaneLoop::gather(vec![build(0.10, 1), build(0.10, 1)], &[500, 500]);
        assert_eq!(equal.active_lane_count(), 1);
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
