//! The cycle-level out-of-order pipeline.
//!
//! [`Cpu`] models the Table 1 machine: an 8-wide fetch/decode front end
//! feeding a 256-entry register update unit (RUU — unified reorder buffer
//! and issue window, SimpleScalar style) and a 128-entry load/store queue,
//! issuing to the configured functional-unit mix, with a combined branch
//! predictor and a two-level cache hierarchy.
//!
//! ## Execution model
//!
//! The simulator is *execution-driven with oracle fetch*: instructions are
//! functionally executed, in program order, at fetch time, so operand
//! values, memory addresses, and branch outcomes are always real. Fetch
//! follows the correct path; when the predictor disagrees with the actual
//! outcome the fetch stream stops at the branch and resumes
//! `branch_penalty` cycles after the branch resolves in the execution
//! core — modeling the full mispredict bubble without simulating
//! wrong-path instructions. (Wrong-path activity is not modeled; the
//! paper's own substrate handled refill by adding pipeline stages, which
//! the 10-cycle penalty reproduces.)
//!
//! Timing (dependences, structural hazards, cache misses, store-to-load
//! forwarding) is modeled in the RUU/LSQ machinery, independent of the
//! functional values.
//!
//! Issue costs work in proportion to the instructions that can act, not
//! to the window size. A ready bitmap (one bit per RUU slot) marks the
//! entries whose operands are all available; issue visits only its set
//! bits, oldest first. Within a cycle, a non-memory unit kind that has
//! refused one claim refuses every later one, so its remaining ready
//! entries are skipped without being timed. The bitmap is derived from
//! the entry states and is rebuilt, not stored, by snapshots.
//!
//! ## dI/dt control hooks
//!
//! The per-cycle [`GatingState`] lets an external controller block issue
//! to the FU domain, block memory issue (DL1 domain), block fetch (IL1
//! domain), or phantom-fire any domain. Gating stalls work without
//! discarding it, so architectural results are identical with and without
//! control — verified by `arch_digest`.

use crate::activity::{CycleActivity, Stats};
use crate::bpred::BranchPredictor;
use crate::cache::CacheHierarchy;
use crate::config::CpuConfig;
use crate::fu::{op_timing, FuKind, FuPool};
use crate::gating::GatingState;
use crate::mem::Memory;
use std::collections::VecDeque;
use voltctl_isa::{exec, Inst, OpClass, Opcode, Program, Reg};
use voltctl_snap::{Pack, Unpack};

/// Completion-event ring capacity; must exceed the largest possible
/// operation latency (memory miss chain + occupancy).
const EVENT_RING: usize = 1024;

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum EntryState {
    Waiting,
    Ready,
    Issued,
    Complete,
}

/// A functionally executed instruction traveling through the pipeline.
#[derive(Debug, Clone)]
struct FetchedInst {
    inst: Inst,
    seq: u64,
    mem_addr: Option<u64>,
    mem_bytes: usize,
    mispredicted_branch: bool,
}

#[derive(Debug, Clone)]
struct RuuEntry {
    fetched: FetchedInst,
    state: EntryState,
    deps_outstanding: u32,
    dependents: Vec<usize>,
    fu: Option<FuKind>,
}

/// The processor.
///
/// `Clone` is part of the multi-lane execution contract: the simulator is
/// deterministic, so a cloned CPU stepped under the same gating commands
/// produces bit-identical activity — which lets lane groups share one CPU
/// until their controllers diverge and fork copies only at that point.
#[derive(Debug, Clone)]
pub struct Cpu {
    config: CpuConfig,
    program: Program,

    // Functional (architectural) state.
    regs: [u64; 64],
    memory: Memory,
    pc: u32,
    fetch_done: bool,

    // Front end.
    bpred: BranchPredictor,
    fetch_queue: VecDeque<FetchedInst>,
    fetch_stall_until: u64,
    /// Sequence number of an in-flight mispredicted branch that fetch is
    /// blocked on, if any.
    fetch_blocked_on: Option<u64>,

    // Window.
    ruu: Vec<Option<RuuEntry>>,
    ruu_head: usize,
    ruu_count: usize,
    /// One bit per RUU slot, set exactly when the slot's entry is
    /// [`EntryState::Ready`]. Derived state: never packed.
    ready: Vec<u64>,
    /// Program-ordered slots of in-flight memory operations.
    lsq: VecDeque<usize>,
    reg_producer: [Option<usize>; 64],

    // Execution.
    caches: CacheHierarchy,
    fus: FuPool,
    completions: Vec<Vec<usize>>,

    gating: GatingState,
    cycle: u64,
    next_seq: u64,
    stats: Stats,
    /// Scratch shared between `exec_and_package` and the fetch loop within
    /// a single cycle: whether the most recently executed branch was taken.
    last_branch_taken: bool,
}

impl Cpu {
    /// Builds a processor running `program` under `config`.
    ///
    /// # Errors
    ///
    /// Returns the configuration validation error, if any.
    pub fn new(config: CpuConfig, program: &Program) -> Result<Cpu, String> {
        config.validate()?;
        let mut memory = Memory::new();
        for seg in program.data() {
            memory.load(seg.addr, &seg.bytes);
        }
        let bpred = BranchPredictor::new(&config.bpred);
        let caches = CacheHierarchy::new(&config);
        let fus = FuPool::new(&config.fu);
        let ruu_size = config.ruu_size;
        Ok(Cpu {
            pc: program.entry(),
            program: program.clone(),
            regs: [0; 64],
            memory,
            fetch_done: false,
            bpred,
            fetch_queue: VecDeque::with_capacity(config.fetch_queue),
            fetch_stall_until: 0,
            fetch_blocked_on: None,
            ruu: vec![None; ruu_size],
            ruu_head: 0,
            ruu_count: 0,
            ready: vec![0; ruu_size.div_ceil(64)],
            lsq: VecDeque::with_capacity(config.lsq_size),
            reg_producer: [None; 64],
            caches,
            fus,
            completions: vec![Vec::new(); EVENT_RING],
            gating: GatingState::default(),
            cycle: 0,
            next_seq: 0,
            stats: Stats::default(),
            last_branch_taken: false,
            config,
        })
    }

    /// The machine configuration.
    pub fn config(&self) -> &CpuConfig {
        &self.config
    }

    /// Digest of the program being run ([`Program::digest`]).
    pub fn program_digest(&self) -> u64 {
        self.program.digest()
    }

    /// Current cycle number.
    pub fn cycle(&self) -> u64 {
        self.cycle
    }

    /// Whether the program has fully finished (halt or program end
    /// committed and the pipeline drained). Infinite loops never finish.
    pub fn done(&self) -> bool {
        self.fetch_done && self.fetch_queue.is_empty() && self.ruu_count == 0
    }

    /// Cumulative statistics.
    pub fn stats(&self) -> &Stats {
        &self.stats
    }

    /// Current gating state (read by the pipeline each cycle).
    pub fn gating(&self) -> GatingState {
        self.gating
    }

    /// Mutable access for the actuator.
    pub fn gating_mut(&mut self) -> &mut GatingState {
        &mut self.gating
    }

    /// An architectural register value (flat index via [`Reg::index`]).
    pub fn reg(&self, r: Reg) -> u64 {
        if r.is_zero() {
            0
        } else {
            self.regs[r.index()]
        }
    }

    /// The functional memory.
    pub fn memory(&self) -> &Memory {
        &self.memory
    }

    /// A digest of all architectural state (registers + memory), used to
    /// verify that dI/dt control does not perturb program results.
    pub fn arch_digest(&self) -> u64 {
        let mut h = self.memory.digest();
        for (i, &v) in self.regs.iter().enumerate() {
            if i == 31 || i == 63 {
                continue; // hardwired zeros
            }
            h ^= v
                .wrapping_mul(0x9e37_79b9_7f4a_7c15)
                .rotate_left((i % 63) as u32);
        }
        h
    }

    /// Advances one cycle and reports the cycle's structural activity.
    pub fn step(&mut self) -> CycleActivity {
        let mut act = CycleActivity::default();

        self.writeback(&mut act);
        self.commit(&mut act);
        self.issue(&mut act);
        self.dispatch(&mut act);
        self.fetch(&mut act);

        for kind in FuKind::all() {
            act.executing_per_fu[kind.index()] = self.fus.executing(kind, self.cycle);
        }
        act.ruu_occupancy = self.ruu_count as u32;
        act.lsq_occupancy = self.lsq.len() as u32;

        if self.gating.gate_fu {
            self.stats.gated_issue_cycles += 1;
        }
        if self.gating.gate_dl1 {
            self.stats.gated_mem_cycles += 1;
        }
        if self.gating.gate_il1 {
            self.stats.gated_fetch_cycles += 1;
        }

        self.stats.absorb(&act);
        self.cycle += 1;
        act
    }

    /// Runs until `done` or `max_cycles` elapse; returns cycles executed.
    pub fn run(&mut self, max_cycles: u64) -> u64 {
        let start = self.cycle;
        while !self.done() && self.cycle - start < max_cycles {
            self.step();
        }
        self.cycle - start
    }

    // --- pipeline stages -------------------------------------------------

    fn writeback(&mut self, act: &mut CycleActivity) {
        let bucket = (self.cycle as usize) % EVENT_RING;
        let finished = std::mem::take(&mut self.completions[bucket]);
        for slot in finished {
            let (seq, has_dest, dependents) = {
                let entry = self.ruu[slot]
                    .as_mut()
                    .expect("completion event for vacated slot");
                debug_assert_eq!(entry.state, EntryState::Issued);
                entry.state = EntryState::Complete;
                (
                    entry.fetched.seq,
                    entry.fetched.inst.effective_dest().is_some(),
                    std::mem::take(&mut entry.dependents),
                )
            };
            act.completed += 1;
            if has_dest {
                act.regfile_writes += 1;
            }
            for dep_slot in dependents {
                if let Some(dep) = self.ruu[dep_slot].as_mut() {
                    debug_assert!(dep.deps_outstanding > 0);
                    dep.deps_outstanding -= 1;
                    if dep.deps_outstanding == 0 && dep.state == EntryState::Waiting {
                        dep.state = EntryState::Ready;
                        self.ready[dep_slot / 64] |= 1 << (dep_slot % 64);
                    }
                }
            }
            if self.fetch_blocked_on == Some(seq) {
                self.fetch_blocked_on = None;
                self.fetch_stall_until = self.cycle + self.config.branch_penalty;
            }
        }
    }

    fn commit(&mut self, act: &mut CycleActivity) {
        for _ in 0..self.config.commit_width {
            if self.ruu_count == 0 {
                break;
            }
            let head = self.ruu_head;
            let ready = matches!(
                self.ruu[head].as_ref().map(|e| e.state),
                Some(EntryState::Complete)
            );
            if !ready {
                break;
            }
            let entry = self.ruu[head].take().expect("checked above");
            self.ruu_head = (self.ruu_head + 1) % self.ruu.len();
            self.ruu_count -= 1;

            // Clear producer mappings that still point at this slot.
            if let Some(dest) = entry.fetched.inst.effective_dest() {
                if self.reg_producer[dest.index()] == Some(head) {
                    self.reg_producer[dest.index()] = None;
                }
            }
            if entry.fetched.inst.op.is_mem() {
                let front = self.lsq.pop_front();
                debug_assert_eq!(front, Some(head), "LSQ must commit in order");
                if entry.fetched.inst.is_load() {
                    self.stats.loads += 1;
                } else {
                    self.stats.stores += 1;
                }
            }
            act.committed += 1;
        }
    }

    fn issue(&mut self, act: &mut CycleActivity) {
        debug_assert!(
            self.ready == ready_bitmap(&self.ruu),
            "ready bitmap out of step with entry states"
        );
        let mut budget = self.config.issue_width;
        // Bit `kind.index()` is set for unit kinds that cannot issue for
        // the rest of this cycle: gated domains, and non-memory kinds that
        // have refused a claim (claims only push `busy_until` past
        // `cycle`, so a refusal stands until the next cycle).
        let mut blocked = 0u32;
        if self.gating.gate_fu {
            blocked |= !(1 << FuKind::MemPort.index());
        }
        if self.gating.gate_dl1 {
            blocked |= 1 << FuKind::MemPort.index();
        }
        // Ready slots in age order: the occupied slots from the head to
        // the end, then the wrapped part. The bits of a word are copied
        // before the walk, so issuing (which clears bits) does not
        // disturb it.
        let (head, len) = (self.ruu_head, self.ruu.len());
        let end = head + self.ruu_count;
        for (lo, hi) in [(head, end.min(len)), (0, end.saturating_sub(len))] {
            for word in lo / 64..hi.div_ceil(64) {
                let mut bits = self.ready[word] & span_mask(word, lo, hi);
                while bits != 0 {
                    if budget == 0 {
                        return;
                    }
                    let slot = word * 64 + bits.trailing_zeros() as usize;
                    bits &= bits - 1;
                    if self.issue_slot(slot, &mut blocked, act) {
                        budget -= 1;
                    }
                }
            }
        }
    }

    /// Tries to issue the Ready entry in `slot`. Returns whether it took
    /// an issue slot: nops complete without a unit and take none.
    fn issue_slot(&mut self, slot: usize, blocked: &mut u32, act: &mut CycleActivity) -> bool {
        let entry = self.ruu[slot].as_ref().expect("ready slot is occupied");
        let Some(fu_kind) = entry.fu else {
            // Nops complete without a unit, one cycle after dispatch.
            self.mark_issued(slot);
            self.schedule_completion(slot, 1);
            return false;
        };
        // Gating (the FU domain covers all execution units, the DL1
        // domain the memory ports) and units already refused this cycle.
        if *blocked & (1 << fu_kind.index()) != 0 {
            return false;
        }

        // Memory ordering: a load may not issue past an incomplete
        // older store to an overlapping address.
        let mut forward = false;
        if entry.fetched.inst.is_load() {
            match self.load_ordering(slot) {
                LoadOrder::Blocked => return false,
                LoadOrder::Forward => forward = true,
                LoadOrder::CacheAccess => {}
            }
        }

        let timing = op_timing(entry.fetched.inst.op, &self.config.fu);
        let latency = if entry.fetched.inst.op.is_mem() {
            if forward {
                1
            } else {
                let addr = entry.fetched.mem_addr.expect("mem op has address");
                let write = entry.fetched.inst.is_store();
                let (lat, counts) = self.caches.access_data(addr, write);
                act.dl1_accesses += counts.l1_accesses;
                act.dl1_misses += counts.l1_misses;
                act.l2_accesses += counts.l2_accesses;
                act.l2_misses += counts.l2_misses;
                lat
            }
        } else {
            timing.latency
        };
        let exec_cycles = latency.max(timing.occupancy);

        if !self
            .fus
            .try_issue(fu_kind, self.cycle, timing.occupancy, exec_cycles)
        {
            // A memory op that loses the port race has already accessed
            // the cache above (LRU, dirty bits, `dl1_accesses`) and will
            // access it again when it retries. Masking `MemPort` would
            // skip those accesses for the rest of the cycle and change
            // the modeled activity, so memory ports stay out of the mask.
            if fu_kind != FuKind::MemPort {
                *blocked |= 1 << fu_kind.index();
            }
            return false;
        }

        self.mark_issued(slot);
        let entry = self.ruu[slot].as_ref().expect("present");
        act.issued += 1;
        act.issued_per_fu[fu_kind.index()] += 1;
        act.regfile_reads += entry.fetched.inst.effective_sources().count() as u32;
        if forward {
            act.lsq_forwards += 1;
            self.stats.lsq_forwards += 1;
        }
        self.schedule_completion(slot, latency);
        true
    }

    fn mark_issued(&mut self, slot: usize) {
        self.ruu[slot].as_mut().expect("present").state = EntryState::Issued;
        self.ready[slot / 64] &= !(1 << (slot % 64));
    }

    fn schedule_completion(&mut self, slot: usize, latency: u64) {
        debug_assert!(
            (latency as usize) < EVENT_RING,
            "latency exceeds event ring"
        );
        let when = ((self.cycle + latency.max(1)) as usize) % EVENT_RING;
        self.completions[when].push(slot);
    }

    fn load_ordering(&self, load_slot: usize) -> LoadOrder {
        let load = self.ruu[load_slot].as_ref().expect("load entry present");
        let (l_addr, l_bytes) = (
            load.fetched.mem_addr.expect("load has address"),
            load.fetched.mem_bytes,
        );
        let l_seq = load.fetched.seq;
        // Scan older LSQ entries (front is oldest); remember the youngest
        // overlapping older store.
        let mut youngest: Option<&RuuEntry> = None;
        for &slot in &self.lsq {
            let Some(e) = self.ruu[slot].as_ref() else {
                continue;
            };
            if e.fetched.seq >= l_seq {
                break;
            }
            if !e.fetched.inst.is_store() {
                continue;
            }
            let s_addr = e.fetched.mem_addr.expect("store has address");
            let s_bytes = e.fetched.mem_bytes;
            // Addresses wrap modulo 2^64 (`exec::effective_address`), so
            // the range ends do too.
            let overlap = s_addr < l_addr.wrapping_add(l_bytes as u64)
                && l_addr < s_addr.wrapping_add(s_bytes as u64);
            if overlap {
                youngest = Some(e);
            }
        }
        match youngest {
            None => LoadOrder::CacheAccess,
            Some(store) if store.state == EntryState::Complete => LoadOrder::Forward,
            Some(_) => LoadOrder::Blocked,
        }
    }

    fn dispatch(&mut self, act: &mut CycleActivity) {
        for _ in 0..self.config.decode_width {
            if self.fetch_queue.is_empty() || self.ruu_count == self.ruu.len() {
                break;
            }
            let is_mem = self
                .fetch_queue
                .front()
                .map(|f| f.inst.op.is_mem())
                .expect("checked non-empty");
            if is_mem && self.lsq.len() == self.config.lsq_size {
                break;
            }
            let fetched = self.fetch_queue.pop_front().expect("checked non-empty");

            // Allocate the next RUU slot (tail).
            let slot = (self.ruu_head + self.ruu_count) % self.ruu.len();
            debug_assert!(self.ruu[slot].is_none(), "tail slot must be vacant");

            // Resolve dependences against in-flight producers.
            let mut deps = 0u32;
            for src in fetched.inst.effective_sources() {
                if let Some(prod_slot) = self.reg_producer[src.index()] {
                    let producer = self.ruu[prod_slot]
                        .as_mut()
                        .expect("producer mapping must be live");
                    if producer.state != EntryState::Complete {
                        producer.dependents.push(slot);
                        deps += 1;
                    }
                }
            }
            let fu = FuKind::for_opcode(fetched.inst.op);
            let state = if deps == 0 {
                self.ready[slot / 64] |= 1 << (slot % 64);
                EntryState::Ready
            } else {
                EntryState::Waiting
            };
            if let Some(dest) = fetched.inst.effective_dest() {
                self.reg_producer[dest.index()] = Some(slot);
            }
            if fetched.inst.op.is_mem() {
                self.lsq.push_back(slot);
            }
            self.ruu[slot] = Some(RuuEntry {
                fetched,
                state,
                deps_outstanding: deps,
                dependents: Vec::new(),
                fu,
            });
            self.ruu_count += 1;
            act.dispatched += 1;
        }
    }

    fn fetch(&mut self, act: &mut CycleActivity) {
        if self.fetch_done
            || self.gating.gate_il1
            || self.fetch_blocked_on.is_some()
            || self.cycle < self.fetch_stall_until
        {
            return;
        }
        if self.fetch_queue.len() >= self.config.fetch_queue {
            return;
        }

        // One I-cache access per fetch cycle, at the current PC's line.
        let block_addr = Program::inst_addr(self.pc);
        let (lat, counts) = self.caches.fetch_instr(block_addr);
        act.il1_accesses += counts.l1_accesses;
        act.il1_misses += counts.l1_misses;
        act.l2_accesses += counts.l2_accesses;
        act.l2_misses += counts.l2_misses;
        if counts.l1_misses > 0 {
            self.fetch_stall_until = self.cycle + lat;
            return;
        }

        let line_bytes = self.config.l1i.line_bytes as u64;
        for _ in 0..self.config.fetch_width {
            if self.fetch_queue.len() >= self.config.fetch_queue {
                break;
            }
            // Stop at I-cache line boundary (next cycle accesses next line).
            if Program::inst_addr(self.pc) / line_bytes != block_addr / line_bytes {
                break;
            }
            let Some(&inst) = self.program.fetch(self.pc) else {
                self.fetch_done = true;
                break;
            };
            if inst.op == Opcode::Halt {
                self.fetch_done = true;
                // Halt still flows through the pipeline so `done` implies a
                // drained machine.
            }

            let fetched = self.exec_and_package(inst, act);
            let mispredicted = fetched.mispredicted_branch;
            let seq = fetched.seq;
            let is_branch = inst.op.is_branch();
            let halt = inst.op == Opcode::Halt;
            self.fetch_queue.push_back(fetched);
            act.fetched += 1;
            if is_branch {
                self.stats.branches += 1;
            }

            if halt {
                break;
            }
            if mispredicted {
                self.stats.mispredicts += 1;
                act.mispredicts += 1;
                self.fetch_blocked_on = Some(seq);
                break;
            }
            if is_branch && self.branch_was_taken(&inst) {
                // Correctly predicted taken branch ends the fetch block.
                break;
            }
        }
    }

    fn branch_was_taken(&self, inst: &Inst) -> bool {
        // Recompute cheaply: for Br always; for conditional, the condition
        // register was read during exec_and_package *before* any younger
        // write, and branches never write registers, so re-reading is safe
        // within the same cycle only for the just-fetched branch. To avoid
        // any subtlety we stash the outcome in `last_branch_taken`.
        let _ = inst;
        self.last_branch_taken
    }

    /// Functionally executes `inst` at the current PC, advances PC along
    /// the *correct* path, consults/updates the branch predictor, and
    /// packages the pipeline record.
    fn exec_and_package(&mut self, inst: Inst, act: &mut CycleActivity) -> FetchedInst {
        let seq = self.next_seq;
        self.next_seq += 1;
        let pc = self.pc;
        let pc_addr = Program::inst_addr(pc);

        let read = |regs: &[u64; 64], r: Option<Reg>| -> u64 {
            match r {
                Some(r) if !r.is_zero() => regs[r.index()],
                _ => 0,
            }
        };

        let mut mem_addr = None;
        let mut mem_bytes = 0usize;
        let mut mispredicted = false;
        let mut next_pc = pc.wrapping_add(1);
        self.last_branch_taken = false;

        match inst.op.class() {
            OpClass::IntAlu
            | OpClass::IntMult
            | OpClass::FpAdd
            | OpClass::FpMult
            | OpClass::FpDiv => {
                let a = read(&self.regs, inst.ra);
                let result = match inst.op {
                    Opcode::Cmovne | Opcode::Cmoveq => {
                        let val = read(&self.regs, inst.rb);
                        let old = read(&self.regs, inst.rc);
                        exec::eval_cmov(inst.op, a, val, old)
                    }
                    _ => {
                        let b = match inst.rb {
                            Some(rb) if !rb.is_zero() => self.regs[rb.index()],
                            Some(_) => 0,
                            None => inst.imm as u64,
                        };
                        exec::eval_alu(inst.op, a, b)
                    }
                };
                if let Some(dest) = inst.effective_dest() {
                    self.regs[dest.index()] = result;
                }
            }
            OpClass::Load => {
                let base = read(&self.regs, inst.ra);
                let addr = exec::effective_address(base, inst.imm);
                mem_addr = Some(addr);
                mem_bytes = inst.op.mem_bytes();
                let value = match inst.op {
                    Opcode::Ldq | Opcode::Ldt => self.memory.read_u64(addr),
                    Opcode::Ldl => u64::from(self.memory.read_u32(addr)),
                    _ => unreachable!("load class"),
                };
                if let Some(dest) = inst.effective_dest() {
                    self.regs[dest.index()] = value;
                }
            }
            OpClass::Store => {
                let base = read(&self.regs, inst.ra);
                let addr = exec::effective_address(base, inst.imm);
                let data = read(&self.regs, inst.rb);
                mem_addr = Some(addr);
                mem_bytes = inst.op.mem_bytes();
                match inst.op {
                    Opcode::Stq | Opcode::Stt => self.memory.write_u64(addr, data),
                    Opcode::Stl => self.memory.write_u32(addr, data as u32),
                    _ => unreachable!("store class"),
                }
            }
            OpClass::Branch => {
                let a = read(&self.regs, inst.ra);
                act.bpred_lookups += 1;
                match inst.op {
                    Opcode::Jsr => {
                        let target = inst.target.expect("jsr targets are static");
                        let return_pc = pc.wrapping_add(1);
                        if let Some(dest) = inst.effective_dest() {
                            self.regs[dest.index()] = u64::from(return_pc);
                        }
                        let pred = self.bpred.predict_unconditional(pc_addr);
                        self.bpred.update_unconditional(pc_addr, target, &pred);
                        self.bpred.ras_push(return_pc);
                        mispredicted = pred.target != Some(target);
                        self.last_branch_taken = true;
                        next_pc = target;
                    }
                    Opcode::Ret => {
                        // The target is dynamic: the link-register value,
                        // predicted by the return-address stack.
                        let target = a as u32;
                        let predicted = self.bpred.ras_pop();
                        mispredicted = predicted != Some(target);
                        self.last_branch_taken = true;
                        next_pc = target;
                    }
                    op if op.is_conditional_branch() => {
                        let taken = exec::branch_taken(op, a);
                        let target = inst.target.expect("built programs resolve targets");
                        self.last_branch_taken = taken;
                        let pred = self.bpred.predict(pc_addr);
                        self.bpred.update(pc_addr, taken, target, &pred);
                        mispredicted =
                            pred.taken != taken || (taken && pred.target != Some(target));
                        if taken {
                            next_pc = target;
                        }
                    }
                    _ => {
                        // Unconditional direct branch.
                        let target = inst.target.expect("built programs resolve targets");
                        self.last_branch_taken = true;
                        let pred = self.bpred.predict_unconditional(pc_addr);
                        self.bpred.update_unconditional(pc_addr, target, &pred);
                        mispredicted = pred.target != Some(target);
                        next_pc = target;
                    }
                }
            }
            OpClass::Nop => {}
        }

        self.pc = next_pc;
        FetchedInst {
            inst,
            seq,
            mem_addr,
            mem_bytes,
            mispredicted_branch: mispredicted,
        }
    }
}

impl voltctl_snap::Pack for EntryState {
    fn pack(&self, w: &mut voltctl_snap::ByteWriter) {
        w.put_u8(match self {
            EntryState::Waiting => 0,
            EntryState::Ready => 1,
            EntryState::Issued => 2,
            EntryState::Complete => 3,
        });
    }
}

impl voltctl_snap::Unpack for EntryState {
    fn unpack(r: &mut voltctl_snap::ByteReader<'_>) -> Result<Self, voltctl_snap::SnapError> {
        match r.get_u8()? {
            0 => Ok(EntryState::Waiting),
            1 => Ok(EntryState::Ready),
            2 => Ok(EntryState::Issued),
            3 => Ok(EntryState::Complete),
            other => Err(voltctl_snap::SnapError::Corrupt(format!(
                "unknown RUU entry state {other}"
            ))),
        }
    }
}

impl voltctl_snap::Pack for FetchedInst {
    fn pack(&self, w: &mut voltctl_snap::ByteWriter) {
        self.inst.pack(w);
        w.put_u64(self.seq);
        self.mem_addr.pack(w);
        w.put_usize(self.mem_bytes);
        w.put_bool(self.mispredicted_branch);
    }
}

impl voltctl_snap::Unpack for FetchedInst {
    fn unpack(r: &mut voltctl_snap::ByteReader<'_>) -> Result<Self, voltctl_snap::SnapError> {
        let inst = Inst::unpack(r)?;
        let seq = r.get_u64()?;
        let mem_addr: Option<u64> = voltctl_snap::Unpack::unpack(r)?;
        let mem_bytes = r.get_usize()?;
        let mispredicted_branch = r.get_bool()?;
        if inst.op.is_mem() && mem_addr.is_none() {
            return Err(voltctl_snap::SnapError::Corrupt(format!(
                "in-flight memory instruction (seq {seq}) has no effective address"
            )));
        }
        Ok(FetchedInst {
            inst,
            seq,
            mem_addr,
            mem_bytes,
            mispredicted_branch,
        })
    }
}

impl voltctl_snap::Pack for RuuEntry {
    fn pack(&self, w: &mut voltctl_snap::ByteWriter) {
        self.fetched.pack(w);
        self.state.pack(w);
        w.put_u32(self.deps_outstanding);
        self.dependents.pack(w);
        self.fu.pack(w);
    }
}

impl voltctl_snap::Unpack for RuuEntry {
    fn unpack(r: &mut voltctl_snap::ByteReader<'_>) -> Result<Self, voltctl_snap::SnapError> {
        Ok(RuuEntry {
            fetched: voltctl_snap::Unpack::unpack(r)?,
            state: voltctl_snap::Unpack::unpack(r)?,
            deps_outstanding: r.get_u32()?,
            dependents: voltctl_snap::Unpack::unpack(r)?,
            fu: voltctl_snap::Unpack::unpack(r)?,
        })
    }
}

impl Cpu {
    /// Stable fingerprint of a machine configuration. Snapshots embed it so
    /// a restore under a different configuration is rejected instead of
    /// silently producing a divergent machine.
    pub fn config_fingerprint(config: &CpuConfig) -> u64 {
        voltctl_snap::fnv1a(format!("{config:?}").as_bytes())
    }

    /// Serializes the complete processor state — architectural (registers,
    /// memory, PC) and microarchitectural (predictor, caches, window, LSQ,
    /// functional units, in-flight completions) — so that a restored
    /// machine continues cycle-for-cycle identically.
    ///
    /// The program itself is not embedded; its [`Program::digest`] is, and
    /// [`Cpu::unpack_state`] refuses to restore onto a different program.
    pub fn pack_state(&self, w: &mut voltctl_snap::ByteWriter) {
        w.put_u64(self.program.digest());
        w.put_u64(Cpu::config_fingerprint(&self.config));
        self.regs.pack(w);
        self.memory.pack(w);
        w.put_u32(self.pc);
        w.put_bool(self.fetch_done);
        self.bpred.pack(w);
        self.fetch_queue.pack(w);
        w.put_u64(self.fetch_stall_until);
        self.fetch_blocked_on.pack(w);
        self.ruu.pack(w);
        w.put_usize(self.ruu_head);
        w.put_usize(self.ruu_count);
        self.lsq.pack(w);
        self.reg_producer.pack(w);
        self.caches.pack(w);
        self.fus.pack(w);
        self.completions.pack(w);
        self.gating.pack(w);
        w.put_u64(self.cycle);
        w.put_u64(self.next_seq);
        self.stats.pack(w);
        w.put_bool(self.last_branch_taken);
    }

    /// Reconstructs a processor from [`Cpu::pack_state`] bytes.
    ///
    /// The caller supplies the configuration and program; both are checked
    /// against the fingerprints embedded in the snapshot. Every structural
    /// index is validated against the window geometry, so corrupt input
    /// yields an error — never a machine that panics later.
    pub fn unpack_state(
        config: CpuConfig,
        program: &Program,
        r: &mut voltctl_snap::ByteReader<'_>,
    ) -> Result<Cpu, voltctl_snap::SnapError> {
        let digest = r.get_u64()?;
        if digest != program.digest() {
            return Err(voltctl_snap::SnapError::Corrupt(format!(
                "snapshot was taken on a different program (digest {digest:#018x}, \
                 expected {:#018x} for '{}')",
                program.digest(),
                program.name()
            )));
        }
        let config_fp = r.get_u64()?;
        if config_fp != Cpu::config_fingerprint(&config) {
            return Err(voltctl_snap::SnapError::Corrupt(format!(
                "snapshot was taken under a different machine configuration \
                 (fingerprint {config_fp:#018x}, expected {:#018x})",
                Cpu::config_fingerprint(&config)
            )));
        }
        config
            .validate()
            .map_err(|e| voltctl_snap::SnapError::Corrupt(format!("invalid configuration: {e}")))?;

        let regs: [u64; 64] = voltctl_snap::Unpack::unpack(r)?;
        let memory = Memory::unpack(r)?;
        let pc = r.get_u32()?;
        let fetch_done = r.get_bool()?;
        let bpred = BranchPredictor::unpack(r)?;
        let fetch_queue: VecDeque<FetchedInst> = voltctl_snap::Unpack::unpack(r)?;
        let fetch_stall_until = r.get_u64()?;
        let fetch_blocked_on: Option<u64> = voltctl_snap::Unpack::unpack(r)?;
        let ruu: Vec<Option<RuuEntry>> = voltctl_snap::Unpack::unpack(r)?;
        let ruu_head = r.get_usize()?;
        let ruu_count = r.get_usize()?;
        let lsq: VecDeque<usize> = voltctl_snap::Unpack::unpack(r)?;
        let reg_producer: [Option<usize>; 64] = voltctl_snap::Unpack::unpack(r)?;
        let caches = CacheHierarchy::unpack(r)?;
        let fus = FuPool::unpack(r)?;
        let completions: Vec<Vec<usize>> = voltctl_snap::Unpack::unpack(r)?;
        let gating = GatingState::unpack(r)?;
        let cycle = r.get_u64()?;
        let next_seq = r.get_u64()?;
        let stats = Stats::unpack(r)?;
        let last_branch_taken = r.get_bool()?;

        // Structural validation: every stored index must stay inside the
        // window, and cross-structure references must point at live
        // entries, so the pipeline's internal `expect`s can never fire.
        let len = ruu.len();
        if len != config.ruu_size {
            return Err(voltctl_snap::SnapError::Corrupt(format!(
                "window has {len} slots, configuration says {}",
                config.ruu_size
            )));
        }
        if ruu_head >= len {
            return Err(voltctl_snap::SnapError::Corrupt(format!(
                "window head {ruu_head} out of range (size {len})"
            )));
        }
        let occupied = ruu.iter().filter(|e| e.is_some()).count();
        if ruu_count != occupied {
            return Err(voltctl_snap::SnapError::Corrupt(format!(
                "window count {ruu_count} does not match {occupied} occupied slots"
            )));
        }
        if completions.len() != EVENT_RING {
            return Err(voltctl_snap::SnapError::Corrupt(format!(
                "completion ring has {} buckets, expected {EVENT_RING}",
                completions.len()
            )));
        }
        let live = |slot: usize| ruu.get(slot).is_some_and(|e| e.is_some());
        for entry in ruu.iter().flatten() {
            if let Some(&bad) = entry.dependents.iter().find(|&&d| d >= len) {
                return Err(voltctl_snap::SnapError::Corrupt(format!(
                    "dependent slot {bad} out of range (window size {len})"
                )));
            }
        }
        for &slot in lsq.iter().chain(completions.iter().flatten()) {
            if !live(slot) {
                return Err(voltctl_snap::SnapError::Corrupt(format!(
                    "LSQ/completion reference to vacant window slot {slot}"
                )));
            }
        }
        for slot in reg_producer.iter().flatten() {
            if !live(*slot) {
                return Err(voltctl_snap::SnapError::Corrupt(format!(
                    "register producer points at vacant window slot {slot}"
                )));
            }
        }

        Ok(Cpu {
            config,
            program: program.clone(),
            regs,
            memory,
            pc,
            fetch_done,
            bpred,
            fetch_queue,
            fetch_stall_until,
            fetch_blocked_on,
            ready: ready_bitmap(&ruu),
            ruu,
            ruu_head,
            ruu_count,
            lsq,
            reg_producer,
            caches,
            fus,
            completions,
            gating,
            cycle,
            next_seq,
            stats,
            last_branch_taken,
        })
    }
}

/// The ready bitmap implied by the entry states: bit `slot` is set
/// exactly when the entry in `slot` is [`EntryState::Ready`].
fn ready_bitmap(ruu: &[Option<RuuEntry>]) -> Vec<u64> {
    let mut ready = vec![0u64; ruu.len().div_ceil(64)];
    for (slot, entry) in ruu.iter().enumerate() {
        if entry.as_ref().is_some_and(|e| e.state == EntryState::Ready) {
            ready[slot / 64] |= 1 << (slot % 64);
        }
    }
    ready
}

/// The bits of bitmap word `word` that fall inside slots `[lo, hi)`.
/// The word must overlap the span (`lo / 64 <= word < hi.div_ceil(64)`),
/// so both shifts stay below 64.
fn span_mask(word: usize, lo: usize, hi: usize) -> u64 {
    let base = word * 64;
    let (from, to) = (lo.saturating_sub(base), (hi - base).min(64));
    (u64::MAX << from) & (u64::MAX >> (64 - to))
}

/// Outcome of the load-vs-older-store ordering check.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum LoadOrder {
    /// An older overlapping store has not completed: wait.
    Blocked,
    /// The youngest older overlapping store completed: forward in 1 cycle.
    Forward,
    /// No overlap: access the D-cache.
    CacheAccess,
}

#[cfg(test)]
mod tests {
    use super::*;
    use voltctl_isa::{builder::ProgramBuilder, FpReg, IntReg};

    fn run_to_completion(program: &Program) -> Cpu {
        let mut cpu = Cpu::new(CpuConfig::table1(), program).unwrap();
        let ran = cpu.run(1_000_000);
        assert!(cpu.done(), "program did not finish in {ran} cycles");
        cpu
    }

    #[test]
    fn straightline_arithmetic_computes() {
        let mut b = ProgramBuilder::new("t");
        b.lda(IntReg::R1, IntReg::R31, 6);
        b.lda(IntReg::R2, IntReg::R31, 7);
        b.mulq(IntReg::R3, IntReg::R1, IntReg::R2);
        b.addq_imm(IntReg::R3, IntReg::R3, 100);
        b.halt();
        let cpu = run_to_completion(&b.build().unwrap());
        assert_eq!(cpu.reg(IntReg::R3.into()), 142);
        assert_eq!(cpu.stats().committed, 5);
    }

    #[test]
    fn loop_executes_correct_trip_count() {
        let mut b = ProgramBuilder::new("t");
        b.lda(IntReg::R1, IntReg::R31, 100);
        b.lda(IntReg::R2, IntReg::R31, 0);
        b.label("top");
        b.addq_imm(IntReg::R2, IntReg::R2, 1);
        b.subq_imm(IntReg::R1, IntReg::R1, 1);
        b.bne(IntReg::R1, "top");
        b.halt();
        let cpu = run_to_completion(&b.build().unwrap());
        assert_eq!(cpu.reg(IntReg::R2.into()), 100);
        // 100 iterations x 3 insts + 2 setup + halt
        assert_eq!(cpu.stats().committed, 303);
    }

    #[test]
    fn memory_roundtrip_through_pipeline() {
        let mut b = ProgramBuilder::new("t");
        b.lda(IntReg::R4, IntReg::R31, 0x2000);
        b.lda(IntReg::R1, IntReg::R31, 1234);
        b.stq(IntReg::R1, 0, IntReg::R4);
        b.ldq(IntReg::R2, 0, IntReg::R4);
        b.addq_imm(IntReg::R2, IntReg::R2, 1);
        b.halt();
        let cpu = run_to_completion(&b.build().unwrap());
        assert_eq!(cpu.reg(IntReg::R2.into()), 1235);
        assert_eq!(cpu.memory().read_u64(0x2000), 1234);
        assert_eq!(cpu.stats().loads, 1);
        assert_eq!(cpu.stats().stores, 1);
    }

    #[test]
    fn store_to_load_forwarding_counted() {
        let mut b = ProgramBuilder::new("t");
        b.lda(IntReg::R4, IntReg::R31, 0x3000);
        b.lda(IntReg::R1, IntReg::R31, 55);
        // Warm the line so the store is a hit and completes quickly.
        b.ldq(IntReg::R5, 0, IntReg::R4);
        b.stq(IntReg::R1, 0, IntReg::R4);
        b.ldq(IntReg::R2, 0, IntReg::R4);
        b.halt();
        let cpu = run_to_completion(&b.build().unwrap());
        assert_eq!(cpu.reg(IntReg::R2.into()), 55);
        assert!(cpu.stats().lsq_forwards >= 1, "forward expected");
    }

    #[test]
    fn fp_pipeline_computes() {
        let mut b = ProgramBuilder::new("t");
        b.data_f64(0x1000, &[9.0, 2.0]);
        b.lda(IntReg::R4, IntReg::R31, 0x1000);
        b.ldt(FpReg::F1, 0, IntReg::R4);
        b.ldt(FpReg::F2, 8, IntReg::R4);
        b.divt(FpReg::F3, FpReg::F1, FpReg::F2); // 4.5
        b.sqrtt(FpReg::F4, FpReg::F1); // 3.0
        b.addt(FpReg::F5, FpReg::F3, FpReg::F4); // 7.5
        b.stt(FpReg::F5, 16, IntReg::R4);
        b.halt();
        let cpu = run_to_completion(&b.build().unwrap());
        assert_eq!(cpu.memory().read_f64(0x1010), 7.5);
    }

    #[test]
    fn cmov_respects_old_value() {
        let mut b = ProgramBuilder::new("t");
        b.lda(IntReg::R3, IntReg::R31, 111);
        b.lda(IntReg::R7, IntReg::R31, 222);
        // Condition r31 == 0, so cmovne keeps the old value.
        b.cmovne(IntReg::R3, IntReg::R31, IntReg::R7);
        // Condition r7 != 0, so this one moves.
        b.cmovne(IntReg::R1, IntReg::R7, IntReg::R7);
        b.halt();
        let cpu = run_to_completion(&b.build().unwrap());
        assert_eq!(cpu.reg(IntReg::R3.into()), 111);
        assert_eq!(cpu.reg(IntReg::R1.into()), 222);
    }

    #[test]
    fn ipc_reflects_ilp() {
        // Hot loops (I-cache resident): six parallel dependence chains
        // should sustain far higher IPC than one serial chain.
        let mut wide = ProgramBuilder::new("wide");
        wide.lda(IntReg::R8, IntReg::R31, 2000);
        wide.label("top");
        for k in 1..=6 {
            wide.addq_imm(IntReg::new(k), IntReg::new(k), 1);
        }
        wide.subq_imm(IntReg::R8, IntReg::R8, 1);
        wide.bne(IntReg::R8, "top");
        wide.halt();
        let cpu_wide = run_to_completion(&wide.build().unwrap());

        let mut chain = ProgramBuilder::new("chain");
        chain.lda(IntReg::R8, IntReg::R31, 2000);
        chain.label("top");
        for _ in 0..6 {
            chain.addq_imm(IntReg::R1, IntReg::R1, 1);
        }
        chain.subq_imm(IntReg::R8, IntReg::R8, 1);
        chain.bne(IntReg::R8, "top");
        chain.halt();
        let cpu_chain = run_to_completion(&chain.build().unwrap());

        assert!(
            cpu_wide.stats().ipc() > 2.0 * cpu_chain.stats().ipc(),
            "wide {} vs chain {}",
            cpu_wide.stats().ipc(),
            cpu_chain.stats().ipc()
        );
        assert!(cpu_chain.stats().ipc() <= 1.6);
    }

    #[test]
    fn mispredicts_cost_cycles() {
        // A data-dependent unpredictable branch pattern vs a fixed one.
        // Use a pseudo-random sequence via xor-shift in registers.
        let mut predictable = ProgramBuilder::new("pred");
        predictable.lda(IntReg::R1, IntReg::R31, 2000);
        predictable.label("top");
        predictable.subq_imm(IntReg::R1, IntReg::R1, 1);
        predictable.bne(IntReg::R1, "top");
        predictable.halt();
        let cpu_p = run_to_completion(&predictable.build().unwrap());
        // One mispredict-ish event allowed at loop exit / cold start.
        assert!(
            cpu_p.stats().mispredicts <= 4,
            "loop branch should be learned, got {}",
            cpu_p.stats().mispredicts
        );
        assert!(cpu_p.stats().branches >= 2000);
    }

    #[test]
    fn icache_miss_stalls_fetch_on_big_code() {
        // Code footprint larger than the 64 KB L1I: straight-line insts.
        let mut b = ProgramBuilder::new("big");
        for _ in 0..40_000 {
            b.nop();
        }
        b.halt();
        let cpu = run_to_completion(&b.build().unwrap());
        assert!(cpu.stats().il1.1 > 1000, "expected I-cache misses");
    }

    #[test]
    fn dcache_misses_on_streaming() {
        let mut b = ProgramBuilder::new("stream");
        b.lda(IntReg::R4, IntReg::R31, 0x10_0000);
        b.lda(IntReg::R1, IntReg::R31, 4000);
        b.label("top");
        b.ldq(IntReg::R2, 0, IntReg::R4);
        b.addq_imm(IntReg::R4, IntReg::R4, 64); // one line per iteration
        b.subq_imm(IntReg::R1, IntReg::R1, 1);
        b.bne(IntReg::R1, "top");
        b.halt();
        let cpu = run_to_completion(&b.build().unwrap());
        let (acc, miss) = cpu.stats().dl1;
        assert!(acc >= 4000);
        assert!(
            miss as f64 / acc as f64 > 0.9,
            "strided by line size should miss nearly always: {miss}/{acc}"
        );
    }

    #[test]
    fn gating_fu_stalls_but_preserves_results() {
        let mut b = ProgramBuilder::new("t");
        b.lda(IntReg::R1, IntReg::R31, 500);
        b.lda(IntReg::R2, IntReg::R31, 0);
        b.label("top");
        b.addq_imm(IntReg::R2, IntReg::R2, 2);
        b.subq_imm(IntReg::R1, IntReg::R1, 1);
        b.bne(IntReg::R1, "top");
        b.halt();
        let program = b.build().unwrap();

        let mut free = Cpu::new(CpuConfig::table1(), &program).unwrap();
        free.run(1_000_000);
        assert!(free.done());

        let mut gated = Cpu::new(CpuConfig::table1(), &program).unwrap();
        // Gate the FUs every other 20-cycle window.
        while !gated.done() && gated.cycle() < 1_000_000 {
            let on = (gated.cycle() / 20).is_multiple_of(2);
            gated.gating_mut().gate_fu = on;
            gated.step();
        }
        assert!(gated.done());
        assert_eq!(gated.reg(IntReg::R2.into()), 1000);
        assert_eq!(free.arch_digest(), gated.arch_digest());
        assert!(
            gated.stats().cycles > free.stats().cycles,
            "gating must cost time: {} vs {}",
            gated.stats().cycles,
            free.stats().cycles
        );
    }

    #[test]
    fn gating_il1_blocks_fetch() {
        let mut b = ProgramBuilder::new("t");
        for _ in 0..100 {
            b.nop();
        }
        b.halt();
        let program = b.build().unwrap();
        let mut cpu = Cpu::new(CpuConfig::table1(), &program).unwrap();
        cpu.gating_mut().gate_il1 = true;
        for _ in 0..50 {
            let act = cpu.step();
            assert_eq!(act.fetched, 0);
        }
        assert_eq!(cpu.stats().gated_fetch_cycles, 50);
        cpu.gating_mut().gate_il1 = false;
        cpu.run(100_000);
        assert!(cpu.done());
    }

    #[test]
    fn gating_dl1_blocks_memory_issue() {
        let mut b = ProgramBuilder::new("t");
        b.lda(IntReg::R4, IntReg::R31, 0x2000);
        b.stq(IntReg::R4, 0, IntReg::R4);
        b.halt();
        let program = b.build().unwrap();
        let mut cpu = Cpu::new(CpuConfig::table1(), &program).unwrap();
        cpu.gating_mut().gate_dl1 = true;
        for _ in 0..100 {
            cpu.step();
        }
        assert!(!cpu.done(), "store cannot issue while DL1 gated");
        cpu.gating_mut().gate_dl1 = false;
        cpu.run(100_000);
        assert!(cpu.done());
        assert_eq!(cpu.memory().read_u64(0x2000), 0x2000);
    }

    #[test]
    fn window_occupancy_bounded_by_ruu_size() {
        let mut b = ProgramBuilder::new("t");
        // Each outer iteration: a cold load (317-cycle miss) followed by
        // hundreds of dependents. Once the code is I-cache resident (after
        // the first iteration), the window must fill behind the miss.
        b.lda(IntReg::R4, IntReg::R31, 0x50_0000);
        b.lda(IntReg::R5, IntReg::R31, 3);
        b.label("outer");
        b.ldq(IntReg::R2, 0, IntReg::R4);
        for _ in 0..600 {
            b.addq(IntReg::R3, IntReg::R2, IntReg::R2); // depends on load
        }
        b.addq_imm(IntReg::R4, IntReg::R4, 64); // next line: cold again
        b.subq_imm(IntReg::R5, IntReg::R5, 1);
        b.bne(IntReg::R5, "outer");
        b.halt();
        let program = b.build().unwrap();
        let mut cpu = Cpu::new(CpuConfig::table1(), &program).unwrap();
        let mut max_occ = 0;
        while !cpu.done() && cpu.cycle() < 100_000 {
            let act = cpu.step();
            max_occ = max_occ.max(act.ruu_occupancy);
        }
        assert!(cpu.done());
        assert!(max_occ <= 256);
        assert!(
            max_occ >= 250,
            "window should fill behind the miss, got {max_occ}"
        );
    }

    #[test]
    fn activity_totals_match_stats() {
        let mut b = ProgramBuilder::new("t");
        b.lda(IntReg::R1, IntReg::R31, 50);
        b.label("top");
        b.subq_imm(IntReg::R1, IntReg::R1, 1);
        b.bne(IntReg::R1, "top");
        b.halt();
        let program = b.build().unwrap();
        let mut cpu = Cpu::new(CpuConfig::table1(), &program).unwrap();
        let mut committed = 0u64;
        let mut fetched = 0u64;
        while !cpu.done() {
            let act = cpu.step();
            committed += u64::from(act.committed);
            fetched += u64::from(act.fetched);
        }
        assert_eq!(committed, cpu.stats().committed);
        assert_eq!(fetched, cpu.stats().fetched);
        assert_eq!(committed, fetched, "oracle fetch never over-fetches");
    }

    #[test]
    fn done_program_stops_progressing() {
        let mut b = ProgramBuilder::new("t");
        b.nop();
        b.halt();
        let program = b.build().unwrap();
        let mut cpu = Cpu::new(CpuConfig::table1(), &program).unwrap();
        cpu.run(10_000);
        assert!(cpu.done());
        let digest = cpu.arch_digest();
        let act = cpu.step();
        assert!(act.is_idle());
        assert_eq!(cpu.arch_digest(), digest);
    }

    #[test]
    fn divide_chain_creates_low_activity_phases() {
        // Two dependent FP divides stall the machine — the stressmark's
        // low-current phase. Check that a majority of cycles are idle-ish.
        let mut b = ProgramBuilder::new("t");
        b.data_f64(0x1000, &[1.0, 3.0]);
        b.lda(IntReg::R4, IntReg::R31, 0x1000);
        b.ldt(FpReg::F1, 0, IntReg::R4);
        b.ldt(FpReg::F2, 8, IntReg::R4);
        b.lda(IntReg::R1, IntReg::R31, 50);
        b.label("top");
        b.divt(FpReg::F3, FpReg::F1, FpReg::F2);
        b.divt(FpReg::F3, FpReg::F3, FpReg::F2);
        b.subq_imm(IntReg::R1, IntReg::R1, 1);
        b.bne(IntReg::R1, "top");
        b.halt();
        let program = b.build().unwrap();
        let mut cpu = Cpu::new(CpuConfig::table1(), &program).unwrap();
        let mut low_issue_cycles = 0u64;
        let mut total = 0u64;
        while !cpu.done() && cpu.cycle() < 100_000 {
            let act = cpu.step();
            total += 1;
            if act.issued <= 1 {
                low_issue_cycles += 1;
            }
        }
        assert!(cpu.done());
        assert!(
            low_issue_cycles as f64 / total as f64 > 0.6,
            "dependent divides should serialize: {low_issue_cycles}/{total}"
        );
    }

    #[test]
    fn invalid_config_is_rejected() {
        let mut config = CpuConfig::table1();
        config.ruu_size = 0;
        let mut b = ProgramBuilder::new("t");
        b.halt();
        assert!(Cpu::new(config, &b.build().unwrap()).is_err());
    }

    fn busy_program() -> Program {
        let mut b = ProgramBuilder::new("snapshot-target");
        b.data_f64(0x1000, &[9.0, 2.0]);
        b.lda(IntReg::R4, IntReg::R31, 0x1000);
        b.ldt(FpReg::F1, 0, IntReg::R4);
        b.ldt(FpReg::F2, 8, IntReg::R4);
        b.lda(IntReg::R1, IntReg::R31, 300);
        b.label("top");
        b.divt(FpReg::F3, FpReg::F1, FpReg::F2);
        b.ldq(IntReg::R2, 0, IntReg::R4);
        b.stq(IntReg::R2, 64, IntReg::R4);
        b.addq_imm(IntReg::R3, IntReg::R2, 5);
        b.subq_imm(IntReg::R1, IntReg::R1, 1);
        b.bne(IntReg::R1, "top");
        b.halt();
        b.build().unwrap()
    }

    /// Far more independent FP adds per iteration than the machine has FP
    /// adders, so Ready entries wait in the window for a unit.
    fn fp_burst_program() -> Program {
        let mut b = ProgramBuilder::new("fp-burst");
        b.data_f64(0x1000, &[1.5, 2.5]);
        b.lda(IntReg::R4, IntReg::R31, 0x1000);
        b.ldt(FpReg::F1, 0, IntReg::R4);
        b.ldt(FpReg::F2, 8, IntReg::R4);
        b.lda(IntReg::R1, IntReg::R31, 100);
        b.label("top");
        for k in 3..27 {
            b.addt(FpReg::new(k), FpReg::F1, FpReg::F2);
        }
        b.subq_imm(IntReg::R1, IntReg::R1, 1);
        b.bne(IntReg::R1, "top");
        b.halt();
        b.build().unwrap()
    }

    /// Saves `reference` mid-flight, restores it, and checks that the
    /// restored machine re-packs to the same bytes, then steps in
    /// lockstep with the original to the end.
    fn assert_resumes_cycle_for_cycle(program: &Program, mut reference: Cpu) {
        use voltctl_snap::{ByteReader, ByteWriter};
        assert!(!reference.done(), "checkpoint must land mid-flight");
        let pack = |cpu: &Cpu| {
            let mut w = ByteWriter::new();
            cpu.pack_state(&mut w);
            w.into_bytes()
        };
        let bytes = pack(&reference);
        let mut r = ByteReader::new(&bytes);
        let mut restored = Cpu::unpack_state(reference.config.clone(), program, &mut r).unwrap();
        assert!(r.finished(), "decoder must consume the whole snapshot");
        assert_eq!(restored.cycle(), reference.cycle());
        assert_eq!(pack(&restored), bytes);
        assert_eq!(restored.ready, reference.ready);

        // Every subsequent cycle must report identical structural activity.
        while !reference.done() {
            assert_eq!(restored.step(), reference.step());
        }
        assert!(restored.done());
        assert_eq!(restored.arch_digest(), reference.arch_digest());
        assert_eq!(restored.stats(), reference.stats());

        // And re-serializing the restored machine is byte-identical.
        assert_eq!(pack(&restored), pack(&reference));
    }

    #[test]
    fn snapshot_mid_flight_resumes_cycle_for_cycle() {
        let config = CpuConfig::table1();

        // Stop mid-pipeline with the window, LSQ, and FUs all busy.
        let program = busy_program();
        let mut reference = Cpu::new(config.clone(), &program).unwrap();
        reference.run(137);
        assert_resumes_cycle_for_cycle(&program, reference);

        // Stop where FP adds that were Ready at issue lost the unit race
        // and still wait in the window.
        let program = fp_burst_program();
        let mut reference = Cpu::new(config.clone(), &program).unwrap();
        let waiting_fp_adds = |cpu: &Cpu| {
            cpu.ruu
                .iter()
                .flatten()
                .filter(|e| e.state == EntryState::Ready && e.fu == Some(FuKind::FpAlu))
                .count()
        };
        while waiting_fp_adds(&reference) <= config.issue_width + config.fu.fp_alu {
            reference.step();
            assert!(reference.cycle() < 10_000, "FP adds never backed up");
        }
        assert_resumes_cycle_for_cycle(&program, reference);
    }

    #[test]
    fn snapshot_rejects_wrong_program_and_config() {
        use voltctl_snap::{ByteReader, ByteWriter};
        let program = busy_program();
        let config = CpuConfig::table1();
        let mut cpu = Cpu::new(config.clone(), &program).unwrap();
        cpu.run(50);
        let mut w = ByteWriter::new();
        cpu.pack_state(&mut w);
        let bytes = w.into_bytes();

        let mut b = ProgramBuilder::new("other");
        b.nop();
        b.halt();
        let other = b.build().unwrap();
        let err =
            Cpu::unpack_state(config.clone(), &other, &mut ByteReader::new(&bytes)).unwrap_err();
        assert!(err.to_string().contains("different program"), "{err}");

        let mut other_config = config;
        other_config.ruu_size = 128;
        let err =
            Cpu::unpack_state(other_config, &program, &mut ByteReader::new(&bytes)).unwrap_err();
        assert!(err.to_string().contains("different machine"), "{err}");
    }

    #[test]
    fn snapshot_truncations_never_panic() {
        use voltctl_snap::{ByteReader, ByteWriter};
        let program = busy_program();
        // A minimal valid machine: one-set caches and tiny predictor
        // tables keep the image near 14 KB (most of it the fixed
        // completion ring and the one data page), so every prefix is
        // tried.
        let mut config = CpuConfig::small();
        config.bpred = crate::config::BpredConfig {
            bimodal_entries: 4,
            gshare_entries: 4,
            chooser_entries: 4,
            history_bits: 2,
            btb_entries: 4,
            ras_entries: 2,
        };
        let one_set = |ways| crate::config::CacheConfig {
            size_bytes: ways * 64,
            ways,
            line_bytes: 64,
            hit_latency: 1,
        };
        config.l1i = one_set(1);
        config.l1d = one_set(2);
        config.l2 = one_set(2);
        let mut cpu = Cpu::new(config.clone(), &program).unwrap();
        cpu.run(137);
        let mut w = ByteWriter::new();
        cpu.pack_state(&mut w);
        let bytes = w.into_bytes();
        assert!(bytes.len() < 16 * 1024, "{} bytes", bytes.len());
        let mut r = ByteReader::new(&bytes);
        Cpu::unpack_state(config.clone(), &program, &mut r).expect("the full image decodes");
        // Every proper prefix must fail cleanly with an error.
        for cut in 0..bytes.len() {
            let mut r = ByteReader::new(&bytes[..cut]);
            assert!(
                Cpu::unpack_state(config.clone(), &program, &mut r).is_err(),
                "truncation at {cut} must be rejected"
            );
        }
    }
}
