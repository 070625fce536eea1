//! The closed-loop integrated simulator (Figures 7 and 12).
//!
//! One [`ControlLoop`] couples every layer of the paper's methodology:
//! the cycle-level CPU produces per-cycle activity; the structural power
//! model turns it into current; the discretized PDN turns current into
//! supply voltage; the threshold sensor/controller/actuator close the loop
//! back onto the CPU's clock-gating state. Running without thresholds
//! gives the uncontrolled baseline the evaluations compare against.
//!
//! Actuation commands decided at the end of cycle *t* take effect in cycle
//! *t+1* — a one-cycle actuator latency inherent to any real
//! implementation, on top of the configurable sensor delay.
//!
//! # Observability
//!
//! The loop is generic over a [`Recorder`] (default [`NullRecorder`]):
//! per-cycle voltage/current samples, controller-state cycle counters, and
//! wall-clock timers around the CPU/power/PDN/control sub-steps stream
//! into it. Metric names are resolved to [`MetricId`]s once at build
//! time and samples go through the id-indexed recorder methods; sub-step
//! timers are sampled one cycle in [`TIMER_SAMPLE_STRIDE`] so clock
//! reads stay off the common path. With the default recorder, `R::ENABLED` is false and every
//! instrumentation site monomorphizes away — the disabled loop is the
//! uninstrumented loop. Attach a real recorder with
//! [`ControlLoopBuilder::recorder`] and flush run-level aggregates with
//! [`ControlLoop::finish_telemetry`].
//!
//! The loop is also generic over a [`Tracer`] (default [`NullTracer`],
//! same compile-time-off contract): when enabled, every cycle emits one
//! [`CycleRecord`](voltctl_trace::CycleRecord) — current, voltage,
//! ground-truth supply band, sensed band, and microarchitectural event
//! bits — into the attached flight recorder. Attach one with
//! [`ControlLoopBuilder::tracer`].

use crate::actuator::{ActuationScope, AsymmetricActuator};
use crate::controller::{ControlAction, ThresholdController};
use crate::sensor::{SensorConfig, SensorReading, ThresholdSensor};
use crate::thresholds::{ControlError, Thresholds};
use voltctl_cpu::{Cpu, CpuConfig, CycleActivity, GatingState};
use voltctl_isa::Program;
use voltctl_pdn::emergency::VoltageBand;
use voltctl_pdn::{figure10_histogram, EmergencyReport, PdnModel, PdnState, VoltageMonitor};
use voltctl_power::{EnergyAccumulator, PowerModel};
use voltctl_snap::{Pack, SnapError, SnapshotKind, SnapshotReader, SnapshotWriter, Unpack};
use voltctl_telemetry::{LinearHistogram, MetricId, NullRecorder, Recorder, Stopwatch};
use voltctl_trace::{events, CycleRecord, NullTracer, SensorBand, SupplyBand, Tracer};

/// Sub-step wall-clock timers are sampled every this many cycles (two
/// clock reads per sampled span). Stride sampling keeps the recorded
/// loop honest about where time goes without paying eight `Instant::now`
/// calls on every cycle; the sampled mean is unbiased for steady-state
/// sub-step costs.
pub const TIMER_SAMPLE_STRIDE: u64 = 64;

/// The per-cycle metric ids, resolved once at build time so the hot loop
/// records through flat-index lookups ([`Recorder::value_id`] /
/// [`Recorder::timer_id`]) instead of per-sample name maps.
#[derive(Debug, Clone, Copy, Default)]
struct LoopMetricIds {
    voltage: MetricId,
    current: MetricId,
    cpu_ns: MetricId,
    power_ns: MetricId,
    pdn_ns: MetricId,
    control_ns: MetricId,
}

impl LoopMetricIds {
    fn resolve<R: Recorder>(rec: &mut R) -> LoopMetricIds {
        if !R::ENABLED {
            return LoopMetricIds::default();
        }
        LoopMetricIds {
            voltage: rec.metric_id("loop.voltage_v"),
            current: rec.metric_id("loop.current_a"),
            cpu_ns: rec.metric_id("loop.step.cpu_ns"),
            power_ns: rec.metric_id("loop.step.power_ns"),
            pdn_ns: rec.metric_id("loop.step.pdn_ns"),
            control_ns: rec.metric_id("loop.step.control_ns"),
        }
    }
}

/// One cycle's observables (optionally recorded).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct LoopSample {
    /// Current drawn this cycle (amps).
    pub current: f64,
    /// Supply voltage at end of cycle (volts).
    pub voltage: f64,
    /// Whether the actuator was reducing current this cycle.
    pub reducing: bool,
    /// Whether the actuator was phantom-firing this cycle.
    pub increasing: bool,
}

impl voltctl_snap::Pack for LoopSample {
    fn pack(&self, w: &mut voltctl_snap::ByteWriter) {
        w.put_f64(self.current);
        w.put_f64(self.voltage);
        w.put_bool(self.reducing);
        w.put_bool(self.increasing);
    }
}

impl voltctl_snap::Unpack for LoopSample {
    fn unpack(r: &mut voltctl_snap::ByteReader<'_>) -> Result<Self, SnapError> {
        Ok(LoopSample {
            current: r.get_f64()?,
            voltage: r.get_f64()?,
            reducing: r.get_bool()?,
            increasing: r.get_bool()?,
        })
    }
}

/// Section tags of the [`SnapshotKind::Loop`] container written by
/// [`ControlLoop::save`]. Every section is at schema version
/// [`LOOP_SECTION_VERSION`]; unknown tags are skipped on read so future
/// versions can append sections without breaking old readers.
mod section {
    /// Nominal voltage, power-model fingerprint, band cycle counters.
    pub const META: u16 = 1;
    /// Full microarchitectural CPU state (self-validating against the
    /// program digest and machine-configuration fingerprint).
    pub const CPU: u16 = 2;
    /// The discretized supply network mid-transient.
    pub const PDN: u16 = 3;
    /// The threshold sensor (delay pipeline + noise RNG), if controlled.
    pub const SENSOR: u16 = 4;
    /// The threshold controller FSM and its intervention counters.
    pub const CONTROLLER: u16 = 5;
    /// The actuation scopes in effect.
    pub const ACTUATOR: u16 = 6;
    /// Voltage monitor, histogram, and energy accumulator.
    pub const MONITOR: u16 = 7;
    /// The recorded per-cycle sample trace, when enabled.
    pub const TRACE: u16 = 8;
}

/// Schema version of every loop-snapshot section this build writes.
pub const LOOP_SECTION_VERSION: u16 = 1;

/// Builder for [`ControlLoop`].
#[derive(Debug)]
pub struct ControlLoopBuilder<R: Recorder = NullRecorder, T: Tracer = NullTracer> {
    program: Program,
    cpu_config: CpuConfig,
    power: Option<PowerModel>,
    pdn: Option<PdnModel>,
    thresholds: Option<Thresholds>,
    sensor: SensorConfig,
    actuator: AsymmetricActuator,
    record_trace: bool,
    recorder: R,
    tracer: T,
}

impl<R: Recorder, T: Tracer> ControlLoopBuilder<R, T> {
    /// Selects the machine configuration (default: Table 1).
    pub fn cpu_config(mut self, config: CpuConfig) -> Self {
        self.cpu_config = config;
        self
    }

    /// Sets the power model (required).
    pub fn power(mut self, power: PowerModel) -> Self {
        self.power = Some(power);
        self
    }

    /// Sets the supply-network model (required).
    pub fn pdn(mut self, pdn: PdnModel) -> Self {
        self.pdn = Some(pdn);
        self
    }

    /// Enables control with these thresholds (omit for the uncontrolled
    /// baseline). Sensor error compensation is applied automatically:
    /// the deployed thresholds are tightened by the configured noise
    /// bound.
    pub fn thresholds(mut self, thresholds: Thresholds) -> Self {
        self.thresholds = Some(thresholds);
        self
    }

    /// Configures the sensor (delay, noise, seed).
    pub fn sensor(mut self, sensor: SensorConfig) -> Self {
        self.sensor = sensor;
        self
    }

    /// Selects the actuation scope for both responses (default: FU/DL1).
    pub fn scope(mut self, scope: ActuationScope) -> Self {
        self.actuator = AsymmetricActuator::symmetric(scope);
        self
    }

    /// Selects an asymmetric actuator (§6 extension): one scope gated on
    /// undershoot, another phantom-fired on overshoot.
    pub fn actuator(mut self, actuator: AsymmetricActuator) -> Self {
        self.actuator = actuator;
        self
    }

    /// Records per-cycle samples (memory-heavy; for trace figures).
    pub fn record_trace(mut self, record: bool) -> Self {
        self.record_trace = record;
        self
    }

    /// Attaches a telemetry recorder; the built loop streams per-cycle
    /// samples and sub-step timings into it.
    pub fn recorder<R2: Recorder>(self, recorder: R2) -> ControlLoopBuilder<R2, T> {
        ControlLoopBuilder {
            program: self.program,
            cpu_config: self.cpu_config,
            power: self.power,
            pdn: self.pdn,
            thresholds: self.thresholds,
            sensor: self.sensor,
            actuator: self.actuator,
            record_trace: self.record_trace,
            recorder,
            tracer: self.tracer,
        }
    }

    /// Attaches a cycle tracer (e.g. a
    /// [`FlightRecorder`](voltctl_trace::FlightRecorder), or `&mut` one);
    /// the built loop emits one [`CycleRecord`] per cycle into it.
    pub fn tracer<T2: Tracer>(self, tracer: T2) -> ControlLoopBuilder<R, T2> {
        ControlLoopBuilder {
            program: self.program,
            cpu_config: self.cpu_config,
            power: self.power,
            pdn: self.pdn,
            thresholds: self.thresholds,
            sensor: self.sensor,
            actuator: self.actuator,
            record_trace: self.record_trace,
            recorder: self.recorder,
            tracer,
        }
    }

    /// Builds the loop.
    ///
    /// # Errors
    ///
    /// [`ControlError::Infeasible`] when required parts are missing, the
    /// CPU configuration fails validation, or error compensation consumes
    /// the threshold window.
    pub fn build(self) -> Result<ControlLoop<R, T>, ControlError> {
        let power = self
            .power
            .ok_or_else(|| ControlError::Infeasible("power model is required".into()))?;
        let pdn = self
            .pdn
            .ok_or_else(|| ControlError::Infeasible("PDN model is required".into()))?;
        let cpu = Cpu::new(self.cpu_config, &self.program).map_err(ControlError::Infeasible)?;

        let sensor = match self.thresholds {
            Some(t) => {
                let deployed = t.tightened(self.sensor.noise_mv)?;
                Some(ThresholdSensor::new(
                    deployed.v_low,
                    deployed.v_high,
                    pdn.v_nominal(),
                    self.sensor,
                ))
            }
            None => None,
        };

        let mut pdn_state = pdn.discretize();
        pdn_state.set_reference_current(power.min_current());
        let monitor = VoltageMonitor::new(pdn.v_nominal(), pdn.tolerance());
        let energy = EnergyAccumulator::new(pdn.clock_hz());
        let mut recorder = self.recorder;
        let metric_ids = LoopMetricIds::resolve(&mut recorder);

        Ok(ControlLoop {
            cpu,
            power,
            tail: LoopTail {
                pdn_state,
                v_nominal: pdn.v_nominal(),
                sensor,
                controller: ThresholdController::new(),
                actuator: self.actuator,
                monitor,
                histogram: figure10_histogram(),
                energy,
                trace: self.record_trace.then(Vec::new),
                cycles_in_low: 0,
                cycles_in_normal: 0,
                cycles_in_high: 0,
            },
            recorder,
            metric_ids,
            tracer: self.tracer,
        })
    }

    /// Builds the loop and restores it to the state captured by
    /// [`ControlLoop::save`], so stepping continues bit-for-bit where the
    /// saved run left off.
    ///
    /// The builder supplies everything a snapshot deliberately does not
    /// carry — the program, the machine configuration, the power model,
    /// and the attached observers — and those must match the producing
    /// run: the snapshot embeds the program digest and configuration
    /// fingerprints and restoration fails on any mismatch. Everything
    /// else (pipeline state, supply transient, sensor pipeline and noise
    /// RNG, controller counters, actuation scopes, monitor/histogram/
    /// energy aggregates, the recorded sample trace) comes from the
    /// snapshot, replacing whatever the builder configured.
    ///
    /// Restoration is atomic: the snapshot is fully decoded and validated
    /// before any loop state is touched, so an error never leaves a
    /// half-restored loop.
    ///
    /// # Errors
    ///
    /// [`ControlError::Infeasible`] when the builder itself is infeasible,
    /// when the bytes are not a loop snapshot (wrong magic, kind, version,
    /// truncation, corruption), or when the snapshot was taken under a
    /// different program, machine configuration, power model, or
    /// control-enablement than this builder specifies.
    pub fn restore(self, bytes: &[u8]) -> Result<ControlLoop<R, T>, ControlError> {
        let program = self.program.clone();
        let cpu_config = self.cpu_config.clone();
        let mut sim = self.build()?;
        sim.apply_snapshot(cpu_config, &program, bytes)?;
        Ok(sim)
    }
}

/// The closed-loop simulator.
#[derive(Debug)]
pub struct ControlLoop<R: Recorder = NullRecorder, T: Tracer = NullTracer> {
    cpu: Cpu,
    power: PowerModel,
    tail: LoopTail,
    recorder: R,
    metric_ids: LoopMetricIds,
    tracer: T,
}

/// Everything a loop owns downstream of its CPU and power model: the
/// supply network, the sensor/controller/actuator chain, the
/// ground-truth observers, the sample trace, and the band counters.
///
/// Its methods are the per-cycle stages [`ControlLoop::step`] runs after
/// `cpu.step()` and [`cycle_draw`], in order: [`supply`](Self::supply),
/// [`observe`](Self::observe), [`sense`](Self::sense) (+
/// [`actuate`](Self::actuate)), [`finish_cycle`](Self::finish_cycle).
/// The lane path ([`crate::lane`]) keeps one tail per lane and calls the
/// same stages, so a lane performs exactly the scalar loop's f64
/// operations by construction.
#[derive(Debug, Clone)]
pub(crate) struct LoopTail {
    pdn_state: PdnState,
    v_nominal: f64,
    sensor: Option<ThresholdSensor>,
    controller: ThresholdController,
    actuator: AsymmetricActuator,
    monitor: VoltageMonitor,
    histogram: LinearHistogram,
    energy: EnergyAccumulator,
    trace: Option<Vec<LoopSample>>,
    cycles_in_low: u64,
    cycles_in_normal: u64,
    cycles_in_high: u64,
}

/// The power stage: this cycle's draw in watts and amps.
#[inline]
pub(crate) fn cycle_draw(
    power: &PowerModel,
    act: &CycleActivity,
    gating: &GatingState,
) -> (f64, f64) {
    let watts = power.cycle_power(act, gating).total();
    (watts, watts / power.params().vdd)
}

impl LoopTail {
    /// Advances the supply network one cycle under `amps`; returns the
    /// die voltage.
    #[inline]
    pub(crate) fn supply(&mut self, amps: f64) -> f64 {
        self.pdn_state.step(amps)
    }

    /// Feeds the ground-truth observers: emergency monitor, voltage
    /// histogram, energy. Returns the supply band.
    #[inline]
    pub(crate) fn observe(&mut self, volts: f64, watts: f64) -> VoltageBand {
        let band = self.monitor.observe(volts);
        self.histogram.record(volts);
        self.energy.add_cycle(watts);
        band
    }

    /// Runs the sensor and controller on this cycle's voltage. Returns
    /// the sensed band and, for controlled loops, the commanded action.
    #[inline]
    pub(crate) fn sense(&mut self, volts: f64) -> (SensorReading, Option<ControlAction>) {
        match &mut self.sensor {
            Some(sensor) => {
                let reading = sensor.observe(volts);
                (reading, Some(self.controller.decide(reading)))
            }
            None => (SensorReading::Normal, None),
        }
    }

    /// Drives `gating` to what the actuator commands for `action`.
    /// Actuation is absolute (it releases everything first), so the
    /// result does not depend on the prior gating.
    #[inline]
    pub(crate) fn actuate(&self, action: ControlAction, gating: &mut GatingState) {
        self.actuator.apply(action, gating);
    }

    /// Closes the cycle: band counters and the trace sample, tagged with
    /// the gating the cycle ran under.
    #[inline]
    pub(crate) fn finish_cycle(
        &mut self,
        reading: SensorReading,
        amps: f64,
        volts: f64,
        gating: &GatingState,
    ) -> LoopSample {
        match reading {
            SensorReading::Low => self.cycles_in_low += 1,
            SensorReading::Normal => self.cycles_in_normal += 1,
            SensorReading::High => self.cycles_in_high += 1,
        }
        let sample = LoopSample {
            current: amps,
            voltage: volts,
            reducing: gating.gate_fu || gating.gate_dl1 || gating.gate_il1,
            increasing: gating.phantom_fu || gating.phantom_dl1 || gating.phantom_il1,
        };
        if let Some(trace) = &mut self.trace {
            trace.push(sample);
        }
        sample
    }

    /// The run report for this tail driven by `cpu`.
    pub(crate) fn report(&self, cpu: &Cpu) -> LoopReport {
        let stats = cpu.stats();
        LoopReport {
            cycles: stats.cycles,
            committed: stats.committed,
            ipc: stats.ipc(),
            emergencies: self.monitor.report(),
            energy_joules: self.energy.joules(),
            avg_power: self.energy.average_power(),
            reduce_cycles: self.controller.reduce_cycles(),
            increase_cycles: self.controller.increase_cycles(),
            interventions: self.controller.reduce_events() + self.controller.increase_events(),
            cycles_in_low: self.cycles_in_low,
            cycles_in_normal: self.cycles_in_normal,
            cycles_in_high: self.cycles_in_high,
        }
    }

    /// Takes the recorded per-cycle trace (empty unless recording).
    pub(crate) fn take_trace(&mut self) -> Vec<LoopSample> {
        self.trace.take().unwrap_or_default()
    }
}

/// Run-level results.
#[derive(Debug, Clone, PartialEq)]
pub struct LoopReport {
    /// Cycles simulated.
    pub cycles: u64,
    /// Instructions committed.
    pub committed: u64,
    /// Instructions per cycle.
    pub ipc: f64,
    /// Voltage-emergency statistics.
    pub emergencies: EmergencyReport,
    /// Total energy in joules.
    pub energy_joules: f64,
    /// Average power in watts.
    pub avg_power: f64,
    /// Cycles the actuator spent gating.
    pub reduce_cycles: u64,
    /// Cycles the actuator spent phantom-firing.
    pub increase_cycles: u64,
    /// Distinct controller interventions.
    pub interventions: u64,
    /// Cycles the sensed supply was in the Low band.
    pub cycles_in_low: u64,
    /// Cycles the sensed supply was in the Normal band (all cycles when
    /// running uncontrolled).
    pub cycles_in_normal: u64,
    /// Cycles the sensed supply was in the High band.
    pub cycles_in_high: u64,
}

impl LoopReport {
    /// Fraction of cycles the actuator spent gating (the gating duty
    /// cycle; 0 with no cycles).
    pub fn gating_duty(&self) -> f64 {
        if self.cycles == 0 {
            0.0
        } else {
            self.reduce_cycles as f64 / self.cycles as f64
        }
    }
}

impl ControlLoop {
    /// Starts building a loop around `program`.
    pub fn builder(program: Program) -> ControlLoopBuilder {
        ControlLoopBuilder {
            program,
            cpu_config: CpuConfig::table1(),
            power: None,
            pdn: None,
            thresholds: None,
            sensor: SensorConfig::default(),
            actuator: AsymmetricActuator::symmetric(ActuationScope::FuDl1),
            record_trace: false,
            recorder: NullRecorder,
            tracer: NullTracer,
        }
    }
}

/// Fingerprint of a power model's full parameterization, embedded in loop
/// snapshots so restoration detects a rebuild under different power
/// assumptions (which would silently change every current sample). Also
/// part of the lane-group key (see [`crate::lane`]): two loops may share
/// one CPU only when their power models are parameter-identical.
pub(crate) fn power_fingerprint(power: &PowerModel) -> u64 {
    voltctl_snap::fnv1a(format!("{power:?}").as_bytes())
}

impl ControlLoop {
    /// Splits an (unobserved) loop into its CPU, power model, and tail
    /// for the lane path. Only the default `NullRecorder`/`NullTracer`
    /// instantiation can enter the lane path: per-cycle observers fire
    /// from the scalar step.
    pub(crate) fn into_tail(self) -> (Cpu, PowerModel, LoopTail) {
        (self.cpu, self.power, self.tail)
    }

    /// Reassembles a loop from the parts [`into_tail`](Self::into_tail)
    /// returned; a loop rebuilt from unmodified parts has the same
    /// [`save`](Self::save) bytes as the loop that was split.
    pub(crate) fn from_tail(cpu: Cpu, power: PowerModel, tail: LoopTail) -> ControlLoop {
        ControlLoop {
            cpu,
            power,
            tail,
            recorder: NullRecorder,
            metric_ids: LoopMetricIds::default(),
            tracer: NullTracer,
        }
    }
}

/// Maps the monitor's ground-truth band into the trace vocabulary.
fn supply_band(band: VoltageBand) -> SupplyBand {
    match band {
        VoltageBand::UnderEmergency => SupplyBand::Under,
        VoltageBand::Safe => SupplyBand::Safe,
        VoltageBand::OverEmergency => SupplyBand::Over,
    }
}

/// Maps the sensed control band into the trace vocabulary.
fn sensor_band(reading: SensorReading) -> SensorBand {
    match reading {
        SensorReading::Low => SensorBand::Low,
        SensorReading::Normal => SensorBand::Normal,
        SensorReading::High => SensorBand::High,
    }
}

/// Packs one cycle's microarchitectural activity and actuator state into
/// trace event bits.
fn event_bits(act: &CycleActivity, gating: &GatingState) -> u16 {
    let mut bits = 0u16;
    if act.dl1_misses > 0 {
        bits |= events::DL1_MISS;
    }
    if act.il1_misses > 0 {
        bits |= events::IL1_MISS;
    }
    if act.l2_misses > 0 {
        bits |= events::L2_MISS;
    }
    if act.mispredicts > 0 {
        bits |= events::MISPREDICT;
    }
    if act.issued == 0 {
        bits |= events::STALL;
    }
    if gating.gate_fu {
        bits |= events::GATE_FU;
    }
    if gating.gate_dl1 {
        bits |= events::GATE_DL1;
    }
    if gating.gate_il1 {
        bits |= events::GATE_IL1;
    }
    if gating.phantom_fu {
        bits |= events::PHANTOM_FU;
    }
    if gating.phantom_dl1 {
        bits |= events::PHANTOM_DL1;
    }
    if gating.phantom_il1 {
        bits |= events::PHANTOM_IL1;
    }
    bits
}

impl<R: Recorder, T: Tracer> ControlLoop<R, T> {
    /// Advances one cycle.
    pub fn step(&mut self) -> LoopSample {
        // 0-based index of the cycle about to execute; only read when an
        // observer is enabled so the disabled loop stays byte-identical.
        let cycle = if R::ENABLED || T::ENABLED {
            self.cpu.stats().cycles
        } else {
            0
        };
        // Sub-step timers are stride-sampled: two clock reads per span
        // are the recorded path's single biggest tax, so only one cycle
        // in TIMER_SAMPLE_STRIDE pays them.
        let time_substeps = R::ENABLED && cycle % TIMER_SAMPLE_STRIDE == 0;
        let gating = self.cpu.gating();

        let sw = Stopwatch::started_if(time_substeps);
        let act = self.cpu.step();
        sw.stop_id(&mut self.recorder, self.metric_ids.cpu_ns);

        let sw = Stopwatch::started_if(time_substeps);
        let (watts, amps) = cycle_draw(&self.power, &act, &gating);
        sw.stop_id(&mut self.recorder, self.metric_ids.power_ns);

        let sw = Stopwatch::started_if(time_substeps);
        let volts = self.tail.supply(amps);
        sw.stop_id(&mut self.recorder, self.metric_ids.pdn_ns);

        let band = self.tail.observe(volts, watts);

        let sw = Stopwatch::started_if(time_substeps);
        let (reading, action) = self.tail.sense(volts);
        if let Some(action) = action {
            self.tail.actuate(action, self.cpu.gating_mut());
        }
        sw.stop_id(&mut self.recorder, self.metric_ids.control_ns);

        if T::ENABLED {
            self.tracer.cycle(CycleRecord {
                cycle,
                current: amps,
                voltage: volts,
                supply: supply_band(band),
                sensor: sensor_band(reading),
                events: event_bits(&act, &gating),
            });
        }
        if R::ENABLED {
            self.recorder.value_id(self.metric_ids.voltage, volts);
            self.recorder.value_id(self.metric_ids.current, amps);
        }
        self.tail.finish_cycle(reading, amps, volts, &gating)
    }

    /// Advances up to `budget` cycles, stopping early when the program
    /// finishes, and returns how many cycles actually ran.
    ///
    /// This is the resumable execution primitive: run a slice, ask
    /// [`done`](Self::done), [`save`](Self::save) at any boundary, and a
    /// loop restored from that snapshot continues the remaining slices
    /// bit-for-bit. When trace recording is on, the sample buffer is
    /// reserved up front (capped at 2^22 samples per call for
    /// pathological budgets) so the hot loop never reallocates mid-run.
    pub fn step_n(&mut self, budget: u64) -> u64 {
        if let Some(trace) = &mut self.tail.trace {
            trace.reserve(budget.min(1 << 22) as usize);
        }
        let mut stepped = 0;
        while stepped < budget && !self.cpu.done() {
            self.step();
            stepped += 1;
        }
        stepped
    }

    /// Whether the program has finished and drained.
    pub fn done(&self) -> bool {
        self.cpu.done()
    }

    /// The underlying CPU (stats, architectural state).
    pub fn cpu(&self) -> &Cpu {
        &self.cpu
    }

    /// The voltage histogram accumulated so far (Figure 10).
    pub fn histogram(&self) -> &LinearHistogram {
        &self.tail.histogram
    }

    /// The attached telemetry recorder.
    pub fn recorder(&self) -> &R {
        &self.recorder
    }

    /// The attached telemetry recorder, mutably.
    pub fn recorder_mut(&mut self) -> &mut R {
        &mut self.recorder
    }

    /// Consumes the loop, returning its recorder.
    pub fn into_recorder(self) -> R {
        self.recorder
    }

    /// The attached cycle tracer.
    pub fn tracer(&self) -> &T {
        &self.tracer
    }

    /// The attached cycle tracer, mutably.
    pub fn tracer_mut(&mut self) -> &mut T {
        &mut self.tracer
    }

    /// Consumes the loop, returning its tracer.
    pub fn into_tracer(self) -> T {
        self.tracer
    }

    /// Consumes the loop, returning its recorder and tracer together.
    pub fn into_parts(self) -> (R, T) {
        (self.recorder, self.tracer)
    }

    /// Takes the recorded per-cycle trace (empty unless
    /// [`ControlLoopBuilder::record_trace`] was enabled).
    pub fn take_trace(&mut self) -> Vec<LoopSample> {
        self.tail.take_trace()
    }

    /// Produces the run report.
    pub fn report(&self) -> LoopReport {
        self.tail.report(&self.cpu)
    }

    /// Flushes run-level aggregates into the recorder: controller-state
    /// cycle totals, intervention/gating counters, the gating duty cycle,
    /// emergency statistics, the voltage histogram, per-unit CPU activity,
    /// and accumulated energy. Call once after the run; per-cycle streams
    /// (sub-step timers, voltage/current samples) are recorded as the loop
    /// executes and need no flush.
    pub fn finish_telemetry(&mut self) {
        if !R::ENABLED {
            return;
        }
        let report = self.report();
        let rec = &mut self.recorder;
        rec.counter("loop.cycles", report.cycles);
        rec.counter("loop.committed", report.committed);
        rec.counter("loop.cycles_in_low", report.cycles_in_low);
        rec.counter("loop.cycles_in_normal", report.cycles_in_normal);
        rec.counter("loop.cycles_in_high", report.cycles_in_high);
        rec.counter("loop.reduce_cycles", report.reduce_cycles);
        rec.counter("loop.increase_cycles", report.increase_cycles);
        rec.counter("loop.interventions", report.interventions);
        rec.value("loop.gating_duty", report.gating_duty());
        rec.value("loop.ipc", report.ipc);
        report.emergencies.record_telemetry(rec);
        rec.histogram("loop.voltage_hist", &self.tail.histogram);
        self.cpu.stats().record_telemetry(rec);
        self.tail.energy.record_telemetry(rec);
    }

    /// Serializes the loop's complete simulation state into a versioned
    /// [`SnapshotKind::Loop`] container.
    ///
    /// The snapshot captures everything that evolves as the loop steps —
    /// CPU microarchitectural state, the supply transient, the sensor's
    /// delay pipeline and noise RNG, controller counters, actuation
    /// scopes, monitor/histogram/energy aggregates, and the recorded
    /// sample trace — so [`ControlLoopBuilder::restore`] resumes
    /// bit-for-bit. Static inputs (program, machine configuration, power
    /// model) are *not* stored; they are fingerprinted so restoration can
    /// verify the rebuilt loop matches, and the observers (recorder,
    /// tracer) stay outside: both [`MemoryRecorder`] and
    /// [`FlightRecorder`](voltctl_trace::FlightRecorder) implement
    /// [`Pack`] themselves, so callers checkpoint them alongside.
    ///
    /// [`MemoryRecorder`]: voltctl_telemetry::MemoryRecorder
    pub fn save(&self) -> Vec<u8> {
        let mut snap = SnapshotWriter::new(SnapshotKind::Loop);

        let mut w = voltctl_snap::ByteWriter::new();
        w.put_f64(self.tail.v_nominal);
        w.put_u64(power_fingerprint(&self.power));
        w.put_u64(self.tail.cycles_in_low);
        w.put_u64(self.tail.cycles_in_normal);
        w.put_u64(self.tail.cycles_in_high);
        snap.section(section::META, LOOP_SECTION_VERSION, w);

        let mut w = voltctl_snap::ByteWriter::new();
        self.cpu.pack_state(&mut w);
        snap.section(section::CPU, LOOP_SECTION_VERSION, w);

        let mut w = voltctl_snap::ByteWriter::new();
        self.tail.pdn_state.pack(&mut w);
        snap.section(section::PDN, LOOP_SECTION_VERSION, w);

        let mut w = voltctl_snap::ByteWriter::new();
        self.tail.sensor.pack(&mut w);
        snap.section(section::SENSOR, LOOP_SECTION_VERSION, w);

        let mut w = voltctl_snap::ByteWriter::new();
        self.tail.controller.pack(&mut w);
        snap.section(section::CONTROLLER, LOOP_SECTION_VERSION, w);

        let mut w = voltctl_snap::ByteWriter::new();
        self.tail.actuator.pack(&mut w);
        snap.section(section::ACTUATOR, LOOP_SECTION_VERSION, w);

        let mut w = voltctl_snap::ByteWriter::new();
        self.tail.monitor.pack(&mut w);
        self.tail.histogram.pack(&mut w);
        // The sample total an older histogram type stored, kept so
        // checkpoints keep their layout.
        w.put_u64(self.tail.histogram.total());
        self.tail.energy.pack(&mut w);
        snap.section(section::MONITOR, LOOP_SECTION_VERSION, w);

        let mut w = voltctl_snap::ByteWriter::new();
        self.tail.trace.pack(&mut w);
        snap.section(section::TRACE, LOOP_SECTION_VERSION, w);

        snap.finish()
    }

    /// Decodes a loop snapshot and swaps it in. Two-phase: every section
    /// is decoded and validated into locals first, then the loop's fields
    /// are replaced together, so a failure cannot leave mixed state.
    fn apply_snapshot(
        &mut self,
        config: CpuConfig,
        program: &Program,
        bytes: &[u8],
    ) -> Result<(), ControlError> {
        let snap_err = |e: SnapError| ControlError::Infeasible(format!("snapshot: {e}"));
        let reader = SnapshotReader::parse(bytes).map_err(snap_err)?;
        if reader.kind() != SnapshotKind::Loop {
            return Err(ControlError::Infeasible(format!(
                "expected a loop snapshot, found a {} snapshot",
                reader.kind().name()
            )));
        }
        let section_reader = |tag: u16, what: &'static str| {
            let sec = reader.require(tag, what).map_err(snap_err)?;
            if sec.version != LOOP_SECTION_VERSION {
                return Err(snap_err(SnapError::UnsupportedVersion {
                    what,
                    found: u32::from(sec.version),
                    supported: u32::from(LOOP_SECTION_VERSION),
                }));
            }
            Ok(sec.reader())
        };

        let mut r = section_reader(section::META, "loop metadata")?;
        let v_nominal = r.get_f64().map_err(snap_err)?;
        let power_fp = r.get_u64().map_err(snap_err)?;
        let cycles_in_low = r.get_u64().map_err(snap_err)?;
        let cycles_in_normal = r.get_u64().map_err(snap_err)?;
        let cycles_in_high = r.get_u64().map_err(snap_err)?;
        r.expect_end("loop metadata").map_err(snap_err)?;
        if power_fp != power_fingerprint(&self.power) {
            return Err(ControlError::Infeasible(
                "snapshot was taken with a different power model".into(),
            ));
        }

        let mut r = section_reader(section::CPU, "cpu state")?;
        let cpu = Cpu::unpack_state(config, program, &mut r).map_err(snap_err)?;
        r.expect_end("cpu state").map_err(snap_err)?;

        let mut r = section_reader(section::PDN, "supply state")?;
        let pdn_state = PdnState::unpack(&mut r).map_err(snap_err)?;
        r.expect_end("supply state").map_err(snap_err)?;

        let mut r = section_reader(section::SENSOR, "sensor state")?;
        let sensor: Option<ThresholdSensor> = Unpack::unpack(&mut r).map_err(snap_err)?;
        r.expect_end("sensor state").map_err(snap_err)?;
        if sensor.is_some() != self.tail.sensor.is_some() {
            return Err(ControlError::Infeasible(format!(
                "snapshot is of {} run but the builder configured {}",
                if sensor.is_some() {
                    "a controlled"
                } else {
                    "an uncontrolled"
                },
                if self.tail.sensor.is_some() {
                    "control thresholds"
                } else {
                    "no control"
                },
            )));
        }

        let mut r = section_reader(section::CONTROLLER, "controller state")?;
        let controller = ThresholdController::unpack(&mut r).map_err(snap_err)?;
        r.expect_end("controller state").map_err(snap_err)?;

        let mut r = section_reader(section::ACTUATOR, "actuator state")?;
        let actuator = AsymmetricActuator::unpack(&mut r).map_err(snap_err)?;
        r.expect_end("actuator state").map_err(snap_err)?;

        let mut r = section_reader(section::MONITOR, "monitor state")?;
        let monitor = VoltageMonitor::unpack(&mut r).map_err(snap_err)?;
        let histogram = LinearHistogram::unpack(&mut r).map_err(snap_err)?;
        let total = r.get_u64().map_err(snap_err)?;
        if total != histogram.total() {
            return Err(snap_err(SnapError::Corrupt(format!(
                "voltage histogram claims {total} samples but holds {}",
                histogram.total()
            ))));
        }
        let energy = EnergyAccumulator::unpack(&mut r).map_err(snap_err)?;
        r.expect_end("monitor state").map_err(snap_err)?;

        let mut r = section_reader(section::TRACE, "sample trace")?;
        let trace: Option<Vec<LoopSample>> = Unpack::unpack(&mut r).map_err(snap_err)?;
        r.expect_end("sample trace").map_err(snap_err)?;

        self.cpu = cpu;
        self.tail = LoopTail {
            pdn_state,
            v_nominal,
            sensor,
            controller,
            actuator,
            monitor,
            histogram,
            energy,
            trace,
            cycles_in_low,
            cycles_in_normal,
            cycles_in_high,
        };
        Ok(())
    }

    /// Digest of the CPU's architectural state, to verify control does not
    /// perturb program results.
    pub fn arch_digest(&self) -> u64 {
        self.cpu.arch_digest()
    }

    /// The nominal supply voltage.
    pub fn v_nominal(&self) -> f64 {
        self.tail.v_nominal
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::calibrate::calibrated_pdn;
    use voltctl_isa::builder::ProgramBuilder;
    use voltctl_isa::reg::IntReg;
    use voltctl_power::PowerParams;
    use voltctl_telemetry::MemoryRecorder;

    fn spin_program() -> Program {
        let mut b = ProgramBuilder::new("spin");
        b.label("top");
        b.addq_imm(IntReg::R1, IntReg::R1, 1);
        b.br("top");
        b.build().unwrap()
    }

    fn harness(percent: f64) -> (PowerModel, PdnModel) {
        let power = PowerModel::new(PowerParams::paper_3ghz());
        let pdn = calibrated_pdn(&PdnModel::paper_default().unwrap(), &power, percent).unwrap();
        (power, pdn)
    }

    #[test]
    fn uncontrolled_loop_runs_and_reports() {
        let (power, pdn) = harness(2.0);
        let mut sim = ControlLoop::builder(spin_program())
            .power(power)
            .pdn(pdn)
            .build()
            .unwrap();
        sim.step_n(5_000);
        let r = sim.report();
        assert_eq!(r.cycles, 5_000);
        assert!(r.committed > 0);
        assert!(r.energy_joules > 0.0);
        assert_eq!(r.interventions, 0, "no thresholds ⇒ no control");
        assert_eq!(r.cycles_in_normal, 5_000, "no sensor ⇒ all cycles Normal");
        assert_eq!(r.gating_duty(), 0.0);
    }

    #[test]
    fn missing_parts_are_rejected() {
        let e = ControlLoop::builder(spin_program()).build().unwrap_err();
        assert!(matches!(e, ControlError::Infeasible(_)));
    }

    #[test]
    fn controlled_loop_intervenes_on_stressmark_class_swings() {
        // Build a small divide/burst oscillator inline (stressmark-like).
        let mut b = ProgramBuilder::new("osc");
        b.data_f64(0x40000, &[1.0, 1.0]);
        b.lda(IntReg::R4, IntReg::R31, 0x40000);
        b.ldt(voltctl_isa::FpReg::F2, 8, IntReg::R4);
        b.lda(IntReg::R1, IntReg::R31, 1);
        b.label("top");
        b.ldt(voltctl_isa::FpReg::F1, 0, IntReg::R4);
        b.divt(
            voltctl_isa::FpReg::F3,
            voltctl_isa::FpReg::F1,
            voltctl_isa::FpReg::F2,
        );
        b.stt(voltctl_isa::FpReg::F3, 16, IntReg::R4);
        b.ldq(IntReg::R7, 16, IntReg::R4);
        b.cmoveq(IntReg::R3, IntReg::R31, IntReg::R7);
        for k in 0..180 {
            match k % 3 {
                0 => {
                    b.xor(IntReg::R8, IntReg::R3, IntReg::R3);
                }
                1 => {
                    b.addq(IntReg::new(9), IntReg::R3, IntReg::R3);
                }
                _ => {
                    b.stq(IntReg::R3, 64 + ((k as i64 * 8) % 56), IntReg::R4);
                }
            }
        }
        b.xor(IntReg::R3, IntReg::R3, IntReg::R8);
        b.stq(IntReg::R3, 0, IntReg::R4);
        b.bne(IntReg::R1, "top");
        let program = b.build().unwrap();

        // High impedance so the oscillation actually threatens the spec.
        let (power, pdn) = harness(4.0);
        let thresholds = Thresholds {
            v_low: 0.97,
            v_high: 1.03,
        };

        let mut controlled = ControlLoop::builder(program.clone())
            .power(power.clone())
            .pdn(pdn.clone())
            .thresholds(thresholds)
            .scope(ActuationScope::FuDl1Il1)
            .build()
            .unwrap();
        controlled.step_n(60_000);
        let rc = controlled.report();

        let mut baseline = ControlLoop::builder(program)
            .power(power)
            .pdn(pdn)
            .build()
            .unwrap();
        baseline.step_n(60_000);
        let rb = baseline.report();

        assert!(rc.interventions > 0, "controller must engage");
        assert!(
            rc.emergencies.emergency_cycles < rb.emergencies.emergency_cycles,
            "control must reduce emergencies: {} vs {}",
            rc.emergencies.emergency_cycles,
            rb.emergencies.emergency_cycles
        );
        assert!(rc.cycles_in_low > 0, "interventions imply Low cycles");
        assert!(rc.gating_duty() > 0.0);
    }

    #[test]
    fn control_preserves_program_results() {
        // Finite program: digests must match with and without control.
        let mut b = ProgramBuilder::new("finite");
        b.lda(IntReg::R4, IntReg::R31, 0x9000);
        b.lda(IntReg::R1, IntReg::R31, 300);
        b.label("top");
        b.mulq(IntReg::R2, IntReg::R1, IntReg::R1);
        b.stq(IntReg::R2, 0, IntReg::R4);
        b.ldq(IntReg::R3, 0, IntReg::R4);
        b.addq(IntReg::R5, IntReg::R5, IntReg::R3);
        b.addq_imm(IntReg::R4, IntReg::R4, 8);
        b.subq_imm(IntReg::R1, IntReg::R1, 1);
        b.bne(IntReg::R1, "top");
        b.halt();
        let program = b.build().unwrap();

        let (power, pdn) = harness(2.0);
        let mut base = ControlLoop::builder(program.clone())
            .power(power.clone())
            .pdn(pdn.clone())
            .build()
            .unwrap();
        base.step_n(1_000_000);
        assert!(base.done());

        // Aggressive thresholds force frequent actuation.
        let mut controlled = ControlLoop::builder(program)
            .power(power)
            .pdn(pdn)
            .thresholds(Thresholds {
                v_low: 0.999,
                v_high: 1.001,
            })
            .scope(ActuationScope::FuDl1Il1)
            .build()
            .unwrap();
        controlled.step_n(5_000_000);
        assert!(controlled.done());
        assert!(controlled.report().interventions > 0);
        assert_eq!(base.arch_digest(), controlled.arch_digest());
        assert!(
            controlled.report().cycles > base.report().cycles,
            "actuation must cost cycles"
        );
    }

    #[test]
    fn trace_recording_captures_samples() {
        let (power, pdn) = harness(2.0);
        let mut sim = ControlLoop::builder(spin_program())
            .power(power)
            .pdn(pdn)
            .record_trace(true)
            .build()
            .unwrap();
        sim.step_n(100);
        let trace = sim.take_trace();
        assert_eq!(trace.len(), 100);
        assert!(trace.iter().all(|s| s.voltage > 0.5 && s.current > 0.0));
    }

    #[test]
    fn trace_buffer_is_reserved_before_the_run() {
        let (power, pdn) = harness(2.0);
        let mut sim = ControlLoop::builder(spin_program())
            .power(power)
            .pdn(pdn)
            .record_trace(true)
            .build()
            .unwrap();
        sim.step_n(750);
        // The reserve in step_n() must cover the whole budget: pushing the
        // samples cannot have grown the buffer beyond one allocation.
        let trace = sim.tail.trace.as_ref().expect("trace recording enabled");
        assert_eq!(trace.len(), 750);
        assert!(
            trace.capacity() >= 750,
            "capacity {} must be reserved up front",
            trace.capacity()
        );
    }

    #[test]
    #[allow(clippy::assertions_on_constants)]
    fn disabled_recorder_is_compile_time_off() {
        // The hot path guards every instrumentation site on R::ENABLED;
        // the default recorder must be statically disabled so those sites
        // monomorphize away (no clock reads, no sample recording).
        assert!(!<NullRecorder as Recorder>::ENABLED);
        assert!(<MemoryRecorder as Recorder>::ENABLED);
        let sw = Stopwatch::start_for::<NullRecorder>();
        assert_eq!(sw.elapsed_ns(), 0, "disabled span must not read the clock");
    }

    #[test]
    #[allow(clippy::assertions_on_constants)]
    fn disabled_tracer_is_compile_time_off() {
        // Mirror of disabled_recorder_is_compile_time_off for the Tracer
        // axis: the default tracer must be statically disabled (and
        // zero-sized) so the per-cycle CycleRecord construction in step()
        // is dead code, not a runtime branch.
        assert!(!<NullTracer as Tracer>::ENABLED);
        assert!(<voltctl_trace::FlightRecorder as Tracer>::ENABLED);
        assert!(
            !<&mut NullTracer as Tracer>::ENABLED,
            "forwarding preserves off"
        );
        assert_eq!(std::mem::size_of::<NullTracer>(), 0);
        // A null-traced loop is the *same type layout* as an untraced one.
        assert_eq!(
            std::mem::size_of::<ControlLoop>(),
            std::mem::size_of::<ControlLoop<NullRecorder, NullTracer>>()
        );
    }

    #[test]
    fn null_tracer_loop_matches_traced_loop_exactly() {
        // Tracing must be a pure observer: a loop with a FlightRecorder
        // attached produces identical simulation results to the default
        // NullTracer loop, and the flight recorder sees every cycle.
        let (power, pdn) = harness(2.0);
        let mut plain = ControlLoop::builder(spin_program())
            .power(power.clone())
            .pdn(pdn.clone())
            .build()
            .unwrap();
        let mut flight = voltctl_trace::FlightRecorder::new(32);
        let mut traced = ControlLoop::builder(spin_program())
            .power(power)
            .pdn(pdn)
            .tracer(&mut flight)
            .build()
            .unwrap();
        plain.step_n(2_000);
        traced.step_n(2_000);
        assert_eq!(plain.report(), traced.report());
        assert_eq!(plain.arch_digest(), traced.arch_digest());
        drop(traced);
        assert_eq!(flight.cycles(), 2_000);
        assert_eq!(flight.buffered(), 32);
        let cell = flight.to_cell("spin");
        assert_eq!(
            cell.crossings,
            plain.report().emergencies.events(),
            "tracer crossing count must agree with the voltage monitor"
        );
    }

    #[test]
    fn noise_compensation_tightens_deployed_thresholds() {
        let (power, pdn) = harness(2.0);
        let sim = ControlLoop::builder(spin_program())
            .power(power)
            .pdn(pdn)
            .thresholds(Thresholds {
                v_low: 0.96,
                v_high: 1.04,
            })
            .sensor(SensorConfig {
                delay_cycles: 0,
                noise_mv: 10.0,
                seed: 7,
            })
            .build()
            .unwrap();
        let sensor = sim.tail.sensor.as_ref().unwrap();
        assert!((sensor.v_low() - 0.97).abs() < 1e-12);
        assert!((sensor.v_high() - 1.03).abs() < 1e-12);
    }

    #[test]
    fn recorder_streams_per_cycle_and_run_level_telemetry() {
        let (power, pdn) = harness(2.0);
        let mut sim = ControlLoop::builder(spin_program())
            .power(power)
            .pdn(pdn)
            .recorder(MemoryRecorder::new())
            .build()
            .unwrap();
        sim.step_n(500);
        sim.finish_telemetry();
        let snap = sim.recorder().snapshot();
        assert_eq!(snap.counter("loop.cycles"), Some(500));
        assert_eq!(snap.value("loop.voltage_v").unwrap().count, 500);
        assert_eq!(snap.value("loop.current_a").unwrap().count, 500);
        // Sub-step timers are stride-sampled: cycle indices 0, 64, ….
        let sampled = 500u64.div_ceil(TIMER_SAMPLE_STRIDE);
        for timer in [
            "loop.step.cpu_ns",
            "loop.step.power_ns",
            "loop.step.pdn_ns",
            "loop.step.control_ns",
        ] {
            assert_eq!(snap.timer(timer).unwrap().count, sampled, "{timer}");
        }
        assert_eq!(snap.histogram("loop.voltage_hist").unwrap().total(), 500);
        assert_eq!(snap.counter("cpu.cycles"), Some(500));
        let low = snap.counter("loop.cycles_in_low").unwrap();
        let normal = snap.counter("loop.cycles_in_normal").unwrap();
        let high = snap.counter("loop.cycles_in_high").unwrap();
        assert_eq!(low + normal + high, 500);
    }

    fn oscillator_program() -> Program {
        let mut b = ProgramBuilder::new("osc-snap");
        b.data_f64(0x40000, &[1.0, 1.0]);
        b.lda(IntReg::R4, IntReg::R31, 0x40000);
        b.ldt(voltctl_isa::FpReg::F2, 8, IntReg::R4);
        b.lda(IntReg::R1, IntReg::R31, 2_000);
        b.label("top");
        b.ldt(voltctl_isa::FpReg::F1, 0, IntReg::R4);
        b.divt(
            voltctl_isa::FpReg::F3,
            voltctl_isa::FpReg::F1,
            voltctl_isa::FpReg::F2,
        );
        b.stt(voltctl_isa::FpReg::F3, 16, IntReg::R4);
        for k in 0..60 {
            match k % 3 {
                0 => {
                    b.xor(IntReg::R8, IntReg::R3, IntReg::R3);
                }
                1 => {
                    b.addq(IntReg::new(9), IntReg::R3, IntReg::R3);
                }
                _ => {
                    b.stq(IntReg::R3, 64 + ((k as i64 * 8) % 56), IntReg::R4);
                }
            }
        }
        b.subq_imm(IntReg::R1, IntReg::R1, 1);
        b.bne(IntReg::R1, "top");
        b.halt();
        b.build().unwrap()
    }

    /// A controlled builder exercising every stateful component: sensor
    /// delay pipeline, sensor noise RNG, and an asymmetric actuator.
    fn snapshot_builder(
        program: Program,
        power: PowerModel,
        pdn: voltctl_pdn::PdnModel,
    ) -> ControlLoopBuilder {
        ControlLoop::builder(program)
            .power(power)
            .pdn(pdn)
            .thresholds(Thresholds {
                v_low: 0.97,
                v_high: 1.03,
            })
            .sensor(SensorConfig {
                delay_cycles: 2,
                noise_mv: 5.0,
                seed: 0x5eed,
            })
            .actuator(AsymmetricActuator {
                reduce: ActuationScope::FuDl1Il1,
                increase: ActuationScope::Fu,
            })
    }

    #[test]
    fn save_restore_continues_bit_for_bit() {
        let (power, pdn) = harness(4.0);
        let program = oscillator_program();
        let mut reference = snapshot_builder(program.clone(), power.clone(), pdn.clone())
            .build()
            .unwrap();
        reference.step_n(7_500);
        assert!(!reference.done(), "snapshot must be taken mid-run");
        let bytes = reference.save();

        let mut resumed = snapshot_builder(program, power, pdn)
            .restore(&bytes)
            .unwrap();
        // Resumed state must be indistinguishable: identical re-save.
        assert_eq!(resumed.save(), bytes);

        // And stepping must match the uninterrupted run sample-for-sample
        // (LoopSample equality is f64 equality — bitwise for non-NaN).
        for _ in 0..10_000 {
            if reference.done() {
                break;
            }
            assert_eq!(reference.step(), resumed.step());
        }
        assert_eq!(reference.done(), resumed.done());
        assert_eq!(reference.report(), resumed.report());
        assert_eq!(reference.arch_digest(), resumed.arch_digest());
        assert_eq!(reference.save(), resumed.save());
    }

    #[test]
    fn saved_trace_buffer_travels_with_the_snapshot() {
        let (power, pdn) = harness(2.0);
        let mut sim = ControlLoop::builder(spin_program())
            .power(power.clone())
            .pdn(pdn.clone())
            .record_trace(true)
            .build()
            .unwrap();
        sim.step_n(100);
        let bytes = sim.save();
        let mut resumed = ControlLoop::builder(spin_program())
            .power(power)
            .pdn(pdn)
            .record_trace(true)
            .restore(&bytes)
            .unwrap();
        resumed.step_n(50);
        sim.step_n(50);
        let expect = sim.take_trace();
        let got = resumed.take_trace();
        assert_eq!(expect.len(), 150);
        assert_eq!(expect, got, "restored trace must include pre-save samples");
    }

    #[test]
    fn restore_rejects_mismatched_rebuilds() {
        let (power, pdn) = harness(4.0);
        let program = oscillator_program();
        let mut sim = snapshot_builder(program.clone(), power.clone(), pdn.clone())
            .build()
            .unwrap();
        sim.step_n(500);
        let bytes = sim.save();

        // Different program.
        let e = snapshot_builder(spin_program(), power.clone(), pdn.clone())
            .restore(&bytes)
            .unwrap_err();
        assert!(
            e.to_string().contains("different program"),
            "unexpected error: {e}"
        );

        // Different machine configuration.
        let mut small = CpuConfig::table1();
        small.ruu_size /= 2;
        let e = snapshot_builder(program.clone(), power.clone(), pdn.clone())
            .cpu_config(small)
            .restore(&bytes)
            .unwrap_err();
        assert!(
            e.to_string().contains("different machine configuration"),
            "unexpected error: {e}"
        );

        // Different power model.
        let mut params = PowerParams::paper_3ghz();
        params.vdd *= 1.1;
        let e = snapshot_builder(program.clone(), PowerModel::new(params), pdn.clone())
            .restore(&bytes)
            .unwrap_err();
        assert!(
            e.to_string().contains("different power model"),
            "unexpected error: {e}"
        );

        // Controlled snapshot into an uncontrolled builder.
        let e = ControlLoop::builder(program.clone())
            .power(power.clone())
            .pdn(pdn.clone())
            .restore(&bytes)
            .unwrap_err();
        assert!(
            e.to_string().contains("uncontrolled") || e.to_string().contains("no control"),
            "unexpected error: {e}"
        );

        // The matching rebuild still works after all those rejections.
        assert!(snapshot_builder(program, power, pdn)
            .restore(&bytes)
            .is_ok());
    }

    #[test]
    fn restore_rejects_a_histogram_total_that_disagrees_with_its_bins() {
        let (power, pdn) = harness(2.0);
        let mut sim = ControlLoop::builder(spin_program())
            .power(power.clone())
            .pdn(pdn.clone())
            .build()
            .unwrap();
        sim.step_n(300);
        let bytes = sim.save();
        // Re-frame the snapshot with the stored total off by one.
        let reader = SnapshotReader::parse(&bytes).unwrap();
        let mut out = SnapshotWriter::new(SnapshotKind::Loop);
        for sec in reader.sections() {
            let mut payload = sec.payload.to_vec();
            if sec.tag == section::MONITOR {
                let mut r = sec.reader();
                VoltageMonitor::unpack(&mut r).unwrap();
                LinearHistogram::unpack(&mut r).unwrap();
                let at = payload.len() - r.remaining();
                assert_eq!(payload[at..at + 8], 300u64.to_le_bytes());
                payload[at] += 1;
            }
            let mut w = voltctl_snap::ByteWriter::new();
            w.put_raw(&payload);
            out.section(sec.tag, sec.version, w);
        }
        let e = ControlLoop::builder(spin_program())
            .power(power)
            .pdn(pdn)
            .restore(&out.finish())
            .unwrap_err();
        assert!(e.to_string().contains("claims 301 samples"), "{e}");
    }

    #[test]
    fn restore_rejects_damaged_snapshots_without_panicking() {
        let (power, pdn) = harness(2.0);
        let mut sim = ControlLoop::builder(spin_program())
            .power(power.clone())
            .pdn(pdn.clone())
            .build()
            .unwrap();
        sim.step_n(300);
        let bytes = sim.save();

        // Every truncation must be a clean error.
        for cut in (0..bytes.len()).step_by(41) {
            let builder = ControlLoop::builder(spin_program())
                .power(power.clone())
                .pdn(pdn.clone());
            assert!(
                builder.restore(&bytes[..cut]).is_err(),
                "truncation at {cut} must be rejected"
            );
        }
        // Arbitrary junk must be a clean error too.
        let builder = ControlLoop::builder(spin_program())
            .power(power.clone())
            .pdn(pdn.clone());
        assert!(builder.restore(b"not a snapshot at all").is_err());
    }

    #[test]
    fn step_n_reports_cycles_in_any_slicing() {
        let (power, pdn) = harness(2.0);
        let program = oscillator_program();
        let mut a = ControlLoop::builder(program.clone())
            .power(power.clone())
            .pdn(pdn.clone())
            .build()
            .unwrap();
        let mut total = 0;
        loop {
            let stepped = a.step_n(10_000);
            total += stepped;
            if stepped < 10_000 {
                break;
            }
        }
        assert!(a.done());
        assert_eq!(total, a.report().cycles);
        assert_eq!(a.step_n(10), 0, "a finished loop steps zero cycles");

        // One unbounded slice lands on the same state as many small ones.
        let mut b = ControlLoop::builder(program)
            .power(power)
            .pdn(pdn)
            .build()
            .unwrap();
        assert_eq!(b.step_n(u64::MAX), total);
        assert!(b.done());
        assert_eq!(a.report(), b.report());
        assert_eq!(a.save(), b.save());
    }

    #[test]
    fn null_recorder_loop_matches_recorded_loop_exactly() {
        let (power, pdn) = harness(2.0);
        let mut plain = ControlLoop::builder(spin_program())
            .power(power.clone())
            .pdn(pdn.clone())
            .build()
            .unwrap();
        let mut recorded = ControlLoop::builder(spin_program())
            .power(power)
            .pdn(pdn)
            .recorder(MemoryRecorder::new())
            .build()
            .unwrap();
        plain.step_n(2_000);
        recorded.step_n(2_000);
        // Telemetry must be a pure observer: identical simulation results.
        assert_eq!(plain.report(), recorded.report());
        assert_eq!(plain.arch_digest(), recorded.arch_digest());
    }
}
