//! The `voltctl-exp bench` subcommand: the machine-readable performance
//! baseline for the closed-loop simulator.
//!
//! One suite runs on the in-tree micro-benchmark harness
//! ([`voltctl_telemetry::stopwatch::bench`]) and exports
//! **`BENCH_loop.json`**: uncontrolled, threshold-controlled,
//! lane-batched, telemetry-recorded, flight-recorder-traced and
//! sample-recording [`ControlLoop`](voltctl_core::prelude::ControlLoop)
//! stepping, plus snapshot save/restore.
//!
//! Every point carries wall-clock nanoseconds and derived cycles/second.
//! [`run`] fails (after writing the artifacts, so CI can still upload
//! them) when any point reports a NaN or non-positive throughput — the
//! perf-smoke CI gate. No absolute-time thresholds are enforced: the CI
//! runner is single-core and noisy; the artifacts exist to *track* the
//! trajectory, not to gate on machine speed.

use std::fmt::Write as _;
use std::path::{Path, PathBuf};
use std::time::Instant;

use voltctl_core::loopsim::ControlLoop;
use voltctl_core::prelude::*;
use voltctl_core::LaneLoop;
use voltctl_isa::builder::ProgramBuilder;
use voltctl_isa::reg::IntReg;
use voltctl_isa::Program;
use voltctl_telemetry::stopwatch::{bench, bench_interleaved, BenchResult};
use voltctl_telemetry::MemoryRecorder;
use voltctl_trace::FlightRecorder;

use crate::harness::{cpu_config, pdn_at, power_model};

/// Options for a bench run.
#[derive(Debug, Clone)]
pub struct BenchOpts {
    /// Tiny trace/cycle budgets for CI plumbing checks.
    pub smoke: bool,
    /// Directory `BENCH_loop.json` and its manifest are written to.
    pub out: PathBuf,
}

impl Default for BenchOpts {
    fn default() -> BenchOpts {
        BenchOpts {
            smoke: false,
            out: default_out_dir(),
        }
    }
}

/// The default artifact directory for perf baselines (`bench --out`,
/// `voltctl-serve bench --out`): `<workspace root>/results/perf`.
pub fn default_out_dir() -> PathBuf {
    voltctl_check::persist::results_dir("perf")
}

/// Schema version of the `BENCH_*.json` artifacts. Version 2 added
/// `ns_per_cycle` per point and the `recorded_trace` loop path with its
/// `recording_overhead_frac` summary. Version 3 added the
/// `snapshot_save` / `snapshot_restore` loop points and the
/// `snapshot_bytes*` / `snapshot_*_mb_per_sec` summary entries.
/// Version 4 added the `lane_w4` / `lane_w8` batched-loop points (a
/// point's `cycles` is the *aggregate* simulated lane-cycles per
/// iteration) and the `lane_speedup_w*` summary ratios. Version 5 added
/// the `BENCH_serve.json` suite emitted by the `voltctl-serve` load
/// generator (a serve point's `cycles` counts grid cells completed, and
/// the summary carries latency percentiles plus the serve-vs-batch
/// wall-clock ratio over an identical request mix). Version 6 added
/// `latency_p999_ms` to the serve summary, completing the
/// p50/p90/p99/p999 set the live `/metrics` plane also exposes.
/// Version 7 dropped the `pdn` suite and each point's convolution-tap
/// count.
pub const BENCH_SCHEMA: u64 = 7;

/// Lane gate: the batched lane path must beat the scalar controlled
/// loop by at least this factor *within the same run*. A ratio, not an
/// absolute time, so machine speed cancels out. Both sides are medians
/// of round-robin samples, so a slow host phase hits both. [`run`]
/// enforces it at full scale only: debug builds keep 5,000-cycle smoke
/// chunks, where the per-iteration lane gather/scatter, not lane
/// sharing, sets the ratio (the best ratio read 0.4–1.1 there). Release
/// smoke runs use 50,000-cycle chunks (`SMOKE_BUDGET`), which read
/// 3.3–5.2, and CI gates their best ratio itself.
pub const MIN_LANE_SPEEDUP: f64 = 1.5;

/// One measured point: a named code path.
#[derive(Debug, Clone)]
pub struct BenchPoint {
    /// Code path measured (`uncontrolled`, `controlled`, `lane_w4`, …).
    pub path: &'static str,
    /// Simulated cycles per iteration.
    pub cycles: u64,
    /// Median wall-clock nanoseconds per iteration.
    pub wall_ns: f64,
    /// Best (minimum) wall-clock nanoseconds per iteration.
    pub best_ns: f64,
    /// Simulated cycles per wall-clock second, from the median.
    pub cycles_per_sec: f64,
    /// Median wall-clock nanoseconds per simulated cycle — the number
    /// overhead comparisons are made in.
    pub ns_per_cycle: f64,
}

impl BenchPoint {
    fn from_result(path: &'static str, cycles: u64, r: BenchResult) -> BenchPoint {
        let cycles_per_sec = if r.median_ns_per_iter > 0.0 {
            cycles as f64 * 1e9 / r.median_ns_per_iter
        } else {
            f64::NAN
        };
        let ns_per_cycle = if cycles > 0 {
            r.median_ns_per_iter / cycles as f64
        } else {
            f64::NAN
        };
        BenchPoint {
            path,
            cycles,
            wall_ns: r.median_ns_per_iter,
            best_ns: r.best_ns_per_iter,
            cycles_per_sec,
            ns_per_cycle,
        }
    }

    fn is_sane(&self) -> bool {
        self.wall_ns.is_finite()
            && self.wall_ns > 0.0
            && self.cycles_per_sec.is_finite()
            && self.cycles_per_sec > 0.0
    }
}

/// A completed suite ready for export.
#[derive(Debug, Clone)]
pub struct BenchSuite {
    /// Suite name (`loop`, or `serve` for the daemon's load generator);
    /// the artifact is `BENCH_<name>.json`.
    pub name: &'static str,
    /// Whether smoke budgets were used.
    pub smoke: bool,
    /// Measured points.
    pub points: Vec<BenchPoint>,
    /// Suite-level derived metrics (speedups, cache costs).
    pub summary: Vec<(&'static str, f64)>,
}

impl BenchSuite {
    /// Paths whose points fail the NaN/zero-throughput check.
    pub fn insane_points(&self) -> Vec<String> {
        self.points
            .iter()
            .filter(|p| !p.is_sane())
            .map(|p| p.path.to_string())
            .collect()
    }

    /// Renders the machine-readable JSON artifact (single object; every
    /// non-finite number becomes `null` so the file always parses).
    pub fn to_json(&self) -> String {
        let mut s = String::new();
        let _ = writeln!(s, "{{");
        let _ = writeln!(s, "  \"bench\": \"{}\",", self.name);
        let _ = writeln!(s, "  \"schema\": {BENCH_SCHEMA},");
        let _ = writeln!(s, "  \"smoke\": {},", self.smoke);
        let _ = writeln!(s, "  \"points\": [");
        for (k, p) in self.points.iter().enumerate() {
            let _ = writeln!(
                s,
                "    {{\"path\": \"{}\", \"cycles\": {}, \
                 \"wall_ns\": {}, \"best_ns\": {}, \"cycles_per_sec\": {}, \
                 \"ns_per_cycle\": {}}}{}",
                p.path,
                p.cycles,
                json_num(p.wall_ns),
                json_num(p.best_ns),
                json_num(p.cycles_per_sec),
                json_num(p.ns_per_cycle),
                if k + 1 < self.points.len() { "," } else { "" }
            );
        }
        let _ = writeln!(s, "  ],");
        let _ = writeln!(s, "  \"summary\": {{");
        for (k, (name, value)) in self.summary.iter().enumerate() {
            let _ = writeln!(
                s,
                "    \"{}\": {}{}",
                name,
                json_num(*value),
                if k + 1 < self.summary.len() { "," } else { "" }
            );
        }
        let _ = writeln!(s, "  }}");
        let _ = write!(s, "}}");
        s
    }
}

fn json_num(x: f64) -> String {
    if x.is_finite() {
        format!("{x}")
    } else {
        "null".to_string()
    }
}

fn spin_program() -> Program {
    let mut b = ProgramBuilder::new("bench-spin");
    b.label("top");
    b.addq_imm(IntReg::R1, IntReg::R1, 1);
    b.br("top");
    b.build().expect("spin program assembles")
}

/// Smoke budget: `(chunk cycles, samples)`. The lane points pay one
/// gather (a CPU state image per lane) and one scatter per iteration;
/// at a 5,000-cycle chunk that cost outweighs the shared `Cpu::step` and
/// `lane_speedup_w*` measures gathering, not lane sharing. 50,000-cycle
/// chunks amortize it as full scale does. Release smoke runs take 15
/// interleaved samples: with 5, the median ratio
/// `telemetry_overhead_frac` read 0.35 and 0.40 on an unchanged tree in
/// two of three runs on a shared 2-vCPU host, over CI's 0.30 gate on
/// noise alone. Debug builds keep the small budget: their timings gate
/// nothing, and the unit tests run the suite several times.
const SMOKE_BUDGET: (u64, usize) = if cfg!(debug_assertions) {
    (5_000, 2)
} else {
    (50_000, 15)
};

/// The closed-loop suite: `ControlLoop::step` throughput uncontrolled,
/// controlled, lane-batched, with a live telemetry recorder, with a
/// flight recorder attached (`NullTracer`'s cost is not a point:
/// disabled tracing is compile-time dead code, identical to
/// `uncontrolled`), and with the per-cycle `LoopSample` buffer on.
///
/// The stepping paths are timed round-robin, one iteration each per
/// sample ([`bench_interleaved`]), so a slow host phase lands on both
/// sides of every ratio, and the `*_overhead_frac` and
/// `lane_speedup_w*` summary ratios are taken between **medians**. The
/// minimum is no robust estimator on a shared virtual machine: there a
/// sample can also run up to 2× *faster* than its neighbours, and one
/// such sample on one side of a best-of-N ratio swung
/// `telemetry_overhead_frac` from −0.25 to +0.66 in ten 5-sample smoke
/// runs, where the interleaved median ratio stayed within −0.16..+0.10.
/// Best times are still exported per point.
pub fn bench_loop(smoke: bool) -> BenchSuite {
    let (chunk, samples) = if smoke { SMOKE_BUDGET } else { (200_000u64, 9) };
    let power = power_model();
    let pdn = pdn_at(2.0);
    let thresholds = Thresholds {
        v_low: 0.97,
        v_high: 1.03,
    };
    let builder = || {
        ControlLoop::builder(spin_program())
            .cpu_config(cpu_config())
            .power(power.clone())
            .pdn(pdn.clone())
    };

    let mut uncontrolled = builder().build().expect("uncontrolled loop constructs");
    let mut controlled = builder()
        .thresholds(thresholds)
        .build()
        .expect("controlled loop constructs");
    // The lane path at widths 4 and 8: W controlled loops that differ
    // only in their sensor seed. Noise is 0 mV, so the seed is never
    // drawn and the lanes never diverge: one `Cpu::step` + power
    // evaluation per lockstep cycle serves all W lanes, while the seeds
    // keep `gather` from making them aliases, so W tails are stepped. A
    // point's `cycles` is the aggregate W·chunk simulated lane-cycles
    // per iteration. Lane state persists across samples by scattering
    // back to scalar loops and re-gathering, so each iteration pays the
    // same gather/scatter cost the engine's lane executor pays — the
    // ratio to `controlled` is an honest end-to-end lane speedup.
    let lane_loops = |w: u64| -> Option<Vec<ControlLoop>> {
        Some(
            (0..w)
                .map(|seed| {
                    builder()
                        .thresholds(thresholds)
                        .sensor(SensorConfig {
                            noise_mv: 0.0,
                            seed,
                            ..SensorConfig::default()
                        })
                        .build()
                        .expect("lane loop constructs")
                })
                .collect(),
        )
    };
    let (mut held4, mut held8) = (lane_loops(4), lane_loops(8));
    let lane_step = |held: &mut Option<Vec<ControlLoop>>| {
        let loops = held.take().expect("lane loops persist across samples");
        let width = loops.len() as u64;
        let mut lanes = LaneLoop::gather(loops, &vec![chunk; width as usize]);
        let stepped = lanes.run();
        assert_eq!(stepped, width * chunk, "every lane is stepped");
        *held = Some(lanes.into_loops());
        stepped
    };
    let mut recorded = builder()
        .recorder(MemoryRecorder::new())
        .build()
        .expect("recorded loop constructs");
    let mut traced = builder()
        .tracer(FlightRecorder::new(voltctl_trace::DEFAULT_WINDOW))
        .build()
        .expect("traced loop constructs");
    // The per-cycle LoopSample buffer (`record_trace`) is the fourth
    // observability path; draining it per iteration keeps memory flat
    // and charges the consumer-side cost the real users (fig11's CSV
    // export, waveform scenarios) also pay.
    let mut recording = builder()
        .record_trace(true)
        .build()
        .expect("recording loop constructs");

    let [u, c, l4, l8, r, t, rt]: [BenchResult; 7] = bench_interleaved(
        samples,
        &mut [
            ("loop.uncontrolled", &mut || {
                uncontrolled.step_n(chunk);
                uncontrolled.report().cycles
            }),
            ("loop.controlled", &mut || {
                controlled.step_n(chunk);
                controlled.report().cycles
            }),
            ("loop.lane_w4", &mut || lane_step(&mut held4)),
            ("loop.lane_w8", &mut || lane_step(&mut held8)),
            ("loop.recorded", &mut || {
                recorded.step_n(chunk);
                recorded.report().cycles
            }),
            ("loop.traced", &mut || {
                traced.step_n(chunk);
                traced.report().cycles
            }),
            ("loop.recorded_trace", &mut || {
                recording.step_n(chunk);
                recording.take_trace().len() as u64
            }),
        ],
    )
    .try_into()
    .expect("one result per path");
    // Median per simulated cycle on both sides.
    let lane_speedup = |w: u64, l: &BenchResult| {
        (c.median_ns_per_iter / chunk as f64) / (l.median_ns_per_iter / (w * chunk) as f64)
    };
    let lane_speedups = [
        ("lane_speedup_w4", lane_speedup(4, &l4)),
        ("lane_speedup_w8", lane_speedup(8, &l8)),
    ];

    // Snapshot economics: how long a mid-run save/restore takes and how
    // large the state is, per simulated cycle already covered — the
    // numbers that size `run --shards` checkpoint overhead. The restore
    // path pays for the full builder rebuild (that is what a resume
    // costs); `cycles` on both points is the state's cycle count, so
    // `ns_per_cycle` reads as amortized checkpoint cost per simulated
    // cycle.
    let state_cycles = controlled.report().cycles;
    let snapshot = controlled.save();
    let snapshot_bytes = snapshot.len();
    let sv = bench("loop.snapshot_save", samples, 1, || controlled.save().len());
    let rs = bench("loop.snapshot_restore", samples, 1, || {
        builder()
            .thresholds(thresholds)
            .restore(&snapshot)
            .expect("snapshot restores")
            .report()
            .cycles
    });

    let points = vec![
        BenchPoint::from_result("uncontrolled", chunk, u),
        BenchPoint::from_result("controlled", chunk, c),
        BenchPoint::from_result("lane_w4", 4 * chunk, l4),
        BenchPoint::from_result("lane_w8", 8 * chunk, l8),
        BenchPoint::from_result("recorded", chunk, r),
        BenchPoint::from_result("traced", chunk, t),
        BenchPoint::from_result("recorded_trace", chunk, rt),
        BenchPoint::from_result("snapshot_save", state_cycles, sv),
        BenchPoint::from_result("snapshot_restore", state_cycles, rs),
    ];
    // Ratios of interleaved medians: see the doc comment.
    let telemetry_overhead = r.median_ns_per_iter / u.median_ns_per_iter - 1.0;
    let tracing_overhead = t.median_ns_per_iter / u.median_ns_per_iter - 1.0;
    let recording_overhead = rt.median_ns_per_iter / u.median_ns_per_iter - 1.0;
    // Snapshot MB/s from best-of-N: these points run on their own, not
    // interleaved, so the minimum is the least host-bound sample.
    let save_mb_per_sec = snapshot_bytes as f64 * 1e3 / sv.best_ns_per_iter;
    let restore_mb_per_sec = snapshot_bytes as f64 * 1e3 / rs.best_ns_per_iter;
    let mut summary = vec![
        ("chunk_cycles", chunk as f64),
        ("telemetry_overhead_frac", telemetry_overhead),
        ("tracing_overhead_frac", tracing_overhead),
        ("recording_overhead_frac", recording_overhead),
        ("snapshot_bytes", snapshot_bytes as f64),
        (
            "snapshot_bytes_per_cycle",
            snapshot_bytes as f64 / state_cycles as f64,
        ),
        ("snapshot_save_mb_per_sec", save_mb_per_sec),
        ("snapshot_restore_mb_per_sec", restore_mb_per_sec),
    ];
    summary.extend(lane_speedups);
    BenchSuite {
        name: "loop",
        smoke,
        points,
        summary,
    }
}

/// Runs the loop suite, writes `BENCH_loop.json` and its manifest under
/// `opts.out`, and returns the artifact path.
///
/// # Errors
///
/// Returns every failed check, each labelled by its cause:
/// NaN/zero-throughput points, or a full-scale lane speedup below
/// [`MIN_LANE_SPEEDUP`]. The artifacts are still written first so CI
/// can upload them. A failed write returns its error message.
pub fn run(opts: &BenchOpts) -> Result<PathBuf, String> {
    let started = Instant::now();
    let suite = bench_loop(opts.smoke);
    let path = write_suite(&opts.out, &suite).map_err(|e| {
        format!(
            "failed to write BENCH_{}.json under {}: {e}",
            suite.name,
            opts.out.display()
        )
    })?;
    eprintln!("[voltctl-exp] wrote {}", path.display());

    let mut failures = Vec::new();
    let insane = suite.insane_points();
    if !insane.is_empty() {
        failures.push(format!("NaN/zero-throughput points: {}", insane.join(", ")));
    }
    // Lane gate: batched vs. scalar within the same run.
    if !opts.smoke {
        let best = suite
            .summary
            .iter()
            .filter(|(n, _)| n.starts_with("lane_speedup_"))
            .map(|(_, v)| *v)
            .fold(f64::NAN, f64::max);
        if best.is_nan() || best < MIN_LANE_SPEEDUP {
            failures.push(format!(
                "lane speedup gate: best {best:.2}x is below {MIN_LANE_SPEEDUP}x"
            ));
        }
    }
    // Provenance: baselines are regenerate-in-place, so their manifest
    // is too (plain overwrite, not the -N writer).
    let mut manifest = crate::manifest::Manifest::new("bench");
    manifest.smoke = opts.smoke;
    manifest.wall(started.elapsed());
    manifest.artifact(&path);
    match manifest.write_over(&opts.out) {
        Ok(path) => eprintln!("[voltctl-exp] wrote {}", path.display()),
        Err(e) => {
            return Err(format!(
                "failed to write manifest.json under {}: {e}",
                opts.out.display()
            ))
        }
    }

    if failures.is_empty() {
        Ok(path)
    } else {
        Err(format!("BENCH_{}: {}", suite.name, failures.join("; ")))
    }
}

/// Writes one suite's artifact, creating the directory as needed.
fn write_suite(dir: &Path, suite: &BenchSuite) -> std::io::Result<PathBuf> {
    std::fs::create_dir_all(dir)?;
    let path = dir.join(format!("BENCH_{}.json", suite.name));
    std::fs::write(&path, suite.to_json())?;
    Ok(path)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn loop_suite_measures_all_variants() {
        let suite = bench_loop(true);
        assert!(suite.insane_points().is_empty(), "{:?}", suite.points);
        let paths: Vec<&str> = suite.points.iter().map(|p| p.path).collect();
        assert_eq!(
            paths,
            [
                "uncontrolled",
                "controlled",
                "lane_w4",
                "lane_w8",
                "recorded",
                "traced",
                "recorded_trace",
                "snapshot_save",
                "snapshot_restore"
            ]
        );
        // A lane point's `cycles` is the aggregate over all lanes.
        let chunk = suite.points[0].cycles;
        let w8 = suite.points.iter().find(|p| p.path == "lane_w8").unwrap();
        assert_eq!(w8.cycles, 8 * chunk);
        for p in &suite.points {
            assert!(
                (p.ns_per_cycle - p.wall_ns / p.cycles as f64).abs() < 1e-9,
                "{}: ns_per_cycle derives from wall_ns",
                p.path
            );
        }
        for key in [
            "telemetry_overhead_frac",
            "recording_overhead_frac",
            "snapshot_bytes",
            "snapshot_bytes_per_cycle",
            "snapshot_save_mb_per_sec",
            "snapshot_restore_mb_per_sec",
            "lane_speedup_w4",
            "lane_speedup_w8",
        ] {
            let v = suite.summary.iter().find(|(n, _)| *n == key).unwrap().1;
            assert!(v.is_finite(), "{key} must be measured");
        }
        let bytes = suite
            .summary
            .iter()
            .find(|(n, _)| *n == "snapshot_bytes")
            .unwrap()
            .1;
        assert!(bytes > 0.0, "a mid-run snapshot is never empty");
    }

    #[test]
    fn json_is_well_formed_and_nan_safe() {
        let suite = BenchSuite {
            name: "loop",
            smoke: true,
            points: vec![BenchPoint {
                path: "controlled",
                cycles: 100,
                wall_ns: f64::NAN,
                best_ns: 1.0,
                cycles_per_sec: 0.0,
                ns_per_cycle: f64::NAN,
            }],
            summary: vec![("x", f64::INFINITY)],
        };
        let json = suite.to_json();
        assert!(json.contains("\"wall_ns\": null"));
        assert!(json.contains("\"x\": null"));
        assert!(!json.contains("NaN") && !json.contains("inf"));
        // Balanced braces/brackets (cheap well-formedness probe).
        for (open, close) in [('{', '}'), ('[', ']')] {
            assert_eq!(
                json.matches(open).count(),
                json.matches(close).count(),
                "unbalanced {open}{close}"
            );
        }
        assert_eq!(suite.insane_points().len(), 1);
    }

    #[test]
    fn run_writes_artifacts_and_validates() {
        let dir = std::env::temp_dir().join(format!("voltctl-bench-test-{}", std::process::id()));
        let opts = BenchOpts {
            smoke: true,
            out: dir.clone(),
        };
        let path = run(&opts).expect("smoke bench must produce sane throughput");
        assert_eq!(path, dir.join("BENCH_loop.json"));
        let contents = std::fs::read_to_string(&path).unwrap();
        assert!(contents.contains("\"bench\": \"loop\""));
        assert!(contents.contains("\"cycles_per_sec\""));
        assert!(contents.contains("\"ns_per_cycle\""));
        assert!(contents.contains(&format!("\"schema\": {BENCH_SCHEMA}")));
        // The baseline directory is self-describing: a manifest lists
        // the artifact with its size.
        let manifest = std::fs::read_to_string(dir.join("manifest.json")).unwrap();
        voltctl_check::Json::parse(&manifest).expect("manifest parses");
        assert!(manifest.contains("\"path\": \"BENCH_loop.json\""));
        std::fs::remove_dir_all(&dir).unwrap();
    }
}
