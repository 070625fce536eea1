//! The `voltctl-benchmark` command line.

use std::path::PathBuf;
use std::process::ExitCode;
use voltctl_benchmark::compare::compare;
use voltctl_benchmark::run::{child, run, RunArgs};
use voltctl_benchmark::workload::{reference_json, Kind, Mode, Opts};

const USAGE: &str = "\
voltctl-benchmark — end-to-end and per-layer benchmark of voltctl

USAGE:
    voltctl-benchmark run [OPTIONS]     time workloads; prints a JSON summary last
    voltctl-benchmark compare <A> <B>   pair-rule comparison of two record directories;
                                        exits 0 pass, 1 regression, 3 unresolved
    voltctl-benchmark refs              rewrite benchmark/reference.json (then rebuild)

OPTIONS:
    --workload <W>   loop | sweep | suite | serve | all   (default: all)
    --seed <N>       input seed, decimal or 0x-hex         (default: 0x5EEDC0DE)
    --seconds <S>    measured seconds per phase            (default: 15)
    --trace <0|1>    1: per-layer metrics from a traced run (default: 0, end-to-end)
    --smoke          tiny inputs, one process, both metric sets
    --out <DIR>      run records and scratch state          (default: benchmark/out)
";

fn parse_seed(s: &str) -> Option<u64> {
    match s.strip_prefix("0x").or_else(|| s.strip_prefix("0X")) {
        Some(hex) => u64::from_str_radix(hex, 16).ok(),
        None => s.parse().ok(),
    }
}

struct Parsed {
    kinds: Vec<Kind>,
    opts: Opts,
    trace: bool,
    mode: Option<Mode>,
}

fn parse_run(args: &[String]) -> Result<Parsed, String> {
    let mut p = Parsed {
        kinds: Kind::ALL.to_vec(),
        opts: Opts {
            seed: 0x5EED_C0DE,
            seconds: 15.0,
            smoke: false,
            out: PathBuf::from("benchmark/out"),
        },
        trace: false,
        mode: None,
    };
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        if flag == "--smoke" {
            p.opts.smoke = true;
            continue;
        }
        let value = it
            .next()
            .ok_or_else(|| format!("{flag} needs a value"))?
            .as_str();
        let bad = || format!("bad value {value:?} for {flag}");
        match flag.as_str() {
            "--workload" if value == "all" => p.kinds = Kind::ALL.to_vec(),
            "--workload" => {
                p.kinds = value
                    .split(',')
                    .map(|w| Kind::parse(w).ok_or_else(bad))
                    .collect::<Result<_, _>>()?;
            }
            "--seed" => p.opts.seed = parse_seed(value).ok_or_else(bad)?,
            "--seconds" => {
                p.opts.seconds = value
                    .parse()
                    .ok()
                    .filter(|s: &f64| s.is_finite() && *s > 0.0)
                    .ok_or_else(bad)?;
            }
            "--trace" => {
                p.trace = match value {
                    "0" => false,
                    "1" => true,
                    _ => return Err(bad()),
                };
            }
            "--out" => p.opts.out = PathBuf::from(value),
            "--mode" => p.mode = Some(Mode::parse(value).ok_or_else(bad)?),
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    Ok(p)
}

fn dispatch(args: &[String]) -> Result<ExitCode, String> {
    match args.first().map(String::as_str) {
        Some("run") => {
            let p = parse_run(&args[1..])?;
            let summary = run(&RunArgs {
                kinds: p.kinds,
                opts: p.opts,
                trace: p.trace,
            })?;
            println!("{summary}");
            Ok(ExitCode::SUCCESS)
        }
        Some("child") => {
            let p = parse_run(&args[1..])?;
            let mode = p.mode.ok_or("child needs --mode")?;
            child(&p.kinds, &p.opts, mode)?;
            Ok(ExitCode::SUCCESS)
        }
        Some("compare") => {
            let [a, b] = &args[1..] else {
                return Err("compare takes two record directories".to_string());
            };
            let (report, outcome) = compare(a.as_ref(), b.as_ref())?;
            print!("{report}");
            Ok(ExitCode::from(outcome.exit_code()))
        }
        Some("refs") if args.len() == 1 => {
            let file = "benchmark/reference.json";
            std::fs::write(file, reference_json()?).map_err(|e| format!("{file}: {e}"))?;
            eprintln!("wrote {file}; rebuild to compile it in");
            Ok(ExitCode::SUCCESS)
        }
        _ => {
            eprint!("{USAGE}");
            Ok(ExitCode::from(2))
        }
    }
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    dispatch(&args).unwrap_or_else(|e| {
        eprintln!("voltctl-benchmark: {e}");
        ExitCode::from(2)
    })
}
