//! Committed reference outputs (`benchmark/reference.json`), compiled
//! into the binary so a run checks its outputs wherever it executes.
//!
//! * engine scenarios (`sweep`, `suite`, and the `serve` mix rendered
//!   in-process): the FNV-1a digest of the report text;
//! * `loop` programs: the `LoopReport` fields, the FNV-1a digest of its
//!   `Debug` rendering (which spells every float exactly, so it pins the
//!   whole report bitwise) and `Cpu::arch_digest`.
//!
//! Each has a full-size and a smoke-size section. `voltctl-benchmark
//! refs` regenerates the file; the binary must then be rebuilt.

use std::sync::OnceLock;
use voltctl_check::Json;
use voltctl_core::LoopReport;
use voltctl_snap::fnv1a;

const COMMITTED: &str = include_str!("../reference.json");

/// The parsed reference file.
#[derive(Debug)]
pub struct References {
    root: Json,
}

fn section_name(smoke: bool) -> &'static str {
    if smoke {
        "smoke"
    } else {
        "full"
    }
}

/// The digest string stored for a report text.
pub fn report_digest(report: &str) -> String {
    format!("{:016x}", fnv1a(report.as_bytes()))
}

/// The JSON object stored for one loop program's run.
pub fn loop_entry(report: &LoopReport, arch_digest: u64) -> String {
    format!(
        "{{\"cycles\": {}, \"committed\": {}, \"ipc\": {}, \"interventions\": {}, \
         \"emergency_cycles\": {}, \"report_fnv\": \"{:016x}\", \"arch_digest\": \"{:016x}\"}}",
        report.cycles,
        report.committed,
        report.ipc,
        report.interventions,
        report.emergencies.emergency_cycles,
        fnv1a(format!("{report:?}").as_bytes()),
        arch_digest
    )
}

impl References {
    /// The references compiled into this binary.
    ///
    /// # Panics
    ///
    /// Panics if the committed file is not valid JSON (a build defect).
    pub fn committed() -> &'static References {
        static REFS: OnceLock<References> = OnceLock::new();
        REFS.get_or_init(|| References {
            root: Json::parse(COMMITTED).expect("benchmark/reference.json is valid JSON"),
        })
    }

    fn entry(&self, smoke: bool, group: &str, key: &str) -> Option<&Json> {
        self.root.get(section_name(smoke))?.get(group)?.get(key)
    }

    /// Whether `report` matches the reference render of scenario `id`.
    pub fn scenario_ok(&self, smoke: bool, id: &str, report: &str) -> bool {
        self.entry(smoke, "scenarios", id).and_then(Json::as_str)
            == Some(report_digest(report).as_str())
    }

    /// Whether a loop run of `program` matches its reference.
    pub fn loop_ok(&self, smoke: bool, program: &str, report: &LoopReport, digest: u64) -> bool {
        let Some(want) = self.entry(smoke, "loop", program) else {
            return false;
        };
        let Ok(got) = Json::parse(&loop_entry(report, digest)) else {
            return false;
        };
        ["report_fnv", "arch_digest"]
            .iter()
            .all(|k| want.get(k).is_some() && want.get(k) == got.get(k))
    }
}
