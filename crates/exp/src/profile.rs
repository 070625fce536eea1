//! The engine self-profiler: wall-clock spans over the experiment
//! pipeline's stages, exported as a folded-stacks file plus a per-stage
//! summary table.
//!
//! The engine takes its profiler as a plain `Option<&SelfProfiler>`:
//! `None` (every unprofiled run) reads no clock, and `Some` is the
//! profiler behind `voltctl-exp run --profile`. Spans fire once per
//! grid cell, lane chunk or stage — never per simulated cycle — so the
//! check is one branch per span. Each span is a
//! [`Stopwatch`](voltctl_telemetry::Stopwatch) started with
//! `started_if(profiler.is_some())` whose `elapsed_ns()` goes to
//! [`SelfProfiler::record`].
//!
//! Span identities are *folded stacks* — frame names joined with `;`,
//! e.g. `exp;fig08_stressmark;grid;job0;traced-controlled` — so the
//! [`SelfProfiler::folded`] output loads directly in
//! [speedscope](https://speedscope.app) ("import from file") or
//! inferno's `flamegraph.pl`-compatible tooling. Sample values are
//! nanoseconds.
//!
//! The stages covered:
//!
//! * `grid;job<j>;<cell>` — each grid cell, tagged with the worker that
//!   ran it;
//! * `lanes;{gather,step,scatter};chunk<c>` — the three phases of each
//!   lane chunk, for scenarios the lane executor runs;
//! * `merge`, `render`, `export` — the engine's serial tail;
//! * `harness;solve;…` / `harness;calibrate;…` — the memoized solver and
//!   PDN-calibration passes, recorded only on cache misses (hits cost a
//!   lookup; misses are where the seconds go). These record through the
//!   process-global profiler installed by [`install_global`], because
//!   the harness's memoized free functions have no profiler handle.

use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::sync::{Mutex, OnceLock};

use crate::report::TextTable;

/// Aggregate statistics for one span stack.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct SpanStat {
    /// Number of spans recorded against this stack.
    pub count: u64,
    /// Total nanoseconds across those spans.
    pub total_ns: u64,
}

/// The profiler: a mutex-guarded map from folded stack to aggregate
/// span statistics. Recording is per-span (cells, stages), not
/// per-cycle, so the lock is far off every hot path. It is `Sync`: grid
/// cells record from worker threads with only `&self`.
#[derive(Debug, Default)]
pub struct SelfProfiler {
    spans: Mutex<BTreeMap<String, SpanStat>>,
}

impl SelfProfiler {
    /// An empty profiler.
    pub fn new() -> SelfProfiler {
        SelfProfiler::default()
    }

    /// Credits `ns` nanoseconds to the span stack `frames` (outermost
    /// frame first).
    pub fn record(&self, frames: &[&str], ns: u64) {
        let key = frames.join(";");
        let mut spans = self.spans.lock().expect("profiler lock poisoned");
        let stat = spans.entry(key).or_default();
        stat.count += 1;
        stat.total_ns += ns;
    }

    /// Whether anything has been recorded.
    pub fn is_empty(&self) -> bool {
        self.spans
            .lock()
            .expect("profiler lock poisoned")
            .is_empty()
    }

    /// A sorted copy of the recorded stacks.
    pub fn stacks(&self) -> Vec<(String, SpanStat)> {
        self.spans
            .lock()
            .expect("profiler lock poisoned")
            .iter()
            .map(|(k, v)| (k.clone(), *v))
            .collect()
    }

    /// The folded-stacks rendering: one `stack total_ns` line per
    /// recorded stack, sorted lexicographically. Loadable in speedscope
    /// or by inferno/FlameGraph tooling (values are nanoseconds).
    pub fn folded(&self) -> String {
        let mut out = String::new();
        for (stack, stat) in self.stacks() {
            let _ = writeln!(out, "{stack} {}", stat.total_ns);
        }
        out
    }

    /// The per-stage summary table: stacks grouped by their stage frame
    /// (see [`stage_of`]), with span counts, total milliseconds, and
    /// mean microseconds per span, sorted by total descending.
    ///
    /// Stages can nest (a `solve` span runs *inside* the cell span that
    /// triggered it), so column totals are not additive wall clock.
    pub fn summary(&self) -> String {
        let mut by_stage: BTreeMap<String, SpanStat> = BTreeMap::new();
        for (stack, stat) in self.stacks() {
            let agg = by_stage.entry(stage_of(&stack).to_string()).or_default();
            agg.count += stat.count;
            agg.total_ns += stat.total_ns;
        }
        let mut rows: Vec<(String, SpanStat)> = by_stage.into_iter().collect();
        rows.sort_by(|a, b| b.1.total_ns.cmp(&a.1.total_ns).then(a.0.cmp(&b.0)));

        let mut t = TextTable::new(["stage", "spans", "total (ms)", "mean (us)"]);
        for (stage, stat) in rows {
            let mean_us = stat.total_ns as f64 / stat.count.max(1) as f64 / 1e3;
            t.row([
                stage,
                stat.count.to_string(),
                format!("{:.3}", stat.total_ns as f64 / 1e6),
                format!("{mean_us:.1}"),
            ]);
        }
        t.render()
    }
}

/// The stage a folded stack belongs to, for the summary table:
/// `exp;<id>;<stage>;…` groups by `<stage>` (grid/merge/render/export),
/// anything else by its second frame (`harness;solve;…` → `solve`).
///
/// The lane executor's sub-stages keep their own rows —
/// `exp;<id>;lanes;gather;…` groups as `lanes;gather` (likewise `step`
/// and `scatter`) — so `run --profile` attributes transpose, lockstep
/// simulation, and result reshaping separately from scalar cell work.
pub fn stage_of(stack: &str) -> &str {
    let mut parts = stack.split(';');
    let first = parts.next().unwrap_or(stack);
    let second = parts.next();
    if first == "exp" {
        let stage = parts.next().or(second).unwrap_or(first);
        if stage == "lanes" {
            if let Some(sub) = parts.next() {
                // `lanes;<sub>` is contiguous within the stack string.
                let start = stage.as_ptr() as usize - stack.as_ptr() as usize;
                let end = sub.as_ptr() as usize + sub.len() - stack.as_ptr() as usize;
                return &stack[start..end];
            }
        }
        stage
    } else {
        second.unwrap_or(first)
    }
}

static GLOBAL: OnceLock<SelfProfiler> = OnceLock::new();

/// Installs (or returns the already-installed) process-global profiler.
/// `voltctl-exp run --profile` calls this once at startup; the harness's
/// memoized solve/calibrate paths then record their cache-miss work.
pub fn install_global() -> &'static SelfProfiler {
    GLOBAL.get_or_init(SelfProfiler::new)
}

/// The process-global profiler, if [`install_global`] has run. The
/// harness checks this on its slow paths; when profiling is off the
/// cost is one relaxed atomic load per cache miss.
pub fn global() -> Option<&'static SelfProfiler> {
    GLOBAL.get()
}

#[cfg(test)]
mod tests {
    use super::*;
    use voltctl_telemetry::Stopwatch;

    #[test]
    fn spans_fold_into_stacks() {
        let p = SelfProfiler::new();
        for _ in 0..3 {
            let sw = Stopwatch::started_if(true);
            std::hint::black_box((0..100).sum::<u64>());
            p.record(&["exp", "x", "grid", "job0", "cell0"], sw.elapsed_ns());
        }
        p.record(&["exp", "x", "merge"], 0);
        let stacks = p.stacks();
        assert_eq!(stacks.len(), 2);
        assert_eq!(stacks[0].0, "exp;x;grid;job0;cell0");
        assert_eq!(stacks[0].1.count, 3);
        assert_eq!(stacks[1].0, "exp;x;merge");

        let folded = p.folded();
        assert_eq!(folded.lines().count(), 2);
        for line in folded.lines() {
            let (stack, ns) = line.rsplit_once(' ').expect("stack<space>value");
            assert!(!stack.is_empty());
            ns.parse::<u64>().expect("value parses as nanoseconds");
        }
    }

    #[test]
    fn stage_grouping_is_stable() {
        assert_eq!(stage_of("exp;fig08;grid;job3;cell"), "grid");
        assert_eq!(stage_of("exp;fig14;lanes;gather;chunk0"), "lanes;gather");
        assert_eq!(stage_of("exp;fig14;lanes;step;chunk2"), "lanes;step");
        assert_eq!(stage_of("exp;fig14;lanes;scatter;chunk1"), "lanes;scatter");
        assert_eq!(stage_of("exp;fig14;lanes"), "lanes");
        assert_eq!(stage_of("exp;fig08;merge"), "merge");
        assert_eq!(stage_of("exp;fig08;export"), "export");
        assert_eq!(stage_of("harness;solve;fu-dl1.d2"), "solve");
        assert_eq!(stage_of("harness;calibrate;p200"), "calibrate");
        assert_eq!(stage_of("lonely"), "lonely");
    }

    #[test]
    fn summary_ranks_stages_by_total() {
        let p = SelfProfiler::new();
        p.record(&["exp", "x", "grid", "job0", "a"], 5_000_000);
        p.record(&["exp", "x", "grid", "job1", "b"], 5_000_000);
        p.record(&["exp", "x", "render"], 1_000_000);
        let summary = p.summary();
        let grid_pos = summary.find("grid").expect("grid row");
        let render_pos = summary.find("render").expect("render row");
        assert!(
            grid_pos < render_pos,
            "grid (10ms) ranks above render:\n{summary}"
        );
        assert!(summary.contains("10.000"), "grid total in ms:\n{summary}");
    }

    #[test]
    fn global_profiler_installs_once() {
        assert!(global().is_none() || global().is_some()); // state depends on test order
        let a = install_global() as *const SelfProfiler;
        let b = install_global() as *const SelfProfiler;
        assert_eq!(a, b, "install is idempotent");
        assert!(global().is_some());
    }
}
