//! The scenario driver: every grid a `voltctl-exp run` or a daemon job
//! runs goes through [`run_sharded`], checkpointed (`run --shards K` /
//! `run --resume DIR`, daemon jobs with checkpoints on) or not (a plain
//! `run`).
//!
//! A shard is a contiguous slice of a scenario's grid. [`plan_shards`]
//! splits the grid into K slices whose sizes differ by at most one;
//! each completed shard's [`CellResult`]s are serialized into a
//! [`SnapshotKind::Shard`] container (one `.snap` file per shard under
//! its canonical [`checkpoint_file`] name, written to a temporary
//! sibling and renamed into place), and the final merge feeds the
//! concatenated results to the engine's grid-order merge and render —
//! so the report, telemetry, and trace artifacts are byte-identical at
//! any shard count and any `--jobs` value.
//!
//! A resumed run ([`ShardOpts::resume`]) loads every shard whose
//! canonical checkpoint file is present and valid — matching scenario,
//! shard geometry, and [`ctx_fingerprint`] — and recomputes the rest,
//! writing the recomputed shard back over the rejected file. Invalid
//! checkpoints (truncated, corrupted, version-skewed, or taken under a
//! different context) are *rejected and recomputed*, never
//! half-loaded: decoding is all-or-nothing per file.
//!
//! After each shard the driver hands a [`ShardDone`] to the caller's
//! callback, which decides whether the run goes on: the CLI stops on a
//! failed checkpoint write, the daemon logs it and stops only when its
//! job is cancelled.
//!
//! Checkpoint layout (kind = shard, both sections at
//! [`SHARD_SECTION_VERSION`]):
//!
//! | tag | section | contents                                         |
//! |-----|---------|--------------------------------------------------|
//! | 1   | meta    | scenario id, shard index/count, cell range, grid size, ctx fingerprint + fields |
//! | 2   | cells   | the shard's `CellResult`s (label, row, text, values, recorder, tracer) |

use std::ops::{ControlFlow, Range};
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, Ordering};
use std::time::Instant;

use voltctl_snap::{
    ByteWriter, Pack, SnapError, SnapshotKind, SnapshotReader, SnapshotWriter, Unpack,
};

use crate::engine::{assemble_run_profiled, run_cells_profiled, CellResult, Ctx, RunOutput};
use crate::profile::SelfProfiler;

/// Version stamped on (and required of) every section in a shard
/// checkpoint.
pub const SHARD_SECTION_VERSION: u16 = 1;

/// Section tags of the shard container.
pub mod section {
    /// Shard geometry and run-context provenance.
    pub const META: u16 = 1;
    /// The shard's cell results.
    pub const CELLS: u16 = 2;
}

/// Splits `cells` grid indices into `shards` contiguous ranges whose
/// sizes differ by at most one (earlier shards take the remainder).
/// `shards` is clamped to `[1, cells]`; an empty grid yields one empty
/// shard so the downstream merge still runs.
pub fn plan_shards(cells: usize, shards: usize) -> Vec<Range<usize>> {
    let k = shards.clamp(1, cells.max(1));
    let base = cells / k;
    let rem = cells % k;
    let mut plan = Vec::with_capacity(k);
    let mut start = 0;
    for i in 0..k {
        let len = base + usize::from(i < rem);
        plan.push(start..start + len);
        start += len;
    }
    plan
}

/// Fingerprints the parts of a [`Ctx`] that change cell *results*:
/// scale, smoke, telemetry collection, and the trace window. A
/// checkpoint taken under a different fingerprint holds answers to a
/// different question and is rejected on resume. (`telemetry_out` is
/// deliberately excluded — it moves artifacts, not results.)
pub fn ctx_fingerprint(ctx: &Ctx) -> u64 {
    let mut w = ByteWriter::new();
    w.put_u64(ctx.scale.to_bits());
    w.put_bool(ctx.smoke);
    w.put_bool(ctx.telemetry);
    ctx.trace.map(|t| t.window).pack(&mut w);
    voltctl_snap::fnv1a(w.as_bytes())
}

/// The canonical checkpoint file name for one shard of one scenario.
/// Resume reads exactly this name, and every checkpoint is written
/// under it, replacing whatever was there.
pub fn checkpoint_file(id: &str, shard: usize, shards: usize) -> String {
    format!("{id}.shard{shard}of{shards}.snap")
}

/// Provenance and geometry carried in a shard checkpoint's meta
/// section.
#[derive(Debug, Clone, PartialEq)]
pub struct ShardMeta {
    /// The scenario the cells belong to.
    pub scenario: String,
    /// This shard's index (0-based).
    pub shard: usize,
    /// Total shards in the plan.
    pub shards: usize,
    /// Grid-index range covered: `start..end`.
    pub start: usize,
    /// End of the covered range (exclusive).
    pub end: usize,
    /// Total cells in the scenario's grid when the shard ran.
    pub total_cells: usize,
    /// [`ctx_fingerprint`] of the run context.
    pub fingerprint: u64,
    /// Cycle-budget scale the cells ran at (for `snapshot inspect`).
    pub scale: f64,
    /// Whether smoke budgets were used.
    pub smoke: bool,
    /// Whether telemetry was collected.
    pub telemetry: bool,
    /// Flight-recorder window when tracing was on.
    pub trace_window: Option<usize>,
}

impl ShardMeta {
    /// Builds the meta record for shard `shard` covering `range`.
    pub fn new(
        scenario: &str,
        ctx: &Ctx,
        shard: usize,
        shards: usize,
        range: &Range<usize>,
        total_cells: usize,
    ) -> ShardMeta {
        ShardMeta {
            scenario: scenario.to_string(),
            shard,
            shards,
            start: range.start,
            end: range.end,
            total_cells,
            fingerprint: ctx_fingerprint(ctx),
            scale: ctx.scale,
            smoke: ctx.smoke,
            telemetry: ctx.telemetry,
            trace_window: ctx.trace.map(|t| t.window),
        }
    }
}

impl Pack for ShardMeta {
    fn pack(&self, w: &mut ByteWriter) {
        w.put_str(&self.scenario);
        w.put_usize(self.shard);
        w.put_usize(self.shards);
        w.put_usize(self.start);
        w.put_usize(self.end);
        w.put_usize(self.total_cells);
        w.put_u64(self.fingerprint);
        w.put_f64(self.scale);
        w.put_bool(self.smoke);
        w.put_bool(self.telemetry);
        self.trace_window.pack(w);
    }
}

impl Unpack for ShardMeta {
    fn unpack(r: &mut voltctl_snap::ByteReader<'_>) -> Result<Self, SnapError> {
        let meta = ShardMeta {
            scenario: r.get_str()?,
            shard: r.get_usize()?,
            shards: r.get_usize()?,
            start: r.get_usize()?,
            end: r.get_usize()?,
            total_cells: r.get_usize()?,
            fingerprint: r.get_u64()?,
            scale: r.get_f64()?,
            smoke: r.get_bool()?,
            telemetry: r.get_bool()?,
            trace_window: Unpack::unpack(r)?,
        };
        if meta.shard >= meta.shards {
            return Err(SnapError::Corrupt(format!(
                "shard index {} out of range for {} shard(s)",
                meta.shard, meta.shards
            )));
        }
        if meta.start > meta.end || meta.end > meta.total_cells {
            return Err(SnapError::Corrupt(format!(
                "shard range {}..{} exceeds the {}-cell grid",
                meta.start, meta.end, meta.total_cells
            )));
        }
        Ok(meta)
    }
}

impl Pack for CellResult {
    fn pack(&self, w: &mut ByteWriter) {
        w.put_str(&self.label);
        self.row.pack(w);
        w.put_str(&self.text);
        w.put_usize(self.values.len());
        for (name, value) in &self.values {
            w.put_str(name);
            w.put_f64(*value);
        }
        self.recorder.pack(w);
        self.tracer.pack(w);
    }
}

impl Unpack for CellResult {
    fn unpack(r: &mut voltctl_snap::ByteReader<'_>) -> Result<Self, SnapError> {
        let label = r.get_str()?;
        let row = Unpack::unpack(r)?;
        let text = r.get_str()?;
        let count = r.get_count("cell values")?;
        let mut values = Vec::with_capacity(count);
        for _ in 0..count {
            // Metric names are `&'static str` in the live struct; the
            // process-wide intern pool restores that after a decode.
            let name = voltctl_telemetry::intern::intern_static(&r.get_str()?);
            values.push((name, r.get_f64()?));
        }
        Ok(CellResult {
            label,
            row,
            text,
            values,
            recorder: Unpack::unpack(r)?,
            tracer: Unpack::unpack(r)?,
        })
    }
}

/// Serializes one completed shard into a shard-kind snapshot container.
pub fn encode_checkpoint(meta: &ShardMeta, cells: &[CellResult]) -> Vec<u8> {
    let mut w = SnapshotWriter::new(SnapshotKind::Shard);
    let mut m = ByteWriter::new();
    meta.pack(&mut m);
    w.section(section::META, SHARD_SECTION_VERSION, m);
    let mut c = ByteWriter::new();
    c.put_usize(cells.len());
    for cell in cells {
        cell.pack(&mut c);
    }
    w.section(section::CELLS, SHARD_SECTION_VERSION, c);
    w.finish()
}

/// Decodes a shard checkpoint all-or-nothing: container framing, both
/// sections, and the meta/cells consistency check (`end - start` cells)
/// must all hold before anything is returned.
///
/// # Errors
///
/// Every malformed input maps to a [`SnapError`] naming what failed;
/// no partial state escapes.
pub fn decode_checkpoint(bytes: &[u8]) -> Result<(ShardMeta, Vec<CellResult>), SnapError> {
    let snap = SnapshotReader::parse(bytes)?;
    if snap.kind() != SnapshotKind::Shard {
        return Err(SnapError::Corrupt(format!(
            "expected a shard snapshot, found a {} snapshot",
            snap.kind().name()
        )));
    }
    let read = |tag: u16, what: &'static str| -> Result<voltctl_snap::ByteReader<'_>, SnapError> {
        let sec = snap.require(tag, what)?;
        if sec.version != SHARD_SECTION_VERSION {
            return Err(SnapError::UnsupportedVersion {
                what,
                found: sec.version as u32,
                supported: SHARD_SECTION_VERSION as u32,
            });
        }
        Ok(sec.reader())
    };

    let mut r = read(section::META, "shard meta")?;
    let meta = ShardMeta::unpack(&mut r)?;
    r.expect_end("shard meta")?;

    let mut r = read(section::CELLS, "shard cells")?;
    let count = r.get_count("shard cells")?;
    if count != meta.end - meta.start {
        return Err(SnapError::Corrupt(format!(
            "checkpoint for cells {}..{} carries {count} result(s)",
            meta.start, meta.end
        )));
    }
    let mut cells = Vec::with_capacity(count);
    for _ in 0..count {
        cells.push(CellResult::unpack(&mut r)?);
    }
    r.expect_end("shard cells")?;
    Ok((meta, cells))
}

/// How a run should find and keep its checkpoints.
#[derive(Debug, Clone, Default)]
pub struct ShardOpts {
    /// Shard count. `None` with a resume directory infers the count
    /// from the checkpoints found there (falling back to 1).
    pub shards: Option<usize>,
    /// Directory to load existing checkpoints from (`run --resume`).
    pub resume: Option<PathBuf>,
    /// Directory newly computed shards are checkpointed into; `None`
    /// keeps no checkpoints (a plain `run`).
    pub dir: Option<PathBuf>,
}

/// What the driver tells its caller after each shard.
#[derive(Debug, Clone, PartialEq)]
pub struct ShardDone {
    /// The shard just finished (0-based).
    pub shard: usize,
    /// Shards in the plan.
    pub shards: usize,
    /// Cells finished so far, this shard included.
    pub cells_done: usize,
    /// Cells in the whole grid.
    pub cells_total: usize,
    /// Whether the shard was loaded from a checkpoint.
    pub resumed: bool,
    /// Why the shard's checkpoint could not be written, if it could not.
    pub write_error: Option<String>,
}

/// The outcome of a run: the merged output plus shard lineage for the
/// provenance manifest.
#[derive(Debug)]
pub struct ShardRun {
    /// The merged run output — byte-identical at any shard count.
    pub output: RunOutput,
    /// Shard count actually used.
    pub shards: usize,
    /// Shards restored from checkpoints instead of recomputed.
    pub loaded: usize,
    /// Checkpoint files written by this invocation.
    pub written: Vec<PathBuf>,
}

/// Infers the shard count from the canonical checkpoint files present
/// for `id` under `dir` (smallest count wins if several plans coexist).
fn infer_shards(dir: &Path, id: &str) -> Option<usize> {
    let prefix = format!("{id}.shard");
    let entries = std::fs::read_dir(dir).ok()?;
    let mut counts: Vec<usize> = entries
        .filter_map(|e| e.ok()?.file_name().into_string().ok())
        .filter_map(|name| {
            let rest = name.strip_prefix(&prefix)?.strip_suffix(".snap")?;
            let (shard, shards) = rest.split_once("of")?;
            let _: usize = shard.parse().ok()?;
            shards.parse().ok()
        })
        .collect();
    counts.sort_unstable();
    counts.into_iter().next()
}

/// Loads one shard's checkpoint if its canonical file exists and its
/// meta matches the expected geometry and context. Returns the cells on
/// success, `None` (after a stderr warning for real mismatches) when
/// the shard must be recomputed.
fn try_load_shard(dir: &Path, expected: &ShardMeta) -> Option<Vec<CellResult>> {
    let path = dir.join(checkpoint_file(
        &expected.scenario,
        expected.shard,
        expected.shards,
    ));
    let bytes = std::fs::read(&path).ok()?;
    let reject = |why: String| {
        voltctl_telemetry::warn(
            "shard.resume",
            &format!("ignoring {}: {why}; recomputing shard", path.display()),
        );
        None
    };
    match decode_checkpoint(&bytes) {
        Ok((meta, cells)) => {
            if meta != *expected {
                return reject(format!(
                    "checkpoint was taken for {} shard {}/{} cells {}..{} \
                     (fingerprint {:#x}), this run needs shard {}/{} cells {}..{} \
                     (fingerprint {:#x})",
                    meta.scenario,
                    meta.shard,
                    meta.shards,
                    meta.start,
                    meta.end,
                    meta.fingerprint,
                    expected.shard,
                    expected.shards,
                    expected.start,
                    expected.end,
                    expected.fingerprint,
                ));
            }
            Some(cells)
        }
        Err(e) => reject(format!("{e}")),
    }
}

/// Writes `bytes` to `dir/file`, replacing any existing file: the bytes
/// go to a temporary sibling whose name is unique to this writer, which
/// is then renamed over `file`, so a process that dies mid-write never
/// leaves a partial file under the canonical name. Nothing is synced to
/// disk: a checkpoint damaged by a power loss is rejected on resume,
/// recomputed, and written again.
fn write_replacing(dir: &Path, file: &str, bytes: &[u8]) -> std::io::Result<PathBuf> {
    static WRITERS: AtomicU64 = AtomicU64::new(0);
    std::fs::create_dir_all(dir)?;
    let n = WRITERS.fetch_add(1, Ordering::Relaxed);
    let tmp = dir.join(format!(".{file}.{}.{n}.tmp", std::process::id()));
    let path = dir.join(file);
    let written = std::fs::write(&tmp, bytes).and_then(|()| std::fs::rename(&tmp, &path));
    if written.is_err() {
        let _ = std::fs::remove_file(&tmp);
    }
    written.map(|()| path)
}

/// Runs `scenario`'s grid shard by shard: each shard's cells fan out
/// across `jobs` workers, shards whose checkpoints exist under
/// `opts.resume` are loaded instead of recomputed, and computed shards
/// are checkpointed under `opts.dir` when it is set. The concatenated
/// results then go through the engine's grid-order merge and render.
///
/// After every shard, `on_shard` sees a [`ShardDone`]; returning
/// `Break(reason)` stops the run before the next shard.
///
/// # Errors
///
/// Returns the `reason` of the `Break` that stopped the run.
pub fn run_sharded(
    scenario: &dyn crate::engine::Scenario,
    ctx: &Ctx,
    jobs: usize,
    opts: &ShardOpts,
    profiler: Option<&SelfProfiler>,
    mut on_shard: impl FnMut(&ShardDone) -> ControlFlow<String>,
) -> Result<ShardRun, String> {
    let started = Instant::now();
    let id = scenario.id();
    let total = scenario.cells(ctx).len();
    let jobs = jobs.max(1).min(total.max(1));
    let shards = opts
        .shards
        .or_else(|| infer_shards(opts.resume.as_deref()?, id))
        .unwrap_or(1);
    let plan = plan_shards(total, shards);
    let shards = plan.len();

    let mut results: Vec<CellResult> = Vec::with_capacity(total);
    let mut loaded = 0;
    let mut written = Vec::new();
    for (i, range) in plan.iter().enumerate() {
        let meta = ShardMeta::new(id, ctx, i, shards, range, total);
        let mut write_error = None;
        let cells = opts
            .resume
            .as_deref()
            .and_then(|d| try_load_shard(d, &meta));
        let resumed = cells.is_some();
        let cells = cells.unwrap_or_else(|| {
            let cells = run_cells_profiled(scenario, ctx, jobs, range.clone(), profiler);
            if let Some(dir) = &opts.dir {
                let bytes = encode_checkpoint(&meta, &cells);
                match write_replacing(dir, &checkpoint_file(id, i, shards), &bytes) {
                    Ok(path) => written.push(path),
                    Err(e) => {
                        write_error = Some(format!(
                            "cannot checkpoint shard {i} of {id} under {}: {e}",
                            dir.display()
                        ))
                    }
                }
            }
            cells
        });
        loaded += usize::from(resumed);
        results.extend(cells);
        let done = ShardDone {
            shard: i,
            shards,
            cells_done: results.len(),
            cells_total: total,
            resumed,
            write_error,
        };
        if let ControlFlow::Break(reason) = on_shard(&done) {
            return Err(reason);
        }
    }

    let mut output = assemble_run_profiled(scenario, ctx, results, jobs, profiler);
    output.elapsed = started.elapsed();
    Ok(ShardRun {
        output,
        shards,
        loaded,
        written,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::engine::Scenario;
    use std::sync::atomic::AtomicUsize;
    use voltctl_telemetry::Recorder as _;

    /// A test grid of `cells` cells; `cells_run` counts `run_cell` calls.
    struct Grid {
        cells: usize,
        cells_run: AtomicUsize,
    }

    fn grid(cells: usize) -> Grid {
        Grid {
            cells,
            cells_run: AtomicUsize::new(0),
        }
    }

    impl Scenario for Grid {
        fn id(&self) -> &'static str {
            "shard_grid"
        }
        fn title(&self) -> &'static str {
            "shard test grid"
        }
        fn cells(&self, _ctx: &Ctx) -> Vec<String> {
            (0..self.cells).map(|k| format!("cell{k}")).collect()
        }
        fn run_cell(&self, _ctx: &Ctx, cell: usize) -> CellResult {
            self.cells_run.fetch_add(1, Ordering::Relaxed);
            let mut r = CellResult::new(format!("cell{cell}"));
            r.value("idx", cell as f64);
            r.row = vec![cell.to_string()];
            r.text = format!("ran {cell}");
            r.recorder.counter("cells.run", 1);
            r.recorder.value("cell.index", cell as f64);
            r
        }
        fn render(&self, _ctx: &Ctx, cells: &[CellResult]) -> String {
            cells
                .iter()
                .map(|c| format!("{}={}", c.label, c.require("idx")))
                .collect::<Vec<_>>()
                .join("\n")
        }
    }

    fn temp_dir(tag: &str) -> PathBuf {
        let dir = std::env::temp_dir().join(format!("voltctl-shard-{tag}-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).unwrap();
        dir
    }

    /// The CLI's policy: stop on a failed checkpoint write.
    fn stop_on_write_error(done: &ShardDone) -> ControlFlow<String> {
        match &done.write_error {
            Some(e) => ControlFlow::Break(e.clone()),
            None => ControlFlow::Continue(()),
        }
    }

    fn run(scenario: &Grid, ctx: &Ctx, jobs: usize, opts: &ShardOpts) -> ShardRun {
        run_sharded(scenario, ctx, jobs, opts, None, stop_on_write_error).unwrap()
    }

    fn opts(shards: Option<usize>, resume: Option<&Path>, dir: &Path) -> ShardOpts {
        ShardOpts {
            shards,
            resume: resume.map(Path::to_path_buf),
            dir: Some(dir.to_path_buf()),
        }
    }

    #[test]
    fn plans_are_contiguous_and_balanced() {
        for cells in [0usize, 1, 2, 7, 8, 61] {
            for shards in [1usize, 2, 3, 8, 100] {
                let plan = plan_shards(cells, shards);
                assert!(!plan.is_empty());
                assert!(plan.len() <= shards.max(1));
                assert_eq!(plan[0].start, 0);
                assert_eq!(plan.last().unwrap().end, cells);
                let mut sizes = Vec::new();
                for w in plan.windows(2) {
                    assert_eq!(w[0].end, w[1].start, "contiguous");
                }
                for r in &plan {
                    sizes.push(r.len());
                }
                let (min, max) = (sizes.iter().min().unwrap(), sizes.iter().max().unwrap());
                assert!(max - min <= 1, "{cells} cells / {shards} shards: {sizes:?}");
            }
        }
    }

    #[test]
    fn checkpoint_round_trips_cells_exactly() {
        let ctx = Ctx::default();
        let range = 1..4;
        let cells = run_cells_profiled(&grid(5), &ctx, 1, range.clone(), None);
        let meta = ShardMeta::new("shard_grid", &ctx, 0, 2, &range, 5);
        let bytes = encode_checkpoint(&meta, &cells);
        let (meta2, cells2) = decode_checkpoint(&bytes).unwrap();
        assert_eq!(meta, meta2);
        assert_eq!(cells.len(), cells2.len());
        for (a, b) in cells.iter().zip(&cells2) {
            assert_eq!(a.label, b.label);
            assert_eq!(a.row, b.row);
            assert_eq!(a.text, b.text);
            assert_eq!(a.values, b.values);
            assert_eq!(a.recorder.snapshot(), b.recorder.snapshot());
        }
        // Re-encoding the decoded state is bitwise stable.
        assert_eq!(encode_checkpoint(&meta2, &cells2), bytes);
    }

    #[test]
    fn damaged_checkpoints_are_rejected_not_half_loaded() {
        let ctx = Ctx::default();
        let cells = run_cells_profiled(&grid(3), &ctx, 1, 0..3, None);
        let meta = ShardMeta::new("shard_grid", &ctx, 0, 1, &(0..3), 3);
        let good = encode_checkpoint(&meta, &cells);
        for cut in (0..good.len()).step_by(13) {
            assert!(decode_checkpoint(&good[..cut]).is_err(), "cut at {cut}");
        }
        let mut flipped = good.clone();
        flipped[good.len() / 2] ^= 0x10;
        assert!(decode_checkpoint(&flipped).is_err(), "bit flip undetected");
        // A loop snapshot is not a shard checkpoint.
        let wrong_kind = SnapshotWriter::new(SnapshotKind::Loop).finish();
        let err = decode_checkpoint(&wrong_kind).unwrap_err();
        assert!(
            format!("{err}").contains("expected a shard snapshot"),
            "{err}"
        );
    }

    #[test]
    fn sharded_run_matches_single_shot_and_resumes() {
        let ctx = Ctx {
            telemetry: true,
            ..Ctx::default()
        };
        let scenario = grid(11);
        let single = crate::engine::run_scenario(&scenario, &ctx, 2);

        let dir = temp_dir("resume");
        let first = run(&scenario, &ctx, 2, &opts(Some(3), None, &dir));
        assert_eq!(first.shards, 3);
        assert_eq!(first.loaded, 0);
        assert_eq!(first.written.len(), 3);
        assert_eq!(first.output.report, single.report);
        assert_eq!(
            first.output.telemetry.snapshot().counters,
            single.telemetry.snapshot().counters
        );

        // Resume with every checkpoint present: nothing recomputed (the
        // shard count is inferred from the directory).
        let resumed = run(&scenario, &ctx, 2, &opts(None, Some(&dir), &dir));
        assert_eq!(resumed.shards, 3);
        assert_eq!(resumed.loaded, 3);
        assert!(resumed.written.is_empty());
        assert_eq!(resumed.output.report, single.report);

        // Corrupt one checkpoint: that shard (and only it) is recomputed,
        // and the output is still identical.
        let victim = dir.join(checkpoint_file("shard_grid", 1, 3));
        let mut bytes = std::fs::read(&victim).unwrap();
        let at = bytes.len() / 3;
        bytes[at] ^= 0xFF;
        std::fs::write(&victim, &bytes).unwrap();
        let healed = run(&scenario, &ctx, 2, &opts(Some(3), Some(&dir), &dir));
        assert_eq!(healed.loaded, 2);
        assert_eq!(healed.written, vec![victim]);
        assert_eq!(healed.output.report, single.report);

        // The recomputed shard replaced the damaged file, so the next
        // resume loads everything and no suffixed copy exists.
        let again = run(&scenario, &ctx, 2, &opts(Some(3), Some(&dir), &dir));
        assert_eq!(again.loaded, 3);
        assert!(again.written.is_empty());
        let mut files: Vec<String> = std::fs::read_dir(&dir)
            .unwrap()
            .map(|e| e.unwrap().file_name().into_string().unwrap())
            .collect();
        files.sort();
        let canonical: Vec<String> = (0..3)
            .map(|i| checkpoint_file("shard_grid", i, 3))
            .collect();
        assert_eq!(files, canonical, "only canonical checkpoints remain");
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn break_from_the_callback_stops_before_the_next_shard() {
        let scenario = grid(9);
        let seen = std::cell::RefCell::new(Vec::new());
        let err = run_sharded(
            &scenario,
            &Ctx::default(),
            1,
            &ShardOpts {
                shards: Some(3),
                ..ShardOpts::default()
            },
            None,
            |done| {
                seen.borrow_mut().push(done.clone());
                ControlFlow::Break(format!("stop after shard {}", done.shard))
            },
        )
        .unwrap_err();
        assert_eq!(err, "stop after shard 0");
        assert_eq!(
            seen.into_inner(),
            vec![ShardDone {
                shard: 0,
                shards: 3,
                cells_done: 3,
                cells_total: 9,
                resumed: false,
                write_error: None,
            }]
        );
        assert_eq!(
            scenario.cells_run.load(Ordering::Relaxed),
            3,
            "no later shard's cells ran"
        );
    }

    #[test]
    fn failed_checkpoint_write_stops_the_cli_policy() {
        let dir = temp_dir("obstructed");
        // A directory squatting on shard 1's canonical name makes its
        // write fail.
        std::fs::create_dir(dir.join(checkpoint_file("shard_grid", 1, 3))).unwrap();
        let scenario = grid(9);
        let err = run_sharded(
            &scenario,
            &Ctx::default(),
            1,
            &opts(Some(3), None, &dir),
            None,
            stop_on_write_error,
        )
        .unwrap_err();
        assert!(
            err.starts_with("cannot checkpoint shard 1 of shard_grid under"),
            "{err}"
        );
        assert_eq!(scenario.cells_run.load(Ordering::Relaxed), 6);
        let stray: Vec<_> = std::fs::read_dir(&dir)
            .unwrap()
            .map(|e| e.unwrap().file_name().into_string().unwrap())
            .filter(|name| name.ends_with(".tmp"))
            .collect();
        assert!(stray.is_empty(), "temporary files left behind: {stray:?}");
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn fingerprint_tracks_result_shaping_context_only() {
        let base = Ctx::default();
        let scaled = Ctx {
            scale: 0.5,
            ..Ctx::default()
        };
        let smoke = Ctx {
            smoke: true,
            ..Ctx::default()
        };
        let moved = Ctx {
            telemetry_out: PathBuf::from("/elsewhere"),
            ..Ctx::default()
        };
        assert_ne!(ctx_fingerprint(&base), ctx_fingerprint(&scaled));
        assert_ne!(ctx_fingerprint(&base), ctx_fingerprint(&smoke));
        assert_eq!(
            ctx_fingerprint(&base),
            ctx_fingerprint(&moved),
            "artifact destination must not invalidate checkpoints"
        );
    }

    #[test]
    fn context_mismatch_forces_recompute() {
        let dir = temp_dir("ctx-mismatch");
        let scenario = grid(4);
        let smoke = Ctx {
            smoke: true,
            ..Ctx::default()
        };
        run(&scenario, &smoke, 1, &opts(Some(2), None, &dir));

        // Same shard geometry, different context: checkpoints must not
        // be trusted.
        let resumed = run(
            &scenario,
            &Ctx::default(),
            1,
            &opts(Some(2), Some(&dir), &dir),
        );
        assert_eq!(resumed.loaded, 0, "fingerprint mismatch must recompute");
        std::fs::remove_dir_all(&dir).unwrap();
    }
}
