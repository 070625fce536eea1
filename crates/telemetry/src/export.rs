//! Structured exporters for [`Snapshot`]s: JSONL, CSV, and a
//! human-readable summary — all hand-rolled (the build environment has no
//! registry access, so no serde).
//!
//! File layout: [`write_snapshot`] puts `<run>.counters.jsonl` /
//! `<run>.counters.csv` under an output directory (default
//! `results/telemetry/`), and [`write_trace_csv`] adds optional per-cycle
//! traces next to them.

use crate::snapshot::{HistogramSnapshot, Snapshot};
use std::fmt::Write as _;
use std::io;
use std::path::{Path, PathBuf};

/// Escapes a string for embedding in a JSON string literal (without the
/// surrounding quotes).
pub fn json_escape(s: &str) -> String {
    let mut out = String::with_capacity(s.len());
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => {
                let _ = write!(out, "\\u{:04x}", c as u32);
            }
            c => out.push(c),
        }
    }
    out
}

/// Inverse of [`json_escape`]. Returns `None` on malformed escapes —
/// exists so round-tripping is testable without a JSON parser.
pub fn json_unescape(s: &str) -> Option<String> {
    let mut out = String::with_capacity(s.len());
    let mut chars = s.chars();
    while let Some(c) = chars.next() {
        if c != '\\' {
            out.push(c);
            continue;
        }
        match chars.next()? {
            '"' => out.push('"'),
            '\\' => out.push('\\'),
            'n' => out.push('\n'),
            'r' => out.push('\r'),
            't' => out.push('\t'),
            'u' => {
                let hex: String = chars.by_ref().take(4).collect();
                if hex.len() != 4 {
                    return None;
                }
                let code = u32::from_str_radix(&hex, 16).ok()?;
                out.push(char::from_u32(code)?);
            }
            _ => return None,
        }
    }
    Some(out)
}

/// Quotes a CSV field per RFC 4180 when it contains a comma, quote, or
/// newline; passes it through otherwise.
pub fn csv_escape(s: &str) -> String {
    if s.contains([',', '"', '\n', '\r']) {
        format!("\"{}\"", s.replace('"', "\"\""))
    } else {
        s.to_string()
    }
}

/// Inverse of [`csv_escape`] for a single field. Returns `None` when a
/// quoted field is malformed.
pub fn csv_unescape(s: &str) -> Option<String> {
    if let Some(inner) = s.strip_prefix('"') {
        let inner = inner.strip_suffix('"')?;
        let mut out = String::with_capacity(inner.len());
        let mut chars = inner.chars();
        while let Some(c) = chars.next() {
            if c == '"' {
                if chars.next()? != '"' {
                    return None;
                }
                out.push('"');
            } else {
                out.push(c);
            }
        }
        Some(out)
    } else {
        Some(s.to_string())
    }
}

fn json_f64(x: f64) -> String {
    if x.is_finite() {
        format!("{x}")
    } else {
        "null".to_string()
    }
}

/// Renders a snapshot as JSONL: one self-describing object per line with
/// a `kind` discriminator (`counter`, `value`, `timer`, `histogram`).
pub fn to_jsonl(snap: &Snapshot) -> String {
    let mut out = String::new();
    for c in &snap.counters {
        let _ = writeln!(
            out,
            "{{\"kind\":\"counter\",\"name\":\"{}\",\"value\":{}}}",
            json_escape(&c.name),
            c.value
        );
    }
    for v in &snap.values {
        let _ = writeln!(
            out,
            "{{\"kind\":\"value\",\"name\":\"{}\",\"count\":{},\"sum\":{},\"min\":{},\"max\":{},\"mean\":{}}}",
            json_escape(&v.name),
            v.count,
            json_f64(v.sum),
            json_f64(v.min),
            json_f64(v.max),
            json_f64(v.mean())
        );
    }
    for t in &snap.timers {
        let _ = writeln!(
            out,
            "{{\"kind\":\"timer\",\"name\":\"{}\",\"count\":{},\"total_ns\":{},\"mean_ns\":{}}}",
            json_escape(&t.name),
            t.count,
            t.total_ns,
            json_f64(t.mean_ns())
        );
    }
    for HistogramSnapshot { name, histogram: h } in &snap.histograms {
        let counts: Vec<String> = h.counts().iter().map(|c| c.to_string()).collect();
        let _ = writeln!(
            out,
            "{{\"kind\":\"histogram\",\"name\":\"{}\",\"lo\":{},\"hi\":{},\"under\":{},\"over\":{},\"counts\":[{}]}}",
            json_escape(name),
            json_f64(h.lo()),
            json_f64(h.hi()),
            h.under(),
            h.over(),
            counts.join(",")
        );
    }
    out
}

/// Renders a snapshot as a flat CSV with a uniform header
/// (`kind,name,count,value,sum,min,max,mean`). Histograms emit one row
/// per bin with `name` suffixed `[center]`.
pub fn to_csv(snap: &Snapshot) -> String {
    let mut out = String::from("kind,name,count,value,sum,min,max,mean\n");
    for c in &snap.counters {
        let _ = writeln!(out, "counter,{},1,{},,,,", csv_escape(&c.name), c.value);
    }
    for v in &snap.values {
        let _ = writeln!(
            out,
            "value,{},{},,{},{},{},{}",
            csv_escape(&v.name),
            v.count,
            v.sum,
            v.min,
            v.max,
            v.mean()
        );
    }
    for t in &snap.timers {
        let _ = writeln!(
            out,
            "timer,{},{},{},,,,{}",
            csv_escape(&t.name),
            t.count,
            t.total_ns,
            t.mean_ns()
        );
    }
    for HistogramSnapshot { name, histogram: h } in &snap.histograms {
        for (center, count) in h.centers() {
            let _ = writeln!(
                out,
                "histogram,{},1,{},,,,",
                csv_escape(&format!("{name}[{center:.4}]")),
                count
            );
        }
    }
    out
}

/// Renders the human-readable end-of-run summary.
pub fn to_summary(run: &str, snap: &Snapshot) -> String {
    let mut out = String::new();
    let _ = writeln!(out, "== telemetry: {run} ==");
    if snap.is_empty() {
        let _ = writeln!(out, "  (nothing recorded)");
        return out;
    }
    if !snap.counters.is_empty() {
        let _ = writeln!(out, "-- counters --");
        let width = snap
            .counters
            .iter()
            .map(|c| c.name.len())
            .max()
            .unwrap_or(0);
        for c in &snap.counters {
            let _ = writeln!(out, "  {:width$}  {}", c.name, c.value);
        }
    }
    if !snap.values.is_empty() {
        let _ = writeln!(out, "-- values --");
        for v in &snap.values {
            let _ = writeln!(
                out,
                "  {}  n={} mean={:.6} min={:.6} max={:.6}",
                v.name,
                v.count,
                v.mean(),
                v.min,
                v.max
            );
        }
    }
    if !snap.timers.is_empty() {
        let _ = writeln!(out, "-- timers --");
        for t in &snap.timers {
            let _ = writeln!(
                out,
                "  {}  n={} total={:.3}ms mean={:.0}ns",
                t.name,
                t.count,
                t.total_ns as f64 / 1e6,
                t.mean_ns()
            );
        }
    }
    if !snap.histograms.is_empty() {
        let _ = writeln!(out, "-- histograms --");
        for HistogramSnapshot { name, histogram: h } in &snap.histograms {
            let _ = writeln!(
                out,
                "  {}  [{:.4}, {:.4}) bins={} total={} under={} over={}",
                name,
                h.lo(),
                h.hi(),
                h.counts().len(),
                h.total(),
                h.under(),
                h.over()
            );
        }
    }
    out
}

/// Writes `contents` to `dir/file`, creating `dir` as needed, and returns
/// the full path. Silently overwrites — reserved for artifacts with
/// regenerate-in-place semantics (perf baselines); run exports go through
/// [`write_file_fresh`].
pub fn write_file(dir: &Path, file: &str, contents: &str) -> io::Result<PathBuf> {
    std::fs::create_dir_all(dir)?;
    let path = dir.join(file);
    std::fs::write(&path, contents)?;
    Ok(path)
}

/// Splits `file` into (stem, extension) at the *last* dot, so the
/// collision suffix lands before the extension:
/// `run.counters.jsonl` → `run.counters-1.jsonl`.
fn suffixed_name(file: &str, n: u32) -> String {
    match file.rsplit_once('.') {
        Some((stem, ext)) if !stem.is_empty() => format!("{stem}-{n}.{ext}"),
        _ => format!("{file}-{n}"),
    }
}

fn warn_once_about_suffixing(path: &Path) {
    static WARNED: std::sync::Once = std::sync::Once::new();
    WARNED.call_once(|| {
        crate::warn(
            "telemetry.export",
            &format!(
                "output {} already exists; writing suffixed copies (…-N) instead of overwriting",
                path.display()
            ),
        );
    });
}

/// Writes `contents` to `dir/file`, or — when that file already exists —
/// to the first free `dir/<stem>-N.<ext>` (N = 1, 2, …), never
/// overwriting. Warns once per process on the first collision. Creation
/// uses `create_new` so concurrent writers cannot clobber each other.
pub fn write_file_fresh(dir: &Path, file: &str, contents: &str) -> io::Result<PathBuf> {
    use std::io::Write as _;
    std::fs::create_dir_all(dir)?;
    let mut name = file.to_string();
    let mut n = 0u32;
    loop {
        let path = dir.join(&name);
        match std::fs::OpenOptions::new()
            .write(true)
            .create_new(true)
            .open(&path)
        {
            Ok(mut f) => {
                f.write_all(contents.as_bytes())?;
                return Ok(path);
            }
            Err(e) if e.kind() == io::ErrorKind::AlreadyExists => {
                if n == 0 {
                    warn_once_about_suffixing(&path);
                }
                n += 1;
                name = suffixed_name(file, n);
            }
            Err(e) => return Err(e),
        }
    }
}

/// Creates the directory `parent/name`, or — when it already exists —
/// the first free `parent/name-N` (N = 1, 2, …): the directory-level
/// twin of [`write_file_fresh`], used for the daemon's per-job artifact
/// directories so a rerun never mingles its files with a previous run's. Creation uses
/// `create_dir` (not `create_dir_all` on the leaf) so concurrent
/// callers cannot claim the same directory.
pub fn create_dir_fresh(parent: &Path, name: &str) -> io::Result<PathBuf> {
    std::fs::create_dir_all(parent)?;
    let mut candidate = name.to_string();
    let mut n = 0u32;
    loop {
        let path = parent.join(&candidate);
        match std::fs::create_dir(&path) {
            Ok(()) => return Ok(path),
            Err(e) if e.kind() == io::ErrorKind::AlreadyExists => {
                if n == 0 {
                    warn_once_about_suffixing(&path);
                }
                n += 1;
                candidate = suffixed_name(name, n);
            }
            Err(e) => return Err(e),
        }
    }
}

/// Writes `<run>.counters.jsonl` or `<run>.counters.csv` (per `csv`)
/// under `dir`, returning the path. Never overwrites an existing export
/// (see [`write_file_fresh`]).
pub fn write_snapshot(dir: &Path, run: &str, snap: &Snapshot, csv: bool) -> io::Result<PathBuf> {
    if csv {
        write_file_fresh(dir, &format!("{run}.counters.csv"), &to_csv(snap))
    } else {
        write_file_fresh(dir, &format!("{run}.counters.jsonl"), &to_jsonl(snap))
    }
}

/// Writes the human-readable summary as `<run>.summary.txt` under
/// `dir`, returning the path. Never overwrites an existing export (see
/// [`write_file_fresh`]).
pub fn write_summary(dir: &Path, run: &str, snap: &Snapshot) -> io::Result<PathBuf> {
    write_file_fresh(dir, &format!("{run}.summary.txt"), &to_summary(run, snap))
}

/// Writes a per-cycle (or per-row) trace as `<run>.<name>.csv`: one
/// header row, then one row per record. Never overwrites an existing
/// export (see [`write_file_fresh`]).
pub fn write_trace_csv(
    dir: &Path,
    run: &str,
    name: &str,
    headers: &[&str],
    rows: impl IntoIterator<Item = Vec<f64>>,
) -> io::Result<PathBuf> {
    let mut out = String::new();
    let escaped: Vec<String> = headers.iter().map(|h| csv_escape(h)).collect();
    out.push_str(&escaped.join(","));
    out.push('\n');
    for row in rows {
        let cells: Vec<String> = row.iter().map(|x| format!("{x}")).collect();
        out.push_str(&cells.join(","));
        out.push('\n');
    }
    write_file_fresh(dir, &format!("{run}.{name}.csv"), &out)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::linear::LinearHistogram;
    use crate::memory::MemoryRecorder;
    use crate::recorder::Recorder;

    fn sample_snapshot() -> Snapshot {
        let mut r = MemoryRecorder::new();
        r.counter("loop.cycles", 1000);
        r.counter("loop.emergency_cycles", 3);
        r.value("loop.voltage", 0.98);
        r.value("loop.voltage", 1.01);
        r.timer_ns("loop.step.cpu", 12345);
        let mut h = LinearHistogram::new(0.9, 1.1, 4);
        h.record(0.95);
        r.histogram("h", &h);
        r.snapshot()
    }

    #[test]
    fn json_escape_round_trips() {
        for s in [
            "plain",
            "with \"quotes\" and \\backslash\\",
            "line\nbreak\ttab\rret",
            "control\u{1}char",
            "unicode ✓ ω",
            "",
        ] {
            let escaped = json_escape(s);
            assert!(!escaped.contains('\n'), "escaped form must be single-line");
            assert_eq!(json_unescape(&escaped).as_deref(), Some(s));
        }
    }

    #[test]
    fn json_unescape_rejects_malformed() {
        assert_eq!(json_unescape("trailing\\"), None);
        assert_eq!(json_unescape("\\q"), None);
        assert_eq!(json_unescape("\\u12"), None);
        assert_eq!(json_unescape("\\ud800"), None, "lone surrogate");
    }

    #[test]
    fn csv_escape_round_trips() {
        for s in [
            "plain",
            "a,b",
            "quote\"inside",
            "multi\nline",
            "\"already quoted\"",
            "",
        ] {
            assert_eq!(csv_unescape(&csv_escape(s)).as_deref(), Some(s));
        }
    }

    #[test]
    fn csv_unescape_rejects_malformed() {
        assert_eq!(csv_unescape("\"unterminated"), None);
        assert_eq!(csv_unescape("\"bad \" quote\""), None);
    }

    #[test]
    fn jsonl_is_line_structured_and_complete() {
        let snap = sample_snapshot();
        let jsonl = to_jsonl(&snap);
        let lines: Vec<&str> = jsonl.lines().collect();
        // 2 counters + 1 value + 1 timer + 1 histogram.
        assert_eq!(lines.len(), 5);
        for line in &lines {
            assert!(line.starts_with('{') && line.ends_with('}'), "{line}");
            assert!(line.contains("\"kind\":\""));
        }
        assert!(jsonl.contains("\"name\":\"loop.cycles\",\"value\":1000"));
        assert!(jsonl.contains("\"kind\":\"histogram\""));
    }

    #[test]
    fn csv_has_uniform_arity() {
        let snap = sample_snapshot();
        let csv = to_csv(&snap);
        let mut lines = csv.lines();
        let header = lines.next().unwrap();
        let arity = header.split(',').count();
        for line in lines {
            assert_eq!(line.split(',').count(), arity, "{line}");
        }
    }

    #[test]
    fn summary_mentions_every_section() {
        let s = to_summary("test-run", &sample_snapshot());
        for needle in ["test-run", "counters", "values", "timers", "histograms"] {
            assert!(s.contains(needle), "missing {needle}");
        }
        assert!(to_summary("empty", &Snapshot::default()).contains("nothing recorded"));
    }

    #[test]
    fn writes_files_under_dir() {
        let dir =
            std::env::temp_dir().join(format!("voltctl-telemetry-test-{}", std::process::id()));
        let snap = sample_snapshot();
        let p1 = write_snapshot(&dir, "run", &snap, false).unwrap();
        let p2 = write_snapshot(&dir, "run", &snap, true).unwrap();
        let p3 = write_trace_csv(&dir, "run", "trace", &["a", "b"], vec![vec![1.0, 2.0]]).unwrap();
        assert!(std::fs::read_to_string(&p1).unwrap().contains("counter"));
        assert!(std::fs::read_to_string(&p2).unwrap().starts_with("kind,"));
        assert_eq!(std::fs::read_to_string(&p3).unwrap(), "a,b\n1,2\n");
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn fresh_write_suffixes_instead_of_overwriting() {
        let dir = std::env::temp_dir().join(format!("voltctl-fresh-test-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);

        let p1 = write_file_fresh(&dir, "run.counters.jsonl", "first").unwrap();
        let p2 = write_file_fresh(&dir, "run.counters.jsonl", "second").unwrap();
        let p3 = write_file_fresh(&dir, "run.counters.jsonl", "third").unwrap();
        assert_eq!(p1.file_name().unwrap(), "run.counters.jsonl");
        assert_eq!(p2.file_name().unwrap(), "run.counters-1.jsonl");
        assert_eq!(p3.file_name().unwrap(), "run.counters-2.jsonl");
        // The original is untouched; every write landed somewhere.
        assert_eq!(std::fs::read_to_string(&p1).unwrap(), "first");
        assert_eq!(std::fs::read_to_string(&p2).unwrap(), "second");
        assert_eq!(std::fs::read_to_string(&p3).unwrap(), "third");

        // Extension-less names get a plain numeric suffix.
        let q1 = write_file_fresh(&dir, "noext", "a").unwrap();
        let q2 = write_file_fresh(&dir, "noext", "b").unwrap();
        assert_eq!(q1.file_name().unwrap(), "noext");
        assert_eq!(q2.file_name().unwrap(), "noext-1");

        // The snapshot/trace writers inherit the semantics: a re-export
        // of the same run must not clobber the first export.
        let snap = sample_snapshot();
        let s1 = write_snapshot(&dir, "run2", &snap, false).unwrap();
        let s2 = write_snapshot(&dir, "run2", &snap, false).unwrap();
        assert_ne!(s1, s2);
        assert!(s1.exists() && s2.exists());
        let t1 = write_trace_csv(&dir, "run2", "trace", &["a"], vec![vec![1.0]]).unwrap();
        let t2 = write_trace_csv(&dir, "run2", "trace", &["a"], vec![vec![2.0]]).unwrap();
        assert_ne!(t1, t2);
        assert_eq!(std::fs::read_to_string(&t1).unwrap(), "a\n1\n");
        assert_eq!(std::fs::read_to_string(&t2).unwrap(), "a\n2\n");

        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn fresh_dirs_suffix_like_fresh_files() {
        let parent =
            std::env::temp_dir().join(format!("voltctl-freshdir-test-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&parent);
        let d1 = create_dir_fresh(&parent, "ckpt").unwrap();
        let d2 = create_dir_fresh(&parent, "ckpt").unwrap();
        let d3 = create_dir_fresh(&parent, "ckpt").unwrap();
        assert_eq!(d1.file_name().unwrap(), "ckpt");
        assert_eq!(d2.file_name().unwrap(), "ckpt-1");
        assert_eq!(d3.file_name().unwrap(), "ckpt-2");
        assert!(d1.is_dir() && d2.is_dir() && d3.is_dir());
        std::fs::remove_dir_all(&parent).unwrap();
    }

    #[test]
    fn suffixed_name_places_counter_before_extension() {
        assert_eq!(
            suffixed_name("run.counters.jsonl", 1),
            "run.counters-1.jsonl"
        );
        assert_eq!(suffixed_name("trace.csv", 3), "trace-3.csv");
        assert_eq!(suffixed_name("noext", 1), "noext-1");
        assert_eq!(suffixed_name(".hidden", 1), ".hidden-1");
    }
}
