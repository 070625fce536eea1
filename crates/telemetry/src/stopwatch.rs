//! Wall-clock spans and a registry-free micro-benchmark harness.
//!
//! [`Stopwatch`] is the span primitive the closed loop uses around its
//! sub-steps; [`bench`] is the minimal Criterion replacement that
//! `voltctl-exp bench` times its suites with.

use crate::recorder::{MetricId, Recorder};
use std::time::Instant;

/// A started span that reports into a [`Recorder`] timer when stopped.
///
/// Construction is free when the target recorder is disabled: no clock
/// read happens and `stop` is a no-op.
#[derive(Debug, Clone, Copy)]
pub struct Stopwatch {
    start: Option<Instant>,
}

impl Stopwatch {
    /// Starts a span destined for a recorder of type `R` (reads the clock
    /// only when `R::ENABLED`).
    pub fn start_for<R: Recorder>() -> Stopwatch {
        Stopwatch {
            start: if R::ENABLED {
                Some(Instant::now())
            } else {
                None
            },
        }
    }

    /// Starts a span unconditionally.
    pub fn start() -> Stopwatch {
        Stopwatch {
            start: Some(Instant::now()),
        }
    }

    /// Starts a span only when `sample` is true (reads no clock
    /// otherwise). The hot loop uses this to stride-sample sub-step
    /// timers instead of paying two clock reads every cycle.
    pub fn started_if(sample: bool) -> Stopwatch {
        Stopwatch {
            start: if sample { Some(Instant::now()) } else { None },
        }
    }

    /// Stops the span, crediting its duration to `rec`'s timer `name`.
    pub fn stop<R: Recorder>(self, rec: &mut R, name: &'static str) {
        if let Some(start) = self.start {
            rec.timer_ns(name, start.elapsed().as_nanos() as u64);
        }
    }

    /// Stops the span, crediting its duration to the pre-resolved timer
    /// `id` (the zero-lookup variant of [`stop`](Stopwatch::stop)).
    pub fn stop_id<R: Recorder>(self, rec: &mut R, id: MetricId) {
        if let Some(start) = self.start {
            rec.timer_id(id, start.elapsed().as_nanos() as u64);
        }
    }

    /// Elapsed nanoseconds so far (0 for a disabled span).
    pub fn elapsed_ns(&self) -> u64 {
        self.start.map_or(0, |s| s.elapsed().as_nanos() as u64)
    }
}

/// One micro-benchmark measurement.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct BenchResult {
    /// Iterations per sample.
    pub iters: u64,
    /// Best (minimum) nanoseconds per iteration across samples.
    pub best_ns_per_iter: f64,
    /// Median nanoseconds per iteration across samples.
    pub median_ns_per_iter: f64,
}

impl BenchResult {
    /// Iterations per second at the median.
    pub fn median_per_sec(&self) -> f64 {
        if self.median_ns_per_iter <= 0.0 {
            0.0
        } else {
            1e9 / self.median_ns_per_iter
        }
    }
}

/// Times `f` (which should run one iteration and return a value to keep
/// the optimizer honest) `iters` times per sample for `samples` samples,
/// reporting best and median ns/iter.
pub fn bench<T, F: FnMut() -> T>(name: &str, samples: usize, iters: u64, mut f: F) -> BenchResult {
    let samples = samples.max(1);
    let iters = iters.max(1);
    // One warm-up iteration outside measurement.
    std::hint::black_box(f());
    let mut per_iter: Vec<f64> = Vec::with_capacity(samples);
    for _ in 0..samples {
        let t0 = Instant::now();
        for _ in 0..iters {
            std::hint::black_box(f());
        }
        per_iter.push(t0.elapsed().as_nanos() as f64 / iters as f64);
    }
    per_iter.sort_by(|a, b| a.total_cmp(b));
    let result = BenchResult {
        iters,
        best_ns_per_iter: per_iter[0],
        median_ns_per_iter: per_iter[per_iter.len() / 2],
    };
    println!(
        "bench {name:<40} {:>12.1} ns/iter (best {:>12.1}, {} samples x {} iters, {:.2e}/s)",
        result.median_ns_per_iter,
        result.best_ns_per_iter,
        samples,
        iters,
        result.median_per_sec()
    );
    result
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::memory::MemoryRecorder;
    use crate::recorder::NullRecorder;

    #[test]
    fn disabled_stopwatch_never_reads_clock() {
        let sw = Stopwatch::start_for::<NullRecorder>();
        assert_eq!(sw.elapsed_ns(), 0);
        let mut rec = NullRecorder;
        sw.stop(&mut rec, "x");
    }

    #[test]
    fn enabled_stopwatch_credits_timer() {
        let mut rec = MemoryRecorder::new();
        let sw = Stopwatch::start_for::<MemoryRecorder>();
        std::hint::black_box((0..1000).sum::<u64>());
        sw.stop(&mut rec, "span");
        let t = rec.snapshot();
        let timer = t.timer("span").unwrap();
        assert_eq!(timer.count, 1);
    }

    #[test]
    fn bench_measures_something() {
        let r = bench("test.noop", 3, 100, || std::hint::black_box(1 + 1));
        assert!(r.median_ns_per_iter >= 0.0);
        assert!(r.best_ns_per_iter <= r.median_ns_per_iter);
    }
}
