//! Minimal in-tree replacement for the `criterion` benchmark harness.
//!
//! Implements the subset the workspace's benches use: benchmark groups,
//! `bench_function` / `bench_with_input`, `sample_size`, `BenchmarkId`,
//! and the `criterion_group!` / `criterion_main!` macros. Timing is a
//! simple warmup-then-sample loop around `std::time::Instant`; results are
//! printed per bench and can be dumped as machine-readable JSON.
//!
//! Runner behaviour:
//! - `--test` (what `cargo test` passes to `harness = false` bench
//!   targets) runs every closure once and skips timing, so benches cannot
//!   bit-rot without failing the test suite;
//! - a bare (non-flag) CLI argument filters benches by substring, and
//!   [`Criterion::selects_any`] tells a bench function whether the filter
//!   keeps any of its benches, so it can skip its setup when not;
//! - `CRITERION_JSON=<path>` writes all results to `<path>` as JSON,
//!   one row per bench with its spread (p10/p90, median absolute
//!   deviation) and a machine stamp (`nproc`, short git revision);
//! - `CRITERION_QUICK=1` caps sampling at one round for fast smoke runs.

pub use std::hint::black_box;

use std::time::{Duration, Instant};

/// Identifier for a parameterised bench: renders as `name/param`.
#[derive(Debug, Clone)]
pub struct BenchmarkId(String);

impl BenchmarkId {
    /// An id combining a function name and a parameter display.
    pub fn new(name: impl std::fmt::Display, param: impl std::fmt::Display) -> Self {
        BenchmarkId(format!("{name}/{param}"))
    }

    /// An id from a parameter alone.
    pub fn from_parameter(param: impl std::fmt::Display) -> Self {
        BenchmarkId(format!("{param}"))
    }
}

impl std::fmt::Display for BenchmarkId {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(&self.0)
    }
}

impl From<&str> for BenchmarkId {
    fn from(s: &str) -> Self {
        BenchmarkId(s.to_string())
    }
}

impl From<String> for BenchmarkId {
    fn from(s: String) -> Self {
        BenchmarkId(s)
    }
}

/// One measured result.
#[derive(Debug, Clone)]
pub struct BenchResult {
    /// Group name.
    pub group: String,
    /// Bench id within the group.
    pub bench: String,
    /// Mean wall time per iteration, nanoseconds.
    pub mean_ns: f64,
    /// Median wall time per iteration, nanoseconds.
    pub median_ns: f64,
    /// 10th-percentile wall time per iteration, nanoseconds.
    pub p10_ns: f64,
    /// 90th-percentile wall time per iteration, nanoseconds.
    pub p90_ns: f64,
    /// Median absolute deviation from `median_ns`, nanoseconds.
    pub mad_ns: f64,
    /// Number of timed samples.
    pub samples: usize,
    /// Iterations per sample.
    pub iters_per_sample: u64,
}

/// The bench context handed to registered functions.
#[derive(Debug, Default)]
pub struct Criterion {
    test_mode: bool,
    quick: bool,
    filter: Option<String>,
    results: Vec<BenchResult>,
}

impl Criterion {
    /// Builds a context from the process CLI arguments and environment.
    pub fn from_args() -> Self {
        let mut c = Criterion::default();
        for arg in std::env::args().skip(1) {
            if arg == "--test" {
                c.test_mode = true;
            } else if !arg.starts_with('-') {
                c.filter = Some(arg);
            }
        }
        if std::env::var("CRITERION_QUICK").is_ok() {
            c.quick = true;
        }
        c
    }

    /// Opens a named benchmark group.
    pub fn benchmark_group(&mut self, name: impl Into<String>) -> BenchmarkGroup<'_> {
        BenchmarkGroup {
            c: self,
            name: name.into(),
            sample_size: 20,
        }
    }

    /// Convenience: a group-less bench under the group `""`.
    pub fn bench_function<F: FnMut(&mut Bencher)>(
        &mut self,
        id: impl Into<BenchmarkId>,
        f: F,
    ) -> &mut Self {
        self.benchmark_group("").bench_function(id, f);
        self
    }

    /// All results measured so far.
    pub fn results(&self) -> &[BenchResult] {
        &self.results
    }

    /// Renders every result as a JSON array (machine-readable baseline),
    /// each row stamped with the core count and the short git revision
    /// of the working directory (`"unknown"` outside a git checkout).
    pub fn results_json(&self) -> String {
        let nproc = std::thread::available_parallelism().map_or(0, usize::from);
        let rev = std::process::Command::new("git")
            .args(["rev-parse", "--short", "HEAD"])
            .output()
            .ok()
            .filter(|out| out.status.success())
            .and_then(|out| String::from_utf8(out.stdout).ok())
            .map(|rev| rev.trim().to_string())
            .unwrap_or_else(|| "unknown".to_string());
        let mut out = String::from("[\n");
        for (i, r) in self.results.iter().enumerate() {
            if i > 0 {
                out.push_str(",\n");
            }
            out.push_str(&format!(
                "  {{\"group\": {:?}, \"bench\": {:?}, \"mean_ns\": {:.1}, \"median_ns\": {:.1}, \"p10_ns\": {:.1}, \"p90_ns\": {:.1}, \"mad_ns\": {:.1}, \"samples\": {}, \"iters_per_sample\": {}, \"nproc\": {nproc}, \"rev\": {rev:?}}}",
                r.group, r.bench, r.mean_ns, r.median_ns, r.p10_ns, r.p90_ns, r.mad_ns, r.samples, r.iters_per_sample
            ));
        }
        out.push_str("\n]\n");
        out
    }

    /// Final reporting: honours `CRITERION_JSON`.
    pub fn final_summary(&self) {
        if self.test_mode {
            println!("criterion-shim: all benches executed once (test mode)");
            return;
        }
        if let Ok(path) = std::env::var("CRITERION_JSON") {
            if let Err(e) = std::fs::write(&path, self.results_json()) {
                eprintln!("criterion-shim: cannot write {path}: {e}");
            } else {
                println!(
                    "criterion-shim: wrote {} results to {path}",
                    self.results.len()
                );
            }
        }
    }

    /// `true` when the CLI filter keeps at least one of `benches` in
    /// `group` (always, without a filter). Bench functions ask before
    /// their setup, so a filtered run pays only for the groups it times.
    pub fn selects_any(&self, group: &str, benches: &[&str]) -> bool {
        benches.iter().any(|bench| self.wants(group, bench))
    }

    fn wants(&self, group: &str, bench: &str) -> bool {
        match &self.filter {
            None => true,
            Some(f) => format!("{group}/{bench}").contains(f.as_str()),
        }
    }

    fn run_one<F: FnMut(&mut Bencher)>(
        &mut self,
        group: &str,
        bench: &str,
        sample_size: usize,
        mut f: F,
    ) {
        if !self.wants(group, bench) {
            return;
        }
        if self.test_mode {
            let mut b = Bencher {
                mode: Mode::Once,
                iters: 1,
                total: Duration::ZERO,
            };
            f(&mut b);
            println!("test-run {group}/{bench}: ok");
            return;
        }
        // Calibrate: find an iteration count taking >= ~2ms per sample.
        let mut iters: u64 = 1;
        loop {
            let mut b = Bencher {
                mode: Mode::Timed,
                iters,
                total: Duration::ZERO,
            };
            f(&mut b);
            if b.total >= Duration::from_millis(2) || iters >= 1 << 20 {
                break;
            }
            iters *= 4;
        }
        let samples = if self.quick { 3 } else { sample_size };
        let mut per_iter: Vec<f64> = Vec::with_capacity(samples);
        for _ in 0..samples {
            let mut b = Bencher {
                mode: Mode::Timed,
                iters,
                total: Duration::ZERO,
            };
            f(&mut b);
            per_iter.push(b.total.as_nanos() as f64 / iters as f64);
        }
        per_iter.sort_by(|a, b| a.partial_cmp(b).expect("finite timings"));
        let mean = per_iter.iter().sum::<f64>() / per_iter.len() as f64;
        let median = per_iter[per_iter.len() / 2];
        // Nearest-rank percentiles of the sorted samples.
        let quantile = |q: f64| per_iter[((per_iter.len() - 1) as f64 * q).round() as usize];
        let mut deviations: Vec<f64> = per_iter.iter().map(|t| (t - median).abs()).collect();
        deviations.sort_by(|a, b| a.partial_cmp(b).expect("finite timings"));
        println!("bench {group}/{bench}: mean {:.1} ns, median {:.1} ns ({samples} samples x {iters} iters)", mean, median);
        self.results.push(BenchResult {
            group: group.to_string(),
            bench: bench.to_string(),
            mean_ns: mean,
            median_ns: median,
            p10_ns: quantile(0.1),
            p90_ns: quantile(0.9),
            mad_ns: deviations[deviations.len() / 2],
            samples,
            iters_per_sample: iters,
        });
    }
}

/// A named group of related benches.
#[derive(Debug)]
pub struct BenchmarkGroup<'a> {
    c: &'a mut Criterion,
    name: String,
    sample_size: usize,
}

impl BenchmarkGroup<'_> {
    /// Sets the number of timed samples per bench.
    pub fn sample_size(&mut self, n: usize) -> &mut Self {
        self.sample_size = n.max(2);
        self
    }

    /// Registers and runs one bench.
    pub fn bench_function<F: FnMut(&mut Bencher)>(
        &mut self,
        id: impl Into<BenchmarkId>,
        f: F,
    ) -> &mut Self {
        let id = id.into();
        let (name, sample_size) = (self.name.clone(), self.sample_size);
        self.c.run_one(&name, &id.0, sample_size, f);
        self
    }

    /// Registers and runs one bench that receives an input value.
    pub fn bench_with_input<I: ?Sized, F: FnMut(&mut Bencher, &I)>(
        &mut self,
        id: impl Into<BenchmarkId>,
        input: &I,
        mut f: F,
    ) -> &mut Self {
        self.bench_function(id, |b| f(b, input))
    }

    /// Ends the group (no-op in the shim; kept for API parity).
    pub fn finish(&mut self) {}
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Mode {
    Once,
    Timed,
}

/// The per-bench timing driver passed to bench closures.
#[derive(Debug)]
pub struct Bencher {
    mode: Mode,
    iters: u64,
    total: Duration,
}

impl Bencher {
    /// Times `routine`, running it `iters` times (once in test mode).
    pub fn iter<O, F: FnMut() -> O>(&mut self, mut routine: F) {
        let iters = if self.mode == Mode::Once {
            1
        } else {
            self.iters
        };
        let start = Instant::now();
        for _ in 0..iters {
            black_box(routine());
        }
        self.total = start.elapsed();
    }
}

/// Bundles bench functions under one registration entry point.
#[macro_export]
macro_rules! criterion_group {
    ($name:ident, $($target:path),+ $(,)?) => {
        pub fn $name(c: &mut $crate::Criterion) {
            $( $target(c); )+
        }
    };
}

/// Generates `fn main` running every registered group.
#[macro_export]
macro_rules! criterion_main {
    ($($group:path),+ $(,)?) => {
        fn main() {
            let mut c = $crate::Criterion::from_args();
            $( $group(&mut c); )+
            c.final_summary();
        }
    };
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn measures_something() {
        let mut c = Criterion {
            quick: true,
            ..Criterion::default()
        };
        let mut group = c.benchmark_group("g");
        group.sample_size(2);
        group.bench_function("noop", |b| b.iter(|| 1 + 1));
        group.bench_with_input(BenchmarkId::new("param", 3), &3, |b, n| b.iter(|| n * 2));
        group.finish();
        assert_eq!(c.results().len(), 2);
        let json = c.results_json();
        assert!(json.contains("\"bench\": \"param/3\""));
        for key in ["p10_ns", "p90_ns", "mad_ns", "nproc", "rev"] {
            assert!(
                json.contains(&format!("\"{key}\": ")),
                "{key} missing: {json}"
            );
        }
        for r in c.results() {
            assert!(r.p10_ns <= r.median_ns && r.median_ns <= r.p90_ns, "{r:?}");
            assert!(r.mad_ns >= 0.0);
        }
    }

    #[test]
    fn filter_selects_groups_by_their_benches() {
        let mut c = Criterion::default();
        assert!(c.selects_any("g", &["a"]), "no filter keeps everything");
        c.filter = Some("g/b".into());
        assert!(c.selects_any("g", &["a", "b"]));
        assert!(!c.selects_any("g", &["a"]));
        assert!(!c.selects_any("h", &["b"]));
        assert!(!c.selects_any("g", &[]));
    }
}
