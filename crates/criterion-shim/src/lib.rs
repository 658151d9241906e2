//! Offline stand-in for the subset of `criterion` this workspace uses.
//!
//! The build container cannot reach crates.io, so the real `criterion`
//! cannot be fetched. This shim keeps the `benches/` targets compiling
//! and producing useful numbers: each benchmark runs a short
//! calibration pass, then measures `sample_size` samples and prints
//! the median time per iteration (plus throughput when declared).
//! There are no plots or statistics files.
//!
//! Like the real criterion, `--test` on the command line (as passed
//! by `cargo bench -- --test`) switches every benchmark to a single
//! quick iteration — a smoke run that proves the bench still builds
//! and executes without spending measurement time — and the first
//! argument that is not a flag filters benchmarks by substring of
//! their full id (`group/name`): `cargo bench --bench microbench --
//! simulator/timed` runs only the ids containing `simulator/timed`.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

use std::time::{Duration, Instant};

/// Declared throughput of one benchmark, for rate reporting.
#[derive(Debug, Clone, Copy)]
pub enum Throughput {
    /// The benchmark processes this many logical elements per iteration.
    Elements(u64),
    /// The benchmark processes this many bytes per iteration.
    Bytes(u64),
}

/// A benchmark identifier composed of a function name and a parameter.
#[derive(Debug, Clone)]
pub struct BenchmarkId {
    name: String,
}

impl BenchmarkId {
    /// `function_name/parameter`, like criterion's.
    pub fn new(function_name: impl Into<String>, parameter: impl std::fmt::Display) -> Self {
        BenchmarkId {
            name: format!("{}/{}", function_name.into(), parameter),
        }
    }

    /// Just the parameter as the id.
    pub fn from_parameter(parameter: impl std::fmt::Display) -> Self {
        BenchmarkId {
            name: parameter.to_string(),
        }
    }
}

impl std::fmt::Display for BenchmarkId {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "{}", self.name)
    }
}

/// The timing harness handed to benchmark closures.
pub struct Bencher<'a> {
    samples: &'a mut Vec<Duration>,
    sample_size: usize,
    smoke: bool,
}

impl Bencher<'_> {
    /// Times `routine`, running it enough times for a stable median.
    /// In smoke mode (`--test`) the routine runs exactly once.
    pub fn iter<O, R: FnMut() -> O>(&mut self, mut routine: R) {
        if self.smoke {
            let t = Instant::now();
            std::hint::black_box(routine());
            self.samples.push(t.elapsed());
            return;
        }
        // Calibrate: how many iterations fit in ~5 ms?
        let start = Instant::now();
        let mut calib_iters = 0u64;
        while start.elapsed() < Duration::from_millis(5) {
            std::hint::black_box(routine());
            calib_iters += 1;
        }
        let iters = calib_iters.clamp(1, u64::from(u32::MAX));
        for _ in 0..self.sample_size {
            let t = Instant::now();
            for _ in 0..iters {
                std::hint::black_box(routine());
            }
            self.samples.push(t.elapsed() / iters as u32);
        }
    }
}

/// The top-level benchmark driver.
pub struct Criterion {
    sample_size: usize,
    smoke: bool,
    filter: Option<String>,
}

impl Default for Criterion {
    fn default() -> Criterion {
        Criterion::from_args(std::env::args().skip(1))
    }
}

fn report(name: &str, samples: &mut [Duration], throughput: Option<Throughput>) {
    samples.sort();
    let median = samples[samples.len() / 2];
    let rate = match throughput {
        Some(Throughput::Elements(n)) if median.as_nanos() > 0 => {
            let per_sec = n as f64 / median.as_secs_f64();
            format!("   {per_sec:.3e} elem/s")
        }
        Some(Throughput::Bytes(n)) if median.as_nanos() > 0 => {
            let per_sec = n as f64 / median.as_secs_f64();
            format!("   {per_sec:.3e} B/s")
        }
        _ => String::new(),
    };
    println!("{name:<44} {median:>12.3?}/iter{rate}");
}

impl Criterion {
    /// The harness for a bench executable's arguments: `--test` asks
    /// for a build-and-run smoke pass, and the first argument that is
    /// not a flag is the name filter, like the real criterion's. Other
    /// flags (cargo's `--bench`) are ignored.
    fn from_args(args: impl IntoIterator<Item = String>) -> Criterion {
        let mut c = Criterion {
            sample_size: 10,
            smoke: false,
            filter: None,
        };
        for arg in args {
            if arg == "--test" {
                c.smoke = true;
            } else if !arg.starts_with('-') && c.filter.is_none() {
                c.filter = Some(arg);
            }
        }
        c
    }

    /// Runs `f` as the benchmark `id` and reports it, unless the name
    /// filter excludes `id`.
    fn run<F: FnOnce(&mut Bencher<'_>)>(&self, id: &str, throughput: Option<Throughput>, f: F) {
        if self.filter.as_deref().is_some_and(|f| !id.contains(f)) {
            return;
        }
        let mut samples = Vec::new();
        f(&mut Bencher {
            samples: &mut samples,
            sample_size: self.sample_size,
            smoke: self.smoke,
        });
        report(id, &mut samples, throughput);
    }

    /// Sets the number of measured samples per benchmark.
    #[must_use]
    pub fn sample_size(mut self, n: usize) -> Criterion {
        assert!(n >= 1);
        self.sample_size = n;
        self
    }

    /// Runs one named benchmark.
    pub fn bench_function<F: FnMut(&mut Bencher<'_>)>(
        &mut self,
        name: &str,
        f: F,
    ) -> &mut Criterion {
        self.run(name, None, f);
        self
    }

    /// Opens a named group of related benchmarks.
    pub fn benchmark_group(&mut self, name: &str) -> BenchmarkGroup<'_> {
        BenchmarkGroup {
            criterion: self,
            name: name.to_string(),
            throughput: None,
        }
    }
}

/// A group of related benchmarks sharing a name prefix and throughput.
pub struct BenchmarkGroup<'a> {
    criterion: &'a mut Criterion,
    name: String,
    throughput: Option<Throughput>,
}

impl BenchmarkGroup<'_> {
    /// Declares the per-iteration throughput of subsequent benchmarks.
    pub fn throughput(&mut self, throughput: Throughput) -> &mut Self {
        self.throughput = Some(throughput);
        self
    }

    /// Runs one benchmark in the group.
    pub fn bench_function<F: FnMut(&mut Bencher<'_>)>(
        &mut self,
        name: impl std::fmt::Display,
        f: F,
    ) -> &mut Self {
        let id = format!("{}/{name}", self.name);
        self.criterion.run(&id, self.throughput, f);
        self
    }

    /// Runs one parameterized benchmark in the group.
    pub fn bench_with_input<I: ?Sized, F: FnMut(&mut Bencher<'_>, &I)>(
        &mut self,
        id: BenchmarkId,
        input: &I,
        mut f: F,
    ) -> &mut Self {
        let id = format!("{}/{id}", self.name);
        self.criterion.run(&id, self.throughput, |b| f(b, input));
        self
    }

    /// Ends the group (a no-op here; kept for API compatibility).
    pub fn finish(self) {}
}

/// Re-export matching criterion's; benches import it from either place.
pub use std::hint::black_box;

/// Declares a group of benchmark functions.
#[macro_export]
macro_rules! criterion_group {
    (name = $name:ident; config = $config:expr; targets = $($target:path),+ $(,)?) => {
        fn $name() {
            let mut criterion: $crate::Criterion = $config;
            $($target(&mut criterion);)+
        }
    };
    ($name:ident, $($target:path),+ $(,)?) => {
        $crate::criterion_group!(
            name = $name;
            config = $crate::Criterion::default();
            targets = $($target),+
        );
    };
}

/// Declares the benchmark entry point.
#[macro_export]
macro_rules! criterion_main {
    ($($group:path),+ $(,)?) => {
        fn main() {
            $($group();)+
        }
    };
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The harness a bench executable run with `args` gets.
    fn with_args(args: &[&str]) -> Criterion {
        Criterion::from_args(args.iter().map(|a| a.to_string())).sample_size(2)
    }

    #[test]
    fn bench_function_reports_and_runs() {
        let mut c = with_args(&["--bench"]);
        let mut runs = 0u64;
        c.bench_function("smoke", |b| b.iter(|| runs += 1));
        assert!(runs > 0);
    }

    #[test]
    fn smoke_mode_runs_once_per_sample() {
        let mut c = with_args(&["--test", "--bench"]).sample_size(10);
        let mut runs = 0u64;
        c.bench_function("quick", |b| b.iter(|| runs += 1));
        assert_eq!(runs, 1, "--test mode runs the routine exactly once");
    }

    #[test]
    fn name_filter_skips_benchmarks_it_does_not_match() {
        let mut c = with_args(&["--test", "sim/timed", "--bench"]);
        let (mut kept, mut skipped) = (0u64, 0u64);
        let mut g = c.benchmark_group("sim");
        g.bench_function("functional/li", |b| b.iter(|| skipped += 1));
        g.bench_function("timed/li", |b| b.iter(|| kept += 1));
        g.bench_with_input(BenchmarkId::new("timed", "swim"), &2u64, |b, &n| {
            b.iter(|| kept += n)
        });
        g.bench_with_input(BenchmarkId::from_parameter("swim"), &1u64, |b, &n| {
            b.iter(|| skipped += n)
        });
        g.finish();
        c.bench_function("timed", |b| b.iter(|| skipped += 1));
        assert_eq!(skipped, 0, "a filtered-out closure never runs");
        assert_eq!(kept, 1 + 2, "`--test` runs each matching one once");
    }

    #[test]
    fn groups_and_ids_compose() {
        let mut c = with_args(&[]);
        let mut g = c.benchmark_group("g");
        g.throughput(Throughput::Elements(8));
        g.bench_with_input(BenchmarkId::new("f", 8), &8u32, |b, &n| {
            b.iter(|| std::hint::black_box(n * 2))
        });
        g.finish();
        assert_eq!(BenchmarkId::new("f", 8).to_string(), "f/8");
        assert_eq!(BenchmarkId::from_parameter(3).to_string(), "3");
    }
}
