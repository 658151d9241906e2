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
//! and executes without spending measurement time.

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
}

impl Default for Criterion {
    fn default() -> Criterion {
        Criterion {
            sample_size: 10,
            // `cargo bench -- --test` asks for a build-and-run smoke
            // pass, like the real criterion.
            smoke: std::env::args().any(|a| a == "--test"),
        }
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
        mut f: F,
    ) -> &mut Criterion {
        let mut samples = Vec::new();
        f(&mut Bencher {
            samples: &mut samples,
            sample_size: self.sample_size,
            smoke: self.smoke,
        });
        report(name, &mut samples, None);
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
        mut f: F,
    ) -> &mut Self {
        let mut samples = Vec::new();
        f(&mut Bencher {
            samples: &mut samples,
            sample_size: self.criterion.sample_size,
            smoke: self.criterion.smoke,
        });
        report(
            &format!("{}/{name}", self.name),
            &mut samples,
            self.throughput,
        );
        self
    }

    /// Runs one parameterized benchmark in the group.
    pub fn bench_with_input<I: ?Sized, F: FnMut(&mut Bencher<'_>, &I)>(
        &mut self,
        id: BenchmarkId,
        input: &I,
        mut f: F,
    ) -> &mut Self {
        let mut samples = Vec::new();
        f(
            &mut Bencher {
                samples: &mut samples,
                sample_size: self.criterion.sample_size,
                smoke: self.criterion.smoke,
            },
            input,
        );
        report(
            &format!("{}/{id}", self.name),
            &mut samples,
            self.throughput,
        );
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

    #[test]
    fn bench_function_reports_and_runs() {
        let mut c = Criterion::default().sample_size(2);
        let mut runs = 0u64;
        c.bench_function("smoke", |b| b.iter(|| runs += 1));
        assert!(runs > 0);
    }

    #[test]
    fn smoke_mode_runs_once_per_sample() {
        let mut c = Criterion {
            sample_size: 10,
            smoke: true,
        };
        let mut runs = 0u64;
        c.bench_function("quick", |b| b.iter(|| runs += 1));
        assert_eq!(runs, 1, "--test mode runs the routine exactly once");
    }

    #[test]
    fn groups_and_ids_compose() {
        let mut c = Criterion::default().sample_size(2);
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
