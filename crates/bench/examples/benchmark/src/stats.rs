//! Sample statistics, seeded randomness, and the `/proc` readers the
//! end-to-end metrics come from.

/// The median, as Python's `statistics.median` computes it.
pub fn median(samples: &[f64]) -> f64 {
    let s = sorted(samples);
    let n = s.len();
    assert!(n > 0, "median of no samples");
    if n % 2 == 1 {
        s[n / 2]
    } else {
        (s[n / 2 - 1] + s[n / 2]) / 2.0
    }
}

/// The three quartile cut points, as Python's
/// `statistics.quantiles(samples, n=4)` (the default "exclusive"
/// method) computes them. A single sample is its own quartiles.
pub fn quartiles(samples: &[f64]) -> [f64; 3] {
    let s = sorted(samples);
    let ld = s.len();
    assert!(ld > 0, "quartiles of no samples");
    if ld == 1 {
        return [s[0]; 3];
    }
    // Signed: with few samples the clamp makes `delta` negative, and
    // the interpolation then extrapolates exactly as Python does.
    let (n, m, ld) = (4i64, ld as i64 + 1, ld as i64);
    let mut out = [0.0; 3];
    for (i, q) in (1..n).zip(out.iter_mut()) {
        let j = (i * m / n).clamp(1, ld - 1);
        let delta = (i * m - j * n) as f64;
        let (lo, hi) = (s[j as usize - 1], s[j as usize]);
        *q = (lo * (n as f64 - delta) + hi * delta) / n as f64;
    }
    out
}

/// Interquartile range as a share of the median: the run-to-run
/// spread the bounds are judged against.
pub fn relative_iqr(samples: &[f64]) -> f64 {
    let [q1, _, q3] = quartiles(samples);
    let m = median(samples);
    if m == 0.0 {
        0.0
    } else {
        (q3 - q1) / m.abs()
    }
}

fn sorted(samples: &[f64]) -> Vec<f64> {
    let mut s = samples.to_vec();
    s.sort_by(f64::total_cmp);
    s
}

/// SplitMix64: a tiny, well-mixed generator for deriving workload
/// inputs from `--seed`.
#[derive(Debug, Clone)]
pub struct SplitMix(u64);

impl SplitMix {
    pub fn new(seed: u64) -> SplitMix {
        SplitMix(seed)
    }

    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// Fisher–Yates shuffle.
    pub fn shuffle<T>(&mut self, items: &mut [T]) {
        for i in (1..items.len()).rev() {
            let j = (self.next_u64() % (i as u64 + 1)) as usize;
            items.swap(i, j);
        }
    }
}

/// User plus system CPU seconds of this process so far, all threads
/// (exited ones included), from `/proc/self/stat`.
pub fn process_cpu_s() -> f64 {
    let stat = std::fs::read_to_string("/proc/self/stat").expect("/proc/self/stat is readable");
    // Fields after the parenthesised command name; utime and stime are
    // fields 14 and 15 of the whole line.
    let rest = &stat[stat.rfind(')').expect("stat has a command name") + 2..];
    let fields: Vec<&str> = rest.split_whitespace().collect();
    let ticks = |i: usize| -> f64 { fields[i].parse::<u64>().expect("numeric tick field") as f64 };
    (ticks(11) + ticks(12)) / clock_ticks_per_s()
}

/// `AT_CLKTCK` from the auxiliary vector (the kernel's `USER_HZ`),
/// falling back to the near-universal 100.
fn clock_ticks_per_s() -> f64 {
    const AT_CLKTCK: u64 = 17;
    let auxv = std::fs::read("/proc/self/auxv").unwrap_or_default();
    auxv.chunks_exact(16)
        .map(|c| {
            let word = |b: &[u8]| u64::from_ne_bytes(b.try_into().expect("8-byte word"));
            (word(&c[..8]), word(&c[8..]))
        })
        .find(|&(key, _)| key == AT_CLKTCK)
        .map_or(100.0, |(_, hz)| hz as f64)
}

/// What [`HostProbe::run_s`] takes at the reference host's full speed.
/// Times are reported as `measured × PROBE_REF_S / probe`: seconds at
/// that speed.
pub const PROBE_REF_S: f64 = 0.055;

/// Measures the host's current speed as the wall time of a fixed
/// kernel run on several threads at once.
///
/// The shared hosts this runs on change speed by up to 2x over minutes
/// with no steal time, and that moves every timing the same way. The
/// kernel is this file's own code and touches none of the
/// repository's crates, so a change to the program cannot move it. It
/// mixes unpredictable branches with reads and writes over a 1 MiB
/// table per thread. Its time tracks the host alone: dividing by it cut
/// the run-to-run spread of pass times in a swing from 21 % to 3 %.
#[derive(Debug)]
pub struct HostProbe {
    /// One table per thread, allocated once so the probe adds a
    /// constant to the process's peak memory instead of a varying one.
    tables: Vec<Vec<u64>>,
}

impl HostProbe {
    const WORDS: usize = 1 << 17;

    pub fn new(threads: usize) -> HostProbe {
        HostProbe {
            tables: (0..threads)
                .map(|_| (0..Self::WORDS as u64).collect())
                .collect(),
        }
    }

    /// The slowest thread's kernel time, in seconds.
    pub fn run_s(&mut self) -> f64 {
        let kernel = |seed: u64, table: &mut [u64]| {
            let t = std::time::Instant::now();
            let mut x = 0x9E37_79B9_7F4A_7C15 ^ seed;
            let mut acc = 0u64;
            for i in 0..12_000_000u64 {
                x ^= x << 13;
                x ^= x >> 7;
                x ^= x << 17;
                let k = x as usize % Self::WORDS;
                if x & 3 == 0 {
                    table[k] = table[k].wrapping_add(i);
                } else {
                    acc = acc.wrapping_add(table[k.wrapping_mul(7) % Self::WORDS] ^ x);
                }
            }
            std::hint::black_box(acc);
            t.elapsed().as_secs_f64()
        };
        std::thread::scope(|s| {
            let handles: Vec<_> = (0u64..)
                .zip(&mut self.tables)
                .map(|(seed, table)| s.spawn(move || kernel(seed, table)))
                .collect();
            handles
                .into_iter()
                .map(|h| h.join().expect("the probe kernel cannot panic"))
                .fold(0.0, f64::max)
        })
    }
}

/// Peak resident set size (`VmHWM`) in MiB.
pub fn peak_rss_mb() -> f64 {
    let status =
        std::fs::read_to_string("/proc/self/status").expect("/proc/self/status is readable");
    let kb: f64 = status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse().ok())
        .expect("VmHWM is reported");
    kb / 1024.0
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn median_and_quartiles_match_python_statistics() {
        // Reference values from CPython's statistics module.
        let ten: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(median(&ten), 5.5);
        assert_eq!(quartiles(&ten), [2.75, 5.5, 8.25]);
        let odd = [7.0, 1.0, 3.0, 5.0, 9.0];
        assert_eq!(median(&odd), 5.0);
        assert_eq!(quartiles(&odd), [2.0, 5.0, 8.0]);
        assert_eq!(quartiles(&[1.0, 2.0]), [0.75, 1.5, 2.25]);
        assert_eq!(quartiles(&[4.0]), [4.0; 3]);
        assert!((relative_iqr(&ten) - 5.5 / 5.5).abs() < 1e-12);
        assert_eq!(relative_iqr(&[2.0, 2.0, 2.0]), 0.0);
    }

    #[test]
    fn splitmix_is_deterministic_and_shuffles_every_element() {
        let mut a = SplitMix::new(7);
        let mut b = SplitMix::new(7);
        assert_eq!(a.next_u64(), b.next_u64());
        let mut v: Vec<u32> = (0..50).collect();
        SplitMix::new(1).shuffle(&mut v);
        let mut back = v.clone();
        back.sort_unstable();
        assert_eq!(back, (0..50).collect::<Vec<_>>());
        assert_ne!(v, back, "a 50-element shuffle moves something");
    }

    #[test]
    fn proc_readers_report_live_values() {
        assert!(process_cpu_s() >= 0.0);
        assert!(peak_rss_mb() > 0.0);
        assert!(clock_ticks_per_s() >= 1.0);
    }
}
