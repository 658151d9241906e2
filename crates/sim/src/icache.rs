//! A direct-mapped instruction cache model.
//!
//! The paper (§4.1) notes that scheduling cannot reduce the extra
//! instruction-cache misses instrumentation causes: profiling grows a
//! program's text 2–3×, and by the Lebeck–Wood model a size growth of
//! ×E grows misses roughly ×(E·√E). This model lets the benchmark
//! harness reproduce that effect.

/// Configuration of the data cache (same direct-mapped geometry as
/// the instruction cache; misses extend the load's result latency).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct DCacheConfig {
    /// Total capacity in bytes (power of two).
    pub size: u32,
    /// Line size in bytes (power of two).
    pub line: u32,
    /// Extra result-latency cycles for a load miss.
    pub miss_penalty: u32,
}

impl Default for DCacheConfig {
    /// 16 KiB, 32-byte lines, 10-cycle miss penalty.
    fn default() -> DCacheConfig {
        DCacheConfig {
            size: 16 * 1024,
            line: 32,
            miss_penalty: 10,
        }
    }
}

/// Configuration of the instruction cache.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ICacheConfig {
    /// Total capacity in bytes (power of two).
    pub size: u32,
    /// Line size in bytes (power of two).
    pub line: u32,
    /// Extra cycles charged per miss.
    pub miss_penalty: u32,
}

impl Default for ICacheConfig {
    /// 16 KiB, 32-byte lines, 8-cycle miss penalty — the scale of the
    /// on-chip I-caches of the paper's machines.
    fn default() -> ICacheConfig {
        ICacheConfig {
            size: 16 * 1024,
            line: 32,
            miss_penalty: 8,
        }
    }
}

/// A direct-mapped instruction cache.
///
/// Both sizes are powers of two, so the geometry is kept as shifts and
/// a mask: an address's line is `addr >> line_shift`, the line's set
/// its low `set_shift` bits and its tag the bits above them.
#[derive(Debug, Clone)]
pub struct ICache {
    config: ICacheConfig,
    tags: Vec<Option<u32>>,
    /// log2 of the line size.
    line_shift: u32,
    /// The set count minus one.
    set_mask: u32,
    /// log2 of the set count.
    set_shift: u32,
    hits: u64,
    misses: u64,
}

impl ICache {
    /// An empty cache with the given configuration.
    ///
    /// # Panics
    ///
    /// Panics unless `size` and `line` are powers of two with
    /// `size >= line`.
    pub fn new(config: ICacheConfig) -> ICache {
        assert!(
            config.size.is_power_of_two(),
            "cache size must be a power of two"
        );
        assert!(
            config.line.is_power_of_two(),
            "line size must be a power of two"
        );
        assert!(config.size >= config.line, "cache smaller than one line");
        let sets = config.size / config.line;
        ICache {
            config,
            tags: vec![None; sets as usize],
            line_shift: config.line.trailing_zeros(),
            set_mask: sets - 1,
            set_shift: sets.trailing_zeros(),
            hits: 0,
            misses: 0,
        }
    }

    /// Looks up (and fills) the line containing `addr`. Returns whether
    /// it hit.
    #[inline]
    pub fn access(&mut self, addr: u32) -> bool {
        let line_addr = addr >> self.line_shift;
        let set = (line_addr & self.set_mask) as usize;
        let tag = line_addr >> self.set_shift;
        if self.tags[set] == Some(tag) {
            self.hits += 1;
            true
        } else {
            self.tags[set] = Some(tag);
            self.misses += 1;
            false
        }
    }

    /// Cycles to charge for the most recent access (0 on hit).
    pub fn penalty(&self) -> u32 {
        self.config.miss_penalty
    }

    /// log2 of the line size in bytes.
    pub fn line_shift(&self) -> u32 {
        self.line_shift
    }

    /// Number of sets (direct-mapped: lines).
    pub fn sets(&self) -> usize {
        self.tags.len()
    }

    /// The cache's fill generation. A direct-mapped cache's tag array
    /// only changes on a miss, so two equal generations bracket a span
    /// in which every previously-hitting address still hits — the
    /// basis for the simulator's batched block probes.
    pub fn generation(&self) -> u64 {
        self.misses
    }

    /// Credits `n` hits without probing — for callers that have proven
    /// (via [`Self::generation`]) that each access would hit, which
    /// leaves the tags untouched.
    pub fn record_hits(&mut self, n: u64) {
        self.hits += n;
    }

    /// Total hits so far.
    pub fn hits(&self) -> u64 {
        self.hits
    }

    /// Total misses so far.
    pub fn misses(&self) -> u64 {
        self.misses
    }

    /// Miss rate over all accesses (0 if none).
    pub fn miss_rate(&self) -> f64 {
        let total = self.hits + self.misses;
        if total == 0 {
            0.0
        } else {
            self.misses as f64 / total as f64
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    #[test]
    fn sequential_accesses_hit_within_a_line() {
        let mut c = ICache::new(ICacheConfig {
            size: 1024,
            line: 32,
            miss_penalty: 8,
        });
        assert!(!c.access(0));
        for a in (4..32).step_by(4) {
            assert!(c.access(a), "{a:#x} within the first line");
        }
        assert!(!c.access(32), "next line misses");
        assert_eq!(c.misses(), 2);
        assert_eq!(c.hits(), 7);
    }

    #[test]
    fn conflicting_lines_evict() {
        let mut c = ICache::new(ICacheConfig {
            size: 64,
            line: 32,
            miss_penalty: 8,
        });
        assert!(!c.access(0));
        assert!(!c.access(64), "maps to set 0, evicts");
        assert!(!c.access(0), "evicted");
    }

    #[test]
    fn loop_fitting_in_cache_hits() {
        let mut c = ICache::new(ICacheConfig::default());
        for _ in 0..10 {
            for pc in (0x10000..0x10100).step_by(4) {
                c.access(pc);
            }
        }
        assert_eq!(c.misses(), 8, "256 bytes = 8 lines, cold misses only");
        assert!(c.miss_rate() < 0.02);
    }

    #[test]
    #[should_panic(expected = "power of two")]
    fn non_power_of_two_rejected() {
        ICache::new(ICacheConfig {
            size: 1000,
            line: 32,
            miss_penalty: 8,
        });
    }

    /// The textbook direct-mapped cache, by division: the oracle for
    /// [`ICache::access`]'s shifts and mask.
    struct DividingCache {
        line: u32,
        sets: u32,
        tags: Vec<Option<u32>>,
    }

    impl DividingCache {
        fn access(&mut self, addr: u32) -> bool {
            let line_addr = addr / self.line;
            let set = (line_addr % self.sets) as usize;
            let tag = line_addr / self.sets;
            let hit = self.tags[set] == Some(tag);
            self.tags[set] = Some(tag);
            hit
        }
    }

    /// A run start: anywhere, or in a small window at either end of
    /// the address space, so runs revisit and conflict with each other.
    fn arb_start() -> impl Strategy<Value = u32> {
        prop_oneof![any::<u32>(), 0u32..0x4000, (u32::MAX - 0x4000)..=u32::MAX,]
    }

    /// An address stream: sequential word runs, strided runs and
    /// single arbitrary addresses. Runs wrap at the top of the space.
    fn arb_stream() -> impl Strategy<Value = Vec<u32>> {
        let run = prop_oneof![
            (arb_start(), 1u32..48).prop_map(|(start, n)| {
                (0..n)
                    .map(|k| start.wrapping_add(4 * k))
                    .collect::<Vec<_>>()
            }),
            (arb_start(), 0u32..18, 1u32..24).prop_map(|(start, log, n)| {
                (0..n)
                    .map(|k| start.wrapping_add(k << log))
                    .collect::<Vec<_>>()
            }),
            arb_start().prop_map(|a| vec![a]),
        ];
        prop::collection::vec(run, 1..32).prop_map(|runs| runs.concat())
    }

    proptest! {
        #![proptest_config(ProptestConfig { cases: 64, ..ProptestConfig::default() })]

        /// Every power-of-two geometry from 4 B to 64 KiB, with lines
        /// of 4 to 256 B, hits and misses exactly where the dividing
        /// model does.
        #[test]
        fn access_matches_a_dividing_model(
            (line_log, extra) in (2u32..=8, 0u32..=14),
            stream in arb_stream(),
        ) {
            let line = 1u32 << line_log;
            let size = 1u32 << (line_log + extra).min(16);
            let mut cache = ICache::new(ICacheConfig {
                size,
                line,
                miss_penalty: 8,
            });
            let mut model = DividingCache {
                line,
                sets: size / line,
                tags: vec![None; (size / line) as usize],
            };
            let mut hits = 0;
            for (i, &addr) in stream.iter().enumerate() {
                let hit = model.access(addr);
                prop_assert_eq!(
                    cache.access(addr),
                    hit,
                    "access {} at {:#x}, {}-byte cache of {}-byte lines",
                    i,
                    addr,
                    size,
                    line
                );
                hits += u64::from(hit);
            }
            prop_assert_eq!(cache.hits(), hits);
            prop_assert_eq!(cache.misses(), stream.len() as u64 - hits);
        }
    }
}
