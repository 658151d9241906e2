//! Ready-list selection for the two-pass list scheduler.
//!
//! The paper's §4 scheduler hardwires one priority rule: fewest
//! stalls, then longest dependence chain to the block end, then
//! original order. [`Priority`] names that rule and three variants
//! (critical-path first, the load-delay-aware order of Diavastos &
//! Carlson, and one-step lookahead on ties); the variants share the
//! whole scheduling substrate — dependence graph, pipeline scoreboard
//! — and differ only in how two ready [`Candidate`]s compare.

use std::cmp::Reverse;
use std::fmt;

/// One ready instruction as seen by a rule: everything the scheduler
/// knows about it this round.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Candidate {
    /// Stall cycles before this instruction could issue now, from the
    /// pipeline scoreboard query.
    pub stalls: u64,
    /// Length (cycles) of the dependence chain from this instruction
    /// to the end of the block (the paper's backward first pass).
    pub chain_to_end: u32,
    /// Position in the original code sequence — the final tie-break,
    /// which also makes every comparison a strict total order.
    pub index: usize,
    /// Whether some consumer of this instruction also waits on a
    /// long-latency (≥ 2 cycle) producer — i.e. the consumer sits in
    /// a load shadow and this instruction's result is not the
    /// bottleneck. Only computed when [`Priority::uses_load_shadow`]
    /// returns `true`; `false` otherwise.
    pub load_shadowed: bool,
}

/// Which rule orders the ready list (the ablation of §4's priority).
///
/// The enum stays `Copy` and `Eq` so it can live in cache keys and
/// option structs; its [`Display`](fmt::Display) form is the rule's
/// one name in reports, ablation labels and `--policy` values.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum Priority {
    /// The paper's rule: fewest stalls, then longest chain to the
    /// block end, then original order. Its output is pinned
    /// byte-for-byte by the golden tables.
    #[default]
    StallsFirst,
    /// Classic critical-path list scheduling: longest chain first,
    /// then fewest stalls, then original order.
    ChainFirst,
    /// Load-delay-aware selection (after Diavastos & Carlson): fewest
    /// stalls first, but among equal-stall candidates prefer
    /// instructions whose consumers are *not* already covered by a
    /// load shadow — feeding a consumer that must wait on a
    /// long-latency producer anyway buys nothing, so such candidates
    /// are deprioritized toward the shadow cycles where they are free.
    LoadDelay,
    /// The paper's order with one-step lookahead on ties: when several
    /// candidates tie on (stalls, chain), the scheduler clones the
    /// pipeline scoreboard, issues each of the top-`k` tied
    /// candidates, and picks the one whose best follow-up candidate
    /// stalls least.
    Lookahead(u8),
    /// The branch-and-bound oracle (see [`crate::exact`]): the body is
    /// list-scheduled under the paper's rule for an incumbent, then
    /// searched to a proven minimum-latency order (or to the node
    /// budget, falling back to the incumbent). Excluded from
    /// [`Priority::ALL`]: it is a ground-truth backend for gap
    /// measurement, not a sweepable ready-list rule.
    Exact,
}

impl Priority {
    /// Every selectable ready-list policy, with the default lookahead
    /// depth — the sweep axis for ablations and property tests. The
    /// [`Priority::Exact`] oracle is deliberately not here: sweeps and
    /// property loops iterate this array, and the oracle is orders of
    /// magnitude slower than any list policy.
    pub const ALL: [Priority; 4] = [
        Priority::StallsFirst,
        Priority::ChainFirst,
        Priority::LoadDelay,
        Priority::Lookahead(3),
    ];

    /// Parses a `--policy` flag value: `stalls-first`, `chain-first`,
    /// `load-delay`, `lookahead[:k]` (default k = 3), or `exact`.
    pub fn parse(s: &str) -> Option<Priority> {
        match s {
            "stalls" | "stalls-first" => Some(Priority::StallsFirst),
            "chain" | "chain-first" => Some(Priority::ChainFirst),
            "load-delay" | "loaddelay" => Some(Priority::LoadDelay),
            "lookahead" => Some(Priority::Lookahead(3)),
            "exact" => Some(Priority::Exact),
            _ => {
                let k = s.strip_prefix("lookahead:")?.parse::<u8>().ok()?;
                if k == 0 {
                    None
                } else {
                    Some(Priority::Lookahead(k))
                }
            }
        }
    }

    /// `true` when `a` should be scheduled in preference to `b`. The
    /// original index ends every key, so this is a strict total order
    /// on distinct candidates. The exact oracle's list incumbent uses
    /// the paper's order.
    pub fn better(self, a: &Candidate, b: &Candidate) -> bool {
        match self {
            Priority::ChainFirst => {
                (Reverse(a.chain_to_end), a.stalls, a.index)
                    < (Reverse(b.chain_to_end), b.stalls, b.index)
            }
            Priority::LoadDelay => {
                (a.stalls, a.load_shadowed, Reverse(a.chain_to_end), a.index)
                    < (b.stalls, b.load_shadowed, Reverse(b.chain_to_end), b.index)
            }
            Priority::StallsFirst | Priority::Lookahead(_) | Priority::Exact => {
                (a.stalls, Reverse(a.chain_to_end), a.index)
                    < (b.stalls, Reverse(b.chain_to_end), b.index)
            }
        }
    }

    /// Whether `a` and `b` are tied up to the positional tie-break —
    /// the set [`Priority::Lookahead`] re-ranks by simulation. Every
    /// other rule's order is always decisive.
    pub fn ties(self, a: &Candidate, b: &Candidate) -> bool {
        matches!(self, Priority::Lookahead(_))
            && a.stalls == b.stalls
            && a.chain_to_end == b.chain_to_end
    }

    /// How many tied candidates to try one step ahead (0 = none).
    pub fn lookahead(self) -> usize {
        match self {
            Priority::Lookahead(k) => usize::from(k),
            _ => 0,
        }
    }

    /// Whether the scheduler should compute [`Candidate::load_shadowed`]
    /// (it costs a pass over the dependence edges per block).
    pub fn uses_load_shadow(self) -> bool {
        self == Priority::LoadDelay
    }
}

impl fmt::Display for Priority {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Priority::StallsFirst => f.write_str("stalls-first"),
            Priority::ChainFirst => f.write_str("chain-first"),
            Priority::LoadDelay => f.write_str("load-delay"),
            Priority::Lookahead(k) => write!(f, "lookahead:{k}"),
            Priority::Exact => f.write_str("exact"),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn cand(stalls: u64, chain: u32, index: usize) -> Candidate {
        Candidate {
            stalls,
            chain_to_end: chain,
            index,
            load_shadowed: false,
        }
    }

    #[test]
    fn stalls_first_orders_like_the_paper() {
        let p = Priority::StallsFirst;
        assert!(p.better(&cand(0, 1, 5), &cand(1, 9, 0)), "fewest stalls");
        assert!(p.better(&cand(1, 9, 5), &cand(1, 1, 0)), "longest chain");
        assert!(p.better(&cand(1, 9, 0), &cand(1, 9, 5)), "original order");
    }

    #[test]
    fn chain_first_puts_chain_before_stalls() {
        assert!(Priority::ChainFirst.better(&cand(7, 9, 5), &cand(0, 1, 0)));
    }

    #[test]
    fn load_delay_breaks_stall_ties_by_shadow() {
        let p = Priority::LoadDelay;
        let shadowed = Candidate {
            load_shadowed: true,
            ..cand(1, 9, 0)
        };
        assert!(
            p.better(&cand(1, 1, 5), &shadowed),
            "unshadowed wins a stall tie even with a shorter chain"
        );
        assert!(
            p.better(&cand(0, 1, 5), &cand(1, 9, 0)),
            "stalls stay primary"
        );
        assert!(p.uses_load_shadow());
        assert!(!Priority::StallsFirst.uses_load_shadow());
    }

    #[test]
    fn lookahead_ties_match_its_base_order() {
        let p = Priority::Lookahead(3);
        assert!(p.ties(&cand(1, 4, 0), &cand(1, 4, 9)));
        assert!(!p.ties(&cand(1, 4, 0), &cand(1, 5, 9)));
        assert!(!p.ties(&cand(0, 4, 0), &cand(1, 4, 9)));
        assert_eq!(p.lookahead(), 3);
        assert!(!Priority::StallsFirst.ties(&cand(1, 4, 0), &cand(1, 4, 9)));
        assert_eq!(Priority::StallsFirst.lookahead(), 0);
    }

    #[test]
    fn every_policy_is_a_strict_order() {
        let a = cand(1, 4, 0);
        let b = cand(1, 4, 1);
        for p in Priority::ALL {
            assert!(!p.better(&a, &a), "{p}: irreflexive");
            assert!(
                p.better(&a, &b) ^ p.better(&b, &a),
                "{p}: total on distinct candidates"
            );
        }
    }
}
