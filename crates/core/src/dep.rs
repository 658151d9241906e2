//! Dependence analysis for local scheduling.
//!
//! Builds the DAG of register (RAW/WAR/WAW) and memory dependences
//! over a block body. Memory conservatism follows the paper, §4:
//! loads and stores *from the original code* are assumed to access the
//! same address; loads and stores *in instrumentation code* are
//! assumed to access the same address as each other but a *different*
//! address from original accesses — profiling counters live in their
//! own data area, so instrumentation memory operations move freely
//! past original ones.
//!
//! # Construction
//!
//! Whether an earlier node `i` must precede node `j` is decided by one
//! per-pair rule (see `pair_edge`). Rather than testing all n²/2 pairs,
//! [`DepGraph::build_prepared`] keeps, per resource, bitsets of the
//! nodes so far that wrote and read it, plus bitsets of barriers and of
//! memory operations in each conflict domain. Node `j`'s candidates
//! are the OR of the rows its operands select; only they run the rule,
//! in ascending `i`. Every pair the rule would give an edge is in that
//! set, so the edge list is the all-pairs list, in the same order.

use eel_edit::{Origin, Tagged};
use eel_pipeline::{MachineModel, PreparedInsn};
use eel_sparc::Resource;

/// One dependence edge: instruction `to` must issue at least
/// `min_cycles` after instruction `from`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct DepEdge {
    /// Index of the earlier instruction.
    pub from: usize,
    /// Index of the later instruction.
    pub to: usize,
    /// Minimum issue-cycle distance (0 = same cycle allowed).
    pub min_cycles: u32,
    /// Why the edge exists.
    pub kind: DepKind,
}

/// The reason two instructions are ordered.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum DepKind {
    /// Read-after-write on a register resource.
    Raw(Resource),
    /// Write-after-read on a register resource.
    War(Resource),
    /// Write-after-write on a register resource.
    Waw(Resource),
    /// A conservative memory ordering (same conflict domain).
    Memory,
    /// An instruction with side effects the model cannot reorder
    /// around (`save`/`restore`/`Ticc`/unknown words).
    Barrier,
}

/// The dependence DAG of one block body.
#[derive(Debug, Clone, Default)]
pub struct DepGraph {
    n: usize,
    /// One edge per dependent pair, sorted by `to`, then by `from`.
    pub edges: Vec<DepEdge>,
    /// Successors in compressed-row form: the edges leaving node `i`
    /// are `edges[succ[k]]` for `k` in `succ_start[i]..succ_start[i + 1]`,
    /// in edge order (so by ascending `to`).
    succ_start: Vec<u32>,
    succ: Vec<u32>,
    /// `pred_count[i]` — number of incoming edges.
    pred_count: Vec<u32>,
}

/// Per-node facts the pair rule reads besides operands.
#[derive(Debug, Clone, Copy)]
struct NodeFlags {
    barrier: bool,
    mem: bool,
    store: bool,
    instrumentation: bool,
}

impl NodeFlags {
    fn of(t: &Tagged) -> NodeFlags {
        NodeFlags {
            barrier: t.insn.is_scheduling_barrier(),
            mem: t.insn.is_mem(),
            store: t.insn.is_store(),
            instrumentation: t.origin == Origin::Instrumentation,
        }
    }
}

/// Bitset rows of the node indices seen so far, reused from block to
/// block (see the module docs).
#[derive(Debug, Default)]
pub(crate) struct DepScratch {
    /// `u64` words per row: `ceil(n / 64)`.
    words: usize,
    /// Rows, `words` apart: per resource the nodes that wrote it
    /// ([`WRITERS`]), then those that read it ([`READERS`]), then
    /// barriers, then memory operations per domain ([`MEM`]).
    rows: Vec<u64>,
    /// The candidate set of the node being added.
    cand: Vec<u64>,
    flags: Vec<NodeFlags>,
}

const WRITERS: usize = 0;
const READERS: usize = Resource::COUNT;
const BARRIERS: usize = 2 * Resource::COUNT;
/// Memory rows: `MEM + 2 * origin + store` — every memory operation of
/// an origin, and its stores.
const MEM: usize = BARRIERS + 1;
const ROWS: usize = MEM + 4;

impl DepScratch {
    fn reset(&mut self, body: &[Tagged]) {
        self.words = body.len().div_ceil(64);
        self.rows.clear();
        self.rows.resize(ROWS * self.words, 0);
        self.cand.clear();
        self.cand.resize(self.words, 0);
        self.flags.clear();
        self.flags.extend(body.iter().map(NodeFlags::of));
    }

    /// ORs row `row`'s first `live` words into the candidate set.
    fn or_row(&mut self, row: usize, live: usize) {
        let at = row * self.words;
        for (c, r) in self.cand[..live].iter_mut().zip(&self.rows[at..at + live]) {
            *c |= r;
        }
    }

    fn set(&mut self, row: usize, node: usize) {
        self.rows[row * self.words + node / 64] |= 1u64 << (node % 64);
    }
}

/// The memory row of an origin's operations (`store = false`) or
/// stores (`store = true`).
fn mem_row(instrumentation: bool, store: bool) -> usize {
    MEM + 2 * usize::from(instrumentation) + usize::from(store)
}

/// The resource behind a prepared operand index.
fn resource(index: u8) -> Resource {
    Resource::from_index(usize::from(index)).expect("prepared operand index in range")
}

/// The per-pair rule: the strongest reason node `i` must precede node
/// `j` (`i < j`), or `None` when they are independent. Reasons are
/// weighed in a fixed order — barrier, then per write of `i` RAW and
/// WAW, then per read of `i` WAR, then memory — and a later reason
/// replaces an earlier one only with a strictly larger distance.
fn pair_edge(
    prepared: &[PreparedInsn],
    flags: &[NodeFlags],
    (i, j): (usize, usize),
    instr_mem_independent: bool,
) -> Option<DepEdge> {
    let (pi, fi, pj, fj) = (&prepared[i], flags[i], &prepared[j], flags[j]);
    let mut best: Option<DepEdge> = None;
    let mut consider = |min_cycles: u32, kind: DepKind| {
        if best.is_none_or(|b| min_cycles > b.min_cycles) {
            best = Some(DepEdge {
                from: i,
                to: j,
                min_cycles,
                kind,
            });
        }
    };
    let writes = |p: &PreparedInsn, r: u8| p.writes().iter().any(|&(w, _)| w == r);

    if fi.barrier || fj.barrier {
        consider(1, DepKind::Barrier);
    }
    for &(r, avail) in pi.writes() {
        // Latency of a RAW pair: the producer's value is visible at
        // its avail offset and the consumer reads in its own read
        // cycle: consumer_issue - producer_issue >= avail - read.
        if let Some(&(_, read)) = pj.reads().iter().find(|&&(u, _)| u == r) {
            consider(avail.saturating_sub(read), DepKind::Raw(resource(r)));
        }
        if writes(pj, r) {
            consider(1, DepKind::Waw(resource(r)));
        }
    }
    for &(r, _) in pi.reads() {
        if writes(pj, r) {
            consider(0, DepKind::War(resource(r)));
        }
    }
    // Two loads never conflict; with independence on, only operations
    // of the same origin do.
    let mem_conflict = fi.mem
        && fj.mem
        && (fi.store || fj.store)
        && (!instr_mem_independent || fi.instrumentation == fj.instrumentation);
    if mem_conflict {
        consider(1, DepKind::Memory);
    }
    best
}

impl DepGraph {
    /// Analyzes a block body into its dependence DAG.
    ///
    /// `instr_mem_independent` enables the paper's assumption that
    /// instrumentation memory traffic never conflicts with original
    /// memory traffic. Turning it off is the paper's "option to limit
    /// the movement of instrumentation code".
    pub fn build(model: &MachineModel, body: &[Tagged], instr_mem_independent: bool) -> DepGraph {
        let prepared: Vec<PreparedInsn> = body.iter().map(|t| model.prepare(&t.insn)).collect();
        DepGraph::build_prepared(body, &prepared, instr_mem_independent)
    }

    /// [`DepGraph::build`] over instructions already prepared against
    /// the machine model (`prepared[k]` is `body[k]` prepared): operands
    /// and latencies come from [`PreparedInsn::reads`] and
    /// [`PreparedInsn::writes`], so a scheduler that prepares each block
    /// once for its stall queries resolves nothing twice.
    ///
    /// # Panics
    ///
    /// Panics if `prepared` and `body` differ in length.
    pub fn build_prepared(
        body: &[Tagged],
        prepared: &[PreparedInsn],
        instr_mem_independent: bool,
    ) -> DepGraph {
        let mut graph = DepGraph::default();
        graph.rebuild(
            body,
            prepared,
            instr_mem_independent,
            &mut DepScratch::default(),
        );
        graph
    }

    /// [`DepGraph::build_prepared`] into `self`, reusing its buffers
    /// and `scratch`'s: allocation-free once they have grown to the
    /// block size.
    pub(crate) fn rebuild(
        &mut self,
        body: &[Tagged],
        prepared: &[PreparedInsn],
        instr_mem_independent: bool,
        scratch: &mut DepScratch,
    ) {
        assert_eq!(body.len(), prepared.len(), "one prepared form per node");
        let n = body.len();
        scratch.reset(body);
        self.edges.clear();
        for (j, pj) in prepared.iter().enumerate() {
            let fj = scratch.flags[j];
            // Words that can hold a node before `j`.
            let live = j / 64 + 1;
            scratch.cand[..live].fill(0);
            if fj.barrier {
                // A barrier is ordered after every earlier node.
                for w in 0..live {
                    let bits = j - 64 * w;
                    scratch.cand[w] = if bits >= 64 { !0 } else { (1u64 << bits) - 1 };
                }
            } else {
                scratch.or_row(BARRIERS, live);
                for &(r, _) in pj.reads() {
                    scratch.or_row(WRITERS + usize::from(r), live);
                }
                for &(r, _) in pj.writes() {
                    scratch.or_row(WRITERS + usize::from(r), live);
                    scratch.or_row(READERS + usize::from(r), live);
                }
                if fj.mem {
                    // A store conflicts with every memory operation of a
                    // conflicting domain, a load only with its stores.
                    let store_only = !fj.store;
                    if instr_mem_independent {
                        scratch.or_row(mem_row(fj.instrumentation, store_only), live);
                    } else {
                        scratch.or_row(mem_row(false, store_only), live);
                        scratch.or_row(mem_row(true, store_only), live);
                    }
                }
            }
            for w in 0..live {
                let mut bits = scratch.cand[w];
                while bits != 0 {
                    let i = 64 * w + bits.trailing_zeros() as usize;
                    bits &= bits - 1;
                    self.edges.extend(pair_edge(
                        prepared,
                        &scratch.flags,
                        (i, j),
                        instr_mem_independent,
                    ));
                }
            }
            for &(r, _) in pj.writes() {
                scratch.set(WRITERS + usize::from(r), j);
            }
            for &(r, _) in pj.reads() {
                scratch.set(READERS + usize::from(r), j);
            }
            if fj.barrier {
                scratch.set(BARRIERS, j);
            }
            if fj.mem {
                scratch.set(mem_row(fj.instrumentation, false), j);
                if fj.store {
                    scratch.set(mem_row(fj.instrumentation, true), j);
                }
            }
        }
        self.index(n);
    }

    /// Derives predecessor counts and the compressed successor rows
    /// from `edges`.
    fn index(&mut self, n: usize) {
        // Edge indices and row starts are stored as `u32`.
        assert!(
            u32::try_from(self.edges.len()).is_ok(),
            "{} edges overflow the successor index",
            self.edges.len()
        );
        self.n = n;
        self.pred_count.clear();
        self.pred_count.resize(n, 0);
        self.succ_start.clear();
        self.succ_start.resize(n + 1, 0);
        for e in &self.edges {
            self.pred_count[e.to] += 1;
            self.succ_start[e.from + 1] += 1;
        }
        for i in 0..n {
            self.succ_start[i + 1] += self.succ_start[i];
        }
        // Fill each row in edge order, using the row starts as cursors
        // and shifting them back afterwards.
        self.succ.clear();
        self.succ.resize(self.edges.len(), 0);
        for (k, e) in self.edges.iter().enumerate() {
            let slot = &mut self.succ_start[e.from];
            self.succ[*slot as usize] = k as u32;
            *slot += 1;
        }
        for i in (0..n).rev() {
            self.succ_start[i + 1] = self.succ_start[i];
        }
        self.succ_start[0] = 0;
    }

    /// Number of nodes.
    pub fn len(&self) -> usize {
        self.n
    }

    /// Whether the body was empty.
    pub fn is_empty(&self) -> bool {
        self.n == 0
    }

    /// Incoming-edge count per node (for ready-list initialization).
    pub fn pred_counts(&self) -> &[u32] {
        &self.pred_count
    }

    /// Edges leaving node `i`, by ascending `to`.
    pub fn succ_edges(&self, i: usize) -> impl Iterator<Item = &DepEdge> {
        let row = self.succ_start[i] as usize..self.succ_start[i + 1] as usize;
        self.succ[row].iter().map(move |&k| &self.edges[k as usize])
    }

    /// Whether there is any dependence path from `i` to `j` (`i < j`).
    /// Used by tests to check order preservation.
    pub fn depends(&self, i: usize, j: usize) -> bool {
        let mut stack = vec![i];
        let mut seen = vec![false; self.n];
        while let Some(x) = stack.pop() {
            if x == j {
                return true;
            }
            if seen[x] {
                continue;
            }
            seen[x] = true;
            for e in self.succ_edges(x) {
                stack.push(e.to);
            }
        }
        false
    }

    /// The paper's first pass: the length (in cycles) of the
    /// dependence chain between every instruction and the end of the
    /// block, considering only the stalls between data-dependent
    /// instructions. Computed backwards.
    pub fn chain_to_end(&self) -> Vec<u32> {
        let mut cte = Vec::new();
        self.chain_to_end_into(&mut cte);
        cte
    }

    /// [`DepGraph::chain_to_end`] into a reused buffer.
    pub(crate) fn chain_to_end_into(&self, cte: &mut Vec<u32>) {
        cte.clear();
        cte.resize(self.n, 0);
        for i in (0..self.n).rev() {
            for e in self.succ_edges(i) {
                cte[i] = cte[i].max(e.min_cycles + cte[e.to]);
            }
        }
    }

    /// For every instruction, whether some RAW consumer of it also
    /// waits on a *different* long-latency (≥ 2 cycle) producer — the
    /// consumer sits in a load shadow, so this instruction's result
    /// arriving early buys nothing. The `LoadDelay` policy uses this
    /// to deprioritize such producers toward the shadow cycles.
    pub fn load_shadowed(&self) -> Vec<bool> {
        let mut shadowed = Vec::new();
        self.load_shadowed_into(&mut shadowed);
        shadowed
    }

    /// [`DepGraph::load_shadowed`] into a reused buffer. A consumer's
    /// incoming edges are contiguous (edges sort by `to`) and come from
    /// distinct producers, so "another long-latency producer" is the
    /// consumer's long RAW count less the producer's own.
    pub(crate) fn load_shadowed_into(&self, shadowed: &mut Vec<bool>) {
        shadowed.clear();
        shadowed.resize(self.n, false);
        for group in self.edges.chunk_by(|a, b| a.to == b.to) {
            let raw = || group.iter().filter(|e| matches!(e.kind, DepKind::Raw(_)));
            let long = raw().filter(|e| e.min_cycles >= 2).count();
            for e in raw() {
                if long > usize::from(e.min_cycles >= 2) {
                    shadowed[e.from] = true;
                }
            }
        }
    }
}

#[cfg(test)]
pub(crate) mod tests {
    use super::*;
    use eel_edit::Tagged;
    use eel_pipeline::class_of;
    use eel_sadl::RegClass;
    use eel_sparc::{
        Address, AluOp, Cond, FpOp, FpReg, Instruction, IntReg, MemWidth, Operand, ResourceList,
    };
    use proptest::prelude::*;

    /// The all-pairs construction, kept as the differential oracle of
    /// the bitset candidates: every pair is tested, operands come from
    /// the instruction and latencies from the model's timing group,
    /// with no `PreparedInsn`.
    fn all_pairs_edges(
        model: &MachineModel,
        body: &[Tagged],
        instr_mem_independent: bool,
    ) -> Vec<DepEdge> {
        struct Node {
            uses: ResourceList,
            defs: ResourceList,
            rc: [u32; RegClass::COUNT],
            avail: [u32; RegClass::COUNT],
            barrier: bool,
        }
        let nodes: Vec<Node> = body
            .iter()
            .map(|t| {
                let timing = model.timing(model.group_id_of(&t.insn));
                let mut rc = [0u32; RegClass::COUNT];
                let mut avail = [0u32; RegClass::COUNT];
                for class in RegClass::ALL {
                    rc[class.index()] = timing.read_cycle(class);
                    avail[class.index()] = timing.avail_offset(class);
                }
                Node {
                    uses: t.insn.uses_fixed(),
                    defs: t.insn.defs_fixed(),
                    rc,
                    avail,
                    barrier: t.insn.is_scheduling_barrier(),
                }
            })
            .collect();
        let raw_latency = |pi: usize, ci: usize, r: Resource| -> u32 {
            let class = class_of(r).index();
            nodes[pi].avail[class].saturating_sub(nodes[ci].rc[class])
        };
        let mem_conflict = |a: &Tagged, b: &Tagged| -> bool {
            if !(a.insn.is_mem() && b.insn.is_mem()) {
                return false;
            }
            if !(a.insn.is_store() || b.insn.is_store()) {
                return false;
            }
            if instr_mem_independent {
                a.origin == b.origin
            } else {
                true
            }
        };
        let mut edges = Vec::new();
        for (j, tj) in body.iter().enumerate() {
            for (i, ti) in body.iter().enumerate().take(j) {
                let mut best: Option<DepEdge> = None;
                let mut consider = |min_cycles: u32, kind: DepKind| {
                    if best.is_none_or(|b| min_cycles > b.min_cycles) {
                        best = Some(DepEdge {
                            from: i,
                            to: j,
                            min_cycles,
                            kind,
                        });
                    }
                };
                if nodes[i].barrier || nodes[j].barrier {
                    consider(1, DepKind::Barrier);
                }
                for r in &nodes[i].defs {
                    if nodes[j].uses.contains(&r) {
                        consider(raw_latency(i, j, r), DepKind::Raw(r));
                    }
                    if nodes[j].defs.contains(&r) {
                        consider(1, DepKind::Waw(r));
                    }
                }
                for r in &nodes[i].uses {
                    if nodes[j].defs.contains(&r) {
                        consider(0, DepKind::War(r));
                    }
                }
                if mem_conflict(ti, tj) {
                    consider(1, DepKind::Memory);
                }
                edges.extend(best);
            }
        }
        edges
    }

    /// Chain-to-end straight from the definition, over an edge list.
    fn chain_to_end_of(n: usize, edges: &[DepEdge]) -> Vec<u32> {
        let mut cte = vec![0u32; n];
        for i in (0..n).rev() {
            for e in edges.iter().filter(|e| e.from == i) {
                cte[i] = cte[i].max(e.min_cycles + cte[e.to]);
            }
        }
        cte
    }

    /// Load shadows straight from the definition: `i` is shadowed when
    /// one of its RAW consumers has another RAW producer at distance 2
    /// or more.
    fn load_shadowed_of(n: usize, edges: &[DepEdge]) -> Vec<bool> {
        let raw = |e: &&DepEdge| matches!(e.kind, DepKind::Raw(_));
        (0..n)
            .map(|i| {
                edges.iter().filter(raw).any(|e| {
                    e.from == i
                        && edges
                            .iter()
                            .filter(raw)
                            .any(|o| o.to == e.to && o.from != i && o.min_cycles >= 2)
                })
            })
            .collect()
    }

    /// One random instruction: `(kind, a, b, c, word, instrumentation)`.
    type Spec = (u8, u8, u8, u8, u32, bool);

    /// Integer registers from a small pool, `%g0` included, so random
    /// bodies are dense with dependences.
    fn int_reg(r: u8) -> IntReg {
        IntReg::new([0, 1, 2, 8, 9, 10, 14, 16][usize::from(r % 8)])
    }

    fn fp_reg(r: u8) -> FpReg {
        FpReg::new(r % 6)
    }

    /// Expands a spec into a tagged instruction: ALU ops of every kind,
    /// integer and FP memory traffic of every width (doubles included)
    /// from either origin, FP arithmetic, the barriers, `%y` and `%fcc`
    /// traffic, and arbitrary decoded words.
    fn expand((kind, a, b, c, word, instrumentation): Spec) -> Tagged {
        let ops = AluOp::all();
        let fps = FpOp::all();
        let widths = [
            MemWidth::Word,
            MemWidth::UByte,
            MemWidth::SHalf,
            MemWidth::Double,
        ];
        let src2 = if c % 2 == 0 {
            Operand::Reg(int_reg(c / 2))
        } else {
            Operand::imm(i32::from(c))
        };
        let addr = Address::base_imm(int_reg(b), 4 * i32::from(c));
        let insn = match kind % 12 {
            0 | 1 => Instruction::Alu {
                op: ops[usize::from(c) % ops.len()],
                rs1: int_reg(a),
                src2,
                rd: int_reg(b),
            },
            2 => Instruction::Load {
                width: widths[usize::from(c % 4)],
                addr,
                rd: int_reg(a),
            },
            3 => Instruction::Store {
                width: widths[usize::from(c % 4)],
                src: int_reg(a),
                addr,
            },
            4 => Instruction::LoadFp {
                double: c % 2 == 0,
                addr,
                rd: fp_reg(a),
            },
            5 => Instruction::StoreFp {
                double: c % 2 == 0,
                src: fp_reg(a),
                addr,
            },
            6 => Instruction::Fp {
                op: fps[usize::from(c) % fps.len()],
                rs1: fp_reg(a),
                rs2: fp_reg(b),
                rd: fp_reg(a + b),
            },
            7 => Instruction::Sethi {
                imm22: word >> 10,
                rd: int_reg(a),
            },
            8 => match c % 3 {
                0 => Instruction::Save {
                    rs1: IntReg::SP,
                    src2: Operand::imm(-96),
                    rd: IntReg::SP,
                },
                1 => Instruction::Restore {
                    rs1: int_reg(a),
                    src2,
                    rd: int_reg(b),
                },
                _ => Instruction::Trap {
                    cond: Cond::A,
                    rs1: IntReg::G0,
                    src2: Operand::imm(1),
                },
            },
            9 => match c % 3 {
                0 => Instruction::RdY { rd: int_reg(a) },
                1 => Instruction::WrY {
                    rs1: int_reg(a),
                    src2,
                },
                _ => Instruction::FCmp {
                    double: a % 2 == 0,
                    rs1: fp_reg(a),
                    rs2: fp_reg(b),
                },
            },
            _ => Instruction::decode(word),
        };
        if instrumentation {
            Tagged::instrumentation(insn)
        } else {
            Tagged::original(insn)
        }
    }

    /// Random bodies with `len` instructions, expanded from
    /// [`Spec`]s: dense with dependences of every kind, on both sides
    /// of every memory rule.
    pub(crate) fn arb_body(len: std::ops::Range<usize>) -> impl Strategy<Value = Vec<Tagged>> {
        let spec = (
            0u8..12,
            0u8..8,
            0u8..8,
            0u8..64,
            any::<u32>(),
            any::<bool>(),
        );
        prop::collection::vec(spec, len).prop_map(|specs| specs.into_iter().map(expand).collect())
    }

    proptest! {
        #![proptest_config(ProptestConfig { cases: 24, ..ProptestConfig::default() })]

        /// The bitset-candidate construction equals the all-pairs
        /// oracle exactly — edge order, kinds and distances, and every
        /// view derived from them — on bodies of 1–200 instructions
        /// (one to four bitset words), both memory rules, all machines.
        #[test]
        fn build_prepared_matches_all_pairs(body in arb_body(1..201)) {
            let n = body.len();
            for model in MachineModel::shipped() {
                let prepared: Vec<PreparedInsn> =
                    body.iter().map(|t| model.prepare(&t.insn)).collect();
                for imi in [true, false] {
                    let g = DepGraph::build_prepared(&body, &prepared, imi);
                    let want = all_pairs_edges(&model, &body, imi);
                    let ctx = format!("{} imi={imi} n={n}", model.name());
                    prop_assert_eq!(&g.edges, &want, "{}", ctx);
                    prop_assert_eq!(g.len(), n);
                    for i in 0..n {
                        let preds = want.iter().filter(|e| e.to == i).count() as u32;
                        prop_assert_eq!(g.pred_counts()[i], preds, "{}", ctx);
                        let succs: Vec<&DepEdge> = g.succ_edges(i).collect();
                        let expect: Vec<&DepEdge> = want.iter().filter(|e| e.from == i).collect();
                        prop_assert_eq!(succs, expect, "{} node {}", ctx, i);
                    }
                    prop_assert_eq!(g.chain_to_end(), chain_to_end_of(n, &want), "{}", ctx);
                    prop_assert_eq!(g.load_shadowed(), load_shadowed_of(n, &want), "{}", ctx);
                }
            }
        }
    }

    fn orig(i: Instruction) -> Tagged {
        Tagged::original(i)
    }

    fn inst(i: Instruction) -> Tagged {
        Tagged::instrumentation(i)
    }

    fn add(rs1: IntReg, rd: IntReg) -> Instruction {
        Instruction::Alu {
            op: AluOp::Add,
            rs1,
            src2: Operand::imm(1),
            rd,
        }
    }

    fn ld(base: IntReg, rd: IntReg) -> Instruction {
        Instruction::Load {
            width: MemWidth::Word,
            addr: Address::base_imm(base, 0),
            rd,
        }
    }

    fn st(src: IntReg, base: IntReg) -> Instruction {
        Instruction::Store {
            width: MemWidth::Word,
            src,
            addr: Address::base_imm(base, 0),
        }
    }

    fn model() -> MachineModel {
        MachineModel::ultrasparc()
    }

    #[test]
    fn raw_edge_with_latency() {
        let body = vec![
            orig(add(IntReg::O0, IntReg::O1)),
            orig(add(IntReg::O1, IntReg::O2)),
        ];
        let g = DepGraph::build(&model(), &body, true);
        assert_eq!(g.edges.len(), 1);
        let e = g.edges[0];
        assert!(matches!(e.kind, DepKind::Raw(Resource::Int(r)) if r == IntReg::O1));
        assert_eq!(e.min_cycles, 1, "ALU forwards after one cycle");
    }

    #[test]
    fn load_use_latency_is_two() {
        let body = vec![
            orig(ld(IntReg::O0, IntReg::O1)),
            orig(add(IntReg::O1, IntReg::O2)),
        ];
        let g = DepGraph::build(&model(), &body, true);
        assert_eq!(g.edges[0].min_cycles, 2, "UltraSPARC load-use");
    }

    #[test]
    fn independent_instructions_have_no_edges() {
        let body = vec![
            orig(add(IntReg::O0, IntReg::O1)),
            orig(add(IntReg::O2, IntReg::O3)),
        ];
        let g = DepGraph::build(&model(), &body, true);
        assert!(g.edges.is_empty());
    }

    #[test]
    fn war_and_waw_edges() {
        // i0 reads %o1; i1 writes %o1 (WAR). i2 writes %o1 again (WAW).
        let body = vec![
            orig(add(IntReg::O1, IntReg::O2)),
            orig(add(IntReg::O3, IntReg::O1)),
            orig(add(IntReg::O4, IntReg::O1)),
        ];
        let g = DepGraph::build(&model(), &body, true);
        assert!(g
            .edges
            .iter()
            .any(|e| e.from == 0 && e.to == 1 && matches!(e.kind, DepKind::War(_))));
        assert!(g
            .edges
            .iter()
            .any(|e| e.from == 1 && e.to == 2 && matches!(e.kind, DepKind::Waw(_))));
    }

    #[test]
    fn original_memory_conflicts_conservatively() {
        // The paper: loads and stores from the original code are
        // assumed to access the same address.
        let body = vec![
            orig(st(IntReg::O1, IntReg::O0)),
            orig(ld(IntReg::O2, IntReg::O3)),
        ];
        let g = DepGraph::build(&model(), &body, true);
        assert!(g.edges.iter().any(|e| matches!(e.kind, DepKind::Memory)));
    }

    #[test]
    fn two_loads_never_conflict() {
        let body = vec![
            orig(ld(IntReg::O0, IntReg::O1)),
            orig(ld(IntReg::O2, IntReg::O3)),
        ];
        let g = DepGraph::build(&model(), &body, true);
        assert!(g.edges.iter().all(|e| !matches!(e.kind, DepKind::Memory)));
    }

    #[test]
    fn instrumentation_memory_independent_of_original() {
        // The paper: instrumentation loads/stores access a different
        // address from original ones, so they move freely.
        let body = vec![
            orig(st(IntReg::O1, IntReg::O0)),
            inst(ld(IntReg::G1, IntReg::G2)),
        ];
        let g = DepGraph::build(&model(), &body, true);
        assert!(
            g.edges.iter().all(|e| !matches!(e.kind, DepKind::Memory)),
            "no cross-domain memory edge: {:?}",
            g.edges
        );
        // But turning the option off restores full conservatism.
        let g = DepGraph::build(&model(), &body, false);
        assert!(g.edges.iter().any(|e| matches!(e.kind, DepKind::Memory)));
    }

    #[test]
    fn instrumentation_memory_conflicts_with_itself() {
        let body = vec![
            inst(ld(IntReg::G1, IntReg::G2)),
            inst(st(IntReg::G2, IntReg::G1)),
        ];
        let g = DepGraph::build(&model(), &body, true);
        assert!(g.edges.iter().any(|e| e.from == 0 && e.to == 1));
    }

    #[test]
    fn barriers_order_everything() {
        let save = Instruction::Save {
            rs1: IntReg::SP,
            src2: Operand::imm(-96),
            rd: IntReg::SP,
        };
        let body = vec![
            orig(add(IntReg::O0, IntReg::O1)),
            orig(save),
            orig(add(IntReg::O2, IntReg::O3)),
        ];
        let g = DepGraph::build(&model(), &body, true);
        assert!(g.depends(0, 1));
        assert!(g.depends(1, 2));
    }

    #[test]
    fn chain_to_end_accumulates_latencies() {
        // ld -> add -> add chain: 2 + 1 = 3 cycles from node 0 to end.
        let body = vec![
            orig(ld(IntReg::O0, IntReg::O1)),
            orig(add(IntReg::O1, IntReg::O2)),
            orig(add(IntReg::O2, IntReg::O3)),
        ];
        let g = DepGraph::build(&model(), &body, true);
        let cte = g.chain_to_end();
        assert_eq!(cte, vec![3, 1, 0]);
    }

    #[test]
    fn condition_codes_create_dependences() {
        let body = vec![
            orig(Instruction::cmp(IntReg::O0, Operand::imm(0))),
            orig(Instruction::Alu {
                op: AluOp::AddX,
                rs1: IntReg::O1,
                src2: Operand::imm(0),
                rd: IntReg::O2,
            }),
        ];
        let g = DepGraph::build(&model(), &body, true);
        assert!(g
            .edges
            .iter()
            .any(|e| matches!(e.kind, DepKind::Raw(Resource::Icc))));
    }

    #[test]
    fn pred_counts_match_edges() {
        let body = vec![
            orig(add(IntReg::O0, IntReg::O1)),
            orig(add(IntReg::O1, IntReg::O2)),
            orig(add(IntReg::O1, IntReg::O3)),
        ];
        let g = DepGraph::build(&model(), &body, true);
        assert_eq!(g.pred_counts()[0], 0);
        assert!(g.pred_counts()[1] >= 1);
        assert!(g.pred_counts()[2] >= 1);
        assert_eq!(g.len(), 3);
        assert!(!g.is_empty());
    }

    #[test]
    fn strongest_edge_wins_between_a_pair() {
        // Same pair has RAW (latency) and memory (order) reasons; the
        // recorded edge carries the larger distance.
        let body = vec![
            orig(ld(IntReg::O0, IntReg::O1)),
            orig(st(IntReg::O1, IntReg::O2)),
        ];
        let g = DepGraph::build(&model(), &body, true);
        let e: Vec<_> = g
            .edges
            .iter()
            .filter(|e| e.from == 0 && e.to == 1)
            .collect();
        assert_eq!(e.len(), 1, "one edge per pair");
        assert!(e[0].min_cycles >= 1);
    }
}
