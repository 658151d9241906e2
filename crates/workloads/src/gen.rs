//! The synthetic benchmark generator.
//!
//! Each benchmark is one `main` routine: a prologue, then an outer
//! loop whose body is a chain of basic blocks with per-benchmark
//! sizes and instruction mix, then an exit trap. Every chain block
//! executes exactly once per iteration (conditional branches target
//! the fall-through block, so both arms converge), which makes the
//! dynamic average block size equal to the static chain average —
//! calibrated to the paper's per-benchmark figures.

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

use eel_edit::Executable;
use eel_sparc::{Address, AluOp, Assembler, Cond, FpOp, FpReg, Instruction, IntReg, Operand};

use crate::compile::optimize_block;
use crate::{Benchmark, BuildOptions, GenShape, Suite};

/// Integer work registers the generator cycles through. `%g1`/`%g2`
/// stay free for instrumentation, `%l0`–`%l2` are the loop counter and
/// array bases, and `%sp`/`%o7` keep their conventional roles.
const INT_REGS: &[IntReg] = &[
    IntReg::O0,
    IntReg::O1,
    IntReg::O2,
    IntReg::O3,
    IntReg::O4,
    IntReg::O5,
    IntReg::L3,
    IntReg::L4,
    IntReg::L5,
    IntReg::L6,
    IntReg::L7,
    IntReg::I0,
    IntReg::I1,
    IntReg::I2,
    IntReg::I3,
];

const LOOP_COUNTER: IntReg = IntReg::L0;
const INT_BASE: IntReg = IntReg::L1;
const FP_BASE: IntReg = IntReg::L2;

/// Bytes of zero-initialized array data the programs touch.
const INT_ARRAY_BYTES: u32 = 4096;
const FP_ARRAY_BYTES: u32 = 8192;

struct BlockPlan {
    /// Straight-line body instructions (before any control tail).
    body: Vec<Instruction>,
    /// The control tail: `None` ⇒ conditional/unconditional branch to
    /// the next block is appended by the emitter.
    tail: Tail,
}

#[derive(Clone, Copy, PartialEq, Eq)]
enum Tail {
    /// A call to leaf routine `k` (control falls through on return).
    CallLeaf(usize),
    /// Conditional branch to the next block (both arms converge).
    /// With `annul` set, the delay slot executes only when taken,
    /// which is how real compiled code reaches dynamic block sizes
    /// near 2.0. With `skip` set (randomized-CFG shapes only), the
    /// taken arm targets the block *after* next, so the two arms
    /// diverge and the next block executes only on fall-through.
    CondToNext {
        /// The branch's annul bit.
        annul: bool,
        /// Target the block after next instead of the next block.
        skip: bool,
    },
    /// `ba` to the next block.
    BaToNext,
}

/// Generation state: tracks which registers were written recently so
/// dependence chains look like real code.
pub(crate) struct Gen {
    rng: StdRng,
    /// Recently defined integer registers (most recent last).
    recent: Vec<IntReg>,
    next_int: usize,
    next_fp: usize,
    fp_frac: f64,
    shape: GenShape,
}

impl Gen {
    pub(crate) fn new(seed: u64, fp_frac: f64, shape: GenShape) -> Gen {
        Gen {
            rng: StdRng::seed_from_u64(seed),
            recent: vec![IntReg::O0, IntReg::O1],
            next_int: 0,
            next_fp: 0,
            fp_frac,
            shape,
        }
    }

    fn pick_src(&mut self) -> IntReg {
        // Bias toward the most recent definition: real compiled code
        // is chain-dense, which keeps baseline slack (and therefore
        // hiding opportunity) realistic. The bias is the shape's
        // chain-density knob; 0.5 is the calibrated default.
        if self.rng.gen_bool(self.shape.chain_bias) {
            return *self.recent.last().expect("never empty");
        }
        let k = self.rng.gen_range(0..self.recent.len());
        self.recent[k]
    }

    fn pick_dst(&mut self) -> IntReg {
        let r = INT_REGS[self.next_int % INT_REGS.len()];
        self.next_int += 1;
        self.recent.push(r);
        if self.recent.len() > self.shape.live_window {
            self.recent.remove(0);
        }
        r
    }

    /// An instruction safe for any delay slot: plain ALU work that
    /// never touches the condition codes.
    fn delay_insn(&mut self) -> Instruction {
        let op = if self.rng.gen_bool(0.5) {
            AluOp::Add
        } else {
            AluOp::Xor
        };
        let rs1 = self.pick_src();
        Instruction::Alu {
            op,
            rs1,
            src2: Operand::imm(self.rng.gen_range(1..256)),
            rd: self.pick_dst(),
        }
    }

    /// An even FP register for double-precision work.
    fn pick_fp(&mut self) -> FpReg {
        let r = FpReg::new(((self.next_fp % 14) * 2) as u8);
        self.next_fp += 1;
        r
    }

    fn int_offset(&mut self) -> i32 {
        4 * self.rng.gen_range(0..(INT_ARRAY_BYTES / 4)) as i32 % 1024
    }

    fn fp_offset(&mut self) -> i32 {
        8 * self.rng.gen_range(0..(FP_ARRAY_BYTES / 8)) as i32 % 1024
    }

    /// One body instruction with the benchmark's mix.
    pub(crate) fn body_insn(&mut self) -> Instruction {
        if self.rng.gen_bool(self.fp_frac) {
            return self.fp_insn();
        }
        self.int_insn()
    }

    fn int_insn(&mut self) -> Instruction {
        match self.rng.gen_range(0..100) {
            // Loads and stores: ~30% of integer work.
            0..=19 => Instruction::Load {
                width: eel_sparc::MemWidth::Word,
                addr: Address::base_imm(INT_BASE, self.int_offset()),
                rd: self.pick_dst(),
            },
            20..=29 => Instruction::Store {
                width: eel_sparc::MemWidth::Word,
                src: self.pick_src(),
                addr: Address::base_imm(INT_BASE, self.int_offset()),
            },
            // cc-setting compares/tests: ~15%.
            30..=44 => {
                let rs1 = self.pick_src();
                let op = if self.rng.gen_bool(0.5) {
                    AluOp::SubCc
                } else {
                    AluOp::AndCc
                };
                Instruction::Alu {
                    op,
                    rs1,
                    src2: Operand::imm(self.rng.gen_range(0..64)),
                    rd: IntReg::G0,
                }
            }
            // sethi for address formation: ~5%.
            45..=49 => Instruction::Sethi {
                imm22: self.rng.gen_range(1..0x1000),
                rd: self.pick_dst(),
            },
            // Plain ALU: the rest.
            _ => {
                let op = *[
                    AluOp::Add,
                    AluOp::Add,
                    AluOp::Sub,
                    AluOp::And,
                    AluOp::Or,
                    AluOp::Xor,
                    AluOp::Sll,
                    AluOp::Sra,
                ]
                .get(self.rng.gen_range(0..8))
                .expect("in range");
                let rs1 = self.pick_src();
                let src2 = if self.rng.gen_bool(0.5) {
                    Operand::imm(self.rng.gen_range(1..1024))
                } else {
                    Operand::Reg(self.pick_src())
                };
                let shiftish = matches!(op, AluOp::Sll | AluOp::Sra);
                let src2 = if shiftish {
                    Operand::imm(self.rng.gen_range(1..31))
                } else {
                    src2
                };
                Instruction::Alu {
                    op,
                    rs1,
                    src2,
                    rd: self.pick_dst(),
                }
            }
        }
    }

    fn fp_insn(&mut self) -> Instruction {
        match self.rng.gen_range(0..100) {
            0..=24 => Instruction::LoadFp {
                double: true,
                addr: Address::base_imm(FP_BASE, self.fp_offset()),
                rd: self.pick_fp(),
            },
            25..=36 => Instruction::StoreFp {
                double: true,
                src: self.pick_fp(),
                addr: Address::base_imm(FP_BASE, self.fp_offset()),
            },
            37..=69 => {
                let (a, b, d) = (self.pick_fp(), self.pick_fp(), self.pick_fp());
                Instruction::Fp {
                    op: FpOp::FAddD,
                    rs1: a,
                    rs2: b,
                    rd: d,
                }
            }
            70..=94 => {
                let (a, b, d) = (self.pick_fp(), self.pick_fp(), self.pick_fp());
                Instruction::Fp {
                    op: FpOp::FMulD,
                    rs1: a,
                    rs2: b,
                    rd: d,
                }
            }
            _ => {
                let (a, b, d) = (self.pick_fp(), self.pick_fp(), self.pick_fp());
                Instruction::Fp {
                    op: FpOp::FSubD,
                    rs1: a,
                    rs2: b,
                    rd: d,
                }
            }
        }
    }
}

/// Splits `total` instructions into `count` block sizes, each at least
/// `min`, varying around the mean.
fn plan_sizes(rng: &mut StdRng, total: usize, count: usize, min: usize) -> Vec<usize> {
    assert!(count >= 1 && total >= count * min);
    let mean = total as f64 / count as f64;
    let mut sizes: Vec<usize> = (0..count)
        .map(|_| {
            let jitter = rng.gen_range(0.5..1.5);
            ((mean * jitter).round() as usize).max(min)
        })
        .collect();
    // Rebalance to hit the exact total.
    let mut sum: isize = sizes.iter().sum::<usize>() as isize;
    let target = total as isize;
    let mut k = 0;
    while sum != target {
        let i = k % count;
        if sum > target && sizes[i] > min {
            sizes[i] -= 1;
            sum -= 1;
        } else if sum < target {
            sizes[i] += 1;
            sum += 1;
        }
        k += 1;
    }
    sizes
}

/// Builds the benchmark into an executable image.
pub(crate) fn build(bench: &Benchmark, opts: &BuildOptions) -> Executable {
    let mut gen = Gen::new(bench.seed, bench.fp_fraction, bench.shape);

    // Plan the loop-body chain. The final loop-control block costs 3
    // instructions (subcc, bne, delay) and executes once per iteration,
    // so it participates in the average; plan the chain so that the
    // overall mean comes out at the target.
    let chain_blocks = bench.chain_blocks;
    let control_len = 3usize;
    // Annulled branches skip their delay slot when untaken (~half the
    // time), shrinking the dynamic size below the static size; plan
    // statically for that.
    let annul_prob = if bench.suite == Suite::Cint {
        0.35
    } else {
        0.10
    };
    let annul_correction = annul_prob * 0.5;
    let static_target = bench.target_block_size + annul_correction;
    // Integer codes make leaf calls (real SPEC95 is call-heavy); each
    // callee body is one extra block entered per iteration.
    let n_leaves = bench.leaf_calls;
    let entries = chain_blocks + 1 + n_leaves;
    let target_total = (static_target * entries as f64).round() as usize;
    let chain_total = target_total
        .saturating_sub(control_len)
        .max(chain_blocks * 2 + n_leaves * 3);
    let mut sizes = plan_sizes(&mut gen.rng, chain_total, chain_blocks + n_leaves, 2);
    // Callee blocks need room for `retl` + delay: at least 3.
    let leaf_sizes: Vec<usize> = sizes
        .split_off(chain_blocks)
        .iter()
        .map(|&s| s.max(3))
        .collect();

    // Generate each block: body + tail kind. A size-2 block is just a
    // branch plus its delay slot; larger blocks get size-2 bodies.
    let fp_heavy = bench.suite == Suite::Cfp;
    // Spread the call sites evenly through the chain.
    let call_sites: Vec<usize> = (0..n_leaves)
        .map(|k| (k + 1) * chain_blocks / (n_leaves + 1))
        .collect();
    let mut blocks: Vec<BlockPlan> = Vec::with_capacity(chain_blocks);
    for (bi, &size) in sizes.iter().enumerate() {
        // FP codes branch less: mostly `ba` chains; integer codes use
        // conditional branches on whatever the codes currently hold.
        let tail = if let Some(k) = call_sites.iter().position(|&s| s == bi) {
            Tail::CallLeaf(k)
        } else if fp_heavy && gen.rng.gen_bool(0.7) {
            Tail::BaToNext
        } else {
            // The skip decision is short-circuited on `skip_prob > 0`
            // so the default shape draws exactly the original RNG
            // sequence (golden snapshots pin the generated bytes).
            // The last chain block has no block-after-next to skip to.
            let skip = bench.shape.skip_prob > 0.0
                && bi + 2 <= chain_blocks
                && gen.rng.gen_bool(bench.shape.skip_prob);
            Tail::CondToNext {
                annul: gen.rng.gen_bool(annul_prob),
                skip,
            }
        };
        let body_len = size - 2;
        let mut body: Vec<Instruction> = (0..body_len).map(|_| gen.body_insn()).collect();
        if let Some(model) = &opts.optimize {
            body = optimize_block(model, body);
        }
        blocks.push(BlockPlan { body, tail });
    }
    // Leaf routine bodies (retl + delay take 2 of each planned size).
    let leaves: Vec<Vec<Instruction>> = leaf_sizes
        .iter()
        .map(|&size| {
            let mut body: Vec<Instruction> = (0..size - 2).map(|_| gen.body_insn()).collect();
            if let Some(model) = &opts.optimize {
                body = optimize_block(model, body);
            }
            body
        })
        .collect();

    // Emit the program.
    let mut a = Assembler::new();
    let iterations = opts.iterations.unwrap_or(bench.iterations);

    // Prologue: loop counter and array bases.
    a.set(iterations, LOOP_COUNTER);
    a.set(Executable::DEFAULT_DATA_BASE, INT_BASE);
    a.set(Executable::DEFAULT_DATA_BASE + INT_ARRAY_BYTES, FP_BASE);

    let outer = a.new_label();
    a.bind(outer);
    let mut labels: Vec<_> = (0..blocks.len()).map(|_| a.new_label()).collect();
    labels.push(a.new_label()); // the loop-control block
    let leaf_labels: Vec<_> = (0..leaves.len()).map(|_| a.new_label()).collect();

    for (bi, block) in blocks.iter().enumerate() {
        a.bind(labels[bi]);
        let next = labels[bi + 1];
        // Optimized code keeps its delay slots filled: the slot holds
        // freshly generated safe work, so every block is exactly its
        // planned size.
        let delay = gen.delay_insn();
        for insn in &block.body {
            a.push(*insn);
        }
        match block.tail {
            Tail::CondToNext { annul, skip } => {
                let cond = if gen.rng.gen_bool(0.5) {
                    Cond::Ne
                } else {
                    Cond::E
                };
                let target = if skip { labels[bi + 2] } else { next };
                if annul {
                    a.b_annul(cond, target);
                } else {
                    a.b(cond, target);
                }
            }
            Tail::BaToNext => {
                a.ba(next);
            }
            Tail::CallLeaf(k) => {
                a.call(leaf_labels[k]);
            }
        }
        a.push(delay);
    }

    // Loop control.
    a.bind(labels[blocks.len()]);
    a.subcc(LOOP_COUNTER, Operand::imm(1), LOOP_COUNTER);
    a.b(Cond::Ne, outer);
    a.nop();

    // Exit with a checksum-ish value in %o0.
    a.mov(Operand::Reg(IntReg::O0), IntReg::O0);
    a.ta(0);

    // Leaf routines: straight-line body, then `retl` with a filled
    // delay slot. Their start addresses become symbols so the CFG
    // sees them as routines.
    let mut symbols = vec![eel_edit::Symbol {
        name: "main".to_string(),
        addr: Executable::DEFAULT_TEXT_BASE,
    }];
    for (k, body) in leaves.iter().enumerate() {
        symbols.push(eel_edit::Symbol {
            name: format!("leaf{k}"),
            addr: Executable::DEFAULT_TEXT_BASE + 4 * a.len() as u32,
        });
        a.bind(leaf_labels[k]);
        for insn in body {
            a.push(*insn);
        }
        a.retl();
        a.push(gen.delay_insn());
    }

    let words: Vec<u32> = a
        .finish()
        .expect("generator emits well-formed labels")
        .iter()
        .map(|i| i.encode())
        .collect();
    let mut exe = Executable::new(
        Executable::DEFAULT_TEXT_BASE,
        words,
        Executable::DEFAULT_DATA_BASE,
        Vec::new(),
        0,
        Executable::DEFAULT_TEXT_BASE,
        symbols,
    );
    exe.reserve_bss(INT_ARRAY_BYTES + FP_ARRAY_BYTES);
    exe
}
