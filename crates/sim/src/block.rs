//! The simulation engine behind [`crate::run`]: flat functional replay
//! with block-memoized timing.
//!
//! The interpretive reference loop (`crate::reference`) re-decodes,
//! re-resolves, and re-times the same hot basic blocks millions of
//! times. This module does each of those once per *static* block and
//! replays the results:
//!
//! * **Block cache** — at the first execution of a straight-line
//!   region the builder decodes forward from the entry point to the
//!   first control transfer (or trap, undecodable word, text end, or
//!   length cap) and stores the decoded instructions, their
//!   model-resolved [`PreparedInsn`]s, and a flat table of lowered
//!   micro-ops for dispatch. Text is immutable during a run
//!   ([`SimError::TextWrite`]), so a built block never goes stale
//!   mid-run; across runs of *edited* executables the cache is simply
//!   rebuilt (it lives per run), and the timing memo below is keyed by
//!   content hash, exactly like the engine's artifact cache, so two
//!   identical blocks at different addresses — common in instrumented
//!   code — share one timing entry and an edited block can never
//!   replay a stale one.
//! * **Timing memo** — the pipeline effect of issuing a block depends
//!   only on the block's instructions and the *entry pipeline
//!   context* (live register availability and unit occupancy relative
//!   to the issue cycle — see [`PipelineState::context_key`]). The
//!   memo maps `(content hash, context id)` to the block's cycle and
//!   completion deltas and its *exit* context key; a hit replays the
//!   block's issue walk without touching the pipe, and only the next
//!   miss restores the last hit's exit key
//!   ([`PipelineState::restore_context`]). The context id is a hash
//!   chain advanced at every pipeline event (a replayed or walked
//!   block, an `advance`) that identifies the entry context without
//!   rescanning the scoreboard: it takes the hash of each block's exit
//!   key, which alone determines the pipe after it, so equal chains
//!   imply equal contexts. A hit reads a 24-byte entry record and
//!   costs a compare and a few adds inline in the block loop: each
//!   block (and fused delay slot) keeps a few hint ways from `(key,
//!   context id)` to entries, and only a hint miss probes the map or
//!   walks. Debug builds check every hit against the entry context it
//!   was walked from, in the one replay path every hit takes.
//! * **Batched I-cache updates** — fetch probes for a block are
//!   issued in program order in one batch at block entry (the
//!   resulting miss pattern folds into the timing-memo key, so
//!   penalties still land between the right issues on a memo walk).
//!   Hit/miss counts *and* cycles are identical to the
//!   per-instruction reference — the probe sequences are the same —
//!   which tests in `crate::run` pin on crafted and random traces.
//! * **D-cache misses in the memo key** — a block's straight-line ops
//!   run functionally *before* its timing walk, probing the D-cache in
//!   program order into a per-instruction load-miss mask that folds
//!   into the memo key like the I-cache mask; a walk adds each miss's
//!   latency right after the load issues. Timing reads no
//!   architectural state and the two caches are separate structures,
//!   so running the ops first changes nothing observable.
//!
//! Functional execution stays exact and per-instruction: every
//! retired instruction runs against architectural state, but as one of
//! the block's lowered ops ([`BlockOp`]) — no fetch, no decode, no
//! per-instruction profile counter (per-word execution and taken
//! counts are reconstructed from per-block execution, taken and
//! fused-slot counts at run end). Lowering resolves every register
//! operand to its slot in the [`Cpu`]'s working register file, which
//! holds the current window whatever the window depth, so a slot is
//! fixed for the life of the block and a `%g0` destination becomes the
//! discard slot. The hot opcodes — the
//! common integer ALU ops, `sethi`, word and FP-double memory ops with an
//! immediate offset, and `faddd`/`fsubd`/`fmuld` — get one op each and
//! own their semantics, pinned to [`Cpu::step_decoded`] shape by shape
//! by `every_lowered_op_matches_step_decoded`; the rare ones call the
//! shared `Cpu` helpers. Control transfers, traps and undecodable
//! words never lower: they end the block as its terminator
//! ([`TermOp`]). Delay slots (`npc != pc + 4`) and instruction-budget
//! boundaries fall back to single-stepping through `step_decoded`,
//! which shares the timing memo via one-instruction sequences.
//!
//! Stall attribution walks every sequence on the real pipe through
//! the recorder and never touches the memo (a replayed memo entry
//! cannot report its stall cycles). Functional-only runs skip fetch
//! probes, `prepare`, and timing altogether.

use std::collections::HashMap;
use std::hash::{BuildHasherDefault, Hasher};

use eel_edit::Executable;
use eel_pipeline::{MachineModel, PipelineState, PreparedInsn, StallRecorder};
use eel_sparc::{Address, AluOp, Cond, FCond, FpOp, FpReg, Instruction, IntReg, MemWidth, Operand};
use eel_telemetry::Sink;

use crate::cpu::{dest_slot, Cpu, Icc, Step};
use crate::error::SimError;
use crate::icache::{ICache, ICacheConfig};
use crate::memory::Memory;
use crate::run::{RunConfig, RunResult};

/// Longest straight-line block the builder will form; regions longer
/// than this are split into chained blocks.
const MAX_BLOCK_LEN: usize = 64;

const FNV_OFFSET: u64 = 0xcbf2_9ce4_8422_2325;
const FNV_PRIME: u64 = 0x0000_0100_0000_01b3;

/// fnv1a over a word slice — the block content hash, matching the
/// engine's artifact-cache construction.
fn fnv1a64(words: &[u32]) -> u64 {
    let mut h = FNV_OFFSET;
    for w in words {
        for b in w.to_le_bytes() {
            h = (h ^ u64::from(b)).wrapping_mul(FNV_PRIME);
        }
    }
    h
}

/// One fnv-style step of the context-id hash chain.
fn chain(h: u64, tag: u64, v: u64) -> u64 {
    let h = (h ^ tag).wrapping_mul(FNV_PRIME);
    (h ^ v).wrapping_mul(FNV_PRIME)
}

/// Context-chain event tags (arbitrary distinct constants).
const CTX_ADVANCE: u64 = 0x61;
const CTX_MISS: u64 = 0x6d;
const CTX_DMISS: u64 = 0x64;

/// A keyed fnv1a hasher for the timing-memo map: the keys are two
/// already well-mixed u64s, so SipHash would be pure overhead on the
/// hottest lookup in the simulator.
#[derive(Default)]
struct FnvHasher(u64);

impl Hasher for FnvHasher {
    fn write(&mut self, bytes: &[u8]) {
        let mut h = if self.0 == 0 { FNV_OFFSET } else { self.0 };
        for &b in bytes {
            h = (h ^ u64::from(b)).wrapping_mul(FNV_PRIME);
        }
        self.0 = h;
    }

    // The memo key is two u64s; one mix per word instead of eight
    // byte steps (this is the hottest hash in the simulator).
    fn write_u64(&mut self, v: u64) {
        let h = if self.0 == 0 { FNV_OFFSET } else { self.0 };
        self.0 = (h ^ v).wrapping_mul(FNV_PRIME);
    }

    fn finish(&self) -> u64 {
        self.0
    }
}

type FnvMap<K, V> = HashMap<K, V, BuildHasherDefault<FnvHasher>>;

/// A lowered straight-line instruction: one variant per hot opcode
/// shape, with its slots in the [`Cpu`]'s working register file fixed
/// at lowering, so replay is one flat match and each operand is one
/// index. A write to `%g0` targets the discard slot. The hot shapes own
/// their semantics here — non-`cc` ops compute no condition codes —
/// and the rare ones call the shared `Cpu` helpers.
#[derive(Debug, Clone, Copy)]
enum BlockOp {
    AddI {
        rs1: u8,
        imm: u32,
        rd: u8,
    },
    AddR {
        rs1: u8,
        rs2: u8,
        rd: u8,
    },
    SubI {
        rs1: u8,
        imm: u32,
        rd: u8,
    },
    SubR {
        rs1: u8,
        rs2: u8,
        rd: u8,
    },
    AndI {
        rs1: u8,
        imm: u32,
        rd: u8,
    },
    AndR {
        rs1: u8,
        rs2: u8,
        rd: u8,
    },
    OrI {
        rs1: u8,
        imm: u32,
        rd: u8,
    },
    OrR {
        rs1: u8,
        rs2: u8,
        rd: u8,
    },
    XorI {
        rs1: u8,
        imm: u32,
        rd: u8,
    },
    XorR {
        rs1: u8,
        rs2: u8,
        rd: u8,
    },
    SllI {
        rs1: u8,
        sh: u32,
        rd: u8,
    },
    SraI {
        rs1: u8,
        sh: u32,
        rd: u8,
    },
    SubCcI {
        rs1: u8,
        imm: u32,
        rd: u8,
    },
    AndCcI {
        rs1: u8,
        imm: u32,
        rd: u8,
    },
    Sethi {
        value: u32,
        rd: u8,
    },
    /// `ld [base + off], rd`.
    LdI {
        base: u8,
        off: u32,
        rd: u8,
    },
    /// `st src, [base + off]`.
    StI {
        src: u8,
        base: u8,
        off: u32,
    },
    /// `ldd [base + off], fd` (`fd` even).
    LddfI {
        base: u8,
        off: u32,
        fd: u8,
    },
    /// `std fs, [base + off]` (`fs` even).
    StdfI {
        fs: u8,
        base: u8,
        off: u32,
    },
    /// `faddd fs1, fs2, fd` (each the even register of its pair).
    FAddD {
        fs1: u8,
        fs2: u8,
        fd: u8,
    },
    FSubD {
        fs1: u8,
        fs2: u8,
        fd: u8,
    },
    FMulD {
        fs1: u8,
        fs2: u8,
        fd: u8,
    },
    // The rare shapes, through the shared `Cpu` helpers.
    Alu {
        op: AluOp,
        rs1: IntReg,
        src2: Operand,
        rd: IntReg,
    },
    Load {
        width: MemWidth,
        addr: Address,
        rd: IntReg,
    },
    Store {
        width: MemWidth,
        src: IntReg,
        addr: Address,
    },
    LoadFp {
        double: bool,
        addr: Address,
        rd: FpReg,
    },
    StoreFp {
        double: bool,
        src: FpReg,
        addr: Address,
    },
    Fp {
        op: FpOp,
        rs1: FpReg,
        rs2: FpReg,
        rd: FpReg,
    },
    FCmp {
        double: bool,
        rs1: FpReg,
        rs2: FpReg,
    },
    Save {
        rs1: IntReg,
        src2: Operand,
        rd: IntReg,
    },
    Restore {
        rs1: IntReg,
        src2: Operand,
        rd: IntReg,
    },
    RdY {
        rd: IntReg,
    },
    WrY {
        rs1: IntReg,
        src2: Operand,
    },
}

/// Lowers a straight-line instruction; `None` for a control transfer,
/// trap, or undecodable word, which only ever end a block.
fn lower(insn: &Instruction) -> Option<BlockOp> {
    let slot = |r: IntReg| r.number();
    let dest = |r: IntReg| dest_slot(r) as u8;
    let even = |r: FpReg| r.number().is_multiple_of(2);
    Some(match *insn {
        Instruction::Alu { op, rs1, src2, rd } => {
            let generic = BlockOp::Alu { op, rs1, src2, rd };
            let (rs1, rd) = (slot(rs1), dest(rd));
            match src2 {
                Operand::Imm(v) => {
                    let imm = i32::from(v) as u32;
                    let sh = imm & 31;
                    match op {
                        AluOp::Add => BlockOp::AddI { rs1, imm, rd },
                        AluOp::Sub => BlockOp::SubI { rs1, imm, rd },
                        AluOp::And => BlockOp::AndI { rs1, imm, rd },
                        AluOp::Or => BlockOp::OrI { rs1, imm, rd },
                        AluOp::Xor => BlockOp::XorI { rs1, imm, rd },
                        AluOp::Sll => BlockOp::SllI { rs1, sh, rd },
                        AluOp::Sra => BlockOp::SraI { rs1, sh, rd },
                        AluOp::SubCc => BlockOp::SubCcI { rs1, imm, rd },
                        AluOp::AndCc => BlockOp::AndCcI { rs1, imm, rd },
                        _ => generic,
                    }
                }
                Operand::Reg(rs2) => {
                    let rs2 = slot(rs2);
                    match op {
                        AluOp::Add => BlockOp::AddR { rs1, rs2, rd },
                        AluOp::Sub => BlockOp::SubR { rs1, rs2, rd },
                        AluOp::And => BlockOp::AndR { rs1, rs2, rd },
                        AluOp::Or => BlockOp::OrR { rs1, rs2, rd },
                        AluOp::Xor => BlockOp::XorR { rs1, rs2, rd },
                        _ => generic,
                    }
                }
            }
        }
        Instruction::Sethi { imm22, rd } => BlockOp::Sethi {
            value: imm22 << 10,
            rd: dest(rd),
        },
        Instruction::Load {
            width: MemWidth::Word,
            addr:
                Address {
                    base,
                    offset: Operand::Imm(v),
                },
            rd,
        } => BlockOp::LdI {
            base: slot(base),
            off: i32::from(v) as u32,
            rd: dest(rd),
        },
        Instruction::Load { width, addr, rd } => BlockOp::Load { width, addr, rd },
        Instruction::Store {
            width: MemWidth::Word,
            src,
            addr:
                Address {
                    base,
                    offset: Operand::Imm(v),
                },
        } => BlockOp::StI {
            src: slot(src),
            base: slot(base),
            off: i32::from(v) as u32,
        },
        Instruction::Store { width, src, addr } => BlockOp::Store { width, src, addr },
        Instruction::LoadFp {
            double: true,
            addr:
                Address {
                    base,
                    offset: Operand::Imm(v),
                },
            rd,
        } if even(rd) => BlockOp::LddfI {
            base: slot(base),
            off: i32::from(v) as u32,
            fd: rd.number(),
        },
        Instruction::LoadFp { double, addr, rd } => BlockOp::LoadFp { double, addr, rd },
        Instruction::StoreFp {
            double: true,
            src,
            addr:
                Address {
                    base,
                    offset: Operand::Imm(v),
                },
        } if even(src) => BlockOp::StdfI {
            fs: src.number(),
            base: slot(base),
            off: i32::from(v) as u32,
        },
        Instruction::StoreFp { double, src, addr } => BlockOp::StoreFp { double, src, addr },
        Instruction::Fp {
            op: op @ (FpOp::FAddD | FpOp::FSubD | FpOp::FMulD),
            rs1,
            rs2,
            rd,
        } => {
            // Double operands name their pair by its even register.
            let (fs1, fs2, fd) = (rs1.number() & !1, rs2.number() & !1, rd.number() & !1);
            match op {
                FpOp::FAddD => BlockOp::FAddD { fs1, fs2, fd },
                FpOp::FSubD => BlockOp::FSubD { fs1, fs2, fd },
                _ => BlockOp::FMulD { fs1, fs2, fd },
            }
        }
        Instruction::Fp { op, rs1, rs2, rd } => BlockOp::Fp { op, rs1, rs2, rd },
        Instruction::FCmp { double, rs1, rs2 } => BlockOp::FCmp { double, rs1, rs2 },
        Instruction::Save { rs1, src2, rd } => BlockOp::Save { rs1, src2, rd },
        Instruction::Restore { rs1, src2, rd } => BlockOp::Restore { rs1, src2, rd },
        Instruction::RdY { rd } => BlockOp::RdY { rd },
        Instruction::WrY { rs1, src2 } => BlockOp::WrY { rs1, src2 },
        Instruction::Branch { .. }
        | Instruction::FBranch { .. }
        | Instruction::Call { .. }
        | Instruction::Jmpl { .. }
        | Instruction::Trap { .. }
        | Instruction::Unknown(_) => return None,
    })
}

/// The block terminator, lowered for direct control-flow dispatch.
/// Branch targets are absolute (blocks are cached per address).
#[derive(Debug, Clone, Copy)]
enum TermOp {
    Branch {
        cond: Cond,
        annul: bool,
        uncond: bool,
        target: u32,
    },
    FBranch {
        cond: FCond,
        annul: bool,
        uncond: bool,
        target: u32,
    },
    Call {
        target: u32,
    },
    /// A length-capped block's last instruction is straight-line and
    /// already ran as an op: fall through to the next word.
    Fallthrough,
    /// `jmpl`, traps, undecodable words: interpret generically.
    Generic,
}

/// Ways in the per-block memo shortcut (see [`Block::hints`]).
const HINT_WAYS: usize = 4;

/// A per-block memo shortcut: `(memo key, entry context id, memo
/// entry)` ways, indexed by the context id's low bits.
type Hints = [(u64, u64, u32); HINT_WAYS];

/// The delay slot after a block's terminator, precached at build time
/// so a taken control transfer can execute its slot inline — without
/// a fetch, decode-cache probe, or trip around the dispatch loop.
/// Only built for straight-line slot instructions (a control transfer,
/// trap, or undecodable word in a delay slot falls back to
/// single-stepping).
struct SlotInfo {
    insn: Instruction,
    /// Model-resolved operands (`None` on functional-only runs).
    prepared: Option<PreparedInsn>,
    op: BlockOp,
    /// fnv1a of the slot word — the same memo key a one-instruction
    /// single-step would use, so fused and stepped executions share
    /// memo entries.
    content: u64,
    addr: u32,
    is_mem: bool,
    /// I-cache fill generation of the last hitting probe, as
    /// [`Block::probe_gen`].
    probe_gen: u64,
    /// Memo shortcut, as [`Block::hints`].
    hints: Hints,
}

/// A built basic block: one decode/`prepare`/lowering walk, reused by
/// every dynamic execution entering at `start`.
struct Block {
    /// First text-word index.
    start: usize,
    /// Decoded instructions; the terminator is last.
    insns: Vec<Instruction>,
    /// Model-resolved operands, parallel to `insns` (empty on
    /// functional-only runs).
    prepared: Vec<PreparedInsn>,
    /// The lowered straight-line instructions, parallel to `insns`:
    /// every instruction but a control-transfer, trap, or undecodable
    /// terminator, which [`Block::term`] handles.
    ops: Vec<BlockOp>,
    /// The lowered terminator.
    term: TermOp,
    /// The precached delay slot, when fusable.
    slot: Option<Box<SlotInfo>>,
    /// fnv1a of the block's words — the timing-memo key prefix.
    content: u64,
    /// Loads + stores in the block.
    mem_ops: u64,
    /// Completed executions, expanded into per-word counts at run end.
    execs: u64,
    /// Taken terminator executions, added to the terminator word's
    /// taken count at run end.
    taken: u64,
    /// Fused delay-slot executions, added to the slot word's count at
    /// run end.
    slot_execs: u64,
    /// I-cache fill generation as of this block's last all-hit probe
    /// (`u64::MAX` = none): while the generation is unchanged no tag
    /// can have been evicted, so a re-probe would hit on every word
    /// and is skipped.
    probe_gen: u64,
    /// A small direct-mapped cache of `(memo key, entry context id,
    /// memo entry)` from recent executions, indexed by the context
    /// id's low bits — a shortcut past the memo map for steady-state
    /// loops whose blocks alternate between a few entry contexts
    /// (call sites, loop phases). A matching way is replayed inline
    /// ([`Timer::time_hinted`]).
    hints: Hints,
}

const NO_ENTRY: u32 = u32::MAX;

fn build_block(
    mem: &Memory,
    text_base: u32,
    text_len: usize,
    start: usize,
    model: Option<&MachineModel>,
) -> Block {
    let mut words = Vec::new();
    let mut insns = Vec::new();
    let mut ops = Vec::new();
    let mut at = start;
    loop {
        let word = mem
            .fetch(text_base + 4 * at as u32)
            .expect("block builder stays inside the text segment");
        let insn = Instruction::decode(word);
        words.push(word);
        insns.push(insn);
        // Control transfers, traps, and undecodable words (which fault
        // like the trap they are) end the block; the timing walk still
        // issues them first, exactly as the reference loop does.
        match lower(&insn) {
            Some(op) => ops.push(op),
            None => break,
        }
        at += 1;
        if insns.len() == MAX_BLOCK_LEN || at >= text_len {
            break;
        }
    }
    let n = insns.len();
    let prepared = model.map_or_else(Vec::new, |m| insns.iter().map(|i| m.prepare(i)).collect());
    let term_addr = text_base + 4 * (start + n - 1) as u32;
    let term = match insns[n - 1] {
        _ if ops.len() == n => TermOp::Fallthrough,
        Instruction::Branch { cond, annul, disp } => TermOp::Branch {
            cond,
            annul,
            uncond: cond == Cond::A,
            target: term_addr.wrapping_add((disp as i64 * 4) as u32),
        },
        Instruction::FBranch { cond, annul, disp } => TermOp::FBranch {
            cond,
            annul,
            uncond: cond == FCond::A,
            target: term_addr.wrapping_add((disp as i64 * 4) as u32),
        },
        Instruction::Call { disp } => TermOp::Call {
            target: term_addr.wrapping_add((disp as i64 * 4) as u32),
        },
        _ => TermOp::Generic,
    };
    let slot = (start + n < text_len)
        .then(|| {
            let addr = text_base + 4 * (start + n) as u32;
            let word = mem
                .fetch(addr)
                .expect("slot address is inside the text segment");
            let insn = Instruction::decode(word);
            lower(&insn).map(|op| {
                Box::new(SlotInfo {
                    prepared: model.map(|m| m.prepare(&insn)),
                    op,
                    content: fnv1a64(&[word]),
                    addr,
                    is_mem: insn.is_mem(),
                    insn,
                    probe_gen: u64::MAX,
                    hints: [(0, 0, NO_ENTRY); HINT_WAYS],
                })
            })
        })
        .flatten();
    Block {
        start,
        content: fnv1a64(&words),
        mem_ops: insns.iter().filter(|i| i.is_mem()).count() as u64,
        prepared,
        ops,
        term,
        slot,
        insns,
        execs: 0,
        taken: 0,
        slot_execs: 0,
        probe_gen: u64::MAX,
        hints: [(0, 0, NO_ENTRY); HINT_WAYS],
    }
}

/// What a memo hit reads: the sequence's issue-cycle and completion
/// deltas from its entry cycle, and the context id of the pipe after
/// it, the hash of its exit context key. 24 bytes, kept apart from the
/// exit key itself, which only materialization reads.
#[derive(Clone, Copy)]
struct MemoEntry {
    cycles: u64,
    completes: u64,
    exit_id: u64,
}

/// Context keys laid end to end in one buffer: key `i` is
/// `words[ends[i - 1]..ends[i]]`, starting at 0 for the first.
#[derive(Default)]
struct Keys {
    words: Vec<u32>,
    ends: Vec<usize>,
}

impl Keys {
    /// Appends `pipe`'s context key, built in `scratch`, and returns it.
    fn push(&mut self, pipe: &PipelineState, scratch: &mut Vec<u32>) -> &[u32] {
        pipe.context_key(scratch);
        self.words.extend_from_slice(scratch);
        self.ends.push(self.words.len());
        &self.words[self.words.len() - scratch.len()..]
    }

    fn get(&self, i: u32) -> &[u32] {
        let i = i as usize;
        &self.words[if i == 0 { 0 } else { self.ends[i - 1] }..self.ends[i]]
    }
}

/// The timing memo: `(memo key, entry context id)` → what the sequence
/// did from that context. Entries are append-only per run.
#[derive(Default)]
struct TimingMemo {
    map: FnvMap<(u64, u64), u32>,
    /// Per entry, what a hit replays.
    entries: Vec<MemoEntry>,
    /// Per entry, the [`PipelineState::context_key`] it leaves the pipe
    /// in, which materialization restores.
    exit_keys: Keys,
    /// Per entry, the context key it was walked from, kept in debug
    /// builds to verify every memo hit against.
    #[cfg(debug_assertions)]
    entry_keys: Keys,
    hits: u64,
    misses: u64,
}

/// One execution of a straight-line sequence, as the timing walk sees
/// it.
struct Seq<'s> {
    insns: &'s [Instruction],
    prepared: &'s [PreparedInsn],
    /// Text-word index of `insns[0]`: the stall-attribution label of
    /// instruction `i` is `first_word + i`.
    first_word: usize,
    /// I-cache misses, a bit per instruction: the penalty lands before
    /// its issue.
    imiss: u64,
    /// D-cache load misses, a bit per instruction: the extra latency
    /// lands right after its issue.
    dmiss: u64,
}

/// The timing-memo key of one execution: the content hash with its
/// I-cache and D-cache miss masks (a bit per instruction) folded in, so
/// each miss pattern has its own entries.
#[inline(always)]
fn memo_key(content: u64, imiss: u64, dmiss: u64) -> u64 {
    let key = if imiss == 0 {
        content
    } else {
        chain(content, CTX_MISS, imiss)
    };
    if dmiss == 0 {
        key
    } else {
        chain(key, CTX_DMISS, dmiss)
    }
}

/// Probes the D-cache for `insn`'s data access, if any, while the
/// registers still hold their pre-execution values. Returns whether it
/// was a load that missed: stores probe and fill, but delay nothing.
#[inline(always)]
fn load_missed(cache: &mut ICache, cpu: &Cpu, insn: &Instruction) -> bool {
    insn.mem_address()
        .is_some_and(|a| !cache.access(cpu.ea(a)) && insn.is_load())
}

/// The timing side of a run: absent on functional-only runs.
struct Timer<'a> {
    model: &'a MachineModel,
    pipe: PipelineState,
    icache: Option<ICache>,
    dcache: Option<ICache>,
    /// Present when stall attribution was requested.
    recorder: Option<StallRecorder>,
    memo: TimingMemo,
    /// The pipeline-context hash chain (see module docs).
    ctx: u64,
    /// Deferred materialization: on a memo hit nothing is written to
    /// the pipe — the hit's entry index is parked here, and only the
    /// *last* entry of a hit chain is materialized (its exit key alone
    /// determines the pipe), when a miss needs a real pipe to issue
    /// against. `None` means the pipe is current.
    pending: Option<u32>,
    /// What [`PipelineState::cycle`] would read if `pending` were
    /// materialized; equal to it when `pending` is `None`.
    virt_cycle: u64,
    /// Advance cycles accumulated since the pending entry's exit.
    trail_advance: u64,
    /// A miss's context keys, before they are copied into the memo.
    key_scratch: Vec<u32>,
    last_complete: u64,
    taken_penalty: u64,
}

impl Timer<'_> {
    /// Advances the issue point and folds the advance into the
    /// context chain. While materialization is deferred the advance is
    /// only recorded; materialization replays it.
    #[inline(always)]
    fn advance_pipe(&mut self, cycles: u64) {
        if cycles > 0 {
            self.virt_cycle += cycles;
            if self.pending.is_some() {
                self.trail_advance += cycles;
            } else {
                self.pipe.advance(cycles);
            }
            self.ctx = chain(self.ctx, CTX_ADVANCE, cycles);
        }
    }

    /// Brings the pipe up to date with the virtual timing position:
    /// restores the pending entry's exit key at its exit cycle and
    /// replays any advances recorded since. No-op when nothing is
    /// deferred.
    fn materialize(&mut self) {
        if let Some(i) = self.pending.take() {
            let exit = self.virt_cycle - self.trail_advance;
            debug_assert!(exit >= self.pipe.cycle(), "materialization moves forward");
            self.pipe.restore_context(self.memo.exit_keys.get(i), exit);
            if self.trail_advance > 0 {
                self.pipe.advance(self.trail_advance);
            }
            self.trail_advance = 0;
        }
        debug_assert_eq!(self.virt_cycle, self.pipe.cycle());
    }

    /// Fetch-probes one instruction outside a block (a single step or
    /// a fused delay slot), charging a miss as a pipeline advance.
    /// `probe_gen` is the caller's all-hit skip state, as
    /// [`Block::probe_gen`].
    #[inline(always)]
    fn fetch_one(&mut self, addr: u32, probe_gen: &mut u64) {
        let Some(cache) = self.icache.as_mut() else {
            return;
        };
        if *probe_gen == cache.generation() {
            cache.record_hits(1);
            return;
        }
        let hit = cache.access(addr);
        *probe_gen = cache.generation();
        if !hit {
            let penalty = u64::from(cache.penalty());
            self.advance_pipe(penalty);
        }
    }

    /// Issues `seq` on the real pipe in reference order — each I-cache
    /// miss penalty before its instruction's issue, each D-cache miss
    /// latency right after — classifying and labeling every issue when
    /// attributing. Returns the latest completion cycle.
    fn walk(&mut self, seq: &Seq) -> u64 {
        let penalty = |c: &Option<ICache>| c.as_ref().map_or(0, |c| u64::from(c.penalty()));
        let (ipen, dpen) = (penalty(&self.icache), penalty(&self.dcache));
        let mut completes = 0u64;
        for (i, (insn, p)) in seq.insns.iter().zip(seq.prepared).enumerate() {
            if seq.imiss & (1u64 << i) != 0 {
                self.pipe.advance(ipen);
            }
            let info = match self.recorder.as_mut() {
                Some(rec) => {
                    let info = self.pipe.issue_with(self.model, insn, p, rec);
                    rec.note_issue((seq.first_word + i) as u32, insn);
                    info
                }
                None => self.pipe.issue_prepared(self.model, insn, p),
            };
            if seq.dmiss & (1u64 << i) != 0 {
                self.pipe.add_result_latency(insn, dpen);
            }
            completes = completes.max(info.completes);
        }
        completes
    }

    /// Applies memo entry `i` as a hit. Nothing touches the pipe: the
    /// completion bound, the virtual cycle and the chain all come from
    /// the compact entry, and the entry's exit key alone determines the
    /// pipe after it — so the entry is parked in `pending`, and if the
    /// next event hits too its exit key is never restored at all. The
    /// one hit path, inline or through the map.
    #[inline(always)]
    fn replay(&mut self, i: u32) {
        // Debug builds keep the pipe current at every event and check
        // every hit against the entry context it was walked from (this
        // also exercises `restore_context` on every hit).
        #[cfg(debug_assertions)]
        {
            self.materialize();
            debug_assert!(
                self.pipe.matches_context(self.memo.entry_keys.get(i)),
                "context chain aliased two distinct pipeline contexts"
            );
        }
        let e = self.memo.entries[i as usize];
        self.last_complete = self.last_complete.max(self.virt_cycle + e.completes);
        self.virt_cycle += e.cycles;
        self.trail_advance = 0;
        self.pending = Some(i);
        self.ctx = e.exit_id;
        self.memo.hits += 1;
        #[cfg(debug_assertions)]
        self.materialize();
    }

    /// Times one execution of a block or fused slot keyed `key`
    /// ([`memo_key`]): a hint way matching `(key, ctx)` replays its
    /// entry inline; anything else builds the sequence and goes
    /// through [`Self::time_sequence`], refreshing the way.
    #[inline(always)]
    fn time_hinted<'s>(&mut self, hints: &mut Hints, key: u64, seq: impl FnOnce() -> Seq<'s>) {
        let ctx = self.ctx;
        let way = &mut hints[(ctx as usize) & (HINT_WAYS - 1)];
        if way.0 == key && way.1 == ctx && way.2 != NO_ENTRY {
            self.replay(way.2);
        } else {
            *way = (key, ctx, self.time_sequence(key, &seq()));
        }
    }

    /// Times an instruction sequence past the hint ways: replays the
    /// memo entry for `(key, ctx)` if the map has one, or walks the
    /// sequence once and records it. `key` must be the sequence's
    /// [`memo_key`] so replay stays cycle-exact. Updates
    /// `last_complete` and the context chain; returns the memo entry
    /// index ([`NO_ENTRY`] when attributing).
    #[inline(never)]
    fn time_sequence(&mut self, key: u64, seq: &Seq) -> u32 {
        if self.recorder.is_some() {
            // Attribution classifies every stall cycle, which a
            // replayed memo entry cannot report: walk the real pipe
            // and leave the memo alone.
            let completes = self.walk(seq);
            self.last_complete = self.last_complete.max(completes);
            self.virt_cycle = self.pipe.cycle();
            return NO_ENTRY;
        }
        if let Some(&i) = self.memo.map.get(&(key, self.ctx)) {
            self.replay(i);
            return i;
        }
        self.materialize();
        self.memo.misses += 1;
        // The canonical entry context later hits are checked against.
        #[cfg(debug_assertions)]
        self.memo.entry_keys.push(&self.pipe, &mut self.key_scratch);
        let entry_cycle = self.pipe.cycle();
        let entry_ctx = self.ctx;
        let completes = self.walk(seq);
        self.last_complete = self.last_complete.max(completes);
        let i = self.memo.entries.len() as u32;
        // The exit key alone determines the pipe after the walk, so
        // the exit id is its hash — distinct executions converging on
        // the same exit context converge the chain, which is what lets
        // steady-state loops hit.
        let exit_id = fnv1a64(self.memo.exit_keys.push(&self.pipe, &mut self.key_scratch));
        self.memo.entries.push(MemoEntry {
            cycles: self.pipe.cycle() - entry_cycle,
            completes: completes.saturating_sub(entry_cycle),
            exit_id,
        });
        self.memo.map.insert((key, entry_ctx), i);
        self.ctx = exit_id;
        self.virt_cycle = self.pipe.cycle();
        i
    }

    /// Charges a retired control transfer's taken-transfer penalty.
    #[inline(always)]
    fn retire_cti(&mut self, taken: bool) {
        if taken {
            self.advance_pipe(self.taken_penalty);
        }
    }
}

/// Everything a run threads through its loop.
struct Engine<'a> {
    mem: Memory,
    cpu: Cpu,
    timer: Option<Timer<'a>>,
    /// Per-word counts of single steps; blocks keep their own counts
    /// and add them at run end.
    pc_counts: Vec<u64>,
    /// Per-word taken counts of single steps, likewise.
    taken_counts: Vec<u64>,
    instructions: u64,
    mem_ops: u64,
    builds: u64,
    text_base: u32,
    max_instructions: u64,
}

impl Engine<'_> {
    /// Executes one instruction on the per-instruction path — delay
    /// slots, out-of-text program counters (which fault here exactly
    /// as in the reference), and the tail of the instruction budget.
    /// Returns the exit code if the program finished.
    fn step_one(&mut self) -> Result<Option<u32>, SimError> {
        if self.instructions >= self.max_instructions {
            return Err(SimError::InstructionLimit {
                limit: self.max_instructions,
                retired: self.instructions,
            });
        }
        let pc = self.cpu.pc;
        let word = self.mem.fetch(pc)?;
        let word_idx = ((pc - self.text_base) / 4) as usize;
        self.pc_counts[word_idx] += 1;
        let insn = Instruction::decode(word);
        if let Some(t) = self.timer.as_mut() {
            // No all-hit skip state for a single step: always probe.
            let mut probe_gen = u64::MAX;
            t.fetch_one(pc, &mut probe_gen);
            // A single instruction is a one-element sequence through
            // the same memo (its key is the word's own content hash,
            // so it shares entries with one-instruction blocks and
            // fused delay slots).
            let dmiss = t
                .dcache
                .as_mut()
                .is_some_and(|c| load_missed(c, &self.cpu, &insn));
            let seq = Seq {
                insns: &[insn],
                prepared: &[t.model.prepare(&insn)],
                first_word: word_idx,
                imiss: 0,
                dmiss: u64::from(dmiss),
            };
            t.time_sequence(memo_key(fnv1a64(&[word]), 0, seq.dmiss), &seq);
        }
        if insn.is_mem() {
            self.mem_ops += 1;
        }
        let step = self.cpu.step_decoded(&mut self.mem, &insn)?;
        self.instructions += 1;
        match step {
            Step::Continue { taken_cti } => {
                if let Some(t) = self.timer.as_mut() {
                    t.retire_cti(taken_cti);
                }
                if taken_cti {
                    self.taken_counts[word_idx] += 1;
                }
                Ok(None)
            }
            Step::Exit(code) => Ok(Some(code)),
        }
    }

    /// Executes one full pass over a built block: flat functional
    /// replay (probing the D-cache), batched I-cache probes, memoized
    /// timing, and exit-edge bookkeeping. The caller guarantees
    /// `cpu.pc` is the block's entry and `cpu.npc == pc + 4`.
    #[inline(always)]
    fn exec_block(&mut self, block: &mut Block) -> Result<Option<u32>, SimError> {
        let n = block.insns.len();
        let entry_pc = self.cpu.pc;

        // Functional replay of the straight-line ops: one flat match
        // per op over the working register file. pc/npc are not
        // maintained per op — an op's pc is recomputed only for fault
        // payloads, and the architectural pc is materialized once at
        // the terminator. It runs before the timing walk so the
        // D-cache can be probed with each op's pre-execution
        // registers; a fault aborts the run either way.
        let (cpu, mem) = (&mut self.cpu, &mut self.mem);
        let mut dmiss = 0u64;
        match self.timer.as_mut().and_then(|t| t.dcache.as_mut()) {
            None => {
                for (i, &op) in block.ops.iter().enumerate() {
                    exec_op(cpu, mem, op, entry_pc.wrapping_add(4 * i as u32))?;
                }
            }
            Some(dcache) => {
                for (i, (&op, insn)) in block.ops.iter().zip(&block.insns).enumerate() {
                    if load_missed(dcache, cpu, insn) {
                        dmiss |= 1u64 << i;
                    }
                    exec_op(cpu, mem, op, entry_pc.wrapping_add(4 * i as u32))?;
                }
            }
        }

        if let Some(t) = self.timer.as_mut() {
            let imiss = t
                .icache
                .as_mut()
                .map_or(0, |c| probe_block(c, block, entry_pc));
            let key = memo_key(block.content, imiss, dmiss);
            t.time_hinted(&mut block.hints, key, || Seq {
                insns: &block.insns,
                prepared: &block.prepared,
                first_word: block.start,
                imiss,
                dmiss,
            });
        }

        let term_pc = entry_pc.wrapping_add(4 * (n as u32 - 1));
        let npc = term_pc.wrapping_add(4);
        // Specialized terminators: control flow through the shared
        // [`crate::cpu::branch_flow`] with the build-time absolute
        // target, skipping the generic interpreter. `jmpl`, traps, and
        // undecodable words stay generic (and exits only come from
        // there); a length-capped block just falls through.
        let taken_cti = match block.term {
            TermOp::Branch {
                cond,
                annul,
                uncond,
                target,
            } => {
                let taken = self.cpu.cond(cond);
                let (p, np) = crate::cpu::branch_flow(npc, taken, annul, uncond, target);
                self.cpu.pc = p;
                self.cpu.npc = np;
                taken
            }
            TermOp::FBranch {
                cond,
                annul,
                uncond,
                target,
            } => {
                let taken = self.cpu.fcond(cond);
                let (p, np) = crate::cpu::branch_flow(npc, taken, annul, uncond, target);
                self.cpu.pc = p;
                self.cpu.npc = np;
                taken
            }
            TermOp::Call { target } => {
                self.cpu.set_reg(IntReg::O7, term_pc);
                self.cpu.pc = npc;
                self.cpu.npc = target;
                true
            }
            TermOp::Fallthrough => {
                self.cpu.pc = npc;
                self.cpu.npc = npc.wrapping_add(4);
                false
            }
            TermOp::Generic => {
                self.cpu.pc = term_pc;
                self.cpu.npc = npc;
                let step = self.cpu.step_decoded(&mut self.mem, &block.insns[n - 1])?;
                match step {
                    Step::Exit(code) => {
                        self.instructions += n as u64;
                        self.mem_ops += block.mem_ops;
                        block.execs += 1;
                        return Ok(Some(code));
                    }
                    Step::Continue { taken_cti } => taken_cti,
                }
            }
        };
        self.instructions += n as u64;
        self.mem_ops += block.mem_ops;
        block.execs += 1;
        if let Some(t) = self.timer.as_mut() {
            t.retire_cti(taken_cti);
        }
        if taken_cti {
            block.taken += 1;
            // Fused delay slot: a taken transfer leaves `pc` at the
            // slot with a non-sequential `npc` — normally a trip
            // through the single-step path. With the slot precached,
            // execute it inline: the I-cache and D-cache probes,
            // memoized timing (sharing single-step memo entries via
            // the word content key), and flat functional op happen in
            // the exact order the reference interleaves them. Skipped
            // at the budget boundary so the limit fault reports the
            // exact count, and when the transfer annulled the slot
            // (`pc` is already the target).
            if let Some(slot) = block.slot.as_deref_mut() {
                if self.cpu.pc == slot.addr && self.instructions < self.max_instructions {
                    let target = self.cpu.npc;
                    block.slot_execs += 1;
                    if let Some(t) = self.timer.as_mut() {
                        t.fetch_one(slot.addr, &mut slot.probe_gen);
                        let dmiss = u64::from(
                            t.dcache
                                .as_mut()
                                .is_some_and(|c| load_missed(c, &self.cpu, &slot.insn)),
                        );
                        t.time_hinted(&mut slot.hints, memo_key(slot.content, 0, dmiss), || Seq {
                            insns: std::slice::from_ref(&slot.insn),
                            prepared: std::slice::from_ref(
                                slot.prepared.as_ref().expect("timed runs prepare the slot"),
                            ),
                            first_word: block.start + n,
                            imiss: 0,
                            dmiss,
                        });
                    }
                    if slot.is_mem {
                        self.mem_ops += 1;
                    }
                    exec_op(&mut self.cpu, &mut self.mem, slot.op, slot.addr)?;
                    self.instructions += 1;
                    self.cpu.pc = target;
                    self.cpu.npc = target.wrapping_add(4);
                }
            }
        }
        Ok(None)
    }
}

/// Batched fetch modeling for one block execution: probes every word
/// in program order (identical hit/miss sequence and counts to the
/// reference) and returns which instructions missed. The hot case —
/// no misses — replays the block's plain timing entry; a miss pattern
/// folds into the memo key and its walk interleaves the penalties in
/// reference order, so cycles are exact either way.
fn probe_block(cache: &mut ICache, block: &mut Block, entry_pc: u32) -> u64 {
    let n = block.insns.len();
    if block.probe_gen == cache.generation() {
        // No fill since this block last probed all-hit: every tag it
        // touched is still resident, so a re-probe would hit on each
        // word and leave the tags untouched.
        cache.record_hits(n as u64);
        return 0;
    }
    // One real probe per line: the first block word touching a line
    // decides hit/miss (and fills on a miss), so the line's remaining
    // words always hit — credit them without touching the tags.
    let mut missmask = 0u64;
    let line_shift = cache.line_shift();
    let line_words = 1usize << line_shift.saturating_sub(2);
    let mut i = 0;
    while i < n {
        let addr = entry_pc + 4 * i as u32;
        let in_line = line_words - ((addr >> 2) as usize & (line_words - 1));
        let span = in_line.min(n - i);
        if !cache.access(addr) {
            missmask |= 1u64 << i;
        }
        if span > 1 {
            cache.record_hits(span as u64 - 1);
        }
        i += span;
    }
    // After a full probe every word's line is resident, so the skip is
    // valid even past misses — unless the block spans more
    // (consecutive) lines than the cache has sets, where a later line
    // can evict an earlier one mid-probe.
    let first = u64::from(entry_pc) >> line_shift;
    let last = (u64::from(entry_pc) + 4 * n as u64 - 1) >> line_shift;
    block.probe_gen = if missmask == 0 || (last - first) < cache.sets() as u64 {
        cache.generation()
    } else {
        u64::MAX
    };
    missmask
}

/// Executes one lowered op against architectural state. Does not touch
/// pc/npc; `pc` is for fault payloads only. Always inlined: a call per
/// op cost about a third of a CFP block's replay.
#[inline(always)]
fn exec_op(cpu: &mut Cpu, mem: &mut Memory, op: BlockOp, pc: u32) -> Result<(), SimError> {
    match op {
        BlockOp::AddI { rs1, imm, rd } => cpu.set_slot(rd, cpu.slot(rs1).wrapping_add(imm)),
        BlockOp::AddR { rs1, rs2, rd } => {
            cpu.set_slot(rd, cpu.slot(rs1).wrapping_add(cpu.slot(rs2)));
        }
        BlockOp::SubI { rs1, imm, rd } => cpu.set_slot(rd, cpu.slot(rs1).wrapping_sub(imm)),
        BlockOp::SubR { rs1, rs2, rd } => {
            cpu.set_slot(rd, cpu.slot(rs1).wrapping_sub(cpu.slot(rs2)));
        }
        BlockOp::AndI { rs1, imm, rd } => cpu.set_slot(rd, cpu.slot(rs1) & imm),
        BlockOp::AndR { rs1, rs2, rd } => cpu.set_slot(rd, cpu.slot(rs1) & cpu.slot(rs2)),
        BlockOp::OrI { rs1, imm, rd } => cpu.set_slot(rd, cpu.slot(rs1) | imm),
        BlockOp::OrR { rs1, rs2, rd } => cpu.set_slot(rd, cpu.slot(rs1) | cpu.slot(rs2)),
        BlockOp::XorI { rs1, imm, rd } => cpu.set_slot(rd, cpu.slot(rs1) ^ imm),
        BlockOp::XorR { rs1, rs2, rd } => cpu.set_slot(rd, cpu.slot(rs1) ^ cpu.slot(rs2)),
        BlockOp::SllI { rs1, sh, rd } => cpu.set_slot(rd, cpu.slot(rs1) << sh),
        BlockOp::SraI { rs1, sh, rd } => cpu.set_slot(rd, ((cpu.slot(rs1) as i32) >> sh) as u32),
        BlockOp::SubCcI { rs1, imm, rd } => {
            let a = cpu.slot(rs1);
            let r = a.wrapping_sub(imm);
            cpu.icc = Icc {
                n: (r as i32) < 0,
                z: r == 0,
                v: ((a ^ imm) & (a ^ r)) >> 31 != 0,
                c: a < imm,
            };
            cpu.set_slot(rd, r);
        }
        BlockOp::AndCcI { rs1, imm, rd } => {
            let r = cpu.slot(rs1) & imm;
            cpu.icc = Icc {
                n: (r as i32) < 0,
                z: r == 0,
                v: false,
                c: false,
            };
            cpu.set_slot(rd, r);
        }
        BlockOp::Sethi { value, rd } => cpu.set_slot(rd, value),
        BlockOp::LdI { base, off, rd } => {
            let v = mem.read_u32(cpu.slot(base).wrapping_add(off))?;
            cpu.set_slot(rd, v);
        }
        BlockOp::StI { src, base, off } => {
            mem.write_u32(cpu.slot(base).wrapping_add(off), cpu.slot(src))?;
        }
        BlockOp::LddfI { base, off, fd } => {
            let v = mem.read_u64(cpu.slot(base).wrapping_add(off))?;
            cpu.set_fpair(fd, v);
        }
        BlockOp::StdfI { fs, base, off } => {
            mem.write_u64(cpu.slot(base).wrapping_add(off), cpu.fpair(fs))?;
        }
        BlockOp::FAddD { fs1, fs2, fd } => {
            let v = f64::from_bits(cpu.fpair(fs1)) + f64::from_bits(cpu.fpair(fs2));
            cpu.set_fpair(fd, v.to_bits());
        }
        BlockOp::FSubD { fs1, fs2, fd } => {
            let v = f64::from_bits(cpu.fpair(fs1)) - f64::from_bits(cpu.fpair(fs2));
            cpu.set_fpair(fd, v.to_bits());
        }
        BlockOp::FMulD { fs1, fs2, fd } => {
            let v = f64::from_bits(cpu.fpair(fs1)) * f64::from_bits(cpu.fpair(fs2));
            cpu.set_fpair(fd, v.to_bits());
        }
        BlockOp::Alu { op, rs1, src2, rd } => {
            let r = cpu.alu(op, cpu.reg(rs1), cpu.operand(src2), pc)?;
            cpu.set_reg(rd, r);
        }
        BlockOp::Load { width, addr, rd } => cpu.do_load(mem, width, cpu.ea(addr), rd, pc)?,
        BlockOp::Store { width, src, addr } => cpu.do_store(mem, width, src, cpu.ea(addr), pc)?,
        BlockOp::LoadFp { double, addr, rd } => {
            cpu.do_load_fp(mem, double, cpu.ea(addr), rd, pc)?;
        }
        BlockOp::StoreFp { double, src, addr } => {
            cpu.do_store_fp(mem, double, src, cpu.ea(addr), pc)?;
        }
        BlockOp::Fp { op, rs1, rs2, rd } => cpu.fp_op(op, rs1, rs2, rd),
        BlockOp::FCmp { double, rs1, rs2 } => cpu.do_fcmp(double, rs1, rs2),
        BlockOp::Save { rs1, src2, rd } => {
            let v = cpu.reg(rs1).wrapping_add(cpu.operand(src2));
            cpu.do_save(v, rd);
        }
        BlockOp::Restore { rs1, src2, rd } => {
            let v = cpu.reg(rs1).wrapping_add(cpu.operand(src2));
            cpu.do_restore(v, rd, pc)?;
        }
        BlockOp::RdY { rd } => cpu.set_reg(rd, cpu.y),
        BlockOp::WrY { rs1, src2 } => cpu.y = cpu.reg(rs1) ^ cpu.operand(src2),
    }
    Ok(())
}

/// Runs `exe` to completion: timed when both `model` and
/// `config.timing` are given, functional-only otherwise.
pub(crate) fn run_blocks<S: Sink>(
    exe: &Executable,
    model: Option<&MachineModel>,
    config: &RunConfig,
    sink: &S,
) -> Result<RunResult, SimError> {
    let start = if S::ENABLED {
        Some(std::time::Instant::now())
    } else {
        None
    };
    // One span covering the whole simulated run. Per-event tracing of
    // block-cache *hits* would dominate the run (millions per run), so
    // hits/misses surface as one summary instant at the end instead —
    // only the rare build sites trace individually.
    let _run_trace = if S::TRACE_ENABLED {
        sink.trace_span("sim", "run", 0, 0)
    } else {
        None
    };
    let text_len = exe.text_len();
    let timer = model
        .zip(config.timing.as_ref())
        .map(|(model, timing)| Timer {
            model,
            pipe: PipelineState::new(model),
            icache: timing.icache.map(ICache::new),
            dcache: timing.dcache.map(|c| {
                ICache::new(ICacheConfig {
                    size: c.size,
                    line: c.line,
                    miss_penalty: c.miss_penalty,
                })
            }),
            recorder: config.attribute_stalls.then(StallRecorder::new),
            memo: TimingMemo::default(),
            ctx: 0,
            pending: None,
            virt_cycle: 0,
            trail_advance: 0,
            key_scratch: Vec::new(),
            last_complete: 0,
            taken_penalty: u64::from(timing.taken_branch_penalty),
        });
    let mut eng = Engine {
        mem: Memory::load(exe),
        cpu: Cpu::new(exe.entry()),
        timer,
        pc_counts: vec![0u64; text_len],
        taken_counts: vec![0u64; text_len],
        instructions: 0,
        mem_ops: 0,
        builds: 0,
        text_base: exe.text_base(),
        max_instructions: config.max_instructions,
    };
    let mut blocks: Vec<Option<Box<Block>>> = (0..text_len).map(|_| None).collect();

    let exit_code = loop {
        let pc = eng.cpu.pc;
        let word_idx = (pc.wrapping_sub(eng.text_base) / 4) as usize;
        // Delay slots (pending non-sequential npc), unaligned or
        // out-of-text pcs (which must fault exactly like the
        // reference), and the instruction-budget tail all
        // single-step.
        if eng.cpu.npc != pc.wrapping_add(4)
            || !pc.is_multiple_of(4)
            || pc < eng.text_base
            || word_idx >= text_len
        {
            if let Some(code) = eng.step_one()? {
                break code;
            }
            continue;
        }
        if blocks[word_idx].is_none() {
            let model = eng.timer.as_ref().map(|t| t.model);
            let block = Box::new(build_block(
                &eng.mem,
                eng.text_base,
                text_len,
                word_idx,
                model,
            ));
            if S::TRACE_ENABLED {
                sink.trace_instant(
                    "sim",
                    "block_build",
                    word_idx as u64,
                    block.insns.len() as u64,
                );
            }
            blocks[word_idx] = Some(block);
            eng.builds += 1;
        }
        let block = blocks[word_idx].as_deref_mut().expect("just built");
        if eng.instructions + block.insns.len() as u64 > eng.max_instructions {
            // Near the budget: step so a limit fault reports the
            // exact retired count.
            if let Some(code) = eng.step_one()? {
                break code;
            }
            continue;
        }
        if let Some(code) = eng.exec_block(block)? {
            break code;
        }
    };

    // Expand the per-block counts into the per-word profiles.
    let mut fused = 0;
    for block in blocks.iter().flatten() {
        let end = block.start + block.insns.len();
        for c in &mut eng.pc_counts[block.start..end] {
            *c += block.execs;
        }
        eng.taken_counts[end - 1] += block.taken;
        if block.slot_execs > 0 {
            eng.pc_counts[end] += block.slot_execs;
            fused += block.slot_execs;
        }
    }
    // Every taken transfer is counted at its word.
    let taken_branches = eng.taken_counts.iter().sum();

    let timer = eng.timer;
    let cycles = timer.as_ref().map_or(0, |t| t.last_complete + 1);
    let (hits, misses) = timer
        .as_ref()
        .map_or((0, 0), |t| (t.memo.hits, t.memo.misses));
    if S::ENABLED {
        sink.add("sim.runs", 1);
        sink.add("sim.instructions", eng.instructions);
        sink.add("sim.cycles", cycles);
        sink.add("sim.mem_ops", eng.mem_ops);
        sink.add("sim.taken_branches", taken_branches);
        sink.add("sim.block_builds", eng.builds);
        sink.add("sim.block_slot_fused", fused);
        sink.add("sim.block_ctx_hits", hits);
        sink.add("sim.block_ctx_misses", misses);
        sink.record("sim.run_cycles", cycles);
        if let Some(t0) = start {
            sink.record("sim.run_ns", t0.elapsed().as_nanos() as u64);
        }
    }
    if S::TRACE_ENABLED {
        // Summaries for the too-hot-to-trace paths: context-memo
        // hit/miss totals (misses ≈ materialized timing walks) and
        // build/fuse totals for the block cache itself.
        sink.trace_instant("sim", "block_cache", hits, misses);
        sink.trace_instant("sim", "block_totals", eng.builds, fused);
    }
    let cache_misses = |c: &Option<ICache>| c.as_ref().map_or(0, ICache::misses);
    Ok(RunResult {
        instructions: eng.instructions,
        cycles,
        exit_code,
        pc_counts: eng.pc_counts,
        icache_misses: timer.as_ref().map_or(0, |t| cache_misses(&t.icache)),
        dcache_misses: timer.as_ref().map_or(0, |t| cache_misses(&t.dcache)),
        taken_branches,
        mem_ops: eng.mem_ops,
        taken_counts: eng.taken_counts,
        memory: eng.mem,
        stall_profile: timer
            .and_then(|t| t.recorder)
            .map(StallRecorder::into_profile),
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::cpu::{Fcc, STACK_TOP};
    use eel_edit::Symbol;
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};

    const TEXT_BASE: u32 = 0x10000;
    const DATA_BASE: u32 = 0x80_0000;
    /// Data plus bss: 8k + 4 bytes, so a doubleword at the last 8-byte
    /// boundary straddles the segment end.
    const DATA_LEN: u32 = 260;

    /// An integer register value, biased towards the values that flip
    /// condition codes.
    fn word(rng: &mut StdRng) -> u32 {
        const EDGES: [u32; 6] = [0, 1, 0x7FFF_FFFF, 0x8000_0000, 0xFFFF_FFFF, 31];
        match rng.gen_range(0..3) {
            0 => EDGES[rng.gen_range(0..6)],
            _ => rng.gen_range(0..=u32::MAX),
        }
    }

    /// The bits of an FP register pair: ordinary, signed-zero, infinite
    /// and NaN doubles, or raw bits.
    fn double(rng: &mut StdRng) -> u64 {
        const EDGES: [f64; 6] = [0.0, -0.0, 1.5, -2.25e300, f64::INFINITY, f64::NAN];
        match rng.gen_range(0..3) {
            0 => EDGES[rng.gen_range(0..6)].to_bits(),
            1 => (f64::from(rng.gen_range(i32::MIN..=i32::MAX)) / 7.0).to_bits(),
            _ => rng.gen_range(0..=u64::MAX),
        }
    }

    fn simm13(rng: &mut StdRng) -> i16 {
        const EDGES: [i16; 4] = [0, 1, -1, 4095];
        match rng.gen_range(0..3) {
            0 => EDGES[rng.gen_range(0..4)],
            1 => -4096,
            _ => rng.gen_range(-4096..4096),
        }
    }

    /// A register other than `%g0`.
    fn reg(rng: &mut StdRng) -> IntReg {
        IntReg::new(rng.gen_range(1..32))
    }

    fn image() -> Executable {
        let nop = Instruction::nop().encode();
        Executable::new(
            TEXT_BASE,
            vec![nop; 16],
            DATA_BASE,
            (0..64u8).map(|b| b.wrapping_mul(37)).collect(),
            DATA_LEN - 64,
            TEXT_BASE,
            vec![Symbol {
                name: "main".into(),
                addr: TEXT_BASE,
            }],
        )
    }

    /// A random architectural state: windows visited to a random depth
    /// with random values left behind in the deeper ones, random
    /// registers, FP registers, condition codes and `%y`, and a few
    /// random data words.
    fn random_state(rng: &mut StdRng) -> (Cpu, Memory) {
        let mut mem = Memory::load(&image());
        let mut cpu = Cpu::new(TEXT_BASE);
        for _ in 0..rng.gen_range(0..8) {
            for n in 1..32 {
                cpu.set_reg(IntReg::new(n), word(rng));
            }
            match rng.gen_range(0..3) {
                0 => {
                    let _ = cpu.do_restore(0, IntReg::G0, TEXT_BASE);
                }
                _ => cpu.do_save(0, IntReg::G0),
            }
        }
        for n in 1..32 {
            cpu.set_reg(IntReg::new(n), word(rng));
        }
        for e in (0..32).step_by(2) {
            cpu.set_fpair(e, double(rng));
        }
        let bits = rng.gen_range(0..16);
        cpu.icc = Icc {
            n: bits & 1 != 0,
            z: bits & 2 != 0,
            v: bits & 4 != 0,
            c: bits & 8 != 0,
        };
        cpu.fcc = [Fcc::Equal, Fcc::Less, Fcc::Greater, Fcc::Unordered][rng.gen_range(0..4)];
        cpu.y = word(rng);
        for _ in 0..4 {
            let at = DATA_BASE + 4 * rng.gen_range(0..DATA_LEN / 4);
            mem.write_u32(at, word(rng)).expect("data is writable");
        }
        (cpu, mem)
    }

    /// Runs `insn` as its lowered op and through [`Cpu::step_decoded`]
    /// from the same state and requires the same outcome: fault or
    /// not, every window's registers, FP registers, `icc`, `fcc`, `%y`
    /// and memory.
    fn check(insn: Instruction, cpu: &Cpu, mem: &Memory) {
        let op = lower(&insn).unwrap_or_else(|| panic!("{insn:?} is straight-line"));
        let pc = TEXT_BASE + 8;
        let mut fast = cpu.clone();
        fast.pc = pc;
        fast.npc = pc + 4;
        let mut slow = fast.clone();
        let (mut fast_mem, mut slow_mem) = (mem.clone(), mem.clone());
        let got = exec_op(&mut fast, &mut fast_mem, op, pc);
        let want = slow.step_decoded(&mut slow_mem, &insn).map(|_| ());
        assert_eq!(got, want, "{insn:?} as {op:?}: fault");
        if got.is_ok() {
            fast.pc = pc + 4;
            fast.npc = pc + 8;
        }
        assert!(
            fast == slow,
            "{insn:?} as {op:?}: state\n fast {fast:?}\n slow {slow:?}"
        );
        assert!(fast_mem == slow_mem, "{insn:?} as {op:?}: memory");
    }

    /// Where a memory shape's access lands: every segment, aligned and
    /// not, the text segment (stores fault), a doubleword straddling
    /// the data segment's end, and the top of the address space.
    fn target(class: u32, width: u32, rng: &mut StdRng) -> u32 {
        let aligned =
            |base: u32, span: u32, rng: &mut StdRng| base + width * rng.gen_range(0..span / width);
        match class {
            0 => aligned(DATA_BASE, DATA_LEN - 4, rng),
            1 => aligned(DATA_BASE, DATA_LEN - 4, rng) + 1 + rng.gen_range(0..width.max(2) - 1),
            2 => aligned(TEXT_BASE, 64, rng),
            3 => aligned(STACK_TOP - 4096, 8192, rng),
            4 => DATA_BASE + DATA_LEN - 4,
            5 => 0u32.wrapping_sub(width),
            _ => rng.gen_range(0..=u32::MAX),
        }
    }
    const ADDRESS_CLASSES: u32 = 7;

    /// An address `[base + offset]` that reaches `ea` in `cpu`, with an
    /// immediate or a register offset.
    fn address(cpu: &mut Cpu, ea: u32, reg_offset: bool, rng: &mut StdRng) -> Address {
        let base = reg(rng);
        let (offset, value) = if reg_offset {
            let mut idx = reg(rng);
            while idx == base {
                idx = reg(rng);
            }
            let v = word(rng);
            cpu.set_reg(idx, v);
            (Operand::Reg(idx), v)
        } else {
            let imm = simm13(rng);
            (Operand::Imm(imm), i32::from(imm) as u32)
        };
        cpu.set_reg(base, ea.wrapping_sub(value));
        Address { base, offset }
    }

    /// Every shape [`lower`] can produce, each from a fresh random
    /// state.
    fn every_shape(rng: &mut StdRng) {
        use AluOp::*;
        const ALU_OPS: [AluOp; 31] = [
            Add, AddCc, AddX, AddXCc, Sub, SubCc, SubX, SubXCc, And, AndCc, AndN, AndNCc, Or, OrCc,
            OrN, OrNCc, Xor, XorCc, XNor, XNorCc, Sll, Srl, Sra, UMul, SMul, UMulCc, SMulCc, UDiv,
            SDiv, UDivCc, SDivCc,
        ];
        const WIDTHS: [MemWidth; 6] = [
            MemWidth::SByte,
            MemWidth::UByte,
            MemWidth::SHalf,
            MemWidth::UHalf,
            MemWidth::Word,
            MemWidth::Double,
        ];
        use FpOp::*;
        const FP_OPS: [FpOp; 19] = [
            FMovS, FNegS, FAbsS, FAddS, FAddD, FSubS, FSubD, FMulS, FMulD, FDivS, FDivD, FiToS,
            FiToD, FsToI, FdToI, FsToD, FdToS, FSqrtS, FSqrtD,
        ];
        let rd_of = |g0: bool, rng: &mut StdRng| if g0 { IntReg::G0 } else { reg(rng) };
        let any_reg = |rng: &mut StdRng| IntReg::new(rng.gen_range(0..32));
        let fp_reg = |rng: &mut StdRng| FpReg::new(rng.gen_range(0..32));

        for op in ALU_OPS {
            for imm in [false, true] {
                for g0 in [false, true] {
                    let (cpu, mem) = random_state(rng);
                    let src2 = if imm {
                        Operand::Imm(simm13(rng))
                    } else {
                        Operand::Reg(any_reg(rng))
                    };
                    let rs1 = any_reg(rng);
                    let rd = rd_of(g0, rng);
                    check(Instruction::Alu { op, rs1, src2, rd }, &cpu, &mem);
                }
            }
        }
        for g0 in [false, true] {
            let (cpu, mem) = random_state(rng);
            let rd = rd_of(g0, rng);
            let imm22 = rng.gen_range(0..1 << 22);
            check(Instruction::Sethi { imm22, rd }, &cpu, &mem);
        }
        for width in WIDTHS {
            let size = width.bytes();
            for reg_offset in [false, true] {
                for class in 0..ADDRESS_CLASSES {
                    for g0 in [false, true] {
                        let (mut cpu, mem) = random_state(rng);
                        let ea = target(class, size, rng);
                        let addr = address(&mut cpu, ea, reg_offset, rng);
                        let rd = rd_of(g0, rng);
                        check(Instruction::Load { width, addr, rd }, &cpu, &mem);
                        let (mut cpu, mem) = random_state(rng);
                        let addr = address(&mut cpu, ea, reg_offset, rng);
                        let src = rd_of(g0, rng);
                        check(Instruction::Store { width, src, addr }, &cpu, &mem);
                    }
                }
            }
        }
        for double in [false, true] {
            for reg_offset in [false, true] {
                for class in 0..ADDRESS_CLASSES {
                    let size = if double { 8 } else { 4 };
                    let (mut cpu, mem) = random_state(rng);
                    let ea = target(class, size, rng);
                    let addr = address(&mut cpu, ea, reg_offset, rng);
                    let rd = fp_reg(rng);
                    check(Instruction::LoadFp { double, addr, rd }, &cpu, &mem);
                    let (mut cpu, mem) = random_state(rng);
                    let addr = address(&mut cpu, ea, reg_offset, rng);
                    let src = fp_reg(rng);
                    check(Instruction::StoreFp { double, src, addr }, &cpu, &mem);
                }
            }
        }
        for op in FP_OPS {
            let (cpu, mem) = random_state(rng);
            let (rs1, rs2, rd) = (fp_reg(rng), fp_reg(rng), fp_reg(rng));
            check(Instruction::Fp { op, rs1, rs2, rd }, &cpu, &mem);
        }
        for double in [false, true] {
            let (cpu, mem) = random_state(rng);
            let (rs1, rs2) = (fp_reg(rng), fp_reg(rng));
            check(Instruction::FCmp { double, rs1, rs2 }, &cpu, &mem);
        }
        for imm in [false, true] {
            for g0 in [false, true] {
                let src2 = |rng: &mut StdRng| {
                    if imm {
                        Operand::Imm(simm13(rng))
                    } else {
                        Operand::Reg(any_reg(rng))
                    }
                };
                let (cpu, mem) = random_state(rng);
                let (rs1, s2, rd) = (any_reg(rng), src2(rng), rd_of(g0, rng));
                check(Instruction::Save { rs1, src2: s2, rd }, &cpu, &mem);
                let (cpu, mem) = random_state(rng);
                let (rs1, s2, rd) = (any_reg(rng), src2(rng), rd_of(g0, rng));
                check(Instruction::Restore { rs1, src2: s2, rd }, &cpu, &mem);
                let (cpu, mem) = random_state(rng);
                let (rs1, s2) = (any_reg(rng), src2(rng));
                check(Instruction::WrY { rs1, src2: s2 }, &cpu, &mem);
            }
            let (cpu, mem) = random_state(rng);
            check(
                Instruction::RdY {
                    rd: rd_of(imm, rng),
                },
                &cpu,
                &mem,
            );
        }
    }

    proptest::proptest! {
        #![proptest_config(proptest::prelude::ProptestConfig { cases: 64, ..Default::default() })]

        /// Every op shape the block engine lowers computes exactly what
        /// the oracle [`Cpu::step_decoded`] computes. Shapes are
        /// enumerated, not drawn from random words: a random word is a
        /// `subcc` with an immediate about once in 512.
        #[test]
        fn every_lowered_op_matches_step_decoded(seed in proptest::prelude::any::<u64>()) {
            every_shape(&mut StdRng::seed_from_u64(seed));
        }
    }
}
