//! Address tracing — qpt's other instrumentation mode ("Efficient
//! Program Tracing", the paper's reference [9]): before every original
//! load and store, record its effective address into a ring buffer.
//!
//! The snippet is four instructions per traced operation — compute the
//! effective address, store it at the ring cursor, advance, wrap — so
//! tracing is far heavier than block profiling, which makes it an
//! interesting second workload for the scheduler: the paper's
//! conclusion argues exactly this kind of error-checking/monitoring
//! code becomes affordable once scheduling hides part of it.

use eel_edit::EditSession;
use eel_sparc::{Address, AluOp, Instruction, IntReg, MemWidth, Operand};

/// The `(base, cursor, scratch)` registers reserved for the tracer.
const TRACE_REGS: (IntReg, IntReg, IntReg) = (IntReg::G3, IntReg::G4, IntReg::G5);

/// Options for address tracing. The tracer reserves `%g3`, `%g4` and
/// `%g5` (ring base, cursor and scratch).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct TraceOptions {
    /// Ring-buffer size in bytes. Must be a power of two and at most
    /// 4096 (the wrap mask must fit a SPARC immediate).
    pub buffer_bytes: u32,
}

impl Default for TraceOptions {
    fn default() -> TraceOptions {
        TraceOptions { buffer_bytes: 4096 }
    }
}

/// The result of inserting address-tracing instrumentation.
#[derive(Debug, Clone)]
pub struct Tracer {
    buffer_base: u32,
    buffer_bytes: u32,
    traced_ops: usize,
}

impl Tracer {
    /// Instruments every original load and store in `session` (except
    /// those in delay slots, which EEL does not schedule around) and
    /// reserves the ring buffer.
    ///
    /// The cursor initialization is inserted at the head of the first
    /// block, so the executable's entry block must execute exactly
    /// once (true of `main` prologues).
    ///
    /// # Panics
    ///
    /// Panics if `buffer_bytes` is not a power of two in `8..=4096`.
    pub fn instrument(session: &mut EditSession, options: TraceOptions) -> Tracer {
        assert!(
            options.buffer_bytes.is_power_of_two() && (8..=4096).contains(&options.buffer_bytes),
            "ring buffer must be a power of two between 8 and 4096 bytes"
        );
        let (base, cursor, _) = TRACE_REGS;
        let buffer_base = session.reserve_bss(options.buffer_bytes);

        // Find every traced site first (borrowing the CFG), then
        // register the insertions.
        let mut sites: Vec<(usize, usize, usize, Address)> = Vec::new();
        for (ri, r) in session.cfg().routines.iter().enumerate() {
            for (bi, b) in r.blocks.iter().enumerate() {
                for k in 0..b.body_len() {
                    let insn = Instruction::decode(session.exe().text()[b.start + k]);
                    if let Some(addr) = insn.mem_address() {
                        sites.push((ri, bi, k, addr));
                    }
                }
            }
        }
        let traced_ops = sites.len();
        for (ri, bi, k, addr) in sites {
            session.insert_before(ri, bi, k, trace_snippet(addr, options));
        }

        // Initialize the base and cursor at program entry.
        let mut init = Vec::new();
        let mut asm = eel_sparc::Assembler::new();
        asm.set(buffer_base, base);
        asm.mov(Operand::imm(0), cursor);
        init.extend(asm.finish().expect("no labels"));
        session.insert_before(0, 0, 0, init);

        Tracer {
            buffer_base,
            buffer_bytes: options.buffer_bytes,
            traced_ops,
        }
    }

    /// The ring buffer's address.
    pub fn buffer_base(&self) -> u32 {
        self.buffer_base
    }

    /// The ring buffer's size in bytes.
    pub fn buffer_bytes(&self) -> u32 {
        self.buffer_bytes
    }

    /// How many static memory operations were instrumented.
    pub fn traced_ops(&self) -> usize {
        self.traced_ops
    }

    /// Reads the trace back from memory: `cursor` is the final value
    /// of the cursor register (word offset of the next entry), and
    /// `read_word` reads simulated memory. Returns the addresses in
    /// ring order ending at the cursor (up to one buffer's worth).
    pub fn read_trace<F>(&self, cursor: u32, mut read_word: F) -> Vec<u32>
    where
        F: FnMut(u32) -> u32,
    {
        let entries = self.buffer_bytes / 4;
        let end = (cursor / 4) % entries;
        (0..entries)
            .map(|i| (end + i) % entries)
            .map(|i| read_word(self.buffer_base + 4 * i))
            .collect()
    }
}

/// The four-instruction trace snippet for one memory operation.
pub fn trace_snippet(addr: Address, options: TraceOptions) -> Vec<Instruction> {
    let (base, cursor, scratch) = TRACE_REGS;
    let mask = (options.buffer_bytes - 1) as i32;
    vec![
        // scratch := effective address of the traced operation
        Instruction::Alu {
            op: AluOp::Add,
            rs1: addr.base,
            src2: addr.offset,
            rd: scratch,
        },
        // buffer[cursor] := scratch
        Instruction::Store {
            width: MemWidth::Word,
            src: scratch,
            addr: Address::base_reg(base, cursor),
        },
        // cursor := (cursor + 4) & mask
        Instruction::Alu {
            op: AluOp::Add,
            rs1: cursor,
            src2: Operand::imm(4),
            rd: cursor,
        },
        Instruction::Alu {
            op: AluOp::And,
            rs1: cursor,
            src2: Operand::imm(mask),
            rd: cursor,
        },
    ]
}

#[cfg(test)]
mod tests {
    use super::*;
    use eel_edit::{Executable, Origin};
    use eel_sparc::Assembler;

    fn program() -> Executable {
        let mut a = Assembler::new();
        a.set(Executable::DEFAULT_DATA_BASE, IntReg::O0);
        a.ld(Address::base_imm(IntReg::O0, 8), IntReg::O1);
        a.st(IntReg::O1, Address::base_imm(IntReg::O0, 12));
        a.ld(Address::base_imm(IntReg::O0, 16), IntReg::O2);
        a.ta(0);
        let words: Vec<u32> = a.finish().unwrap().iter().map(|i| i.encode()).collect();
        let mut exe = Executable::from_words(0x10000, words);
        exe.reserve_bss(64);
        exe
    }

    #[test]
    fn snippet_shape() {
        let s = trace_snippet(Address::base_imm(IntReg::O0, 8), TraceOptions::default());
        assert_eq!(s.len(), 4);
        assert!(s[1].is_store());
        assert!(s[0].uses().contains(&eel_sparc::Resource::Int(IntReg::O0)));
    }

    #[test]
    fn instruments_every_original_memory_op() {
        let exe = program();
        let mut session = EditSession::new(&exe).unwrap();
        let tracer = Tracer::instrument(&mut session, TraceOptions::default());
        assert_eq!(tracer.traced_ops(), 3);
        let edited = session.emit_unscheduled().unwrap();
        // 3 snippets * 4 + init (set may be 1-2 insns + mov).
        assert!(edited.text_len() >= exe.text_len() + 12 + 2);
    }

    #[test]
    fn snippets_are_tagged_instrumentation_and_positioned() {
        let exe = program();
        let mut session = EditSession::new(&exe).unwrap();
        let _t = Tracer::instrument(&mut session, TraceOptions::default());
        let code = session.block_code(0, 0);
        // Each original memory op must be directly preceded by its
        // snippet's store (cursor write order).
        let insns: Vec<_> = code.body.iter().collect();
        for (i, t) in insns.iter().enumerate() {
            if t.origin == Origin::Original && t.insn.is_mem() {
                assert!(
                    insns[..i]
                        .iter()
                        .rev()
                        .take(4)
                        .any(|p| { p.origin == Origin::Instrumentation && p.insn.is_store() }),
                    "memory op at {i} lacks a preceding trace store"
                );
            }
        }
    }

    #[test]
    #[should_panic(expected = "power of two")]
    fn oversized_buffer_rejected() {
        let exe = program();
        let mut session = EditSession::new(&exe).unwrap();
        let _ = Tracer::instrument(&mut session, TraceOptions { buffer_bytes: 8192 });
    }

    #[test]
    fn read_trace_unwraps_ring() {
        let t = Tracer {
            buffer_base: 0x100,
            buffer_bytes: 16,
            traced_ops: 0,
        };
        // Buffer entries: [a0 a1 a2 a3], cursor at entry 1 → oldest is 1.
        let vals = [10u32, 11, 12, 13];
        let out = t.read_trace(4, |addr| vals[((addr - 0x100) / 4) as usize]);
        assert_eq!(out, vec![11, 12, 13, 10]);
    }
}
