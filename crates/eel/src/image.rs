//! The executable image: the self-contained container format this
//! reproduction edits in place of SPARC ELF binaries.
//!
//! An [`Executable`] has a text segment of 32-bit instruction words, a
//! data segment (initialized bytes plus zero-initialized *bss*), an
//! entry point, and a symbol table naming routine entry addresses.
//! EEL's analyses only need these; the original used `libbfd` to pull
//! the same information out of ELF headers.

use std::fmt::Write as _;

use eel_sparc::Instruction;

use crate::error::EditError;

/// The most initialized data plus bss an image may declare: 64 MiB,
/// far above any image the workloads or tools produce (tens of KiB), so
/// a hostile `.eelx` header cannot make the simulator's loader
/// zero-fill gigabytes.
const MAX_DATA_BYTES: u64 = 64 << 20;

/// A named routine entry point.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Symbol {
    /// The routine's name.
    pub name: String,
    /// Its entry address (within the text segment).
    pub addr: u32,
}

/// A loaded, editable executable image.
///
/// ```
/// use eel_edit::Executable;
/// use eel_sparc::{Assembler, IntReg, Operand};
///
/// let mut a = Assembler::new();
/// a.mov(Operand::imm(0), IntReg::O0);
/// a.retl();
/// a.nop();
/// let exe = Executable::from_words(
///     0x10000,
///     a.finish().unwrap().iter().map(|i| i.encode()).collect(),
/// );
/// assert_eq!(exe.entry(), 0x10000);
/// assert_eq!(exe.text_len(), 3);
/// ```
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Executable {
    text_base: u32,
    text: Vec<u32>,
    data_base: u32,
    data: Vec<u8>,
    bss_size: u32,
    entry: u32,
    symbols: Vec<Symbol>,
}

impl Executable {
    /// Default text segment base, mirroring SunOS a.out conventions.
    pub const DEFAULT_TEXT_BASE: u32 = 0x0001_0000;
    /// Default data segment base, leaving ample room for edited text.
    pub const DEFAULT_DATA_BASE: u32 = 0x0080_0000;

    /// Builds an executable from raw instruction words at the default
    /// bases, with the entry point at the first word and a single
    /// `main` symbol.
    pub fn from_words(text_base: u32, text: Vec<u32>) -> Executable {
        Executable {
            text_base,
            text,
            data_base: Executable::DEFAULT_DATA_BASE,
            data: Vec::new(),
            bss_size: 0,
            entry: text_base,
            symbols: vec![Symbol {
                name: "main".to_string(),
                addr: text_base,
            }],
        }
    }

    /// Builds an executable from all of its parts.
    ///
    /// # Panics
    ///
    /// Panics if the bases are not word-aligned, the text would overlap
    /// the data segment, the data segment would run past the end of
    /// the address space, the entry point is outside the text segment,
    /// or any symbol address is outside the text segment.
    pub fn new(
        text_base: u32,
        text: Vec<u32>,
        data_base: u32,
        data: Vec<u8>,
        bss_size: u32,
        entry: u32,
        symbols: Vec<Symbol>,
    ) -> Executable {
        Executable::try_new(text_base, text, data_base, data, bss_size, entry, symbols)
            .unwrap_or_else(|why| panic!("{why}"))
    }

    /// [`Executable::new`], returning the first invariant the parts
    /// violate instead of panicking.
    pub(crate) fn try_new(
        text_base: u32,
        text: Vec<u32>,
        data_base: u32,
        data: Vec<u8>,
        bss_size: u32,
        entry: u32,
        mut symbols: Vec<Symbol>,
    ) -> Result<Executable, String> {
        if !text_base.is_multiple_of(4) {
            return Err("text base must be word aligned".into());
        }
        if !data_base.is_multiple_of(4) {
            return Err("data base must be word aligned".into());
        }
        let text_end = u64::from(text_base) + 4 * text.len() as u64;
        if text_end > u64::from(data_base) {
            return Err("text overlaps data segment".into());
        }
        let data_bytes = data.len() as u64 + u64::from(bss_size);
        // The segment's end address must fit in 32 bits.
        if u64::from(data_base) + data_bytes >= 1 << 32 {
            return Err("data segment runs past the end of the address space".into());
        }
        if data_bytes > MAX_DATA_BYTES {
            return Err(format!(
                "data + bss of {data_bytes} bytes exceeds the {} MiB image limit",
                MAX_DATA_BYTES >> 20
            ));
        }
        let in_text = |a: u32| (u64::from(text_base)..text_end).contains(&u64::from(a));
        if !in_text(entry) && !text.is_empty() {
            return Err(format!("entry point {entry:#x} outside text"));
        }
        if let Some(s) = symbols.iter().find(|s| !in_text(s.addr)) {
            return Err(format!("symbol `{}` at {:#x} outside text", s.name, s.addr));
        }
        symbols.sort_by_key(|s| s.addr);
        Ok(Executable {
            text_base,
            text,
            data_base,
            data,
            bss_size,
            entry,
            symbols,
        })
    }

    /// The address of the first text word.
    pub fn text_base(&self) -> u32 {
        self.text_base
    }

    /// The number of instruction words in the text segment.
    pub fn text_len(&self) -> usize {
        self.text.len()
    }

    /// The raw text words.
    pub fn text(&self) -> &[u32] {
        &self.text
    }

    /// The address one past the last text word.
    pub fn text_end(&self) -> u32 {
        self.text_base + 4 * self.text.len() as u32
    }

    /// The data segment base address.
    pub fn data_base(&self) -> u32 {
        self.data_base
    }

    /// The initialized data bytes.
    pub fn data(&self) -> &[u8] {
        &self.data
    }

    /// Bytes of zero-initialized data following the initialized data.
    pub fn bss_size(&self) -> u32 {
        self.bss_size
    }

    /// The address one past the end of data + bss.
    pub fn data_end(&self) -> u32 {
        self.data_base + self.data.len() as u32 + self.bss_size
    }

    /// The program entry point.
    pub fn entry(&self) -> u32 {
        self.entry
    }

    /// The symbol table, sorted by address.
    pub fn symbols(&self) -> &[Symbol] {
        &self.symbols
    }

    /// Extends the zero-initialized data area, returning the address
    /// of the newly reserved bytes (word-aligned). Instrumentation
    /// tools use this to allocate counter tables.
    ///
    /// # Panics
    ///
    /// Panics if the grown data segment would run past the end of the
    /// address space or exceed the image limit.
    pub fn reserve_bss(&mut self, bytes: u32) -> u32 {
        self.try_reserve_bss(bytes)
            .expect("bss reservation fits the image")
    }

    /// [`Executable::reserve_bss`], or `None`, leaving the image as it
    /// was, when the reservation does not fit.
    pub(crate) fn try_reserve_bss(&mut self, bytes: u32) -> Option<u32> {
        let base = u64::from(self.data_base);
        let aligned_end = (u64::from(self.data_end()) + 3) & !3;
        let data_bytes = aligned_end - base + u64::from(bytes);
        if base + data_bytes >= 1 << 32 || data_bytes > MAX_DATA_BYTES {
            return None;
        }
        self.bss_size = (data_bytes - self.data.len() as u64) as u32;
        Some(aligned_end as u32)
    }

    /// Whether `addr` is a word-aligned text address.
    pub fn contains_text(&self, addr: u32) -> bool {
        addr.is_multiple_of(4) && addr >= self.text_base && addr < self.text_end()
    }

    /// The word index of a text address.
    ///
    /// # Errors
    ///
    /// Returns [`EditError::OutOfText`] for unaligned or out-of-range
    /// addresses.
    pub fn text_index(&self, addr: u32) -> Result<usize, EditError> {
        if !self.contains_text(addr) {
            return Err(EditError::OutOfText { addr });
        }
        Ok(((addr - self.text_base) / 4) as usize)
    }

    /// The address of text word `index`, modulo 2^32 as SPARC computes
    /// branch and call targets: an index past the text (a target the
    /// editor reports) wraps rather than overflows.
    pub fn text_addr(&self, index: usize) -> u32 {
        self.text_base.wrapping_add((index as u32).wrapping_mul(4))
    }

    /// Decodes the instruction at `addr`.
    ///
    /// # Errors
    ///
    /// Returns [`EditError::OutOfText`] for addresses outside text.
    pub fn instruction_at(&self, addr: u32) -> Result<Instruction, EditError> {
        Ok(Instruction::decode(self.text[self.text_index(addr)?]))
    }

    /// Decodes the full text segment.
    pub fn decode_text(&self) -> Vec<Instruction> {
        self.text.iter().map(|&w| Instruction::decode(w)).collect()
    }

    /// A human-readable disassembly listing of the whole text segment,
    /// with symbol labels.
    pub fn disassemble(&self) -> String {
        let mut out = String::new();
        for (i, &w) in self.text.iter().enumerate() {
            let addr = self.text_addr(i);
            if let Some(sym) = self.symbols.iter().find(|s| s.addr == addr) {
                let _ = writeln!(out, "{}:", sym.name);
            }
            let _ = writeln!(out, "  {addr:#010x}:  {}", Instruction::decode(w));
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use eel_sparc::{Assembler, IntReg, Operand};

    fn tiny() -> Executable {
        let mut a = Assembler::new();
        a.mov(Operand::imm(1), IntReg::O0);
        a.retl();
        a.nop();
        Executable::from_words(
            0x10000,
            a.finish().unwrap().iter().map(|i| i.encode()).collect(),
        )
    }

    #[test]
    fn address_arithmetic() {
        let e = tiny();
        assert_eq!(e.text_end(), 0x1000C);
        assert_eq!(e.text_index(0x10004).unwrap(), 1);
        assert_eq!(e.text_addr(2), 0x10008);
        assert!(e.contains_text(0x10008));
        assert!(!e.contains_text(0x1000C));
        assert!(!e.contains_text(0x10002), "unaligned");
    }

    #[test]
    fn out_of_text_errors() {
        let e = tiny();
        assert_eq!(
            e.text_index(0x20000),
            Err(EditError::OutOfText { addr: 0x20000 })
        );
        assert!(e.instruction_at(0x10002).is_err());
    }

    #[test]
    fn instruction_decoding() {
        let e = tiny();
        assert_eq!(
            e.instruction_at(0x10000).unwrap(),
            Instruction::mov(Operand::imm(1), IntReg::O0)
        );
        assert!(e.instruction_at(0x10008).unwrap().is_nop());
    }

    #[test]
    fn reserve_bss_is_word_aligned_and_grows() {
        let mut e = Executable::new(
            0x10000,
            vec![Instruction::nop().encode()],
            0x80_0000,
            vec![1, 2, 3], // 3 bytes of initialized data
            0,
            0x10000,
            vec![Symbol {
                name: "main".into(),
                addr: 0x10000,
            }],
        );
        let a = e.reserve_bss(8);
        assert_eq!(a % 4, 0);
        assert_eq!(a, 0x80_0004, "aligned past the 3 data bytes");
        let b = e.reserve_bss(4);
        assert_eq!(b, a + 8);
        assert_eq!(e.data_end(), b + 4);
    }

    #[test]
    fn reservations_stay_below_the_top_and_the_limit() {
        let image = |data_base: u32, bss: u32| {
            Executable::try_new(0x10000, vec![0], data_base, vec![1], bss, 0x10000, vec![])
        };
        // A data segment's end address must fit in 32 bits.
        assert!(image(0xFFFF_FFF0, 15).is_err());
        let mut e = image(0xFFFF_FFF0, 3).unwrap();
        assert_eq!(e.try_reserve_bss(8), Some(0xFFFF_FFF4));
        assert_eq!(e.try_reserve_bss(4), None, "would end at 2^32");
        assert_eq!(e.data_end(), 0xFFFF_FFFC, "unchanged by the refusal");
        let mut e = image(0x80_0000, (MAX_DATA_BYTES - 8) as u32).unwrap();
        assert_eq!(e.try_reserve_bss(8), None, "past the image limit");
        assert_eq!(
            e.try_reserve_bss(4),
            Some(0x80_0000 + MAX_DATA_BYTES as u32 - 4)
        );
    }

    #[test]
    fn disassembly_includes_labels() {
        let e = tiny();
        let d = e.disassemble();
        assert!(d.starts_with("main:"));
        assert!(d.contains("retl"));
    }

    #[test]
    #[should_panic(expected = "overlaps data")]
    fn text_overlapping_data_panics() {
        Executable::new(0x1000, vec![0; 1024], 0x1100, vec![], 0, 0x1000, vec![]);
    }

    #[test]
    fn symbols_sorted_by_address() {
        let mut a = Assembler::new();
        for _ in 0..4 {
            a.nop();
        }
        let words: Vec<u32> = a.finish().unwrap().iter().map(|i| i.encode()).collect();
        let e = Executable::new(
            0x10000,
            words,
            0x80_0000,
            vec![],
            0,
            0x10000,
            vec![
                Symbol {
                    name: "b".into(),
                    addr: 0x10008,
                },
                Symbol {
                    name: "a".into(),
                    addr: 0x10000,
                },
            ],
        );
        assert_eq!(e.symbols()[0].name, "a");
        assert_eq!(e.symbols()[1].name, "b");
    }
}
