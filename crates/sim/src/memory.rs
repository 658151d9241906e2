//! Simulated memory: the executable's text and data segments plus
//! demand-allocated pages for the stack and heap.

use std::collections::HashMap;

use eel_edit::Executable;

use crate::error::SimError;

const PAGE_SHIFT: u32 = 12;
const PAGE_SIZE: usize = 1 << PAGE_SHIFT;

/// Byte-addressed simulated memory (big-endian, as SPARC is).
///
/// Text is read-only; the data segment (including bss) is backed
/// directly; any other address falls into demand-zeroed pages.
#[derive(Debug, Clone)]
#[cfg_attr(test, derive(PartialEq))]
pub struct Memory {
    text_base: u32,
    text: Vec<u32>,
    data_base: u32,
    data: Vec<u8>,
    pages: HashMap<u32, Box<[u8; PAGE_SIZE]>>,
}

impl Memory {
    /// Loads an executable image.
    pub fn load(exe: &Executable) -> Memory {
        let mut data = exe.data().to_vec();
        data.resize(data.len() + exe.bss_size() as usize, 0);
        Memory {
            text_base: exe.text_base(),
            text: exe.text().to_vec(),
            data_base: exe.data_base(),
            data,
            pages: HashMap::new(),
        }
    }

    fn text_end(&self) -> u32 {
        self.text_base + 4 * self.text.len() as u32
    }

    /// The data-segment offset of a `size`-byte access at `addr`, when
    /// the access lies wholly inside the data segment.
    #[inline(always)]
    fn data_offset(&self, addr: u32, size: usize) -> Option<usize> {
        // Below the base, the wrapped offset exceeds the segment.
        let i = addr.wrapping_sub(self.data_base) as usize;
        (i + size <= self.data.len()).then_some(i)
    }

    /// [`Self::data_offset`] for a `size`-aligned access (`size` a
    /// power of two): the word and doubleword accessors' inline fast
    /// path. Everything else — an alignment fault, text, demand-zero
    /// pages — goes through their one `#[cold]` slow path each.
    #[inline(always)]
    fn aligned_data_offset(&self, addr: u32, size: usize) -> Option<usize> {
        if addr as usize & (size - 1) != 0 {
            return None;
        }
        self.data_offset(addr, size)
    }

    /// Fetches the instruction word at `addr`.
    ///
    /// # Errors
    ///
    /// [`SimError::BadPc`] outside the text segment or unaligned.
    pub fn fetch(&self, addr: u32) -> Result<u32, SimError> {
        if !addr.is_multiple_of(4) || addr < self.text_base || addr >= self.text_end() {
            return Err(SimError::BadPc { pc: addr });
        }
        Ok(self.text[((addr - self.text_base) / 4) as usize])
    }

    fn page(&mut self, addr: u32) -> (&mut [u8; PAGE_SIZE], usize) {
        let key = addr >> PAGE_SHIFT;
        let page = self
            .pages
            .entry(key)
            .or_insert_with(|| Box::new([0; PAGE_SIZE]));
        (page, (addr as usize) & (PAGE_SIZE - 1))
    }

    /// Reads one byte.
    pub fn read_u8(&mut self, addr: u32) -> Result<u8, SimError> {
        if let Some(i) = self.data_offset(addr, 1) {
            return Ok(self.data[i]);
        }
        if addr >= self.text_base && addr < self.text_end() {
            let w = self.text[((addr - self.text_base) / 4) as usize];
            return Ok((w >> (8 * (3 - (addr % 4)))) as u8);
        }
        let (page, off) = self.page(addr);
        Ok(page[off])
    }

    /// Writes one byte.
    ///
    /// # Errors
    ///
    /// [`SimError::TextWrite`] when targeting the text segment.
    pub fn write_u8(&mut self, addr: u32, value: u8) -> Result<(), SimError> {
        if addr >= self.text_base && addr < self.text_end() {
            return Err(SimError::TextWrite { addr });
        }
        if let Some(i) = self.data_offset(addr, 1) {
            self.data[i] = value;
            return Ok(());
        }
        let (page, off) = self.page(addr);
        page[off] = value;
        Ok(())
    }

    /// Reads a 16-bit halfword (must be 2-aligned).
    pub fn read_u16(&mut self, addr: u32) -> Result<u16, SimError> {
        if !addr.is_multiple_of(2) {
            return Err(SimError::Unaligned { addr, size: 2 });
        }
        Ok(u16::from(self.read_u8(addr)?) << 8 | u16::from(self.read_u8(addr + 1)?))
    }

    /// Writes a 16-bit halfword (must be 2-aligned).
    pub fn write_u16(&mut self, addr: u32, value: u16) -> Result<(), SimError> {
        if !addr.is_multiple_of(2) {
            return Err(SimError::Unaligned { addr, size: 2 });
        }
        self.write_u8(addr, (value >> 8) as u8)?;
        self.write_u8(addr + 1, value as u8)
    }

    /// Reads a 32-bit word (must be 4-aligned).
    #[inline]
    pub fn read_u32(&mut self, addr: u32) -> Result<u32, SimError> {
        if let Some(i) = self.aligned_data_offset(addr, 4) {
            return Ok(u32::from_be_bytes(
                self.data[i..i + 4].try_into().expect("4 bytes"),
            ));
        }
        self.read_u32_slow(addr)
    }

    /// [`Self::read_u32`] off its fast path.
    #[cold]
    #[inline(never)]
    fn read_u32_slow(&mut self, addr: u32) -> Result<u32, SimError> {
        if !addr.is_multiple_of(4) {
            return Err(SimError::Unaligned { addr, size: 4 });
        }
        let mut v = 0u32;
        for k in 0..4 {
            v = v << 8 | u32::from(self.read_u8(addr + k)?);
        }
        Ok(v)
    }

    /// Writes a 32-bit word (must be 4-aligned).
    #[inline]
    pub fn write_u32(&mut self, addr: u32, value: u32) -> Result<(), SimError> {
        if let Some(i) = self.aligned_data_offset(addr, 4) {
            self.data[i..i + 4].copy_from_slice(&value.to_be_bytes());
            return Ok(());
        }
        self.write_u32_slow(addr, value)
    }

    /// [`Self::write_u32`] off its fast path.
    #[cold]
    #[inline(never)]
    fn write_u32_slow(&mut self, addr: u32, value: u32) -> Result<(), SimError> {
        if !addr.is_multiple_of(4) {
            return Err(SimError::Unaligned { addr, size: 4 });
        }
        for k in 0..4 {
            self.write_u8(addr + k, (value >> (8 * (3 - k))) as u8)?;
        }
        Ok(())
    }

    /// Reads a 64-bit doubleword (must be 8-aligned).
    #[inline]
    pub fn read_u64(&mut self, addr: u32) -> Result<u64, SimError> {
        if let Some(i) = self.aligned_data_offset(addr, 8) {
            return Ok(u64::from_be_bytes(
                self.data[i..i + 8].try_into().expect("8 bytes"),
            ));
        }
        self.read_u64_slow(addr)
    }

    /// [`Self::read_u64`] off its fast path.
    #[cold]
    #[inline(never)]
    fn read_u64_slow(&mut self, addr: u32) -> Result<u64, SimError> {
        if !addr.is_multiple_of(8) {
            return Err(SimError::Unaligned { addr, size: 8 });
        }
        Ok(u64::from(self.read_u32(addr)?) << 32 | u64::from(self.read_u32(addr + 4)?))
    }

    /// Writes a 64-bit doubleword (must be 8-aligned).
    #[inline]
    pub fn write_u64(&mut self, addr: u32, value: u64) -> Result<(), SimError> {
        if let Some(i) = self.aligned_data_offset(addr, 8) {
            self.data[i..i + 8].copy_from_slice(&value.to_be_bytes());
            return Ok(());
        }
        self.write_u64_slow(addr, value)
    }

    /// [`Self::write_u64`] off its fast path.
    #[cold]
    #[inline(never)]
    fn write_u64_slow(&mut self, addr: u32, value: u64) -> Result<(), SimError> {
        if !addr.is_multiple_of(8) {
            return Err(SimError::Unaligned { addr, size: 8 });
        }
        self.write_u32(addr, (value >> 32) as u32)?;
        self.write_u32(addr + 4, value as u32)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use eel_sparc::Instruction;
    use proptest::prelude::*;

    fn mem() -> Memory {
        let exe = Executable::new(
            0x10000,
            vec![Instruction::nop().encode(); 2],
            0x80_0000,
            vec![0xAA, 0xBB, 0xCC, 0xDD],
            8,
            0x10000,
            vec![eel_edit::Symbol {
                name: "main".into(),
                addr: 0x10000,
            }],
        );
        Memory::load(&exe)
    }

    #[test]
    fn fetch_text() {
        let m = mem();
        assert_eq!(m.fetch(0x10000).unwrap(), Instruction::nop().encode());
        assert!(matches!(m.fetch(0x10008), Err(SimError::BadPc { .. })));
        assert!(matches!(m.fetch(0x10002), Err(SimError::BadPc { .. })));
    }

    #[test]
    fn data_reads_are_big_endian() {
        let mut m = mem();
        assert_eq!(m.read_u32(0x80_0000).unwrap(), 0xAABB_CCDD);
        assert_eq!(m.read_u8(0x80_0001).unwrap(), 0xBB);
        assert_eq!(m.read_u16(0x80_0002).unwrap(), 0xCCDD);
    }

    #[test]
    fn bss_reads_zero_and_is_writable() {
        let mut m = mem();
        assert_eq!(m.read_u32(0x80_0004).unwrap(), 0);
        m.write_u32(0x80_0004, 7).unwrap();
        assert_eq!(m.read_u32(0x80_0004).unwrap(), 7);
    }

    #[test]
    fn stack_pages_demand_allocate() {
        let mut m = mem();
        let sp = 0x7FFF_FF00;
        assert_eq!(m.read_u32(sp).unwrap(), 0);
        m.write_u32(sp, 0x1234_5678).unwrap();
        assert_eq!(m.read_u32(sp).unwrap(), 0x1234_5678);
        assert_eq!(m.read_u8(sp + 3).unwrap(), 0x78);
    }

    #[test]
    fn text_is_readable_as_data_but_not_writable() {
        let mut m = mem();
        assert_eq!(m.read_u32(0x10000).unwrap(), Instruction::nop().encode());
        assert!(matches!(
            m.write_u32(0x10000, 0),
            Err(SimError::TextWrite { .. })
        ));
    }

    #[test]
    fn alignment_enforced() {
        let mut m = mem();
        assert!(matches!(
            m.read_u32(0x80_0002),
            Err(SimError::Unaligned { .. })
        ));
        assert!(matches!(
            m.read_u16(0x80_0001),
            Err(SimError::Unaligned { .. })
        ));
        assert!(matches!(
            m.read_u64(0x80_0004),
            Err(SimError::Unaligned { .. })
        ));
    }

    #[test]
    fn u64_roundtrip() {
        let mut m = mem();
        m.write_u64(0x7000_0000, 0x0102_0304_0506_0708).unwrap();
        assert_eq!(m.read_u64(0x7000_0000).unwrap(), 0x0102_0304_0506_0708);
        assert_eq!(m.read_u32(0x7000_0004).unwrap(), 0x0506_0708);
    }

    /// A doubleword is its two words, high word first, whether it
    /// lies inside the data segment (the fast path), straddles its end,
    /// or lies outside it.
    #[test]
    fn u64_is_two_big_endian_words_everywhere() {
        let mut m = mem();
        // Data is 4 bytes plus 8 of bss: 0x80_0008 straddles the end.
        for addr in [0x80_0000, 0x80_0008, 0x7000_0000] {
            m.write_u64(addr, 0x0102_0304_0506_0708).unwrap();
            assert_eq!(m.read_u32(addr).unwrap(), 0x0102_0304, "{addr:#x}");
            assert_eq!(m.read_u32(addr + 4).unwrap(), 0x0506_0708, "{addr:#x}");
            assert_eq!(m.read_u8(addr + 7).unwrap(), 0x08, "{addr:#x}");
            m.write_u32(addr + 4, 0xAABB_CCDD).unwrap();
            assert_eq!(
                m.read_u64(addr).unwrap(),
                0x0102_0304_AABB_CCDD,
                "{addr:#x}"
            );
        }
        // The top of the address space is paged memory too.
        m.write_u32(0xFFFF_FFFC, 0x1122_3344).unwrap();
        assert_eq!(m.read_u64(0xFFFF_FFF8).unwrap(), 0x1122_3344);
    }

    const TEXT_BASE: u32 = 0x10000;
    /// Three text words: the text ends off a doubleword boundary.
    const TEXT_WORDS: u32 = 3;
    /// Off a doubleword boundary, so doublewords straddle both ends of
    /// the data segment.
    const DATA_BASE: u32 = 0x80_0004;
    const DATA: [u8; 6] = [0x11, 0x22, 0x33, 0x44, 0x55, 0x66];
    const BSS: u32 = 10;

    fn edge_image() -> Executable {
        Executable::new(
            TEXT_BASE,
            (0..TEXT_WORDS).map(|k| 0x0100_0000 | k).collect(),
            DATA_BASE,
            DATA.to_vec(),
            BSS,
            TEXT_BASE,
            vec![eel_edit::Symbol {
                name: "main".into(),
                addr: TEXT_BASE,
            }],
        )
    }

    /// Memory as a map from address to byte: the oracle for the
    /// accessors' fast and slow paths. Bytes are read and written one
    /// at a time in address order, and a write stops at the first
    /// text byte.
    struct ByteMap {
        bytes: HashMap<u32, u8>,
        text_end: u32,
    }

    impl ByteMap {
        fn load(exe: &Executable) -> ByteMap {
            let text = exe.text().iter().flat_map(|w| w.to_be_bytes());
            let data = exe.data().iter().copied();
            let bytes = (exe.text_base()..)
                .zip(text)
                .chain((exe.data_base()..).zip(data))
                .collect();
            ByteMap {
                bytes,
                text_end: exe.text_end(),
            }
        }

        fn aligned(addr: u32, size: u32) -> Result<(), SimError> {
            if addr.is_multiple_of(size) {
                Ok(())
            } else {
                Err(SimError::Unaligned { addr, size })
            }
        }

        fn read(&self, addr: u32, size: u32) -> Result<u64, SimError> {
            ByteMap::aligned(addr, size)?;
            Ok((addr..=addr + (size - 1)).fold(0, |v, a| {
                v << 8 | u64::from(self.bytes.get(&a).copied().unwrap_or(0))
            }))
        }

        fn write(&mut self, addr: u32, size: u32, value: u64) -> Result<(), SimError> {
            ByteMap::aligned(addr, size)?;
            for (k, a) in (addr..=addr + (size - 1)).enumerate() {
                if (TEXT_BASE..self.text_end).contains(&a) {
                    return Err(SimError::TextWrite { addr: a });
                }
                let shift = 8 * (size as usize - 1 - k);
                self.bytes.insert(a, (value >> shift) as u8);
            }
            Ok(())
        }
    }

    fn read(m: &mut Memory, addr: u32, size: u32) -> Result<u64, SimError> {
        match size {
            1 => m.read_u8(addr).map(u64::from),
            2 => m.read_u16(addr).map(u64::from),
            4 => m.read_u32(addr).map(u64::from),
            _ => m.read_u64(addr),
        }
    }

    fn write(m: &mut Memory, addr: u32, size: u32, value: u64) -> Result<(), SimError> {
        match size {
            1 => m.write_u8(addr, value as u8),
            2 => m.write_u16(addr, value as u16),
            4 => m.write_u32(addr, value as u32),
            _ => m.write_u64(addr, value),
        }
    }

    /// An address within 16 bytes of an edge: the text, data and bss
    /// boundaries, a stack page boundary, and both ends of the address
    /// space (which wrap into each other).
    fn arb_addr() -> impl Strategy<Value = u32> {
        let data_end = DATA_BASE + DATA.len() as u32 + BSS;
        let edges = vec![
            TEXT_BASE,
            TEXT_BASE + 4 * TEXT_WORDS,
            DATA_BASE,
            DATA_BASE + DATA.len() as u32,
            data_end,
            0x7FFF_F000,
            0,
            u32::MAX - 7,
        ];
        (prop::sample::select(edges), -16i32..16).prop_map(|(edge, d)| edge.wrapping_add(d as u32))
    }

    /// One access: (is a write, size, address, value). Three in four
    /// are aligned to their size.
    fn arb_access() -> impl Strategy<Value = (bool, u32, u32, u64)> {
        (
            any::<bool>(),
            prop::sample::select(vec![1u32, 2, 4, 8]),
            arb_addr(),
            0u32..4,
            any::<u64>(),
        )
            .prop_map(|(write, size, addr, skew, value)| {
                let addr = if skew == 0 { addr } else { addr & !(size - 1) };
                (write, size, addr, value)
            })
    }

    proptest! {
        #![proptest_config(ProptestConfig { cases: 64, ..ProptestConfig::default() })]

        /// Every read and write — aligned or not, inside the data
        /// segment, straddling its edges, in text or in demand-zero
        /// pages — returns the byte map's value or error.
        #[test]
        fn accesses_match_a_byte_map(accesses in prop::collection::vec(arb_access(), 1..64)) {
            let exe = edge_image();
            let mut m = Memory::load(&exe);
            let mut model = ByteMap::load(&exe);
            for (i, &(is_write, size, addr, value)) in accesses.iter().enumerate() {
                if is_write {
                    prop_assert_eq!(
                        write(&mut m, addr, size, value),
                        model.write(addr, size, value),
                        "access {}: {}-byte write at {:#x}", i, size, addr
                    );
                } else {
                    prop_assert_eq!(
                        read(&mut m, addr, size),
                        model.read(addr, size),
                        "access {}: {}-byte read at {:#x}", i, size, addr
                    );
                }
            }
            for (&a, &b) in &model.bytes {
                prop_assert_eq!(m.read_u8(a), Ok(b), "final byte at {:#x}", a);
            }
        }
    }
}
