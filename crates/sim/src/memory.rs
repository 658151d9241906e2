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
    pub fn read_u32(&mut self, addr: u32) -> Result<u32, SimError> {
        if !addr.is_multiple_of(4) {
            return Err(SimError::Unaligned { addr, size: 4 });
        }
        if let Some(i) = self.data_offset(addr, 4) {
            return Ok(u32::from_be_bytes(
                self.data[i..i + 4].try_into().expect("4 bytes"),
            ));
        }
        let mut v = 0u32;
        for k in 0..4 {
            v = v << 8 | u32::from(self.read_u8(addr + k)?);
        }
        Ok(v)
    }

    /// Writes a 32-bit word (must be 4-aligned).
    pub fn write_u32(&mut self, addr: u32, value: u32) -> Result<(), SimError> {
        if !addr.is_multiple_of(4) {
            return Err(SimError::Unaligned { addr, size: 4 });
        }
        if let Some(i) = self.data_offset(addr, 4) {
            self.data[i..i + 4].copy_from_slice(&value.to_be_bytes());
            return Ok(());
        }
        for k in 0..4 {
            self.write_u8(addr + k, (value >> (8 * (3 - k))) as u8)?;
        }
        Ok(())
    }

    /// Reads a 64-bit doubleword (must be 8-aligned).
    pub fn read_u64(&mut self, addr: u32) -> Result<u64, SimError> {
        if !addr.is_multiple_of(8) {
            return Err(SimError::Unaligned { addr, size: 8 });
        }
        if let Some(i) = self.data_offset(addr, 8) {
            return Ok(u64::from_be_bytes(
                self.data[i..i + 8].try_into().expect("8 bytes"),
            ));
        }
        Ok(u64::from(self.read_u32(addr)?) << 32 | u64::from(self.read_u32(addr + 4)?))
    }

    /// Writes a 64-bit doubleword (must be 8-aligned).
    pub fn write_u64(&mut self, addr: u32, value: u64) -> Result<(), SimError> {
        if !addr.is_multiple_of(8) {
            return Err(SimError::Unaligned { addr, size: 8 });
        }
        if let Some(i) = self.data_offset(addr, 8) {
            self.data[i..i + 8].copy_from_slice(&value.to_be_bytes());
            return Ok(());
        }
        self.write_u32(addr, (value >> 32) as u32)?;
        self.write_u32(addr + 4, value as u32)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use eel_sparc::Instruction;

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
}
