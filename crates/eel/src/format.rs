//! The on-disk container format for [`Executable`] images (`.eelx`).
//!
//! EEL consumed SunOS binaries through `libbfd`; this reproduction
//! defines its own minimal container so edited executables can be
//! written to disk, shipped between tools, and loaded back. The format
//! is big-endian (SPARC spirit) and versioned:
//!
//! ```text
//! magic  "EELX"                    4 bytes
//! version u32                      (currently 1)
//! text_base u32, text_words u32,   then the instruction words
//! data_base u32, data_bytes u32,   then the initialized data
//! bss_size u32
//! entry u32
//! nsyms u32, then per symbol: addr u32, name_len u32, name bytes
//! ```

use std::error::Error;
use std::fmt;

use crate::image::{Executable, Symbol};

/// Magic bytes opening every `.eelx` file.
pub const MAGIC: &[u8; 4] = b"EELX";
/// Current format version.
pub const VERSION: u32 = 1;

/// An error decoding a `.eelx` image.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum FormatError {
    /// The file does not start with the `EELX` magic.
    BadMagic,
    /// The version is unsupported.
    BadVersion(u32),
    /// The file ended before a field was complete.
    Truncated {
        /// What was being read.
        what: &'static str,
    },
    /// A symbol name is not valid UTF-8.
    BadSymbolName,
    /// Trailing bytes after the image.
    TrailingBytes(usize),
    /// The fields decode but break an image invariant (see
    /// [`Executable::new`]); the payload says which.
    Invalid(String),
}

impl fmt::Display for FormatError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            FormatError::BadMagic => write!(f, "not an EELX image (bad magic)"),
            FormatError::BadVersion(v) => write!(f, "unsupported EELX version {v}"),
            FormatError::Truncated { what } => write!(f, "truncated while reading {what}"),
            FormatError::BadSymbolName => write!(f, "symbol name is not valid UTF-8"),
            FormatError::TrailingBytes(n) => write!(f, "{n} trailing bytes after the image"),
            FormatError::Invalid(why) => write!(f, "invalid image: {why}"),
        }
    }
}

impl Error for FormatError {}

struct Reader<'a> {
    bytes: &'a [u8],
    at: usize,
}

impl<'a> Reader<'a> {
    /// A capacity for `count` items of at least `size` bytes each that
    /// the rest of the input can actually hold, so a corrupt count
    /// cannot reserve more memory than the file could fill.
    fn capacity(&self, count: usize, size: usize) -> usize {
        count.min((self.bytes.len() - self.at) / size)
    }

    fn take(&mut self, n: usize, what: &'static str) -> Result<&'a [u8], FormatError> {
        if self.at + n > self.bytes.len() {
            return Err(FormatError::Truncated { what });
        }
        let s = &self.bytes[self.at..self.at + n];
        self.at += n;
        Ok(s)
    }

    fn u32(&mut self, what: &'static str) -> Result<u32, FormatError> {
        let b = self.take(4, what)?;
        Ok(u32::from_be_bytes(b.try_into().expect("4 bytes")))
    }
}

impl Executable {
    /// Serializes the image into the `.eelx` container format.
    pub fn to_bytes(&self) -> Vec<u8> {
        let mut out = Vec::with_capacity(32 + 4 * self.text_len() + self.data().len());
        out.extend_from_slice(MAGIC);
        out.extend_from_slice(&VERSION.to_be_bytes());
        out.extend_from_slice(&self.text_base().to_be_bytes());
        out.extend_from_slice(&(self.text_len() as u32).to_be_bytes());
        for &w in self.text() {
            out.extend_from_slice(&w.to_be_bytes());
        }
        out.extend_from_slice(&self.data_base().to_be_bytes());
        out.extend_from_slice(&(self.data().len() as u32).to_be_bytes());
        out.extend_from_slice(self.data());
        out.extend_from_slice(&self.bss_size().to_be_bytes());
        out.extend_from_slice(&self.entry().to_be_bytes());
        out.extend_from_slice(&(self.symbols().len() as u32).to_be_bytes());
        for s in self.symbols() {
            out.extend_from_slice(&s.addr.to_be_bytes());
            out.extend_from_slice(&(s.name.len() as u32).to_be_bytes());
            out.extend_from_slice(s.name.as_bytes());
        }
        out
    }

    /// Deserializes an image from the `.eelx` container format.
    ///
    /// ```
    /// use eel_edit::Executable;
    ///
    /// let exe = Executable::from_words(0x10000, vec![0x0100_0000]);
    /// let bytes = exe.to_bytes();
    /// assert_eq!(Executable::from_bytes(&bytes)?, exe);
    /// # Ok::<(), eel_edit::FormatError>(())
    /// ```
    ///
    /// # Errors
    ///
    /// Returns a [`FormatError`] on malformed input, including fields
    /// that decode but violate an invariant [`Executable::new`] enforces
    /// ([`FormatError::Invalid`]).
    pub fn from_bytes(bytes: &[u8]) -> Result<Executable, FormatError> {
        let mut r = Reader { bytes, at: 0 };
        if r.take(4, "magic")? != MAGIC {
            return Err(FormatError::BadMagic);
        }
        let version = r.u32("version")?;
        if version != VERSION {
            return Err(FormatError::BadVersion(version));
        }
        let text_base = r.u32("text base")?;
        let text_words = r.u32("text length")? as usize;
        let mut text = Vec::with_capacity(r.capacity(text_words, 4));
        for _ in 0..text_words {
            text.push(r.u32("text word")?);
        }
        let data_base = r.u32("data base")?;
        let data_len = r.u32("data length")? as usize;
        let data = r.take(data_len, "data bytes")?.to_vec();
        let bss = r.u32("bss size")?;
        let entry = r.u32("entry point")?;
        let nsyms = r.u32("symbol count")? as usize;
        let mut symbols = Vec::with_capacity(r.capacity(nsyms, 8));
        for _ in 0..nsyms {
            let addr = r.u32("symbol address")?;
            let len = r.u32("symbol name length")? as usize;
            let name = std::str::from_utf8(r.take(len, "symbol name")?)
                .map_err(|_| FormatError::BadSymbolName)?
                .to_string();
            symbols.push(Symbol { name, addr });
        }
        if r.at != bytes.len() {
            return Err(FormatError::TrailingBytes(bytes.len() - r.at));
        }
        Executable::try_new(text_base, text, data_base, data, bss, entry, symbols)
            .map_err(FormatError::Invalid)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use eel_sparc::{Assembler, IntReg, Operand};

    fn sample() -> Executable {
        let mut a = Assembler::new();
        a.mov(Operand::imm(1), IntReg::O0);
        a.retl();
        a.nop();
        let words: Vec<u32> = a.finish().unwrap().iter().map(|i| i.encode()).collect();
        let mut exe = Executable::new(
            0x10000,
            words,
            0x80_0000,
            vec![1, 2, 3, 4],
            64,
            0x10000,
            vec![
                Symbol {
                    name: "main".into(),
                    addr: 0x10000,
                },
                Symbol {
                    name: "tail".into(),
                    addr: 0x10008,
                },
            ],
        );
        let _ = exe.reserve_bss(0);
        exe
    }

    #[test]
    fn roundtrip() {
        let exe = sample();
        let back = Executable::from_bytes(&exe.to_bytes()).unwrap();
        assert_eq!(back, exe);
    }

    #[test]
    fn bad_magic_rejected() {
        assert_eq!(Executable::from_bytes(b"NOPE"), Err(FormatError::BadMagic));
    }

    #[test]
    fn bad_version_rejected() {
        let mut b = sample().to_bytes();
        b[7] = 9;
        assert_eq!(Executable::from_bytes(&b), Err(FormatError::BadVersion(9)));
    }

    #[test]
    fn truncation_rejected_everywhere() {
        let full = sample().to_bytes();
        for cut in [3, 6, 10, 14, 20, full.len() - 1] {
            let err = Executable::from_bytes(&full[..cut]).unwrap_err();
            assert!(matches!(
                err,
                FormatError::Truncated { .. } | FormatError::BadMagic
            ));
        }
    }

    #[test]
    fn trailing_bytes_rejected() {
        let mut b = sample().to_bytes();
        b.push(0);
        assert_eq!(
            Executable::from_bytes(&b),
            Err(FormatError::TrailingBytes(1))
        );
    }

    /// A header bit flip that misaligns the text base (0x10000 →
    /// 0x10002) is a typed error, not a panic.
    #[test]
    fn misaligned_text_base_rejected() {
        let mut b = sample().to_bytes();
        assert_eq!(b[8..12], 0x10000u32.to_be_bytes());
        b[11] ^= 0x02;
        assert_eq!(
            Executable::from_bytes(&b),
            Err(FormatError::Invalid(
                "text base must be word aligned".into()
            ))
        );
    }

    /// Every other invariant `Executable::new` enforces is a typed
    /// error too.
    #[test]
    fn invariant_violations_rejected() {
        let field = |b: &mut Vec<u8>, at: usize, v: u32| {
            b[at..at + 4].copy_from_slice(&v.to_be_bytes());
        };
        let exe = sample();
        let text_bytes = 4 * exe.text_len();
        let data_base_at = 16 + text_bytes;
        let entry_at = data_base_at + 8 + exe.data().len() + 4;
        let cases: [(usize, u32, &str); 4] = [
            (data_base_at, 0x80_0002, "data base must be word aligned"),
            (data_base_at, 0x1_0004, "text overlaps data segment"),
            (entry_at, 0x20000, "entry point 0x20000 outside text"),
            (entry_at - 4, u32::MAX, "past the end of the address space"),
        ];
        for (at, v, why) in cases {
            let mut b = exe.to_bytes();
            field(&mut b, at, v);
            match Executable::from_bytes(&b) {
                Err(FormatError::Invalid(got)) => assert!(got.contains(why), "{got}"),
                other => panic!("{why}: {other:?}"),
            }
        }
        // A symbol outside text.
        let mut b = exe.to_bytes();
        let sym_at = entry_at + 8;
        field(&mut b, sym_at, 0x90_0000);
        assert!(matches!(
            Executable::from_bytes(&b),
            Err(FormatError::Invalid(_))
        ));
    }

    /// A bss that fits the address space but not the image limit is a
    /// typed error, not a multi-gigabyte zero fill at load time.
    #[test]
    fn hostile_bss_size_rejected() {
        let exe = sample();
        let bss_at = 16 + 4 * exe.text_len() + 8 + exe.data().len();
        let mut b = exe.to_bytes();
        assert_eq!(b[bss_at..bss_at + 4], exe.bss_size().to_be_bytes());
        b[bss_at..bss_at + 4].copy_from_slice(&0xF000_0000u32.to_be_bytes());
        match Executable::from_bytes(&b) {
            Err(FormatError::Invalid(why)) => assert!(why.contains("image limit"), "{why}"),
            other => panic!("{other:?}"),
        }
    }

    /// A text-length field of 0xFFFFFFF0 reserves no more than the
    /// file could fill before the reader finds the truncation.
    #[test]
    fn huge_text_length_is_truncation_not_abort() {
        let mut b = sample().to_bytes();
        b[12..16].copy_from_slice(&0xFFFF_FFF0u32.to_be_bytes());
        assert!(matches!(
            Executable::from_bytes(&b),
            Err(FormatError::Truncated { .. })
        ));
        let mut b = sample().to_bytes();
        let n = b.len();
        // The symbol count is the last field before the symbols.
        let nsyms_at = n - (4 + 4 + 4) - (4 + 4 + 4) - 4;
        assert_eq!(b[nsyms_at..nsyms_at + 4], 2u32.to_be_bytes());
        b[nsyms_at..nsyms_at + 4].copy_from_slice(&u32::MAX.to_be_bytes());
        assert!(matches!(
            Executable::from_bytes(&b),
            Err(FormatError::Truncated { .. })
        ));
    }

    #[test]
    fn bad_symbol_name_rejected() {
        let exe = sample();
        let mut b = exe.to_bytes();
        // Corrupt the last symbol-name byte with invalid UTF-8.
        let n = b.len();
        b[n - 1] = 0xFF;
        assert_eq!(Executable::from_bytes(&b), Err(FormatError::BadSymbolName));
    }
}
