//! Error type for SADL parsing and Spawn compilation.

use std::error::Error;
use std::fmt;

/// A position in SADL source text (1-based line and column).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct Pos {
    /// 1-based line number.
    pub line: u32,
    /// 1-based column number.
    pub col: u32,
}

impl fmt::Display for Pos {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}:{}", self.line, self.col)
    }
}

/// An error from lexing, parsing, or compiling a SADL description.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SadlError {
    message: String,
    pos: Option<Pos>,
}

impl SadlError {
    pub(crate) fn at(pos: Pos, message: impl Into<String>) -> SadlError {
        SadlError {
            message: message.into(),
            pos: Some(pos),
        }
    }

    pub(crate) fn new(message: impl Into<String>) -> SadlError {
        SadlError {
            message: message.into(),
            pos: None,
        }
    }

    /// This error at its own position, with `context: ` before its
    /// message.
    pub(crate) fn within(self, context: &str) -> SadlError {
        SadlError {
            message: format!("{context}: {}", self.message),
            ..self
        }
    }

    /// The source position the error refers to, when known.
    pub fn pos(&self) -> Option<Pos> {
        self.pos
    }
}

impl fmt::Display for SadlError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self.pos {
            Some(p) => write!(f, "{p}: {}", self.message),
            None => write!(f, "{}", self.message),
        }
    }
}

impl Error for SadlError {}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display_with_and_without_pos() {
        let e = SadlError::at(Pos { line: 3, col: 7 }, "unexpected token");
        assert_eq!(e.to_string(), "3:7: unexpected token");
        assert_eq!(e.pos(), Some(Pos { line: 3, col: 7 }));
        let e = SadlError::new("duplicate unit");
        assert_eq!(e.to_string(), "duplicate unit");
        assert_eq!(e.pos(), None);
    }
}
