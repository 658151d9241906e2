//! Tokenizer for SADL source text.

use crate::error::{Pos, SadlError};

/// A lexical token. Names borrow their text from the source, so
/// tokenizing allocates nothing per token.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Tok<'a> {
    /// Alphanumeric identifier (`ALU`, `rs1`, `add32`).
    Ident(&'a str),
    /// Symbolic identifier usable as a `val` name (`+`, `<<`, `|`).
    Sym(&'a str),
    /// Decimal or hexadecimal integer literal.
    Num(i64),
    /// Keyword `machine`.
    Machine,
    /// Keyword `unit`.
    Unit,
    /// Keyword `register`.
    Register,
    /// Keyword `alias`.
    Alias,
    /// Keyword `val`.
    Val,
    /// Keyword `sem`.
    Sem,
    /// Keyword `is`.
    Is,
    LParen,
    RParen,
    LBracket,
    RBracket,
    LBrace,
    RBrace,
    Comma,
    Question,
    Colon,
    /// `:=`
    Assign,
    /// `=`
    Eq,
    /// `.` (lambda body separator)
    Dot,
    /// `\` (lambda)
    Backslash,
    /// `#` (instruction-field reference)
    Hash,
    /// `@` (macro list application)
    At,
}

/// A token together with its source position.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Spanned<'a> {
    pub tok: Tok<'a>,
    pub pos: Pos,
}

/// Tokenizes SADL source. `//` comments run to end of line.
///
/// SADL's alphabet is ASCII, so the scan runs over bytes: outside a
/// comment, the first non-ASCII character is an error at its own
/// position, and a comment's text only runs to the newline that resets
/// the column.
///
/// # Errors
///
/// Returns an error on characters outside the SADL alphabet or
/// malformed numbers.
pub fn tokenize(src: &str) -> Result<Vec<Spanned<'_>>, SadlError> {
    let bytes = src.as_bytes();
    // The end of the run of bytes from `i` on that satisfy `pred`.
    let run = |mut i: usize, pred: fn(u8) -> bool| {
        while i < bytes.len() && pred(bytes[i]) {
            i += 1;
        }
        i
    };
    let mut out = Vec::new();
    let mut i = 0;
    let mut line = 1u32;
    let mut col = 1u32;
    while let Some(&c) = bytes.get(i) {
        let pos = Pos { line, col };
        let start = i;
        i += 1;
        let tok = match c {
            b'\n' => {
                line += 1;
                col = 1;
                continue;
            }
            b' ' | b'\t' | b'\r' => {
                col += 1;
                continue;
            }
            b'/' if bytes.get(i) == Some(&b'/') => {
                i = run(i, |b| b != b'\n');
                continue;
            }
            // `/` as a symbolic name (division operator).
            b'/' => Tok::Sym("/"),
            b'a'..=b'z' | b'A'..=b'Z' | b'_' => {
                i = run(i, |b| b.is_ascii_alphanumeric() || b == b'_');
                match &src[start..i] {
                    "machine" => Tok::Machine,
                    "unit" => Tok::Unit,
                    "register" => Tok::Register,
                    "alias" => Tok::Alias,
                    "val" => Tok::Val,
                    "sem" => Tok::Sem,
                    "is" => Tok::Is,
                    s => Tok::Ident(s),
                }
            }
            b'0'..=b'9' => {
                i = run(i, |b| b.is_ascii_alphanumeric());
                let s = &src[start..i];
                let v = if let Some(hex) = s.strip_prefix("0x").or_else(|| s.strip_prefix("0X")) {
                    i64::from_str_radix(hex, 16)
                } else {
                    s.parse()
                };
                match v {
                    Ok(n) => Tok::Num(n),
                    Err(_) => return Err(SadlError::at(pos, format!("malformed number `{s}`"))),
                }
            }
            b':' if bytes.get(i) == Some(&b'=') => {
                i += 1;
                Tok::Assign
            }
            b':' => Tok::Colon,
            b'+' | b'-' | b'*' | b'&' | b'|' | b'^' | b'~' | b'<' | b'>' | b'%' | b'!' => {
                // Runs of operator characters form one symbolic name
                // (`<<`, `>>`, `>>a` is spelled `>>>` instead).
                i = run(i, |b| b"+-*&|^~<>%!".contains(&b));
                Tok::Sym(&src[start..i])
            }
            b'(' => Tok::LParen,
            b')' => Tok::RParen,
            b'[' => Tok::LBracket,
            b']' => Tok::RBracket,
            b'{' => Tok::LBrace,
            b'}' => Tok::RBrace,
            b',' => Tok::Comma,
            b'?' => Tok::Question,
            b'=' => Tok::Eq,
            b'.' => Tok::Dot,
            b'\\' => Tok::Backslash,
            b'#' => Tok::Hash,
            b'@' => Tok::At,
            _ => {
                let other = src[start..]
                    .chars()
                    .next()
                    .expect("a character starts here");
                return Err(SadlError::at(
                    pos,
                    format!("unexpected character `{other}`"),
                ));
            }
        };
        col += (i - start) as u32;
        out.push(Spanned { tok, pos });
    }
    Ok(out)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn toks(src: &str) -> Vec<Tok<'_>> {
        tokenize(src).unwrap().into_iter().map(|s| s.tok).collect()
    }

    #[test]
    fn keywords_and_idents() {
        assert_eq!(
            toks("unit ALU 1, ALUr 2"),
            vec![
                Tok::Unit,
                Tok::Ident("ALU"),
                Tok::Num(1),
                Tok::Comma,
                Tok::Ident("ALUr"),
                Tok::Num(2),
            ]
        );
    }

    #[test]
    fn comments_skipped() {
        assert_eq!(
            toks("// a comment\nval x is 1"),
            vec![Tok::Val, Tok::Ident("x"), Tok::Is, Tok::Num(1),]
        );
    }

    #[test]
    fn symbolic_operators_group() {
        assert_eq!(
            toks("[ + - << >> >>> ]"),
            vec![
                Tok::LBracket,
                Tok::Sym("+"),
                Tok::Sym("-"),
                Tok::Sym("<<"),
                Tok::Sym(">>"),
                Tok::Sym(">>>"),
                Tok::RBracket,
            ]
        );
    }

    #[test]
    fn assign_vs_colon() {
        assert_eq!(
            toks("x := a ? b : c"),
            vec![
                Tok::Ident("x"),
                Tok::Assign,
                Tok::Ident("a"),
                Tok::Question,
                Tok::Ident("b"),
                Tok::Colon,
                Tok::Ident("c"),
            ]
        );
    }

    #[test]
    fn lambda_tokens() {
        assert_eq!(
            toks(r"(\op.\a. op a)"),
            vec![
                Tok::LParen,
                Tok::Backslash,
                Tok::Ident("op"),
                Tok::Dot,
                Tok::Backslash,
                Tok::Ident("a"),
                Tok::Dot,
                Tok::Ident("op"),
                Tok::Ident("a"),
                Tok::RParen,
            ]
        );
    }

    #[test]
    fn hex_numbers() {
        assert_eq!(toks("0x10"), vec![Tok::Num(16)]);
    }

    #[test]
    fn malformed_number_errors() {
        let err = tokenize("0xZZ").unwrap_err();
        assert!(err.to_string().contains("malformed number"));
    }

    #[test]
    fn positions_track_lines() {
        let spanned = tokenize("unit\n  ALU 1").unwrap();
        assert_eq!(spanned[0].pos, Pos { line: 1, col: 1 });
        assert_eq!(spanned[1].pos, Pos { line: 2, col: 3 });
    }

    #[test]
    fn unexpected_character_errors() {
        assert!(tokenize("val x is $").is_err());
    }

    #[test]
    fn field_and_at_tokens() {
        assert_eq!(
            toks("#simm13 @ [ add32 ]"),
            vec![
                Tok::Hash,
                Tok::Ident("simm13"),
                Tok::At,
                Tok::LBracket,
                Tok::Ident("add32"),
                Tok::RBracket,
            ]
        );
    }
}
