//! Recursive-descent parser for SADL.
//!
//! The grammar follows the paper's Figure 2. All symbols (`+`, `<<`,
//! …) are ordinary names — SADL has no infix operators; application is
//! juxtaposition. The timing commands `A`, `R`, `AR`, and `D` are
//! recognized contextually: `R ALU` releases the `ALU` unit, while
//! `R[i]` indexes the register file named `R`.

use crate::ast::{Decl, Expr, SpannedDecl};
use crate::error::{Pos, SadlError};
use crate::lexer::{tokenize, Spanned, Tok};
use crate::MAX_NESTING;

pub(crate) struct Parser<'a> {
    toks: Vec<Spanned<'a>>,
    at: usize,
    /// How deep the expression being parsed nests: enclosing
    /// expressions, plus the applications it is the argument of.
    depth: u32,
    /// The declaration whose body is being parsed, as its keyword and
    /// (first) name, for the nesting error.
    decl: (&'static str, &'a str),
}

/// Parses a SADL source file into declarations.
///
/// # Errors
///
/// Returns the first lexical or syntactic error, with its position.
pub fn parse(src: &str) -> Result<Vec<SpannedDecl<'_>>, SadlError> {
    let toks = tokenize(src)?;
    let mut p = Parser {
        toks,
        at: 0,
        depth: 0,
        decl: ("", ""),
    };
    let mut decls = Vec::new();
    while !p.eof() {
        decls.push(p.decl()?);
    }
    Ok(decls)
}

impl<'a> Parser<'a> {
    fn eof(&self) -> bool {
        self.at >= self.toks.len()
    }

    fn peek(&self) -> Option<&Tok<'a>> {
        self.toks.get(self.at).map(|s| &s.tok)
    }

    fn peek2(&self) -> Option<&Tok<'a>> {
        self.toks.get(self.at + 1).map(|s| &s.tok)
    }

    fn pos(&self) -> Pos {
        self.toks
            .get(self.at)
            .or_else(|| self.toks.last())
            .map(|s| s.pos)
            .unwrap_or_default()
    }

    fn bump(&mut self) -> Option<Tok<'a>> {
        let t = self.toks.get(self.at).map(|s| s.tok);
        self.at += 1;
        t
    }

    fn expect(&mut self, want: &Tok<'a>, what: &str) -> Result<(), SadlError> {
        let pos = self.pos();
        match self.bump() {
            Some(ref t) if t == want => Ok(()),
            Some(t) => Err(SadlError::at(pos, format!("expected {what}, found {t:?}"))),
            None => Err(SadlError::at(
                pos,
                format!("expected {what}, found end of input"),
            )),
        }
    }

    fn ident(&mut self, what: &str) -> Result<&'a str, SadlError> {
        let pos = self.pos();
        match self.bump() {
            Some(Tok::Ident(s)) => Ok(s),
            Some(t) => Err(SadlError::at(pos, format!("expected {what}, found {t:?}"))),
            None => Err(SadlError::at(
                pos,
                format!("expected {what}, found end of input"),
            )),
        }
    }

    fn name(&mut self, what: &str) -> Result<&'a str, SadlError> {
        let pos = self.pos();
        match self.bump() {
            Some(Tok::Ident(s)) | Some(Tok::Sym(s)) => Ok(s),
            Some(t) => Err(SadlError::at(pos, format!("expected {what}, found {t:?}"))),
            None => Err(SadlError::at(
                pos,
                format!("expected {what}, found end of input"),
            )),
        }
    }

    fn num_u32(&mut self, what: &str) -> Result<u32, SadlError> {
        let pos = self.pos();
        match self.bump() {
            Some(Tok::Num(n)) if n >= 0 && n <= u32::MAX as i64 => Ok(n as u32),
            Some(t) => Err(SadlError::at(pos, format!("expected {what}, found {t:?}"))),
            None => Err(SadlError::at(
                pos,
                format!("expected {what}, found end of input"),
            )),
        }
    }

    fn opt_num_u32(&mut self) -> Option<u32> {
        if let Some(Tok::Num(n)) = self.peek() {
            if (0..=u32::MAX as i64).contains(n) {
                let v = *n as u32;
                self.at += 1;
                return Some(v);
            }
        }
        None
    }

    // --- declarations ----------------------------------------------------

    fn decl(&mut self) -> Result<SpannedDecl<'a>, SadlError> {
        let pos = self.pos();
        let decl = match self.peek() {
            Some(Tok::Machine) => {
                self.bump();
                let name = self.ident("machine name")?;
                let issue = self.num_u32("issue width")?;
                let clock_mhz = self.num_u32("clock (MHz)")?;
                Decl::Machine {
                    name,
                    issue,
                    clock_mhz,
                }
            }
            Some(Tok::Unit) => {
                self.bump();
                let mut units = Vec::new();
                loop {
                    let name = self.ident("unit name")?;
                    let count = self.num_u32("unit count")?;
                    units.push((name, count));
                    if self.peek() == Some(&Tok::Comma) {
                        self.bump();
                    } else {
                        break;
                    }
                }
                Decl::Unit(units)
            }
            Some(Tok::Register) => {
                self.bump();
                let (class, width) = self.ty()?;
                let name = self.ident("register file name")?;
                self.expect(&Tok::LBracket, "`[`")?;
                let count = self.num_u32("register count")?;
                self.expect(&Tok::RBracket, "`]`")?;
                Decl::Register {
                    class,
                    width,
                    name,
                    count,
                }
            }
            Some(Tok::Alias) => {
                self.bump();
                let (ty, _width) = self.ty()?;
                let name = self.ident("alias name")?;
                self.expect(&Tok::LBracket, "`[`")?;
                let param = self.ident("alias parameter")?;
                self.expect(&Tok::RBracket, "`]`")?;
                self.expect(&Tok::Is, "`is`")?;
                let body = self.body("alias", name)?;
                Decl::Alias {
                    ty,
                    name,
                    param,
                    body,
                }
            }
            Some(Tok::Val) => {
                self.bump();
                let names = self.name_list()?;
                self.expect(&Tok::Is, "`is`")?;
                let body = self.body("val", names[0])?;
                let applied = self.opt_applied()?;
                Decl::Val {
                    names,
                    body,
                    applied,
                }
            }
            Some(Tok::Sem) => {
                self.bump();
                let names = self.name_list()?;
                self.expect(&Tok::Is, "`is`")?;
                let body = self.body("sem", names[0])?;
                let applied = self.opt_applied()?;
                Decl::Sem {
                    names,
                    body,
                    applied,
                }
            }
            other => {
                return Err(SadlError::at(
                    pos,
                    format!("expected a declaration, found {other:?}"),
                ))
            }
        };
        Ok(SpannedDecl { decl, pos })
    }

    /// `ty{width}` — e.g. `untyped{32}`, `signed{32}`.
    fn ty(&mut self) -> Result<(&'a str, u32), SadlError> {
        let class = self.ident("type name")?;
        self.expect(&Tok::LBrace, "`{`")?;
        let width = self.num_u32("type width")?;
        self.expect(&Tok::RBrace, "`}`")?;
        Ok((class, width))
    }

    /// `NAME` or `[ NAME+ ]`.
    fn name_list(&mut self) -> Result<Vec<&'a str>, SadlError> {
        if self.peek() == Some(&Tok::LBracket) {
            self.bump();
            let mut names = Vec::new();
            while self.peek() != Some(&Tok::RBracket) {
                names.push(self.name("name in list")?);
            }
            self.bump();
            if names.is_empty() {
                return Err(SadlError::at(self.pos(), "empty name list"));
            }
            Ok(names)
        } else {
            Ok(vec![self.name("name")?])
        }
    }

    /// Optional `@ [ name+ ]` suffix.
    fn opt_applied(&mut self) -> Result<Option<Vec<Expr<'a>>>, SadlError> {
        if self.peek() != Some(&Tok::At) {
            return Ok(None);
        }
        self.bump();
        self.expect(&Tok::LBracket, "`[` after `@`")?;
        let mut args = Vec::new();
        while self.peek() != Some(&Tok::RBracket) {
            args.push(Expr::Name(self.name("name in `@` list")?));
        }
        self.bump();
        Ok(Some(args))
    }

    // --- expressions -------------------------------------------------------

    /// The body of the declaration `keyword name`.
    fn body(&mut self, keyword: &'static str, name: &'a str) -> Result<Expr<'a>, SadlError> {
        self.decl = (keyword, name);
        self.seq()
    }

    /// One level deeper, or the nesting error past [`MAX_NESTING`].
    fn deeper(&mut self) -> Result<(), SadlError> {
        if self.depth == MAX_NESTING {
            let (keyword, name) = self.decl;
            return Err(SadlError::at(
                self.pos(),
                format!("in {keyword} `{name}`: expressions nest deeper than {MAX_NESTING} levels"),
            ));
        }
        self.depth += 1;
        Ok(())
    }

    /// Comma-separated sequence of elements.
    fn seq(&mut self) -> Result<Expr<'a>, SadlError> {
        let mut elems = vec![self.element()?];
        while self.peek() == Some(&Tok::Comma) {
            self.bump();
            elems.push(self.element()?);
        }
        if elems.len() == 1 {
            Ok(elems.pop().expect("non-empty"))
        } else {
            Ok(Expr::Seq(elems))
        }
    }

    /// A sequence element: `x := e`, `T[i] := e`, or a ternary expression.
    fn element(&mut self) -> Result<Expr<'a>, SadlError> {
        // `x := e`
        if let (Some(Tok::Ident(_)), Some(Tok::Assign)) = (self.peek(), self.peek2()) {
            let name = self.ident("binding name")?;
            self.bump(); // :=
            let value = self.ternary()?;
            return Ok(Expr::Bind(name, Box::new(value)));
        }
        // `T[i] := e` — scan for the bracket-assign shape.
        if let (Some(Tok::Ident(_)), Some(Tok::LBracket)) = (self.peek(), self.peek2()) {
            if let Some(close) = self.matching_bracket(self.at + 1) {
                if self.toks.get(close + 1).map(|s| &s.tok) == Some(&Tok::Assign) {
                    let target = self.ident("write target")?;
                    self.bump(); // [
                    let index = self.ternary()?;
                    self.expect(&Tok::RBracket, "`]`")?;
                    self.bump(); // :=
                    let value = self.ternary()?;
                    return Ok(Expr::WriteReg {
                        target,
                        index: Box::new(index),
                        value: Box::new(value),
                    });
                }
            }
        }
        self.ternary()
    }

    /// Index of the `]` matching the `[` at token index `open`.
    fn matching_bracket(&self, open: usize) -> Option<usize> {
        let mut depth = 0usize;
        for (i, s) in self.toks.iter().enumerate().skip(open) {
            match s.tok {
                Tok::LBracket => depth += 1,
                Tok::RBracket => {
                    depth -= 1;
                    if depth == 0 {
                        return Some(i);
                    }
                }
                _ => {}
            }
        }
        None
    }

    /// A conditional, one level deeper. Every recursion of the parser
    /// passes through here, so this bounds its depth.
    fn ternary(&mut self) -> Result<Expr<'a>, SadlError> {
        self.deeper()?;
        let e = self.conditional();
        self.depth -= 1;
        e
    }

    fn conditional(&mut self) -> Result<Expr<'a>, SadlError> {
        let cond = self.cmp()?;
        if self.peek() == Some(&Tok::Question) {
            self.bump();
            let t = self.ternary()?;
            self.expect(&Tok::Colon, "`:` in conditional")?;
            let f = self.ternary()?;
            Ok(Expr::Ternary(Box::new(cond), Box::new(t), Box::new(f)))
        } else {
            Ok(cond)
        }
    }

    fn cmp(&mut self) -> Result<Expr<'a>, SadlError> {
        let lhs = self.app()?;
        if self.peek() == Some(&Tok::Eq) {
            self.bump();
            let rhs = self.app()?;
            Ok(Expr::Eq(Box::new(lhs), Box::new(rhs)))
        } else {
            Ok(lhs)
        }
    }

    fn starts_atom(tok: &Tok) -> bool {
        matches!(
            tok,
            Tok::Num(_) | Tok::LParen | Tok::Ident(_) | Tok::Sym(_) | Tok::Hash | Tok::Backslash
        )
    }

    /// Juxtaposition, left-associative: `f a b` is `(f a) b`. Each
    /// argument nests the application one level deeper, as Spawn
    /// evaluates it.
    fn app(&mut self) -> Result<Expr<'a>, SadlError> {
        let depth = self.depth;
        let mut e = self.atom()?;
        while let Some(t) = self.peek() {
            if Self::starts_atom(t) {
                self.deeper()?;
                let arg = self.atom()?;
                e = Expr::Apply(Box::new(e), Box::new(arg));
            } else {
                break;
            }
        }
        self.depth = depth;
        Ok(e)
    }

    fn atom(&mut self) -> Result<Expr<'a>, SadlError> {
        let pos = self.pos();
        match self.peek().copied() {
            Some(Tok::Num(n)) => {
                self.bump();
                Ok(Expr::Num(n))
            }
            Some(Tok::LParen) => {
                self.bump();
                if self.peek() == Some(&Tok::RParen) {
                    self.bump();
                    return Ok(Expr::UnitLit);
                }
                let e = self.seq()?;
                self.expect(&Tok::RParen, "`)`")?;
                Ok(e)
            }
            Some(Tok::Backslash) => {
                self.bump();
                let param = self.ident("lambda parameter")?;
                self.expect(&Tok::Dot, "`.` after lambda parameter")?;
                let body = self.seq()?;
                Ok(Expr::Lambda(param, Box::new(body)))
            }
            Some(Tok::Hash) => {
                self.bump();
                let field = self.ident("field name after `#`")?;
                Ok(Expr::Field(field))
            }
            Some(Tok::Sym(s)) => {
                self.bump();
                Ok(Expr::Name(s))
            }
            Some(Tok::Ident(id)) => {
                // Timing commands are recognized contextually.
                match id {
                    "A" | "AR" | "R" if matches!(self.peek2(), Some(Tok::Ident(_))) => {
                        self.bump();
                        let unit = self.ident("unit name")?;
                        let num = self.opt_num_u32().unwrap_or(1);
                        if id == "AR" {
                            let delay = self.opt_num_u32().unwrap_or(1);
                            return Ok(Expr::AcquireRelease { unit, num, delay });
                        }
                        if id == "A" {
                            return Ok(Expr::Acquire { unit, num });
                        }
                        return Ok(Expr::Release { unit, num });
                    }
                    "D"
                        // `D` is a delay unless followed by `[` (a
                        // register file named D would be unusual).
                        if self.peek2() != Some(&Tok::LBracket) => {
                            self.bump();
                            let n = self.opt_num_u32().unwrap_or(1);
                            return Ok(Expr::Delay(n));
                        }
                    _ => {}
                }
                self.bump();
                if self.peek() == Some(&Tok::LBracket) {
                    self.bump();
                    let idx = self.ternary()?;
                    self.expect(&Tok::RBracket, "`]`")?;
                    Ok(Expr::Index(id, Box::new(idx)))
                } else {
                    Ok(Expr::Name(id))
                }
            }
            other => Err(SadlError::at(
                pos,
                format!("expected an expression, found {other:?}"),
            )),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn one(src: &str) -> Decl<'_> {
        let mut d = parse(src).unwrap();
        assert_eq!(d.len(), 1, "expected one decl");
        d.pop().unwrap().decl
    }

    #[test]
    fn parse_machine() {
        assert_eq!(
            one("machine hyperSPARC 2 66"),
            Decl::Machine {
                name: "hyperSPARC",
                issue: 2,
                clock_mhz: 66
            }
        );
    }

    #[test]
    fn parse_units() {
        assert_eq!(
            one("unit ALU 1, ALUr 2, ALUw 1"),
            Decl::Unit(vec![("ALU", 1), ("ALUr", 2), ("ALUw", 1)])
        );
    }

    #[test]
    fn parse_register() {
        assert_eq!(
            one("register untyped{32} R[32]"),
            Decl::Register {
                class: "untyped",
                width: 32,
                name: "R",
                count: 32
            }
        );
    }

    #[test]
    fn parse_alias() {
        let d = one("alias signed{32} R4r[i] is AR ALUr, R[i]");
        match d {
            Decl::Alias {
                name, param, body, ..
            } => {
                assert_eq!(name, "R4r");
                assert_eq!(param, "i");
                assert_eq!(
                    body,
                    Expr::Seq(vec![
                        Expr::AcquireRelease {
                            unit: "ALUr",
                            num: 1,
                            delay: 1
                        },
                        Expr::Index("R", Box::new(Expr::Name("i"))),
                    ])
                );
            }
            other => panic!("not an alias: {other:?}"),
        }
    }

    #[test]
    fn parse_val_multi() {
        let d = one("val multi is AR Group, ()");
        match d {
            Decl::Val {
                names,
                body,
                applied,
            } => {
                assert_eq!(names, vec!["multi"]);
                assert!(applied.is_none());
                assert_eq!(
                    body,
                    Expr::Seq(vec![
                        Expr::AcquireRelease {
                            unit: "Group",
                            num: 1,
                            delay: 1
                        },
                        Expr::UnitLit,
                    ])
                );
            }
            other => panic!("not a val: {other:?}"),
        }
    }

    #[test]
    fn parse_val_single_with_count() {
        let d = one("val single is AR Group 2, ()");
        match d {
            Decl::Val { body, .. } => assert_eq!(
                body,
                Expr::Seq(vec![
                    Expr::AcquireRelease {
                        unit: "Group",
                        num: 2,
                        delay: 1
                    },
                    Expr::UnitLit,
                ])
            ),
            other => panic!("not a val: {other:?}"),
        }
    }

    #[test]
    fn parse_operator_val_with_macro_list() {
        let d =
            one(r"val [ + - ] is (\op.\a.\b. A ALU, x:=op a b, D 1, R ALU, x) @ [ add32 sub32 ]");
        match d {
            Decl::Val { names, applied, .. } => {
                assert_eq!(names, vec!["+", "-"]);
                assert_eq!(
                    applied,
                    Some(vec![Expr::Name("add32"), Expr::Name("sub32")])
                );
            }
            other => panic!("not a val: {other:?}"),
        }
    }

    #[test]
    fn parse_conditional_src2() {
        let d = one("val src2 is iflag = 1 ? #simm13 : R4r[rs2]");
        match d {
            Decl::Val { body, .. } => assert_eq!(
                body,
                Expr::Ternary(
                    Box::new(Expr::Eq(
                        Box::new(Expr::Name("iflag")),
                        Box::new(Expr::Num(1)),
                    )),
                    Box::new(Expr::Field("simm13")),
                    Box::new(Expr::Index("R4r", Box::new(Expr::Name("rs2")))),
                )
            ),
            other => panic!("not a val: {other:?}"),
        }
    }

    #[test]
    fn parse_sem_with_writes() {
        let d = one(
            r"sem [ add sub ] is (\op. multi, D 1, s1:=R4r[rs1], s2:=src2, R4w[rd]:=op s1 s2) @ [ + - ]",
        );
        match d {
            Decl::Sem {
                names,
                body,
                applied,
            } => {
                assert_eq!(names, vec!["add", "sub"]);
                assert_eq!(applied.as_ref().map(Vec::len), Some(2));
                // The body is a lambda whose seq ends in a register write.
                match body {
                    Expr::Lambda(p, inner) => {
                        assert_eq!(p, "op");
                        match *inner {
                            Expr::Seq(ref elems) => {
                                assert!(matches!(elems.last(), Some(Expr::WriteReg { .. })));
                            }
                            ref other => panic!("lambda body not a seq: {other:?}"),
                        }
                    }
                    other => panic!("body not a lambda: {other:?}"),
                }
            }
            other => panic!("not a sem: {other:?}"),
        }
    }

    #[test]
    fn delay_default_is_one() {
        let d = one("val adv is D, ()");
        match d {
            Decl::Val { body, .. } => {
                assert_eq!(body, Expr::Seq(vec![Expr::Delay(1), Expr::UnitLit]))
            }
            other => panic!("{other:?}"),
        }
    }

    #[test]
    fn release_vs_index_disambiguation() {
        // `R ALU` is a release; `R[i]` indexes register file R.
        let d = one("val x is R ALU 2");
        match d {
            Decl::Val { body, .. } => {
                assert_eq!(
                    body,
                    Expr::Release {
                        unit: "ALU",
                        num: 2
                    }
                )
            }
            other => panic!("{other:?}"),
        }
        let d = one("val y is R[rs1]");
        match d {
            Decl::Val { body, .. } => {
                assert_eq!(body, Expr::Index("R", Box::new(Expr::Name("rs1"))))
            }
            other => panic!("{other:?}"),
        }
    }

    #[test]
    fn errors_carry_positions() {
        let err = parse("unit ALU").unwrap_err();
        assert!(err.pos().is_some());
        let err = parse("val x is").unwrap_err();
        assert!(err.to_string().contains("expected an expression"));
    }

    #[test]
    fn multiple_decls() {
        let ds = parse("unit ALU 1\nregister untyped{32} R[32]\nval x is 1").unwrap();
        assert_eq!(ds.len(), 3);
    }

    #[test]
    fn ar_with_num_and_delay() {
        let d = one("val x is AR LSU 1 2");
        match d {
            Decl::Val { body, .. } => assert_eq!(
                body,
                Expr::AcquireRelease {
                    unit: "LSU",
                    num: 1,
                    delay: 2
                }
            ),
            other => panic!("{other:?}"),
        }
    }
}
