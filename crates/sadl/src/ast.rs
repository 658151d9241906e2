//! Abstract syntax for SADL descriptions.
//!
//! Every name borrows its text from the source the declarations were
//! parsed from, so parsing allocates nothing per identifier, and the
//! Spawn compiler shares lambda and macro bodies by reference into the
//! parsed declarations instead of copying them.

use crate::error::Pos;

/// A SADL expression.
#[derive(Debug, Clone, PartialEq, Eq)]
#[allow(missing_docs)]
pub enum Expr<'a> {
    /// Integer literal.
    Num(i64),
    /// `()` — the unit value.
    UnitLit,
    /// A name: a `val`, lambda parameter, primitive, register file,
    /// alias, or instruction field.
    Name(&'a str),
    /// `#field` — the value of an instruction field (e.g. `#simm13`).
    Field(&'a str),
    /// `N[e]` — indexed access to a register file or alias.
    Index(&'a str, Box<Expr<'a>>),
    /// `\x. body`.
    Lambda(&'a str, Box<Expr<'a>>),
    /// Juxtaposition application `f x`.
    Apply(Box<Expr<'a>>, Box<Expr<'a>>),
    /// Comma-separated sequence; value is the last element's value.
    Seq(Vec<Expr<'a>>),
    /// `c ? t : f`.
    Ternary(Box<Expr<'a>>, Box<Expr<'a>>, Box<Expr<'a>>),
    /// `a = b` comparison.
    Eq(Box<Expr<'a>>, Box<Expr<'a>>),
    /// `A unit n` — acquire `n` copies of a unit (stall until free).
    Acquire { unit: &'a str, num: u32 },
    /// `AR unit n d` — acquire `n` copies now, release them after `d`
    /// cycles.
    AcquireRelease { unit: &'a str, num: u32, delay: u32 },
    /// `R unit n` — release `n` copies of a unit.
    Release { unit: &'a str, num: u32 },
    /// `D n` — advance the pipeline `n` cycles.
    Delay(u32),
    /// `x := e` — bind `x` for the rest of the enclosing sequence.
    Bind(&'a str, Box<Expr<'a>>),
    /// `T[i] := e` — write a register file or alias.
    WriteReg {
        target: &'a str,
        index: Box<Expr<'a>>,
        value: Box<Expr<'a>>,
    },
}

/// A top-level declaration.
#[derive(Debug, Clone, PartialEq, Eq)]
#[allow(missing_docs)]
pub enum Decl<'a> {
    /// `machine NAME issue clockMHz`.
    Machine {
        name: &'a str,
        issue: u32,
        clock_mhz: u32,
    },
    /// `unit N c, M c2, …`.
    Unit(Vec<(&'a str, u32)>),
    /// `register ty{w} NAME[count]`.
    Register {
        class: &'a str,
        width: u32,
        name: &'a str,
        count: u32,
    },
    /// `alias ty{w} NAME[param] is body`.
    Alias {
        ty: &'a str,
        name: &'a str,
        param: &'a str,
        body: Expr<'a>,
    },
    /// `val names is body [@ [args]]`.
    Val {
        names: Vec<&'a str>,
        body: Expr<'a>,
        applied: Option<Vec<Expr<'a>>>,
    },
    /// `sem names is body [@ [args]]` — binds instruction mnemonics.
    Sem {
        names: Vec<&'a str>,
        body: Expr<'a>,
        applied: Option<Vec<Expr<'a>>>,
    },
}

/// A declaration with its source position (for error reporting).
#[derive(Debug, Clone, PartialEq, Eq)]
#[allow(missing_docs)]
pub struct SpannedDecl<'a> {
    pub decl: Decl<'a>,
    pub pos: Pos,
}
