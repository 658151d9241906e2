//! The Spawn compiler: abstract interpretation of SADL semantic
//! expressions to extract per-instruction pipeline timing.
//!
//! Where the original Spawn emitted C++ tables and the
//! `pipeline_stalls` function, this module walks each `sem` expression
//! with a cycle counter, recording unit acquire/release events,
//! register-class read cycles, and the cycle each result value is
//! computed. The result is an [`ArchDescription`] of deduplicated
//! [`TimingGroup`]s — exactly the information the paper's Appendix A
//! generator consumed.

use std::cell::Cell;
use std::collections::HashMap;
use std::rc::Rc;

use crate::ast::{Decl, Expr, SpannedDecl};
use crate::desc::{ArchDescription, RegClass, TimingGroup, Unit, MAX_GROUP_CYCLES};
use crate::error::{Pos, SadlError};
use crate::parser::parse;
use crate::{MAX_EVALUATIONS, MAX_NESTING};

/// Primitive operation names available to descriptions. Applying a
/// primitive produces a value computed in the current cycle.
const PRIMS: &[&str] = &[
    "add32", "sub32", "and32", "or32", "xor32", "andn32", "orn32", "xnor32", "sll32", "srl32",
    "sra32", "mul32", "div32", "mem8", "mem16", "mem32", "mem64", "fadd", "fsub", "fmul", "fdiv",
    "fsqrt", "fmov", "fneg", "fabs", "fcmp", "fcvt", "cc32", "hi22",
];

/// Instruction-field names available to descriptions. A field's value
/// is unknown at description-compile time but available at cycle 0.
const FIELDS: &[&str] = &[
    "rs1", "rs2", "rd", "simm13", "imm22", "disp22", "disp30", "iflag", "cond", "opf", "asi",
    "shcnt",
];

/// A value. Closures and `val` macros hold their syntax by reference
/// into the parsed declarations and their scope as a shared frame
/// chain, so copying one copies pointers and bumps one count.
#[derive(Clone)]
enum Value<'a> {
    /// A data value: `at` is the cycle it was computed (0 = available
    /// at issue); `known` is its numeric value when statically known.
    Data { at: u32, known: Option<i64> },
    /// The unit value `()`.
    Unit,
    /// A boolean; `None` means unknown until instruction decode time.
    Bool(Option<bool>),
    /// A lambda closure.
    Closure {
        param: &'a str,
        body: &'a Expr<'a>,
        env: Scope<'a>,
    },
    /// A `val` macro, `body` or `body @ arg`: re-evaluated (with
    /// effects) at every use site.
    Thunk {
        body: &'a Expr<'a>,
        arg: Option<&'a Expr<'a>>,
        env: Scope<'a>,
    },
    /// A primitive operation.
    Prim,
}

/// The primitives and instruction fields every scope ends in.
fn base(name: &str) -> Option<Value<'static>> {
    if PRIMS.contains(&name) {
        Some(Value::Prim)
    } else if FIELDS.contains(&name) {
        Some(Value::Data { at: 0, known: None })
    } else {
        None
    }
}

/// A scope: an immutable chain of frames, newest binding first, over
/// [`base`]. Extending one allocates one frame and leaves the original
/// intact, so closures, `val`s and sequences capture a scope by
/// copying a pointer.
#[derive(Clone, Default)]
struct Scope<'a>(Option<Rc<Frame<'a>>>);

struct Frame<'a> {
    name: &'a str,
    value: Value<'a>,
    next: Scope<'a>,
}

impl<'a> Scope<'a> {
    /// This scope with `name` bound to `value` in front.
    fn bind(&self, name: &'a str, value: Value<'a>) -> Scope<'a> {
        Scope(Some(Rc::new(Frame {
            name,
            value,
            next: self.clone(),
        })))
    }

    /// The newest binding of `name`, else its primitive or field.
    fn get(&self, name: &str) -> Option<Value<'a>> {
        let mut at = self.0.as_deref();
        while let Some(frame) = at {
            if frame.name == name {
                return Some(frame.value.clone());
            }
            at = frame.next.0.as_deref();
        }
        base(name)
    }
}

impl Drop for Frame<'_> {
    /// Unlinks the frames below this one in a loop, so a long chain
    /// (one frame per `val` or `:=`) never recurses its length deep.
    /// Each frame's value goes first: a closure or `val` in it usually
    /// holds the chain below, and dropping it while `next` still does
    /// only decrements a count.
    fn drop(&mut self) {
        self.value = Value::Unit;
        let mut next = self.next.0.take();
        while let Some(mut frame) = next.and_then(Rc::into_inner) {
            frame.value = Value::Unit;
            next = frame.next.0.take();
        }
    }
}

/// `(key, copies)` pairs sorted by key: `(cycle, unit)`.
type CopyLog = Vec<((u32, usize), u32)>;

/// Event log accumulated while interpreting one `sem` expression. The
/// logs are small sorted vectors, which a conditional copies once.
#[derive(Clone, Default, PartialEq, Eq, Hash)]
struct State {
    cycle: u32,
    acquires: CopyLog,
    releases: CopyLog,
    /// Sorted, without duplicates.
    reads: Vec<(RegClass, u32)>,
    /// Sorted, without duplicates.
    writes: Vec<(RegClass, u32)>,
}

/// The copy count logged under `key`, inserted as 0 if absent.
fn copies_at(log: &mut CopyLog, key: (u32, usize)) -> &mut u32 {
    let i = log
        .binary_search_by_key(&key, |&(k, _)| k)
        .unwrap_or_else(|i| {
            log.insert(i, (key, 0));
            i
        });
    &mut log[i].1
}

/// Adds `x` to a sorted set.
fn note(set: &mut Vec<(RegClass, u32)>, x: (RegClass, u32)) {
    if let Err(i) = set.binary_search(&x) {
        set.insert(i, x);
    }
}

impl State {
    /// The group this log compiles to; `cycle` must already be the
    /// group's length.
    fn group(&self) -> TimingGroup {
        let mut acquires = vec![Vec::new(); self.cycle as usize + 1];
        for &((c, u), n) in &self.acquires {
            acquires[c as usize].push((u, n));
        }
        let mut releases = vec![Vec::new(); self.cycle as usize + 1];
        for &((c, u), n) in &self.releases {
            releases[c as usize].push((u, n));
        }
        TimingGroup {
            cycles: self.cycle,
            acquires,
            releases,
            reads: self.reads.clone(),
            writes: self.writes.clone(),
        }
    }

    /// Merges the other arm of an unknown conditional into this one:
    /// the larger copy count under each key, every read and write.
    /// Both arms started from the same state, so that is the state's
    /// count plus the larger arm's.
    fn merge(&mut self, other: &State) {
        for (mine, theirs) in [
            (&mut self.acquires, &other.acquires),
            (&mut self.releases, &other.releases),
        ] {
            for &(k, n) in theirs {
                let m = copies_at(mine, k);
                *m = (*m).max(n);
            }
        }
        for &x in &other.reads {
            note(&mut self.reads, x);
        }
        for &x in &other.writes {
            note(&mut self.writes, x);
        }
    }
}

#[derive(Default)]
struct Compiler<'a> {
    pos: Pos,
    units: Vec<Unit>,
    unit_ids: HashMap<&'a str, usize>,
    regfiles: HashMap<&'a str, RegClass>,
    aliases: HashMap<&'a str, (&'a str, &'a Expr<'a>)>,
    /// The top-level scope: every `val` declared so far.
    top: Scope<'a>,
    machine: Option<(&'a str, u32, u32)>,
    groups: Vec<TimingGroup>,
    /// Each group's log, as [`Compiler::sem_log`] returns it: equal
    /// logs compile to equal groups, so a `sem` that repeats an earlier
    /// group's timing builds no group of its own.
    group_ids: HashMap<State, usize>,
    bindings: HashMap<String, usize>,
    /// How many evaluations (and alias writes) enclose the current one.
    depth: Cell<u32>,
    /// How many evaluations (and alias writes) the current `sem` has
    /// taken.
    evals: Cell<u32>,
}

impl<'a> Compiler<'a> {
    fn err(&self, msg: impl Into<String>) -> SadlError {
        SadlError::at(self.pos, msg.into())
    }

    /// `cycle + n`, or an error when that runs past the bound on a
    /// group's length (or past `u32`).
    fn later(&self, cycle: u32, n: u32) -> Result<u32, SadlError> {
        cycle
            .checked_add(n)
            .filter(|&c| c <= MAX_GROUP_CYCLES)
            .ok_or_else(|| self.err(format!("delay runs past {MAX_GROUP_CYCLES} cycles")))
    }

    /// Logs `num` more copies of unit `u` at cycle `at`.
    fn log_copies(&self, log: &mut CopyLog, at: u32, u: usize, num: u32) -> Result<(), SadlError> {
        let n = copies_at(log, (at, u));
        *n = n.checked_add(num).ok_or_else(|| {
            self.err(format!(
                "more than {} copies of unit `{}` in one cycle",
                u32::MAX,
                self.units[u].name
            ))
        })?;
        Ok(())
    }

    fn decl(&mut self, d: &'a SpannedDecl<'a>) -> Result<(), SadlError> {
        self.pos = d.pos;
        match &d.decl {
            Decl::Machine {
                name,
                issue,
                clock_mhz,
            } => {
                if self.machine.is_some() {
                    return Err(self.err("duplicate machine declaration"));
                }
                self.machine = Some((name, *issue, *clock_mhz));
            }
            Decl::Unit(units) => {
                for &(name, count) in units {
                    if self.unit_ids.contains_key(name) {
                        return Err(self.err(format!("duplicate unit `{name}`")));
                    }
                    if count == 0 {
                        return Err(self.err(format!("unit `{name}` has zero copies")));
                    }
                    self.unit_ids.insert(name, self.units.len());
                    self.units.push(Unit {
                        name: name.to_string(),
                        count,
                    });
                }
            }
            Decl::Register { name, .. } => {
                let class = RegClass::from_file_name(name).ok_or_else(|| {
                    self.err(format!(
                        "register file `{name}` has no known class \
                         (expected R, F, ICC, FCC, or Y)"
                    ))
                })?;
                if self.regfiles.insert(name, class).is_some() {
                    return Err(self.err(format!("duplicate register file `{name}`")));
                }
            }
            Decl::Alias {
                name, param, body, ..
            } => {
                if self.aliases.insert(name, (param, body)).is_some() {
                    return Err(self.err(format!("duplicate alias `{name}`")));
                }
            }
            Decl::Val {
                names,
                body,
                applied,
            } => {
                self.check_macro(names, applied)?;
                for (k, &name) in names.iter().enumerate() {
                    // Each name's expansion sees the names before it.
                    let thunk = Value::Thunk {
                        body,
                        arg: applied.as_ref().map(|args| &args[k]),
                        env: self.top.clone(),
                    };
                    self.top = self.top.bind(name, thunk);
                }
            }
            Decl::Sem {
                names,
                body,
                applied,
            } => {
                self.check_macro(names, applied)?;
                for (k, &name) in names.iter().enumerate() {
                    if self.bindings.contains_key(name) {
                        return Err(self.err(format!("duplicate sem binding for `{name}`")));
                    }
                    let arg = applied.as_ref().map(|args| &args[k]);
                    let log = self.sem_log(name, body, arg)?;
                    let id = match self.group_ids.get(&log) {
                        Some(&id) => id,
                        None => {
                            let id = self.groups.len();
                            self.groups.push(log.group());
                            self.group_ids.insert(log, id);
                            id
                        }
                    };
                    self.bindings.insert(name.to_string(), id);
                }
            }
        }
        Ok(())
    }

    /// Checks that `body @ [a b c]` has one entry per bound name.
    fn check_macro(
        &self,
        names: &[&str],
        applied: &Option<Vec<Expr<'_>>>,
    ) -> Result<(), SadlError> {
        match applied {
            Some(args) if args.len() != names.len() => Err(self.err(format!(
                "`@` list has {} entries for {} names",
                args.len(),
                names.len()
            ))),
            _ => Ok(()),
        }
    }

    /// Interprets a `sem` expression (`body`, or `body @ arg`) and
    /// checks its event log, whose `cycle` becomes the group's length.
    fn sem_log(
        &self,
        name: &str,
        body: &'a Expr<'a>,
        arg: Option<&'a Expr<'a>>,
    ) -> Result<State, SadlError> {
        let mut state = State::default();
        self.evals.set(0);
        self.eval_macro(body, arg, &self.top, &mut state)
            .map_err(|e| e.within(&format!("in sem `{name}`")))?;

        // Every acquired copy must eventually be released.
        let mut balance = vec![0i64; self.units.len()];
        for &((_, u), n) in &state.acquires {
            balance[u] += i64::from(n);
        }
        for &((_, u), n) in &state.releases {
            balance[u] -= i64::from(n);
        }
        if let Some((u, &d)) = balance.iter().enumerate().find(|&(_, &d)| d != 0) {
            return Err(self.err(format!(
                "sem `{name}` leaves unit `{}` unbalanced by {d}",
                self.units[u].name
            )));
        }

        let mut cycles = state.cycle;
        for &((c, _), _) in &state.acquires {
            cycles = cycles.max(c + 1);
        }
        for &((c, _), _) in &state.releases {
            cycles = cycles.max(c);
        }
        for &(_, c) in state.reads.iter().chain(&state.writes) {
            cycles = cycles.max(c + 1);
        }
        if cycles > MAX_GROUP_CYCLES {
            return Err(self.err(format!(
                "sem `{name}` is longer than {MAX_GROUP_CYCLES} cycles"
            )));
        }
        state.cycle = cycles;
        Ok(state)
    }

    // --- expression interpreter -------------------------------------------

    /// Evaluates `body`, or applies it to `arg` when there is one: an
    /// application, or a `val` or `sem` with an `@` list.
    fn eval_macro(
        &self,
        body: &'a Expr<'a>,
        arg: Option<&'a Expr<'a>>,
        env: &Scope<'a>,
        st: &mut State,
    ) -> Result<Value<'a>, SadlError> {
        let f = self.eval(body, env, st)?;
        match arg {
            None => Ok(f),
            Some(a) => {
                let a = self.eval(a, env, st)?;
                self.apply(f, a, st)
            }
        }
    }

    /// One level deeper: the old depth, to restore on the way out, or
    /// the nesting error past [`MAX_NESTING`], or the work error past
    /// [`MAX_EVALUATIONS`] in this `sem`. A self-application such as
    /// `(\x. x x) (\x. x x)` evaluates forever, one level per
    /// application, and `val`s that repeat each other multiply their
    /// expansions, so both stop here.
    fn deeper(&self) -> Result<u32, SadlError> {
        let depth = self.depth.get();
        if depth == MAX_NESTING {
            return Err(self.err(format!("evaluation nests deeper than {MAX_NESTING} levels")));
        }
        let evals = self.evals.get();
        if evals == MAX_EVALUATIONS {
            return Err(self.err(format!(
                "evaluation takes more than {MAX_EVALUATIONS} steps"
            )));
        }
        self.evals.set(evals + 1);
        self.depth.set(depth + 1);
        Ok(depth)
    }

    /// Evaluates `expr` one level deeper. Every recursion of the
    /// interpreter passes through here or [`Self::write_target`].
    fn eval(
        &self,
        expr: &'a Expr<'a>,
        env: &Scope<'a>,
        st: &mut State,
    ) -> Result<Value<'a>, SadlError> {
        let depth = self.deeper()?;
        let v = self.eval_expr(expr, env, st);
        self.depth.set(depth);
        v
    }

    fn eval_expr(
        &self,
        expr: &'a Expr<'a>,
        env: &Scope<'a>,
        st: &mut State,
    ) -> Result<Value<'a>, SadlError> {
        match expr {
            Expr::Num(n) => Ok(Value::Data {
                at: 0,
                known: Some(*n),
            }),
            Expr::UnitLit => Ok(Value::Unit),
            Expr::Field(_) => Ok(Value::Data { at: 0, known: None }),
            Expr::Name(n) => {
                let v = env
                    .get(n)
                    .ok_or_else(|| self.err(format!("unbound name `{n}`")))?;
                self.force(v, st)
            }
            Expr::Lambda(param, body) => Ok(Value::Closure {
                param,
                body,
                env: env.clone(),
            }),
            Expr::Apply(f, a) => self.eval_macro(f, Some(a), env, st),
            Expr::Seq(elems) => {
                let mut env = env.clone();
                let mut last = Value::Unit;
                for e in elems {
                    if let Expr::Bind(name, value) = e {
                        let v = self.eval(value, &env, st)?;
                        env = env.bind(name, v.clone());
                        last = v;
                    } else {
                        last = self.eval(e, &env, st)?;
                    }
                }
                Ok(last)
            }
            Expr::Bind(_, value) => self.eval(value, env, st),
            Expr::Eq(a, b) => {
                let av = self.eval(a, env, st)?;
                let bv = self.eval(b, env, st)?;
                match (av, bv) {
                    (Value::Data { known: Some(x), .. }, Value::Data { known: Some(y), .. }) => {
                        Ok(Value::Bool(Some(x == y)))
                    }
                    (Value::Data { .. }, Value::Data { .. }) => Ok(Value::Bool(None)),
                    _ => Err(self.err("`=` requires data operands")),
                }
            }
            Expr::Ternary(c, t, f) => {
                let cv = self.eval(c, env, st)?;
                match cv {
                    Value::Bool(Some(true)) => self.eval(t, env, st),
                    Value::Bool(Some(false)) => self.eval(f, env, st),
                    Value::Bool(None) | Value::Data { .. } => {
                        // Unknown until decode: take both arms from the
                        // same state and merge (maximum resource usage,
                        // latest availability).
                        let start = st.clone();
                        let vt = self.eval(t, env, st)?;
                        let taken = std::mem::replace(st, start);
                        let vf = self.eval(f, env, st)?;
                        if taken.cycle != st.cycle {
                            return Err(self.err(
                                "conditional arms advance the pipeline by different amounts",
                            ));
                        }
                        st.merge(&taken);
                        merge_values(vt, vf).map_err(|m| self.err(m))
                    }
                    _ => Err(self.err("conditional condition is not a boolean")),
                }
            }
            Expr::Acquire { unit, num } => {
                let u = self.unit(unit)?;
                self.log_copies(&mut st.acquires, st.cycle, u, *num)?;
                Ok(Value::Unit)
            }
            Expr::AcquireRelease { unit, num, delay } => {
                let u = self.unit(unit)?;
                self.log_copies(&mut st.acquires, st.cycle, u, *num)?;
                let at = self.later(st.cycle, *delay)?;
                self.log_copies(&mut st.releases, at, u, *num)?;
                Ok(Value::Unit)
            }
            Expr::Release { unit, num } => {
                let u = self.unit(unit)?;
                self.log_copies(&mut st.releases, st.cycle, u, *num)?;
                Ok(Value::Unit)
            }
            Expr::Delay(n) => {
                st.cycle = self.later(st.cycle, *n)?;
                Ok(Value::Unit)
            }
            Expr::Index(name, idx) => {
                // Evaluate the index for effects (usually none).
                self.eval(idx, env, st)?;
                if let Some(&class) = self.regfiles.get(name) {
                    note(&mut st.reads, (class, st.cycle));
                    return Ok(Value::Data {
                        at: st.cycle,
                        known: None,
                    });
                }
                if let Some(&(param, body)) = self.aliases.get(name) {
                    let inner = self.top.bind(param, Value::Data { at: 0, known: None });
                    return self.eval(body, &inner, st);
                }
                Err(self.err(format!("`{name}` is neither a register file nor an alias")))
            }
            Expr::WriteReg {
                target,
                index,
                value,
            } => {
                self.eval(index, env, st)?;
                let v = self.eval(value, env, st)?;
                let at = match v {
                    Value::Data { at, .. } => at,
                    Value::Unit | Value::Bool(_) => 0,
                    _ => return Err(self.err("cannot store a function into a register")),
                };
                self.write_target(target, at, st)?;
                Ok(Value::Unit)
            }
        }
    }

    /// Resolves a write through aliases down to a register file,
    /// evaluating port-acquisition effects along the way, one level
    /// deeper per alias.
    fn write_target(&self, target: &str, value_at: u32, st: &mut State) -> Result<(), SadlError> {
        let depth = self.deeper()?;
        let written = self.write_through(target, value_at, st);
        self.depth.set(depth);
        written
    }

    fn write_through(&self, target: &str, value_at: u32, st: &mut State) -> Result<(), SadlError> {
        if let Some(&class) = self.regfiles.get(target) {
            note(&mut st.writes, (class, value_at));
            return Ok(());
        }
        let Some(&(param, body)) = self.aliases.get(target) else {
            return Err(self.err(format!(
                "write target `{target}` is neither a register file nor an alias"
            )));
        };
        let env = self.top.bind(param, Value::Data { at: 0, known: None });
        // Evaluate every element of the alias body except the final
        // register access, which becomes the write.
        let final_access = match body {
            Expr::Seq(elems) => {
                let (last, init) = elems.split_last().expect("parser yields non-empty seq");
                for e in init {
                    self.eval(e, &env, st)?;
                }
                last
            }
            other => other,
        };
        match final_access {
            Expr::Index(inner, _) => self.write_target(inner, value_at, st),
            _ => Err(self.err(format!(
                "alias `{target}` does not end in a register access; cannot write through it"
            ))),
        }
    }

    fn force(&self, v: Value<'a>, st: &mut State) -> Result<Value<'a>, SadlError> {
        match v {
            Value::Thunk { body, arg, env } => {
                let inner = self.eval_macro(body, arg, &env, st)?;
                self.force(inner, st)
            }
            other => Ok(other),
        }
    }

    fn apply(&self, f: Value<'a>, a: Value<'a>, st: &mut State) -> Result<Value<'a>, SadlError> {
        match f {
            Value::Closure { param, body, env } => self.eval(body, &env.bind(param, a), st),
            // Applying a primitive (or continuing to apply its partial
            // result) computes a value in the current cycle.
            Value::Prim | Value::Data { .. } => Ok(Value::Data {
                at: st.cycle,
                known: None,
            }),
            Value::Thunk { .. } => unreachable!("thunks are forced at lookup"),
            Value::Unit | Value::Bool(_) => Err(self.err("cannot apply a non-function value")),
        }
    }

    fn unit(&self, name: &str) -> Result<usize, SadlError> {
        self.unit_ids
            .get(name)
            .copied()
            .ok_or_else(|| self.err(format!("undeclared unit `{name}`")))
    }
}

fn merge_values<'a>(a: Value<'a>, b: Value<'a>) -> Result<Value<'a>, String> {
    match (a, b) {
        (Value::Data { at: x, .. }, Value::Data { at: y, .. }) => Ok(Value::Data {
            at: x.max(y),
            known: None,
        }),
        (Value::Unit, Value::Unit) => Ok(Value::Unit),
        (Value::Bool(_), Value::Bool(_)) => Ok(Value::Bool(None)),
        _ => Err("conditional arms produce incompatible values".to_string()),
    }
}

impl ArchDescription {
    /// Parses and compiles SADL source into a machine description —
    /// the equivalent of running Spawn.
    ///
    /// ```
    /// use eel_sadl::ArchDescription;
    ///
    /// let desc = ArchDescription::compile(
    ///     "machine demo 1 100\n\
    ///      unit ALU 1\n\
    ///      register untyped{32} R[32]\n\
    ///      alias signed{32} Rr[i] is AR ALU, R[i]\n\
    ///      sem add is D 1, x := Rr[rs1], R[rd] := x",
    /// )?;
    /// assert_eq!(desc.machine, "demo");
    /// assert!(desc.group_for("add").is_some());
    /// # Ok::<(), eel_sadl::SadlError>(())
    /// ```
    ///
    /// # Errors
    ///
    /// Returns the first lexical, syntactic, or semantic error with its
    /// source position.
    pub fn compile(src: &str) -> Result<ArchDescription, SadlError> {
        let decls = parse(src)?;
        let mut c = Compiler::default();
        for d in &decls {
            c.decl(d)?;
        }
        let (machine, issue_width, clock_mhz) = c
            .machine
            .ok_or_else(|| SadlError::new("description lacks a `machine` declaration"))?;
        Ok(ArchDescription {
            machine: machine.to_string(),
            issue_width,
            clock_mhz,
            units: c.units,
            groups: c.groups,
            bindings: c.bindings,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The paper's Figure 2: ROSS hyperSPARC ALU instructions.
    const FIGURE2: &str = r"
        machine hyperSPARC 2 66
        // *** Define processor resources ***
        unit Group 2
        unit ALU 1, ALUr 2, ALUw 1
        unit LSU 1, LSUr 2, LSUw 1

        val multi is AR Group, ()
        val single is AR Group 2, ()

        // *** Define registers ***
        register untyped{32} R[32]
        alias signed{32} R4r[i] is AR ALUr, R[i]
        alias signed{32} R4w[i] is AR ALUw, R[i]

        // *** Define instructions ***
        val [ + - & | ^ ] is
            (\op.\a.\b. A ALU, x := op a b, D 1, R ALU, x)
            @ [ add32 sub32 and32 or32 xor32 ]
        val [ << >> >>> ] is
            (\op.\a.\b. A ALU, x := op a b, D 1, R ALU, x)
            @ [ sll32 srl32 sra32 ]

        val src2 is iflag = 1 ? #simm13 : R4r[rs2]

        sem [ add sub sra ] is
            (\op. multi, D 1, s1 := R4r[rs1], s2 := src2, R4w[rd] := op s1 s2)
            @ [ + - >>> ]
    ";

    fn figure2() -> ArchDescription {
        ArchDescription::compile(FIGURE2).expect("figure 2 compiles")
    }

    #[test]
    fn figure2_compiles_and_binds() {
        let d = figure2();
        assert_eq!(d.machine, "hyperSPARC");
        assert_eq!(d.issue_width, 2);
        assert_eq!(d.clock_mhz, 66);
        for m in ["add", "sub", "sra"] {
            assert!(d.group_for(m).is_some(), "missing {m}");
        }
    }

    #[test]
    fn figure2_groups_dedupe() {
        // add, sub, and sra share one timing pattern.
        let d = figure2();
        assert_eq!(d.groups.len(), 1);
        assert_eq!(d.group_id("add"), d.group_id("sub"));
        assert_eq!(d.group_id("add"), d.group_id("sra"));
    }

    /// The paper, §3.1: "Spawn infers that these instructions can be
    /// dual issued, execute in 3 cycles, read their operands in cycle
    /// 1, produce a value at the end of cycle 1 …, and update the
    /// register file in cycle 2."
    #[test]
    fn figure2_add_timing_matches_paper() {
        let d = figure2();
        let g = d.group_for("add").unwrap();
        assert_eq!(g.cycles, 3, "executes in 3 cycles");
        assert_eq!(
            g.read_cycle(RegClass::Int),
            Some(1),
            "reads operands in cycle 1"
        );
        assert_eq!(
            g.write_cycle(RegClass::Int),
            Some(1),
            "produces its value at the end of cycle 1"
        );
        // Dual issue: acquires one of two Group copies in cycle 0.
        let group_unit = d.unit_id("Group").unwrap();
        assert!(g.acquires_at(0).contains(&(group_unit, 1)));
        // ALU write port acquired in cycle 2 (register update).
        let aluw = d.unit_id("ALUw").unwrap();
        assert!(g.acquires_at(2).contains(&(aluw, 1)));
        assert!(g.releases_at(3).contains(&(aluw, 1)));
    }

    #[test]
    fn figure2_conditional_merges_read_ports() {
        // src2 may need a second ALU read port; the merged group
        // records the maximum (2 ports in cycle 1).
        let d = figure2();
        let g = d.group_for("add").unwrap();
        let alur = d.unit_id("ALUr").unwrap();
        let total: u32 = g
            .acquires_at(1)
            .iter()
            .filter(|&&(u, _)| u == alur)
            .map(|&(_, n)| n)
            .sum();
        assert_eq!(total, 2);
    }

    #[test]
    fn unbalanced_acquire_is_error() {
        let err = ArchDescription::compile(
            "machine m 1 1\nunit ALU 1\nregister untyped{32} R[32]\nsem bad is A ALU, D 1",
        )
        .unwrap_err();
        assert!(err.to_string().contains("unbalanced"), "{err}");
    }

    #[test]
    fn missing_machine_is_error() {
        let err = ArchDescription::compile("unit ALU 1").unwrap_err();
        assert!(err.to_string().contains("machine"));
    }

    #[test]
    fn unknown_register_file_class_is_error() {
        let err = ArchDescription::compile("machine m 1 1\nregister untyped{32} Q[4]").unwrap_err();
        assert!(err.to_string().contains("no known class"));
    }

    #[test]
    fn duplicate_sem_is_error() {
        let err =
            ArchDescription::compile("machine m 1 1\nsem add is D 1\nsem add is D 2").unwrap_err();
        assert!(err.to_string().contains("duplicate sem"));
    }

    #[test]
    fn unbound_name_is_error() {
        let err = ArchDescription::compile("machine m 1 1\nsem x is frobnicate").unwrap_err();
        assert!(err.to_string().contains("unbound name"));
    }

    #[test]
    fn undeclared_unit_is_error() {
        let err = ArchDescription::compile("machine m 1 1\nsem x is AR Bogus, D 1").unwrap_err();
        assert!(err.to_string().contains("undeclared unit"));
    }

    #[test]
    fn coverage_validation_reports_missing() {
        let d = figure2();
        assert!(d.validate_coverage(&["add", "sub"]).is_ok());
        let err = d.validate_coverage(&["add", "ld"]).unwrap_err();
        assert!(err.to_string().contains("ld"));
    }

    #[test]
    fn sethi_style_write_has_value_cycle_zero() {
        // A result written from an instruction field is available at
        // the end of cycle 0 (the paper's sethi example).
        let d = ArchDescription::compile(
            "machine m 1 1\n\
             unit Group 2\n\
             unit ALUw 1\n\
             register untyped{32} R[32]\n\
             alias signed{32} R4w[i] is AR ALUw, R[i]\n\
             val multi is AR Group, ()\n\
             sem sethi is multi, D 1, R4w[rd] := #imm22",
        )
        .unwrap();
        let g = d.group_for("sethi").unwrap();
        assert_eq!(g.write_cycle(RegClass::Int), Some(0));
    }

    #[test]
    fn condition_code_classes_record() {
        let d = ArchDescription::compile(
            "machine m 1 1\n\
             register untyped{32} R[32]\n\
             register untyped{1} ICC[1]\n\
             sem subcc is D 1, a := R[rs1], ICC[0] := cc32 a\n\
             sem bicc is D 1, c := ICC[0]",
        )
        .unwrap();
        let sub = d.group_for("subcc").unwrap();
        assert_eq!(sub.write_cycle(RegClass::Icc), Some(1));
        let b = d.group_for("bicc").unwrap();
        assert_eq!(b.read_cycle(RegClass::Icc), Some(1));
    }

    #[test]
    fn mismatched_macro_list_is_error() {
        let err = ArchDescription::compile(
            r"machine m 1 1
              sem [ a b ] is (\x. D 1) @ [ add32 ]",
        )
        .unwrap_err();
        assert!(err.to_string().contains("2 names"));
    }

    #[test]
    fn conditional_with_different_cycles_is_error() {
        let err = ArchDescription::compile("machine m 1 1\nsem x is (iflag = 1 ? D 2 : D 1), D 1")
            .unwrap_err();
        assert!(err.to_string().contains("different amounts"));
    }

    #[test]
    fn huge_delay_is_a_typed_error() {
        let compile = |sem: &str| {
            ArchDescription::compile(&format!(
                "machine m 1 1\nunit U 1\nregister untyped{{32}} R[32]\nsem x is {sem}"
            ))
        };
        for sem in [
            "D 4000000000",
            "D 4294967295, D 4294967295",
            "AR U 1 4294967295",
            "D 1024, a := R[rs1]",
        ] {
            let err = compile(sem).unwrap_err().to_string();
            assert!(err.contains("sem `x`"), "{sem}: {err}");
            assert!(err.contains("1024 cycles"), "{sem}: {err}");
        }
        let err = compile("A U 4294967295, A U 1").unwrap_err().to_string();
        assert!(err.contains("copies of unit `U`"), "{err}");
        // The bound itself is a legal length.
        let d = compile("D 1024").expect("a group at the bound compiles");
        assert_eq!(d.group_for("x").unwrap().cycles, MAX_GROUP_CYCLES);
    }

    /// Compiles `decls` under a one-wide machine with the integer
    /// register file, for the scoping tests below.
    fn scoped(decls: &str) -> Result<ArchDescription, SadlError> {
        ArchDescription::compile(&format!(
            "machine m 1 1\nregister untyped{{32}} R[32]\n{decls}"
        ))
    }

    /// `(cycles, reads, writes)` of a group.
    type Shape = (u32, Vec<(RegClass, u32)>, Vec<(RegClass, u32)>);

    /// The [`Shape`] of the group bound to `name`.
    fn shape(d: &ArchDescription, name: &str) -> Shape {
        let g = d
            .group_for(name)
            .unwrap_or_else(|| panic!("`{name}` is bound"));
        (g.cycles, g.reads.clone(), g.writes.clone())
    }

    const INT: RegClass = RegClass::Int;

    #[test]
    fn a_val_sees_only_the_bindings_before_it() {
        let d = scoped(
            "val lag is D 1, ()
             val step is lag, x := R[rs1], x
             sem a is R[rd] := step
             val lag is D 3, ()
             sem b is R[rd] := step
             sem c is lag, R[rd] := step
             val step is lag, x := R[rs1], x
             sem e is R[rd] := step",
        )
        .unwrap();
        // `step` expands with the `lag` defined before it, before and
        // after `lag` is redefined.
        assert_eq!(shape(&d, "a"), (2, vec![(INT, 1)], vec![(INT, 1)]));
        assert_eq!(shape(&d, "b"), shape(&d, "a"));
        assert_eq!(d.group_id("a"), d.group_id("b"));
        // A `sem` after the redefinition sees the new `lag`.
        assert_eq!(shape(&d, "c"), (5, vec![(INT, 4)], vec![(INT, 4)]));
        // So does a `step` redefined after it.
        assert_eq!(shape(&d, "e"), (4, vec![(INT, 3)], vec![(INT, 3)]));
        // A `val` cannot use a name bound only after it.
        let err = scoped("val early is late\nval late is D 1, ()\nsem s is early").unwrap_err();
        assert!(err.to_string().contains("unbound name `late`"), "{err}");
    }

    #[test]
    fn parameters_and_bindings_shadow_only_inside_their_scope() {
        let d = scoped(
            r"val v is D 2, R[rs1]
              sem lam is (\v. D 1, R[rd] := v) 5, v
              sem bind is (v := 7, D 1, R[rd] := v), v
              sem later is R[rd] := v, v := 7, D 1, R[rd] := v
              sem prim is (\fadd. R[rd] := fadd) 3, x := fadd R[rs1], D 1",
        )
        .unwrap();
        // Inside, `v` is the argument or the bound value (ready at
        // issue, no delay); after the scope closes it is the `val`
        // again: two cycles of delay, then a register read.
        let inner_then_val = (4, vec![(INT, 3)], vec![(INT, 0)]);
        assert_eq!(shape(&d, "lam"), inner_then_val);
        assert_eq!(shape(&d, "bind"), inner_then_val);
        // A binding shadows only the rest of its sequence.
        assert_eq!(
            shape(&d, "later"),
            (3, vec![(INT, 2)], vec![(INT, 0), (INT, 2)])
        );
        // A parameter shadows a primitive inside the lambda only.
        assert_eq!(shape(&d, "prim"), (1, vec![(INT, 0)], vec![(INT, 0)]));
        let err = scoped("sem s is (\\x. D 1) 0, R[rd] := fadd").unwrap_err();
        assert!(err.to_string().contains("cannot store a function"), "{err}");
    }

    #[test]
    fn an_alias_sees_top_level_vals_and_its_parameter_only() {
        let d = scoped(
            "val lag is D 2, ()
             val i is D 5, ()
             alias signed{32} Rl[i] is lag, R[i]
             sem a is lag := (), i := (), D 1, x := Rl[rs1], R[rd] := x
             val lag is D 1, ()
             sem b is D 1, x := Rl[rs1], R[rd] := x",
        )
        .unwrap();
        // The alias's `lag` is the top-level `val`, not the `sem`'s
        // local binding, and its index `i` is its own parameter, not
        // the top-level `val i` (five cycles) or the local `i`.
        assert_eq!(shape(&d, "a"), (4, vec![(INT, 3)], vec![(INT, 3)]));
        // A `sem` after `lag` is redefined expands the alias with it.
        assert_eq!(shape(&d, "b"), (3, vec![(INT, 2)], vec![(INT, 2)]));
        // The alias cannot see the using `sem`'s locals at all.
        let err = scoped(
            "alias signed{32} Rj[i] is R[j]
             sem s is j := 0, x := Rj[rs1]",
        )
        .unwrap_err();
        assert!(err.to_string().contains("unbound name `j`"), "{err}");
    }

    /// Compiles `src` on a thread with a 256 KiB stack: a scope that
    /// recursed its length deep, to look a name up or to drop, would
    /// overflow it.
    fn compile_on_a_small_stack(src: String) -> ArchDescription {
        std::thread::Builder::new()
            .stack_size(256 << 10)
            .spawn(move || ArchDescription::compile(&src).expect("compiles"))
            .expect("spawns")
            .join()
            .expect("compiles without panicking")
    }

    /// Many bindings in one scope: each `val` and each `:=` extends its
    /// scope by one frame, so 200,000 cost linear time and memory, and
    /// dropping the chain unlinks it in a loop.
    const LONG: usize = 200_000;

    #[test]
    fn many_vals_make_one_long_top_level_scope() {
        use std::fmt::Write;
        let mut src = String::from("machine m 1 1\nregister untyped{32} R[32]\n");
        src.push_str("val v0 is D 1, ()\n");
        for i in 1..LONG - 1 {
            writeln!(src, "val v{i} is {i}").unwrap();
        }
        writeln!(src, "val v{} is D 2, ()", LONG - 1).unwrap();
        writeln!(src, "sem s is v0, x := R[rs1], v{}, R[rd] := x", LONG - 1).unwrap();
        let d = compile_on_a_small_stack(src);
        assert_eq!(shape(&d, "s"), (3, vec![(INT, 1)], vec![(INT, 1)]));
    }

    #[test]
    fn a_sem_with_many_bindings_makes_one_long_local_scope() {
        use std::fmt::Write;
        let mut src = String::from("machine m 1 1\nregister untyped{32} R[32]\n");
        src.push_str("sem s is D 1, x := R[rs1]");
        for i in 0..LONG {
            write!(src, ", b{i} := {i}").unwrap();
        }
        src.push_str(", D 1, R[rd] := x\n");
        let d = compile_on_a_small_stack(src);
        assert_eq!(shape(&d, "s"), (2, vec![(INT, 1)], vec![(INT, 1)]));
    }

    /// A description whose one-cycle `sem s` nests `n` deep in `shape`:
    /// brackets and lambdas nest its body for the parser; chains of
    /// `val`s (`v{n}` expands `v{n-1}`) and of closures (`g{n}` calls
    /// `g{n-1}`) nest its evaluation for Spawn.
    fn nested(shape: &str, n: usize) -> String {
        use std::fmt::Write;
        let mut src = String::from("machine m 1 1\nval v0 is D 1\nval g0 is \\x. D 1\n");
        for k in 1..=n {
            writeln!(src, "val v{k} is v{}", k - 1).unwrap();
            writeln!(src, "val g{k} is \\x. g{} x", k - 1).unwrap();
        }
        let body = match shape {
            "brackets" => format!("{}D 1{}", "(".repeat(n), ")".repeat(n)),
            "lambdas" => format!("({}D 1){}", "\\a. ".repeat(n), " 0".repeat(n)),
            "vals" => format!("v{n}"),
            _ => format!("g{n} 0"),
        };
        writeln!(src, "sem s is {body}").unwrap();
        src
    }

    #[test]
    fn nesting_at_the_bound_compiles_on_a_small_stack() {
        for shape in ["brackets", "lambdas", "vals", "closures"] {
            // The deepest `n` that compiles.
            let n = (0..)
                .take_while(|&n| ArchDescription::compile(&nested(shape, n)).is_ok())
                .last()
                .unwrap_or_else(|| panic!("{shape}: no depth compiles"));
            assert!(n + 3 >= MAX_NESTING as usize, "{shape}: only {n} deep");
            let d = compile_on_a_small_stack(nested(shape, n));
            assert_eq!(d.group_for("s").unwrap().cycles, 1, "{shape}");
            let err = ArchDescription::compile(&nested(shape, n + 1)).unwrap_err();
            let msg = err.to_string();
            assert!(msg.contains("in sem `s`"), "{shape}: {msg}");
            assert!(
                msg.contains(&format!("deeper than {MAX_NESTING} levels")),
                "{shape}: {msg}"
            );
        }
    }

    #[test]
    fn endless_recursion_is_an_error() {
        for (what, src) in [
            ("self-application", "sem s is (\\x. x x) (\\x. x x)"),
            (
                "self-reading alias",
                "alias signed{32} X[i] is X[i]\nsem s is x := X[rs1]",
            ),
            (
                "self-writing alias",
                "alias signed{32} X[i] is X[i]\nsem s is X[rd] := 1",
            ),
        ] {
            let err = scoped(src).unwrap_err().to_string();
            assert!(
                err.contains("in sem `s`") && err.contains("evaluation nests deeper"),
                "{what}: {err}"
            );
        }
    }

    /// `val`s that each repeat the one before `k` times: `sem s`
    /// expands `v0` k^3 times, about 2k^3 evaluations, yet nests only a
    /// few levels deep.
    fn repeated(k: usize) -> String {
        let mut src = String::from("machine m 1 1\nval v0 is ()\n");
        for n in 1..=3 {
            let copies = vec![format!("v{}", n - 1); k];
            src.push_str(&format!("val v{n} is {}\n", copies.join(", ")));
        }
        src + "sem s is v3\n"
    }

    #[test]
    fn a_sem_past_the_evaluation_bound_is_an_error() {
        // k = 50 takes 255,102 evaluations; k = 100 takes 2,020,202.
        let d = ArchDescription::compile(&repeated(50)).expect("within the bound");
        assert!(d.group_for("s").is_some());
        let msg = ArchDescription::compile(&repeated(100))
            .unwrap_err()
            .to_string();
        assert!(msg.contains("in sem `s`"), "{msg}");
        assert!(
            msg.contains(&format!("more than {MAX_EVALUATIONS} steps")),
            "{msg}"
        );
    }

    #[test]
    fn group_cycle_count_includes_trailing_releases() {
        // Acquire for 3 cycles starting at cycle 0; the instruction
        // occupies the pipe until the release at cycle 3.
        let d =
            ArchDescription::compile("machine m 1 1\nunit FDIV 1\nsem fdivs is AR FDIV 1 3, D 1")
                .unwrap();
        assert_eq!(d.group_for("fdivs").unwrap().cycles, 3);
    }
}
