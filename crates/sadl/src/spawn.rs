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

use std::collections::{BTreeMap, BTreeSet, HashMap};
use std::rc::Rc;

use crate::ast::{Decl, Expr, SpannedDecl};
use crate::desc::{ArchDescription, RegClass, TimingGroup, Unit, MAX_GROUP_CYCLES};
use crate::error::{Pos, SadlError};
use crate::parser::parse;

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

#[derive(Clone)]
enum Value {
    /// A data value: `at` is the cycle it was computed (0 = available
    /// at issue); `known` is its numeric value when statically known.
    Data { at: u32, known: Option<i64> },
    /// The unit value `()`.
    Unit,
    /// A boolean; `None` means unknown until instruction decode time.
    Bool(Option<bool>),
    /// A lambda closure.
    Closure(Rc<ClosureData>),
    /// A `val` macro: re-evaluated (with effects) at every use site.
    Thunk(Rc<ThunkData>),
    /// A primitive operation.
    Prim,
}

struct ClosureData {
    param: String,
    body: Expr,
    env: Env,
}

struct ThunkData {
    expr: Expr,
    env: Env,
}

type Env = HashMap<String, Value>;

/// Event log accumulated while interpreting one `sem` expression.
#[derive(Clone, Default)]
struct State {
    cycle: u32,
    acquires: BTreeMap<(u32, usize), u32>,
    releases: BTreeMap<(u32, usize), u32>,
    reads: BTreeSet<(RegClass, u32)>,
    writes: BTreeSet<(RegClass, u32)>,
}

struct Compiler {
    pos: Pos,
    units: Vec<Unit>,
    unit_ids: HashMap<String, usize>,
    regfiles: HashMap<String, RegClass>,
    aliases: HashMap<String, (String, Expr)>,
    env: Env,
    machine: Option<(String, u32, u32)>,
    groups: Vec<TimingGroup>,
    group_ids: HashMap<TimingGroup, usize>,
    bindings: HashMap<String, usize>,
}

impl Compiler {
    fn new() -> Compiler {
        let mut env = Env::new();
        for p in PRIMS {
            env.insert((*p).to_string(), Value::Prim);
        }
        for f in FIELDS {
            env.insert((*f).to_string(), Value::Data { at: 0, known: None });
        }
        Compiler {
            pos: Pos::default(),
            units: Vec::new(),
            unit_ids: HashMap::new(),
            regfiles: HashMap::new(),
            aliases: HashMap::new(),
            env,
            machine: None,
            groups: Vec::new(),
            group_ids: HashMap::new(),
            bindings: HashMap::new(),
        }
    }

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
    fn log_copies(
        &self,
        log: &mut BTreeMap<(u32, usize), u32>,
        at: u32,
        u: usize,
        num: u32,
    ) -> Result<(), SadlError> {
        let n = log.entry((at, u)).or_default();
        *n = n.checked_add(num).ok_or_else(|| {
            self.err(format!(
                "more than {} copies of unit `{}` in one cycle",
                u32::MAX,
                self.units[u].name
            ))
        })?;
        Ok(())
    }

    fn decl(&mut self, d: &SpannedDecl) -> Result<(), SadlError> {
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
                self.machine = Some((name.clone(), *issue, *clock_mhz));
            }
            Decl::Unit(units) => {
                for (name, count) in units {
                    if self.unit_ids.contains_key(name) {
                        return Err(self.err(format!("duplicate unit `{name}`")));
                    }
                    if *count == 0 {
                        return Err(self.err(format!("unit `{name}` has zero copies")));
                    }
                    self.unit_ids.insert(name.clone(), self.units.len());
                    self.units.push(Unit {
                        name: name.clone(),
                        count: *count,
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
                if self.regfiles.insert(name.clone(), class).is_some() {
                    return Err(self.err(format!("duplicate register file `{name}`")));
                }
            }
            Decl::Alias {
                name, param, body, ..
            } => {
                if self
                    .aliases
                    .insert(name.clone(), (param.clone(), body.clone()))
                    .is_some()
                {
                    return Err(self.err(format!("duplicate alias `{name}`")));
                }
            }
            Decl::Val {
                names,
                body,
                applied,
            } => {
                let exprs = self.expand_macro(names, body, applied)?;
                for (name, expr) in names.iter().zip(exprs) {
                    let thunk = Value::Thunk(Rc::new(ThunkData {
                        expr,
                        env: self.env.clone(),
                    }));
                    self.env.insert(name.clone(), thunk);
                }
            }
            Decl::Sem {
                names,
                body,
                applied,
            } => {
                let exprs = self.expand_macro(names, body, applied)?;
                for (name, expr) in names.iter().zip(exprs) {
                    if self.bindings.contains_key(name) {
                        return Err(self.err(format!("duplicate sem binding for `{name}`")));
                    }
                    let group = self.extract_group(name, &expr)?;
                    let id = *self.group_ids.entry(group.clone()).or_insert_with(|| {
                        self.groups.push(group);
                        self.groups.len() - 1
                    });
                    self.bindings.insert(name.clone(), id);
                }
            }
        }
        Ok(())
    }

    /// Expands `body @ [a b c]` into one expression per bound name.
    fn expand_macro(
        &self,
        names: &[String],
        body: &Expr,
        applied: &Option<Vec<Expr>>,
    ) -> Result<Vec<Expr>, SadlError> {
        match applied {
            None => Ok(vec![body.clone(); names.len()]),
            Some(args) => {
                if args.len() != names.len() {
                    return Err(self.err(format!(
                        "`@` list has {} entries for {} names",
                        args.len(),
                        names.len()
                    )));
                }
                Ok(args
                    .iter()
                    .map(|a| Expr::Apply(Box::new(body.clone()), Box::new(a.clone())))
                    .collect())
            }
        }
    }

    /// Interprets a `sem` expression and packages its event log.
    fn extract_group(&self, name: &str, expr: &Expr) -> Result<TimingGroup, SadlError> {
        let mut state = State::default();
        let env = self.env.clone();
        self.eval(expr, &env, &mut state)
            .map_err(|e| self.err(format!("in sem `{name}`: {e}")))?;

        // Every acquired copy must eventually be released.
        let mut balance: BTreeMap<usize, i64> = BTreeMap::new();
        for (&(_, u), &n) in &state.acquires {
            *balance.entry(u).or_default() += i64::from(n);
        }
        for (&(_, u), &n) in &state.releases {
            *balance.entry(u).or_default() -= i64::from(n);
        }
        if let Some((&u, &d)) = balance.iter().find(|&(_, &d)| d != 0) {
            return Err(self.err(format!(
                "sem `{name}` leaves unit `{}` unbalanced by {d}",
                self.units[u].name
            )));
        }

        let mut cycles = state.cycle;
        for &(c, _) in state.acquires.keys() {
            cycles = cycles.max(c + 1);
        }
        for &(c, _) in state.releases.keys() {
            cycles = cycles.max(c);
        }
        for &(_, c) in &state.reads {
            cycles = cycles.max(c + 1);
        }
        for &(_, c) in &state.writes {
            cycles = cycles.max(c + 1);
        }
        if cycles > MAX_GROUP_CYCLES {
            return Err(self.err(format!(
                "sem `{name}` is longer than {MAX_GROUP_CYCLES} cycles"
            )));
        }

        let mut acquires = vec![Vec::new(); cycles as usize + 1];
        for (&(c, u), &n) in &state.acquires {
            acquires[c as usize].push((u, n));
        }
        let mut releases = vec![Vec::new(); cycles as usize + 1];
        for (&(c, u), &n) in &state.releases {
            releases[c as usize].push((u, n));
        }
        Ok(TimingGroup {
            cycles,
            acquires,
            releases,
            reads: state.reads.iter().copied().collect(),
            writes: state.writes.iter().copied().collect(),
        })
    }

    // --- expression interpreter -------------------------------------------

    fn eval(&self, expr: &Expr, env: &Env, st: &mut State) -> Result<Value, SadlError> {
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
                    .ok_or_else(|| self.err(format!("unbound name `{n}`")))?
                    .clone();
                self.force(v, st)
            }
            Expr::Lambda(param, body) => Ok(Value::Closure(Rc::new(ClosureData {
                param: param.clone(),
                body: (**body).clone(),
                env: env.clone(),
            }))),
            Expr::Apply(f, a) => {
                let fv = self.eval(f, env, st)?;
                let av = self.eval(a, env, st)?;
                self.apply(fv, av, st)
            }
            Expr::Seq(elems) => {
                let mut env = env.clone();
                let mut last = Value::Unit;
                for e in elems {
                    if let Expr::Bind(name, value) = e {
                        let v = self.eval(value, &env, st)?;
                        env.insert(name.clone(), v.clone());
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
                        // Unknown until decode: take both arms and merge
                        // (maximum resource usage, latest availability).
                        let mut st_t = st.clone();
                        let vt = self.eval(t, env, &mut st_t)?;
                        let mut st_f = st.clone();
                        let vf = self.eval(f, env, &mut st_f)?;
                        if st_t.cycle != st_f.cycle {
                            return Err(self.err(
                                "conditional arms advance the pipeline by different amounts",
                            ));
                        }
                        *st = merge_states(st_t, st_f);
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
                    st.reads.insert((class, st.cycle));
                    return Ok(Value::Data {
                        at: st.cycle,
                        known: None,
                    });
                }
                if let Some((param, body)) = self.aliases.get(name) {
                    let mut inner = self.env.clone();
                    inner.insert(param.clone(), Value::Data { at: 0, known: None });
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
    /// evaluating port-acquisition effects along the way.
    fn write_target(&self, target: &str, value_at: u32, st: &mut State) -> Result<(), SadlError> {
        if let Some(&class) = self.regfiles.get(target) {
            st.writes.insert((class, value_at));
            return Ok(());
        }
        let Some((param, body)) = self.aliases.get(target) else {
            return Err(self.err(format!(
                "write target `{target}` is neither a register file nor an alias"
            )));
        };
        let mut env = self.env.clone();
        env.insert(param.clone(), Value::Data { at: 0, known: None });
        // Evaluate every element of the alias body except the final
        // register access, which becomes the write.
        let final_access = match body {
            Expr::Seq(elems) => {
                let (last, init) = elems.split_last().expect("parser yields non-empty seq");
                for e in init {
                    self.eval(e, &env, st)?;
                }
                last.clone()
            }
            other => other.clone(),
        };
        match final_access {
            Expr::Index(inner, _) => self.write_target(&inner, value_at, st),
            _ => Err(self.err(format!(
                "alias `{target}` does not end in a register access; cannot write through it"
            ))),
        }
    }

    fn force(&self, v: Value, st: &mut State) -> Result<Value, SadlError> {
        match v {
            Value::Thunk(t) => {
                let inner = self.eval(&t.expr, &t.env, st)?;
                self.force(inner, st)
            }
            other => Ok(other),
        }
    }

    fn apply(&self, f: Value, a: Value, st: &mut State) -> Result<Value, SadlError> {
        match f {
            Value::Closure(c) => {
                let mut env = c.env.clone();
                env.insert(c.param.clone(), a);
                self.eval(&c.body, &env, st)
            }
            // Applying a primitive (or continuing to apply its partial
            // result) computes a value in the current cycle.
            Value::Prim | Value::Data { .. } => Ok(Value::Data {
                at: st.cycle,
                known: None,
            }),
            Value::Thunk(_) => unreachable!("thunks are forced at lookup"),
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

fn merge_states(a: State, b: State) -> State {
    let mut out = State {
        cycle: a.cycle,
        ..State::default()
    };
    for m in [&a.acquires, &b.acquires] {
        for (&k, &n) in m {
            let e = out.acquires.entry(k).or_default();
            *e = (*e).max(n);
        }
    }
    for m in [&a.releases, &b.releases] {
        for (&k, &n) in m {
            let e = out.releases.entry(k).or_default();
            *e = (*e).max(n);
        }
    }
    out.reads = a.reads.union(&b.reads).copied().collect();
    out.writes = a.writes.union(&b.writes).copied().collect();
    out
}

fn merge_values(a: Value, b: Value) -> Result<Value, String> {
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
        let mut c = Compiler::new();
        for d in &decls {
            c.decl(d)?;
        }
        let (machine, issue_width, clock_mhz) = c
            .machine
            .ok_or_else(|| SadlError::new("description lacks a `machine` declaration"))?;
        Ok(ArchDescription {
            machine,
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
