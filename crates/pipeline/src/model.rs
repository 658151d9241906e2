//! A machine timing model: a compiled SADL description validated
//! against the instruction set, ready to answer timing queries.

use std::error::Error;
use std::fmt;
use std::sync::{Arc, OnceLock};

use eel_sadl::{
    descriptions, ArchDescription, GroupId, RegClass, SadlError, TimingGroup, MAX_GROUP_CYCLES,
};
use eel_sparc::{Instruction, Resource};
use eel_telemetry::Fnv1a;

/// Maps a dependence-analysis [`Resource`] to the SADL register class
/// whose read/write cycles the timing group records.
pub fn class_of(resource: Resource) -> RegClass {
    match resource {
        Resource::Int(_) => RegClass::Int,
        Resource::Fp(_) => RegClass::Fp,
        Resource::Icc => RegClass::Icc,
        Resource::Fcc => RegClass::Fcc,
        Resource::Y => RegClass::Y,
    }
}

/// An error constructing a [`MachineModel`].
#[derive(Debug)]
pub enum ModelError {
    /// The SADL source failed to compile.
    Sadl(SadlError),
    /// The description compiled but does not bind every instruction.
    Coverage(SadlError),
    /// The description exceeds a structural limit of the compiled
    /// reservation tables (e.g. unit lanes that do not pack into 64
    /// bits).
    Unsupported(String),
}

impl fmt::Display for ModelError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ModelError::Sadl(e) => write!(f, "SADL error: {e}"),
            ModelError::Coverage(e) => write!(f, "incomplete description: {e}"),
            ModelError::Unsupported(why) => write!(f, "unsupported description: {why}"),
        }
    }
}

impl Error for ModelError {
    fn source(&self) -> Option<&(dyn Error + 'static)> {
        match self {
            ModelError::Sadl(e) | ModelError::Coverage(e) => Some(e),
            ModelError::Unsupported(_) => None,
        }
    }
}

/// A validated machine timing model.
///
/// Wraps an [`ArchDescription`] whose `sem` bindings are guaranteed to
/// cover every instruction `eel-sparc` can produce, so timing lookups
/// never fail. Also precomputes, per timing group, the *cumulative*
/// unit occupancy in every cycle of the group's pattern (an acquired
/// unit stays held until its release), which is what the hazard check
/// consumes.
///
/// ```
/// use eel_pipeline::MachineModel;
/// use eel_sparc::Instruction;
///
/// let model = MachineModel::ultrasparc();
/// let g = model.group(&Instruction::nop());
/// assert!(g.cycles >= 1);
/// ```
#[derive(Debug, Clone)]
pub struct MachineModel {
    /// All tables live behind one `Arc`, so cloning a model (or
    /// handing copies to scheduler/simulator worker threads) is a
    /// reference-count bump, not a deep copy of the timing tables.
    inner: Arc<ModelTables>,
}

/// The immutable compiled tables a [`MachineModel`] shares.
#[derive(Debug)]
struct ModelTables {
    desc: ArchDescription,
    /// `usage[group][cycle]` — units (and copy counts) held during
    /// that cycle of the group's execution. The sparse form behind
    /// [`MachineModel::usage`]; the hazard check itself runs on
    /// `reservations`.
    usage: Vec<Vec<Vec<(usize, u32)>>>,
    /// The dense per-cycle reservation tables the hot path consumes.
    reservations: ReservationTables,
    /// `group_of[i]` — the group bound to the `i`-th name of
    /// [`Instruction::ALL_TIMING_NAMES`] (see
    /// [`Instruction::timing_index`]), so resolving an instruction is
    /// an array index, not a mnemonic hash.
    group_of: Vec<GroupId>,
    /// Stable hash of the description, for artifact-cache keys;
    /// computed on first use, since most models are never keyed.
    content_hash: OnceLock<u64>,
}

/// Every timing group's resource pattern, compiled into one contiguous
/// array of packed rows at model construction — the paper's
/// reservation-table formulation made concrete, so `pipeline_stalls`
/// checks one pattern row with one subtract-and-mask instead of
/// chasing nested `Vec`s and `HashMap`s per probe cycle.
///
/// A row is one `u64` holding a lane of `lane_bits` bits per unit kind,
/// unit `u` at bit `u * lane_bits`: the bits of the machine's largest
/// unit count plus a guard bit on top. The pipeline state keeps each
/// cycle's free copies in the same layout with every guard set, so
/// `(free - demand) & guards == guards` exactly when every unit has
/// the copies the row asks for: a lane short of copies borrows its own
/// guard, and the guard stops the borrow there.
///
/// Layout (one allocation per field, shared by every handle):
///
/// ```text
/// rows:    one packed demand word per pattern row (guards clear)
///          group g owns rows spans[g].0 .. spans[g].0 + spans[g].1
/// full:    the free word of an idle cycle: every lane at its unit's
///          count, every guard set
/// guards:  every lane's guard bit
/// read_at / avail_at: per group, per RegClass (dense index), the
///          operand read cycle / result-available offset with the
///          hazard defaults baked in
/// ```
#[derive(Debug)]
pub(crate) struct ReservationTables {
    /// Distinct unit kinds — the lanes in use.
    pub(crate) unit_kinds: usize,
    /// Initial free copies per unit.
    pub(crate) counts: Vec<u32>,
    /// Bits per unit lane, guard included.
    pub(crate) lane_bits: u32,
    /// Every lane's guard bit.
    pub(crate) guards: u64,
    /// The free word of an idle cycle.
    pub(crate) full: u64,
    /// All groups' per-cycle unit demand, one packed word per row. An
    /// infeasible group's rows hold 0: they are never checked.
    pub(crate) rows: Vec<u64>,
    /// Per group: `(first row, row count)` into `rows`.
    pub(crate) spans: Vec<(u32, u32)>,
    /// Per group, per class: operand read cycle, defaulted to 0 when
    /// the group never reads the class (the hazard check's rule).
    pub(crate) read_at: Vec<[u32; RegClass::COUNT]>,
    /// Per group, per class: issue-relative cycle the result becomes
    /// visible to other instructions (`write_cycle + 1`, defaulted to
    /// `cycles + 1`).
    pub(crate) avail_at: Vec<[u32; RegClass::COUNT]>,
    /// Per group: total cycles through the pipe.
    pub(crate) cycles: Vec<u32>,
    /// Per group: whether every row's demand fits the unit counts. An
    /// infeasible group can never issue, at any cycle.
    pub(crate) feasible: Vec<bool>,
    /// The longest pattern (in rows) over all groups — how far past
    /// its issue cycle any instruction can occupy units, and therefore
    /// the bound on the pipeline state's ring capacity.
    pub(crate) max_rows: usize,
}

impl ReservationTables {
    /// Group `gid`'s packed demand rows, issue cycle first.
    pub(crate) fn group_rows(&self, gid: usize) -> &[u64] {
        let (first, rows) = self.spans[gid];
        &self.rows[first as usize..(first + rows) as usize]
    }
}

/// An instruction pre-resolved against one [`MachineModel`]: its
/// timing-group id plus its operand resources paired with their hazard
/// cycles, all in fixed inline storage. Every `stalls`/`issue` on it is
/// pure array arithmetic, and dependence analysis reads its operands
/// and latencies from [`PreparedInsn::reads`] and
/// [`PreparedInsn::writes`]. Prepared instructions are only meaningful
/// on the model (or an identically-compiled clone) that produced them.
#[derive(Debug, Clone, Copy)]
pub struct PreparedInsn {
    pub(crate) gid: u32,
    pub(crate) n_uses: u8,
    pub(crate) n_defs: u8,
    /// `(resource index, issue-relative operand read cycle)`.
    pub(crate) uses: [(u8, u32); 4],
    /// `(resource index, issue-relative result-available offset)`.
    pub(crate) defs: [(u8, u32); 4],
}

impl PreparedInsn {
    /// The timing-group id the instruction resolved to.
    pub fn group_id(&self) -> GroupId {
        self.gid as usize
    }

    /// The resources the instruction reads, in
    /// [`Instruction::uses_fixed`] order: `(Resource::index, cycle)`
    /// pairs, where `cycle` is the issue-relative cycle the operand is
    /// read (the group's read cycle for the resource's class).
    pub fn reads(&self) -> &[(u8, u32)] {
        &self.uses[..self.n_uses as usize]
    }

    /// The resources the instruction writes, in
    /// [`Instruction::defs_fixed`] order: `(Resource::index, offset)`
    /// pairs, where `offset` is the issue-relative cycle the result
    /// becomes visible (the group's `write_cycle + 1` for the class).
    pub fn writes(&self) -> &[(u8, u32)] {
        &self.defs[..self.n_defs as usize]
    }
}

/// Per-class timing of one compiled group, with the hazard-check
/// defaults already applied (see [`MachineModel::timing`]).
#[derive(Debug, Clone, Copy)]
pub struct GroupTiming<'a> {
    read_at: &'a [u32; RegClass::COUNT],
    avail_at: &'a [u32; RegClass::COUNT],
    cycles: u32,
}

impl GroupTiming<'_> {
    /// The issue-relative cycle operands of `class` are read (0 when
    /// the group never reads the class).
    pub fn read_cycle(self, class: RegClass) -> u32 {
        self.read_at[class.index()]
    }

    /// The issue-relative cycle a `class` result becomes visible to
    /// other instructions: `write_cycle + 1` with forwarding, or
    /// `cycles + 1` when the group never writes the class.
    pub fn avail_offset(self, class: RegClass) -> u32 {
        self.avail_at[class.index()]
    }

    /// Total cycles for a member instruction to pass through the pipe.
    pub fn cycles(self) -> u32 {
        self.cycles
    }
}

// Experiment workers share one model across threads; keep that
// guarantee explicit so a non-Sync field cannot sneak in.
const _: () = {
    const fn assert_send_sync<T: Send + Sync>() {}
    assert_send_sync::<MachineModel>();
};

impl MachineModel {
    /// Builds a model from a compiled description, validating that
    /// every instruction timing name is bound.
    ///
    /// # Errors
    ///
    /// Returns [`ModelError::Coverage`] listing any missing mnemonics.
    pub fn new(desc: ArchDescription) -> Result<MachineModel, ModelError> {
        desc.validate_coverage(Instruction::ALL_TIMING_NAMES)
            .map_err(ModelError::Coverage)?;
        Ok(MachineModel {
            inner: Arc::new(compile_tables(desc)?),
        })
    }

    /// Compiles SADL source and builds a model from it.
    ///
    /// # Errors
    ///
    /// Returns [`ModelError::Sadl`] on compile errors, or
    /// [`ModelError::Coverage`] if instructions are missing.
    pub fn from_source(src: &str) -> Result<MachineModel, ModelError> {
        let desc = ArchDescription::compile(src).map_err(ModelError::Sadl)?;
        MachineModel::new(desc)
    }

    /// Every shipped model, in the order of [`descriptions::ALL`], the
    /// one list of shipped machines.
    pub fn shipped() -> Vec<MachineModel> {
        descriptions::ALL
            .iter()
            .map(|&(name, src)| compile_shipped(name, src))
            .collect()
    }

    /// The shipped model whose name is `name`, ignoring ASCII case.
    /// Only that one description is compiled.
    pub fn named(name: &str) -> Option<MachineModel> {
        descriptions::ALL
            .iter()
            .find(|(n, _)| n.eq_ignore_ascii_case(name))
            .map(|&(name, src)| compile_shipped(name, src))
    }

    /// The shipped ROSS hyperSPARC model (2-way superscalar).
    pub fn hypersparc() -> MachineModel {
        compile_shipped("hyperSPARC", descriptions::HYPERSPARC)
    }

    /// The shipped TI SuperSPARC model (3-way superscalar, 50 MHz).
    pub fn supersparc() -> MachineModel {
        compile_shipped("SuperSPARC", descriptions::SUPERSPARC)
    }

    /// The shipped Sun UltraSPARC-I model (4-way superscalar, 167 MHz).
    pub fn ultrasparc() -> MachineModel {
        compile_shipped("UltraSPARC", descriptions::ULTRASPARC)
    }

    /// The shipped scalar control machine (1-wide; not in the paper —
    /// used to show superscalar width is what makes hiding possible).
    pub fn microsparc() -> MachineModel {
        compile_shipped("microSPARC", descriptions::MICROSPARC)
    }

    /// The shipped 6-wide VLIW / exposed-datapath machine (not in the
    /// paper — maximal issue width with long visible latencies).
    pub fn vliw() -> MachineModel {
        compile_shipped("VLIW", descriptions::VLIW)
    }

    /// The shipped deeply pipelined dual-issue machine (not in the
    /// paper — long load/FP shadows with little width).
    pub fn deepsparc() -> MachineModel {
        compile_shipped("DeepSPARC", descriptions::DEEPSPARC)
    }

    /// The underlying compiled description.
    pub fn desc(&self) -> &ArchDescription {
        &self.inner.desc
    }

    /// The machine's name.
    pub fn name(&self) -> &str {
        &self.inner.desc.machine
    }

    /// Clock rate in MHz (for converting cycles to seconds).
    pub fn clock_mhz(&self) -> u32 {
        self.inner.desc.clock_mhz
    }

    /// Nominal issue width.
    pub fn issue_width(&self) -> u32 {
        self.inner.desc.issue_width
    }

    /// A stable 64-bit hash of the compiled description: equal for
    /// models built from the same source (including derived variants
    /// with the same effective tables), stable across runs and
    /// platforms. Artifact caches use it to key per-machine work.
    pub fn content_hash(&self) -> u64 {
        *self
            .inner
            .content_hash
            .get_or_init(|| canonical_hash(&self.inner.desc))
    }

    /// Whether two handles share (or equal) the same compiled tables.
    pub fn same_tables(&self, other: &MachineModel) -> bool {
        Arc::ptr_eq(&self.inner, &other.inner) || self.content_hash() == other.content_hash()
    }

    /// The timing group for an instruction. Total: a validated model
    /// binds every timing name, undecodable words' `unknown` included.
    pub fn group(&self, insn: &Instruction) -> &TimingGroup {
        &self.inner.desc.groups[self.group_id_of(insn)]
    }

    /// A variant of this model whose loads have `extra` additional
    /// cycles of result latency.
    ///
    /// The paper's SADL descriptions model only the execution
    /// pipelines — "no information about a processor's memory
    /// interface … or instruction and data cache behavior" (§3.2).
    /// The *machine being measured* does have those effects; this
    /// variant represents its average effective load latency. The
    /// benchmark harness measures on (and lets the "compiler" schedule
    /// for) the biased model while EEL schedules with the nominal one,
    /// reproducing the paper's model-vs-machine gap; it is also the
    /// "balanced scheduling" knob of Kerns & Eggers that the paper
    /// cites for handling uncertain memory latency.
    ///
    /// # Panics
    ///
    /// If `extra` exceeds [`MachineModel::max_load_latency_bias`].
    pub fn with_load_latency_bias(&self, extra: u32) -> MachineModel {
        if extra == 0 {
            return self.clone();
        }
        assert!(
            extra <= self.max_load_latency_bias(),
            "a load-latency bias of {extra} makes a load longer than {MAX_GROUP_CYCLES} cycles"
        );
        let mut desc = self.inner.desc.clone();
        for id in load_groups(&desc) {
            let g = &mut desc.groups[id];
            for w in &mut g.writes {
                w.1 += extra;
                g.cycles = g.cycles.max(w.1 + 1);
            }
            // Keep the per-cycle event tables sized to the new length.
            g.acquires.resize(g.cycles as usize + 1, Vec::new());
            g.releases.resize(g.cycles as usize + 1, Vec::new());
        }
        MachineModel {
            inner: Arc::new(
                compile_tables(desc).expect("bias changes no units; recompilation cannot fail"),
            ),
        }
    }

    /// The largest bias [`MachineModel::with_load_latency_bias`]
    /// accepts: the one that makes the latest load result land in the
    /// last cycle a timing group may have ([`MAX_GROUP_CYCLES`]).
    pub fn max_load_latency_bias(&self) -> u32 {
        let desc = &self.inner.desc;
        let latest = load_groups(desc)
            .into_iter()
            .flat_map(|id| desc.groups[id].writes.iter().map(|w| w.1))
            .max()
            .unwrap_or(0);
        (MAX_GROUP_CYCLES - 1).saturating_sub(latest)
    }

    /// The per-cycle cumulative unit occupancy of an instruction:
    /// `usage(insn)[c]` lists `(unit, copies)` held during cycle `c`
    /// of its execution.
    pub fn usage(&self, insn: &Instruction) -> &[Vec<(usize, u32)>] {
        &self.inner.usage[self.group_id_of(insn)]
    }

    /// Total number of distinct unit kinds (for sizing state vectors).
    pub fn unit_kinds(&self) -> usize {
        self.inner.reservations.unit_kinds
    }

    /// Initial free-copy counts, indexed by unit id.
    pub fn unit_counts(&self) -> Vec<u32> {
        self.inner.reservations.counts.clone()
    }

    /// The compiled reservation tables (crate-internal hot-path view).
    pub(crate) fn tables(&self) -> &ReservationTables {
        &self.inner.reservations
    }

    /// The timing-group id for an instruction: one index into a table
    /// compiled at construction, keyed by [`Instruction::timing_index`].
    /// Total, like [`MachineModel::group`].
    pub fn group_id_of(&self, insn: &Instruction) -> GroupId {
        self.inner.group_of[insn.timing_index()]
    }

    /// The compiled per-class timing of a group: read cycles and
    /// result-available offsets with the hazard defaults baked in.
    /// Lets dependence analysis read latencies as array lookups
    /// instead of scanning a [`TimingGroup`]'s event lists.
    ///
    /// # Panics
    ///
    /// Panics if `gid` is not a group id of this model.
    pub fn timing(&self, gid: GroupId) -> GroupTiming<'_> {
        let t = &self.inner.reservations;
        GroupTiming {
            read_at: &t.read_at[gid],
            avail_at: &t.avail_at[gid],
            cycles: t.cycles[gid],
        }
    }

    /// Resolves an instruction against this model once, so the hot
    /// `stalls`/`issue` queries need no name lookups and no operand
    /// extraction. See [`PreparedInsn`].
    pub fn prepare(&self, insn: &Instruction) -> PreparedInsn {
        let gid = self.group_id_of(insn);
        let t = &self.inner.reservations;
        let mut p = PreparedInsn {
            gid: gid as u32,
            n_uses: 0,
            n_defs: 0,
            uses: [(0, 0); 4],
            defs: [(0, 0); 4],
        };
        for r in &insn.uses_fixed() {
            p.uses[p.n_uses as usize] = (r.index() as u8, t.read_at[gid][class_of(r).index()]);
            p.n_uses += 1;
        }
        for r in &insn.defs_fixed() {
            p.defs[p.n_defs as usize] = (r.index() as u8, t.avail_at[gid][class_of(r).index()]);
            p.n_defs += 1;
        }
        p
    }

    /// The longest resource pattern over all groups, in rows (cycles
    /// of possible unit occupancy per instruction). Bounds how far
    /// past its issue cycle any instruction can hold units — the
    /// [`crate::PipelineState`] ring is sized from it.
    pub fn max_pattern_rows(&self) -> usize {
        self.inner.reservations.max_rows
    }
}

/// The distinct timing groups of the load instructions, which
/// [`MachineModel::with_load_latency_bias`] lengthens.
fn load_groups(desc: &ArchDescription) -> std::collections::BTreeSet<GroupId> {
    const LOADS: &[&str] = &["ld", "ldub", "ldsb", "lduh", "ldsh", "ldd", "ldf", "lddf"];
    LOADS.iter().filter_map(|m| desc.group_id(m)).collect()
}

/// Compiles a validated description into the shared table set: the
/// sparse per-group occupancy (kept for [`MachineModel::usage`] and
/// the reference pipeline) and the dense reservation tables.
fn compile_tables(desc: ArchDescription) -> Result<ModelTables, ModelError> {
    let usage: Vec<Vec<Vec<(usize, u32)>>> = (0..desc.groups.len())
        .map(|gid| occupancy(&desc, gid))
        .collect::<Result<_, _>>()?;
    let reservations = compile_reservations(&desc, &usage)?;
    let group_of = Instruction::ALL_TIMING_NAMES
        .iter()
        .map(|name| {
            desc.group_id(name)
                .expect("validated models bind every timing name")
        })
        .collect();
    Ok(ModelTables {
        desc,
        usage,
        reservations,
        group_of,
        content_hash: OnceLock::new(),
    })
}

/// Flattens the per-group occupancy into [`ReservationTables`]: one
/// packed demand word per pattern row, plus per-group, per-class
/// timing rows with the hazard defaults applied.
///
/// # Errors
///
/// [`ModelError::Unsupported`] when the unit lanes need more than 64
/// bits, naming the machine and its unit counts.
fn compile_reservations(
    desc: &ArchDescription,
    usage: &[Vec<Vec<(usize, u32)>>],
) -> Result<ReservationTables, ModelError> {
    let unit_kinds = desc.units.len();
    let counts: Vec<u32> = desc.units.iter().map(|u| u.count).collect();
    let count_bits = 32 - counts.iter().max().copied().unwrap_or(0).leading_zeros();
    let lane_bits = count_bits + 1;
    let width = unit_kinds as u64 * u64::from(lane_bits);
    if width > 64 {
        let units: Vec<String> = desc
            .units
            .iter()
            .map(|u| format!("{} {}", u.name, u.count))
            .collect();
        return Err(ModelError::Unsupported(format!(
            "machine `{}` has {unit_kinds} unit kinds of {lane_bits}-bit lanes \
             ({count_bits} count bits and a guard), {width} bits, but a packed \
             reservation row holds 64 (unit counts: {})",
            desc.machine,
            units.join(", ")
        )));
    }
    let lane = |u: usize, n: u64| n << (u as u32 * lane_bits);
    let guards = (0..unit_kinds).fold(0, |g, u| g | lane(u, 1 << count_bits));
    let full = (0..unit_kinds).fold(guards, |f, u| f | lane(u, counts[u].into()));
    let total_rows: usize = usage.iter().map(Vec::len).sum();

    let mut rows_out = Vec::with_capacity(total_rows);
    let mut spans = Vec::with_capacity(desc.groups.len());
    let mut read_at = Vec::with_capacity(desc.groups.len());
    let mut avail_at = Vec::with_capacity(desc.groups.len());
    let mut cycles = Vec::with_capacity(desc.groups.len());
    let mut feasible = Vec::with_capacity(desc.groups.len());
    let mut max_rows = 0usize;

    for (group, rows) in desc.groups.iter().zip(usage) {
        let start = rows_out.len();
        let fits = rows.iter().flatten().all(|&(u, n)| n <= counts[u]);
        // Only a demand within the unit's count fits its lane.
        rows_out.extend(rows.iter().map(|held| {
            if fits {
                held.iter().fold(0, |row, &(u, n)| row | lane(u, n.into()))
            } else {
                0
            }
        }));
        spans.push((start as u32, rows.len() as u32));
        max_rows = max_rows.max(rows.len());

        let mut reads = [0u32; RegClass::COUNT];
        let mut avails = [0u32; RegClass::COUNT];
        for class in RegClass::ALL {
            reads[class.index()] = group.read_cycle(class).unwrap_or(0);
            avails[class.index()] = group.write_cycle(class).unwrap_or(group.cycles) + 1;
        }
        read_at.push(reads);
        avail_at.push(avails);
        cycles.push(group.cycles);
        feasible.push(fits);
    }

    Ok(ReservationTables {
        unit_kinds,
        counts,
        lane_bits,
        guards,
        full,
        rows: rows_out,
        spans,
        read_at,
        avail_at,
        cycles,
        feasible,
        max_rows,
    })
}

/// The FNV-1a hash of a canonical rendering of a description,
/// streamed as it is written. The `Debug` form won't do: the
/// mnemonic→group bindings live in a `HashMap`, whose iteration order
/// differs from process to process, and the hash must be stable across
/// processes (it keys on-disk artifact caches).
fn canonical_hash(desc: &ArchDescription) -> u64 {
    use std::fmt::Write;
    let mut h = Fnv1a::default();
    let _ = write!(
        h,
        "{}|{}|{}|units={:?}|groups={:?}",
        desc.machine, desc.issue_width, desc.clock_mhz, desc.units, desc.groups
    );
    let mut names: Vec<&str> = desc.mnemonics().collect();
    names.sort_unstable();
    for name in names {
        let _ = write!(h, "|{name}->{:?}", desc.group_id(name));
    }
    h.finish()
}

/// Rolls group `gid`'s acquire/release events into per-cycle cumulative
/// occupancy. Within a cycle, releases apply before acquires (per the
/// paper's §3.1).
///
/// # Errors
///
/// [`ModelError::Unsupported`] when the group holds a unit more than
/// `u32::MAX` times at once, naming the unit and one of the group's
/// mnemonics.
fn occupancy(desc: &ArchDescription, gid: GroupId) -> Result<Vec<Vec<(usize, u32)>>, ModelError> {
    let group = &desc.groups[gid];
    let mut held = vec![0u32; desc.units.len()];
    let mut out = Vec::with_capacity(group.cycles as usize + 1);
    for c in 0..=group.cycles {
        for &(u, n) in group.releases_at(c) {
            held[u] = held[u].saturating_sub(n);
        }
        for &(u, n) in group.acquires_at(c) {
            held[u] = held[u].checked_add(n).ok_or_else(|| {
                let mnemonic = desc
                    .mnemonics()
                    .filter(|&m| desc.group_id(m) == Some(gid))
                    .min()
                    .unwrap_or("?");
                ModelError::Unsupported(format!(
                    "`{mnemonic}` holds unit `{}` more than {} times at once",
                    desc.unit_name(u).unwrap_or("?"),
                    u32::MAX
                ))
            })?;
        }
        out.push(
            held.iter()
                .enumerate()
                .filter(|&(_, &n)| n > 0)
                .map(|(u, &n)| (u, n))
                .collect(),
        );
    }
    Ok(out)
}

/// Compiles the shipped description `src` of machine `name`, which
/// must build.
fn compile_shipped(name: &str, src: &str) -> MachineModel {
    MachineModel::from_source(src)
        .unwrap_or_else(|e| panic!("shipped {name} description is valid: {e}"))
}

#[cfg(test)]
mod tests {
    use super::*;
    use eel_sparc::{AluOp, IntReg, Operand};

    #[test]
    fn shipped_models_build() {
        let shipped = MachineModel::shipped();
        let names: Vec<&str> = shipped.iter().map(MachineModel::name).collect();
        let listed: Vec<&str> = descriptions::ALL.iter().map(|&(name, _)| name).collect();
        assert_eq!(names, listed);
        for m in &shipped {
            assert!(m.unit_kinds() > 0);
            // Only the scalar control machine issues one at a time.
            let scalar = m.name() == "microSPARC";
            assert!(m.issue_width() >= 1);
            assert_eq!(m.issue_width() == 1, scalar, "{}", m.name());
            for name in [m.name().to_string(), m.name().to_ascii_lowercase()] {
                let named = MachineModel::named(&name).expect("a shipped name");
                assert_eq!(named.content_hash(), m.content_hash(), "{name}");
            }
        }
        assert_eq!(
            MachineModel::named("ULTRASPARC").map(|m| m.content_hash()),
            Some(MachineModel::ultrasparc().content_hash())
        );
        assert!(MachineModel::named("z80").is_none());
        assert!(MachineModel::named("").is_none());
    }

    #[test]
    fn content_hash_stable_and_discriminating() {
        // Two independent constructions hash identically (the hash
        // keys on-disk caches, so it must not depend on process- or
        // instance-local map ordering)...
        let a = MachineModel::ultrasparc();
        let b = MachineModel::ultrasparc();
        assert_eq!(a.content_hash(), b.content_hash());
        assert!(a.same_tables(&b));
        // ...while different machines and derived variants differ.
        assert_ne!(a.content_hash(), MachineModel::supersparc().content_hash());
        let biased = a.with_load_latency_bias(2);
        assert_ne!(a.content_hash(), biased.content_hash());
        assert_eq!(
            biased.content_hash(),
            b.with_load_latency_bias(2).content_hash()
        );
        // A zero bias is the identity: same shared tables, no copy.
        assert!(a.same_tables(&a.with_load_latency_bias(0)));
    }

    #[test]
    fn group_lookup_total_over_instruction_space() {
        let m = MachineModel::hypersparc();
        // Every decodable word has a timing group.
        for word in [0u32, 0x0100_0000, 0x9402_0009, 0xDEAD_BEEF, 0x81C3_E008] {
            let insn = Instruction::decode(word);
            let g = m.group(&insn);
            assert!(g.cycles >= 1, "{insn}");
        }
    }

    #[test]
    fn incomplete_description_rejected() {
        let err = MachineModel::from_source("machine tiny 1 1\nsem add is D 1").unwrap_err();
        assert!(matches!(err, ModelError::Coverage(_)));
        assert!(err.to_string().contains("sethi"));
    }

    #[test]
    fn bad_sadl_rejected() {
        let err = MachineModel::from_source("unit ALU").unwrap_err();
        assert!(matches!(err, ModelError::Sadl(_)));
    }

    #[test]
    fn unit_held_past_u32_rejected() {
        // Balanced, and each copy count fits in u32, but the two
        // acquires hold 6e9 ALU copies at once.
        let body = "(\\op. single, D 1, s1 := R[rs1], s2 := src2,";
        let src = eel_sadl::descriptions::MICROSPARC.replacen(
            body,
            "(\\op. A ALU 3000000000, D 1, A ALU 3000000000, D 1, \
             R ALU 3000000000, D 1, R ALU 3000000000, single, D 1, \
             s1 := R[rs1], s2 := src2,",
            1,
        );
        assert_ne!(src, eel_sadl::descriptions::MICROSPARC);
        let err = MachineModel::from_source(&src).unwrap_err();
        assert!(matches!(err, ModelError::Unsupported(_)), "{err}");
        let msg = err.to_string();
        assert!(
            msg.contains("unit `ALU`") && msg.contains("4294967295"),
            "{msg}"
        );
        assert!(msg.contains("`smul`") || msg.contains("`umul`"), "{msg}");
    }

    #[test]
    fn every_shipped_machine_packs_into_one_word() {
        // Packed lane bits per shipped machine, in `shipped()` order.
        let pinned = [
            ("hyperSPARC", 33),
            ("SuperSPARC", 15),
            ("UltraSPARC", 24),
            ("microSPARC", 10),
            ("VLIW", 20),
            ("DeepSPARC", 15),
        ];
        let shipped = MachineModel::shipped();
        let names: Vec<&str> = shipped.iter().map(MachineModel::name).collect();
        assert_eq!(names, pinned.map(|(name, _)| name), "one width per machine");
        for (m, (_, bits)) in shipped.iter().zip(pinned) {
            let t = m.tables();
            assert_eq!(t.unit_kinds as u32 * t.lane_bits, bits, "{}", m.name());
            assert_eq!(t.guards.count_ones() as usize, t.unit_kinds);
            assert_eq!(t.full & !t.guards, {
                let lane = |u: usize| u64::from(t.counts[u]) << (u as u32 * t.lane_bits);
                (0..t.unit_kinds).fold(0, |f, u| f | lane(u))
            });
        }
    }

    #[test]
    fn lanes_wider_than_a_word_rejected() {
        // Five units whose widest count needs 12 bits: five 13-bit
        // lanes, 65 bits.
        let src = eel_sadl::descriptions::MICROSPARC.replacen("unit Group 1", "unit Group 4000", 1);
        assert_ne!(src, eel_sadl::descriptions::MICROSPARC);
        let err = MachineModel::from_source(&src).unwrap_err();
        assert!(matches!(err, ModelError::Unsupported(_)), "{err}");
        let msg = err.to_string();
        assert!(!msg.contains('\n'), "{msg}");
        for part in ["`microSPARC`", "5 unit kinds", "13-bit lanes", "65 bits"] {
            assert!(msg.contains(part), "{part}: {msg}");
        }
        assert!(
            msg.contains("Group 4000, ALU 1, LSU 1, FPU 1, FDIV 1"),
            "{msg}"
        );
        // One bit less fits: 4000 → 2047 needs 11 count bits.
        let src = eel_sadl::descriptions::MICROSPARC.replacen("unit Group 1", "unit Group 2047", 1);
        let m = MachineModel::from_source(&src).unwrap();
        assert_eq!(m.tables().lane_bits, 12);
    }

    #[test]
    fn class_mapping_covers_all_resources() {
        assert_eq!(class_of(Resource::Int(IntReg::O0)), RegClass::Int);
        assert_eq!(class_of(Resource::Icc), RegClass::Icc);
        assert_eq!(class_of(Resource::Fcc), RegClass::Fcc);
        assert_eq!(class_of(Resource::Y), RegClass::Y);
    }

    #[test]
    fn occupancy_spans_held_cycles() {
        // hyperSPARC add: ALU held only in cycle 1, ALUw in cycle 2,
        // Group in cycle 0.
        let m = MachineModel::hypersparc();
        let add = Instruction::Alu {
            op: AluOp::Add,
            rs1: IntReg::O0,
            src2: Operand::imm(1),
            rd: IntReg::O1,
        };
        let usage = m.usage(&add);
        let alu = m.desc().unit_id("ALU").unwrap();
        let group = m.desc().unit_id("Group").unwrap();
        assert!(usage[0].iter().any(|&(u, _)| u == group));
        assert!(
            !usage[1].iter().any(|&(u, _)| u == group),
            "Group released after 1 cycle"
        );
        assert!(usage[1].iter().any(|&(u, _)| u == alu));
    }

    #[test]
    fn occupancy_spans_long_holds() {
        // fdivd holds FDIV for its whole iteration on every machine.
        let m = MachineModel::ultrasparc();
        let fdiv = Instruction::Fp {
            op: eel_sparc::FpOp::FDivD,
            rs1: eel_sparc::FpReg::new(0),
            rs2: eel_sparc::FpReg::new(2),
            rd: eel_sparc::FpReg::new(4),
        };
        let usage = m.usage(&fdiv);
        let fdiv_unit = m.desc().unit_id("FDIV").unwrap();
        let held_cycles = usage
            .iter()
            .filter(|cyc| cyc.iter().any(|&(u, _)| u == fdiv_unit))
            .count();
        assert!(held_cycles >= 20, "FDIV held {held_cycles} cycles");
    }

    #[test]
    fn load_latency_bias_slows_loads_only() {
        let m = MachineModel::ultrasparc();
        let biased = m.with_load_latency_bias(2);
        let ld = Instruction::Load {
            width: eel_sparc::MemWidth::Word,
            addr: eel_sparc::Address::base_imm(IntReg::O0, 0),
            rd: IntReg::O1,
        };
        let add = Instruction::Alu {
            op: AluOp::Add,
            rs1: IntReg::O0,
            src2: Operand::imm(1),
            rd: IntReg::O1,
        };
        use eel_sadl::RegClass;
        assert_eq!(
            biased.group(&ld).write_cycle(RegClass::Int),
            m.group(&ld).write_cycle(RegClass::Int).map(|c| c + 2)
        );
        assert_eq!(biased.group(&add), m.group(&add), "non-loads untouched");
        assert_eq!(m.with_load_latency_bias(0).group(&ld), m.group(&ld));
    }

    #[test]
    fn alu_sharing_visible_through_model() {
        let m = MachineModel::ultrasparc();
        let add = Instruction::Alu {
            op: AluOp::Add,
            rs1: IntReg::O0,
            src2: Operand::imm(1),
            rd: IntReg::O1,
        };
        let sub = Instruction::Alu {
            op: AluOp::Sub,
            rs1: IntReg::O0,
            src2: Operand::imm(1),
            rd: IntReg::O1,
        };
        assert_eq!(m.group(&add), m.group(&sub));
    }
}
