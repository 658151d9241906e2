//! The compiled output of a SADL description: what Spawn would have
//! emitted as C++ tables, expressed as Rust data.

use std::collections::HashMap;
use std::fmt;

use crate::error::SadlError;

/// A register class, the granularity at which SADL records operand
/// read/write timing. (Which *particular* register an instruction
/// touches comes from the decoder; the description only needs to know
/// *when* each class of operand is read or becomes available.)
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum RegClass {
    /// The integer register file (`R` in descriptions).
    Int,
    /// The floating-point register file (`F`).
    Fp,
    /// Integer condition codes (`ICC`).
    Icc,
    /// Floating-point condition codes (`FCC`).
    Fcc,
    /// The `Y` register.
    Y,
}

impl RegClass {
    /// Every class, in [`RegClass::index`] order.
    pub const ALL: [RegClass; RegClass::COUNT] = [
        RegClass::Int,
        RegClass::Fp,
        RegClass::Icc,
        RegClass::Fcc,
        RegClass::Y,
    ];

    /// Number of distinct classes (see [`RegClass::index`]).
    pub const COUNT: usize = 5;

    /// A dense index usable as an array subscript. The pipeline's
    /// compiled reservation tables store per-class timing in flat
    /// `[u32; RegClass::COUNT]` rows keyed by this.
    pub const fn index(self) -> usize {
        match self {
            RegClass::Int => 0,
            RegClass::Fp => 1,
            RegClass::Icc => 2,
            RegClass::Fcc => 3,
            RegClass::Y => 4,
        }
    }

    /// Maps a SADL register-file name to its class.
    pub fn from_file_name(name: &str) -> Option<RegClass> {
        match name {
            "R" => Some(RegClass::Int),
            "F" => Some(RegClass::Fp),
            "ICC" => Some(RegClass::Icc),
            "FCC" => Some(RegClass::Fcc),
            "Y" => Some(RegClass::Y),
            _ => None,
        }
    }
}

impl fmt::Display for RegClass {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let s = match self {
            RegClass::Int => "int",
            RegClass::Fp => "fp",
            RegClass::Icc => "icc",
            RegClass::Fcc => "fcc",
            RegClass::Y => "y",
        };
        f.write_str(s)
    }
}

/// A pipeline resource: a named unit with a fixed number of copies.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub struct Unit {
    /// The unit's name in the description (e.g. `ALU`, `Group`).
    pub name: String,
    /// How many copies the processor has.
    pub count: u32,
}

/// Identifies a [`Unit`] within an [`ArchDescription`].
pub type UnitId = usize;

/// Identifies a [`TimingGroup`] within an [`ArchDescription`].
pub type GroupId = usize;

/// The longest a [`TimingGroup`] may be, in cycles. Far above any
/// shipped description (whose longest single delay is 37 cycles), and
/// low enough that a group's per-cycle tables stay small.
pub const MAX_GROUP_CYCLES: u32 = 1024;

/// The timing and resource-usage pattern shared by a group of
/// instructions — Spawn's per-group tables.
///
/// Cycle numbers are relative to the instruction's issue cycle
/// (cycle 0). Within a cycle, releases apply before acquires.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub struct TimingGroup {
    /// Total cycles for a member instruction to pass through the pipe.
    pub cycles: u32,
    /// `acquires[c]` — units (and copy counts) acquired in cycle `c`.
    pub acquires: Vec<Vec<(UnitId, u32)>>,
    /// `releases[c]` — units (and copy counts) released in cycle `c`.
    pub releases: Vec<Vec<(UnitId, u32)>>,
    /// When each register-class operand is read (`(class, cycle)`).
    pub reads: Vec<(RegClass, u32)>,
    /// When each register-class result is *computed*. The value becomes
    /// visible to other instructions in the following cycle (forwarding).
    pub writes: Vec<(RegClass, u32)>,
}

impl TimingGroup {
    /// The units acquired in cycle `c` (empty past the end).
    pub fn acquires_at(&self, c: u32) -> &[(UnitId, u32)] {
        self.acquires
            .get(c as usize)
            .map(Vec::as_slice)
            .unwrap_or(&[])
    }

    /// The units released in cycle `c` (empty past the end).
    pub fn releases_at(&self, c: u32) -> &[(UnitId, u32)] {
        self.releases
            .get(c as usize)
            .map(Vec::as_slice)
            .unwrap_or(&[])
    }

    /// The cycle in which this group reads operands of `class`, if any.
    pub fn read_cycle(&self, class: RegClass) -> Option<u32> {
        self.reads
            .iter()
            .find(|(c, _)| *c == class)
            .map(|&(_, cy)| cy)
    }

    /// The cycle in which this group computes its `class` result, if any.
    pub fn write_cycle(&self, class: RegClass) -> Option<u32> {
        self.writes
            .iter()
            .find(|(c, _)| *c == class)
            .map(|&(_, cy)| cy)
    }
}

/// A complete compiled (micro)architecture description.
///
/// Produced by [`ArchDescription::compile`] from SADL source; consumed
/// by the pipeline model (`eel-pipeline`).
#[derive(Debug, Clone)]
pub struct ArchDescription {
    /// The machine's name (from the `machine` declaration).
    pub machine: String,
    /// Nominal superscalar issue width (informational).
    pub issue_width: u32,
    /// Clock rate in MHz, used to convert cycles to seconds in reports.
    pub clock_mhz: u32,
    /// All declared pipeline units, indexed by [`UnitId`].
    pub units: Vec<Unit>,
    /// Deduplicated timing groups, indexed by [`GroupId`].
    pub groups: Vec<TimingGroup>,
    pub(crate) bindings: HashMap<String, GroupId>,
}

impl ArchDescription {
    /// Looks up the unit with the given name.
    pub fn unit_id(&self, name: &str) -> Option<UnitId> {
        self.units.iter().position(|u| u.name == name)
    }

    /// The name of a unit, the inverse of
    /// [`ArchDescription::unit_id`]. Stall attribution uses it to
    /// render structural-hazard causes back in the description's
    /// vocabulary.
    pub fn unit_name(&self, id: UnitId) -> Option<&str> {
        self.units.get(id).map(|u| u.name.as_str())
    }

    /// The timing group bound to an instruction mnemonic.
    pub fn group_id(&self, mnemonic: &str) -> Option<GroupId> {
        self.bindings.get(mnemonic).copied()
    }

    /// The timing group bound to an instruction mnemonic.
    pub fn group_for(&self, mnemonic: &str) -> Option<&TimingGroup> {
        self.group_id(mnemonic).map(|id| &self.groups[id])
    }

    /// All bound mnemonics, in unspecified order.
    pub fn mnemonics(&self) -> impl Iterator<Item = &str> {
        self.bindings.keys().map(String::as_str)
    }

    /// Checks that every mnemonic in `required` is bound.
    ///
    /// # Errors
    ///
    /// Lists the missing mnemonics.
    pub fn validate_coverage(&self, required: &[&str]) -> Result<(), SadlError> {
        let missing: Vec<&str> = required
            .iter()
            .copied()
            .filter(|m| !self.bindings.contains_key(*m))
            .collect();
        if missing.is_empty() {
            Ok(())
        } else {
            Err(SadlError::new(format!(
                "description `{}` lacks sem bindings for: {}",
                self.machine,
                missing.join(", ")
            )))
        }
    }
}

#[cfg(test)]
mod tests {
    use crate::ArchDescription;

    #[test]
    fn unit_name_inverts_unit_id() {
        let desc = ArchDescription::compile(crate::descriptions::ULTRASPARC).unwrap();
        for (id, unit) in desc.units.iter().enumerate() {
            assert_eq!(desc.unit_id(&unit.name), Some(id));
            assert_eq!(desc.unit_name(id), Some(unit.name.as_str()));
        }
        assert_eq!(desc.unit_name(desc.units.len()), None);
    }
}
