//! Machine models: functional units and the hardware lookahead window.

use std::fmt;

/// Functional-unit class.
///
/// The paper's optimal results hold for a single functional unit; Section
/// 4.2 discusses the "assigned processor" model where each instruction must
/// run on a unit of a particular type. We model the classes that appear in
/// the paper's RS/6000 example plus a wildcard.
#[derive(Clone, Copy, PartialEq, Eq, Hash, Debug, Default)]
pub enum FuClass {
    /// No class requirement: runs on any unit (and a unit of class `Any`
    /// runs every instruction).
    #[default]
    Any,
    /// Fixed-point (integer) unit.
    Fixed,
    /// Floating-point unit.
    Float,
    /// Load/store (memory) unit.
    Memory,
    /// Branch unit.
    Branch,
}

impl FuClass {
    /// All concrete classes (excluding `Any`).
    pub const CONCRETE: [FuClass; 4] = [
        FuClass::Fixed,
        FuClass::Float,
        FuClass::Memory,
        FuClass::Branch,
    ];

    /// Every class, in declaration order (`class as usize` indexes it).
    pub const ALL: [FuClass; 5] = [
        FuClass::Any,
        FuClass::Fixed,
        FuClass::Float,
        FuClass::Memory,
        FuClass::Branch,
    ];
}

impl fmt::Display for FuClass {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let s = match self {
            FuClass::Any => "any",
            FuClass::Fixed => "fixed",
            FuClass::Float => "float",
            FuClass::Memory => "memory",
            FuClass::Branch => "branch",
        };
        f.write_str(s)
    }
}

/// Whether an instruction of class `instr` may execute on a unit of class
/// `unit`.
#[inline]
pub(crate) fn compatible(unit: FuClass, instr: FuClass) -> bool {
    unit == FuClass::Any || instr == FuClass::Any || unit == instr
}

/// A machine: a set of functional units plus the size of the hardware
/// instruction-lookahead window.
///
/// The window model is the one of paper Section 2.3: at any instant the
/// window holds `W` instructions that are contiguous in the dynamic
/// instruction stream; the processor may issue any ready instruction in
/// the window, and the window advances only when its first instruction has
/// been issued. `W` is "usually very small (typically < 10)".
#[derive(Clone, PartialEq, Eq, Debug)]
pub struct MachineModel {
    /// One entry per functional unit, giving the class of instructions the
    /// unit serves (`Any` = universal unit).
    pub units: Vec<FuClass>,
    /// Lookahead-window size `W >= 1`. `W = 1` means no lookahead: strict
    /// in-order single-instruction issue from the stream head.
    pub window: usize,
}

impl MachineModel {
    /// The restricted machine of the paper's optimality results: a single
    /// universal functional unit, with the given window size.
    pub fn single_unit(window: usize) -> Self {
        assert!(window >= 1, "window must be at least 1");
        MachineModel {
            units: vec![FuClass::Any],
            window,
        }
    }

    /// A machine with `n` identical universal units.
    pub fn uniform(n: usize, window: usize) -> Self {
        assert!(n >= 1, "need at least one unit");
        assert!(window >= 1, "window must be at least 1");
        MachineModel {
            units: vec![FuClass::Any; n],
            window,
        }
    }

    /// An RS/6000-flavoured assigned-unit machine: one fixed-point, one
    /// floating-point, one memory and one branch unit.
    pub fn rs6000_like(window: usize) -> Self {
        MachineModel {
            units: vec![
                FuClass::Fixed,
                FuClass::Float,
                FuClass::Memory,
                FuClass::Branch,
            ],
            window,
        }
    }

    /// Number of functional units.
    #[inline]
    pub fn num_units(&self) -> usize {
        self.units.len()
    }

    /// True if this is the single-unit machine of the optimality results.
    #[inline]
    pub fn is_single_unit(&self) -> bool {
        self.units.len() == 1
    }

    /// Whether instruction class `instr` can execute on unit `u`.
    #[inline]
    pub fn unit_accepts(&self, u: usize, instr: FuClass) -> bool {
        compatible(self.units[u], instr)
    }

    /// Indices of the units that can run instructions of class `instr`.
    pub fn units_for(&self, instr: FuClass) -> impl Iterator<Item = usize> + '_ {
        self.units
            .iter()
            .enumerate()
            .filter(move |(_, &u)| compatible(u, instr))
            .map(|(i, _)| i)
    }

    /// Number of units that can run instructions of class `instr`.
    pub fn capacity_for(&self, instr: FuClass) -> usize {
        self.units_for(instr).count()
    }

    /// Returns a copy of this machine with a different window size.
    pub fn with_window(&self, window: usize) -> Self {
        assert!(window >= 1, "window must be at least 1");
        MachineModel {
            units: self.units.clone(),
            window,
        }
    }
}

impl Default for MachineModel {
    /// The paper's default analysis machine: one unit, window of 2 (the
    /// size used in the Figure 2 walk-through).
    fn default() -> Self {
        MachineModel::single_unit(2)
    }
}

/// The units of one machine that accept each instruction class, as
/// bitmasks: unit `u` is bit `u % 64` of word `u / 64`. A greedy pass
/// picks a unit by ANDing its class's mask with the free units, and the
/// lowest common bit is the first compatible free unit
/// ([`MachineModel::units_for`] order).
#[derive(Clone, Debug, Default)]
pub struct UnitMasks {
    /// Words per class mask.
    words: usize,
    /// The class masks, in [`FuClass::ALL`] order.
    bits: Vec<u64>,
}

impl UnitMasks {
    /// Load `machine`'s masks into this buffer (no allocation once it
    /// has held a machine as wide).
    pub fn load(&mut self, machine: &MachineModel) {
        self.words = machine.num_units().div_ceil(64);
        self.bits.clear();
        self.bits.resize(FuClass::ALL.len() * self.words, 0);
        for (c, &class) in FuClass::ALL.iter().enumerate() {
            for u in machine.units_for(class) {
                self.bits[c * self.words + u / 64] |= 1 << (u % 64);
            }
        }
    }

    /// The units that accept `class`.
    #[inline]
    pub fn of(&self, class: FuClass) -> &[u64] {
        let c = class as usize * self.words;
        &self.bits[c..c + self.words]
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn compatibility_rules() {
        assert!(compatible(FuClass::Any, FuClass::Fixed));
        assert!(compatible(FuClass::Fixed, FuClass::Any));
        assert!(compatible(FuClass::Fixed, FuClass::Fixed));
        assert!(!compatible(FuClass::Fixed, FuClass::Float));
    }

    #[test]
    fn single_unit_machine() {
        let m = MachineModel::single_unit(4);
        assert!(m.is_single_unit());
        assert_eq!(m.window, 4);
        assert_eq!(m.capacity_for(FuClass::Branch), 1);
    }

    #[test]
    fn assigned_units() {
        let m = MachineModel::rs6000_like(2);
        assert_eq!(m.num_units(), 4);
        assert_eq!(m.capacity_for(FuClass::Fixed), 1);
        assert_eq!(m.units_for(FuClass::Float).collect::<Vec<_>>(), vec![1]);
        // An `Any` instruction can run anywhere.
        assert_eq!(m.capacity_for(FuClass::Any), 4);
    }

    #[test]
    fn uniform_machine() {
        let m = MachineModel::uniform(3, 8);
        assert_eq!(m.num_units(), 3);
        assert!(!m.is_single_unit());
        assert_eq!(m.capacity_for(FuClass::Memory), 3);
    }

    #[test]
    fn unit_masks_follow_units_for() {
        let mut masks = UnitMasks::default();
        for m in [
            MachineModel::single_unit(1),
            MachineModel::rs6000_like(2),
            MachineModel::uniform(70, 1),
        ] {
            masks.load(&m);
            for class in FuClass::ALL {
                let set: Vec<usize> = crate::set::set_bits(masks.of(class)).collect();
                assert_eq!(set, m.units_for(class).collect::<Vec<_>>(), "{class}");
            }
        }
    }

    #[test]
    fn with_window_keeps_units() {
        let m = MachineModel::rs6000_like(2).with_window(16);
        assert_eq!(m.window, 16);
        assert_eq!(m.num_units(), 4);
    }

    #[test]
    #[should_panic(expected = "window must be at least 1")]
    fn zero_window_rejected() {
        MachineModel::single_unit(0);
    }
}
