//! Cell library container and the Nangate-anchored default library.

use crate::kind::CellKind;
use crate::spec::CellSpec;
use crate::units::Picoseconds;
use serde::Serialize;
// Name-to-index lookups; cells are listed from the `Vec`.
#[allow(clippy::disallowed_types)]
use std::collections::HashMap;

/// An ordered collection of [`CellSpec`]s with name lookup.
///
/// # Example
///
/// ```
/// use wavemin_cells::{CellLibrary, CellKind};
///
/// let lib = CellLibrary::nangate45();
/// assert!(lib.get("BUF_X8").is_some());
/// assert!(lib.of_kind(CellKind::Inverter).count() >= 4);
/// ```
#[derive(Debug, Default, Clone, Serialize)]
// Name-to-index lookups; cells are listed from the `Vec`.
#[allow(clippy::disallowed_types)]
pub struct CellLibrary {
    cells: Vec<CellSpec>,
    #[serde(skip)]
    index: HashMap<String, usize>,
}

impl CellLibrary {
    /// Creates an empty library.
    #[must_use]
    pub fn new() -> Self {
        Self::default()
    }

    /// Builds a library from an iterator of specs.
    ///
    /// Later cells with a duplicate name replace earlier ones in the name
    /// index (the earlier spec remains iterable).
    #[must_use]
    pub fn from_cells<I: IntoIterator<Item = CellSpec>>(cells: I) -> Self {
        let mut lib = Self::new();
        for c in cells {
            lib.push(c);
        }
        lib
    }

    /// Adds a cell to the library.
    pub fn push(&mut self, cell: CellSpec) {
        self.index.insert(cell.name().to_owned(), self.cells.len());
        self.cells.push(cell);
    }

    /// Looks a cell up by name.
    #[must_use]
    pub fn get(&self, name: &str) -> Option<&CellSpec> {
        self.index.get(name).map(|&i| &self.cells[i])
    }

    /// Number of cells.
    #[must_use]
    pub fn len(&self) -> usize {
        self.cells.len()
    }

    /// `true` when the library holds no cells.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.cells.is_empty()
    }

    /// Iterates over all cells in insertion order.
    pub fn iter(&self) -> impl Iterator<Item = &CellSpec> {
        self.cells.iter()
    }

    /// Iterates over the cells of one kind.
    pub fn of_kind(&self, kind: CellKind) -> impl Iterator<Item = &CellSpec> {
        self.cells.iter().filter(move |c| c.kind() == kind)
    }

    /// The buffer sub-library `B` of the paper.
    pub fn buffers(&self) -> impl Iterator<Item = &CellSpec> {
        self.of_kind(CellKind::Buffer)
    }

    /// The inverter sub-library `I` of the paper.
    pub fn inverters(&self) -> impl Iterator<Item = &CellSpec> {
        self.of_kind(CellKind::Inverter)
    }

    /// Restricts the library to the named cells, preserving order.
    ///
    /// Unknown names are ignored; use this to form the small `B ∪ I`
    /// assignment libraries of the paper (e.g. `{BUF_X8, BUF_X16, INV_X8,
    /// INV_X16}` in Section VII).
    #[must_use]
    pub fn subset(&self, names: &[&str]) -> Self {
        Self::from_cells(
            names
                .iter()
                .filter_map(|n| self.get(n))
                .cloned()
                .collect::<Vec<_>>(),
        )
    }

    /// The Nangate-45-anchored default library used by the reproduction.
    ///
    /// Contains `BUF_X{1,2,4,8,16,32}`, `INV_X{1,2,4,8,16,32}`,
    /// `ADB_X{4,8,16,32}` and `ADI_X{4,8,16,32}`. Anchors from the paper:
    /// `BUF_X16` output resistance 397.6 Ω, `BUF_X4` input capacitance
    /// 1 fF, `INV_X8` input capacitance 2.2 fF.
    #[must_use]
    pub fn nangate45() -> Self {
        let mut lib = Self::new();
        for drive in [1u32, 2, 4, 8, 16, 32] {
            lib.push(CellSpec::builder(format!("BUF_X{drive}"), CellKind::Buffer, drive).build());
        }
        for drive in [1u32, 2, 4, 8, 16, 32] {
            lib.push(
                CellSpec::builder(format!("INV_X{drive}"), CellKind::Inverter, drive)
                    // Anchor: INV_X8 C_in = 2.2 fF (paper Observation 4).
                    .c_in(crate::units::Femtofarads::new(0.275 * drive as f64))
                    .build(),
            );
        }
        for drive in [4u32, 8, 16, 32] {
            lib.push(
                CellSpec::builder(format!("ADB_X{drive}"), CellKind::Adb, drive)
                    .adjustable(Picoseconds::new(30.0), 12)
                    .build(),
            );
            lib.push(
                CellSpec::builder(format!("ADI_X{drive}"), CellKind::Adi, drive)
                    .adjustable(Picoseconds::new(30.0), 12)
                    .build(),
            );
        }
        lib
    }
}

impl FromIterator<CellSpec> for CellLibrary {
    fn from_iter<T: IntoIterator<Item = CellSpec>>(iter: T) -> Self {
        Self::from_cells(iter)
    }
}

impl Extend<CellSpec> for CellLibrary {
    fn extend<T: IntoIterator<Item = CellSpec>>(&mut self, iter: T) {
        for c in iter {
            self.push(c);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn nangate_library_contents() {
        let lib = CellLibrary::nangate45();
        assert_eq!(lib.buffers().count(), 6);
        assert_eq!(lib.inverters().count(), 6);
        assert_eq!(lib.of_kind(CellKind::Adb).count(), 4);
        assert_eq!(lib.of_kind(CellKind::Adi).count(), 4);
        assert_eq!(lib.len(), 20);
    }

    #[test]
    fn paper_anchors_present() {
        let lib = CellLibrary::nangate45();
        let b16 = lib.get("BUF_X16").unwrap();
        assert!((b16.r_out().value() - 397.6).abs() < 1e-6);
        let b4 = lib.get("BUF_X4").unwrap();
        assert!((b4.c_in().value() - 1.0).abs() < 1e-9);
        let i8 = lib.get("INV_X8").unwrap();
        assert!((i8.c_in().value() - 2.2).abs() < 1e-9);
    }

    #[test]
    fn lookup_and_subset() {
        let lib = CellLibrary::nangate45();
        assert!(lib.get("BUF_X8").is_some());
        assert!(lib.get("NAND2_X1").is_none());
        let sub = lib.subset(&["BUF_X8", "BUF_X16", "INV_X8", "INV_X16", "NOPE"]);
        assert_eq!(sub.len(), 4);
        assert_eq!(sub.iter().next().unwrap().name(), "BUF_X8");
    }

    #[test]
    fn collect_from_iterator() {
        let lib: CellLibrary = CellLibrary::nangate45().buffers().cloned().collect();
        assert_eq!(lib.len(), 6);
        assert!(lib.get("BUF_X4").is_some());
    }

    #[test]
    fn duplicate_names_resolve_to_latest() {
        let mut lib = CellLibrary::new();
        lib.push(CellSpec::builder("A", CellKind::Buffer, 1).build());
        lib.push(CellSpec::builder("A", CellKind::Inverter, 2).build());
        assert_eq!(lib.get("A").unwrap().kind(), CellKind::Inverter);
        assert_eq!(lib.len(), 2);
    }

    #[test]
    fn extend_works() {
        let mut lib = CellLibrary::new();
        lib.extend(CellLibrary::nangate45().inverters().cloned());
        assert_eq!(lib.len(), 6);
    }
}
