//! Row data-bus structure.
//!
//! Each row of the array shares read and write buses to data memory
//! (Fig. 1(b): two read buses and one write bus per row in the 4×4
//! illustration). The base architecture of §5.1 extends Morphosys with
//! "multiple read/write data buses" per row; bus capacity limits how many
//! load/store operations a row can issue in one cycle, which the mapper
//! must respect (memory-operation sharing, ref. \[7\] of the paper).

use serde::{Deserialize, Serialize};
use std::fmt;

/// Per-row data-bus provisioning.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub struct BusSpec {
    read_buses: usize,
    write_buses: usize,
}

impl BusSpec {
    /// Creates a bus specification.
    ///
    /// # Panics
    ///
    /// Panics if either count is zero — every row needs at least one read
    /// and one write bus to reach data memory.
    ///
    /// # Examples
    ///
    /// ```
    /// use rsp_arch::BusSpec;
    /// let b = BusSpec::new(2, 1);
    /// assert_eq!(b.read_buses(), 2);
    /// ```
    pub fn new(read_buses: usize, write_buses: usize) -> Self {
        assert!(
            read_buses > 0 && write_buses > 0,
            "each row needs at least one read and one write bus"
        );
        Self {
            read_buses,
            write_buses,
        }
    }

    /// The paper's Fig. 1 provisioning: two read buses, one write bus.
    pub fn paper_default() -> Self {
        Self::new(2, 1)
    }

    /// Number of read buses per row.
    pub fn read_buses(&self) -> usize {
        self.read_buses
    }

    /// Number of write buses per row.
    pub fn write_buses(&self) -> usize {
        self.write_buses
    }

    /// Maximum loads a row can issue in one cycle.
    pub fn load_capacity(&self) -> usize {
        self.read_buses
    }

    /// Maximum stores a row can issue in one cycle.
    pub fn store_capacity(&self) -> usize {
        self.write_buses
    }
}

impl Default for BusSpec {
    fn default() -> Self {
        Self::paper_default()
    }
}

impl fmt::Display for BusSpec {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}R/{}W per row", self.read_buses, self.write_buses)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn paper_default_matches_fig1() {
        let b = BusSpec::paper_default();
        assert_eq!(b.read_buses(), 2);
        assert_eq!(b.write_buses(), 1);
        assert_eq!(b.load_capacity(), 2);
        assert_eq!(b.store_capacity(), 1);
    }

    #[test]
    #[should_panic(expected = "at least one")]
    fn zero_read_buses_rejected() {
        let _ = BusSpec::new(0, 1);
    }

    #[test]
    fn default_is_paper_default() {
        assert_eq!(BusSpec::default(), BusSpec::paper_default());
    }

    #[test]
    fn display_shape() {
        assert_eq!(BusSpec::new(2, 1).to_string(), "2R/1W per row");
    }
}
