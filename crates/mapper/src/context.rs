//! Configuration contexts: the scheduled operation instances of one kernel
//! on one array.
//!
//! A [`ConfigContext`] is the mapper's output and the unit the RSP flow
//! rearranges: every body/tail node of every element/step becomes one
//! [`OpInstance`] pinned to a PE, with a base schedule assigning each
//! instance a cycle. Data dependences are resolved to instance ids, and
//! memory accesses to concrete addresses, so downstream passes (RSP
//! rearrangement, simulation) never re-interpret the kernel.

use rsp_arch::{ArrayGeometry, BusSpec, OpKind, PeId};
use rsp_kernel::MappingStyle;
use serde::{Deserialize, Serialize};
use std::fmt;

/// Index of an operation instance within its context.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Serialize, Deserialize)]
pub struct InstanceId(pub u32);

impl InstanceId {
    /// Position in [`ConfigContext::instances`].
    pub fn index(self) -> usize {
        self.0 as usize
    }
}

impl fmt::Display for InstanceId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "i{}", self.0)
    }
}

/// A value operand resolved to the instance graph.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum SrcOperand {
    /// Primary value of another instance.
    Inst(InstanceId),
    /// Secondary word of a dual-load instance.
    PairOf(InstanceId),
    /// Immediate from the configuration context.
    Const(i32),
    /// Loop-invariant parameter (index into the kernel's parameters).
    Param(u32),
}

/// A concrete memory access.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct MemAccess {
    /// Array index in the kernel's declarations.
    pub array: u32,
    /// Word address within the array.
    pub addr: u32,
}

/// One scheduled operation instance.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct OpInstance {
    /// This instance's id (equals its position).
    pub id: InstanceId,
    /// Element index in the kernel's iteration space.
    pub element: u32,
    /// Step index; tail instances carry `step == kernel.steps()`.
    pub step: u32,
    /// Node index within the body (or tail) DFG.
    pub node: u32,
    /// Whether the instance comes from the tail graph.
    pub is_tail: bool,
    /// Operation kind.
    pub op: OpKind,
    /// The PE executing this instance.
    pub pe: PeId,
    /// Value operands.
    pub operands: Vec<SrcOperand>,
    /// Words loaded in this cycle (one or two for loads, empty otherwise).
    pub loads: Vec<MemAccess>,
    /// Word stored (stores only).
    pub store: Option<MemAccess>,
    /// Deduplicated data predecessors.
    pub preds: Vec<InstanceId>,
}

impl OpInstance {
    /// Row-bus words this instance moves in its issue cycle.
    pub fn bus_read_words(&self) -> usize {
        self.loads.len()
    }

    /// Whether this instance writes memory.
    pub fn is_store(&self) -> bool {
        self.store.is_some()
    }
}

/// Peak per-cycle, per-row and per-column demand of a context for one
/// operation class, and its total (Table 3's `Mult No` is the
/// multiplications' `max_per_cycle`).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct DemandProfile {
    /// Maximum operations of the profiled kind issued in any single cycle
    /// across the whole array.
    pub max_per_cycle: usize,
    /// Maximum issued in any single (row, cycle).
    pub max_per_row_cycle: usize,
    /// Maximum issued in any single (column, cycle).
    pub max_per_col_cycle: usize,
    /// Total instances of the profiled kind.
    pub total: usize,
}

/// The scheduled mapping of one kernel onto one array.
///
/// Deserializing checks the structure every consumer indexes by: one
/// base cycle per instance, each instance's id equal to its position,
/// every predecessor and instance operand naming an instance of this
/// context, and `total_cycles` one past the last cycle (0 when empty).
/// A context that breaks any of these is an error, not a value. What a
/// schedule means — dependence order, PE placement inside the array —
/// is left to the passes that use it (`rsp_core::rearrange` reports
/// those as invalid contexts).
#[derive(Debug, Clone, PartialEq, Serialize)]
pub struct ConfigContext {
    kernel_name: String,
    geometry: ArrayGeometry,
    buses: BusSpec,
    style: MappingStyle,
    initiation_interval: u32,
    instances: Vec<OpInstance>,
    cycles: Vec<u32>,
    total_cycles: u32,
}

/// The serialized fields of a [`ConfigContext`], before its structure
/// is checked.
#[derive(Deserialize)]
struct ConfigContextFields {
    kernel_name: String,
    geometry: ArrayGeometry,
    buses: BusSpec,
    style: MappingStyle,
    initiation_interval: u32,
    instances: Vec<OpInstance>,
    cycles: Vec<u32>,
    total_cycles: u32,
}

impl<'de> Deserialize<'de> for ConfigContext {
    fn from_value(value: &serde::Value) -> Result<Self, serde::DeError> {
        let f = ConfigContextFields::from_value(value)?;
        let invalid = |what: String| Err(serde::DeError(format!("invalid ConfigContext: {what}")));
        let n = f.instances.len();
        if f.cycles.len() != n {
            return invalid(format!("{} cycles for {n} instances", f.cycles.len()));
        }
        for (i, inst) in f.instances.iter().enumerate() {
            if inst.id.index() != i {
                return invalid(format!("instance {i} has id {}", inst.id));
            }
            let operand_ids = inst.operands.iter().filter_map(|o| match *o {
                SrcOperand::Inst(id) | SrcOperand::PairOf(id) => Some(id),
                SrcOperand::Const(_) | SrcOperand::Param(_) => None,
            });
            if let Some(id) = inst
                .preds
                .iter()
                .copied()
                .chain(operand_ids)
                .find(|id| id.index() >= n)
            {
                return invalid(format!("instance {i} refers to {id} of {n}"));
            }
        }
        let span = f
            .cycles
            .iter()
            .map(|&c| u64::from(c) + 1)
            .max()
            .unwrap_or(0);
        if u64::from(f.total_cycles) != span {
            return invalid(format!(
                "total_cycles {} but the schedule spans {span}",
                f.total_cycles
            ));
        }
        Ok(Self {
            kernel_name: f.kernel_name,
            geometry: f.geometry,
            buses: f.buses,
            style: f.style,
            initiation_interval: f.initiation_interval,
            instances: f.instances,
            cycles: f.cycles,
            total_cycles: f.total_cycles,
        })
    }
}

impl ConfigContext {
    pub(crate) fn new(
        kernel_name: String,
        geometry: ArrayGeometry,
        buses: BusSpec,
        style: MappingStyle,
        initiation_interval: u32,
        instances: Vec<OpInstance>,
        cycles: Vec<u32>,
    ) -> Self {
        debug_assert_eq!(instances.len(), cycles.len());
        let total_cycles = cycles.iter().map(|&c| c + 1).max().unwrap_or(0);
        Self {
            kernel_name,
            geometry,
            buses,
            style,
            initiation_interval,
            instances,
            cycles,
            total_cycles,
        }
    }

    /// Name of the mapped kernel.
    pub fn kernel_name(&self) -> &str {
        &self.kernel_name
    }

    /// Geometry of the target array.
    pub fn geometry(&self) -> ArrayGeometry {
        self.geometry
    }

    /// Row-bus provisioning of the target array.
    pub fn buses(&self) -> BusSpec {
        self.buses
    }

    /// Mapping style that produced this context.
    pub fn style(&self) -> MappingStyle {
        self.style
    }

    /// Initiation interval: cycles between successive iterations on the
    /// same resources (dataflow) or the body length (lockstep).
    pub fn initiation_interval(&self) -> u32 {
        self.initiation_interval
    }

    /// All instances, id order.
    pub fn instances(&self) -> &[OpInstance] {
        &self.instances
    }

    /// One instance.
    ///
    /// # Panics
    ///
    /// Panics if the id is out of range.
    pub fn instance(&self, id: InstanceId) -> &OpInstance {
        &self.instances[id.index()]
    }

    /// The base-schedule cycle of an instance.
    pub fn cycle_of(&self, id: InstanceId) -> u32 {
        self.cycles[id.index()]
    }

    /// The base schedule as a slice parallel to [`ConfigContext::instances`].
    pub fn cycles(&self) -> &[u32] {
        &self.cycles
    }

    /// Total cycles of the base schedule.
    pub fn total_cycles(&self) -> u32 {
        self.total_cycles
    }

    /// Demand profile of operations executing on functional unit kinds
    /// selected by `pred` (e.g. multiplications).
    pub fn demand_profile<F: Fn(OpKind) -> bool>(&self, pred: F) -> DemandProfile {
        let rows = self.geometry.rows();
        let cols = self.geometry.cols();
        let t = self.total_cycles as usize;
        let mut per_cycle = vec![0usize; t];
        let mut per_row = vec![0usize; t * rows];
        let mut per_col = vec![0usize; t * cols];
        let mut total = 0;
        for (inst, &cyc) in self.instances.iter().zip(&self.cycles) {
            if pred(inst.op) {
                total += 1;
                let c = cyc as usize;
                per_cycle[c] += 1;
                per_row[c * rows + inst.pe.row] += 1;
                per_col[c * cols + inst.pe.col] += 1;
            }
        }
        DemandProfile {
            max_per_cycle: per_cycle.into_iter().max().unwrap_or(0),
            max_per_row_cycle: per_row.into_iter().max().unwrap_or(0),
            max_per_col_cycle: per_col.into_iter().max().unwrap_or(0),
            total,
        }
    }

    /// Demand profile of multiplications — Table 3's `Mult No` is
    /// `max_per_cycle`.
    pub fn mult_profile(&self) -> DemandProfile {
        self.demand_profile(|o| o == OpKind::Mult)
    }

    /// Peak read-bus words on any (row, cycle) and peak store words on any
    /// (row, cycle): `(reads, writes)`. Values above the [`BusSpec`]
    /// capacities mean the schedule relies on operand-reuse/memory-sharing
    /// (ref. \[7\] of the paper) to fit the buses.
    pub fn bus_pressure(&self) -> (usize, usize) {
        let rows = self.geometry.rows();
        let t = self.total_cycles as usize;
        let mut reads = vec![0usize; t * rows];
        let mut writes = vec![0usize; t * rows];
        for (inst, &cyc) in self.instances.iter().zip(&self.cycles) {
            let idx = cyc as usize * rows + inst.pe.row;
            reads[idx] += inst.bus_read_words();
            writes[idx] += usize::from(inst.is_store());
        }
        (
            reads.into_iter().max().unwrap_or(0),
            writes.into_iter().max().unwrap_or(0),
        )
    }

    /// Renders a Fig. 2/6-style schedule table using an externally
    /// supplied schedule (pass [`ConfigContext::cycles`] for the base
    /// schedule, or a rearranged one).
    ///
    /// Lockstep contexts print one line per column (all PEs of a column
    /// execute identically); dataflow contexts print one line per PE.
    /// `annotate` receives each instance and may decorate its mnemonic
    /// (e.g. `1*`/`2*` for pipeline stages as in Fig. 6).
    pub fn render_schedule<F: Fn(&OpInstance) -> String>(
        &self,
        cycles: &[u32],
        annotate: F,
    ) -> String {
        assert_eq!(cycles.len(), self.instances.len());
        let total = cycles.iter().map(|&c| c + 1).max().unwrap_or(0) as usize;
        type LaneSelector = Box<dyn Fn(&OpInstance) -> bool>;
        let lanes: Vec<(String, LaneSelector)> = match self.style {
            MappingStyle::Lockstep => (0..self.geometry.cols())
                .map(|c| {
                    let name = format!("col#{}", c + 1);
                    let f: LaneSelector =
                        Box::new(move |i: &OpInstance| i.pe.col == c && i.pe.row == 0);
                    (name, f)
                })
                .collect(),
            MappingStyle::Dataflow => self
                .geometry
                .iter()
                .map(|pe| {
                    let name = format!("PE[{},{}]", pe.row, pe.col);
                    let f: LaneSelector = Box::new(move |i: &OpInstance| i.pe == pe);
                    (name, f)
                })
                .collect(),
        };

        let mut grid: Vec<Vec<String>> = vec![vec![String::new(); total]; lanes.len()];
        for (inst, &cyc) in self.instances.iter().zip(cycles) {
            for (li, (_, sel)) in lanes.iter().enumerate() {
                if sel(inst) {
                    let cell = &mut grid[li][cyc as usize];
                    if !cell.is_empty() {
                        cell.push('/');
                    }
                    cell.push_str(&annotate(inst));
                }
            }
        }

        let width = grid
            .iter()
            .flatten()
            .map(String::len)
            .chain(std::iter::once(4))
            .max()
            .unwrap();
        let mut out = String::new();
        out.push_str(&format!("{:>10} |", "cycle"));
        for t in 1..=total {
            out.push_str(&format!(" {t:>width$} |"));
        }
        out.push('\n');
        for (li, (name, _)) in lanes.iter().enumerate() {
            // Skip all-empty dataflow lanes to keep 8x8 printouts readable.
            if grid[li].iter().all(String::is_empty) {
                continue;
            }
            out.push_str(&format!("{name:>10} |"));
            for cell in &grid[li] {
                out.push_str(&format!(" {cell:>width$} |"));
            }
            out.push('\n');
        }
        out
    }
}

impl fmt::Display for ConfigContext {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{} on {} ({} instances, {} cycles, {} style, II={})",
            self.kernel_name,
            self.geometry,
            self.instances.len(),
            self.total_cycles,
            self.style,
            self.initiation_interval
        )
    }
}
