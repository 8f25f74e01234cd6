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

/// Word-packed per-cycle demand of a context for one operation class.
///
/// For each schedule cycle with at least one matching instance, the
/// `(row, col) → count` map is stored as a stack of **bit planes**: plane
/// `p` holds bit `p` of every cell's count, one `u64` word per 64
/// columns, rows contiguous within a plane. A cell's count is
/// `Σₚ 2ᵖ · bitₚ(row, col)`; with one operation per PE per cycle (the
/// mapper's normal output) a single plane suffices and the planes
/// dimension degenerates to a plain bitset.
///
/// This is the exploration-side replacement for rebuilding a dense
/// `cycles × rows × cols` histogram per candidate architecture: the
/// profile depends only on the context (not on the sharing plan), is
/// built once, and reductions over it are branch-free word operations —
/// a row's demand total is a popcount over `⌈cols/64⌉` words per plane
/// ([`CycleView::row_count`]), not a scan over sparse cells.
///
/// Unlike the sparse cell list this replaces, the packed form also keeps
/// each non-empty cycle's **schedule cycle index**
/// ([`CycleDemand::cycle_ids`]): the slack-aware stall bound in
/// `rsp_core::estimate` needs to know *when* demand occurs, not just how
/// much, to credit later idle capacity against earlier oversubscribed
/// cycles.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct CycleDemand {
    rows: usize,
    cols: usize,
    /// Words per row of one plane: `⌈cols / 64⌉`.
    words_per_row: usize,
    /// Bit planes per cycle: enough for the largest cell count (≥ 1
    /// whenever any cycle is non-empty).
    planes: usize,
    /// Schedule cycle index of each non-empty cycle, ascending.
    cycle_ids: Vec<u32>,
    /// Total demand of each non-empty cycle (parallel to `cycle_ids`).
    totals: Vec<u32>,
    /// Packed planes, laid out `[cycle][plane][row][word]`.
    bits: Vec<u64>,
}

impl CycleDemand {
    /// Array rows of the profiled context.
    pub fn rows(&self) -> usize {
        self.rows
    }

    /// Array columns of the profiled context.
    pub fn cols(&self) -> usize {
        self.cols
    }

    /// Whether no instance matched the profiled class.
    pub fn is_empty(&self) -> bool {
        self.cycle_ids.is_empty()
    }

    /// Total matching instances across the whole schedule.
    pub fn total(&self) -> u32 {
        self.totals.iter().sum()
    }

    /// Schedule cycle indices of the non-empty cycles, ascending.
    pub fn cycle_ids(&self) -> &[u32] {
        &self.cycle_ids
    }

    /// Per-cycle totals of the non-empty cycles (parallel to
    /// [`CycleDemand::cycle_ids`]).
    pub fn cycle_totals(&self) -> &[u32] {
        &self.totals
    }

    /// Words of one cycle's packed planes.
    fn cycle_words(&self) -> usize {
        self.planes * self.rows * self.words_per_row
    }

    /// Iterates the non-empty cycles as [`CycleView`]s, in schedule
    /// order.
    pub fn cycles(&self) -> impl Iterator<Item = CycleView<'_>> {
        let stride = self.cycle_words();
        self.cycle_ids
            .iter()
            .zip(&self.totals)
            .enumerate()
            .map(move |(i, (&cycle, &total))| CycleView {
                demand: self,
                base: i * stride,
                cycle,
                total,
            })
    }
}

/// One non-empty cycle of a [`CycleDemand`]: a borrowed window over the
/// packed planes with branch-free reduction accessors.
#[derive(Debug, Clone, Copy)]
pub struct CycleView<'a> {
    demand: &'a CycleDemand,
    /// Word offset of this cycle's planes in `demand.bits`.
    base: usize,
    cycle: u32,
    total: u32,
}

impl CycleView<'_> {
    /// Schedule cycle index of this demand cycle.
    pub fn cycle(&self) -> u32 {
        self.cycle
    }

    /// Total demand issued in this cycle across the whole array.
    pub fn total(&self) -> u32 {
        self.total
    }

    /// Word offset of `row` within plane `p` of this cycle.
    fn row_base(&self, p: usize, row: usize) -> usize {
        self.base + (p * self.demand.rows + row) * self.demand.words_per_row
    }

    /// Demand total of one row: `Σₚ 2ᵖ · popcount(planeₚ[row])`. Pure
    /// word arithmetic — no per-cell branches, no scratch.
    pub fn row_count(&self, row: usize) -> u32 {
        let wpr = self.demand.words_per_row;
        let mut total = 0u32;
        for p in 0..self.demand.planes {
            let start = self.row_base(p, row);
            let ones: u32 = self.demand.bits[start..start + wpr]
                .iter()
                .map(|w| w.count_ones())
                .sum();
            total += ones << p;
        }
        total
    }

    /// Demand of one `(row, col)` cell.
    pub fn count(&self, row: usize, col: usize) -> u32 {
        let (word, bit) = (col / 64, col % 64);
        let mut count = 0u32;
        for p in 0..self.demand.planes {
            count |= (((self.demand.bits[self.row_base(p, row) + word] >> bit) & 1) as u32) << p;
        }
        count
    }

    /// Visits every non-zero `(row, col, count)` cell in row-major order
    /// — the same order the dense histogram sweep visits cells, so greedy
    /// bank absorption over this walk reproduces it exactly. Occupied
    /// columns are found by `trailing_zeros` over the OR of the planes'
    /// words, so cost scales with non-zero cells, not `rows × cols`.
    pub fn for_each_cell<F: FnMut(u16, u16, u32)>(&self, mut f: F) {
        let wpr = self.demand.words_per_row;
        for row in 0..self.demand.rows {
            for word in 0..wpr {
                let mut occupied = 0u64;
                for p in 0..self.demand.planes {
                    occupied |= self.demand.bits[self.row_base(p, row) + word];
                }
                while occupied != 0 {
                    let bit = occupied.trailing_zeros() as usize;
                    let col = word * 64 + bit;
                    f(row as u16, col as u16, self.count(row, col));
                    occupied &= occupied - 1;
                }
            }
        }
    }
}

/// Peak per-row and total demand profile of a context (used by the RSP
/// exploration's upper-bound estimate and by Table 3's `Mult No`).
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

    /// Packed per-cycle demand of operations selected by `pred` (e.g.
    /// all operations of one shared functional-unit kind). Storage scales
    /// with non-empty cycles (`⌈cols/64⌉ · rows · planes` words each),
    /// never with the full `cycles` dimension.
    pub fn cycle_demand<F: Fn(OpKind) -> bool>(&self, pred: F) -> CycleDemand {
        let mut points: Vec<(u32, u16, u16)> = self
            .instances
            .iter()
            .zip(&self.cycles)
            .filter(|(inst, _)| pred(inst.op))
            .map(|(inst, &cyc)| (cyc, inst.pe.row as u16, inst.pe.col as u16))
            .collect();
        points.sort_unstable();

        // Merge duplicate (cycle, row, col) points into counted cells and
        // collect per-cycle ids/totals.
        let mut cells: Vec<(u32, u16, u16, u32)> = Vec::new();
        let mut cycle_ids: Vec<u32> = Vec::new();
        let mut totals: Vec<u32> = Vec::new();
        for (cyc, row, col) in points {
            if cycle_ids.last() != Some(&cyc) {
                cycle_ids.push(cyc);
                totals.push(0);
            }
            *totals.last_mut().unwrap() += 1;
            match cells.last_mut() {
                Some(l) if (l.0, l.1, l.2) == (cyc, row, col) => l.3 += 1,
                _ => cells.push((cyc, row, col, 1)),
            }
        }

        let rows = self.geometry.rows();
        let cols = self.geometry.cols();
        let words_per_row = cols.div_ceil(64);
        let max_count = cells.iter().map(|&(.., n)| n).max().unwrap_or(0);
        let planes = (32 - max_count.leading_zeros()).max(1) as usize;
        let mut bits = vec![0u64; cycle_ids.len() * planes * rows * words_per_row];
        let mut cycle_index = 0usize;
        for (cyc, row, col, count) in cells {
            while cycle_ids[cycle_index] != cyc {
                cycle_index += 1;
            }
            let base = cycle_index * planes * rows * words_per_row;
            for p in 0..planes {
                if count >> p & 1 != 0 {
                    let idx = base + (p * rows + row as usize) * words_per_row + col as usize / 64;
                    bits[idx] |= 1u64 << (col % 64);
                }
            }
        }
        CycleDemand {
            rows,
            cols,
            words_per_row,
            planes,
            cycle_ids,
            totals,
            bits,
        }
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
