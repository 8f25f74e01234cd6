//! Resource sharing and pipelining plan — the RSP template parameters.
//!
//! §4 of the paper lists the principal design-space parameters:
//!
//! * the types of shared functional resources,
//! * the types of pipelined resources,
//! * the number of pipeline stages of the pipelined resources,
//! * the number of rows of the shared resources (`shr`), and
//! * the number of columns of the shared resources (`shc`).
//!
//! Shared resources are placed in line with the rows and/or columns of the
//! array: a *row bank* of `shr` resources serves all PEs of its row, and a
//! *column bank* of `shc` resources serves all PEs of its column (Fig. 8).
//! Every PE reaches its banks through its private bus switch, whose
//! fan-in ([`SharedGroup::switch_fan_in`]) is `shr + shc` alternatives.

use crate::fu::FuKind;
use crate::geometry::{ArrayGeometry, PeId};
use crate::ArchError;
use serde::{Deserialize, Serialize};
use std::collections::BTreeMap;
use std::fmt;

/// Maximum supported pipeline depth for a single resource.
///
/// The paper pipelines the multiplier into two stages; deeper pipelines are
/// allowed for exploration but bounded to keep stage delay meaningful.
pub const MAX_STAGES: u8 = 8;

/// One group of shared resources of a single functional-unit kind.
///
/// `per_row`/`per_col` are the paper's `shr`/`shc`; `stages == 1` means the
/// resource is combinational (pure RS), `stages >= 2` means it is also
/// pipelined (RSP).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub struct SharedGroup {
    kind: FuKind,
    per_row: usize,
    per_col: usize,
    stages: u8,
}

impl SharedGroup {
    /// Creates a shared group.
    ///
    /// # Errors
    ///
    /// * [`ArchError::NotSharable`] if `kind` cannot be extracted from PEs.
    /// * [`ArchError::EmptyGroup`] if both `per_row` and `per_col` are zero.
    /// * [`ArchError::BadStages`] if `stages` is zero or exceeds
    ///   [`MAX_STAGES`], or if `stages > 1` for a kind that is not
    ///   pipelinable.
    ///
    /// # Examples
    ///
    /// ```
    /// use rsp_arch::{FuKind, SharedGroup};
    /// // Two pipelined multipliers shared by every row (RSP#2 row part).
    /// let g = SharedGroup::new(FuKind::Multiplier, 2, 0, 2)?;
    /// assert_eq!(g.per_row(), 2);
    /// assert!(g.is_pipelined());
    /// # Ok::<(), rsp_arch::ArchError>(())
    /// ```
    pub fn new(
        kind: FuKind,
        per_row: usize,
        per_col: usize,
        stages: u8,
    ) -> Result<Self, ArchError> {
        if !kind.is_sharable() {
            return Err(ArchError::NotSharable(kind));
        }
        if per_row == 0 && per_col == 0 {
            return Err(ArchError::EmptyGroup(kind));
        }
        if stages == 0 || stages > MAX_STAGES {
            return Err(ArchError::BadStages { kind, stages });
        }
        if stages > 1 && !kind.is_pipelinable() {
            return Err(ArchError::BadStages { kind, stages });
        }
        Ok(Self {
            kind,
            per_row,
            per_col,
            stages,
        })
    }

    /// The shared functional-unit kind.
    pub fn kind(&self) -> FuKind {
        self.kind
    }

    /// `shr`: shared resources placed along each row.
    pub fn per_row(&self) -> usize {
        self.per_row
    }

    /// `shc`: shared resources placed along each column.
    pub fn per_col(&self) -> usize {
        self.per_col
    }

    /// Pipeline depth of each shared resource (1 = combinational).
    pub fn stages(&self) -> u8 {
        self.stages
    }

    /// Whether the shared resources are pipelined (RSP rather than RS).
    pub fn is_pipelined(&self) -> bool {
        self.stages > 1
    }

    /// Total physical resources of this group on an array:
    /// `n·shr + m·shc` (the multiplier of `Sh_Res_area` in eq. (2)).
    pub fn total_count(&self, geom: ArrayGeometry) -> usize {
        geom.rows() * self.per_row + geom.cols() * self.per_col
    }

    /// Fan-in each PE's bus switch needs for this group
    /// (`shr + shc` routing alternatives).
    pub fn switch_fan_in(&self) -> usize {
        self.per_row + self.per_col
    }
}

impl fmt::Display for SharedGroup {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{} shr={} shc={} stages={}",
            self.kind, self.per_row, self.per_col, self.stages
        )
    }
}

/// Identity of one physical shared resource instance on the array.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Serialize, Deserialize)]
pub enum SharedResourceId {
    /// The `index`-th resource of `kind` serving row `row`.
    Row {
        /// Functional-unit kind.
        kind: FuKind,
        /// Row served by this resource.
        row: usize,
        /// Index within the row bank, `0..shr`.
        index: usize,
    },
    /// The `index`-th resource of `kind` serving column `col`.
    Col {
        /// Functional-unit kind.
        kind: FuKind,
        /// Column served by this resource.
        col: usize,
        /// Index within the column bank, `0..shc`.
        index: usize,
    },
}

impl SharedResourceId {
    /// The functional-unit kind of this resource.
    pub fn kind(&self) -> FuKind {
        match *self {
            SharedResourceId::Row { kind, .. } | SharedResourceId::Col { kind, .. } => kind,
        }
    }

    /// Whether a PE can route operands to this resource (same row for a row
    /// bank, same column for a column bank).
    pub fn reaches(&self, pe: PeId) -> bool {
        match *self {
            SharedResourceId::Row { row, .. } => pe.row == row,
            SharedResourceId::Col { col, .. } => pe.col == col,
        }
    }
}

impl fmt::Display for SharedResourceId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match *self {
            SharedResourceId::Row { kind, row, index } => {
                write!(f, "{kind}@row{row}.{index}")
            }
            SharedResourceId::Col { kind, col, index } => {
                write!(f, "{kind}@col{col}.{index}")
            }
        }
    }
}

/// The complete RSP parameter set: shared groups plus optional in-PE
/// (local) pipelining of non-shared resources.
///
/// `SharingPlan::none()` describes the base architecture.
#[derive(Debug, Clone, PartialEq, Eq, Hash, Default, Serialize, Deserialize)]
pub struct SharingPlan {
    groups: Vec<SharedGroup>,
    local_pipeline: BTreeMap<FuKind, u8>,
}

impl SharingPlan {
    /// The empty plan — the base architecture with fully-equipped PEs.
    ///
    /// # Examples
    ///
    /// ```
    /// use rsp_arch::SharingPlan;
    /// assert!(SharingPlan::none().is_base());
    /// ```
    pub fn none() -> Self {
        Self::default()
    }

    /// Adds a shared group.
    ///
    /// # Errors
    ///
    /// [`ArchError::DuplicateGroup`] if a group of the same kind exists.
    pub fn with_group(mut self, group: SharedGroup) -> Result<Self, ArchError> {
        if self.groups.iter().any(|g| g.kind() == group.kind()) {
            return Err(ArchError::DuplicateGroup(group.kind()));
        }
        self.groups.push(group);
        Ok(self)
    }

    /// Pipelines a *local* (non-shared) resource inside every PE into
    /// `stages` stages (pure RP, no sharing).
    ///
    /// # Errors
    ///
    /// [`ArchError::BadStages`] for invalid depth or non-pipelinable kinds;
    /// [`ArchError::DuplicateGroup`] if the kind is already shared (its
    /// pipelining then belongs to the shared group).
    pub fn with_local_pipeline(mut self, kind: FuKind, stages: u8) -> Result<Self, ArchError> {
        if stages == 0 || stages > MAX_STAGES || !kind.is_pipelinable() {
            return Err(ArchError::BadStages { kind, stages });
        }
        if self.groups.iter().any(|g| g.kind() == kind) {
            return Err(ArchError::DuplicateGroup(kind));
        }
        self.local_pipeline.insert(kind, stages);
        Ok(self)
    }

    /// Whether this is the base architecture (nothing shared or pipelined).
    pub fn is_base(&self) -> bool {
        self.groups.is_empty() && self.local_pipeline.is_empty()
    }

    /// The shared groups.
    pub fn groups(&self) -> &[SharedGroup] {
        &self.groups
    }

    /// The shared group for `kind`, if any.
    pub fn group(&self, kind: FuKind) -> Option<&SharedGroup> {
        self.groups.iter().find(|g| g.kind() == kind)
    }

    /// Whether `kind` is extracted from the PEs and shared.
    pub fn is_shared(&self, kind: FuKind) -> bool {
        self.group(kind).is_some()
    }

    /// Locally pipelined kinds and their depths.
    pub fn local_pipelines(&self) -> impl Iterator<Item = (FuKind, u8)> + '_ {
        self.local_pipeline.iter().map(|(k, v)| (*k, *v))
    }

    /// Effective latency in cycles of an operation on `kind` under this
    /// plan: the pipeline depth of the resource that executes it (shared
    /// bank, locally pipelined unit, or 1 for plain combinational units).
    pub fn latency_of(&self, kind: FuKind) -> u8 {
        if let Some(g) = self.group(kind) {
            g.stages()
        } else {
            self.local_pipeline.get(&kind).copied().unwrap_or(1)
        }
    }

    /// Total bus-switch fan-in each PE needs (sum over groups).
    pub fn switch_fan_in(&self) -> usize {
        self.groups.iter().map(SharedGroup::switch_fan_in).sum()
    }

    /// Whether any PE needs a bus switch at all.
    pub fn needs_switch(&self) -> bool {
        !self.groups.is_empty()
    }

    /// Whether any resource (shared or local) is pipelined — i.e. whether
    /// PEs need the extra pipeline-control registers (`Reg_area` of
    /// eq. (2)).
    pub fn has_pipelining(&self) -> bool {
        self.groups.iter().any(SharedGroup::is_pipelined) || !self.local_pipeline.is_empty()
    }

    /// Enumerates every physical shared resource on an array of the given
    /// geometry, row banks first, in a stable order.
    pub fn resources(&self, geom: ArrayGeometry) -> Vec<SharedResourceId> {
        let mut out = Vec::new();
        for g in &self.groups {
            for row in 0..geom.rows() {
                for index in 0..g.per_row() {
                    out.push(SharedResourceId::Row {
                        kind: g.kind(),
                        row,
                        index,
                    });
                }
            }
            for col in 0..geom.cols() {
                for index in 0..g.per_col() {
                    out.push(SharedResourceId::Col {
                        kind: g.kind(),
                        col,
                        index,
                    });
                }
            }
        }
        out
    }

    /// Enumerates the shared resources of `kind` reachable from `pe`
    /// (its row bank then its column bank) — the routing alternatives of
    /// that PE's bus switch.
    pub fn reachable_from(&self, pe: PeId, kind: FuKind) -> Vec<SharedResourceId> {
        let Some(g) = self.group(kind) else {
            return Vec::new();
        };
        let mut out = Vec::with_capacity(g.switch_fan_in());
        for index in 0..g.per_row() {
            out.push(SharedResourceId::Row {
                kind,
                row: pe.row,
                index,
            });
        }
        for index in 0..g.per_col() {
            out.push(SharedResourceId::Col {
                kind,
                col: pe.col,
                index,
            });
        }
        out
    }
}

impl fmt::Display for SharingPlan {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        if self.is_base() {
            return f.write_str("base (no sharing)");
        }
        let mut parts: Vec<String> = self.groups.iter().map(|g| g.to_string()).collect();
        for (k, s) in &self.local_pipeline {
            parts.push(format!("{k} local-pipe stages={s}"));
        }
        f.write_str(&parts.join("; "))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn mult_group(shr: usize, shc: usize, stages: u8) -> SharedGroup {
        SharedGroup::new(FuKind::Multiplier, shr, shc, stages).unwrap()
    }

    #[test]
    fn group_validation() {
        assert!(matches!(
            SharedGroup::new(FuKind::Mux, 1, 0, 1),
            Err(ArchError::NotSharable(FuKind::Mux))
        ));
        assert!(matches!(
            SharedGroup::new(FuKind::Multiplier, 0, 0, 1),
            Err(ArchError::EmptyGroup(_))
        ));
        assert!(matches!(
            SharedGroup::new(FuKind::Multiplier, 1, 0, 0),
            Err(ArchError::BadStages { .. })
        ));
        assert!(matches!(
            SharedGroup::new(FuKind::Multiplier, 1, 0, MAX_STAGES + 1),
            Err(ArchError::BadStages { .. })
        ));
    }

    #[test]
    fn totals_match_eq2() {
        // Fig. 8 arch #3 on 8x8: 2 per row + 1 per col = 8*2 + 8*1 = 24.
        let g = mult_group(2, 1, 1);
        assert_eq!(g.total_count(ArrayGeometry::new(8, 8)), 24);
        assert_eq!(g.switch_fan_in(), 3);
    }

    #[test]
    fn plan_rejects_duplicate_kind() {
        let plan = SharingPlan::none().with_group(mult_group(1, 0, 1)).unwrap();
        assert!(matches!(
            plan.with_group(mult_group(2, 0, 1)),
            Err(ArchError::DuplicateGroup(FuKind::Multiplier))
        ));
    }

    #[test]
    fn local_pipeline_conflicts_with_sharing() {
        let plan = SharingPlan::none().with_group(mult_group(1, 0, 2)).unwrap();
        assert!(plan.with_local_pipeline(FuKind::Multiplier, 2).is_err());
    }

    #[test]
    fn latency_reflects_stages() {
        let plan = SharingPlan::none().with_group(mult_group(2, 0, 2)).unwrap();
        assert_eq!(plan.latency_of(FuKind::Multiplier), 2);
        assert_eq!(plan.latency_of(FuKind::Alu), 1);

        let rp_only = SharingPlan::none()
            .with_local_pipeline(FuKind::Multiplier, 3)
            .unwrap();
        assert_eq!(rp_only.latency_of(FuKind::Multiplier), 3);
        assert!(rp_only.has_pipelining());
        assert!(!rp_only.needs_switch());
    }

    #[test]
    fn resource_enumeration_and_reachability() {
        let geom = ArrayGeometry::new(4, 4);
        let plan = SharingPlan::none().with_group(mult_group(2, 1, 2)).unwrap();
        let res = plan.resources(geom);
        // 4 rows * 2 + 4 cols * 1 = 12 resources.
        assert_eq!(res.len(), 12);

        let pe = PeId::new(1, 3);
        let reach = plan.reachable_from(pe, FuKind::Multiplier);
        assert_eq!(reach.len(), 3); // shr + shc
        assert!(reach.iter().all(|r| r.reaches(pe)));
        // A resource in another row must not be reachable.
        let foreign = SharedResourceId::Row {
            kind: FuKind::Multiplier,
            row: 0,
            index: 0,
        };
        assert!(!foreign.reaches(pe));
    }

    #[test]
    fn base_plan_is_empty() {
        let p = SharingPlan::none();
        assert!(p.is_base());
        assert_eq!(p.switch_fan_in(), 0);
        assert!(!p.has_pipelining());
        assert!(p.resources(ArrayGeometry::new(8, 8)).is_empty());
        assert_eq!(p.to_string(), "base (no sharing)");
    }

    #[test]
    fn reachable_from_unshared_kind_is_empty() {
        let p = SharingPlan::none();
        assert!(p
            .reachable_from(PeId::new(0, 0), FuKind::Multiplier)
            .is_empty());
    }
}
