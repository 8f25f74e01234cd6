//! Critical-path (clock period) model — the Fig. 5 mechanics.
//!
//! The array clock is the slowest of:
//!
//! * the **PE-internal path**: operand mux → widest local functional unit
//!   → shift logic (Table 1's 25.6 ns for the full PE; 15.3 ns once the
//!   multiplier is extracted or pipelined), plus the interconnect margin;
//! * for each **combinational shared resource** (pure RS): mux → bus
//!   switch → resource (+ result overhead) → shift logic, plus wire load
//!   that grows quadratically with switch fan-in;
//! * for each **pipelined shared resource** (RSP): the issue/return path —
//!   the stage register isolates the resource's combinational depth from
//!   the PE path, which is exactly why RSP *shortens* the clock while RS
//!   alone lengthens it (Table 2: +3.3 % … +16.3 % for RS, −27 % … −35 %
//!   for RSP);
//! * each pipeline **stage** itself (resource delay / stages + register
//!   margin) including its switch traversal.

use crate::calibration as cal;
use crate::components::ComponentLibrary;
use rsp_arch::{FuKind, PeDesign, RspArchitecture, SharedGroup, SharingPlan};
use serde::{Deserialize, Serialize};

/// Which path limits the clock.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum LimitingPath {
    /// The PE-internal combinational path.
    PeInternal,
    /// A shared combinational (non-pipelined) resource round trip.
    SharedCombinational(FuKind),
    /// A pipeline stage of a shared resource.
    SharedStage(FuKind),
    /// A pipeline stage of a locally pipelined resource.
    LocalStage(FuKind),
}

/// Clock-period breakdown for one architecture.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct DelayReport {
    /// PE-internal combinational path (no interconnect margin).
    pub pe_path_ns: f64,
    /// Bus-switch traversal delay (0 when nothing is shared).
    pub switch_ns: f64,
    /// Wire load of the sharing buses (0 when nothing is shared).
    pub wire_ns: f64,
    /// Resulting array clock period.
    pub clock_ns: f64,
    /// Clock of the base architecture on the same PE design.
    pub base_clock_ns: f64,
    /// Which path sets the clock.
    pub limiting: LimitingPath,
}

impl DelayReport {
    /// Critical-path reduction versus the base architecture in percent
    /// (positive = faster clock). Matches Tables 4/5, which compare
    /// against the 26 ns base array clock.
    pub fn reduction_pct(&self) -> f64 {
        100.0 * (1.0 - self.clock_ns / self.base_clock_ns)
    }
}

/// A fault-injection hook: called with each architecture entering full
/// delay synthesis ([`DelayModel::report`]). Tests hand in a hook that
/// panics on a chosen candidate to exercise a consumer's panic
/// isolation; the hook is *not* consulted by the plan-only
/// [`DelayModel::clock_floor_ns`] fast path, so admissible pre-synthesis
/// bounds stay fault-free.
pub type FaultHook = std::sync::Arc<dyn Fn(&RspArchitecture) + Send + Sync>;

/// Delay model over a component library.
#[derive(Clone, Default)]
pub struct DelayModel {
    lib: ComponentLibrary,
    fault: Option<FaultHook>,
}

impl std::fmt::Debug for DelayModel {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("DelayModel")
            .field("lib", &self.lib)
            .field("fault", &self.fault.as_ref().map(|_| "<hook>"))
            .finish()
    }
}

impl DelayModel {
    /// Model over the paper's Table 1 library.
    pub fn new() -> Self {
        Self::default()
    }

    /// Model over a custom library.
    pub fn with_library(lib: ComponentLibrary) -> Self {
        Self { lib, fault: None }
    }

    /// Attaches a [`FaultHook`] invoked at the top of every
    /// [`report`](Self::report) call (fault injection for robustness
    /// tests).
    pub fn with_fault_hook(
        mut self,
        hook: impl Fn(&RspArchitecture) + Send + Sync + 'static,
    ) -> Self {
        self.fault = Some(std::sync::Arc::new(hook));
        self
    }

    /// The component library in use.
    pub fn library(&self) -> &ComponentLibrary {
        &self.lib
    }

    /// Combinational delay of `fu` as seen on the datapath, including the
    /// multiplication result-handling overhead.
    fn fu_path(&self, fu: FuKind) -> f64 {
        let d = self.lib.spec(fu).delay_ns;
        if fu == FuKind::Multiplier {
            d + cal::MULT_RESULT_OVERHEAD_NS
        } else {
            d
        }
    }

    /// PE-internal path: mux → widest local compute unit (with local
    /// pipelining applied) → shift logic.
    pub fn pe_internal_path(&self, pe: &PeDesign, plan: &SharingPlan) -> f64 {
        let mux = self.lib.spec(FuKind::Mux).delay_ns;
        let shifter = if pe.has(FuKind::Shifter) {
            self.lib.spec(FuKind::Shifter).delay_ns
        } else {
            0.0
        };
        let mut widest: f64 = 0.0;
        for fu in [FuKind::Alu, FuKind::Multiplier] {
            if !pe.has(fu) {
                continue;
            }
            let stages = plan
                .local_pipelines()
                .find(|(k, _)| *k == fu)
                .map(|(_, s)| s)
                .unwrap_or(1);
            let d = if stages > 1 {
                self.fu_path(fu) / stages as f64 + cal::PIPE_REG_SETUP_NS
            } else {
                self.fu_path(fu)
            };
            widest = widest.max(d);
        }
        mux + widest + shifter
    }

    /// Admissible lower bound on [`DelayModel::report`]'s `clock_ns`,
    /// computable from the sharing plan's *stage structure alone* — no
    /// PE-path extraction, no wire-load model, no whole-plan switch
    /// fan-in. Exploration engines consult this before paying for full
    /// delay synthesis: when the bound already proves a candidate
    /// infeasible, the [`crate::ModelCache`] never sees it.
    ///
    /// The bound keeps, per shared group, only the clock term that
    /// survives every synthesis refinement: a pipeline stage
    /// (`fu/stages + register`) or a combinational round trip
    /// (`mux + fu`), each plus the *group's own* switch traversal (the
    /// whole plan's fan-in can only be larger, and switch delay is
    /// monotone in fan-in) and the interconnect margin — dropping the
    /// wire load and local shifter, both non-negative. Every retained
    /// term is one of the candidates `report` maximizes over, evaluated
    /// with equal-or-smaller addends in the same association order, so
    /// the bound never exceeds the synthesized clock under IEEE-754
    /// rounding (property-tested in this crate's test suite).
    ///
    /// # Examples
    ///
    /// ```
    /// use rsp_arch::presets;
    /// use rsp_synth::DelayModel;
    ///
    /// let model = DelayModel::new();
    /// for arch in presets::table_architectures() {
    ///     let floor = model.clock_floor_ns(arch.plan());
    ///     assert!(floor <= model.report(&arch).clock_ns);
    /// }
    /// ```
    pub fn clock_floor_ns(&self, plan: &SharingPlan) -> f64 {
        let mux = self.lib.spec(FuKind::Mux).delay_ns;
        let mut floor: f64 = 0.0;
        for (kind, stages) in plan.local_pipelines() {
            let stage = self.fu_path(kind) / stages as f64 + cal::PIPE_REG_SETUP_NS;
            floor = floor.max(mux + stage + cal::INTERCONNECT_NS);
        }
        for g in plan.groups() {
            floor = floor.max(self.group_clock_floor_ns(g));
        }
        floor
    }

    /// One shared group's term of [`clock_floor_ns`](Self::clock_floor_ns):
    /// its pipeline stage (`fu/stages + register`) or combinational
    /// round trip (`mux + fu`), plus the group's own switch traversal and
    /// the interconnect margin. It depends on the group alone, so an
    /// exploration computes it once per group and takes a plan's floor
    /// as the maximum of its groups' terms — bit-identical to
    /// `clock_floor_ns` for a plan without local pipelines, because a
    /// maximum of finite values does not round.
    pub fn group_clock_floor_ns(&self, g: &SharedGroup) -> f64 {
        let sw = cal::switch_delay_ns(g.switch_fan_in());
        if g.is_pipelined() {
            let stage = self.fu_path(g.kind()) / g.stages() as f64 + cal::PIPE_REG_SETUP_NS;
            stage + sw + cal::INTERCONNECT_NS
        } else {
            let mux = self.lib.spec(FuKind::Mux).delay_ns;
            mux + sw + self.fu_path(g.kind()) + cal::INTERCONNECT_NS
        }
    }

    /// Full clock-period report for an architecture.
    ///
    /// # Examples
    ///
    /// ```
    /// use rsp_arch::presets;
    /// use rsp_synth::DelayModel;
    ///
    /// let model = DelayModel::new();
    /// let base = model.report(&presets::base_8x8());
    /// assert!((base.clock_ns - 26.0).abs() < 1e-9);
    ///
    /// // RS lengthens the clock, RSP shortens it (Table 2).
    /// assert!(model.report(&presets::rs1()).clock_ns > base.clock_ns);
    /// assert!(model.report(&presets::rsp1()).clock_ns < base.clock_ns);
    /// ```
    pub fn report(&self, arch: &RspArchitecture) -> DelayReport {
        if let Some(hook) = &self.fault {
            hook(arch);
        }
        let plan = arch.plan();
        let mux = self.lib.spec(FuKind::Mux).delay_ns;
        let shifter_local = if arch.effective_pe().has(FuKind::Shifter) {
            self.lib.spec(FuKind::Shifter).delay_ns
        } else {
            0.0
        };

        let pe_path = self.pe_internal_path(arch.effective_pe(), plan);
        let fan_in = plan.switch_fan_in();
        let sw = cal::switch_delay_ns(fan_in);

        let mut clock = pe_path + cal::INTERCONNECT_NS;
        let mut limiting = LimitingPath::PeInternal;
        let mut wire_out: f64 = 0.0;

        // Local pipeline stages can limit the clock.
        for (kind, stages) in plan.local_pipelines() {
            let stage = self.fu_path(kind) / stages as f64 + cal::PIPE_REG_SETUP_NS;
            let cand = mux + stage + shifter_local + cal::INTERCONNECT_NS;
            if cand > clock {
                clock = cand;
                limiting = LimitingPath::LocalStage(kind);
            }
        }

        for g in plan.groups() {
            let wire = cal::wire_load_ns(g.switch_fan_in(), g.is_pipelined());
            wire_out = wire_out.max(wire);
            if g.is_pipelined() {
                // Issue/return path: the stage registers isolate the
                // resource; the PE path plus switch and (attenuated) wire.
                let cand = pe_path + sw + wire + cal::INTERCONNECT_NS;
                if cand > clock {
                    clock = cand;
                    limiting = LimitingPath::SharedStage(g.kind());
                }
                // Each pipeline stage plus its switch traversal.
                let stage = self.fu_path(g.kind()) / g.stages() as f64 + cal::PIPE_REG_SETUP_NS;
                let cand = stage + sw + cal::INTERCONNECT_NS;
                if cand > clock {
                    clock = cand;
                    limiting = LimitingPath::SharedStage(g.kind());
                }
            } else {
                // Combinational round trip through the shared resource.
                let cand =
                    mux + sw + self.fu_path(g.kind()) + wire + shifter_local + cal::INTERCONNECT_NS;
                if cand > clock {
                    clock = cand;
                    limiting = LimitingPath::SharedCombinational(g.kind());
                }
            }
        }

        let base_clock =
            self.pe_internal_path(arch.base().pe(), &SharingPlan::none()) + cal::INTERCONNECT_NS;

        DelayReport {
            pe_path_ns: pe_path,
            switch_ns: sw,
            wire_ns: wire_out,
            clock_ns: clock,
            base_clock_ns: base_clock,
            limiting,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rsp_arch::presets;

    #[test]
    fn base_pe_path_matches_table1() {
        let m = DelayModel::new();
        let base = presets::base_8x8();
        let p = m.pe_internal_path(base.base().pe(), base.plan());
        assert!((p - 25.6).abs() < 1e-9, "PE path {p}");
    }

    #[test]
    fn extracted_pe_path_is_15_3() {
        let m = DelayModel::new();
        let rsp2 = presets::rsp2();
        let p = m.pe_internal_path(rsp2.effective_pe(), rsp2.plan());
        assert!((p - 15.3).abs() < 1e-9, "Sh_PE path {p}");
    }

    #[test]
    fn rs_clocks_track_table2_within_2pct() {
        let m = DelayModel::new();
        let paper = [26.85, 27.97, 28.89, 30.23];
        for k in 1..=4 {
            let r = m.report(&presets::rs(k));
            let err = (r.clock_ns - paper[k - 1]).abs() / paper[k - 1];
            assert!(err < 0.02, "RS#{k}: {} vs {}", r.clock_ns, paper[k - 1]);
            assert!(matches!(
                r.limiting,
                LimitingPath::SharedCombinational(FuKind::Multiplier)
            ));
        }
    }

    #[test]
    fn rsp_clocks_track_table2_within_2pct() {
        let m = DelayModel::new();
        let paper = [16.72, 17.26, 18.21, 18.83];
        for k in 1..=4 {
            let r = m.report(&presets::rsp(k));
            let err = (r.clock_ns - paper[k - 1]).abs() / paper[k - 1];
            assert!(err < 0.02, "RSP#{k}: {} vs {}", r.clock_ns, paper[k - 1]);
        }
    }

    #[test]
    fn headline_delay_reduction_reproduced() {
        // Paper: critical path reduced by up to 34.69 % (RSP#1 vs 26 ns,
        // but quoted against the 25.6 ns PE; against the 26 ns array our
        // model gives ~36 %).
        let m = DelayModel::new();
        let best = (1..=4)
            .map(|k| m.report(&presets::rsp(k)).reduction_pct())
            .fold(f64::MIN, f64::max);
        assert!(
            best > 30.0 && best < 40.0,
            "best delay reduction {best:.1}%"
        );
    }

    #[test]
    fn rs_slower_monotone_in_config() {
        let m = DelayModel::new();
        let mut prev = 26.0;
        for k in 1..=4 {
            let c = m.report(&presets::rs(k)).clock_ns;
            assert!(c > prev, "RS#{k} clock must grow");
            prev = c;
        }
    }

    #[test]
    fn rp_only_shortens_clock() {
        let m = DelayModel::new();
        let r = m.report(&presets::rp_only(2));
        // Pipelined in-PE multiplier: ALU path dominates at 15.3 + margin.
        assert!(r.clock_ns < 26.0);
        assert!(r.clock_ns > 15.0);
    }

    #[test]
    fn deeper_pipeline_does_not_slow_clock() {
        let m = DelayModel::new();
        let two = m.report(&presets::rp_only(2)).clock_ns;
        let four = m.report(&presets::rp_only(4)).clock_ns;
        assert!(four <= two + 1e-9);
    }

    #[test]
    fn clock_floor_admissible_across_plan_grid() {
        // The stage-structure floor never exceeds the synthesized clock
        // for any (kind, shr, shc, stages) combination the spaces can
        // enumerate, and is exact for single-group pipelined plans whose
        // stage path limits the clock.
        let m = DelayModel::new();
        for kind in [FuKind::Multiplier, FuKind::Alu, FuKind::Shifter] {
            for stages in 1..=8u8 {
                for shr in 0..=4usize {
                    for shc in 0..=4usize {
                        let Ok(g) = rsp_arch::SharedGroup::new(kind, shr, shc, stages) else {
                            continue;
                        };
                        let Ok(plan) = rsp_arch::SharingPlan::none().with_group(g) else {
                            continue;
                        };
                        let Ok(arch) = rsp_arch::RspArchitecture::new(
                            "grid",
                            presets::base_8x8().base().clone(),
                            plan,
                        ) else {
                            continue;
                        };
                        let floor = m.clock_floor_ns(arch.plan());
                        let clock = m.report(&arch).clock_ns;
                        assert!(
                            floor <= clock,
                            "{kind:?} shr={shr} shc={shc} st={stages}: floor {floor} > {clock}"
                        );
                        assert!(floor > 0.0, "floor must be positive for shared plans");
                    }
                }
            }
        }
    }

    #[test]
    fn clock_floor_exact_when_stage_path_limits() {
        // RSP#k single-group plans: the floor keeps the stage + switch +
        // interconnect term verbatim, so whenever that term limits the
        // clock the bound is tight.
        let m = DelayModel::new();
        for k in 1..=4 {
            let arch = presets::rsp(k);
            let r = m.report(&arch);
            let floor = m.clock_floor_ns(arch.plan());
            assert!(floor <= r.clock_ns);
            if matches!(r.limiting, LimitingPath::SharedStage(_)) {
                assert!(
                    r.clock_ns - floor < r.clock_ns * 0.5,
                    "floor uselessly loose"
                );
            }
        }
    }

    #[test]
    fn reduction_pct_signs() {
        let m = DelayModel::new();
        assert!(m.report(&presets::rs1()).reduction_pct() < 0.0);
        assert!(m.report(&presets::rsp1()).reduction_pct() > 0.0);
        assert_eq!(m.report(&presets::base_8x8()).reduction_pct(), 0.0);
    }
}
