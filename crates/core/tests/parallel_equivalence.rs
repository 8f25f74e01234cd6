//! Property tests: the exploration engine is *bit-identical* to the
//! serial reference implementation — same feasible set (order, cycle
//! estimates, and exact f64 bit patterns), same Pareto frontier, same
//! selected optimum — over both the paper's space and the extended
//! ablation space.

use proptest::prelude::*;
use rsp_arch::{presets, BaseArchitecture};
use rsp_core::{
    explore_reference, explore_with, Constraints, DesignSpace, Exploration, ExploreOptions,
    Objective,
};
use rsp_kernel::Kernel;
use rsp_mapper::{map, ConfigContext, MapOptions};
use std::sync::OnceLock;

/// The full suite mapped onto the 8×8 base, shared across cases (mapping
/// is the expensive part of the setup, not exploration).
fn fixture() -> &'static (BaseArchitecture, Vec<Kernel>, Vec<ConfigContext>) {
    static FIXTURE: OnceLock<(BaseArchitecture, Vec<Kernel>, Vec<ConfigContext>)> = OnceLock::new();
    FIXTURE.get_or_init(|| {
        let base = presets::base_8x8().base().clone();
        let kernels = rsp_kernel::suite::all();
        let contexts = kernels
            .iter()
            .map(|k| map(&base, k, &MapOptions::default()).unwrap())
            .collect();
        (base, kernels, contexts)
    })
}

fn assert_bit_identical(engine: &Exploration, reference: &Exploration) {
    assert_eq!(
        engine.feasible.len(),
        reference.feasible.len(),
        "feasible size"
    );
    for (e, r) in engine.feasible.iter().zip(&reference.feasible) {
        assert_eq!(e.arch.name(), r.arch.name());
        assert_eq!(e.arch.plan(), r.arch.plan());
        assert_eq!(
            e.area_slices.to_bits(),
            r.area_slices.to_bits(),
            "{}",
            e.arch.name()
        );
        assert_eq!(
            e.clock_ns.to_bits(),
            r.clock_ns.to_bits(),
            "{}",
            e.arch.name()
        );
        assert_eq!(e.est_cycles, r.est_cycles, "{}", e.arch.name());
        assert_eq!(
            e.est_et_ns.to_bits(),
            r.est_et_ns.to_bits(),
            "{}",
            e.arch.name()
        );
        assert_eq!(e.cost_bound_ok, r.cost_bound_ok, "{}", e.arch.name());
    }
    assert_eq!(engine.pareto, reference.pareto, "pareto frontier");
    assert_eq!(engine.best, reference.best, "best index");
    assert_eq!(engine.base_et_ns.to_bits(), reference.base_et_ns.to_bits());
}

fn arb_objective() -> impl Strategy<Value = Objective> {
    prop_oneof![
        Just(Objective::AreaDelayProduct),
        Just(Objective::ExecutionTime),
        Just(Objective::Area),
    ]
}

fn arb_space() -> impl Strategy<Value = DesignSpace> {
    prop_oneof![Just(DesignSpace::paper()), Just(DesignSpace::extended())]
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// Any objective × space × slowdown bound × cost bound reproduces
    /// the reference exploration bit for bit.
    #[test]
    fn engine_is_bit_identical_to_reference(
        objective in arb_objective(),
        space in arb_space(),
        slowdown_pct in 101u32..=300,
        enforce_cost in any::<bool>(),
    ) {
        let (base, kernels, contexts) = fixture();
        let weights = vec![1.0; kernels.len()];
        let constraints = Constraints {
            enforce_cost_bound: enforce_cost,
            max_slowdown: slowdown_pct as f64 / 100.0,
        };
        let reference = explore_reference(
            base, kernels, contexts, &weights, &space, &constraints, objective,
        );
        let engine = explore_with(
            base, kernels, contexts, &weights, &space,
            &ExploreOptions {
                constraints,
                objective,
                ..ExploreOptions::default()
            },
        );
        match (reference, engine) {
            (Ok(r), Ok(e)) => assert_bit_identical(&e, &r),
            (Err(r), Err(e)) => prop_assert_eq!(r, e),
            (r, e) => prop_assert!(false, "divergent outcomes: ref {:?} vs engine {:?}",
                r.map(|x| x.feasible.len()), e.map(|x| x.feasible.len())),
        }
    }
}
