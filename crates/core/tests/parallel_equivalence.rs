//! Property tests: the exploration engine is *bit-identical* to the
//! serial reference implementation — same feasible set (order, cycle
//! estimates, and exact f64 bit patterns), same Pareto frontier, same
//! selected optimum — over the paper's space, the extended ablation
//! space and seeded sub-spaces of the mixed deep100 space, truncated and
//! resumed.

use proptest::prelude::*;
use proptest::test_runner::TestCaseError;
use rsp_arch::{presets, BaseArchitecture};
use rsp_core::{
    explore_reference, explore_reference_with, explore_resume, explore_with, Constraints,
    DesignSpace, Exploration, ExploreControl, ExploreOptions, Objective,
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

/// A seeded sub-space of deep100: a non-empty subset of every axis's
/// stage, `shr` and `shc` lists, thinned until it holds at most 300
/// candidates, so the dense reference stays cheap.
fn deep100_subspace(mut seed: u64) -> DesignSpace {
    let mut next = |n: usize| {
        seed = seed
            .wrapping_mul(6364136223846793005)
            .wrapping_add(1442695040888963407);
        (seed >> 33) as usize % n
    };
    fn keep_some<T: Copy>(items: &[T], mut pick: impl FnMut(usize) -> usize) -> Vec<T> {
        let kept: Vec<T> = items.iter().copied().filter(|_| pick(2) == 0).collect();
        if kept.is_empty() {
            vec![items[pick(items.len())]]
        } else {
            kept
        }
    }
    let mut space = DesignSpace::deep100();
    for axis in &mut space.mixes[0] {
        axis.stages = keep_some(&axis.stages, &mut next);
        axis.shr = keep_some(&axis.shr, &mut next);
        axis.shc = keep_some(&axis.shc, &mut next);
    }
    while space.plans().count() > 300 {
        let axis = &mut space.mixes[0][next(3)];
        let list = next(3);
        let len = [axis.stages.len(), axis.shr.len(), axis.shc.len()][list];
        if len > 1 {
            let at = next(len);
            match list {
                0 => drop(axis.stages.remove(at)),
                1 => drop(axis.shr.remove(at)),
                _ => drop(axis.shc.remove(at)),
            }
        }
    }
    space
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(16))]

    /// Seeded deep100 sub-spaces reproduce the reference bit for bit —
    /// complete, truncated after a random number of candidates, and
    /// resumed from that truncation's checkpoint.
    #[test]
    fn engine_matches_reference_on_deep100_subspaces(
        seed in any::<u64>(),
        objective in arb_objective(),
        slowdown_pct in 101u32..=300,
        cut_permille in 0usize..=1000,
    ) {
        let (base, kernels, contexts) = fixture();
        // Half the cases explore over an 8-deep configuration cache, so
        // the estimates charge refill.
        let depth = if seed.is_multiple_of(2) { base.config_cache_depth() } else { 8 };
        let base = &BaseArchitecture::new(base.geometry(), base.pe().clone(), base.buses(), depth);
        let space = deep100_subspace(seed);
        let total = space.plans().count();
        let weights: Vec<f64> = (0..kernels.len())
            .map(|i| ((seed >> (i % 8 * 8)) % 17 + 1) as f64)
            .collect();
        let constraints = Constraints {
            enforce_cost_bound: true,
            max_slowdown: slowdown_pct as f64 / 100.0,
        };
        let options = ExploreOptions {
            constraints,
            objective,
            ..ExploreOptions::default()
        };
        let reference = explore_reference(
            base, kernels, contexts, &weights, &space, &constraints, objective,
        );
        let engine = explore_with(base, kernels, contexts, &weights, &space, &options);
        match (&reference, &engine) {
            (Ok(r), Ok(e)) => assert_bit_identical(e, r),
            (Err(r), Err(e)) => prop_assert_eq!(r, e),
            _ => prop_assert!(false, "divergent outcomes over {} candidates", total),
        }

        let k = total * cut_permille / 1000;
        let control = ExploreControl::with_budget(k);
        let truncated_reference = explore_reference_with(
            base, kernels, contexts, &weights, &space, &constraints, objective, &control,
        );
        let truncated = explore_with(
            base, kernels, contexts, &weights, &space,
            &ExploreOptions { control, ..options.clone() },
        );
        let truncated = match (truncated_reference, truncated) {
            (Ok(r), Ok(e)) => {
                assert_bit_identical(&e, &r);
                prop_assert_eq!(e.completeness, r.completeness);
                prop_assert_eq!(e.stats.candidates_seen, k);
                e
            }
            (Err(r), Err(e)) => {
                // Only a complete run fails: the budget covered it all.
                prop_assert_eq!(r, e);
                prop_assert_eq!(k, total);
                return Ok(());
            }
            _ => {
                return Err(TestCaseError(format!("divergent truncated outcomes at {k}")));
            }
        };
        let resumed = explore_resume(
            base, kernels, contexts, &weights, &space, &options, &truncated.checkpoint(),
        );
        match (reference, resumed) {
            (Ok(r), Ok(e)) => assert_bit_identical(&e, &r),
            (Err(r), Err(e)) => prop_assert_eq!(r, e),
            _ => prop_assert!(false, "divergent resumed outcomes from {}", k),
        }
    }
}
