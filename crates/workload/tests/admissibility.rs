//! The estimator's admissibility contract, exercised over the generated
//! workload suite: the slack-aware stall estimate never exceeds the
//! exact rearranged elapsed cycle count, on any committed or seeded
//! random workload, on every Table 4/5 architecture. This is the
//! property the exploration engine's cuts rest on — an inadmissible
//! estimate would let the engine cut the true optimum.

use proptest::prelude::*;
use rsp_arch::{presets, RspArchitecture};
use rsp_core::{estimate_stalls, rearrange, RearrangeOptions};
use rsp_kernel::Kernel;
use rsp_mapper::{map, MapOptions};
use rsp_workload::{random_kernel, registry, RandomKernelConfig, SUITE_MAX_SLOWDOWN};

/// Estimate vs. exact for one kernel on one architecture, or `None`
/// when the combination never reaches the comparison: the base schedule
/// does not fit the architecture's configuration cache, or the exact
/// rearrangement is honestly infeasible (e.g. a pipelined multiplication
/// in flight across every split boundary).
fn est_vs_exact(kernel: &Kernel, arch: &RspArchitecture) -> Option<(u32, u32)> {
    let ctx = map(arch.base(), kernel, &MapOptions::default()).ok()?;
    let est = estimate_stalls(&ctx, arch);
    let exact = rearrange(&ctx, arch, &RearrangeOptions::default()).ok()?;
    Some((est.total_cycles, exact.elapsed_cycles()))
}

/// Every committed workload (generated families and the two committed
/// random seeds alike), on every Table 4/5 architecture: the estimate
/// lower-bounds the exact elapsed cycles.
#[test]
fn estimates_are_admissible_across_suite_and_table_architectures() {
    let mut compared = 0usize;
    for kernel in registry() {
        for arch in presets::table_architectures() {
            let Some((est, exact)) = est_vs_exact(&kernel, &arch) else {
                continue;
            };
            assert!(
                est <= exact,
                "inadmissible estimate for {} on {}: est {est} > exact {exact}",
                kernel.name(),
                arch.name()
            );
            compared += 1;
        }
    }
    // The suite must actually exercise the property, not vacuously skip.
    assert!(
        compared > registry().len(),
        "only {compared} comparisons ran"
    );
}

/// Tightness regression on the suite's stall-heaviest committed
/// combination: matmul16 on RS#1 (one combinational multiplier per
/// row). The estimate must stay admissible *and* within the paper's
/// 1.5× slowdown cap of the exact time — the margin that lets the
/// suite run under [`SUITE_MAX_SLOWDOWN`] without the estimator
/// misclassifying the space's interesting candidates.
#[test]
fn matmul16_on_rs1_estimate_is_admissible_and_tight() {
    let kernel = rsp_workload::generators::matmul(16);
    let (est, exact) = est_vs_exact(&kernel, &presets::rs1()).expect("matmul16 fits RS#1");
    assert!(est <= exact, "est {est} > exact {exact}");
    assert!(
        exact as f64 <= SUITE_MAX_SLOWDOWN * est as f64,
        "estimate went slack: exact {exact} > {SUITE_MAX_SLOWDOWN} x est {est}"
    );
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(16))]

    /// Seeded random DFGs beyond the two committed seeds: admissibility
    /// holds for arbitrary generator seeds on every Table 4/5
    /// architecture.
    #[test]
    fn estimates_are_admissible_on_random_workloads(seed in any::<u64>()) {
        let kernel = random_kernel(seed, &RandomKernelConfig::default());
        for arch in presets::table_architectures() {
            let Some((est, exact)) = est_vs_exact(&kernel, &arch) else {
                continue;
            };
            prop_assert!(
                est <= exact,
                "inadmissible estimate for seed {seed} on {}: est {est} > exact {exact}",
                arch.name()
            );
        }
    }
}
