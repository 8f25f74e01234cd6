//! The central functional oracle: for every kernel, every architecture,
//! and several input seeds, the cycle-accurate simulation of the
//! rearranged contexts is bit-identical to the reference evaluator.

use rsp::arch::presets;
use rsp::core::rearrange;
use rsp::kernel::{evaluate, suite, Bindings, MemoryImage};
use rsp::mapper::{map, MapOptions};
use rsp::sim::{simulate, simulate_base, SimOptions};

#[test]
fn all_kernels_all_architectures_three_seeds() {
    for k in suite::all() {
        let ctx = map(presets::base_8x8().base(), &k, &MapOptions::default()).unwrap();
        for arch in presets::table_architectures() {
            let r = rearrange(&ctx, &arch, &Default::default()).unwrap();
            for seed in [1u64, 7, 0xDEAD] {
                let input = MemoryImage::random(&k, seed);
                let params = Bindings::defaults(&k);
                let sim = simulate(
                    &ctx,
                    &arch,
                    &r.cycles,
                    &r.bindings,
                    &k,
                    &input,
                    &params,
                    &Default::default(),
                )
                .unwrap_or_else(|e| panic!("{} on {}: {e}", k.name(), arch.name()));
                let reference = evaluate(&k, &input, &params).unwrap();
                assert_eq!(
                    sim.memory,
                    reference,
                    "{} on {} seed {seed}",
                    k.name(),
                    arch.name()
                );
            }
        }
    }
}

#[test]
fn strict_bus_mapping_stays_equivalent_and_bus_legal() {
    // Lockstep kernels mapped in strict-bus mode must simulate correctly
    // even with the simulator's bus checking enabled. Bus bandwidth is
    // allocated at mapping time, so this runs on the base architecture,
    // where rearrangement is the identity: sharing variants may delay an
    // instance into a cycle whose bus words are already taken.
    let arch = presets::base_8x8();
    for k in [
        suite::inner_product(),
        suite::sad(),
        suite::mvm(),
        suite::matmul(8),
    ] {
        let ctx = map(
            arch.base(),
            &k,
            &MapOptions {
                strict_buses: true,
                ..MapOptions::default()
            },
        )
        .unwrap();
        let r = rearrange(&ctx, &arch, &Default::default()).unwrap();
        assert_eq!(r.cycles, ctx.cycles(), "{}", k.name());
        let input = MemoryImage::random(&k, 5);
        let params = Bindings::defaults(&k);
        let sim = simulate(
            &ctx,
            &arch,
            &r.cycles,
            &r.bindings,
            &k,
            &input,
            &params,
            &SimOptions {
                check_buses: true,
                ..Default::default()
            },
        )
        .unwrap_or_else(|e| panic!("{}: {e}", k.name()));
        let reference = evaluate(&k, &input, &params).unwrap();
        assert_eq!(sim.memory, reference, "{}", k.name());
    }
}

#[test]
fn base_simulation_equals_reference_on_alternate_geometries() {
    for (rows, cols) in [(4usize, 4usize), (4, 8), (8, 4), (6, 6)] {
        let arch = presets::shared_multiplier("g", rows, cols, 1, 1, 2);
        let base = arch.base();
        for k in [suite::iccg(), suite::hydro(), suite::sad()] {
            let ctx = map(base, &k, &MapOptions::default()).unwrap();
            let input = MemoryImage::random(&k, 11);
            let params = Bindings::defaults(&k);
            // Base execution (geometry only changes placement).
            let base_arch = presets::shared_multiplier("b", rows, cols, 1, 0, 1);
            let sim = simulate_base(
                &ctx,
                // A base-architecture view of the same geometry.
                &rsp::arch::RspArchitecture::new(
                    "plain",
                    base_arch.base().clone(),
                    rsp::arch::SharingPlan::none(),
                )
                .unwrap(),
                &k,
                &input,
                &params,
            )
            .unwrap_or_else(|e| panic!("{}x{} {}: {e}", rows, cols, k.name()));
            let reference = evaluate(&k, &input, &params).unwrap();
            assert_eq!(sim.memory, reference, "{rows}x{cols} {}", k.name());

            // Rearranged execution on the shared/pipelined variant.
            let r = rearrange(&ctx, &arch, &Default::default()).unwrap();
            let sim = simulate(
                &ctx,
                &arch,
                &r.cycles,
                &r.bindings,
                &k,
                &input,
                &params,
                &Default::default(),
            )
            .unwrap();
            assert_eq!(
                sim.memory,
                reference,
                "{rows}x{cols} {} rearranged",
                k.name()
            );
        }
    }
}

#[test]
fn deep_pipelines_remain_equivalent() {
    // 3- and 4-stage shared multipliers (the extended design space).
    for stages in [3u8, 4] {
        let arch = presets::shared_multiplier("deep", 8, 8, 2, 1, stages);
        for k in [suite::fdct(), suite::matmul(8), suite::state()] {
            let ctx = map(arch.base(), &k, &MapOptions::default()).unwrap();
            let r = rearrange(&ctx, &arch, &Default::default()).unwrap();
            let input = MemoryImage::random(&k, 21);
            let params = Bindings::defaults(&k);
            let sim = simulate(
                &ctx,
                &arch,
                &r.cycles,
                &r.bindings,
                &k,
                &input,
                &params,
                &Default::default(),
            )
            .unwrap();
            let reference = evaluate(&k, &input, &params).unwrap();
            assert_eq!(sim.memory, reference, "{} {stages} stages", k.name());
        }
    }
}
