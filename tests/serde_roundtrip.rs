//! Serialization round trips: kernels, architectures, contexts,
//! rearrangements and results survive JSON without loss — the interchange
//! format a larger toolchain (or a CI artifact store) would rely on.

use rsp::arch::{presets, RspArchitecture};
use rsp::core::{rearrange, Rearranged};
use rsp::kernel::{suite, Kernel, MemoryImage};
use rsp::mapper::{map, ConfigContext, InstanceId, MapOptions, SrcOperand};

fn round_trip<T>(value: &T) -> T
where
    T: serde::Serialize + for<'de> serde::Deserialize<'de>,
{
    let json = serde_json::to_string(value).expect("serializes");
    serde_json::from_str(&json).expect("deserializes")
}

#[test]
fn kernels_round_trip() {
    for k in suite::all() {
        let back: Kernel = round_trip(&k);
        assert_eq!(back, k, "{}", k.name());
        // Metadata derived from the body survives.
        assert_eq!(back.op_set(), k.op_set());
        assert_eq!(back.total_ops(), k.total_ops());
    }
}

#[test]
fn architectures_round_trip() {
    for arch in presets::table_architectures() {
        let back: RspArchitecture = round_trip(&arch);
        assert_eq!(back, arch, "{}", arch.name());
        assert_eq!(back.shared_resources(), arch.shared_resources());
    }
}

#[test]
fn contexts_round_trip() {
    let base = presets::base_8x8();
    for k in suite::all() {
        let ctx = map(base.base(), &k, &MapOptions::default()).unwrap();
        let back: ConfigContext = round_trip(&ctx);
        assert_eq!(back, ctx, "{}", k.name());
        assert_eq!(back.mult_profile(), ctx.mult_profile());
    }
}

#[test]
fn structurally_broken_contexts_do_not_deserialize() {
    let base = presets::base_8x8();
    let fdct = map(base.base(), &suite::fdct(), &MapOptions::default()).unwrap();
    let consumer = fdct
        .instances()
        .iter()
        .find(|i| !i.preds.is_empty())
        .unwrap()
        .id
        .index();
    let load = |edit: &dyn Fn(&mut serde_json::Value)| {
        let mut v = serde_json::to_value(&fdct).unwrap();
        edit(&mut v);
        serde_json::from_value::<ConfigContext>(v)
    };
    let rejects = |reason: &str, edit: &dyn Fn(&mut serde_json::Value)| {
        let err = load(edit).unwrap_err().to_string();
        assert!(err.contains(reason), "{err:?} should say {reason:?}");
    };
    let missing = InstanceId(100_000);

    // Used to rearrange to `base_cycles: 5, rp_overhead: 38`.
    rejects("total_cycles 5 but", &|v| v["total_cycles"] = 5.into());
    // Used to panic inside `rearrange`.
    rejects("cycles for", &|v| {
        v["cycles"].as_array_mut().unwrap().pop();
    });
    rejects("has id", &|v| v["instances"][3]["id"] = 4.into());
    rejects("refers to", &|v| {
        v["instances"][consumer]["preds"][0] = missing.0.into()
    });
    for operand in [SrcOperand::Inst(missing), SrcOperand::PairOf(missing)] {
        rejects("refers to", &|v| {
            v["instances"][consumer]["operands"][0] = serde_json::to_value(&operand).unwrap()
        });
    }
    // Only the edits break structure: the unedited context still loads.
    assert_eq!(load(&|_| {}).unwrap(), fdct);
}

#[test]
fn rearrangements_round_trip() {
    let base = presets::base_8x8();
    let ctx = map(base.base(), &suite::fdct(), &MapOptions::default()).unwrap();
    let r = rearrange(&ctx, &presets::rsp2(), &Default::default()).unwrap();
    let back: Rearranged = round_trip(&r);
    assert_eq!(back, r);
}

#[test]
fn memory_images_round_trip() {
    let k = suite::sad();
    let img = MemoryImage::random(&k, 9);
    let back: MemoryImage = round_trip(&img);
    assert_eq!(back, img);
}

#[test]
fn deserialized_artifacts_still_work_together() {
    // A full pipeline over deserialized values: the JSON form is not just
    // storage, it is executable state.
    let base = presets::base_8x8();
    let kernel: Kernel = round_trip(&suite::inner_product());
    let arch: RspArchitecture = round_trip(&presets::rsp1());
    let ctx: ConfigContext =
        round_trip(&map(base.base(), &kernel, &MapOptions::default()).unwrap());
    let r: Rearranged = round_trip(&rearrange(&ctx, &arch, &Default::default()).unwrap());

    let input = MemoryImage::random(&kernel, 3);
    let params = rsp::kernel::Bindings::defaults(&kernel);
    let sim = rsp::sim::simulate(
        &ctx,
        &arch,
        &r.cycles,
        &r.bindings,
        &kernel,
        &input,
        &params,
        &Default::default(),
    )
    .unwrap();
    let reference = rsp::kernel::evaluate(&kernel, &input, &params).unwrap();
    assert_eq!(sim.memory, reference);
}
