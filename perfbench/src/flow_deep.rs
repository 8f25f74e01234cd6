//! `flow-deep`: the whole Fig. 7 flow, one [`run_flow`] per operation,
//! as a designer re-runs it on one application under changing execution
//! counts. Set-up reads the application, the paper's nine kernels plus
//! `matmul11`, from DFG source and fills the synthesis and profile memos
//! [`FlowConfig`] shares across flows by running the flow once with unit
//! counts; neither memo depends on the counts. Each operation runs the
//! flow under one of many seeded execution-count profiles, exploring
//! the 480-candidate deep space on the paper's 8×8 base with the
//! engine's default options, every kernel a critical loop. Exact
//! rearrangement of the estimation frontier dominates its time.
//!
//! Reference: the serial flow without memos (`parallelism: Some(1)`),
//! whose outputs the default flow must match bit for bit, and the
//! simulator, which must reproduce the reference evaluator's memory on
//! every critical loop of the chosen design.

use crate::inputs::{read_app, sources, Rng};
use crate::{closed_loop, timed_setups, Outcome, WARM_UPS};
use rsp::core::{run_flow, AppProfile, DesignSpace, FlowConfig, FlowReport, ProfileCache};
use rsp::kernel::{evaluate, suite, Bindings, Kernel, MemoryImage};
use rsp::obs::RingRecorder;
use rsp::sim::simulate_rearranged;
use rsp::synth::ModelCache;
use rsp::workload::generators;
use std::sync::Arc;

/// Distinct execution-count profiles per run; operations cycle through
/// them. A flow's time varies about twofold with its profile, so with
/// few profiles the latency median would hinge on which ones a seed draws.
const PROFILES: usize = 64;

/// The paper's nine Table 4/5 kernels plus the generated `matmul11`:
/// the kernel set of the `rsp/flow` benchmark's `flow-deep` label.
fn kernels() -> Vec<Kernel> {
    let mut kernels = suite::all();
    kernels.push(generators::matmul(11));
    kernels
}

fn config() -> FlowConfig {
    FlowConfig {
        coverage: 1.0,
        geometries: vec![(8, 8)],
        space: DesignSpace::deep(),
        ..FlowConfig::default()
    }
}

fn flow(kernels: &[Kernel], counts: &[u64], config: &FlowConfig) -> Result<FlowReport, String> {
    let app = kernels
        .iter()
        .cloned()
        .zip(counts.iter().copied())
        .collect();
    run_flow(&[AppProfile::new("app", app)], config).map_err(|e| e.to_string())
}

/// Every output the flow promises to reproduce bit for bit.
fn digest(report: &FlowReport) -> String {
    let frontier: Vec<_> = report
        .exploration
        .pareto_points()
        .map(|p| (p.arch.name(), p.area_slices, p.est_et_ns))
        .collect();
    let exact: Vec<_> = report
        .rsp_contexts
        .iter()
        .map(|r| (r.total_cycles, r.rs_stalls, r.refill_stalls()))
        .collect();
    format!(
        "{} {:?} {:?} {:?} {} {frontier:?} {exact:?}",
        report.chosen.name(),
        report.area_slices,
        report.base_area_slices,
        report.weighted_et_ns(),
        report.exploration.feasible.len(),
    )
}

/// Simulates every critical loop on the chosen design against the
/// reference evaluator.
fn simulate_chosen(report: &FlowReport, seed: u64) -> Result<(), String> {
    let loops = report
        .critical_loops
        .iter()
        .zip(&report.contexts)
        .zip(&report.rsp_contexts);
    for ((critical, ctx), rearranged) in loops {
        let kernel = &critical.kernel;
        let input = MemoryImage::random(kernel, seed);
        let params = Bindings::defaults(kernel);
        let sim = simulate_rearranged(ctx, &report.chosen, rearranged, kernel, &input, &params)
            .map_err(|e| format!("{}: {e}", kernel.name()))?;
        let reference = evaluate(kernel, &input, &params).map_err(|e| e.to_string())?;
        if sim.memory != reference {
            return Err(format!(
                "{}: simulated memory differs from the evaluator",
                kernel.name()
            ));
        }
    }
    Ok(())
}

pub(crate) fn run(seed: u64, seconds: u64, ring: Option<&RingRecorder>) -> Result<Outcome, String> {
    let mut rng = Rng::new(seed);
    let sources = sources(&kernels());
    let profiles: Vec<Vec<u64>> = (0..PROFILES)
        .map(|_| sources.iter().map(|_| rng.range(1, 1000)).collect())
        .collect();

    let oracle = FlowConfig {
        parallelism: Some(1),
        ..config()
    };
    let app = read_app(&sources)?;
    let mut expected = Vec::with_capacity(PROFILES);
    let mut verified = Ok(());
    for counts in &profiles {
        let report = flow(&app, counts, &oracle)?;
        if verified.is_ok() {
            verified = simulate_chosen(&report, seed);
        }
        expected.push(digest(&report));
    }

    // Set-up: read the application and fill the flow's memos.
    let ((app, config), setup_s) = timed_setups(|| {
        let app = read_app(&sources)?;
        let config = FlowConfig {
            cache: Some(Arc::new(ModelCache::new())),
            profiles: Some(Arc::new(ProfileCache::new())),
            ..config()
        };
        flow(&app, &vec![1; app.len()], &config)?;
        Ok((app, config))
    })?;
    for counts in &profiles[..WARM_UPS] {
        flow(&app, counts, &config)?;
    }

    if let Some(ring) = ring {
        ring.clear();
    }
    let samples = closed_loop(
        1,
        seconds,
        |_, n| flow(&app, &profiles[n % PROFILES], &config).map(|r| digest(&r)),
        |_, n, digest| digest == expected[n % PROFILES],
    );
    Ok(Outcome {
        samples,
        setup_s,
        verified,
    })
}
