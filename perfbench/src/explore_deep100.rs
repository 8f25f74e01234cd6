//! `explore-deep100`: RSP design-space exploration of the 11,024-candidate
//! mixed multiplier × ALU × shifter space, as a designer sweeps
//! execution-frequency scenarios for one application. Set-up reads the
//! application, the paper's nine kernels, from DFG source, maps it onto
//! the 8×8 base (the contexts [`explore_with`] takes so that callers can
//! reuse them) and fills the synthesis and profile memos
//! [`ExploreOptions`] shares across runs by exploring once under uniform
//! weights; neither memo depends on the weights. One operation sweeps
//! the space with the engine's default options under one of many seeded
//! weight profiles and confirms the selected design by rearranging every
//! kernel onto it exactly.
//!
//! Reference: the serial engine without memos (`parallelism: Some(1)`),
//! whose frontier, feasible set and selection the default engine must
//! match bit for bit, and admissibility: the selected design's estimated
//! cycles may never exceed its exact ones.

use crate::inputs::{read_app, sources, Rng};
use crate::{closed_loop, timed_setups, Outcome, WARM_UPS};
use rsp::arch::{presets, BaseArchitecture};
use rsp::core::{
    explore_with, rearrange, DesignSpace, ExploreOptions, ProfileCache, RearrangeOptions,
};
use rsp::kernel::{suite, Kernel};
use rsp::mapper::{map, ConfigContext, MapOptions};
use rsp::obs::{RingRecorder, Span};
use rsp::synth::ModelCache;
use std::sync::Arc;

/// Distinct weight profiles per run; operations cycle through them.
/// Pruning and the selected design depend on the weights, so with few
/// profiles the latency median would hinge on which ones a seed draws.
const PROFILES: usize = 32;

/// One application, read and mapped, and how to explore it.
struct Engine {
    base: BaseArchitecture,
    space: DesignSpace,
    kernels: Vec<Kernel>,
    contexts: Vec<ConfigContext>,
    options: ExploreOptions,
}

impl Engine {
    /// Reads the application from `sources` and maps it onto the base.
    fn new(sources: &[String], options: ExploreOptions) -> Result<Self, String> {
        let base = presets::base_8x8().base().clone();
        let kernels = read_app(sources)?;
        let contexts = kernels
            .iter()
            .map(|k| map(&base, k, &MapOptions::default()))
            .collect::<Result<Vec<_>, _>>()
            .map_err(|e| e.to_string())?;
        Ok(Engine {
            base,
            space: DesignSpace::deep100(),
            kernels,
            contexts,
            options,
        })
    }

    /// One exploration; the digest holds every output the engine
    /// promises to reproduce plus the exact cycles of the selection.
    fn explore(&self, weights: &[f64]) -> Result<String, String> {
        let obs = rsp::obs::global();
        let result = explore_with(
            &self.base,
            &self.kernels,
            &self.contexts,
            weights,
            &self.space,
            &self.options,
        )
        .map_err(|e| e.to_string())?;
        let best = result.try_best_point().ok_or("no design selected")?;
        let exact = self
            .contexts
            .iter()
            .map(|ctx| {
                let _span = Span::enter(&*obs, "bench", "rearrange", 0);
                rearrange(ctx, &best.arch, &RearrangeOptions::default())
            })
            .collect::<Result<Vec<_>, _>>()
            .map_err(|e| e.to_string())?;
        let elapsed: Vec<u32> = exact
            .iter()
            .map(|r| r.total_cycles + r.refill_stalls())
            .collect();
        if best
            .est_cycles
            .iter()
            .zip(&elapsed)
            .any(|(est, exact)| est > exact)
        {
            return Err(format!(
                "estimate {:?} exceeds exact cycles {elapsed:?} on {}",
                best.est_cycles,
                best.arch.name()
            ));
        }
        let frontier: Vec<_> = result
            .pareto_points()
            .map(|p| (p.arch.name(), p.area_slices, p.est_et_ns))
            .collect();
        Ok(format!(
            "{} {} {:?} {frontier:?} {elapsed:?}",
            best.arch.name(),
            result.feasible.len(),
            result.base_et_ns,
        ))
    }
}

pub(crate) fn run(seed: u64, seconds: u64, ring: Option<&RingRecorder>) -> Result<Outcome, String> {
    let mut rng = Rng::new(seed);
    let sources = sources(&suite::all());
    let profiles: Vec<Vec<f64>> = (0..PROFILES)
        .map(|_| sources.iter().map(|_| rng.range(1, 100) as f64).collect())
        .collect();

    let oracle = Engine::new(
        &sources,
        ExploreOptions {
            parallelism: Some(1),
            ..ExploreOptions::default()
        },
    )?;
    let expected = profiles
        .iter()
        .map(|weights| oracle.explore(weights))
        .collect::<Result<Vec<_>, _>>()?;

    // Set-up: read and map the application and fill the explorer's memos.
    let (engine, setup_s) = timed_setups(|| {
        let engine = Engine::new(
            &sources,
            ExploreOptions {
                cache: Some(Arc::new(ModelCache::new())),
                profiles: Some(Arc::new(ProfileCache::new())),
                ..ExploreOptions::default()
            },
        )?;
        engine.explore(&vec![1.0; sources.len()])?;
        Ok(engine)
    })?;
    for weights in &profiles[..WARM_UPS] {
        engine.explore(weights)?;
    }

    if let Some(ring) = ring {
        ring.clear();
    }
    let samples = closed_loop(
        1,
        seconds,
        |_, n| engine.explore(&profiles[n % PROFILES]),
        |_, n, digest| digest == expected[n % PROFILES],
    );
    Ok(Outcome {
        samples,
        setup_s,
        verified: Ok(()),
    })
}
