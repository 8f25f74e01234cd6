//! `rearrange` reports its scheduler passes to the process-global
//! recorder. This binary holds the one test that installs a global
//! recorder, so no other test's rearrangements land in it.

use rsp_arch::presets;
use rsp_core::rearrange;
use rsp_kernel::suite;
use rsp_mapper::{map, MapOptions};
use rsp_obs::{EventKind, RingRecorder};
use std::sync::Arc;

#[test]
fn one_rearrange_records_two_scheduler_spans_and_the_same_result() {
    let ctx = map(
        presets::base_8x8().base(),
        &suite::fdct(),
        &MapOptions::default(),
    )
    .unwrap();
    let arch = presets::rsp2();
    // The global recorder is the null one until installed.
    let quiet = rearrange(&ctx, &arch, &Default::default()).unwrap();

    let ring = Arc::new(RingRecorder::new(16));
    let previous = rsp_obs::set_global(ring.clone());
    let observed = rearrange(&ctx, &arch, &Default::default());
    rsp_obs::set_global(previous);

    assert_eq!(observed.unwrap(), quiet);
    let spans = ring.named("rearrange", "schedule");
    assert_eq!(spans.len(), 2, "{spans:?}");
    assert_eq!(ring.total(), 2, "nothing else is recorded");
    // The latency-only pass, then the sharing pass.
    assert_eq!([spans[0].id, spans[1].id], [0, 1]);
    assert!(spans
        .iter()
        .all(|s| matches!(s.kind, EventKind::Span { .. })));
}
