//! Per-layer accounting for `--trace 1`.
//!
//! A [`RingRecorder`] installed as the process-global recorder keeps a
//! count and a span total per `(target, name)` that survive ring wrap.
//! It sees the spans the engine already emits (`flow/*`, `explore/*`,
//! `serve/*`) plus the benchmark's own `bench/rearrange` spans around
//! the exact rearrangements it runs directly. Per-layer numbers are
//! totals over the measured loop divided by the operations completed;
//! `unattributed_ms` is the part of an operation's mean latency no layer
//! span covers (profiling, memo lookups, result assembly and, when
//! served, the client's JSON coding, the socket and queueing).

use crate::Metric;
use rsp::obs::{PhaseSummary, RingRecorder};

type Key = (&'static str, &'static str);

/// Each layer: the spans whose durations add up to it, and the spans
/// nested inside those that belong to other layers. Spans of one layer
/// never nest inside each other, so the difference is its self time.
const LAYERS: [(&str, &[Key], &[Key]); 6] = [
    ("map_ms", &[("flow", "select_base")], &[]),
    ("prepare_ms", &[("explore", "prepare")], &[]),
    ("screen_ms", &[("explore", "screen")], &[]),
    ("estimate_ms", &[("explore", "estimate")], &[]),
    (
        "rearrange_ms",
        &[("flow", "exact"), ("bench", "rearrange")],
        &[],
    ),
    // The server's request decoding, reply encoding and socket write.
    (
        "wire_ms",
        &[("serve", "request"), ("serve", "write")],
        &[("serve", "execute")],
    ),
];

/// The per-layer metrics `ring` recorded over `ops` operations of mean
/// latency `op_ms`.
pub(crate) fn layers(ring: &RingRecorder, ops: usize, op_ms: f64) -> Vec<Metric> {
    let summary = ring.summary();
    let get = |key: &Key| {
        summary
            .iter()
            .find(|(k, _)| k == key)
            .map_or_else(PhaseSummary::default, |(_, s)| *s)
    };
    let per_op = |total: u64| total as f64 / ops as f64;
    let ms = |keys: &[Key]| {
        keys.iter()
            .map(|k| per_op(get(k).total_ns) / 1e6)
            .sum::<f64>()
    };
    let mut metrics = Vec::new();
    let mut attributed = 0.0;
    for (name, spans, children) in LAYERS {
        let value = ms(spans) - ms(children);
        attributed += value;
        metrics.push(Metric {
            name,
            value,
            unit: "ms",
        });
    }
    metrics.push(Metric {
        name: "unattributed_ms",
        value: op_ms - attributed,
        unit: "ms",
    });
    metrics.push(Metric {
        name: "op_ms",
        value: op_ms,
        unit: "ms",
    });
    metrics.push(Metric {
        name: "pruned_per_op",
        value: per_op(get(&("explore", "prune")).count),
        unit: "count",
    });
    metrics.push(Metric {
        name: "rearranged_per_op",
        value: per_op(get(&("flow", "rearrange")).count + get(&("bench", "rearrange")).count),
        unit: "count",
    });
    metrics
}
