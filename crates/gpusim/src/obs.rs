//! Bridging modeled [`stream::Timeline`](crate::stream::Timeline)s
//! into observability spans.
//!
//! The timeline already *is* a trace — every scheduled op carries its
//! modeled start/finish on one engine — so exporting it is a pure
//! mapping: the engines become the device's H2D/compute/D2H lanes. No
//! host clocks are consulted anywhere, which is what keeps exported
//! traces byte-identical across runs of the same seed.

use crate::stream::{Engine, Timeline};
use polygpu_obs::{Lane, MetaValue, SpanKind, TraceSink};

/// Emit one span per scheduled op of a device pipeline timeline,
/// offset by `base` seconds on the sink's local clock. Ops map as
/// CopyIn → upload (H2D lane), Compute → launch (compute lane),
/// CopyOut → download (D2H lane).
pub fn emit_timeline(sink: &TraceSink, tl: &Timeline, base: f64, depth: u8) {
    if !sink.enabled() {
        return;
    }
    for (i, op) in tl.ops().iter().enumerate() {
        let (lane, kind) = match op.engine {
            Engine::CopyIn => (Lane::H2D, SpanKind::Upload),
            Engine::Compute => (Lane::Compute, SpanKind::Launch),
            Engine::CopyOut => (Lane::D2H, SpanKind::Download),
        };
        sink.lane(lane).emit(
            kind,
            base + op.start,
            op.finish - op.start,
            depth,
            &[("op", MetaValue::U64(i as u64))],
        );
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::stream::pipeline_timeline;
    use polygpu_obs::{CollectingTracer, Track};
    use std::sync::Arc;

    #[test]
    fn pipeline_ops_land_on_their_lanes() {
        let tl = pipeline_timeline(&[1.0, 1.0], &[2.0, 2.0], &[0.5, 0.5], 2);
        let tracer = Arc::new(CollectingTracer::new());
        let sink = TraceSink::new(tracer.clone()).on(Track::Device(3));
        emit_timeline(&sink, &tl, 10.0, 4);
        let spans = tracer.spans();
        assert_eq!(spans.len(), tl.ops().len());
        let uploads: Vec<_> = spans
            .iter()
            .filter(|s| s.track == Track::DeviceLane(3, Lane::H2D))
            .collect();
        assert_eq!(uploads.len(), 2);
        assert_eq!(uploads[0].kind, SpanKind::Upload);
        assert_eq!(uploads[0].start, 10.0);
        // Total span time equals the timeline's busy seconds.
        let total: f64 = spans.iter().map(|s| s.dur).sum();
        assert!((total - tl.busy_seconds()).abs() < 1e-12);
    }

    #[test]
    fn disabled_sink_emits_nothing() {
        let tl = pipeline_timeline(&[1.0], &[1.0], &[1.0], 1);
        emit_timeline(&TraceSink::noop(), &tl, 0.0, 0);
    }
}
